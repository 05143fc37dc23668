//! Exhaustive small-instance state-space diagrams.
//!
//! The [`Machine`] layer makes the action space enumerable, which is all
//! a figure-style state diagram needs: [`Diagram::walk`] breadth-first
//! walks a [`ProtocolMachine`] over a small scenario (2–3 processes,
//! bounded depth), dedups configurations structurally (a fingerprint
//! picks a collision chain of stored states, `==` confirms, as in the
//! liveness checker), labels every node with the protocol's declared
//! propositions that hold there, flags the states where a safety
//! predicate fails, and renders the result as Graphviz DOT
//! ([`Diagram::to_dot`]) or Mermaid ([`Diagram::to_mermaid`]).
//!
//! The walk is exhaustive within its caps (`max_depth` × `max_states`)
//! and fully deterministic: nodes are numbered in BFS discovery order,
//! which the machine's canonical action order fixes — the same scenario
//! always yields byte-identical diagrams (the golden-file tests rely on
//! this).
//!
//! Rendering is for people; it deliberately has no influence on any
//! checker and nothing in the workspace parses it back.

use crate::failure::FailurePattern;
use crate::fingerprint::debug_fp;
use crate::id::ProcessId;
use crate::liveness::Chains;
use crate::machine::{
    oracle_fn, state_eq, ExploreDecision, Machine, ProtocolMachine, State, StepResult,
};
use crate::oracle::FdOracle;
use crate::protocol::{PropView, Protocol};
use std::collections::VecDeque;
use std::fmt::Debug;

/// Caps and cosmetics of a diagram walk. `new(title)` gives defaults
/// sized for figure-style diagrams (128 states, depth 12).
#[derive(Clone, Debug)]
pub struct DiagramConfig {
    /// Diagram title (the DOT graph name / Mermaid heading comment).
    pub title: String,
    /// Stop discovering new nodes past this many (the diagram is then
    /// flagged [`Diagram::truncated`]).
    pub max_states: usize,
    /// Do not expand nodes at this depth (edges out of them are elided
    /// and the diagram is flagged truncated if any existed).
    pub max_depth: usize,
    /// Also render each node's protocol state (its `Debug` form) into
    /// the label. Off by default: labels stay proposition-only, which is
    /// what keeps diagrams readable past a handful of nodes.
    pub state_labels: bool,
}

impl DiagramConfig {
    /// Defaults: 128 states, depth 12, proposition-only labels.
    pub fn new(title: impl Into<String>) -> Self {
        DiagramConfig {
            title: title.into(),
            max_states: 128,
            max_depth: 12,
            state_labels: false,
        }
    }

    /// Set the node budget.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Set the expansion depth bound.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Toggle full protocol-state labels.
    pub fn with_state_labels(mut self, on: bool) -> Self {
        self.state_labels = on;
        self
    }
}

/// One diagram node: a reachable configuration.
#[derive(Clone, Debug)]
pub struct DiagramNode {
    /// BFS discovery index; node `0` is the initial configuration.
    pub id: usize,
    /// Steps from the initial configuration.
    pub depth: usize,
    /// The declared propositions that hold here, in declaration order.
    pub props: Vec<&'static str>,
    /// The safety violation at this configuration, if any (rendered
    /// highlighted).
    pub violation: Option<String>,
    /// The full protocol-state label, when
    /// [`DiagramConfig::state_labels`] asked for one.
    pub state_label: Option<String>,
}

/// A rendered-ready state-space diagram; build with [`Diagram::walk`].
#[derive(Clone, Debug)]
pub struct Diagram {
    /// The configured title.
    pub title: String,
    /// Nodes in BFS discovery order (`nodes[i].id == i`).
    pub nodes: Vec<DiagramNode>,
    /// `(from, to, label)` edges in discovery order.
    pub edges: Vec<(usize, usize, String)>,
    /// Whether a cap (states or depth) hid part of the space.
    pub truncated: bool,
}

/// The label of one action out of `src`: `p0·start`, `p0·λ` or `p0·m⟨i⟩`.
fn action_label<P: Protocol>(src: &State<P>, action: ExploreDecision) -> String {
    let (p, choice) = action;
    if !src.is_started(p) {
        return format!("{p}·start");
    }
    match choice {
        Some(i) => format!("{p}·m{i}"),
        None => format!("{p}·λ"),
    }
}

/// Escape a label for a double-quoted DOT string.
fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Escape a label for a Mermaid edge/state description (Mermaid treats
/// `:` as its own delimiter and `"` ends quoted spans).
fn mermaid_escape(s: &str) -> String {
    s.replace('"', "'").replace(':', ";")
}

impl Diagram {
    /// Exhaustively walk the [`ProtocolMachine`] of a scenario and build
    /// the diagram: breadth-first from the initial configuration, one
    /// node per distinct configuration (process states, inboxes,
    /// `started` bits, pending invocations and depth, compared with
    /// `==`), one edge per enabled action.
    /// `safety` is evaluated at every node (on the protocol states and
    /// the output history); an `Err` marks the node violating.
    ///
    /// Errors if the scenario is ill-formed (process count mismatch).
    pub fn walk<P, D>(
        cfg: &DiagramConfig,
        make_procs: impl Fn() -> Vec<P>,
        invocations: Vec<Option<P::Inv>>,
        pattern: &FailurePattern,
        detector: D,
        mut safety: impl FnMut(&[P], &[(ProcessId, P::Output)]) -> Result<(), String>,
    ) -> Result<Diagram, String>
    where
        P: Protocol + Clone + Debug + PartialEq,
        P::Msg: PartialEq,
        P::Inv: PartialEq,
        D: FdOracle<Value = P::Fd>,
    {
        let procs = make_procs();
        let n = procs.len();
        if n != pattern.n() {
            return Err(format!(
                "failure pattern is over {} processes, the system has {n}",
                pattern.n()
            ));
        }
        if invocations.len() != n {
            return Err(format!(
                "{} invocation slots for {n} processes",
                invocations.len()
            ));
        }
        let machine = ProtocolMachine::<P, _>::new(pattern, oracle_fn(detector));
        let prop_names = P::props();
        let correct: Vec<bool> = (0..n).map(|q| pattern.is_correct(ProcessId(q))).collect();
        let mut outputs: Vec<(ProcessId, P::Output)> = Vec::new();

        // Every node's state is filed under a fingerprint of what
        // `state_eq` compares, and `state_eq` confirms a match.
        let key = |s: &State<P>| {
            debug_fp(&(&s.procs, &s.inboxes, &s.started, &s.pending_inv, s.depth)) as u64
        };
        let mut describe = |s: &State<P>, outputs: &mut Vec<(ProcessId, P::Output)>| {
            let t = s.depth() as crate::id::Time;
            let alive: Vec<bool> = (0..n)
                .map(|q| !pattern.is_crashed(ProcessId(q), t))
                .collect();
            let view = PropView {
                alive: &alive,
                correct: &correct,
            };
            let props: Vec<&'static str> = prop_names
                .iter()
                .enumerate()
                .filter(|&(i, _)| P::eval_prop(i, &s.procs, &view))
                .map(|(_, &name)| name)
                .collect();
            s.collect_outputs(outputs);
            let violation = safety(&s.procs, outputs).err();
            let state_label = cfg.state_labels.then(|| {
                // wfd-lint: allow(d4-debug-format, opt-in human-facing state label on a figure; never parsed)
                format!("{:?}", s.procs())
            });
            (props, violation, state_label)
        };

        let init = machine.initial(procs, invocations);
        let mut states: Vec<State<P>> = Vec::new();
        let mut nodes: Vec<DiagramNode> = Vec::new();
        let mut edges: Vec<(usize, usize, String)> = Vec::new();
        let mut seen = Chains::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut truncated = false;

        let (props, violation, state_label) = describe(&init, &mut outputs);
        seen.push(key(&init));
        nodes.push(DiagramNode {
            id: 0,
            depth: init.depth(),
            props,
            violation,
            state_label,
        });
        states.push(init);
        queue.push_back(0);

        let mut actions: Vec<ExploreDecision> = Vec::new();
        while let Some(id) = queue.pop_front() {
            if nodes[id].depth >= cfg.max_depth {
                // Elide this node's outgoing edges; flag only if some
                // exist (a terminal configuration is complete, not cut).
                actions.clear();
                machine.enabled_into(&states[id], &mut actions);
                truncated |= !actions.is_empty();
                continue;
            }
            actions.clear();
            machine.enabled_into(&states[id], &mut actions);
            for &action in &actions {
                let StepResult::Next(next) = machine.transition(&states[id], &action) else {
                    continue;
                };
                let next_key = key(&next);
                let label = action_label(&states[id], action);
                let known = seen.find(next_key, |nid| state_eq(&states[nid as usize], &next));
                let nid = match known {
                    Some(nid) => nid as usize,
                    None => {
                        if nodes.len() >= cfg.max_states {
                            truncated = true;
                            continue;
                        }
                        let nid = nodes.len();
                        let (props, violation, state_label) = describe(&next, &mut outputs);
                        seen.push(next_key);
                        nodes.push(DiagramNode {
                            id: nid,
                            depth: next.depth(),
                            props,
                            violation,
                            state_label,
                        });
                        states.push(next);
                        queue.push_back(nid);
                        nid
                    }
                };
                edges.push((id, nid, label));
            }
        }
        Ok(Diagram {
            title: cfg.title.clone(),
            nodes,
            edges,
            truncated,
        })
    }

    /// Whether any node violates the safety predicate.
    pub fn has_violation(&self) -> bool {
        self.nodes.iter().any(|nd| nd.violation.is_some())
    }

    /// The node's rendered label: id, the propositions that hold, the
    /// optional state detail, and the violation message when present.
    fn node_label(&self, nd: &DiagramNode) -> String {
        let mut label = format!("s{}", nd.id);
        if !nd.props.is_empty() {
            label.push_str("\n{");
            label.push_str(&nd.props.join(", "));
            label.push('}');
        }
        if let Some(state) = &nd.state_label {
            label.push('\n');
            label.push_str(state);
        }
        if let Some(v) = &nd.violation {
            label.push_str("\n✗ ");
            label.push_str(v);
        }
        label
    }

    /// Render as Graphviz DOT. Violating nodes are filled red with a
    /// doubled border; the initial node has a bold outline.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{}\" {{\n", dot_escape(&self.title)));
        out.push_str("  rankdir=LR;\n");
        out.push_str("  node [shape=box, fontname=\"Helvetica\"];\n");
        for nd in &self.nodes {
            let mut attrs = format!("label=\"{}\"", dot_escape(&self.node_label(nd)));
            if nd.id == 0 {
                attrs.push_str(", penwidth=2");
            }
            if nd.violation.is_some() {
                attrs.push_str(
                    ", style=filled, fillcolor=\"#ffdddd\", color=\"#cc0000\", peripheries=2",
                );
            }
            out.push_str(&format!("  s{} [{}];\n", nd.id, attrs));
        }
        for (from, to, label) in &self.edges {
            out.push_str(&format!(
                "  s{from} -> s{to} [label=\"{}\"];\n",
                dot_escape(label)
            ));
        }
        if self.truncated {
            out.push_str("  truncated [label=\"… (truncated)\", shape=plaintext];\n");
        }
        out.push_str("}\n");
        out
    }

    /// Render as a Mermaid `stateDiagram-v2`. Violating nodes get the
    /// `violating` class (red fill).
    pub fn to_mermaid(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "---\ntitle: {}\n---\n",
            mermaid_escape(&self.title)
        ));
        out.push_str("stateDiagram-v2\n");
        out.push_str("    classDef violating fill:#ffdddd,stroke:#cc0000,stroke-width:2px\n");
        out.push_str("    [*] --> s0\n");
        for nd in &self.nodes {
            let mut desc = format!("s{}", nd.id);
            if !nd.props.is_empty() {
                desc.push_str(&format!(" {{{}}}", nd.props.join(", ")));
            }
            if let Some(v) = &nd.violation {
                desc.push_str(&format!(" ✗ {v}"));
            }
            out.push_str(&format!("    s{}: {}\n", nd.id, mermaid_escape(&desc)));
        }
        for (from, to, label) in &self.edges {
            out.push_str(&format!(
                "    s{from} --> s{to}: {}\n",
                mermaid_escape(label)
            ));
        }
        for nd in &self.nodes {
            if nd.violation.is_some() {
                out.push_str(&format!("    class s{} violating\n", nd.id));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NoDetector;
    use crate::protocol::Ctx;

    /// Two processes; each sends one ping on start and decides on the
    /// first delivery. The "safety" predicate plants a violation when
    /// anyone decides, so diagrams have highlighted states to test.
    #[derive(Clone, Debug, PartialEq)]
    struct Ping {
        decided: bool,
    }

    impl Protocol for Ping {
        type Msg = ();
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            ctx.broadcast_others(());
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {
            self.decided = true;
        }

        fn props() -> &'static [&'static str] {
            &["someone-decided"]
        }

        fn eval_prop(_prop: usize, procs: &[Self], _view: &PropView<'_>) -> bool {
            procs.iter().any(|p| p.decided)
        }
    }

    fn ping_diagram(max_depth: usize) -> Diagram {
        Diagram::walk(
            &DiagramConfig::new("ping").with_max_depth(max_depth),
            || vec![Ping { decided: false }, Ping { decided: false }],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            |procs, _outputs| {
                if procs.iter().any(|p| p.decided) {
                    Err("planted: someone decided".to_string())
                } else {
                    Ok(())
                }
            },
        )
        .expect("well-formed scenario")
    }

    #[test]
    fn walk_is_deterministic_and_flags_violations() {
        let a = ping_diagram(6);
        let b = ping_diagram(6);
        assert_eq!(a.to_dot(), b.to_dot());
        assert_eq!(a.to_mermaid(), b.to_mermaid());
        assert!(a.has_violation(), "the planted violation must be reached");
        assert_eq!(a.nodes[0].depth, 0);
        assert!(!a.nodes.is_empty() && !a.edges.is_empty());
    }

    #[test]
    fn dot_output_has_balanced_braces_and_declared_ids_only() {
        let d = ping_diagram(4);
        let dot = d.to_dot();
        let opens = dot.matches('{').count();
        let closes = dot.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces in DOT:\n{dot}");
        for (from, to, _) in &d.edges {
            assert!(*from < d.nodes.len() && *to < d.nodes.len());
        }
    }

    #[test]
    fn caps_mark_the_diagram_truncated() {
        let tight = Diagram::walk(
            &DiagramConfig::new("tight").with_max_states(2),
            || vec![Ping { decided: false }, Ping { decided: false }],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        )
        .expect("well-formed scenario");
        assert!(tight.truncated);
        assert_eq!(tight.nodes.len(), 2);
    }

    /// p0 sends p1 two tags at start; p1 folds each delivered tag into
    /// `hidden`, in delivery order, and counts deliveries in `shown`.
    /// `Debug` prints only `shown`, so both delivery orders end in
    /// configurations that render alike but differ in `hidden`.
    #[derive(Clone, Default, PartialEq)]
    struct Hidden {
        shown: u8,
        hidden: u8,
    }

    impl std::fmt::Debug for Hidden {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Hidden({})", self.shown)
        }
    }

    impl Protocol for Hidden {
        type Msg = u8;
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            if ctx.me() == ProcessId(0) {
                ctx.send(ProcessId(1), 1);
                ctx.send(ProcessId(1), 2);
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, tag: u8) {
            self.shown += 1;
            self.hidden = self.hidden * 3 + tag;
        }
    }

    #[test]
    fn configurations_that_render_alike_stay_distinct_nodes() {
        // Delivering 1 then 2 leaves p1's `hidden` at 5, 2 then 1 at 7,
        // and only 7 violates. BFS reaches the first order first, so a
        // rendering key would merge the second into it and drop the
        // violation.
        let d = Diagram::walk(
            &DiagramConfig::new("hidden")
                .with_max_depth(4)
                .with_state_labels(true),
            || vec![Hidden::default(); 2],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            |procs: &[Hidden], _| match procs[1].hidden {
                7 => Err("2 delivered before 1".to_string()),
                _ => Ok(()),
            },
        )
        .expect("well-formed scenario");
        let label = Some("[Hidden(0), Hidden(2)]");
        let violating: Vec<bool> = d
            .nodes
            .iter()
            .filter(|nd| nd.state_label.as_deref() == label)
            .map(|nd| nd.violation.is_some())
            .collect();
        // Two nodes, in discovery order: 1 before 2, then 2 before 1.
        assert_eq!(violating, [false, true], "{}", d.to_dot());
    }

    #[test]
    fn scenario_shape_errors_are_reported() {
        let err = Diagram::walk(
            &DiagramConfig::new("bad"),
            || vec![Ping { decided: false }],
            vec![None],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        )
        .expect_err("1 process vs n=2 pattern");
        assert!(err.contains("2 processes"), "{err}");
    }
}
