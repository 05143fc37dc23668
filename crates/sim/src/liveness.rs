//! Temporal-property checking: LTL over the explorer's state graph.
//!
//! The bounded explorer answers safety questions ("no violation up to
//! depth 23"). This module answers *liveness* questions — "every fair
//! infinite run eventually decides", "the leader stabilizes" — over **all
//! fair infinite runs** of a finitized model:
//!
//! 1. **Formulas** are written in the [`Ltl`] AST over atomic
//!    propositions the protocol declares through
//!    [`Protocol::props`]/[`Protocol::eval_prop`].
//! 2. The *negation* of the formula is compiled to a Büchi automaton
//!    (GPVW expansion into a generalized automaton, then a counting
//!    degeneralization).
//! 3. A **fair state graph** is built whose infinite paths are exactly
//!    the engine's fair runs: the graph branches only over choices the
//!    engine's scheduler could make under its fairness forcing rules
//!    (`choose_actor` / `choose_message` in `engine.rs` — an overdue
//!    process is forced, an overdue front message is forced, otherwise
//!    any of the oldest `POLICY_WINDOW` messages or λ may be picked).
//!    Per-process step-gap counters and per-message ages are part of the
//!    node identity, so fairness is *structural*: no Büchi fairness
//!    constraints are needed, and every lasso found is a real fair run.
//! 4. The product of graph and automaton is searched for an **accepting
//!    lasso** by the CVWY nested depth-first search. A lasso (stem +
//!    cycle decision lists) is a replayable, shrinkable counterexample —
//!    it ships as a [`Repro`](crate::Repro) with
//!    [`ReproDecisions::Lasso`](crate::ReproDecisions::Lasso).
//!
//! # Finitization and its exactness
//!
//! The graph is finite because of four quotients, three of them exact:
//!
//! * **Step-gap counters** saturate nowhere: under the forcing rule a
//!   counter provably never exceeds `max_step_gap + n - 1` (an overdue
//!   process waits at most once for each process ahead of it, and the
//!   ahead-set only shrinks). A violated bound panics.
//! * **Message ages** saturate at `max_delay`: the engine forces the
//!   front message exactly when its age reaches the bound, so ages past
//!   the bound are behaviorally indistinguishable — an exact bisimulation
//!   quotient.
//! * **Time** advances with depth until [`LivenessConfig::t_stable`] and
//!   freezes there. This is exact when every crash happens at or before
//!   `t_stable` and the detector is stationary past it — both are
//!   validated (the latter by a spot check over a window).
//! * **Inbox capacity** ([`LivenessConfig::max_inbox`]) is the one lossy
//!   bound: edges that would overflow an inbox are dropped. Every
//!   remaining run is real, so `Violated` verdicts stand; a `Holds` over
//!   a truncated graph degrades to `Inconclusive`.
//!
//! # Node keys
//!
//! A node's fingerprint is built like an explorer key (see the
//! [explorer's performance model](mod@crate::explore#performance-model)):
//! one 128-bit fingerprint per process state and per inbox (itself
//! composed from one key per pending message), composed slot by slot
//! with a `u64` word of the slot's fairness bookkeeping (`started`,
//! step-gap counter, message ages), then the depth. Keys are
//! incremental, as in the explorer: each BFS frontier entry carries its
//! node's slot and message keys, and a successor inherits them through
//! the transition memo, keyed by the actor, the (frozen) step
//! time, whether it had started, its process key and the delivered
//! message's key. A successor renders only on a memo miss; its touched
//! inboxes recompose from message keys. Graph nodes themselves keep no
//! keys; the frontier is the only place they live.
//!
//! # Node storage
//!
//! The graph is stored collapse-compressed, as in SPIN's COLLAPSE mode
//! (Holzmann, "State compression in SPIN", 1997). There is one interning
//! table per slot kind: process states, inboxes, and the per-node
//! bookkeeping that has no slot key (`started` bits, step-gap counters,
//! message ages and pending invocations, interned as one value). A value
//! is found by the key its node already carries (the bookkeeping's is a
//! fold of its slot words), and every match is confirmed with `==`, so an
//! id names exactly one value. A node is one fixed-width row of `u32`:
//! `n` process ids, `n` inbox ids, the bookkeeping id and the clamped
//! depth. Since ids and values correspond one to one, two rows are equal
//! exactly when their nodes are structurally equal: dedup compares rows,
//! the fingerprint only picks the collision chain, and the numbering (BFS
//! discovery order) never depends on a key.
//!
//! The build keeps a parent scratch node and a successor scratch node.
//! Loading a parent re-clones only the slots whose ids differ from what
//! the scratch holds; before each step the successor re-clones only the
//! slots the previous step touched, then steps in place
//! ([`FairMachine`]'s in-place fair step, the same step
//! [`FairMachine::step_with`] takes). A successor inherits its parent's
//! ids for every slot the step did not touch and looks up the rest —
//! the actor's state, the inboxes it delivered from or sent to, and the
//! bookkeeping; every slot when a renaming represents the successor. A
//! value the tables lack makes its successor a new node, and is interned
//! only when that node is added, so ids, like node numbers, follow the
//! order of discovery. Every node's successors are found together, in
//! increasing source id, so the edges are one flat array with per-node
//! offsets. The Büchi search reads only those and the valuations; the
//! tables and rows are dropped before it starts.
//!
//! # Symmetry
//!
//! With [`LivenessConfig::symmetry`] on, nodes are canonicalized under the
//! scenario-preserving subgroup of [`Protocol::symmetry`] (the same
//! restriction the safety explorer applies), through the explorer's
//! memoized [`Canonicalizer`]. The representative of an orbit is the
//! renaming with the least composed slot-key fingerprint (the identity
//! on ties, then the earlier group element); only that one renamed node
//! is built. Propositions must be symmetric — invariant under the
//! declared group — which is checked against every group element on
//! every successor. The quotient preserves verdicts; to keep
//! counterexamples concrete, a violation found under symmetry is re-run
//! without it to extract the replayable lasso.
//!
//! The quotient's *size*, unlike its verdict, depends on which renaming
//! represents an orbit: the fair decision set is not itself symmetric,
//! since `enabled_fair` breaks forcing ties toward the lowest process
//! id, so renamed nodes can reach differently sized sets of orbits. On
//! the benchmark's FS accuracy case (`TimeoutFs`, G = D = 3, failure
//! free) the least whole-node `Debug` fingerprint, the representative
//! before slot keys, gave 8,295 nodes at n = 4 and 20,693 at n = 3; the
//! least composed slot key gave 9,542 and 17,108 while an inbox was
//! keyed by its whole rendering, and gives 8,903 and 20,654 with inbox
//! keys composed from message keys. Every one of them holds. What
//! guards the quotient is the verdict ladder in `tests/liveness.rs`
//! (symmetry on and off must agree), not a node count.
//!
//! Symmetry is the only reduction here. Sleep-set DPOR is unsound for
//! cycle detection without a cycle proviso: an ignored transition may
//! close the only accepting cycle.

use crate::explore::{
    scenario_symmetry, Canonicalizer, FdTable, SlotKeys, Step, StepMemo, SymPerm,
};
use crate::failure::FailurePattern;
use crate::fingerprint::{Fingerprint128, FpBuild};
use crate::id::{ProcessId, Time};
use crate::json::Json;
use crate::machine::{ExploreDecision, FairMachine, LiveNode, State};
use crate::obs::{CounterId, Obs, PhaseId};
use crate::oracle::FdOracle;
use crate::protocol::{PropView, Protocol, SendBuf};
use std::collections::BTreeMap;
// wfd-lint: allow(d1-hash-collections, imported only for the fair-graph collision chains and the product interner, all keyed lookup/insert only; nothing iterates them)
use std::collections::HashMap;
use std::fmt::{self, Debug, Display};

/// The most propositions a protocol may declare — valuations are packed
/// into a `u32` bitmask.
pub const MAX_PROPS: usize = 32;

// ---------------------------------------------------------------------------
// LTL formulas
// ---------------------------------------------------------------------------

/// A linear temporal logic formula over a protocol's declared atomic
/// propositions (referenced by name; see [`Protocol::props`]).
///
/// Build formulas with the combinator methods:
///
/// ```
/// use wfd_sim::liveness::Ltl;
/// // "the leader eventually stays agreed forever"
/// let f = Ltl::prop("leader-agreed").always().eventually();
/// assert_eq!(f.to_string(), "F(G(\"leader-agreed\"))");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ltl {
    /// Constant truth.
    True,
    /// Constant falsehood.
    False,
    /// An atomic proposition, by declared name.
    Prop(String),
    /// Negation.
    Not(Box<Ltl>),
    /// Conjunction.
    And(Box<Ltl>, Box<Ltl>),
    /// Disjunction.
    Or(Box<Ltl>, Box<Ltl>),
    /// Next: the argument holds one step from now.
    Next(Box<Ltl>),
    /// Until: the second argument eventually holds, and the first holds
    /// at every step before that.
    Until(Box<Ltl>, Box<Ltl>),
    /// Release: the dual of until — the second argument holds up to and
    /// including the step where the first holds (possibly forever).
    Release(Box<Ltl>, Box<Ltl>),
    /// Eventually (`F φ`).
    Eventually(Box<Ltl>),
    /// Always (`G φ`).
    Always(Box<Ltl>),
}

impl Ltl {
    /// The atomic proposition `name` (must appear in the checked
    /// protocol's [`Protocol::props`]).
    pub fn prop(name: &str) -> Ltl {
        Ltl::Prop(name.to_string())
    }

    /// `¬self`.
    #[allow(clippy::should_implement_trait)] // combinator naming, mirrors until/and
    pub fn not(self) -> Ltl {
        Ltl::Not(Box::new(self))
    }

    /// `self ∧ other`.
    pub fn and(self, other: Ltl) -> Ltl {
        Ltl::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    pub fn or(self, other: Ltl) -> Ltl {
        Ltl::Or(Box::new(self), Box::new(other))
    }

    /// `self → other`.
    pub fn implies(self, other: Ltl) -> Ltl {
        self.not().or(other)
    }

    /// `X self`.
    pub fn next(self) -> Ltl {
        Ltl::Next(Box::new(self))
    }

    /// `self U other`.
    pub fn until(self, other: Ltl) -> Ltl {
        Ltl::Until(Box::new(self), Box::new(other))
    }

    /// `self R other`.
    pub fn release(self, other: Ltl) -> Ltl {
        Ltl::Release(Box::new(self), Box::new(other))
    }

    /// `F self`.
    pub fn eventually(self) -> Ltl {
        Ltl::Eventually(Box::new(self))
    }

    /// `G self`.
    pub fn always(self) -> Ltl {
        Ltl::Always(Box::new(self))
    }
}

impl Display for Ltl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ltl::True => write!(f, "true"),
            Ltl::False => write!(f, "false"),
            Ltl::Prop(name) => write!(f, "\"{name}\""),
            Ltl::Not(a) => write!(f, "!{a}"),
            Ltl::And(a, b) => write!(f, "({a} & {b})"),
            Ltl::Or(a, b) => write!(f, "({a} | {b})"),
            Ltl::Next(a) => write!(f, "X({a})"),
            Ltl::Until(a, b) => write!(f, "({a} U {b})"),
            Ltl::Release(a, b) => write!(f, "({a} R {b})"),
            Ltl::Eventually(a) => write!(f, "F({a})"),
            Ltl::Always(a) => write!(f, "G({a})"),
        }
    }
}

// ---------------------------------------------------------------------------
// Negation normal form
// ---------------------------------------------------------------------------

/// A formula in negation normal form, with subformulas interned in an
/// arena (ids are arena indices). `F φ ≡ true U φ` and `G φ ≡ false R φ`
/// are rewritten away; negation survives only on propositions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Nf {
    True,
    False,
    Prop(u32),
    NProp(u32),
    And(u32, u32),
    Or(u32, u32),
    Next(u32),
    Until(u32, u32),
    Release(u32, u32),
}

#[derive(Default)]
struct Arena {
    nodes: Vec<Nf>,
    dedup: BTreeMap<Nf, u32>,
}

impl Arena {
    fn intern(&mut self, nf: Nf) -> u32 {
        if let Some(&id) = self.dedup.get(&nf) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(nf);
        self.dedup.insert(nf, id);
        id
    }

    /// Translate `f` (or its negation, when `pos` is false) into the
    /// arena. Unknown proposition names are an error.
    fn nnf(&mut self, f: &Ltl, props: &BTreeMap<&str, u32>, pos: bool) -> Result<u32, String> {
        let nf = match (f, pos) {
            (Ltl::True, true) | (Ltl::False, false) => Nf::True,
            (Ltl::True, false) | (Ltl::False, true) => Nf::False,
            (Ltl::Prop(name), _) => {
                let Some(&i) = props.get(name.as_str()) else {
                    let known: Vec<&str> = props.keys().copied().collect();
                    return Err(format!(
                        "unknown proposition \"{name}\" (protocol declares: {})",
                        known.join(", ")
                    ));
                };
                if pos {
                    Nf::Prop(i)
                } else {
                    Nf::NProp(i)
                }
            }
            (Ltl::Not(a), _) => return self.nnf(a, props, !pos),
            (Ltl::And(a, b), true) | (Ltl::Or(a, b), false) => {
                Nf::And(self.nnf(a, props, pos)?, self.nnf(b, props, pos)?)
            }
            (Ltl::And(a, b), false) | (Ltl::Or(a, b), true) => {
                Nf::Or(self.nnf(a, props, pos)?, self.nnf(b, props, pos)?)
            }
            (Ltl::Next(a), _) => Nf::Next(self.nnf(a, props, pos)?),
            (Ltl::Until(a, b), true) | (Ltl::Release(a, b), false) => {
                Nf::Until(self.nnf(a, props, pos)?, self.nnf(b, props, pos)?)
            }
            (Ltl::Until(a, b), false) | (Ltl::Release(a, b), true) => {
                Nf::Release(self.nnf(a, props, pos)?, self.nnf(b, props, pos)?)
            }
            (Ltl::Eventually(a), true) | (Ltl::Always(a), false) => {
                let t = self.intern(Nf::True);
                Nf::Until(t, self.nnf(a, props, pos)?)
            }
            (Ltl::Eventually(a), false) | (Ltl::Always(a), true) => {
                let fls = self.intern(Nf::False);
                Nf::Release(fls, self.nnf(a, props, pos)?)
            }
        };
        Ok(self.intern(nf))
    }
}

// ---------------------------------------------------------------------------
// GPVW tableau → Büchi automaton
// ---------------------------------------------------------------------------

/// Sentinel "incoming" id marking automaton-initial tableau nodes.
const INIT: usize = usize::MAX;

#[derive(Clone)]
struct TabNode {
    incoming: Vec<usize>,
    new: Vec<u32>,
    old: Vec<u32>,
    next: Vec<u32>,
}

fn set_insert(set: &mut Vec<u32>, v: u32) -> bool {
    match set.binary_search(&v) {
        Ok(_) => false,
        Err(pos) => {
            set.insert(pos, v);
            true
        }
    }
}

fn set_contains(set: &[u32], v: u32) -> bool {
    set.binary_search(&v).is_ok()
}

/// The GPVW expansion: turn the NNF formula `root` into a generalized
/// Büchi automaton's node set (Gerth–Peled–Vardi–Wolper 1995). Each
/// returned node carries its incoming edges; node `q`'s label is the set
/// of literals in `old(q)`.
fn gpvw(arena: &Arena, root: u32) -> Vec<TabNode> {
    let mut done: Vec<TabNode> = Vec::new();
    let start = TabNode {
        incoming: vec![INIT],
        new: vec![root],
        old: Vec::new(),
        next: Vec::new(),
    };
    expand(arena, start, &mut done);
    done
}

fn expand(arena: &Arena, mut node: TabNode, done: &mut Vec<TabNode>) {
    let Some(&f) = node.new.first() else {
        // Fully processed: merge with an existing node over (old, next),
        // or allocate and expand the temporal successor.
        if let Some(existing) = done
            .iter_mut()
            .find(|nd| nd.old == node.old && nd.next == node.next)
        {
            for inc in node.incoming {
                if !existing.incoming.contains(&inc) {
                    existing.incoming.push(inc);
                }
            }
            return;
        }
        let id = done.len();
        let succ = TabNode {
            incoming: vec![id],
            new: node.next.clone(),
            old: Vec::new(),
            next: Vec::new(),
        };
        done.push(node);
        expand(arena, succ, done);
        return;
    };
    node.new.retain(|&g| g != f);
    if set_contains(&node.old, f) {
        return expand(arena, node, done);
    }
    match arena.nodes[f as usize] {
        Nf::False => { /* contradiction: drop this node */ }
        Nf::True => expand(arena, node, done),
        Nf::Prop(i) => {
            let neg = arena.dedup.get(&Nf::NProp(i)).copied();
            if neg.is_some_and(|n| set_contains(&node.old, n)) {
                return; // p ∧ ¬p: drop
            }
            set_insert(&mut node.old, f);
            expand(arena, node, done);
        }
        Nf::NProp(i) => {
            let pos = arena.dedup.get(&Nf::Prop(i)).copied();
            if pos.is_some_and(|p| set_contains(&node.old, p)) {
                return;
            }
            set_insert(&mut node.old, f);
            expand(arena, node, done);
        }
        Nf::And(a, b) => {
            set_insert(&mut node.old, f);
            set_insert(&mut node.new, a);
            set_insert(&mut node.new, b);
            expand(arena, node, done);
        }
        Nf::Or(a, b) => {
            set_insert(&mut node.old, f);
            let mut left = node.clone();
            set_insert(&mut left.new, a);
            expand(arena, left, done);
            set_insert(&mut node.new, b);
            expand(arena, node, done);
        }
        Nf::Next(a) => {
            set_insert(&mut node.old, f);
            set_insert(&mut node.next, a);
            expand(arena, node, done);
        }
        Nf::Until(a, b) => {
            set_insert(&mut node.old, f);
            // a U b  ≡  b ∨ (a ∧ X(a U b))
            let mut left = node.clone();
            set_insert(&mut left.new, a);
            set_insert(&mut left.next, f);
            expand(arena, left, done);
            set_insert(&mut node.new, b);
            expand(arena, node, done);
        }
        Nf::Release(a, b) => {
            set_insert(&mut node.old, f);
            // a R b  ≡  (a ∧ b) ∨ (b ∧ X(a R b))
            let mut left = node.clone();
            set_insert(&mut left.new, b);
            set_insert(&mut left.next, f);
            expand(arena, left, done);
            set_insert(&mut node.new, a);
            set_insert(&mut node.new, b);
            expand(arena, node, done);
        }
    }
}

/// A degeneralized Büchi automaton over proposition bitmask labels.
///
/// `k` acceptance counters are folded in at the *product* level (the
/// counter is part of the product state, advanced by the source state's
/// membership in the current acceptance set), so the automaton itself
/// stays at GPVW size.
struct Buchi {
    /// Number of tableau states.
    n_states: usize,
    /// Degeneralization modulus (≥ 1).
    k: usize,
    /// Per-state positive-literal mask: these propositions must hold in
    /// the graph node consumed at this state.
    label_pos: Vec<u32>,
    /// Per-state negative-literal mask: these propositions must be false.
    label_neg: Vec<u32>,
    /// Per-state successor lists, ascending.
    succ: Vec<Vec<u32>>,
    /// Initial states, ascending.
    init: Vec<u32>,
    /// `in_acc[j][q]`: state `q` belongs to acceptance set `j`.
    in_acc: Vec<Vec<bool>>,
}

impl Buchi {
    /// Whether automaton state `q` may consume a graph node whose
    /// proposition valuation is `val`.
    fn sat(&self, val: u32, q: u32) -> bool {
        let q = q as usize;
        val & self.label_pos[q] == self.label_pos[q] && val & self.label_neg[q] == 0
    }
}

fn build_buchi(arena: &Arena, nodes: &[TabNode]) -> Buchi {
    let n = nodes.len();
    let mut label_pos = vec![0u32; n];
    let mut label_neg = vec![0u32; n];
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut init: Vec<u32> = Vec::new();
    for (q, nd) in nodes.iter().enumerate() {
        for &f in &nd.old {
            match arena.nodes[f as usize] {
                Nf::Prop(i) => label_pos[q] |= 1 << i,
                Nf::NProp(i) => label_neg[q] |= 1 << i,
                _ => {}
            }
        }
        for &r in &nd.incoming {
            if r == INIT {
                if !init.contains(&(q as u32)) {
                    init.push(q as u32);
                }
            } else {
                succ[r].push(q as u32);
            }
        }
    }
    for s in &mut succ {
        s.sort_unstable();
        s.dedup();
    }
    init.sort_unstable();
    // One acceptance set per distinct Until subformula: state q is in
    // F_(a U b) unless it promises (a U b) without certifying b.
    let untils: Vec<(u32, u32)> = arena
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(id, nf)| match nf {
            Nf::Until(_, b) => Some((id as u32, *b)),
            _ => None,
        })
        .collect();
    let k = untils.len().max(1);
    let mut in_acc: Vec<Vec<bool>> = Vec::with_capacity(k);
    if untils.is_empty() {
        in_acc.push(vec![true; n]);
    } else {
        for &(u, b) in &untils {
            in_acc.push(
                nodes
                    .iter()
                    .map(|nd| !set_contains(&nd.old, u) || set_contains(&nd.old, b))
                    .collect(),
            );
        }
    }
    Buchi {
        n_states: n,
        k,
        label_pos,
        label_neg,
        succ,
        init,
        in_acc,
    }
}

// ---------------------------------------------------------------------------
// Configuration, report
// ---------------------------------------------------------------------------

/// Parameters of a liveness check. `new(max_step_gap, max_delay,
/// t_stable)` gives usable defaults for the rest.
#[derive(Clone, Debug)]
pub struct LivenessConfig {
    /// Fairness bound `G`: an alive process takes a step at least every
    /// `G` steps (mirrors [`SimConfig::max_step_gap`](crate::SimConfig)).
    pub max_step_gap: Time,
    /// Fairness bound `D`: a message to an alive process is delivered
    /// within `D` steps of being sent.
    pub max_delay: Time,
    /// The time after which the model is stationary: every crash has
    /// happened (validated) and the detector answers the same value it
    /// answers at `t_stable` forever after (spot-checked). Graph time
    /// freezes here.
    pub t_stable: Time,
    /// Node budget; exceeding it yields `Inconclusive` unless a
    /// violation was already found.
    pub max_states: usize,
    /// Per-inbox message capacity; edges that would overflow are dropped
    /// (`Holds` then degrades to `Inconclusive`).
    pub max_inbox: usize,
    /// Canonicalize nodes under the scenario's symmetry group (default:
    /// off; see the module docs' Symmetry section). Sound only for
    /// propositions invariant under the declared group.
    pub symmetry: bool,
    /// The observability handle (default [`Obs::off`]): with it on, the
    /// check times its `liveness_*` phases and counts nodes, edges,
    /// product states and interned values. Metrics never change the
    /// report.
    pub obs: Obs,
}

impl LivenessConfig {
    /// A configuration with the given fairness bounds and stabilization
    /// time, default budgets, symmetry off.
    pub fn new(max_step_gap: Time, max_delay: Time, t_stable: Time) -> Self {
        LivenessConfig {
            max_step_gap,
            max_delay,
            t_stable,
            max_states: 250_000,
            max_inbox: 8,
            symmetry: false,
            obs: Obs::off(),
        }
    }

    /// Set the node budget.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Set the per-inbox capacity.
    pub fn with_max_inbox(mut self, max_inbox: usize) -> Self {
        self.max_inbox = max_inbox;
        self
    }

    /// Toggle symmetry canonicalization.
    pub fn with_symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    /// Inert: returns `self` unchanged, whatever the argument. The graph
    /// build runs on one thread; kept only so callers that still pin a
    /// worker count compile.
    #[deprecated(
        since = "0.7.0",
        note = "inert: the liveness checker is sequential; the benchmark-only change \
                (ROADMAP item 1) drops the last call and the next change deletes this method"
    )]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Attach an observability handle (see [`crate::obs`]). Counters
    /// include the concrete re-run a violation under symmetry makes.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

/// The outcome of a liveness check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LivenessVerdict {
    /// The property holds over every fair infinite run of the (complete)
    /// finite model.
    Holds,
    /// A fair infinite run violating the property exists; see the lasso.
    Violated,
    /// The model was truncated (inbox capacity or node budget) before a
    /// verdict could be certified.
    Inconclusive,
}

impl LivenessVerdict {
    /// Stable lowercase tag (used in JSON reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            LivenessVerdict::Holds => "holds",
            LivenessVerdict::Violated => "violated",
            LivenessVerdict::Inconclusive => "inconclusive",
        }
    }
}

/// A concrete violating run: `stem · cycleʷ` in explorer decision
/// vocabulary. Replay with
/// [`Replay::lasso`](crate::Replay::lasso) +
/// [`Replay::run_fair`](crate::Replay::run_fair); ship as a
/// [`Repro`](crate::Repro) via [`Repro::from_lasso`](crate::Repro::from_lasso).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LassoWitness {
    /// Decisions from the initial configuration to the loop head.
    pub stem: Vec<ExploreDecision>,
    /// Decisions around the loop (non-empty).
    pub cycle: Vec<ExploreDecision>,
}

/// The result of [`check_liveness`], with model-size statistics.
#[derive(Clone, Debug)]
pub struct LivenessReport {
    /// The verdict.
    pub verdict: LivenessVerdict,
    /// The violating lasso, when one was found (a violation detected
    /// under symmetry whose witness extraction hit the state budget may
    /// report `Violated` with no lasso).
    pub lasso: Option<LassoWitness>,
    /// The checked formula, rendered.
    pub formula: String,
    /// Why the verdict is `Inconclusive`, when it is.
    pub reason: Option<String>,
    /// Fair-graph nodes built.
    pub states: usize,
    /// Fair-graph edges built.
    pub edges: usize,
    /// Büchi automaton states (for ¬φ, before degeneralization).
    pub buchi_states: usize,
    /// Product states visited by the nested DFS.
    pub product_states: usize,
    /// Whether the inbox capacity dropped at least one edge.
    pub truncated: bool,
}

impl LivenessReport {
    /// A machine-readable JSON rendering (used by experiment binaries).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("verdict".to_string(), Json::str(self.verdict.as_str())),
            ("formula".to_string(), Json::str(&self.formula)),
            ("states".to_string(), Json::usize(self.states)),
            ("edges".to_string(), Json::usize(self.edges)),
            ("buchi_states".to_string(), Json::usize(self.buchi_states)),
            (
                "product_states".to_string(),
                Json::usize(self.product_states),
            ),
            ("truncated".to_string(), Json::bool(self.truncated)),
        ];
        if let Some(reason) = &self.reason {
            fields.push(("reason".to_string(), Json::str(reason)));
        }
        if let Some(lasso) = &self.lasso {
            fields.push((
                "lasso".to_string(),
                Json::Obj(vec![
                    ("stem_len".to_string(), Json::usize(lasso.stem.len())),
                    ("cycle_len".to_string(), Json::usize(lasso.cycle.len())),
                ]),
            ));
        }
        Json::Obj(fields)
    }
}

// ---------------------------------------------------------------------------
// The fair state graph
// ---------------------------------------------------------------------------

// `LiveNode` (a materialized node: machine state + fairness
// bookkeeping), its structural equality and the fair step live in
// [`crate::machine`], shared with the lasso replayer. The graph itself
// stores nodes as rows of interned ids ([`NodeStore`]).

/// Key every slot of `node` from scratch (the root, and the key check),
/// laid out as the explorer's keys. Nodes drop their outputs, so the
/// output key is the empty history's, a constant.
fn full_keys<P: Protocol + Debug>(node: &LiveNode<P>) -> SlotKeys {
    let no_outputs: &[(ProcessId, P::Output)] = &[];
    SlotKeys::of(&node.state.procs, &node.state.inboxes, no_outputs)
}

/// The per-slot words of `node` into `words`: slot `i`'s `started` bit,
/// step-gap counter and message ages, fingerprinted into one `u64`.
/// They are id-free, so a renaming moves them with their slot. Pending
/// invocations get no word: a key only narrows the search, and the
/// interned bookkeeping, which stores them, confirms every match with
/// `==`.
fn slot_words<P: Protocol>(node: &LiveNode<P>, words: &mut Vec<u64>) {
    words.clear();
    for (i, ages) in node.ages.iter().enumerate() {
        let mut w = Fingerprint128::new();
        w.write_u64(u64::from(node.state.started[i]));
        w.write_u64(node.since[i]);
        for &age in ages {
            w.write_u64(age);
        }
        words.push(w.finish() as u64);
    }
}

/// A node's fingerprint: its composed slot key, then its depth (the one
/// component that has no slot).
fn fingerprint(composed: u128, depth: usize) -> u128 {
    let mut w = Fingerprint128::new();
    w.write_u128(composed);
    w.write_u64(depth as u64);
    w.finish()
}

/// A node's fingerprint keyed from scratch, as if it were its own
/// representative.
fn fresh_fingerprint<P: Protocol + Debug>(node: &LiveNode<P>) -> u128 {
    let mut words = Vec::new();
    slot_words(node, &mut words);
    let composed = full_keys(node).compose(&words);
    fingerprint(composed, node.state.depth)
}

/// Assert that `keys`, and `fp` when given, are what keying `node` from
/// scratch gives: a stale inherited or renamed key would otherwise
/// silently split one node into two. Runs when [`GraphEnv::check_keys`]
/// is on.
fn assert_keys_fresh<P>(node: &LiveNode<P>, keys: &SlotKeys, fp: Option<u128>, what: &str)
where
    P: Protocol + Debug,
{
    let full = full_keys(node);
    assert!(
        full.slots == keys.slots,
        "{what} slot keys diverge from a full re-key at depth {}",
        node.state.depth
    );
    assert!(
        full.msgs == keys.msgs,
        "{what} message keys diverge from a full re-key at depth {}",
        node.state.depth
    );
    assert!(
        fp.is_none_or(|fp| fresh_fingerprint(node) == fp),
        "{what} fingerprint diverges from a full re-key at depth {}",
        node.state.depth
    );
}

/// Everything the graph build reads and never changes.
struct GraphEnv<'a, P: Protocol> {
    pattern: &'a FailurePattern,
    cfg: &'a LivenessConfig,
    /// The detector's value at every alive `(p, t)` with `t ≤ t_stable`.
    fd: FdTable<P::Fd>,
    /// `alive[t][p]` for `t ≤ t_stable`.
    alive: Vec<Vec<bool>>,
    correct: Vec<bool>,
    perms: Vec<SymPerm>,
    prop_count: usize,
    /// Re-key every node from scratch and assert its carried slot keys
    /// and fingerprint match (see [`assert_keys_fresh`]). On in debug
    /// builds.
    check_keys: bool,
}

impl<'a, P: Protocol> GraphEnv<'a, P> {
    /// Pre-sample the detector for every alive `(p, t)` up to
    /// `t_stable`, and resolve the scenario's symmetry group when `cfg`
    /// asks for it.
    fn new<D>(
        cfg: &'a LivenessConfig,
        pattern: &'a FailurePattern,
        invocations: &[Option<P::Inv>],
        detector: &mut D,
    ) -> Self
    where
        D: FdOracle<Value = P::Fd>,
    {
        let n = pattern.n();
        let stride = cfg.t_stable as usize + 1;
        let mut fd = FdTable::new(n, cfg.t_stable as usize);
        let mut alive: Vec<Vec<bool>> = Vec::with_capacity(stride);
        for t in 0..stride {
            let t = t as Time;
            alive.push(
                (0..n)
                    .map(|q| !pattern.is_crashed(ProcessId(q), t))
                    .collect(),
            );
            for p in ProcessId::all(n) {
                fd.fill(pattern, detector, p, t);
            }
        }
        let perms = if cfg.symmetry {
            scenario_symmetry::<P, _>(n, stride, pattern, invocations, detector, &mut fd)
        } else {
            Vec::new()
        };
        GraphEnv {
            pattern,
            cfg,
            fd,
            alive,
            correct: (0..n).map(|q| pattern.is_correct(ProcessId(q))).collect(),
            perms,
            prop_count: P::props().len(),
            check_keys: cfg!(debug_assertions),
        }
    }

    fn eval(&self, procs: &[P], t: Time) -> u32 {
        let view = PropView {
            alive: &self.alive[t as usize],
            correct: &self.correct,
        };
        let mut val = 0u32;
        for i in 0..self.prop_count {
            if P::eval_prop(i, procs, &view) {
                val |= 1 << i;
            }
        }
        val
    }
}

// Fair decision enumeration and fair stepping live on
// [`FairMachine`] in [`crate::machine`] (`enabled_fair` / `step_with`),
// shared between this graph builder and `Replay::run_fair`.

/// Rebuild `node` with every process renamed through `sp` (canonical
/// slot `j` is filled from original slot `inverse[j]`, embedded ids
/// rewritten forward). Invocation payloads are moved, not rewritten,
/// matching the safety explorer (scenario symmetry already requires
/// orbit slots to hold `Debug`-equal invocations).
fn permute_node<P: Protocol + Clone>(node: &LiveNode<P>, sp: &SymPerm) -> LiveNode<P> {
    let n = node.state.procs.len();
    let mut state = State::blank();
    state.depth = node.state.depth;
    let mut since = Vec::with_capacity(n);
    let mut ages = Vec::with_capacity(n);
    for j in 0..n {
        let src = sp.inverse[j];
        let mut proc = node.state.procs[src].clone();
        proc.permute(&sp.perm);
        state.procs.push(proc);
        state.started.push(node.state.started[src]);
        state.pending_inv.push(node.state.pending_inv[src].clone());
        state.inboxes.push(
            node.state.inboxes[src]
                .iter()
                .map(|(from, msg)| {
                    let mut msg = msg.clone();
                    P::permute_msg(&mut msg, &sp.perm);
                    (sp.perm.apply(*from), msg)
                })
                .collect(),
        );
        since.push(node.since[src]);
        ages.push(node.ages[src].clone());
    }
    LiveNode { state, since, ages }
}

/// The graph build's keying state: its canonicalizer and transition
/// memo, which persist across BFS levels as the explorer's do, and
/// scratch.
struct Keyer<P: Protocol> {
    canon: Canonicalizer<P>,
    memo: StepMemo,
    /// The slot words of the last node [`canonicalize`] returned.
    words: Vec<u64>,
    /// The renamed process states the proposition check evaluates.
    renamed: Vec<P>,
}

impl<P: Protocol + Clone + Debug> Keyer<P> {
    fn new(perms: &[SymPerm]) -> Self {
        Keyer {
            canon: Canonicalizer::with_perms(perms.to_vec()),
            memo: StepMemo::new(),
            words: Vec::new(),
            renamed: Vec::new(),
        }
    }
}

/// Canonicalize `node`, whose keys are `keys`, and return the
/// representative's renaming (`None` when `node` represents itself), its
/// fingerprint and its proposition valuation; `keys` and
/// [`Keyer::words`] are left holding the representative's slot and
/// message keys and slot words.
///
/// Without a symmetry group the node is its own representative. With
/// one, the representative is the renaming with the least composed key
/// (see [`Canonicalizer`]): the only renamed node built, its keys read
/// off the memo rows. The valuation must be invariant under every
/// group element — the soundness obligation symmetric protocols take on.
fn canonicalize<P>(
    env: &GraphEnv<'_, P>,
    keyer: &mut Keyer<P>,
    node: &LiveNode<P>,
    keys: &mut SlotKeys,
) -> Result<(Option<LiveNode<P>>, u128, u32), String>
where
    P: Protocol + Clone + Debug,
{
    let t = node.state.depth as Time;
    let val = env.eval(&node.state.procs, t);
    for sp in &env.perms {
        let procs = &node.state.procs;
        keyer.renamed.clear();
        keyer.renamed.extend(sp.inverse.iter().map(|&i| {
            let mut proc = procs[i].clone();
            proc.permute(&sp.perm);
            proc
        }));
        if env.eval(&keyer.renamed, t) != val {
            return Err(format!(
                "propositions of {} are not invariant under its declared \
                 symmetry group; liveness props must be symmetric \
                 (quantify over processes instead of naming one)",
                std::any::type_name::<P>()
            ));
        }
    }
    slot_words(node, &mut keyer.words);
    let (composed, g) = keyer.canon.canonical(
        &node.state.procs,
        &node.state.inboxes,
        &keyer.words,
        &[],
        keys,
    );
    let renamed = g.map(|g| {
        keyer.canon.renamed_keys(g, &node.state.inboxes, keys);
        let renamed = permute_node(node, &env.perms[g]);
        slot_words(&renamed, &mut keyer.words);
        renamed
    });
    let fp = fingerprint(composed, node.state.depth);
    Ok((renamed, fp, val))
}

/// The fair graph as the Büchi search reads it: every node's successors
/// and proposition valuation.
struct LiveGraph {
    /// Node `g`'s successors are `edges[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    /// Target node ids and decisions, source by source, each source's
    /// in decision order.
    edges: Vec<(u32, ExploreDecision)>,
    vals: Vec<u32>,
    truncated: bool,
    capped: bool,
}

impl LiveGraph {
    fn len(&self) -> usize {
        self.vals.len()
    }

    fn succs(&self, g: u32) -> &[(u32, ExploreDecision)] {
        let g = g as usize;
        &self.edges[self.starts[g] as usize..self.starts[g + 1] as usize]
    }
}

/// No id: the end of a collision chain, a scratch slot a step changed,
/// or a successor's slot whose value the tables lack.
const NO_ID: u32 = u32::MAX;

/// Ids filed under 64-bit keys (the low words of slot keys and node
/// fingerprints), one collision chain per key. Ids are dense and handed
/// out in push order; a key only narrows the search, so the id an entry
/// gets never depends on it. The diagram walker and the reference
/// explorer dedup their stored states through it too.
pub(crate) struct Chains {
    // wfd-lint: allow(d1-hash-collections, keyed lookup/insert only; nothing iterates it)
    head: HashMap<u64, u32, FpBuild>,
    next: Vec<u32>,
}

impl Chains {
    pub(crate) fn new() -> Self {
        Chains {
            // wfd-lint: allow(d1-hash-collections, constructor for the chain heads excused above)
            head: HashMap::default(),
            next: Vec::new(),
        }
    }

    /// The first id filed under `key` that `accept` takes.
    pub(crate) fn find(&self, key: u64, mut accept: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut id = self.head.get(&key).copied().unwrap_or(NO_ID);
        while id != NO_ID {
            if accept(id) {
                return Some(id);
            }
            id = self.next[id as usize];
        }
        None
    }

    /// File the next id under `key` and return it.
    pub(crate) fn push(&mut self, key: u64) -> u32 {
        let id = u32::try_from(self.next.len()).expect("fewer than 2^32 ids");
        let prev = self.head.insert(key, id).unwrap_or(NO_ID);
        self.next.push(prev);
        id
    }
}

/// One slot kind's interning table: every distinct value, numbered in
/// the order it was first interned. A value is found by the key its node
/// carries and confirmed with `==`, so an id names exactly one value.
struct Table<T> {
    values: Vec<T>,
    chains: Chains,
}

impl<T: PartialEq> Table<T> {
    fn new() -> Self {
        Table {
            values: Vec::new(),
            chains: Chains::new(),
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn get(&self, id: u32) -> &T {
        &self.values[id as usize]
    }

    /// The id of the value keyed `key` that `eq` accepts.
    fn find(&self, key: u64, eq: impl Fn(&T) -> bool) -> Option<u32> {
        self.chains.find(key, |id| eq(&self.values[id as usize]))
    }

    /// The id of `value`, keyed `key`, interned if it is new.
    fn intern(&mut self, key: u64, value: T) -> u32 {
        match self.find(key, |v| *v == value) {
            Some(id) => id,
            None => {
                self.values.push(value);
                self.chains.push(key)
            }
        }
    }
}

type Inbox<P> = Vec<(ProcessId, <P as Protocol>::Msg)>;

/// A node's fairness bookkeeping, the part of a node without slot keys,
/// interned as one value: per slot its `started` bit, step-gap counter,
/// message count and message ages, packed into one run of words (see
/// [`book_words`]), and the pending invocations. Pending invocations are
/// stored, not derived from the run's invocation vector: scenario
/// symmetry only checks that orbit slots' invocations render alike, so a
/// renamed node's may differ from the vector's.
#[derive(PartialEq)]
struct Book<Inv> {
    words: Box<[Time]>,
    pending_inv: Box<[Option<Inv>]>,
}

/// The packed bookkeeping words of `node`, slot by slot.
fn book_words<P: Protocol>(node: &LiveNode<P>) -> impl Iterator<Item = Time> + '_ {
    node.ages.iter().enumerate().flat_map(move |(i, ages)| {
        [
            Time::from(node.state.started[i]),
            node.since[i],
            ages.len() as Time,
        ]
        .into_iter()
        .chain(ages.iter().copied())
    })
}

impl<Inv: Clone + PartialEq> Book<Inv> {
    fn of<P: Protocol<Inv = Inv>>(node: &LiveNode<P>) -> Self {
        Book {
            words: book_words(node).collect(),
            pending_inv: node.state.pending_inv.as_slice().into(),
        }
    }

    /// Whether `node` carries exactly this bookkeeping.
    fn matches<P: Protocol<Inv = Inv>>(&self, node: &LiveNode<P>) -> bool {
        *self.pending_inv == *node.state.pending_inv
            && self.words.iter().copied().eq(book_words(node))
    }

    /// Overwrite `node`'s bookkeeping with this one.
    fn unpack_into<P: Protocol<Inv = Inv>>(&self, node: &mut LiveNode<P>) {
        let mut words = self.words.iter().copied();
        let mut word = || words.next().expect("a packed word per field");
        for (i, ages) in node.ages.iter_mut().enumerate() {
            node.state.started[i] = word() == 1;
            node.since[i] = word();
            let len = word() as usize;
            ages.clear();
            ages.extend((0..len).map(|_| word()));
        }
        node.state.pending_inv.clone_from_slice(&self.pending_inv);
    }
}

/// The 64-bit key of a node's bookkeeping: a fold of its slot words.
fn book_key(words: &[u64]) -> u64 {
    let mut w = Fingerprint128::new();
    for &word in words {
        w.write_u64(word);
    }
    w.finish() as u64
}

/// The fair graph's nodes, collapse-compressed: one interning table per
/// slot kind, and per node one fixed-width row of ids — `n` process ids,
/// `n` inbox ids, the bookkeeping id, then the clamped depth.
struct NodeStore<P: Protocol> {
    n: usize,
    procs: Table<P>,
    inboxes: Table<Inbox<P>>,
    books: Table<Book<P::Inv>>,
    rows: Vec<u32>,
}

impl<P> NodeStore<P>
where
    P: Protocol + Clone + PartialEq,
    P::Msg: PartialEq,
    P::Inv: PartialEq,
{
    fn new(n: usize) -> Self {
        NodeStore {
            n,
            procs: Table::new(),
            inboxes: Table::new(),
            books: Table::new(),
            rows: Vec::new(),
        }
    }

    fn width(&self) -> usize {
        2 * self.n + 2
    }

    fn len(&self) -> usize {
        self.rows.len() / self.width()
    }

    fn row(&self, id: u32) -> &[u32] {
        let w = self.width();
        &self.rows[id as usize * w..(id as usize + 1) * w]
    }

    /// Fill `row` with the ids of `node`, whose keys are `keys` and slot
    /// words `words`, looking up every slot whose id `inherited` does not
    /// give (`NO_ID`, or no inherited ids at all). A slot whose value the
    /// tables lack is left `NO_ID`. Returns whether every slot was found:
    /// a node with a value the tables lack is new.
    fn resolve(
        &self,
        node: &LiveNode<P>,
        keys: &SlotKeys,
        words: &[u64],
        inherited: Option<&[u32]>,
        row: &mut [u32],
    ) -> bool {
        let n = self.n;
        let held = |i: usize| inherited.map_or(NO_ID, |ids| ids[i]);
        for (i, proc) in node.state.procs.iter().enumerate() {
            row[i] = held(i);
            if row[i] == NO_ID {
                let key = keys.slots[i] as u64;
                row[i] = self.procs.find(key, |v| v == proc).unwrap_or(NO_ID);
            }
        }
        for (j, inbox) in node.state.inboxes.iter().enumerate() {
            let i = n + j;
            row[i] = held(i);
            if row[i] == NO_ID {
                let key = keys.slots[i] as u64;
                row[i] = self.inboxes.find(key, |v| v == inbox).unwrap_or(NO_ID);
            }
        }
        row[2 * n] = self
            .books
            .find(book_key(words), |b| b.matches(node))
            .unwrap_or(NO_ID);
        row[2 * n + 1] = u32::try_from(node.state.depth).expect("depth fits a row word");
        !row.contains(&NO_ID)
    }

    /// Intern the values of `node`'s slots that [`NodeStore::resolve`]
    /// left `NO_ID` in `row`, in row order, and write their ids in.
    fn intern(&mut self, node: &LiveNode<P>, keys: &SlotKeys, words: &[u64], row: &mut [u32]) {
        let n = self.n;
        for (i, proc) in node.state.procs.iter().enumerate() {
            if row[i] == NO_ID {
                row[i] = self.procs.intern(keys.slots[i] as u64, proc.clone());
            }
        }
        for (j, inbox) in node.state.inboxes.iter().enumerate() {
            if row[n + j] == NO_ID {
                row[n + j] = self.inboxes.intern(keys.slots[n + j] as u64, inbox.clone());
            }
        }
        if row[2 * n] == NO_ID {
            row[2 * n] = self.books.intern(book_key(words), Book::of(node));
        }
    }

    /// Rebuild node `id` from its row.
    #[cfg(test)]
    fn node(&self, id: u32) -> LiveNode<P> {
        let (n, row) = (self.n, self.row(id));
        let mut state = State::blank();
        state.procs = row[..n]
            .iter()
            .map(|&i| self.procs.get(i).clone())
            .collect();
        state.inboxes = row[n..2 * n]
            .iter()
            .map(|&i| self.inboxes.get(i).clone())
            .collect();
        state.started = vec![false; n];
        state.pending_inv = vec![None; n];
        state.depth = row[2 * n + 1] as usize;
        let mut node = LiveNode {
            state,
            since: vec![0; n],
            ages: vec![Vec::new(); n],
        };
        self.books.get(row[2 * n]).unpack_into(&mut node);
        node
    }
}

/// A materialized node held by the graph build, and per slot
/// (process states, inboxes, then the bookkeeping) the id of the table
/// value it holds, or `NO_ID` where a step changed it since.
struct Scratch<P: Protocol> {
    node: LiveNode<P>,
    ids: Vec<u32>,
}

impl<P> Scratch<P>
where
    P: Protocol + Clone + PartialEq,
    P::Msg: PartialEq,
    P::Inv: PartialEq,
{
    /// A scratch holding `node`, whose ids are the front of `row`.
    fn new(node: &LiveNode<P>, row: &[u32]) -> Self {
        Scratch {
            node: node.clone(),
            ids: row[..row.len() - 1].to_vec(),
        }
    }

    /// Hold the node whose row is `row`, re-cloning from the tables only
    /// the slots whose ids differ from what the scratch holds.
    fn load(&mut self, store: &NodeStore<P>, row: &[u32]) {
        let (n, state) = (store.n, &mut self.node.state);
        for i in 0..n {
            if self.ids[i] != row[i] {
                state.procs[i].clone_from(store.procs.get(row[i]));
            }
            if self.ids[n + i] != row[n + i] {
                state.inboxes[i].clone_from(store.inboxes.get(row[n + i]));
            }
        }
        if self.ids[2 * n] != row[2 * n] {
            store.books.get(row[2 * n]).unpack_into(&mut self.node);
        }
        self.node.state.depth = row[2 * n + 1] as usize;
        self.ids.copy_from_slice(&row[..2 * n + 1]);
    }

    /// Become a copy of `parent`, which holds table values only,
    /// re-cloning only the slots whose ids differ.
    fn copy_from(&mut self, parent: &Scratch<P>) {
        let n = parent.node.state.procs.len();
        let (dst, src) = (&mut self.node, &parent.node);
        for i in 0..n {
            if self.ids[i] != parent.ids[i] {
                dst.state.procs[i].clone_from(&src.state.procs[i]);
            }
            if self.ids[n + i] != parent.ids[n + i] {
                dst.state.inboxes[i].clone_from(&src.state.inboxes[i]);
            }
        }
        if self.ids[2 * n] != parent.ids[2 * n] {
            dst.state.started.clone_from(&src.state.started);
            dst.state.pending_inv.clone_from(&src.state.pending_inv);
            dst.since.clone_from(&src.since);
            dst.ages.clone_from(&src.ages);
        }
        dst.state.depth = src.state.depth;
        self.ids.copy_from_slice(&parent.ids);
    }

    /// Forget the ids of what `actor`'s step from `parent` changed: the
    /// actor's state, every inbox it delivered from or sent to, and the
    /// bookkeeping.
    fn touched(&mut self, parent: &Scratch<P>, actor: usize, delivered: Option<usize>) {
        let n = parent.node.state.procs.len();
        self.ids[actor] = NO_ID;
        for (j, (inbox, before)) in self
            .node
            .state
            .inboxes
            .iter()
            .zip(&parent.node.state.inboxes)
            .enumerate()
        {
            if inbox.len() != before.len() || (j == actor && delivered.is_some()) {
                self.ids[n + j] = NO_ID;
            }
        }
        self.ids[2 * n] = NO_ID;
    }
}

/// The keys of a run of nodes, flat: `width` slot keys per node, and
/// each node's message keys, which end at its entry in `msg_ends`.
struct FlatKeys {
    width: usize,
    slots: Vec<u128>,
    msgs: Vec<u128>,
    msg_ends: Vec<usize>,
}

impl FlatKeys {
    fn new(width: usize) -> Self {
        FlatKeys {
            width,
            slots: Vec::new(),
            msgs: Vec::new(),
            msg_ends: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.msgs.clear();
        self.msg_ends.clear();
    }

    fn push(&mut self, slots: &[u128], msgs: &[u128]) {
        self.slots.extend_from_slice(slots);
        self.msgs.extend_from_slice(msgs);
        self.msg_ends.push(self.msgs.len());
    }

    /// Node `k`'s slot keys and message keys.
    fn get(&self, k: usize) -> (&[u128], &[u128]) {
        let start = if k == 0 { 0 } else { self.msg_ends[k - 1] };
        let slots = &self.slots[k * self.width..(k + 1) * self.width];
        (slots, &self.msgs[start..self.msg_ends[k]])
    }
}

/// Build the deduplicated fair state graph, breadth-first, into
/// collapse-compressed storage (see the module docs' "Node keys" and
/// "Node storage").
///
/// Each frontier entry carries its node's slot and message keys; a
/// successor inherits them through the transition memo
/// ([`SlotKeys::inherit`]), so it renders only on a memo miss, and
/// recomposes the inboxes its step delivered from or appended to. It
/// inherits its parent's ids the same way, looking up only the slots its
/// step touched. Dedup is exact: the fingerprint finds a candidate chain
/// and row equality confirms, so the numbering is BFS discovery order
/// whatever the keys are.
fn build_graph<P>(
    env: &GraphEnv<'_, P>,
    procs: Vec<P>,
    invocations: Vec<Option<P::Inv>>,
) -> Result<(LiveGraph, NodeStore<P>), String>
where
    P: Protocol + Clone + Debug + PartialEq,
    P::Msg: PartialEq,
    P::Inv: PartialEq,
{
    let obs = &env.cfg.obs;
    // The fair semantics: enumeration and stepping both come from the
    // shared machine layer, which samples the pre-computed detector table.
    let machine = FairMachine::<P, _>::new(
        env.pattern,
        env.cfg.max_step_gap,
        env.cfg.max_delay,
        env.cfg.t_stable,
        |p: ProcessId, t: Time| env.fd.get(p.index(), t).clone(),
    );
    let n = procs.len();
    let mut store = NodeStore::new(n);
    let width = store.width();
    let mut keyer = Keyer::new(&env.perms);
    let root = machine.initial(procs, invocations);
    let mut root_keys = full_keys(&root);
    let (renamed, root_fp, root_val) = canonicalize(env, &mut keyer, &root, &mut root_keys)?;
    let root = renamed.unwrap_or(root);
    if env.check_keys {
        assert_keys_fresh(&root, &root_keys, Some(root_fp), "root");
    }
    let mut row = vec![NO_ID; width];
    store.resolve(&root, &root_keys, &keyer.words, None, &mut row);
    store.intern(&root, &root_keys, &keyer.words, &mut row);
    store.rows.extend_from_slice(&row);
    // The frontier node being expanded and the successor stepped from it.
    let mut parent = Scratch::new(&root, &row);
    let mut succ = Scratch::new(&root, &row);
    let mut vals = vec![root_val];
    let mut starts: Vec<u32> = Vec::new();
    let mut edges: Vec<(u32, ExploreDecision)> = Vec::new();
    // Dedup index: node fingerprint → collision chain of node ids.
    let mut index = Chains::new();
    index.push(root_fp as u64);
    // What the metrics have been told so far, in `LEVEL_COUNTERS` order.
    let mut counted = [0; LEVEL_COUNTERS.len()];
    // The BFS frontier and the next level: node ids and their keys.
    let mut frontier: Vec<u32> = vec![0];
    let mut frontier_keys = FlatKeys::new(root_keys.slots.len());
    frontier_keys.push(&root_keys.slots, &root_keys.msgs);
    let mut next: Vec<u32> = Vec::new();
    let mut next_keys = FlatKeys::new(root_keys.slots.len());
    let mut decisions = Vec::new();
    let mut bufs: (SendBuf<P>, Vec<P::Output>) = (Vec::new(), Vec::new());
    let mut keys = SlotKeys::new();
    let mut truncated = false;
    let mut capped = false;
    while !frontier.is_empty() && !capped {
        let expand = obs.phase(PhaseId::LivenessExpand);
        for (k, &src) in frontier.iter().enumerate() {
            parent.load(&store, store.row(src));
            let parent_keys = frontier_keys.get(k);
            let t = parent.node.state.depth as Time;
            decisions.clear();
            machine.enabled_fair(&parent.node, &mut decisions);
            for &dec in &decisions {
                let (p, _) = dec;
                let a = p.index();
                succ.copy_from(&parent);
                let fd = env.fd.get(a, t).clone();
                let delivered = machine.step_in_place(&mut succ.node, dec, fd, &mut bufs);
                succ.touched(&parent, a, delivered);
                let inboxes = &succ.node.state.inboxes;
                if inboxes.iter().any(|ib| ib.len() > env.cfg.max_inbox) {
                    truncated = true;
                    continue;
                }
                let step = Step {
                    actor: p,
                    t,
                    started: parent.node.state.started[a],
                    delivered,
                };
                keys.inherit(
                    &mut keyer.memo,
                    parent_keys,
                    &parent.node.state.inboxes,
                    &succ.node.state.procs,
                    inboxes,
                    false, // nodes keep no output history
                    step,
                );
                if env.check_keys {
                    assert_keys_fresh(&succ.node, &keys, None, "inherited");
                }
                let (renamed, fp, val) = canonicalize(env, &mut keyer, &succ.node, &mut keys)?;
                // A renamed representative shares no slot with the step's
                // successor, so every id is looked up.
                let (rep, inherited) = match &renamed {
                    Some(renamed) => (renamed, None),
                    None => (&succ.node, Some(succ.ids.as_slice())),
                };
                if env.check_keys {
                    assert_keys_fresh(rep, &keys, Some(fp), "canonical");
                }
                let complete = store.resolve(rep, &keys, &keyer.words, inherited, &mut row);
                let known = if complete {
                    index.find(fp as u64, |id| store.row(id) == &row[..])
                } else {
                    None
                };
                let id = match known {
                    Some(id) => id,
                    None => {
                        if store.len() >= env.cfg.max_states {
                            capped = true;
                            continue;
                        }
                        if !complete {
                            store.intern(rep, &keys, &keyer.words, &mut row);
                        }
                        let id = index.push(fp as u64);
                        store.rows.extend_from_slice(&row);
                        vals.push(val);
                        next.push(id);
                        next_keys.push(&keys.slots, &keys.msgs);
                        id
                    }
                };
                // Sources are expanded in increasing id order, so each
                // node's run of edges starts when its first edge lands.
                while starts.len() <= src as usize {
                    starts.push(edge_count(edges.len()));
                }
                edges.push((id, dec));
            }
        }
        drop(expand);
        std::mem::swap(&mut frontier, &mut next);
        std::mem::swap(&mut frontier_keys, &mut next_keys);
        next.clear();
        next_keys.clear();
        let sizes = [
            store.len(),
            edges.len(),
            store.procs.len(),
            store.inboxes.len(),
            store.books.len(),
        ];
        for ((&id, size), was) in LEVEL_COUNTERS.iter().zip(sizes).zip(&mut counted) {
            obs.add(id, (size - *was) as u64);
            *was = size;
        }
    }
    while starts.len() <= store.len() {
        starts.push(edge_count(edges.len()));
    }
    let graph = LiveGraph {
        starts,
        edges,
        vals,
        truncated,
        capped,
    };
    Ok((graph, store))
}

/// The counters the graph build adds to once per BFS level: nodes,
/// edges, then the values each table interned.
const LEVEL_COUNTERS: [CounterId; 5] = [
    CounterId::LivenessNodes,
    CounterId::LivenessEdges,
    CounterId::LivenessInternedProcs,
    CounterId::LivenessInternedInboxes,
    CounterId::LivenessInternedBookkeeping,
];

/// An edge count as an offset into the flat edge array.
fn edge_count(edges: usize) -> u32 {
    u32::try_from(edges).expect("fewer than 2^32 edges")
}

// ---------------------------------------------------------------------------
// Product construction and nested DFS
// ---------------------------------------------------------------------------

/// CVWY nested depth-first search for an accepting lasso in the product
/// of the fair graph and the (degeneralized) Büchi automaton for ¬φ.
/// Returns the lasso and the number of product states visited.
fn find_lasso(graph: &LiveGraph, ba: &Buchi) -> (Option<LassoWitness>, usize) {
    if graph.len() == 0 || ba.n_states == 0 {
        return (None, 0);
    }
    // Product state = (graph node, automaton state, acceptance counter).
    // wfd-lint: allow(d1-hash-collections, keyed lookup/insert only; nothing iterates it)
    let mut index: HashMap<(u32, u32, u32), u32, FpBuild> = HashMap::default();
    // Product state: (graph node, Büchi state, acceptance counter).
    type Key = (u32, u32, u32);
    // Interner threaded into `succs_of` by mutable reference: it must
    // also borrow the state tables, so those travel as arguments.
    type Intern<'a> = dyn FnMut(&mut Vec<Key>, &mut Vec<u8>, &mut Vec<bool>, Key) -> u32 + 'a;
    let mut states: Vec<Key> = Vec::new();
    let mut colors: Vec<u8> = Vec::new(); // 0 white, 1 cyan, 2 blue
    let mut red: Vec<bool> = Vec::new();
    let mut intern =
        |states: &mut Vec<Key>, colors: &mut Vec<u8>, red: &mut Vec<bool>, key: Key| {
            *index.entry(key).or_insert_with(|| {
                let id = states.len() as u32;
                states.push(key);
                colors.push(0);
                red.push(false);
                id
            })
        };
    // Successors of a product state, in deterministic order. The
    // acceptance counter advances on leaving a state that belongs to the
    // current acceptance set; accepting product states are those about
    // to complete a full counter cycle at set 0.
    let succs_of = |states: &mut Vec<Key>,
                    colors: &mut Vec<u8>,
                    red: &mut Vec<bool>,
                    intern: &mut Intern<'_>,
                    pid: u32| {
        let (g, q, c) = states[pid as usize];
        let c_next = if ba.in_acc[c as usize][q as usize] {
            (c + 1) % ba.k as u32
        } else {
            c
        };
        let mut out: Vec<(u32, ExploreDecision)> = Vec::new();
        for &(g2, dec) in graph.succs(g) {
            for &q2 in &ba.succ[q as usize] {
                if ba.sat(graph.vals[g2 as usize], q2) {
                    let id = intern(states, colors, red, (g2, q2, c_next));
                    out.push((id, dec));
                }
            }
        }
        out
    };
    let accepting = |states: &[Key], pid: u32| -> bool {
        let (_, q, c) = states[pid as usize];
        c == 0 && ba.in_acc[0][q as usize]
    };

    struct Frame {
        pid: u32,
        entered: Option<ExploreDecision>,
        succs: Vec<(u32, ExploreDecision)>,
        next: usize,
    }

    let mut roots: Vec<u32> = Vec::new();
    for &q in &ba.init {
        if ba.sat(graph.vals[0], q) {
            let id = intern(&mut states, &mut colors, &mut red, (0, q, 0));
            roots.push(id);
        }
    }
    let mut intern_box: Box<Intern<'_>> = Box::new(intern);
    for root in roots {
        if colors[root as usize] != 0 {
            continue;
        }
        let mut blue: Vec<Frame> = Vec::new();
        colors[root as usize] = 1;
        let root_succs = succs_of(&mut states, &mut colors, &mut red, &mut *intern_box, root);
        blue.push(Frame {
            pid: root,
            entered: None,
            succs: root_succs,
            next: 0,
        });
        while let Some(top) = blue.last_mut() {
            if top.next < top.succs.len() {
                let (child, dec) = top.succs[top.next];
                top.next += 1;
                if colors[child as usize] == 0 {
                    colors[child as usize] = 1;
                    let child_succs =
                        succs_of(&mut states, &mut colors, &mut red, &mut *intern_box, child);
                    blue.push(Frame {
                        pid: child,
                        entered: Some(dec),
                        succs: child_succs,
                        next: 0,
                    });
                }
                continue;
            }
            // Post-order on top.pid: nested red search from accepting
            // states, while the blue stack (cyan states) is intact.
            let seed = top.pid;
            if accepting(&states, seed) && !red[seed as usize] {
                let mut red_stack: Vec<Frame> = Vec::new();
                red[seed as usize] = true;
                let seed_succs =
                    succs_of(&mut states, &mut colors, &mut red, &mut *intern_box, seed);
                red_stack.push(Frame {
                    pid: seed,
                    entered: None,
                    succs: seed_succs,
                    next: 0,
                });
                let mut hit: Option<(u32, ExploreDecision)> = None;
                'red: while let Some(rtop) = red_stack.last_mut() {
                    if rtop.next < rtop.succs.len() {
                        let (child, dec) = rtop.succs[rtop.next];
                        rtop.next += 1;
                        if colors[child as usize] == 1 {
                            // Reached a state on the blue stack: the
                            // cycle seed → … → child → (stack) → seed
                            // closes an accepting loop through seed.
                            hit = Some((child, dec));
                            break 'red;
                        }
                        if !red[child as usize] {
                            red[child as usize] = true;
                            let child_succs = succs_of(
                                &mut states,
                                &mut colors,
                                &mut red,
                                &mut *intern_box,
                                child,
                            );
                            red_stack.push(Frame {
                                pid: child,
                                entered: Some(dec),
                                succs: child_succs,
                                next: 0,
                            });
                        }
                        continue;
                    }
                    red_stack.pop();
                }
                if let Some((cyan, closing)) = hit {
                    // Stem: blue-stack path root → seed.
                    let stem: Vec<ExploreDecision> =
                        blue.iter().filter_map(|f| f.entered).collect();
                    // Cycle: red path seed → … → cyan, then the blue
                    // stack segment cyan → seed.
                    let mut cycle: Vec<ExploreDecision> =
                        red_stack.iter().filter_map(|f| f.entered).collect();
                    cycle.push(closing);
                    let pos = blue
                        .iter()
                        .position(|f| f.pid == cyan)
                        .expect("a cyan state is on the blue stack");
                    cycle.extend(blue[pos + 1..].iter().filter_map(|f| f.entered));
                    return (Some(LassoWitness { stem, cycle }), states.len());
                }
            }
            colors[seed as usize] = 2;
            blue.pop();
        }
    }
    (None, states.len())
}

// ---------------------------------------------------------------------------
// Validation and entry points
// ---------------------------------------------------------------------------

fn resolve_props<P: Protocol>() -> Result<BTreeMap<&'static str, u32>, String> {
    let names = P::props();
    if names.len() > MAX_PROPS {
        return Err(format!(
            "{} declares {} propositions; at most {MAX_PROPS} are supported",
            std::any::type_name::<P>(),
            names.len()
        ));
    }
    let mut map = BTreeMap::new();
    for (i, &name) in names.iter().enumerate() {
        if map.insert(name, i as u32).is_some() {
            return Err(format!(
                "{} declares proposition \"{name}\" twice",
                std::any::type_name::<P>()
            ));
        }
    }
    Ok(map)
}

/// Reject ill-formed scenarios before any graph work. Shared with [`Replay::run_fair`](crate::Replay::run_fair),
/// so replayed artifacts face exactly the checker's preconditions.
pub(crate) fn validate<P, D>(
    cfg: &LivenessConfig,
    pattern: &FailurePattern,
    n: usize,
    detector: &mut D,
) -> Result<(), String>
where
    P: Protocol,
    P::Fd: PartialEq,
    D: FdOracle<Value = P::Fd>,
{
    if n == 0 {
        return Err("a system needs at least one process".to_string());
    }
    if pattern.n() != n {
        return Err(format!(
            "failure pattern is over {} processes, the system has {n}",
            pattern.n()
        ));
    }
    if cfg.max_step_gap == 0 || cfg.max_delay == 0 {
        return Err("fairness bounds must be at least 1".to_string());
    }
    if cfg.max_inbox == 0 {
        return Err("max_inbox must be at least 1".to_string());
    }
    let correct: Vec<ProcessId> = (0..n)
        .map(ProcessId)
        .filter(|&p| pattern.is_correct(p))
        .collect();
    if correct.is_empty() {
        return Err(
            "at least one process must be correct (infinite fair runs need an actor)".into(),
        );
    }
    for p in (0..n).map(ProcessId) {
        if let Some(t) = pattern.crash_time(p) {
            if t > cfg.t_stable {
                return Err(format!(
                    "process {p} crashes at t={t}, after t_stable={}: raise t_stable \
                     so the frozen-time region is stationary",
                    cfg.t_stable
                ));
            }
        }
    }
    // Stationarity spot check: past t_stable the detector must keep
    // answering its t_stable value, or frozen-time graph steps would
    // diverge from real replays. A window bounded by the fairness
    // constants catches every oracle whose schedule is still moving.
    let window = 2 * (cfg.max_step_gap + cfg.max_delay) + n as Time + 2;
    for &p in &correct {
        let frozen = detector.query(p, cfg.t_stable);
        for dt in 1..=window {
            if detector.query(p, cfg.t_stable + dt) != frozen {
                return Err(format!(
                    "detector is not stationary at t_stable={}: process {p} sees a \
                     different value at t={} (stabilize the oracle or raise t_stable)",
                    cfg.t_stable,
                    cfg.t_stable + dt
                ));
            }
        }
    }
    Ok(())
}

/// Check an LTL property over **all fair infinite runs** of the finite
/// model defined by `cfg` and the scenario.
///
/// Returns `Err` for ill-formed scenarios (no correct process, crashes
/// after `t_stable`, a non-stationary detector, unknown propositions,
/// asymmetric propositions under symmetry); otherwise a
/// [`LivenessReport`] whose verdict is `Holds`, `Violated` (with a
/// replayable [`LassoWitness`]) or `Inconclusive` (budget/capacity hit).
pub fn check_liveness<P, D>(
    cfg: LivenessConfig,
    make_procs: impl Fn() -> Vec<P>,
    invocations: Vec<Option<P::Inv>>,
    pattern: &FailurePattern,
    mut detector: D,
    formula: &Ltl,
) -> Result<LivenessReport, String>
where
    P: Protocol + Clone + Debug + PartialEq,
    P::Msg: PartialEq,
    P::Inv: PartialEq,
    D: FdOracle<Value = P::Fd>,
{
    let procs = make_procs();
    let n = procs.len();
    if invocations.len() != n {
        return Err(format!(
            "{} invocation slots for {n} processes",
            invocations.len()
        ));
    }
    validate::<P, D>(&cfg, pattern, n, &mut detector)?;
    let props = resolve_props::<P>()?;

    let obs = cfg.obs.clone();
    // Compile ¬φ: an accepting lasso of the product is a fair run
    // violating φ.
    let ba = {
        let _buchi = obs.phase(PhaseId::LivenessBuchi);
        let mut arena = Arena::default();
        let neg_root = arena.nnf(formula, &props, false)?;
        let tableau = gpvw(&arena, neg_root);
        build_buchi(&arena, &tableau)
    };

    let env = GraphEnv::<P>::new(&cfg, pattern, &invocations, &mut detector);
    let used_symmetry = !env.perms.is_empty();
    // The search reads only successors and valuations: the node store
    // goes before it starts.
    let (graph, store) = build_graph(&env, procs, invocations.clone())?;
    drop(store);
    let (lasso, product_states) = {
        let _lasso = obs.phase(PhaseId::LivenessLasso);
        find_lasso(&graph, &ba)
    };
    obs.add(CounterId::LivenessProductStates, product_states as u64);
    let mut report = LivenessReport {
        verdict: LivenessVerdict::Holds,
        lasso: None,
        formula: formula.to_string(),
        reason: None,
        states: graph.len(),
        edges: graph.edges.len(),
        buchi_states: ba.n_states,
        product_states,
        truncated: graph.truncated,
    };
    match lasso {
        Some(witness) => {
            report.verdict = LivenessVerdict::Violated;
            if used_symmetry {
                // The lasso's decisions reference canonicalized nodes and
                // need not replay concretely; re-run without symmetry to
                // extract a concrete witness (the verdict itself is
                // already sound — the quotient preserves lassos).
                let _concrete = obs.phase(PhaseId::LivenessConcrete);
                let concrete = check_liveness(
                    cfg.with_symmetry(false),
                    make_procs,
                    invocations,
                    pattern,
                    detector,
                    formula,
                )?;
                report.lasso = concrete.lasso;
                if report.lasso.is_none() {
                    report.reason = Some(
                        "violated under symmetry; concrete witness extraction \
                         exceeded the state budget"
                            .to_string(),
                    );
                }
            } else {
                report.lasso = Some(witness);
            }
        }
        None => {
            if graph.truncated || graph.capped {
                report.verdict = LivenessVerdict::Inconclusive;
                report.reason = Some(if graph.capped {
                    format!("state budget of {} exhausted", cfg.max_states)
                } else {
                    format!(
                        "inbox capacity {} dropped at least one edge; no violation \
                         found on the remaining (real) runs",
                        cfg.max_inbox
                    )
                });
            }
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Tiny protocols exercising the liveness checker: a planted livelock
/// the nested DFS must catch, a terminating counterpart, and a protocol
/// whose renaming hooks really rewrite ids, for the symmetry reduction.
pub mod fixtures {
    use super::*;
    use crate::id::ProcessSet;
    use crate::protocol::{Ctx, Permutation, Symmetry};

    /// The planted livelock: on start every process sends one token to
    /// every other; every token is bounced straight back to its sender,
    /// forever. Nobody ever decides, so `F "decided"` is violated by the
    /// bounce cycle — the accepting lasso the checker must find. Fully
    /// symmetric (reply-to-sender structure, id-free state).
    #[derive(Clone, Debug, PartialEq)]
    pub struct PingPong {
        /// Never set — the planted bug.
        pub decided: bool,
    }

    impl PingPong {
        /// `n` fresh processes.
        pub fn fleet(n: usize) -> Vec<PingPong> {
            (0..n).map(|_| PingPong { decided: false }).collect()
        }
    }

    impl Protocol for PingPong {
        type Msg = u8;
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            ctx.broadcast_others(0);
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: u8) {
            ctx.send(from, msg);
        }

        fn symmetry(_n: usize) -> Symmetry {
            Symmetry::Full
        }

        fn props() -> &'static [&'static str] {
            &["decided"]
        }

        fn eval_prop(_prop: usize, procs: &[Self], _view: &PropView<'_>) -> bool {
            procs.iter().any(|p| p.decided)
        }
    }

    /// The terminating counterpart: every process decides on its first
    /// step, so `F "all-decided"` holds over every fair run.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Decider {
        /// Set on the first step.
        pub decided: bool,
    }

    impl Decider {
        /// `n` fresh processes.
        pub fn fleet(n: usize) -> Vec<Decider> {
            (0..n).map(|_| Decider { decided: false }).collect()
        }
    }

    impl Protocol for Decider {
        type Msg = u8;
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, _ctx: &mut Ctx<Self>) {
            self.decided = true;
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, _msg: u8) {}

        fn symmetry(_n: usize) -> Symmetry {
            Symmetry::Full
        }

        fn props() -> &'static [&'static str] {
            &["all-decided"]
        }

        fn eval_prop(_prop: usize, procs: &[Self], view: &PropView<'_>) -> bool {
            procs
                .iter()
                .zip(view.correct)
                .all(|(p, &c)| !c || p.decided)
        }
    }

    /// A two-round join-quorum protocol whose state and messages embed
    /// process ids, so its renaming hooks really rewrite. Each round a
    /// process broadcasts `Join`, every process answers with an `Ack`
    /// naming itself, and the first majority of acks becomes the round's
    /// quorum; a λ step with a first-round quorum starts the second
    /// round. `F "formed"` (every correct process holds a second-round
    /// quorum) holds exactly when a majority is correct.
    #[derive(Clone, Debug, PartialEq)]
    pub struct JoinQuorum {
        /// `0` before the first step, then `1` or `2`.
        pub round: u8,
        /// The processes that acknowledged this round so far.
        pub acks: ProcessSet,
        /// This round's quorum, once a majority acknowledged.
        pub quorum: Option<ProcessSet>,
    }

    /// [`JoinQuorum`]'s messages.
    #[derive(Clone, Debug, PartialEq)]
    pub enum JoinMsg {
        /// Round `k` asks for acknowledgements.
        Join(u8),
        /// The named process acknowledges round `k`.
        Ack(u8, ProcessId),
    }

    impl JoinQuorum {
        /// `n` fresh processes.
        pub fn fleet(n: usize) -> Vec<JoinQuorum> {
            (0..n)
                .map(|_| JoinQuorum {
                    round: 0,
                    acks: ProcessSet::new(),
                    quorum: None,
                })
                .collect()
        }
    }

    fn rename(set: &ProcessSet, perm: &Permutation) -> ProcessSet {
        set.iter().map(|p| perm.apply(p)).collect()
    }

    impl Protocol for JoinQuorum {
        type Msg = JoinMsg;
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            self.round = 1;
            ctx.broadcast(JoinMsg::Join(1));
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: JoinMsg) {
            match msg {
                JoinMsg::Join(k) => ctx.send(from, JoinMsg::Ack(k, ctx.me())),
                JoinMsg::Ack(k, who) if k == self.round && self.quorum.is_none() => {
                    self.acks.insert(who);
                    if self.acks.len() * 2 > ctx.n() {
                        self.quorum = Some(self.acks);
                    }
                }
                JoinMsg::Ack(..) => {}
            }
        }

        fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
            if self.round == 1 && self.quorum.is_some() {
                self.round = 2;
                self.acks = ProcessSet::new();
                self.quorum = None;
                ctx.broadcast(JoinMsg::Join(2));
            }
        }

        fn symmetry(_n: usize) -> Symmetry {
            Symmetry::Full
        }

        fn permute(&mut self, perm: &Permutation) {
            self.acks = rename(&self.acks, perm);
            self.quorum = self.quorum.as_ref().map(|q| rename(q, perm));
        }

        fn permute_msg(msg: &mut JoinMsg, perm: &Permutation) {
            if let JoinMsg::Ack(_, who) = msg {
                *who = perm.apply(*who);
            }
        }

        fn props() -> &'static [&'static str] {
            &["formed"]
        }

        fn eval_prop(_prop: usize, procs: &[Self], view: &PropView<'_>) -> bool {
            procs
                .iter()
                .zip(view.correct)
                .all(|(p, &c)| !c || (p.round == 2 && p.quorum.is_some()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{Decider, JoinQuorum, PingPong};
    use super::*;
    use crate::machine::{node_eq, Replay};
    use crate::oracle::NoDetector;

    fn cfg() -> LivenessConfig {
        LivenessConfig::new(3, 3, 0)
    }

    #[test]
    fn ltl_renders_in_standard_notation() {
        let f = Ltl::prop("a").until(Ltl::prop("b")).always();
        assert_eq!(f.to_string(), "G((\"a\" U \"b\"))");
        let g = Ltl::prop("a").not().implies(Ltl::prop("b").next());
        assert_eq!(g.to_string(), "(!!\"a\" | X(\"b\"))");
    }

    #[test]
    fn planted_livelock_is_caught_with_a_replayable_lasso() {
        let report = check_liveness(
            cfg(),
            || PingPong::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &Ltl::prop("decided").eventually(),
        )
        .expect("valid scenario");
        assert_eq!(report.verdict, LivenessVerdict::Violated);
        let lasso = report.lasso.expect("a concrete witness");
        assert!(!lasso.cycle.is_empty());
        Replay::lasso(lasso.stem.clone(), lasso.cycle.clone())
            .run_fair(
                &cfg(),
                || PingPong::fleet(2),
                vec![None, None],
                &FailurePattern::failure_free(2),
                NoDetector,
            )
            .expect("the witness must replay");
    }

    #[test]
    fn livelock_never_decides_so_never_decided_holds() {
        let report = check_liveness(
            cfg(),
            || PingPong::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &Ltl::prop("decided").not().always(),
        )
        .expect("valid scenario");
        assert_eq!(report.verdict, LivenessVerdict::Holds);
        assert!(report.lasso.is_none());
    }

    #[test]
    fn decider_terminates_under_all_fair_schedules() {
        let report = check_liveness(
            cfg(),
            || Decider::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &Ltl::prop("all-decided").eventually(),
        )
        .expect("valid scenario");
        assert_eq!(report.verdict, LivenessVerdict::Holds);
    }

    #[test]
    fn next_and_until_operators_work_end_to_end() {
        // From the initial configuration nobody has decided, and one step
        // cannot make everyone decided when n = 2 — but eventually all
        // decide: ¬p ∧ X ¬p ∧ (¬p U p) holds on every fair run.
        let p = || Ltl::prop("all-decided");
        let f = p().not().and(p().not().next()).and(p().not().until(p()));
        let report = check_liveness(
            cfg(),
            || Decider::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &f,
        )
        .expect("valid scenario");
        assert_eq!(report.verdict, LivenessVerdict::Holds);
        // And the converse — X "all-decided" — is violated (two starts
        // are needed).
        let report = check_liveness(
            cfg(),
            || Decider::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &p().next(),
        )
        .expect("valid scenario");
        assert_eq!(report.verdict, LivenessVerdict::Violated);
    }

    #[test]
    fn crashes_after_t_stable_are_rejected() {
        let pattern = FailurePattern::failure_free(2).with_crash(ProcessId(1), 5);
        let err = check_liveness(
            cfg(),
            || PingPong::fleet(2),
            vec![None, None],
            &pattern,
            NoDetector,
            &Ltl::prop("decided").eventually(),
        )
        .expect_err("crash at 5 > t_stable 0");
        assert!(err.contains("t_stable"), "unexpected error: {err}");
    }

    #[test]
    fn unknown_propositions_are_rejected_with_the_known_list() {
        let err = check_liveness(
            cfg(),
            || PingPong::fleet(2),
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            &Ltl::prop("nope").eventually(),
        )
        .expect_err("unknown prop");
        assert!(err.contains("nope") && err.contains("decided"), "{err}");
    }

    #[test]
    fn symmetry_preserves_the_verdict_and_still_ships_a_witness() {
        for symmetric in [false, true] {
            let report = check_liveness(
                cfg().with_symmetry(symmetric),
                || PingPong::fleet(3),
                vec![None, None, None],
                &FailurePattern::failure_free(3),
                NoDetector,
                &Ltl::prop("decided").eventually(),
            )
            .expect("valid scenario");
            assert_eq!(report.verdict, LivenessVerdict::Violated);
            let lasso = report.lasso.expect("witness extraction re-runs concretely");
            Replay::lasso(lasso.stem.clone(), lasso.cycle.clone())
                .run_fair(
                    &cfg(),
                    || PingPong::fleet(3),
                    vec![None, None, None],
                    &FailurePattern::failure_free(3),
                    NoDetector,
                )
                .expect("witness replays");
        }
    }

    #[test]
    fn a_crashed_majority_still_leaves_a_fair_model() {
        let pattern = FailurePattern::failure_free(3)
            .with_crash(ProcessId(1), 0)
            .with_crash(ProcessId(2), 0);
        let report = check_liveness(
            cfg(),
            || Decider::fleet(3),
            vec![None, None, None],
            &pattern,
            NoDetector,
            &Ltl::prop("all-decided").eventually(),
        )
        .expect("valid scenario");
        // Only p0 is correct; it decides on its first (forced) step.
        assert_eq!(report.verdict, LivenessVerdict::Holds);
    }

    #[test]
    fn tight_inbox_capacity_reports_inconclusive_not_holds() {
        let report = check_liveness(
            cfg().with_max_inbox(1),
            || PingPong::fleet(3),
            vec![None, None, None],
            &FailurePattern::failure_free(3),
            NoDetector,
            &Ltl::prop("decided").not().always(),
        )
        .expect("valid scenario");
        // The property actually holds, but edges were dropped: the
        // checker must not overclaim.
        assert_ne!(report.verdict, LivenessVerdict::Violated);
        if report.truncated {
            assert_eq!(report.verdict, LivenessVerdict::Inconclusive);
        }
    }

    /// The uncompressed fair graph: every node a full [`LiveNode`].
    struct Uncompressed<P: Protocol> {
        nodes: Vec<LiveNode<P>>,
        succs: Vec<Vec<(u32, ExploreDecision)>>,
        vals: Vec<u32>,
        truncated: bool,
        capped: bool,
    }

    /// The graph builder before collapse compression, kept as the
    /// differential oracle of [`build_graph`]: each successor is a fresh
    /// [`FairMachine::step_with`] node, stored whole, and dedup is
    /// confirmed by [`node_eq`]. Same BFS, keys and canonicalization, but
    /// each level is expanded whole before its successors are numbered,
    /// in edge order, so the numbering must come out identical.
    fn build_uncompressed<P>(
        env: &GraphEnv<'_, P>,
        procs: Vec<P>,
        invocations: Vec<Option<P::Inv>>,
    ) -> Result<Uncompressed<P>, String>
    where
        P: Protocol + Clone + Debug + PartialEq,
        P::Msg: PartialEq,
        P::Inv: PartialEq,
    {
        struct FullEdge<P: Protocol> {
            src: u32,
            dec: ExploreDecision,
            node: LiveNode<P>,
            fp: u128,
            val: u32,
        }
        let machine = FairMachine::<P, _>::new(
            env.pattern,
            env.cfg.max_step_gap,
            env.cfg.max_delay,
            env.cfg.t_stable,
            |p: ProcessId, t: Time| env.fd.get(p.index(), t).clone(),
        );
        let mut keyer = Keyer::new(&env.perms);
        let root = machine.initial(procs, invocations);
        let mut root_keys = full_keys(&root);
        let (renamed, root_fp, root_val) = canonicalize(env, &mut keyer, &root, &mut root_keys)?;
        let mut nodes = vec![renamed.unwrap_or(root)];
        let mut vals = vec![root_val];
        let mut succs: Vec<Vec<(u32, ExploreDecision)>> = vec![Vec::new()];
        let mut index = Chains::new();
        index.push(root_fp as u64);
        let mut frontier: Vec<u32> = vec![0];
        let mut frontier_keys = FlatKeys::new(root_keys.slots.len());
        frontier_keys.push(&root_keys.slots, &root_keys.msgs);
        let (mut truncated, mut capped) = (false, false);
        let mut decisions = Vec::new();
        let mut bufs: (SendBuf<P>, Vec<P::Output>) = (Vec::new(), Vec::new());
        let mut keys = SlotKeys::new();
        while !frontier.is_empty() && !capped {
            let mut edges = Vec::new();
            let mut edge_keys = FlatKeys::new(frontier_keys.width);
            for (k, &src) in frontier.iter().enumerate() {
                let node = &nodes[src as usize];
                let t = node.state.depth as Time;
                decisions.clear();
                machine.enabled_fair(node, &mut decisions);
                for &dec in &decisions {
                    let (p, choice) = dec;
                    let a = p.index();
                    let fd = env.fd.get(a, t).clone();
                    let succ = machine.step_with(node, dec, fd, &mut bufs);
                    if succ
                        .state
                        .inboxes
                        .iter()
                        .any(|ib| ib.len() > env.cfg.max_inbox)
                    {
                        truncated = true;
                        continue;
                    }
                    let started = node.state.started[a];
                    let inbox_len = node.state.inboxes[a].len();
                    let step = Step {
                        actor: p,
                        t,
                        started,
                        delivered: choice
                            .filter(|_| started && inbox_len > 0)
                            .map(|i| i.min(inbox_len - 1)),
                    };
                    keys.inherit(
                        &mut keyer.memo,
                        frontier_keys.get(k),
                        &node.state.inboxes,
                        &succ.state.procs,
                        &succ.state.inboxes,
                        false, // nodes keep no output history
                        step,
                    );
                    let (renamed, fp, val) = canonicalize(env, &mut keyer, &succ, &mut keys)?;
                    edge_keys.push(&keys.slots, &keys.msgs);
                    edges.push(FullEdge {
                        src,
                        dec,
                        node: renamed.unwrap_or(succ),
                        fp,
                        val,
                    });
                }
            }
            frontier.clear();
            frontier_keys.clear();
            for (e, edge) in edges.into_iter().enumerate() {
                let known = index.find(edge.fp as u64, |id| {
                    node_eq(&nodes[id as usize], &edge.node)
                });
                let id = match known {
                    Some(id) => id,
                    None if nodes.len() >= env.cfg.max_states => {
                        capped = true;
                        continue;
                    }
                    None => {
                        nodes.push(edge.node);
                        vals.push(edge.val);
                        succs.push(Vec::new());
                        let id = index.push(edge.fp as u64);
                        frontier.push(id);
                        let (slots, msgs) = edge_keys.get(e);
                        frontier_keys.push(slots, msgs);
                        id
                    }
                };
                succs[edge.src as usize].push((id, edge.dec));
            }
        }
        Ok(Uncompressed {
            nodes,
            succs,
            vals,
            truncated,
            capped,
        })
    }

    /// Build one scenario's fair graph both ways and check that the
    /// collapse-compressed build numbers, values and links its nodes
    /// exactly as the uncompressed oracle does, and stores each node
    /// exactly. Returns the compressed graph.
    fn differential<P>(
        procs: fn(usize) -> Vec<P>,
        cfg: &LivenessConfig,
        pattern: &FailurePattern,
    ) -> LiveGraph
    where
        P: Protocol<Inv = (), Fd = ()> + Clone + Debug + PartialEq,
        P::Msg: PartialEq,
    {
        let n = pattern.n();
        let env = GraphEnv::<P>::new(cfg, pattern, &vec![None; n], &mut NoDetector);
        let (graph, store) = build_graph(&env, procs(n), vec![None; n]).expect("valid scenario");
        let oracle = build_uncompressed(&env, procs(n), vec![None; n]).expect("valid scenario");
        let what = std::any::type_name::<P>();
        assert_eq!(graph.len(), oracle.nodes.len(), "{what}: node count");
        assert_eq!(store.len(), graph.len(), "{what}: one row per node");
        assert_eq!(graph.vals, oracle.vals, "{what}: valuations");
        assert_eq!(graph.truncated, oracle.truncated, "{what}: truncation");
        assert_eq!(graph.capped, oracle.capped, "{what}: budget");
        for (g, (succs, node)) in oracle.succs.iter().zip(&oracle.nodes).enumerate() {
            assert_eq!(
                graph.succs(g as u32),
                &succs[..],
                "{what}: node {g}'s edges"
            );
            assert!(
                node_eq(&store.node(g as u32), node),
                "{what}: node {g}'s row"
            );
        }
        graph
    }

    #[test]
    fn compressed_graphs_match_the_uncompressed_builder() {
        let mut nodes = 0;
        for n in [2, 3] {
            for crash in [false, true] {
                let mut pattern = FailurePattern::failure_free(n);
                if crash {
                    pattern = pattern.with_crash(ProcessId(0), 0);
                }
                for (gap, delay) in [(2, 2), (2, 3), (3, 2), (3, 3)] {
                    for symmetry in [false, true] {
                        let cfg = LivenessConfig::new(gap, delay, 0)
                            .with_max_inbox(12)
                            .with_symmetry(symmetry);
                        nodes += differential(PingPong::fleet, &cfg, &pattern).len();
                        nodes += differential(Decider::fleet, &cfg, &pattern).len();
                        nodes += differential(JoinQuorum::fleet, &cfg, &pattern).len();
                    }
                }
            }
        }
        assert!(nodes > 0, "no node was compared");
    }

    #[test]
    fn compressed_graphs_match_under_truncation_and_a_node_budget() {
        let pattern = FailurePattern::failure_free(3);
        let cfg = LivenessConfig::new(2, 2, 0);
        let truncated = cfg.clone().with_max_inbox(1);
        assert!(differential(PingPong::fleet, &truncated, &pattern).truncated);
        assert!(differential(JoinQuorum::fleet, &truncated, &pattern).truncated);
        let capped = cfg.with_max_inbox(12).with_max_states(40);
        assert!(differential(PingPong::fleet, &capped, &pattern).capped);
        assert!(differential(JoinQuorum::fleet, &capped, &pattern).capped);
    }

    /// Panic if two values of one interning table are equal.
    fn assert_distinct<T: PartialEq>(values: &[T], what: &str) {
        for (i, v) in values.iter().enumerate() {
            if let Some(j) = values[..i].iter().position(|u| u == v) {
                panic!("{what} table entries {j} and {i} are equal");
            }
        }
    }

    /// Build one scenario's fair graph with the key check on, whatever
    /// the build profile, so every carried slot key, message key and
    /// fingerprint is compared with a full re-key as it is made; then,
    /// over nodes rebuilt from their rows, check that no interning table
    /// holds two equal values, that no two nodes are structurally equal
    /// (a stale key splits a node in two) and, under symmetry, that every
    /// renaming of every node canonicalizes back to that node, with that
    /// node's slot and message keys. Returns how many renamings it
    /// checked.
    fn audit<P>(procs: fn(usize) -> Vec<P>, cfg: &LivenessConfig, pattern: &FailurePattern) -> usize
    where
        P: Protocol<Inv = (), Fd = ()> + Clone + Debug + PartialEq,
        P::Msg: PartialEq,
    {
        let n = pattern.n();
        let mut env = GraphEnv::<P>::new(cfg, pattern, &vec![None; n], &mut NoDetector);
        env.check_keys = true;
        let (graph, store) =
            build_graph(&env, procs(n), vec![None; n]).expect("well-formed scenario");
        assert!(!graph.truncated && !graph.capped);
        assert_distinct(&store.procs.values, "process state");
        assert_distinct(&store.inboxes.values, "inbox");
        assert_distinct(&store.books.values, "bookkeeping");
        let nodes: Vec<LiveNode<P>> = (0..store.len() as u32).map(|g| store.node(g)).collect();
        let mut by_fp: BTreeMap<u128, Vec<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            let twins = by_fp.entry(fresh_fingerprint(node)).or_default();
            if let Some(&j) = twins.iter().find(|&&j| node_eq(&nodes[j], node)) {
                panic!("nodes {j} and {i} are equal");
            }
            twins.push(i);
        }
        let mut keyer = Keyer::new(&env.perms);
        for (i, node) in nodes.iter().enumerate() {
            for sp in &env.perms {
                let renamed = permute_node(node, sp);
                let mut keys = full_keys(&renamed);
                let (canon, fp, val) =
                    canonicalize(&env, &mut keyer, &renamed, &mut keys).expect("symmetric props");
                assert_eq!(val, graph.vals[i], "node {i}: the valuation moved");
                assert!(
                    node_eq(canon.as_ref().unwrap_or(&renamed), node),
                    "node {i} is not its orbit's representative"
                );
                assert_eq!(
                    fp,
                    fresh_fingerprint(node),
                    "node {i}: fingerprint depends on the renaming"
                );
                let full = full_keys(node);
                assert_eq!(
                    keys.slots, full.slots,
                    "node {i}: stale representative slot keys"
                );
                assert_eq!(
                    keys.msgs, full.msgs,
                    "node {i}: stale representative message keys"
                );
            }
        }
        nodes.len() * env.perms.len()
    }

    #[test]
    fn carried_keys_match_a_full_re_key_and_leave_no_duplicate_nodes() {
        let mut renamings = 0;
        for n in [2, 3] {
            for crash in [false, true] {
                let mut pattern = FailurePattern::failure_free(n);
                if crash {
                    pattern = pattern.with_crash(ProcessId(0), 0);
                }
                for (gap, delay) in [(2, 2), (2, 3), (3, 2), (3, 3)] {
                    for symmetry in [false, true] {
                        let cfg = LivenessConfig::new(gap, delay, 0)
                            .with_max_inbox(12)
                            .with_symmetry(symmetry);
                        renamings += audit(PingPong::fleet, &cfg, &pattern);
                        renamings += audit(Decider::fleet, &cfg, &pattern);
                        renamings += audit(JoinQuorum::fleet, &cfg, &pattern);
                    }
                }
            }
        }
        assert!(renamings > 0, "no renaming was checked");
    }
}
