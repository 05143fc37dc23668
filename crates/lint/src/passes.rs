//! The workspace analysis passes: d6 (determinism taint), d7 (footprint
//! completeness), d8 (Machine purity), d9 (deprecation lifecycle).
//!
//! Unlike the d1–d5 token rules, these need the whole workspace at once:
//! a call graph to propagate taint through, every `Protocol` impl next
//! to its `footprint` declaration, and the workspace version to compare
//! `#[deprecated(since)]` stamps against. The engine builds a
//! [`SymbolTable`] and hands it here; findings flow back through the
//! same suppression/stale machinery as token-rule matches, so an inline
//! `// wfd-lint: allow(d7-footprint, reason)` works exactly like it
//! does for d1.
//!
//! Every pass *over-approximates*: name-resolved call edges may be too
//! many, never too few (see [`crate::symbols`]); handler effects are
//! collected from closures and same-file helpers without control-flow
//! pruning; `footprint` capabilities are unioned across all match arms.
//! The consequence is the useful one for an audit — a pass staying
//! silent is evidence, a pass firing may need a written allow.

use crate::parser::{CallSite, FnDef, Receiver};
use crate::rules::rule_by_id;
use crate::symbols::{FnIx, SymbolTable};
use std::collections::BTreeMap;

/// A finding produced by an analysis pass, before suppression handling.
#[derive(Clone, Debug)]
pub struct PassFinding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line the finding (and any `allow`) anchors to.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (`d6-taint` … `d9-deprecated`).
    pub rule: &'static str,
    /// The matched-thing half of the message; the engine prefixes the
    /// rule summary, mirroring token-rule findings.
    pub what: String,
    /// For d6: the full call chain from the reported fn down to the
    /// primitive, one `name (file:line)` entry per hop.
    pub chain: Vec<String>,
}

/// Run all analysis passes over the table.
///
/// `workspace_version` feeds d9; `None` (single-file fixture mode)
/// disables the version comparison so `lint_source` keeps its exact
/// pre-analysis semantics for d1–d5 fixtures.
pub fn run(table: &SymbolTable, workspace_version: Option<[u64; 3]>) -> Vec<PassFinding> {
    let mut out = Vec::new();
    taint_pass(table, &mut out);
    footprint_pass(table, &mut out);
    machine_purity_pass(table, &mut out);
    if let Some(version) = workspace_version {
        deprecation_pass(table, version, &mut out);
    }
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    out.dedup_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.what) == (&b.file, b.line, b.col, b.rule, &b.what)
    });
    out
}

fn in_scope(rule: &'static str, rel: &str) -> bool {
    rule_by_id(rule).is_some_and(|r| r.applies(rel).is_ok())
}

// ---------------------------------------------------------------- d6 --

/// Std APIs that introduce nondeterminism but are *not* covered by the
/// d1–d5 token rules (those seed taint through their own matches). Each
/// entry is a path suffix plus the display name used in findings.
const EXTRA_DENY: &[(&[&str], &str)] = &[
    (&["env", "var"], "std::env::var"),
    (&["env", "var_os"], "std::env::var_os"),
    (&["env", "vars"], "std::env::vars"),
    (&["thread", "spawn"], "std::thread::spawn"),
    (&["thread", "scope"], "std::thread::scope"),
    (&["available_parallelism"], "available_parallelism"),
];

fn deny_name(path: &[String]) -> Option<&'static str> {
    for (suffix, name) in EXTRA_DENY {
        if path.len() >= suffix.len()
            && path[path.len() - suffix.len()..]
                .iter()
                .zip(suffix.iter())
                .all(|(a, b)| a == b)
        {
            return Some(name);
        }
    }
    None
}

/// Where a fn's taint comes from, for chain reconstruction.
enum Origin {
    /// The fn itself touches a primitive at `line`.
    Primitive { what: String, line: u32 },
    /// The fn calls a tainted callee at `line`.
    Via { callee: FnIx, line: u32 },
}

/// d6: propagate determinism taint through the call graph.
///
/// Seeds are fns that directly touch a primitive — an unsuppressed
/// d1–d3 match (collected by the engine into
/// [`crate::symbols::FileSyms::seed_hits`]) or a use of the extra deny
/// set above. Taint propagates caller-ward over reverse call edges.
/// Files excluded from `d6-taint` are sanctioned nondeterminism
/// boundaries: they neither seed nor relay.
///
/// Findings: a direct use of the extra deny set is reported at its
/// site; a fn whose *callee* is tainted is reported once, at its first
/// offending call site, with the full chain down to the primitive
/// (d1–d3 direct uses are not re-reported — their own rules already
/// fire there).
fn taint_pass(table: &SymbolTable, out: &mut Vec<PassFinding>) {
    const RULE: &str = "d6-taint";
    let scoped: Vec<bool> = table.files.iter().map(|f| in_scope(RULE, &f.rel)).collect();

    let mut origin: BTreeMap<FnIx, Origin> = BTreeMap::new();
    let mut queue: Vec<FnIx> = Vec::new();

    // Seeds from the engine's unsuppressed d1–d3 matches.
    for (fi, file) in table.files.iter().enumerate() {
        if !scoped[fi] {
            continue;
        }
        for (line, what) in &file.seed_hits {
            if let Some(ix) = table.enclosing_fn(fi, *line) {
                origin.entry(ix).or_insert_with(|| {
                    queue.push(ix);
                    Origin::Primitive {
                        what: what.clone(),
                        line: *line,
                    }
                });
            }
        }
    }
    // Seeds (and direct findings) from the extra deny set. A use on a
    // line an `allow(d6-taint, …)` targets still reports (so the engine
    // suppresses it and the allow stays load-bearing) but does not
    // seed: allowing the seed un-taints every caller.
    for (ix, node) in table.fns.iter().enumerate() {
        if !scoped[node.file] {
            continue;
        }
        let def = table.def(ix);
        let allowed = &table.files[node.file].d6_allowed;
        let mut first: Option<(&'static str, u32, u32)> = None;
        for (path, line, col) in def
            .calls
            .iter()
            .map(|c| (&c.path, c.line, c.col))
            .chain(def.paths.iter().map(|p| (&p.path, p.line, p.col)))
        {
            if let Some(name) = deny_name(path) {
                out.push(PassFinding {
                    file: table.file_of(ix).to_string(),
                    line,
                    col,
                    rule: RULE,
                    what: format!("`{}` used directly in `{}`", name, def.name),
                    chain: Vec::new(),
                });
                if first.is_none() && !allowed.contains(&line) {
                    first = Some((name, line, col));
                }
            }
        }
        if let Some((name, line, _)) = first {
            origin.entry(ix).or_insert_with(|| {
                queue.push(ix);
                Origin::Primitive {
                    what: name.to_string(),
                    line,
                }
            });
        }
    }

    // BFS caller-ward; sanctioned boundary files do not relay.
    while let Some(t) = queue.pop() {
        for &caller in &table.reverse[t] {
            if origin.contains_key(&caller) || !scoped[table.fns[caller].file] {
                continue;
            }
            let line = table.edges[caller]
                .iter()
                .find(|e| e.callee == t)
                .map(|e| e.line)
                .unwrap_or(table.def(caller).line);
            origin.insert(caller, Origin::Via { callee: t, line });
            queue.push(caller);
        }
    }

    // One chain finding per fn with a tainted callee, at its first
    // offending call site.
    for (ix, node) in table.fns.iter().enumerate() {
        if !scoped[node.file] {
            continue;
        }
        let Some(edge) = table.edges[ix]
            .iter()
            .filter(|e| origin.contains_key(&e.callee))
            .min_by_key(|e| (e.line, e.col))
        else {
            continue;
        };
        let def = table.def(ix);
        let mut chain = vec![format!(
            "{} ({}:{})",
            def.name,
            table.file_of(ix),
            edge.line
        )];
        let mut cur = edge.callee;
        let primitive = loop {
            match &origin[&cur] {
                Origin::Via { callee, line } => {
                    chain.push(format!(
                        "{} ({}:{})",
                        table.def(cur).name,
                        table.file_of(cur),
                        line
                    ));
                    cur = *callee;
                }
                Origin::Primitive { what, line } => {
                    chain.push(format!(
                        "{} ({}:{})",
                        table.def(cur).name,
                        table.file_of(cur),
                        line
                    ));
                    chain.push(what.clone());
                    break what.clone();
                }
            }
        };
        out.push(PassFinding {
            file: table.file_of(ix).to_string(),
            line: edge.line,
            col: edge.col,
            rule: RULE,
            what: format!(
                "`{}` reaches `{}` through {} call(s)",
                def.name,
                primitive,
                chain.len() - 2
            ),
            chain,
        });
    }
}

// ---------------------------------------------------------------- d7 --

const HANDLERS: [&str; 4] = ["on_start", "on_message", "on_tick", "on_invoke"];

fn protocol_impl_fn(def: &FnDef) -> Option<&str> {
    let owner = def.owner.as_ref()?;
    if owner.trait_name.as_deref() == Some("Protocol")
        && !owner.self_ty.is_empty()
        && owner.self_ty != "Self"
    {
        Some(&owner.self_ty)
    } else {
        None
    }
}

/// What a call contributes to a handler's effect set / a footprint's
/// capability set. `Ctx::host` counts as a send: it queues every message
/// of the hosted step on the host's context.
fn send_effect(call: &CallSite) -> bool {
    call.method
        && matches!(
            call.path.last().map(String::as_str),
            Some("send" | "broadcast" | "broadcast_others" | "host")
        )
}

fn output_effect(call: &CallSite) -> bool {
    call.method && call.path.last().map(String::as_str) == Some("output")
}

/// d7: every Protocol handler's syntactic effects must be covered by
/// the union of capabilities its `footprint` fn can declare.
///
/// Effects are collected over-approximately from the handler body and
/// its same-file callees (closure bodies are scanned inline by the
/// parser, and a `ctx.host(…)` call in a `with_real`-style hosting
/// helper counts as a send, so hosted sends are covered). Declared
/// capabilities are the union of builder mentions across every arm of
/// the impl's `footprint` fn — so a finding means *no arm at all* can
/// grant the effect, which the runtime would punish with a panic on
/// the first affected step. No `footprint` override means the opaque
/// default: sound, silent.
///
/// Separately, any `Footprint::opaque(…)` in a scoped impl must carry a
/// written allow: opaque footprints forfeit DPOR commutativity for
/// every step of that protocol.
fn footprint_pass(table: &SymbolTable, out: &mut Vec<PassFinding>) {
    const RULE: &str = "d7-footprint";
    for (ix, node) in table.fns.iter().enumerate() {
        let rel = table.file_of(ix).to_string();
        if !in_scope(RULE, &rel) {
            continue;
        }
        let def = table.def(ix);
        let Some(self_ty) = protocol_impl_fn(def).map(str::to_string) else {
            continue;
        };

        // Opaque sites inside footprint fns.
        if def.name == "footprint" {
            for call in &def.calls {
                if call
                    .path
                    .ends_with(&["Footprint".to_string(), "opaque".to_string()])
                {
                    out.push(PassFinding {
                        file: rel.clone(),
                        line: call.line,
                        col: call.col,
                        rule: RULE,
                        what: format!(
                            "`Footprint::opaque` in `{self_ty}::footprint` forfeits DPOR \
                             commutativity for the affected steps"
                        ),
                        chain: Vec::new(),
                    });
                }
            }
            continue;
        }

        if !HANDLERS.contains(&def.name.as_str()) || !def.has_body {
            continue;
        }

        // Effects: handler plus same-file reachable helpers.
        let mut sends_at: Option<u32> = None;
        let mut outputs_at: Option<u32> = None;
        for reach in table.same_file_closure(ix) {
            for call in &table.def(reach).calls {
                if send_effect(call) && sends_at.is_none_or(|l| reach == ix && call.line < l) {
                    sends_at = Some(call.line);
                }
                if output_effect(call) && outputs_at.is_none_or(|l| reach == ix && call.line < l) {
                    outputs_at = Some(call.line);
                }
            }
        }
        if sends_at.is_none() && outputs_at.is_none() {
            continue;
        }

        // Declared capabilities: the impl's footprint fn, if any.
        let Some(fp) = table.named("footprint").iter().copied().find(|&f| {
            table.fns[f].file == node.file
                && protocol_impl_fn(table.def(f)).map(str::to_string) == Some(self_ty.clone())
        }) else {
            continue; // default footprint is opaque: covers everything
        };
        let mut cap_send = false;
        let mut cap_output = false;
        for reach in table.same_file_closure(fp) {
            for call in &table.def(reach).calls {
                match call.path.last().map(String::as_str) {
                    Some("sends_to" | "sends_to_all" | "sends_to_others") => cap_send = true,
                    Some("outputs") => cap_output = true,
                    Some("opaque") => {
                        cap_send = true;
                        cap_output = true;
                    }
                    _ => {}
                }
            }
        }
        if let Some(line) = sends_at {
            if !cap_send {
                out.push(PassFinding {
                    file: rel.clone(),
                    line: def.line,
                    col: def.col,
                    rule: RULE,
                    what: format!(
                        "`{}::{}` sends (line {}) but no `footprint` arm declares a send \
                         capability — the runtime would panic on the first such step",
                        self_ty, def.name, line
                    ),
                    chain: Vec::new(),
                });
            }
        }
        if let Some(line) = outputs_at {
            if !cap_output {
                out.push(PassFinding {
                    file: rel.clone(),
                    line: def.line,
                    col: def.col,
                    rule: RULE,
                    what: format!(
                        "`{}::{}` emits output (line {}) but no `footprint` arm declares \
                         `outputs()`",
                        self_ty, def.name, line
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- d8 --

/// Interior-mutability types whose construction inside Machine impls
/// would let "pure" transitions smuggle state.
const INTERIOR_MUT: [&str; 6] = [
    "RefCell",
    "Cell",
    "Mutex",
    "RwLock",
    "UnsafeCell",
    "OnceCell",
];

/// d8: `Machine::transition` / `enabled_into` impls and their same-file
/// callees must be observationally pure — no `&mut self`, no `&mut`
/// state parameters, no interior-mutability construction. Successor
/// states are built by cloning; helpers that mutate the *fresh clone*
/// (never the source) are the sanctioned exception and carry allows.
fn machine_purity_pass(table: &SymbolTable, out: &mut Vec<PassFinding>) {
    const RULE: &str = "d8-machine-purity";
    let mut reported: Vec<(String, u32, String)> = Vec::new();
    for (ix, _) in table.fns.iter().enumerate() {
        let rel = table.file_of(ix).to_string();
        if !in_scope(RULE, &rel) {
            continue;
        }
        let def = table.def(ix);
        let Some(owner) = def.owner.as_ref() else {
            continue;
        };
        if owner.trait_name.as_deref() != Some("Machine")
            || owner.self_ty.is_empty()
            || owner.self_ty == "Self"
            || !matches!(def.name.as_str(), "transition" | "enabled_into")
        {
            continue;
        }
        let entry = def.name.clone();
        for reach in table.same_file_closure(ix) {
            let rdef = table.def(reach);
            let rfile = table.file_of(reach).to_string();
            let mut push = |line: u32, col: u32, what: String| {
                let key = (rfile.clone(), line, what.clone());
                if !reported.contains(&key) {
                    reported.push(key);
                    out.push(PassFinding {
                        file: rfile.clone(),
                        line,
                        col,
                        rule: RULE,
                        what,
                        chain: Vec::new(),
                    });
                }
            };
            if rdef.receiver == Receiver::RefMut {
                push(
                    rdef.line,
                    rdef.col,
                    format!(
                        "`{}` (reachable from `{}`) takes `&mut self`",
                        rdef.name, entry
                    ),
                );
            }
            for p in &rdef.params {
                if p.by_mut_ref && (p.ty.contains("State") || p.ty.contains("Node")) {
                    push(
                        rdef.line,
                        rdef.col,
                        format!(
                            "`{}` (reachable from `{}`) takes `{}: {}`",
                            rdef.name, entry, p.name, p.ty
                        ),
                    );
                }
            }
            for (path, line, col) in rdef
                .calls
                .iter()
                .map(|c| (&c.path, c.line, c.col))
                .chain(rdef.paths.iter().map(|p| (&p.path, p.line, p.col)))
            {
                if let Some(seg) = path.iter().find(|s| INTERIOR_MUT.contains(&s.as_str())) {
                    push(
                        line,
                        col,
                        format!(
                            "`{}` (reachable from `{}`) constructs interior-mutability type `{}`",
                            rdef.name, entry, seg
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- d9 --

/// d9: `#[deprecated(since = "x.y.z")]` items must not outlive their
/// deprecation cycle — once the workspace version moves past `since`,
/// the item should have been removed (the 0.7.0 shim removal is the
/// precedent). A missing or unparseable `since` fires too: without it
/// the lifecycle cannot be audited.
fn deprecation_pass(table: &SymbolTable, version: [u64; 3], out: &mut Vec<PassFinding>) {
    const RULE: &str = "d9-deprecated";
    for file in &table.files {
        if !in_scope(RULE, &file.rel) {
            continue;
        }
        for dep in &file.parsed.deprecations {
            if dep.in_test {
                continue;
            }
            let item = if dep.item.is_empty() {
                "item"
            } else {
                &dep.item
            };
            let what = match dep.since.as_deref().map(parse_version) {
                None => format!(
                    "`{item}` is `#[deprecated]` without `since` — the removal deadline \
                     cannot be audited"
                ),
                Some(None) => format!("`{item}` has an unparseable `#[deprecated(since)]` version"),
                Some(Some(since)) if since < version => format!(
                    "`{item}` deprecated since {}.{}.{} survived into {}.{}.{} — the \
                     deprecation cycle says remove it in the next minor version",
                    since[0], since[1], since[2], version[0], version[1], version[2]
                ),
                Some(Some(_)) => continue, // deprecated this cycle or later: fine
            };
            out.push(PassFinding {
                file: file.rel.clone(),
                line: dep.line,
                col: dep.col,
                rule: RULE,
                what,
                chain: Vec::new(),
            });
        }
    }
}

/// Parse `"x.y.z"` (or `"x.y"`) into a comparable triple.
pub fn parse_version(s: &str) -> Option<[u64; 3]> {
    let mut parts = s.trim().split('.');
    let maj = parts.next()?.parse().ok()?;
    let min = parts.next()?.parse().ok()?;
    let patch = match parts.next() {
        Some(p) => p.parse().ok()?,
        None => 0,
    };
    if parts.next().is_some() {
        return None;
    }
    Some([maj, min, patch])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::symbols::FileSyms;

    type Fixture<'a> = (&'a str, &'a str, &'a [(u32, &'a str)]);

    fn run_on(files: &[Fixture<'_>], version: Option<[u64; 3]>) -> Vec<PassFinding> {
        let table = SymbolTable::build(
            files
                .iter()
                .map(|(rel, src, seeds)| FileSyms {
                    rel: rel.to_string(),
                    parsed: parse(&lex(src)),
                    seed_hits: seeds.iter().map(|(l, w)| (*l, w.to_string())).collect(),
                    d6_allowed: Vec::new(),
                })
                .collect(),
        );
        run(&table, version)
    }

    #[test]
    fn taint_propagates_with_chain() {
        let src = "\
fn top() { mid(); }
fn mid() { leaf(); }
fn leaf() { let t = now_shim(); }
";
        // Pretend line 3 had an unsuppressed d2 match on `Instant`.
        let findings = run_on(
            &[("crates/consensus/src/x.rs", src, &[(3, "Instant")])],
            None,
        );
        let d6: Vec<_> = findings.iter().filter(|f| f.rule == "d6-taint").collect();
        assert_eq!(d6.len(), 2, "top→mid and mid→leaf each report: {d6:#?}");
        let top = d6
            .iter()
            .find(|f| f.what.contains("`top`"))
            .expect("top reported");
        assert_eq!(
            top.chain.len(),
            4,
            "top, mid, leaf, primitive: {:?}",
            top.chain
        );
        assert!(top.chain[0].starts_with("top ("));
        assert!(top.chain[1].starts_with("mid ("));
        assert!(top.chain[2].starts_with("leaf ("));
        assert_eq!(top.chain[3], "Instant");
    }

    #[test]
    fn boundary_files_neither_seed_nor_relay() {
        let seeds: &[(u32, &str)] = &[(1, "Instant")];
        let findings = run_on(
            &[
                ("crates/sim/src/obs.rs", "pub fn timed() {}", seeds),
                (
                    "crates/consensus/src/x.rs",
                    "pub fn caller() { timed(); }",
                    &[],
                ),
            ],
            None,
        );
        assert!(
            findings.iter().all(|f| f.rule != "d6-taint"),
            "obs.rs is a sanctioned boundary: {findings:#?}"
        );
    }

    #[test]
    fn extra_deny_reports_directly() {
        let src = "pub fn threads() -> usize { std::thread::available_parallelism().map(usize::from).unwrap_or(1) }";
        let findings = run_on(&[("crates/consensus/src/x.rs", src, &[])], None);
        assert!(findings
            .iter()
            .any(|f| f.rule == "d6-taint" && f.what.contains("available_parallelism")));
    }

    #[test]
    fn underdeclared_footprint_is_caught() {
        let src = "\
impl Protocol for Under {
    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: u32) {
        ctx.send(from, msg);
    }
    fn footprint(&self, me: ProcessId, n: usize, step: StepKind) -> Footprint {
        Footprint::local()
    }
}
";
        let findings = run_on(&[("crates/consensus/src/x.rs", src, &[])], None);
        let d7: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "d7-footprint")
            .collect();
        assert_eq!(d7.len(), 1, "{d7:#?}");
        assert!(d7[0].what.contains("send capability"));
        assert_eq!(d7[0].line, 2, "anchored at the handler");
    }

    #[test]
    fn hosted_sends_count_against_the_footprint() {
        let src = "\
impl Protocol for Host {
    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.with_inner(ctx, |inner, ictx| inner.on_tick(ictx));
    }
    fn footprint(&self, me: ProcessId, n: usize, step: StepKind) -> Footprint {
        Footprint::local()
    }
}
impl Host {
    fn with_inner(&mut self, ctx: &mut Ctx<Self>, f: impl FnOnce(&mut Inner, &mut Ctx<Inner>)) {
        let fd = *ctx.fd();
        for out in ctx.host(fd, Wrapped, |ictx| f(&mut self.inner, ictx)) {
            self.absorb(out);
        }
    }
}
";
        let findings = run_on(&[("crates/consensus/src/x.rs", src, &[])], None);
        let d7: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "d7-footprint")
            .collect();
        assert_eq!(d7.len(), 1, "{d7:#?}");
        assert!(d7[0].what.contains("send capability"));
        assert!(d7[0].what.contains("line 12"), "the `host` call: {d7:#?}");
    }

    #[test]
    fn declared_footprint_is_silent_and_opaque_flagged() {
        let src = "\
impl Protocol for Ok1 {
    fn on_tick(&mut self, ctx: &mut Ctx<Self>) { ctx.broadcast(m); ctx.output(v); }
    fn footprint(&self, me: ProcessId, n: usize, step: StepKind) -> Footprint {
        match step {
            StepKind::Tick => Footprint::sends_to_all(n).outputs(),
            _ => Footprint::local(),
        }
    }
}
impl Protocol for Lazy {
    fn on_tick(&mut self, ctx: &mut Ctx<Self>) { ctx.broadcast(m); }
    fn footprint(&self, me: ProcessId, n: usize, step: StepKind) -> Footprint {
        Footprint::opaque(n)
    }
}
";
        let findings = run_on(&[("crates/consensus/src/x.rs", src, &[])], None);
        let d7: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "d7-footprint")
            .collect();
        assert_eq!(d7.len(), 1, "only the opaque site fires: {d7:#?}");
        assert!(d7[0].what.contains("opaque"));
        assert_eq!(d7[0].line, 13);
    }

    #[test]
    fn handler_effects_found_through_local_helpers_and_closures() {
        let src = "\
impl Protocol for Hosted {
    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: u32) {
        self.with_slot(ctx, |ctx, slot| {
            ctx.send(from, reply(slot));
        });
    }
    fn footprint(&self, me: ProcessId, n: usize, step: StepKind) -> Footprint {
        Footprint::local()
    }
}
";
        let findings = run_on(&[("crates/registers/src/x.rs", src, &[])], None);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "d7-footprint" && f.what.contains("send capability")),
            "closure-hosted send must be seen: {findings:#?}"
        );
    }

    #[test]
    fn machine_purity_flags_mut_entry_points_and_helpers() {
        let src = "\
impl Machine for Bad {
    fn transition(&mut self, state: &State, action: &Act) -> StepResult<State> {
        scribble(state);
        StepResult::Disabled
    }
}
fn scribble(dst: &mut State) {}
";
        let findings = run_on(&[("crates/sim/src/machine.rs", src, &[])], None);
        let d8: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "d8-machine-purity")
            .collect();
        assert!(
            d8.iter()
                .any(|f| f.what.contains("takes `&mut self`") && f.line == 2),
            "{d8:#?}"
        );
        assert!(
            d8.iter()
                .any(|f| f.what.contains("scribble") && f.line == 7),
            "{d8:#?}"
        );
    }

    #[test]
    fn machine_purity_flags_interior_mutability() {
        let src = "\
impl Machine for Sneaky {
    fn enabled_into(&self, state: &State, out: &mut Vec<Act>) {
        let cache = RefCell::new(Vec::new());
        out.clear();
    }
}
";
        let findings = run_on(&[("crates/sim/src/machine.rs", src, &[])], None);
        assert!(
            findings.iter().any(|f| f.rule == "d8-machine-purity"
                && f.what.contains("RefCell")
                && f.line == 3),
            "{findings:#?}"
        );
    }

    #[test]
    fn enabled_into_out_param_is_not_a_violation() {
        let src = "\
impl Machine for Fine {
    fn enabled_into(&self, state: &State, out: &mut Vec<Act>) { out.clear(); }
    fn transition(&self, state: &State, action: &Act) -> StepResult<State> {
        StepResult::Disabled
    }
}
";
        let findings = run_on(&[("crates/sim/src/machine.rs", src, &[])], None);
        assert!(
            findings.iter().all(|f| f.rule != "d8-machine-purity"),
            "{findings:#?}"
        );
    }

    #[test]
    fn deprecated_lifecycle_comparisons() {
        let src = "\
#[deprecated(since = \"0.6.0\", note = \"old\")]
pub fn stale_item() {}
#[deprecated(since = \"0.7.0\", note = \"new this cycle\")]
pub fn fresh_item() {}
#[deprecated]
pub fn unstamped() {}
";
        let findings = run_on(&[("crates/sim/src/x.rs", src, &[])], Some([0, 7, 0]));
        let d9: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "d9-deprecated")
            .collect();
        assert_eq!(d9.len(), 2, "{d9:#?}");
        assert!(d9
            .iter()
            .any(|f| f.what.contains("stale_item") && f.what.contains("survived")));
        assert!(d9
            .iter()
            .any(|f| f.what.contains("unstamped") && f.what.contains("without `since`")));
        // No version → pass disabled entirely.
        assert!(run_on(&[("crates/sim/src/x.rs", src, &[])], None).is_empty());
    }

    #[test]
    fn version_parsing() {
        assert_eq!(parse_version("0.7.0"), Some([0, 7, 0]));
        assert_eq!(parse_version("1.2"), Some([1, 2, 0]));
        assert_eq!(parse_version("x.y.z"), None);
        assert!(parse_version("0.6.9").unwrap() < parse_version("0.7.0").unwrap());
    }
}
