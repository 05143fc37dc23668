//! The workspace analysis passes: d6 (determinism taint), d8 (Machine
//! purity), d9 (deprecation lifecycle).
//!
//! Unlike the d1–d5 token rules, these need the whole workspace at once:
//! a call graph to propagate taint through, every `Machine` impl next to
//! its same-file helpers, and the workspace version to compare
//! `#[deprecated(since)]` stamps against. The engine builds a
//! [`SymbolTable`] and hands it here; findings flow back through the
//! same suppression/stale machinery as token-rule matches, so an inline
//! `// wfd-lint: allow(d8-machine-purity, reason)` works exactly like it
//! does for d1.
//!
//! Every pass *over-approximates*: name-resolved call edges may be too
//! many, never too few (see [`crate::symbols`]), and same-file helpers
//! are followed without control-flow pruning. The consequence is the useful one for an audit — a pass staying
//! silent is evidence, a pass firing may need a written allow.

use crate::parser::Receiver;
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
