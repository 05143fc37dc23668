//! Workspace-wide symbol table and call-graph approximation.
//!
//! Built once per lint run from every parsed file, this is the shared
//! substrate of the analysis passes (d6–d9): a flat list of all
//! non-test fns, a name index, and a resolved call graph with forward
//! and reverse edges.
//!
//! Resolution is *name-based over-approximation* — the honest best a
//! parser-level tool can do without type inference, and the right
//! direction for a determinism audit: an edge too many can only make
//! taint propagation stricter, never let a violation slip. The
//! heuristics, in order of specificity:
//!
//! * `self.name(…)` — methods named `name` on the caller's own impl
//!   type, when any exist; otherwise any method named `name`.
//! * `recv.name(…)` — any method (fn with a receiver) named `name`.
//! * `Type::name(…)` / `Trait::name(…)` — fns named `name` whose owner
//!   matches the qualifier (`Self` resolves to the caller's impl type);
//!   a lowercase qualifier is treated as a module path and matched
//!   against free fns.
//! * `name(…)` — free fns named `name`, preferring same-file
//!   definitions (nested fns, file-local helpers) when they exist.
//!
//! Calls that resolve to nothing (std and external APIs) get no edge;
//! the deny-set scan in the passes handles the primitives among them.

use crate::parser::{FnDef, ParsedFile, Receiver};
use std::collections::BTreeMap;

/// One file's contribution to the analysis: its identity, parse, and
/// the determinism-primitive hits (d1–d3 token-rule matches that no
/// justified allow covers) the engine collected during phase 1.
#[derive(Debug, Default)]
pub struct FileSyms {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// The parsed item/fn skeleton.
    pub parsed: ParsedFile,
    /// `(line, primitive)` pairs: unsuppressed d1–d3 matches in this
    /// file. These become d6 taint seeds when they fall inside a fn.
    pub seed_hits: Vec<(u32, String)>,
    /// Lines a `// wfd-lint: allow(d6-taint, …)` targets. A deny-set
    /// primitive on such a line still produces its (suppressed) direct
    /// finding but does not seed taint — allowing the seed un-taints
    /// every caller, exactly as the rule's help promises.
    pub d6_allowed: Vec<u32>,
}

/// Index of a fn in [`SymbolTable::fns`].
pub type FnIx = usize;

/// A resolved call edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Callee fn index.
    pub callee: FnIx,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
}

/// A fn in the flat workspace-wide list.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the `files` slice the table was built from.
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub def: usize,
}

/// The workspace symbol table plus call graph.
pub struct SymbolTable {
    /// The analyzed files, in engine walk order.
    pub files: Vec<FileSyms>,
    /// Every non-test fn with a body or signature worth analyzing.
    pub fns: Vec<FnNode>,
    /// Forward edges, indexed by caller [`FnIx`].
    pub edges: Vec<Vec<Edge>>,
    /// Reverse edges (callee → callers), for taint BFS.
    pub reverse: Vec<Vec<FnIx>>,
    by_name: BTreeMap<String, Vec<FnIx>>,
}

impl SymbolTable {
    /// Build the table and resolve the call graph.
    ///
    /// Fns inside `#[cfg(test)]` regions are left out entirely: tests
    /// may time, print, and mutate freely, and must neither seed nor
    /// relay taint.
    pub fn build(files: Vec<FileSyms>) -> SymbolTable {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (di, def) in file.parsed.fns.iter().enumerate() {
                if !def.in_test {
                    fns.push(FnNode { file: fi, def: di });
                }
            }
        }
        let mut by_name: BTreeMap<String, Vec<FnIx>> = BTreeMap::new();
        for (ix, node) in fns.iter().enumerate() {
            let def = &files[node.file].parsed.fns[node.def];
            by_name.entry(def.name.clone()).or_default().push(ix);
        }

        let mut table = SymbolTable {
            files,
            fns,
            edges: Vec::new(),
            reverse: Vec::new(),
            by_name,
        };
        table.resolve_edges();
        table
    }

    /// The [`FnDef`] behind a [`FnIx`].
    pub fn def(&self, ix: FnIx) -> &FnDef {
        let node = &self.fns[ix];
        &self.files[node.file].parsed.fns[node.def]
    }

    /// Workspace-relative path of the file defining `ix`.
    pub fn file_of(&self, ix: FnIx) -> &str {
        &self.files[self.fns[ix].file].rel
    }

    /// All non-test fns named `name`.
    pub fn named(&self, name: &str) -> &[FnIx] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The innermost fn whose source span contains `line` in file
    /// `file_idx` (nested fns win over their enclosing fn).
    pub fn enclosing_fn(&self, file_idx: usize, line: u32) -> Option<FnIx> {
        let mut best: Option<(FnIx, u32)> = None;
        for (ix, node) in self.fns.iter().enumerate() {
            if node.file != file_idx {
                continue;
            }
            let def = &self.files[node.file].parsed.fns[node.def];
            let hi = def.body_end_line.max(def.line);
            if (def.line..=hi).contains(&line) && best.is_none_or(|(_, l)| def.line >= l) {
                best = Some((ix, def.line));
            }
        }
        best.map(|(ix, _)| ix)
    }

    fn resolve_edges(&mut self) {
        let mut edges: Vec<Vec<Edge>> = Vec::with_capacity(self.fns.len());
        for node in &self.fns {
            let def = &self.files[node.file].parsed.fns[node.def];
            let caller_self_ty = def
                .owner
                .as_ref()
                .map(|o| o.self_ty.as_str())
                .filter(|t| !t.is_empty() && *t != "Self");
            let mut outs: Vec<Edge> = Vec::new();
            for call in &def.calls {
                let targets = self.resolve_call(
                    &call.path,
                    call.method,
                    call.receiver.as_deref(),
                    node.file,
                    caller_self_ty,
                );
                for callee in targets {
                    let edge = Edge {
                        callee,
                        line: call.line,
                        col: call.col,
                    };
                    if !outs.contains(&edge) {
                        outs.push(edge);
                    }
                }
            }
            edges.push(outs);
        }
        let mut reverse: Vec<Vec<FnIx>> = vec![Vec::new(); self.fns.len()];
        for (caller, outs) in edges.iter().enumerate() {
            for e in outs {
                if !reverse[e.callee].contains(&caller) {
                    reverse[e.callee].push(caller);
                }
            }
        }
        self.edges = edges;
        self.reverse = reverse;
    }

    fn resolve_call(
        &self,
        path: &[String],
        method: bool,
        receiver: Option<&str>,
        caller_file: usize,
        caller_self_ty: Option<&str>,
    ) -> Vec<FnIx> {
        let Some(name) = path.last() else {
            return Vec::new();
        };
        let candidates = self.named(name);
        if method {
            let methods: Vec<FnIx> = candidates
                .iter()
                .copied()
                .filter(|&ix| self.def(ix).receiver != Receiver::None)
                .collect();
            if receiver == Some("self") {
                if let Some(self_ty) = caller_self_ty {
                    let own: Vec<FnIx> = methods
                        .iter()
                        .copied()
                        .filter(|&ix| {
                            self.def(ix)
                                .owner
                                .as_ref()
                                .is_some_and(|o| o.self_ty == self_ty)
                        })
                        .collect();
                    if !own.is_empty() {
                        return own;
                    }
                }
            }
            return methods;
        }
        if path.len() >= 2 {
            let mut qual = path[path.len() - 2].as_str();
            if qual == "Self" {
                match caller_self_ty {
                    Some(t) => qual = t,
                    None => return Vec::new(),
                }
            }
            let owned: Vec<FnIx> = candidates
                .iter()
                .copied()
                .filter(|&ix| {
                    self.def(ix)
                        .owner
                        .as_ref()
                        .is_some_and(|o| o.self_ty == qual || o.trait_name.as_deref() == Some(qual))
                })
                .collect();
            if !owned.is_empty() {
                return owned;
            }
            // `module::free_fn(…)` — lowercase qualifier, free fns only.
            if qual.chars().next().is_some_and(|c| c.is_lowercase()) {
                return candidates
                    .iter()
                    .copied()
                    .filter(|&ix| self.def(ix).receiver == Receiver::None)
                    .collect();
            }
            return Vec::new();
        }
        // Unqualified `name(…)`: free fns, same-file first.
        let free: Vec<FnIx> = candidates
            .iter()
            .copied()
            .filter(|&ix| self.def(ix).receiver == Receiver::None)
            .collect();
        let local: Vec<FnIx> = free
            .iter()
            .copied()
            .filter(|&ix| self.fns[ix].file == caller_file)
            .collect();
        if !local.is_empty() {
            local
        } else {
            free
        }
    }

    /// Indices of all fns defined in the same file as `ix` that are
    /// reachable from `ix` through same-file edges only (including `ix`
    /// itself). This is the traversal d8 uses: cross-file calls
    /// are other subsystems' protocol surfaces, policed by their own
    /// rules.
    pub fn same_file_closure(&self, ix: FnIx) -> Vec<FnIx> {
        let file = self.fns[ix].file;
        let mut seen = vec![ix];
        let mut queue = vec![ix];
        while let Some(cur) = queue.pop() {
            for e in &self.edges[cur] {
                if self.fns[e.callee].file == file && !seen.contains(&e.callee) {
                    seen.push(e.callee);
                    queue.push(e.callee);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        SymbolTable::build(
            files
                .iter()
                .map(|(rel, src)| FileSyms {
                    rel: rel.to_string(),
                    parsed: parse(&lex(src)),
                    seed_hits: Vec::new(),
                    d6_allowed: Vec::new(),
                })
                .collect(),
        )
    }

    fn ix(t: &SymbolTable, name: &str) -> FnIx {
        *t.named(name)
            .first()
            .unwrap_or_else(|| panic!("fn {name} missing"))
    }

    #[test]
    fn free_fn_edges_resolve_cross_file() {
        let t = table(&[
            ("crates/a/src/lib.rs", "pub fn helper() {}"),
            ("crates/b/src/lib.rs", "pub fn caller() { helper(); }"),
        ]);
        let caller = ix(&t, "caller");
        let helper = ix(&t, "helper");
        assert!(t.edges[caller].iter().any(|e| e.callee == helper));
        assert!(t.reverse[helper].contains(&caller));
    }

    #[test]
    fn same_file_free_fns_win_over_distant_ones() {
        let t = table(&[
            ("crates/a/src/lib.rs", "pub fn helper() {}"),
            (
                "crates/b/src/lib.rs",
                "fn helper() {} pub fn caller() { helper(); }",
            ),
        ]);
        let caller = ix(&t, "caller");
        assert_eq!(t.edges[caller].len(), 1);
        let callee = t.edges[caller][0].callee;
        assert_eq!(t.file_of(callee), "crates/b/src/lib.rs");
    }

    #[test]
    fn self_method_calls_prefer_own_impl() {
        let t = table(&[(
            "crates/a/src/lib.rs",
            "struct A; impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             struct B; impl B { fn step(&self) {} }",
        )]);
        let go = ix(&t, "go");
        assert_eq!(t.edges[go].len(), 1);
        let callee = t.edges[go][0].callee;
        assert_eq!(
            t.def(callee).owner.as_ref().unwrap().self_ty,
            "A",
            "self.step() must bind to A::step, not B::step"
        );
    }

    #[test]
    fn qualified_calls_match_owner_or_trait() {
        let t = table(&[(
            "crates/a/src/lib.rs",
            "struct Fp; impl Fp { fn opaque(n: usize) {} }\n\
             trait Proto { fn handle(&self); }\n\
             struct P; impl Proto for P { fn handle(&self) {} }\n\
             fn f(p: &P) { Fp::opaque(3); Proto::handle(p); }",
        )]);
        let f = ix(&t, "f");
        let names: Vec<&str> = t.edges[f]
            .iter()
            .map(|e| t.def(e.callee).name.as_str())
            .collect();
        assert!(names.contains(&"opaque"));
        assert!(names.contains(&"handle"));
    }

    #[test]
    fn test_fns_are_invisible() {
        let t = table(&[(
            "crates/a/src/lib.rs",
            "#[cfg(test)] mod tests { pub fn t_only() {} }\nfn live() {}",
        )]);
        assert!(t.named("t_only").is_empty());
        assert_eq!(t.named("live").len(), 1);
    }

    #[test]
    fn enclosing_fn_prefers_innermost() {
        let t = table(&[(
            "crates/a/src/lib.rs",
            "fn outer() {\n  fn inner() {\n    body();\n  }\n}",
        )]);
        let at = t.enclosing_fn(0, 3).expect("line 3 is inside inner");
        assert_eq!(t.def(at).name, "inner");
        let at = t.enclosing_fn(0, 1).expect("line 1 is outer's fn line");
        assert_eq!(t.def(at).name, "outer");
    }

    #[test]
    fn same_file_closure_stops_at_file_boundary() {
        let t = table(&[
            (
                "crates/a/src/lib.rs",
                "fn entry() { mid(); } fn mid() { far(); other_local(); } fn other_local() {}",
            ),
            ("crates/b/src/lib.rs", "pub fn far() {}"),
        ]);
        let entry = ix(&t, "entry");
        let closure = t.same_file_closure(entry);
        let names: Vec<&str> = closure.iter().map(|&i| t.def(i).name.as_str()).collect();
        assert!(names.contains(&"entry"));
        assert!(names.contains(&"mid"));
        assert!(names.contains(&"other_local"));
        assert!(!names.contains(&"far"));
    }
}
