//! The lint driver: walk the workspace, run every rule in scope, apply
//! suppressions, and collect findings plus stale/malformed suppressions.
//!
//! Linting runs in two phases. Phase one is per-file: lex, run the
//! d1–d5 token matchers, apply inline allows, and parse the file into
//! the item/fn skeleton the analysis passes need. Phase two is
//! workspace-wide: build the [`crate::symbols::SymbolTable`] call graph
//! over every parsed file and run the d6–d9 passes
//! ([`crate::passes::run`]); their findings flow through the *same*
//! allow tables, so phase-two suppressions keep phase-one stale
//! detection honest and vice versa.
//!
//! Scope decisions live in three places, from coarse to fine:
//! 1. the **walker** only visits library sources (`src/**` minus
//!    `main.rs`/`src/bin/`) — binaries and integration tests may print,
//!    time, and unwrap freely;
//! 2. each rule's **scope config** ([`crate::rules::Rule::excluded`] /
//!    `only`) names whole files with a written justification;
//! 3. `#[cfg(test)]` regions inside a file are exempt from every rule —
//!    tests assert on the deterministic core, they are not part of it.

use crate::lexer::{lex, Tok, Token};
use crate::rules::{all_rules, rule_by_id, Rule};
use crate::symbols::{FileSyms, SymbolTable};
use crate::{parser, passes, suppress};
use std::fs;
use std::path::{Path, PathBuf};

/// One unsuppressed rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id.
    pub rule: &'static str,
    /// `summary: matched-thing` message.
    pub message: String,
    /// The rule's fix guidance.
    pub help: &'static str,
    /// The trimmed source line, for humans and the JSON report.
    pub excerpt: String,
    /// For `d6-taint`: the call chain from the reported fn down to the
    /// nondeterminism primitive, one `name (file:line)` hop per entry.
    /// Empty for every other rule.
    pub chain: Vec<String>,
}

/// A finding that an inline `allow` silenced (kept for the audit trail).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuppressedFinding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the silenced finding.
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// The justification the `allow` carried.
    pub reason: String,
}

/// An `allow` that no longer silences anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaleSuppression {
    /// Workspace-relative path.
    pub file: String,
    /// Line of the stale comment.
    pub line: u32,
    /// Rule id it named.
    pub rule: String,
    /// The justification it carried (reported to ease deletion review).
    pub reason: String,
}

/// A malformed suppression, annotated with its file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HardError {
    /// Workspace-relative path.
    pub file: String,
    /// Line of the broken comment (0 for file-level I/O errors).
    pub line: u32,
    /// What is wrong and how to fix it.
    pub message: String,
}

/// The outcome of linting one file or a whole workspace.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Files scanned.
    pub files_scanned: usize,
    /// Unsuppressed findings, in (file, line, col, rule) order.
    pub findings: Vec<Finding>,
    /// Findings an `allow` silenced.
    pub suppressed: Vec<SuppressedFinding>,
    /// Allows that silenced nothing.
    pub stale: Vec<StaleSuppression>,
    /// Malformed suppressions and I/O failures.
    pub errors: Vec<HardError>,
}

impl Outcome {
    /// Whether the workspace passes the determinism audit.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale.is_empty() && self.errors.is_empty()
    }

    /// The process exit code CI keys on: 0 clean, 1 findings or stale
    /// suppressions, 2 hard errors.
    pub fn exit_code(&self) -> u8 {
        if !self.errors.is_empty() {
            2
        } else if !self.findings.is_empty() || !self.stale.is_empty() {
            1
        } else {
            0
        }
    }
}

/// Lint a single source text as if it lived at `rel_path`.
///
/// This is the fixture-test entry point; it runs the full pipeline —
/// token rules *and* the d6–d8 analysis passes — over the one file.
/// The d9 deprecation-lifecycle pass needs a workspace version and
/// stays off here; use [`lint_sources`] with a version to exercise it.
pub fn lint_source(rel_path: &str, src: &str) -> Outcome {
    lint_sources(&[(rel_path.to_string(), src.to_string())], None)
}

/// The token rules whose unsuppressed matches seed `d6-taint`. d4/d5
/// police *output stability* (Debug formatting, stray printing); they
/// are deliberately not data-nondeterminism seeds.
const SEED_RULES: [&str; 3] = ["d1-hash-collections", "d2-wall-clock", "d3-atomics"];

/// Per-file state phase two needs after the token phase ran.
struct FileCtx {
    rel: String,
    lines: Vec<String>,
    allows: Vec<suppress::Suppression>,
    allow_used: Vec<bool>,
    exempt: Vec<(u32, u32)>,
}

/// Lint a set of `(rel_path, source)` files as one workspace.
///
/// This is the real core: phase one runs the d1–d5 token rules per
/// file and parses each file; phase two builds the cross-file symbol
/// table and runs the d6–d9 analysis passes, whose findings go through
/// the same per-file allow tables (so an `allow(d8-machine-purity, …)`
/// suppresses and goes stale exactly like an `allow(d1-…, …)`).
/// `workspace_version` enables d9; pass `None` to disable it.
pub fn lint_sources(inputs: &[(String, String)], workspace_version: Option<[u64; 3]>) -> Outcome {
    let mut out = Outcome {
        files_scanned: inputs.len(),
        ..Outcome::default()
    };
    let mut ctxs: Vec<FileCtx> = Vec::new();
    let mut syms: Vec<FileSyms> = Vec::new();

    for (rel, src) in inputs {
        let tokens = lex(src);
        let code: Vec<Token> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, Tok::Comment(_)))
            .cloned()
            .collect();
        let exempt = test_regions(&code);
        let in_tests = |line: u32| exempt.iter().any(|&(lo, hi)| (lo..=hi).contains(&line));

        let (mut allows, malformed) = suppress::collect(&tokens);
        allows.retain(|s| !in_tests(s.line));
        let mut allow_used = vec![false; allows.len()];
        for e in malformed {
            out.errors.push(HardError {
                file: rel.clone(),
                line: e.line,
                message: e.message,
            });
        }

        let lines: Vec<String> = src.lines().map(|l| l.trim().to_string()).collect();
        let mut seed_hits: Vec<(u32, String)> = Vec::new();
        for rule in applicable_rules(rel) {
            for matched in (rule.matcher)(&code) {
                if in_tests(matched.line) {
                    continue;
                }
                let allow = allows
                    .iter()
                    .position(|s| s.rule == rule.id && s.target_line == matched.line);
                match allow {
                    Some(idx) => {
                        allow_used[idx] = true;
                        out.suppressed.push(SuppressedFinding {
                            file: rel.clone(),
                            line: matched.line,
                            rule: rule.id,
                            reason: allows[idx].reason.clone(),
                        });
                    }
                    None => {
                        if SEED_RULES.contains(&rule.id) {
                            seed_hits.push((matched.line, matched.what.clone()));
                        }
                        out.findings.push(Finding {
                            file: rel.clone(),
                            line: matched.line,
                            col: matched.col,
                            rule: rule.id,
                            message: format!("{}: {}", rule.summary, matched.what),
                            help: rule.help,
                            excerpt: lines
                                .get(matched.line.saturating_sub(1) as usize)
                                .cloned()
                                .unwrap_or_default(),
                            chain: Vec::new(),
                        });
                    }
                }
            }
        }

        syms.push(FileSyms {
            rel: rel.clone(),
            parsed: parser::parse(&tokens),
            seed_hits,
            d6_allowed: allows
                .iter()
                .filter(|s| s.rule == "d6-taint")
                .map(|s| s.target_line)
                .collect(),
        });
        ctxs.push(FileCtx {
            rel: rel.clone(),
            lines,
            allows,
            allow_used,
            exempt,
        });
    }

    // Phase two: workspace-wide analysis over the call graph.
    let table = SymbolTable::build(syms);
    for pf in passes::run(&table, workspace_version) {
        let Some(ctx) = ctxs.iter_mut().find(|c| c.rel == pf.file) else {
            continue;
        };
        // Passes skip `#[cfg(test)]` fns themselves; this guards the
        // remaining anchors (call sites inside test helpers etc.).
        if ctx
            .exempt
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&pf.line))
        {
            continue;
        }
        let allow = ctx
            .allows
            .iter()
            .position(|s| s.rule == pf.rule && s.target_line == pf.line);
        match allow {
            Some(idx) => {
                ctx.allow_used[idx] = true;
                out.suppressed.push(SuppressedFinding {
                    file: pf.file,
                    line: pf.line,
                    rule: pf.rule,
                    reason: ctx.allows[idx].reason.clone(),
                });
            }
            None => {
                let rule = rule_by_id(pf.rule).expect("pass rules are registered in RULES");
                out.findings.push(Finding {
                    file: pf.file,
                    line: pf.line,
                    col: pf.col,
                    rule: pf.rule,
                    message: format!("{}: {}", rule.summary, pf.what),
                    help: rule.help,
                    excerpt: ctx
                        .lines
                        .get(pf.line.saturating_sub(1) as usize)
                        .cloned()
                        .unwrap_or_default(),
                    chain: pf.chain,
                });
            }
        }
    }

    for ctx in &ctxs {
        for (idx, used) in ctx.allow_used.iter().enumerate() {
            if !used {
                let s = &ctx.allows[idx];
                out.stale.push(StaleSuppression {
                    file: ctx.rel.clone(),
                    line: s.line,
                    rule: s.rule.clone(),
                    reason: s.reason.clone(),
                });
            }
        }
    }

    out.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    out.stale
        .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out
}

/// The rules that apply to a file, per the per-rule scope config.
fn applicable_rules(rel_path: &str) -> Vec<&'static Rule> {
    all_rules()
        .iter()
        .filter(|r| r.applies(rel_path).is_ok())
        .collect()
}

/// Suppressions referencing rules a file is out of scope for would never
/// match; callers that want to pre-validate can ask which rules run.
pub fn rules_in_scope(rel_path: &str) -> Vec<&'static str> {
    applicable_rules(rel_path).iter().map(|r| r.id).collect()
}

/// Compute `(start_line, end_line)` spans of `#[cfg(test)]` items.
fn test_regions(code: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !is_cfg_test_attr(code, i) {
            i += 1;
            continue;
        }
        let mut j = i + 7; // past `# [ cfg ( test ) ]`
                           // Skip any further attributes on the same item.
        while j + 1 < code.len()
            && code[j].kind == Tok::Punct('#')
            && code[j + 1].kind == Tok::Punct('[')
        {
            let mut depth = 0usize;
            while j < code.len() {
                match code[j].kind {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Find the item's body: the first `{` before a top-level `;`
        // (a `#[cfg(test)] use …;` or `mod tests;` has no body here).
        let mut depth = 0usize;
        let mut open = None;
        while j < code.len() {
            match code[j].kind {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth = depth.saturating_sub(1),
                Tok::Punct(';') if depth == 0 => break,
                Tok::Punct('{') if depth == 0 => {
                    open = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = open {
            let start = code[i].line;
            let mut depth = 0usize;
            let mut k = open;
            let mut end = code[open].line;
            while k < code.len() {
                match code[k].kind {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            end = code[k].line;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            if depth != 0 {
                // Unterminated (mid-edit file): exempt through EOF.
                end = code.last().map(|t| t.line).unwrap_or(start);
            }
            regions.push((start, end));
            i = k.max(i) + 1;
        } else {
            i = j + 1;
        }
    }
    regions
}

fn is_cfg_test_attr(code: &[Token], i: usize) -> bool {
    code.len() > i + 6
        && code[i].kind == Tok::Punct('#')
        && code[i + 1].kind == Tok::Punct('[')
        && code[i + 2].kind == Tok::Ident("cfg".to_string())
        && code[i + 3].kind == Tok::Punct('(')
        && code[i + 4].kind == Tok::Ident("test".to_string())
        && code[i + 5].kind == Tok::Punct(')')
        && code[i + 6].kind == Tok::Punct(']')
}

/// Find the workspace root by walking up from `start` until a
/// `Cargo.toml` containing a `[workspace]` table appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The library sources the audit covers, workspace-relative and sorted.
///
/// Binaries (`src/main.rs`, `src/bin/**`), integration tests, benches,
/// examples and fixtures are out: the invariant protects the crates that
/// *produce* results, and a deterministic core makes printing/timing at
/// the edges harmless.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut src_dirs = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            let src = entry.join("src");
            if src.is_dir() {
                src_dirs.push(src);
            }
        }
    }
    for src in src_dirs {
        collect_rs(&src, &src, &mut files, root)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(
    dir: &Path,
    src_root: &Path,
    files: &mut Vec<String>,
    root: &Path,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") && path.parent() == Some(src_root) {
                continue;
            }
            collect_rs(&path, src_root, files, root)?;
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        if path.file_name().is_some_and(|n| n == "main.rs") && path.parent() == Some(src_root) {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(rel);
    }
    Ok(())
}

/// Read `version = "x.y.z"` from the `[workspace.package]` table of the
/// root `Cargo.toml`; feeds the d9 deprecation-lifecycle pass.
pub fn workspace_version(root: &Path) -> Option<[u64; 3]> {
    let text = fs::read_to_string(root.join("Cargo.toml")).ok()?;
    let mut in_pkg = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_pkg = line == "[workspace.package]";
        } else if in_pkg {
            if let Some(rest) = line.strip_prefix("version") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    return passes::parse_version(value.trim().trim_matches('"'));
                }
            }
        }
    }
    None
}

/// Lint every library source under `root` as one workspace.
pub fn run_workspace(root: &Path) -> std::io::Result<Outcome> {
    let mut read_errors = Vec::new();
    let mut inputs: Vec<(String, String)> = Vec::new();
    for rel in workspace_files(root)? {
        match fs::read_to_string(root.join(&rel)) {
            Ok(src) => inputs.push((rel, src)),
            Err(e) => read_errors.push(HardError {
                file: rel,
                line: 0,
                message: format!("could not read file: {e}"),
            }),
        }
    }
    let mut out = lint_sources(&inputs, workspace_version(root));
    out.errors.extend(read_errors);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_suppressions_and_stale_interact() {
        let src = "\
use std::collections::HashMap; // wfd-lint: allow(d1-hash-collections, demo use line)
// wfd-lint: allow(d1-hash-collections, next-line form)
fn f(m: &HashMap<u32, u32>) {}
fn g(m: &HashMap<u32, u32>) {}
// wfd-lint: allow(d1-hash-collections, nothing below matches)
fn clean() {}
";
        let out = lint_source("crates/registers/src/x.rs", src);
        assert_eq!(out.suppressed.len(), 2);
        assert_eq!(out.findings.len(), 1, "line 4 is unsuppressed");
        assert_eq!(out.findings[0].line, 4);
        assert_eq!(out.stale.len(), 1);
        assert_eq!(out.stale[0].line, 5);
        assert_eq!(out.exit_code(), 1);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
pub fn lib_code() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {
        let mut m = HashMap::new();
        m.insert(1, 2);
        println!(\"{m:?}\");
    }
}
";
        let out = lint_source("crates/registers/src/x.rs", src);
        assert!(out.is_clean(), "findings: {:#?}", out.findings);
    }

    #[test]
    fn cfg_test_use_without_body_exempts_nothing() {
        let src = "\
#[cfg(test)]
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) {}
";
        let out = lint_source("crates/registers/src/x.rs", src);
        // The `use` line itself has no body to exempt; both HashMap
        // tokens fire.
        assert_eq!(out.findings.len(), 2);
    }

    #[test]
    fn malformed_suppression_is_exit_2() {
        let src = "// wfd-lint: allow(d1-hash-collections)\nfn f() {}\n";
        let out = lint_source("crates/registers/src/x.rs", src);
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.exit_code(), 2);
    }

    #[test]
    fn scope_config_reports_no_findings_for_excluded_files() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        let obs = lint_source("crates/sim/src/obs.rs", src);
        assert!(obs.is_clean());
        let sim = lint_source("crates/sim/src/engine.rs", src);
        assert_eq!(sim.findings.len(), 2);
    }

    #[test]
    fn exit_codes_ladder() {
        let clean = lint_source("crates/registers/src/x.rs", "fn f() {}\n");
        assert_eq!(clean.exit_code(), 0);
        assert!(clean.is_clean());
    }
}
