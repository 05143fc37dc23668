//! The determinism rules and their token matchers.
//!
//! Every rule exists for one reason: the workspace's results — figure
//! tables, `Repro` artifacts, the model checker's byte-identical parallel
//! reports — are only sound if no code path depends on wall-clock time,
//! OS entropy, hash-map iteration order, racy atomics, or `Debug`
//! formatting stability. The runtime equivalence ladders catch
//! regressions after the fact; these rules catch them at review time.
//!
//! Scope is configured per rule: a rule applies to every library crate
//! except the crates/files its [`Rule::excluded`] list names, each with a
//! written justification (mirroring the inline-suppression rule that
//! every `allow` carries a reason). [`Rule::only`] narrows a rule to an
//! explicit file list instead (used for the hot-path `unwrap` rule).

use crate::lexer::{Tok, Token};

/// A raw rule match before suppression handling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Match {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was matched (embedded in the finding message).
    pub what: String,
}

/// A determinism rule.
pub struct Rule {
    /// Stable rule id, referenced by `allow(...)` suppressions.
    pub id: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// What to do instead (printed under each finding).
    pub help: &'static str,
    /// `(path prefix or suffix, justification)` pairs the rule skips.
    pub excluded: &'static [(&'static str, &'static str)],
    /// If set, the rule applies *only* to these path suffixes.
    pub only: Option<&'static [&'static str]>,
    /// The token matcher.
    pub matcher: fn(&[Token]) -> Vec<Match>,
}

impl Rule {
    /// Whether the rule applies to a file, given its workspace-relative
    /// path (forward slashes). Returns the justification when skipped.
    pub fn applies(&self, rel_path: &str) -> Result<(), &'static str> {
        if let Some(only) = self.only {
            if only.iter().any(|suffix| rel_path.ends_with(suffix)) {
                return Ok(());
            }
            return Err("outside the rule's file scope");
        }
        for (pat, reason) in self.excluded {
            if rel_path.starts_with(pat) || rel_path.ends_with(pat) {
                return Err(reason);
            }
        }
        Ok(())
    }
}

/// The full rule set, in report order.
pub fn all_rules() -> &'static [Rule] {
    &RULES
}

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

static RULES: [Rule; 9] = [
    Rule {
        id: "d1-hash-collections",
        summary: "HashMap/HashSet iteration order is nondeterministic",
        help: "use BTreeMap/BTreeSet (or sort before iterating); membership-only \
               uses may carry an allow stating nothing iterates the collection",
        excluded: &[],
        only: None,
        matcher: match_hash_collections,
    },
    Rule {
        id: "d2-wall-clock",
        summary: "wall-clock time and OS entropy break replayability",
        help: "simulated runs must use the engine's Time; randomness must come \
               from SimRng seeded by the run",
        excluded: &[(
            "crates/sim/src/obs.rs",
            "observability timers write to a side table nothing on the \
             decision path reads (proven by obs_invariance.rs)",
        )],
        only: None,
        matcher: match_wall_clock,
    },
    Rule {
        id: "d3-atomics",
        summary: "atomics outside obs.rs/par.rs can leak racy state onto the decision path",
        help: "keep shared-memory concurrency in the sanctioned homes \
               (wfd_sim::obs for metrics, wfd_sim::par for the sweep's fan-out); \
               anything else needs an allow explaining why the race is benign",
        excluded: &[
            (
                "crates/sim/src/obs.rs",
                "relaxed counters are the obs layer's design; the decision \
                 path never reads them",
            ),
            (
                "crates/sim/src/par.rs",
                "the sweep's fan-out is the other sanctioned atomics home",
            ),
        ],
        only: None,
        matcher: match_atomics,
    },
    Rule {
        id: "d4-debug-format",
        summary: "format!/write! over {:?} makes program output depend on Debug stability",
        help: "derive the value with Display or structured fields; only the \
               fingerprint module may deliberately stream Debug renderings",
        excluded: &[
            (
                "crates/sim/src/fingerprint.rs",
                "the slot renderers deliberately stream Debug output into state \
                 keys; stability is guarded by the equivalence ladders against \
                 the structural reference explorer",
            ),
            (
                "crates/bench/src/fuzz.rs",
                "the fuzz harness deliberately compares replay traces via their \
                 Debug rendering and quotes artifact fields in human-facing \
                 error strings",
            ),
        ],
        only: None,
        matcher: match_debug_format,
    },
    Rule {
        id: "d5-print",
        summary: "stray stdout/stderr in library crates corrupts experiment artifacts",
        help: "return data and let binaries print; progress belongs to the obs \
               heartbeat",
        excluded: &[
            (
                "crates/bench/",
                "the experiment harness prints tables and progress by contract",
            ),
            (
                "crates/sim/src/obs.rs",
                "the rate-limited heartbeat line is the sanctioned progress channel",
            ),
        ],
        only: None,
        matcher: match_print,
    },
    Rule {
        id: "d5-unwrap",
        summary: "bare unwrap() on explorer/engine hot paths hides the invariant it relies on",
        help: "use expect(\"why this cannot fail\") so the panic message states \
               the invariant, or handle the None/Err case",
        excluded: &[],
        only: Some(&[
            "crates/sim/src/explore.rs",
            "crates/sim/src/explore_baseline.rs",
            "crates/sim/src/engine.rs",
            "crates/sim/src/machine.rs",
            "crates/sim/src/diagram.rs",
        ]),
        matcher: match_unwrap,
    },
    // d6–d9 are analysis passes (crate::passes): they need the whole
    // workspace — a call graph, Machine impls next to their helpers, the
    // workspace version — so their matchers are empty and the engine
    // invokes them after the per-file token phase. They are registered
    // here so scope config, suppression-id validation, and the report's
    // rule table treat them uniformly.
    Rule {
        id: "d6-taint",
        summary: "nondeterminism reaches this fn through its call chain",
        help: "the chain below ends at the primitive; either cut the edge, move \
               the caller behind a sanctioned boundary, or allow the seed with \
               a written reason (which un-taints every caller)",
        excluded: &[
            (
                "crates/bench/",
                "the fuzz campaign reads its size (`WFD_FUZZ_*`) from the \
                 environment by contract; nothing here feeds protocol decisions",
            ),
            (
                "crates/sim/src/obs.rs",
                "observability timers and counters live in a side table the \
                 decision path never reads (proven by obs_invariance.rs)",
            ),
            (
                "crates/sim/src/par.rs",
                "the sweep's fan-out owns threads by design; its results come \
                 back in grid order, byte-identical to a sequential sweep \
                 (crates/bench/tests/sweep_order.rs)",
            ),
            (
                "crates/sim/src/env.rs",
                "the sanctioned env-override boundary: reads happen once at \
                 startup and are recorded into the Repro artifact",
            ),
        ],
        only: None,
        matcher: match_nothing,
    },
    Rule {
        id: "d8-machine-purity",
        summary: "Machine::transition/enabled_into must be observationally pure",
        help: "transitions build successors by cloning; helpers may mutate the \
               fresh clone (never the source state) and carry an allow saying \
               so — `&mut self`, `&mut State` sources, and interior-mutability \
               types would let replay diverge from exploration",
        excluded: &[],
        only: None,
        matcher: match_nothing,
    },
    Rule {
        id: "d9-deprecated",
        summary: "a deprecated item outlived its deprecation cycle",
        help: "items are removed in the minor version after their \
               #[deprecated(since)] stamp (the 0.7.0 replay-shim removal is \
               the precedent); delete the item or re-justify it with an allow",
        excluded: &[],
        only: None,
        matcher: match_nothing,
    },
];

/// Matcher for analysis-pass rules: the engine runs those via
/// [`crate::passes::run`] after the token phase.
fn match_nothing(_toks: &[Token]) -> Vec<Match> {
    Vec::new()
}

fn ident(t: &Token) -> Option<&str> {
    match &t.kind {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == Tok::Punct(c)
}

fn m(t: &Token, what: &str) -> Match {
    Match {
        line: t.line,
        col: t.col,
        what: what.to_string(),
    }
}

fn match_hash_collections(toks: &[Token]) -> Vec<Match> {
    toks.iter()
        .filter_map(|t| match ident(t) {
            Some(name @ ("HashMap" | "HashSet")) => Some(m(t, name)),
            _ => None,
        })
        .collect()
}

fn match_wall_clock(toks: &[Token]) -> Vec<Match> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match ident(t) {
            Some(name @ ("Instant" | "SystemTime" | "RandomState" | "from_entropy")) => {
                out.push(m(t, name));
            }
            // `thread :: sleep`
            Some("thread")
                if toks.get(i + 1).is_some_and(|a| is_punct(a, ':'))
                    && toks.get(i + 2).is_some_and(|a| is_punct(a, ':'))
                    && toks.get(i + 3).and_then(ident) == Some("sleep") =>
            {
                out.push(m(t, "thread::sleep"));
            }
            _ => {}
        }
    }
    out
}

const MEMORY_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn match_atomics(toks: &[Token]) -> Vec<Match> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match ident(t) {
            Some(name) if name.starts_with("Atomic") && name.len() > "Atomic".len() => {
                out.push(m(t, name));
            }
            // `Ordering :: Relaxed` etc. — memory-ordering variant names
            // are disjoint from cmp::Ordering's Less/Equal/Greater, so
            // sorting code never matches.
            Some("Ordering")
                if toks.get(i + 1).is_some_and(|a| is_punct(a, ':'))
                    && toks.get(i + 2).is_some_and(|a| is_punct(a, ':')) =>
            {
                if let Some(variant) = toks
                    .get(i + 3)
                    .and_then(ident)
                    .filter(|v| MEMORY_ORDERINGS.contains(v))
                {
                    out.push(m(t, &format!("Ordering::{variant}")));
                }
            }
            _ => {}
        }
    }
    out
}

/// Macros whose formatted output can feed program logic. Human-facing
/// macros (`println!`, `panic!`, `assert!`…) are deliberately not listed:
/// their output is for people, and `d5-print` polices the printing ones.
const FORMAT_MACROS: [&str; 3] = ["format", "write", "writeln"];

fn has_debug_placeholder(s: &str) -> bool {
    // `{:?}`, `{x:?}`, `{:#?}`, `{x:#?}` all end the spec with `?}`; a
    // literal `?}` outside a format spec would need `{{…}}` escaping to
    // matter, which this heuristic accepts as a false positive an allow
    // can record.
    s.contains("?}")
}

fn match_debug_format(toks: &[Token]) -> Vec<Match> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let head = match ident(&toks[i]) {
            Some(name) if FORMAT_MACROS.contains(&name) => name,
            _ => {
                i += 1;
                continue;
            }
        };
        if !toks.get(i + 1).is_some_and(|t| is_punct(t, '!')) {
            i += 1;
            continue;
        }
        // Scan the macro's balanced delimiters for string literals with a
        // debug placeholder.
        let mut depth = 0usize;
        let mut j = i + 2;
        while j < toks.len() {
            match &toks[j].kind {
                Tok::Punct('(' | '[' | '{') => depth += 1,
                Tok::Punct(')' | ']' | '}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Str(s) if has_debug_placeholder(s) => {
                    out.push(m(&toks[j], &format!("{head}! over a Debug placeholder")));
                }
                _ => {}
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
    out
}

fn match_print(toks: &[Token]) -> Vec<Match> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if let Some(name @ ("println" | "eprintln" | "print" | "eprint")) = ident(t) {
            if toks.get(i + 1).is_some_and(|a| is_punct(a, '!')) {
                out.push(m(t, &format!("{name}!")));
            }
        }
    }
    out
}

fn match_unwrap(toks: &[Token]) -> Vec<Match> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if is_punct(t, '.')
            && toks.get(i + 1).and_then(ident) == Some("unwrap")
            && toks.get(i + 2).is_some_and(|a| is_punct(a, '('))
            && toks.get(i + 3).is_some_and(|a| is_punct(a, ')'))
        {
            let u = &toks[i + 1];
            out.push(m(u, "unwrap()"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn code_tokens(src: &str) -> Vec<Token> {
        lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, Tok::Comment(_)))
            .collect()
    }

    #[test]
    fn hash_collections_fire_on_idents_not_strings() {
        let toks = code_tokens("let m: HashMap<u32, u32> = HashMap::new(); let s = \"HashMap\";");
        assert_eq!(match_hash_collections(&toks).len(), 2);
    }

    #[test]
    fn wall_clock_ignores_instantiate() {
        // The word "Instantiate" must not match: tokens, not substrings.
        let toks = code_tokens("/// Instantiate the policy.\nfn instantiate() {}");
        assert!(match_wall_clock(&toks).is_empty());
        let toks = code_tokens("let t = Instant::now(); thread::sleep(d);");
        assert_eq!(match_wall_clock(&toks).len(), 2);
    }

    #[test]
    fn atomics_spare_cmp_ordering() {
        let toks = code_tokens("xs.sort_by(|a, b| a.cmp(b).then(Ordering::Equal));");
        assert!(match_atomics(&toks).is_empty());
        let toks = code_tokens("halt.store(true, Ordering::Relaxed); AtomicBool::new(false);");
        assert_eq!(match_atomics(&toks).len(), 2);
    }

    #[test]
    fn debug_format_only_inside_format_macros() {
        let toks = code_tokens("let s = format!(\"{:?}\", x);");
        assert_eq!(match_debug_format(&toks).len(), 1);
        let toks = code_tokens("println!(\"{:?}\", x); panic!(\"{:?}\", x); let s = \"{:?}\";");
        assert!(match_debug_format(&toks).is_empty());
        let toks = code_tokens("write!(f, \"p={p:?}\")?;");
        assert_eq!(match_debug_format(&toks).len(), 1);
    }

    #[test]
    fn print_macros_fire() {
        let toks = code_tokens("println!(\"x\"); eprint!(\"y\"); println(not_a_macro);");
        assert_eq!(match_print(&toks).len(), 2);
    }

    #[test]
    fn unwrap_fires_but_expect_is_justified() {
        let toks = code_tokens("a.unwrap(); b.expect(\"invariant\"); c.unwrap_or(0);");
        let ms = match_unwrap(&toks);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].what, "unwrap()");
    }

    #[test]
    fn scope_only_and_excluded() {
        let unwrap = rule_by_id("d5-unwrap").expect("rule exists");
        assert!(unwrap.applies("crates/sim/src/engine.rs").is_ok());
        assert!(unwrap.applies("crates/registers/src/abd.rs").is_err());
        let d2 = rule_by_id("d2-wall-clock").expect("rule exists");
        assert!(d2.applies("crates/sim/src/obs.rs").is_err());
        assert!(d2.applies("crates/sim/src/engine.rs").is_ok());
    }
}
