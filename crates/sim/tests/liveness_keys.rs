//! Differential test of the liveness checker's incremental node keys.
//!
//! Fair-graph nodes are keyed like explorer states: every BFS frontier
//! entry carries its node's slot keys, a successor inherits them and
//! re-keys only the slots its step touched, and under symmetry the
//! representative's keys are read off the canonicalizer's memo rows. A
//! stale key cannot change a verdict by itself, since dedup is confirmed
//! structurally, but it splits one node into two and so grows the
//! graph. Over a seeded family this suite checks that
//!
//! 1. unreduced reports (verdict, states, edges, product states, lasso)
//!    equal `tests/golden/liveness_keys_unreduced.txt`, recorded with the
//!    whole-node `Debug` fingerprint the slot keys replaced;
//! 2. symmetric reports equal `tests/golden/liveness_keys_symmetric.txt`,
//!    recorded when the least composed slot key became the orbit
//!    representative (the crate's own tests check those graphs for
//!    duplicate nodes and orbit invariance), and keep the unreduced
//!    verdict.
//!
//! The family: `PingPong` (a livelock; id-free state, sender ids in the
//! inboxes), `Decider` (terminates) and `JoinQuorum` (ids inside process
//! state and messages), at n = 2 and 3, failure free or with p0 crashed
//! at t = 0, with G and D in {2, 3}.
//!
//! Regenerate both files with
//! `WFD_UPDATE_GOLDEN=1 cargo test --release -p wfd-sim --test liveness_keys`
//! only for a deliberate change: the unreduced graph must not move at
//! all, and the symmetric one moves only with the representative rule.

use std::path::Path;
use wfd_sim::liveness::fixtures::{Decider, JoinQuorum, PingPong};
use wfd_sim::{
    check_liveness, FailurePattern, LivenessConfig, LivenessReport, Ltl, NoDetector, ProcessId,
};

/// Room for `JoinQuorum`'s two rounds of joins and acks at n = 3, so no
/// family scenario is truncated.
const MAX_INBOX: usize = 12;

/// One family scenario.
struct Scenario {
    protocol: &'static str,
    n: usize,
    crash: bool,
    gap: u64,
    delay: u64,
}

impl Scenario {
    fn all() -> Vec<Scenario> {
        let mut out = Vec::new();
        for protocol in ["ping_pong", "decider", "join_quorum"] {
            for n in [2, 3] {
                for crash in [false, true] {
                    for gap in [2, 3] {
                        for delay in [2, 3] {
                            out.push(Scenario {
                                protocol,
                                n,
                                crash,
                                gap,
                                delay,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    fn label(&self) -> String {
        format!(
            "{} n={} crash={} G={} D={}",
            self.protocol, self.n, self.crash, self.gap, self.delay
        )
    }

    fn check(&self, symmetry: bool) -> LivenessReport {
        let n = self.n;
        let mut pattern = FailurePattern::failure_free(n);
        if self.crash {
            pattern = pattern.with_crash(ProcessId(0), 0);
        }
        let cfg = LivenessConfig::new(self.gap, self.delay, 0)
            .with_max_inbox(MAX_INBOX)
            .with_symmetry(symmetry);
        let report = match self.protocol {
            "ping_pong" => check_liveness(
                cfg,
                || PingPong::fleet(n),
                vec![None; n],
                &pattern,
                NoDetector,
                &Ltl::prop("decided").eventually(),
            ),
            "decider" => check_liveness(
                cfg,
                || Decider::fleet(n),
                vec![None; n],
                &pattern,
                NoDetector,
                &Ltl::prop("all-decided").eventually(),
            ),
            _ => check_liveness(
                cfg,
                || JoinQuorum::fleet(n),
                vec![None; n],
                &pattern,
                NoDetector,
                &Ltl::prop("formed").eventually(),
            ),
        };
        report.unwrap_or_else(|e| panic!("{}: {e}", self.label()))
    }
}

/// One golden line: everything the graph's size and shape decide.
fn line(scenario: &Scenario, r: &LivenessReport) -> String {
    format!(
        "{}: {} states={} edges={} product={} truncated={} lasso={:?}",
        scenario.label(),
        r.verdict.as_str(),
        r.states,
        r.edges,
        r.product_states,
        r.truncated,
        r.lasso.as_ref().map(|l| (&l.stem, &l.cycle)),
    )
}

/// Compare `body` with the golden file `name`, or rewrite the file when
/// `WFD_UPDATE_GOLDEN` is set.
fn golden(name: &str, body: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("WFD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, body).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (regenerate with WFD_UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    for (got, want) in body.lines().zip(expected.lines()) {
        assert_eq!(got, want, "{name} drifted");
    }
    assert_eq!(
        body.lines().count(),
        expected.lines().count(),
        "{name}: scenario count drifted"
    );
}

/// Reports of every scenario, and the golden body of them.
fn family_body(symmetry: bool) -> (String, Vec<LivenessReport>) {
    let mut body = String::new();
    let mut reports = Vec::new();
    for scenario in Scenario::all() {
        let one = scenario.check(symmetry);
        assert!(!one.truncated, "{}: truncated", scenario.label());
        body.push_str(&line(&scenario, &one));
        body.push('\n');
        reports.push(one);
    }
    (body, reports)
}

#[test]
fn unreduced_graphs_match_the_whole_node_fingerprint_golden() {
    let (body, reports) = family_body(false);
    golden("liveness_keys_unreduced.txt", &body);
    // The family must mix verdicts, or a graph-shape change could hide
    // behind a constant one.
    let verdicts: Vec<&str> = reports.iter().map(|r| r.verdict.as_str()).collect();
    assert!(verdicts.contains(&"holds") && verdicts.contains(&"violated"));
}

#[test]
fn symmetric_graphs_match_their_golden_and_keep_the_verdict() {
    let (body, reports) = family_body(true);
    golden("liveness_keys_symmetric.txt", &body);
    for (scenario, sym) in Scenario::all().iter().zip(&reports) {
        let plain = scenario.check(false);
        assert_eq!(
            sym.verdict,
            plain.verdict,
            "{}: symmetry changed the verdict",
            scenario.label()
        );
    }
}
