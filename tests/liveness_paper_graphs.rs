//! Golden fair graphs of the benchmark's `paper_liveness` workload.
//!
//! The seven `check_liveness` setups are the workload's cases at seed 1,
//! full size, with G = D = 3 and a node budget far above every model:
//!
//! * `omega_stabilize_ff`: `HeartbeatOmega`, n = 3, failure free,
//!   `F G "leader-agreed"`;
//! * `omega_stabilize_leader_crashed`: the same at n = 4 with p0 crashed
//!   at t = 0;
//! * `fs_accuracy_symmetric`: `TimeoutFs`, n = 4, failure free,
//!   `G !"some-correct-red"`, under symmetry;
//! * `fs_completeness_crash`: `TimeoutFs`, n = 3, p2 crashed at t = 0,
//!   `F "all-correct-red"`;
//! * `consensus_termination_majority_crash`: (Ω, Σ) consensus, n = 5,
//!   p1–p3 crashed at t = 0, seeded proposals and oracles,
//!   `F "all-decided"`;
//! * `planted_livelock`: `PingPong`, n = 4, `F "decided"` (violated, with
//!   its lasso);
//! * `livelock_never_decides`: the same model, `G !"decided"`.
//!
//! Each golden line holds the report's verdict, graph states and edges,
//! product states, Büchi states, truncation flag and lasso, so any change
//! to the fair graph's numbering, edges or valuations, or to the lasso the
//! nested DFS returns, shows up here. A change that only makes the checker
//! faster or smaller must leave the file byte-identical.
//!
//! Debug builds re-key every node from scratch (the liveness key check),
//! which makes one pass take tens of seconds, so the test runs in release
//! only. Regenerate with
//! `WFD_UPDATE_GOLDEN=1 cargo test --release --test liveness_paper_graphs`
//! only for a deliberate change to the fair graph.

use std::path::Path;
use weakest_failure_detectors::consensus::OmegaSigmaConsensus;
use weakest_failure_detectors::detectors::impls::{HeartbeatOmega, TimeoutFs};
use weakest_failure_detectors::detectors::oracles::{OmegaOracle, PairOracle, SigmaOracle};
use weakest_failure_detectors::sim::liveness::fixtures::PingPong;
use weakest_failure_detectors::sim::{
    check_liveness, FailurePattern, LivenessConfig, LivenessReport, Ltl, NoDetector, ProcessId,
    SimRng,
};

const SEED: u64 = 1;

/// The fairness bounds `G = D` of every case.
const FAIR: u64 = 3;

/// Heartbeat and FS timeouts above the worst-case staleness between two
/// beats under G and D.
const TIMEOUT: u64 = 4 * FAIR + 2;

fn cfg() -> LivenessConfig {
    LivenessConfig::new(FAIR, FAIR, 0).with_max_states(1_000_000)
}

/// `count` distinct three-digit values in increasing order, drawn as the
/// workload draws its consensus proposals.
fn increasing(rng: &mut SimRng, count: usize) -> Vec<u64> {
    let mut v = 100 + rng.gen_range(100);
    (0..count)
        .map(|_| {
            v += 1 + rng.gen_range(100);
            v
        })
        .collect()
}

/// One golden line: everything the fair graph and the search decide.
fn line(name: &str, report: Result<LivenessReport, String>) -> String {
    let r = report.unwrap_or_else(|e| panic!("{name}: {e}"));
    format!(
        "{name}: {} states={} edges={} product={} buchi={} truncated={} lasso={:?}\n",
        r.verdict.as_str(),
        r.states,
        r.edges,
        r.product_states,
        r.buchi_states,
        r.truncated,
        r.lasso.as_ref().map(|l| (&l.stem, &l.cycle)),
    )
}

fn omega(name: &str, pattern: FailurePattern) -> String {
    let n = pattern.n();
    line(
        name,
        check_liveness(
            cfg(),
            || (0..n).map(|_| HeartbeatOmega::new(n, TIMEOUT)).collect(),
            vec![None; n],
            &pattern,
            NoDetector,
            &Ltl::prop("leader-agreed").always().eventually(),
        ),
    )
}

fn fs(name: &str, pattern: FailurePattern, goal: Ltl, symmetry: bool) -> String {
    let n = pattern.n();
    line(
        name,
        check_liveness(
            cfg().with_symmetry(symmetry),
            || (0..n).map(|_| TimeoutFs::new(n, TIMEOUT)).collect(),
            vec![None; n],
            &pattern,
            NoDetector,
            &goal,
        ),
    )
}

fn ping_pong(name: &str, goal: Ltl) -> String {
    let n = 4;
    line(
        name,
        check_liveness(
            cfg(),
            || PingPong::fleet(n),
            vec![None; n],
            &FailurePattern::failure_free(n),
            NoDetector,
            &goal,
        ),
    )
}

fn consensus_termination() -> String {
    let proposals = increasing(&mut SimRng::new(SEED), 5);
    let n = proposals.len();
    let pattern = (1..=n / 2 + 1).fold(FailurePattern::failure_free(n), |f, p| {
        f.with_crash(ProcessId(p), 0)
    });
    line(
        "consensus_termination_majority_crash",
        check_liveness(
            cfg(),
            || (0..n).map(|_| OmegaSigmaConsensus::<u64>::new()).collect(),
            proposals.into_iter().map(Some).collect(),
            &pattern,
            PairOracle::new(
                OmegaOracle::new(&pattern, 0, SEED),
                SigmaOracle::new(&pattern, 0, SEED),
            ),
            &Ltl::prop("all-decided").eventually(),
        ),
    )
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds re-key every fair-graph node from scratch, so one pass takes tens of seconds; run with --release"
)]
fn paper_liveness_graphs_match_the_golden_file() {
    let ff = FailurePattern::failure_free;
    let body = [
        omega("omega_stabilize_ff", ff(3)),
        omega(
            "omega_stabilize_leader_crashed",
            ff(4).with_crash(ProcessId(0), 0),
        ),
        fs(
            "fs_accuracy_symmetric",
            ff(4),
            Ltl::prop("some-correct-red").not().always(),
            true,
        ),
        fs(
            "fs_completeness_crash",
            ff(3).with_crash(ProcessId(2), 0),
            Ltl::prop("all-correct-red").eventually(),
            false,
        ),
        consensus_termination(),
        ping_pong("planted_livelock", Ltl::prop("decided").eventually()),
        ping_pong(
            "livelock_never_decides",
            Ltl::prop("decided").not().always(),
        ),
    ]
    .concat();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/liveness_paper_graphs.txt");
    if std::env::var_os("WFD_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &body).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (regenerate with WFD_UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(body, expected, "the paper_liveness fair graphs drifted");
}
