//! **E14 — liveness properties as executable specs**: run the LTL/Büchi
//! layer (`wfd_sim::liveness`) over the paper's protocols and over a
//! planted livelock, and assert the expected verdicts:
//!
//! * the planted livelock (a token bounced between processes forever,
//!   nobody decides) **violates** `F "decided"`, and the accepting lasso
//!   the nested DFS returns is packaged as a `wfd-repro-v1` artifact that
//!   survives a JSON round-trip, replays as a fair infinite run, and is
//!   passed through the shrinker;
//! * `HeartbeatOmega` **satisfies** Ω stabilization — `F G
//!   "leader-agreed"` — over *all* fair runs of small instances, both
//!   failure-free and with the initial leader crashed;
//! * `TimeoutFs` **satisfies** FS accuracy (`G !"some-correct-red"`
//!   failure-free) and FS completeness (`F "all-correct-red"` once
//!   someone crashes);
//! * `OmegaSigmaConsensus` **satisfies** termination — `F "all-decided"`
//!   — failure-free and with a crashed majority (the paper's headline
//!   environment).
//!
//! Exit status is non-zero if any verdict differs from the expectation,
//! if the lasso artifact fails to round-trip or replay, or if a model was
//! truncated where a complete verdict was expected. The summary table is
//! saved as `E14-liveness.json` in the experiment artifact directory (CI
//! uploads it), and the lasso artifact as `repros/repro-livelock.json`.
//!
//! `--metrics[=PATH]` turns on the [`wfd_sim::obs`] layer for every
//! check (the `liveness_*` phase timers and node, edge, product-state and
//! interned-value counters) and appends the `metrics` block to the
//! artifact, or writes it standalone to `PATH` and leaves the artifact
//! as it is without the flag.

use std::process::ExitCode;
use wfd_bench::{MetricsFlag, Table};
use wfd_consensus::OmegaSigmaConsensus;
use wfd_detectors::impls::{HeartbeatOmega, TimeoutFs};
use wfd_detectors::oracles::{OmegaOracle, PairOracle, SigmaOracle};
use wfd_sim::liveness::fixtures::PingPong;
use wfd_sim::{
    check_liveness, shrink, FailurePattern, LivenessConfig, LivenessReport, LivenessVerdict, Ltl,
    NoDetector, Obs, OracleSpec, ProcessId, Replay, Repro,
};

/// One table row: a named check with its expectation and outcome.
struct Outcome {
    name: &'static str,
    formula: String,
    expected: LivenessVerdict,
    report: Option<LivenessReport>,
    error: Option<String>,
    note: String,
}

impl Outcome {
    fn ok(&self) -> bool {
        self.error.is_none()
            && self
                .report
                .as_ref()
                .is_some_and(|r| r.verdict == self.expected)
    }
}

fn run_case(
    name: &'static str,
    expected: LivenessVerdict,
    result: Result<LivenessReport, String>,
    formula: &Ltl,
) -> Outcome {
    let mut out = Outcome {
        name,
        formula: formula.to_string(),
        expected,
        report: None,
        error: None,
        note: String::new(),
    };
    match result {
        Ok(report) => {
            out.note = format!(
                "{} states, {} edges, {} product",
                report.states, report.edges, report.product_states
            );
            out.report = Some(report);
        }
        Err(e) => out.error = Some(e),
    }
    out
}

/// The planted-livelock leg: catch the bug, then push the lasso through
/// the full artifact pipeline (JSON round-trip → replay → shrink).
fn livelock_leg(outcomes: &mut Vec<Outcome>, obs: &Obs) {
    let n = 3;
    let cfg = || LivenessConfig::new(3, 3, 0).with_obs(obs.clone());
    let pattern = FailurePattern::failure_free(n);
    let goal = Ltl::prop("decided").eventually();
    let mut out = run_case(
        "livelock/F-decided",
        LivenessVerdict::Violated,
        check_liveness(
            cfg(),
            || PingPong::fleet(n),
            vec![None; n],
            &pattern,
            NoDetector,
            &goal,
        ),
        &goal,
    );
    let lasso = out.report.as_ref().and_then(|r| r.lasso.clone());
    match lasso {
        None => {
            if out.error.is_none() {
                out.error = Some("expected a lasso witness".to_string());
            }
        }
        Some(lasso) => {
            let repro = Repro::from_lasso(
                "fixtures::PingPong",
                &goal.to_string(),
                "no process ever decides on this fair cycle",
                lasso.stem.clone(),
                lasso.cycle.clone(),
                0,
                3,
                3,
                &pattern,
                OracleSpec::new("none"),
            );
            // Round-trip: the artifact must survive serialization exactly.
            let round_trip = Repro::from_json(&repro.to_json()).as_ref() == Ok(&repro);
            // Replay: the decisions must denote a real fair infinite run.
            let replays = |stem: &[_], cycle: &[_]| {
                Replay::lasso(stem.to_vec(), cycle.to_vec()).run_fair(
                    &cfg(),
                    || PingPong::fleet(n),
                    vec![None; n],
                    &pattern,
                    NoDetector,
                )
            };
            let replayed = replays(&lasso.stem, &lasso.cycle);
            // Shrink: mutations must be kept only while the candidate
            // still replays as a fair lasso.
            let shrunk = shrink(&repro, |candidate| {
                let (stem, cycle) = candidate.decisions.as_lasso()?;
                replays(stem, cycle)
                    .ok()
                    .map(|()| "still a fair non-deciding cycle".to_string())
            });
            let shrunk_len = shrunk.repro.decisions.len();
            out.note = format!(
                "{}; round-trip {}, replay {}, shrink {} -> {} decisions",
                out.note,
                round_trip,
                replayed.is_ok(),
                repro.decisions.len(),
                shrunk_len,
            );
            if !round_trip {
                out.error = Some("lasso artifact failed its JSON round-trip".to_string());
            } else if let Err(e) = replayed {
                out.error = Some(format!("lasso failed to replay: {e}"));
            } else if shrunk_len > repro.decisions.len() {
                out.error = Some("shrinker grew the artifact".to_string());
            } else {
                let dir = Table::artifact_dir().join("repros");
                if std::fs::create_dir_all(&dir).is_ok() {
                    let path = dir.join("repro-livelock.json");
                    match std::fs::write(&path, shrunk.repro.to_json()) {
                        Ok(()) => println!("lasso artifact: {}", path.display()),
                        Err(e) => eprintln!("could not save lasso artifact: {e}"),
                    }
                }
            }
        }
    }
    outcomes.push(out);

    // The dual reading of the same model: the bug means nobody *ever*
    // decides, so `G !"decided"` holds over every fair run.
    let dual = Ltl::prop("decided").not().always();
    outcomes.push(run_case(
        "livelock/G-not-decided",
        LivenessVerdict::Holds,
        check_liveness(
            cfg(),
            || PingPong::fleet(n),
            vec![None; n],
            &pattern,
            NoDetector,
            &dual,
        ),
        &dual,
    ));
}

/// Ω stabilization: `F G "leader-agreed"` over all fair runs, with the
/// adaptive-timeout heartbeat implementation.
fn omega_leg(outcomes: &mut Vec<Outcome>, obs: &Obs) {
    let n = 2;
    // Worst-case staleness between two beats (receiver's own steps):
    // `beat_interval · G + D` global steps; 8 > 2·2 + 2 keeps the
    // failure-free model suspicion-free.
    let procs = || (0..n).map(|_| HeartbeatOmega::new(n, 8)).collect();
    let goal = Ltl::prop("leader-agreed").always().eventually();
    outcomes.push(run_case(
        "omega/stabilize-ff",
        LivenessVerdict::Holds,
        check_liveness(
            LivenessConfig::new(2, 2, 0).with_obs(obs.clone()),
            procs,
            vec![None; n],
            &FailurePattern::failure_free(n),
            NoDetector,
            &goal,
        ),
        &goal,
    ));
    // Crash the initial leader: every fair run must re-elect p1.
    let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(0), 0);
    outcomes.push(run_case(
        "omega/stabilize-crash",
        LivenessVerdict::Holds,
        check_liveness(
            LivenessConfig::new(2, 2, 0).with_obs(obs.clone()),
            procs,
            vec![None; n],
            &pattern,
            NoDetector,
            &goal,
        ),
        &goal,
    ));
}

/// FS accuracy and completeness as temporal properties.
fn fs_leg(outcomes: &mut Vec<Outcome>, obs: &Obs) {
    let n = 2;
    let procs = || (0..n).map(|_| TimeoutFs::new(n, 8)).collect();
    let accuracy = Ltl::prop("some-correct-red").not().always();
    outcomes.push(run_case(
        "fs/accuracy-ff",
        LivenessVerdict::Holds,
        check_liveness(
            LivenessConfig::new(2, 2, 0)
                .with_symmetry(true)
                .with_obs(obs.clone()),
            procs,
            vec![None; n],
            &FailurePattern::failure_free(n),
            NoDetector,
            &accuracy,
        ),
        &accuracy,
    ));
    let completeness = Ltl::prop("all-correct-red").eventually();
    let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(1), 0);
    outcomes.push(run_case(
        "fs/completeness-crash",
        LivenessVerdict::Holds,
        check_liveness(
            LivenessConfig::new(2, 2, 0).with_obs(obs.clone()),
            procs,
            vec![None; n],
            &pattern,
            NoDetector,
            &completeness,
        ),
        &completeness,
    ));
}

/// (Ω, Σ) consensus termination: `F "all-decided"` over all fair runs,
/// with stationary Ω and Σ oracles.
fn consensus_leg(outcomes: &mut Vec<Outcome>, obs: &Obs) {
    let goal = Ltl::prop("all-decided").eventually();
    let run = |name: &'static str, pattern: FailurePattern, proposals: Vec<u64>| {
        let n = pattern.n();
        let detector = PairOracle::new(
            OmegaOracle::new(&pattern, 0, 0),
            SigmaOracle::new(&pattern, 0, 0),
        );
        run_case(
            name,
            LivenessVerdict::Holds,
            check_liveness(
                LivenessConfig::new(2, 2, 0).with_obs(obs.clone()),
                || (0..n).map(|_| OmegaSigmaConsensus::<u64>::new()).collect(),
                proposals.into_iter().map(Some).collect(),
                &pattern,
                detector,
                &goal,
            ),
            &goal,
        )
    };
    outcomes.push(run(
        "consensus/termination-ff",
        FailurePattern::failure_free(2),
        vec![4, 7],
    ));
    // The headline environment: a crashed majority, where (Ω, Σ) still
    // terminates because Σ's quorums shrink with the failures.
    outcomes.push(run(
        "consensus/termination-majority-crash",
        FailurePattern::failure_free(3)
            .with_crash(ProcessId(1), 0)
            .with_crash(ProcessId(2), 0),
        vec![4, 7, 9],
    ));
}

fn main() -> ExitCode {
    let metrics = MetricsFlag::from_args();
    let obs = metrics.resolve_obs();
    let mut outcomes = Vec::new();
    livelock_leg(&mut outcomes, &obs);
    omega_leg(&mut outcomes, &obs);
    fs_leg(&mut outcomes, &obs);
    consensus_leg(&mut outcomes, &obs);

    let mut table = Table::new(
        "E14-liveness",
        "LTL/Büchi liveness checks over all fair runs of small instances",
        &["case", "formula", "expected", "verdict", "ok", "detail"],
    );
    let mut failures = 0usize;
    for out in &outcomes {
        let (verdict, detail) = match (&out.report, &out.error) {
            (_, Some(e)) => ("error".to_string(), e.clone()),
            (Some(r), None) => (r.verdict.as_str().to_string(), out.note.clone()),
            (None, None) => ("missing".to_string(), String::new()),
        };
        if !out.ok() {
            failures += 1;
        }
        table.row_strings(vec![
            out.name.to_string(),
            out.formula.clone(),
            out.expected.as_str().to_string(),
            verdict,
            out.ok().to_string(),
            detail,
        ]);
    }
    let block = metrics.emit(&obs);
    table.finish_with_metrics(block.as_ref().filter(|_| metrics.path.is_none()));
    if failures > 0 {
        eprintln!("E14: {failures} case(s) failed");
        return ExitCode::FAILURE;
    }
    println!("E14: all {} cases passed", outcomes.len());
    ExitCode::SUCCESS
}
