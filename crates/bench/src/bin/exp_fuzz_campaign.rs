//! **E13 — fuzz campaign with replayable counterexamples**: sweep
//! (seed × failure pattern × scheduler) recorded runs of the (Ω, Σ)
//! quorum consensus target; any checker failure is shrunk and written out
//! as a `repro-*.json` artifact that replays byte-identically.
//!
//! Modes:
//!
//! * `exp_fuzz_campaign` (default) — run the grid
//!   (`WFD_FUZZ_N`/`WFD_FUZZ_SEEDS`/`WFD_FUZZ_HORIZON`/`WFD_FUZZ_STABILIZE`
//!   override the defaults), verify the record→replay round-trip on every
//!   run, shrink + save any violations, exit non-zero if any were found.
//! * `exp_fuzz_campaign replay <repro.json>…` — re-execute saved
//!   artifacts; exit non-zero if one fails to reproduce.
//! * `exp_fuzz_campaign selftest` — demonstrate the record → repro →
//!   shrink pipeline end to end against the intentionally broken
//!   `fixture:no-decision` checker (a healthy run always violates it) and
//!   assert the shrinker strictly minimized; exit non-zero otherwise.
//!
//! Any mode additionally accepts `--metrics[=PATH]` to switch on the
//! [`wfd_sim::obs`] layer: the campaign prints its sweep counters/timers
//! as a JSON block (or writes them to `PATH`).

use std::path::Path;
use std::process::ExitCode;
use wfd_bench::fuzz::{
    default_grid, replay_repro, run_campaign_with_obs, run_spec, shrink_repro, CampaignConfig,
    FuzzSpec, CHECKER_FIXTURE,
};
use wfd_bench::{MetricsFlag, Table};
use wfd_sim::{Obs, Repro, SchedulerSpec};

fn repro_dir() -> std::path::PathBuf {
    Table::artifact_dir().join("repros")
}

fn campaign(metrics: &MetricsFlag) -> ExitCode {
    let obs = metrics.resolve_obs();
    let cfg = CampaignConfig::from_env();
    let specs = default_grid(&cfg);
    println!(
        "fuzz campaign: {} runs (n = {}, {} seeds, horizon {}, stabilize {})",
        specs.len(),
        cfg.n,
        cfg.seeds,
        cfg.horizon,
        cfg.stabilize_at
    );
    let reports = run_campaign_with_obs(&specs, obs.clone());

    let mut table = Table::new(
        "E13-fuzz-campaign",
        "Recorded fuzz runs of (Ω, Σ) consensus: checker verdict and record→replay round-trip",
        &["run", "steps", "decisions", "replay_identical", "verdict"],
    );
    let mut violations = 0usize;
    let mut replay_failures = 0usize;
    for report in &reports {
        let verdict = match &report.violation {
            Some(repro) => {
                violations += 1;
                format!("VIOLATION: {}", repro.violation)
            }
            None => "ok".to_string(),
        };
        if !report.replay_identical {
            replay_failures += 1;
        }
        table.row_strings(vec![
            report.label.clone(),
            report.steps.to_string(),
            report.decisions.to_string(),
            report.replay_identical.to_string(),
            verdict,
        ]);
    }
    table.finish();

    for report in &reports {
        let Some(repro) = &report.violation else {
            continue;
        };
        let shrunk = shrink_repro(repro);
        match shrunk.repro.save(&repro_dir()) {
            Ok(path) => println!(
                "violation [{}] shrunk {} -> {} decisions, saved {}",
                report.label,
                repro.decisions.len(),
                shrunk.repro.decisions.len(),
                path.display()
            ),
            Err(e) => eprintln!("could not save repro for [{}]: {e}", report.label),
        }
    }

    println!(
        "\n{} runs, {} violations, {} replay mismatches",
        reports.len(),
        violations,
        replay_failures
    );
    emit_metrics(metrics, &obs);
    if violations == 0 && replay_failures == 0 {
        println!("expected shape: the target protocol is correct, so a clean campaign both");
        println!("confirms the theorem-side runs and regression-tests the repro machinery.");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print (and/or write) the metrics block when `--metrics` asked for one.
fn emit_metrics(metrics: &MetricsFlag, obs: &Obs) {
    if let Some(json) = metrics.emit(obs) {
        if metrics.path.is_none() {
            println!("metrics: {json}");
        }
    }
}

fn replay(paths: &[String]) -> ExitCode {
    let mut failures = 0usize;
    for path in paths {
        match Repro::load(Path::new(path)).and_then(|r| replay_repro(&r).map(|v| (r, v))) {
            Ok((repro, outcome)) => {
                // A drifted replay is a failure even when the checker
                // message matches: past the first divergence the run is
                // the fallback scheduler's, not the artifact's.
                match (&outcome.message, outcome.divergences) {
                    (Some(message), 0) => {
                        println!("{path}: reproduced [{}] {message}", repro.checker);
                    }
                    (Some(message), d) => {
                        println!(
                            "{path}: DRIFTED ({d} divergence(s) fell back to the default \
                             scheduler; checker [{}] still reports: {message})",
                            repro.checker
                        );
                        failures += 1;
                    }
                    (None, d) => {
                        println!(
                            "{path}: DID NOT reproduce (checker {} is now clean, \
                             {d} divergence(s))",
                            repro.checker
                        );
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn selftest() -> ExitCode {
    // A deliberately bloated run: a crash the "failure" does not depend
    // on, a long horizon, and the broken fixture checker that fails as
    // soon as anyone decides.
    let spec = FuzzSpec {
        n: 3,
        seed: 7,
        crashes: vec![None, Some(200), None],
        scheduler: SchedulerSpec::RandomFair {
            seed: 7,
            lambda_pct: 25,
        },
        horizon: 4_000,
        stabilize_at: 20,
        checker: CHECKER_FIXTURE.to_string(),
    };
    let report = run_spec(&spec);
    if !report.replay_identical {
        eprintln!("selftest: record→replay round-trip diverged");
        return ExitCode::FAILURE;
    }
    let Some(original) = report.violation else {
        eprintln!("selftest: fixture checker unexpectedly passed");
        return ExitCode::FAILURE;
    };
    println!(
        "recorded violation: {} ({} decisions, {} crashes)",
        original.violation,
        original.decisions.len(),
        original.crashes.iter().flatten().count()
    );

    let shrunk = shrink_repro(&original);
    println!(
        "shrunk: {} -> {} decisions, {} -> {} crashes, horizon {} -> {} \
         ({} attempts, {} accepted)",
        original.decisions.len(),
        shrunk.repro.decisions.len(),
        original.crashes.iter().flatten().count(),
        shrunk.repro.crashes.iter().flatten().count(),
        original.horizon,
        shrunk.repro.horizon,
        shrunk.attempts,
        shrunk.accepted
    );

    let outcome = replay_repro(&shrunk.repro).ok();
    let still_fails = outcome.as_ref().is_some_and(|o| o.message.is_some());
    let zero_divergences = outcome.as_ref().is_some_and(|o| o.divergences == 0);
    let fewer_decisions = shrunk.repro.decisions.len() < original.decisions.len();
    let fewer_crashes =
        shrunk.repro.crashes.iter().flatten().count() < original.crashes.iter().flatten().count();
    let round_trip = Repro::from_json(&shrunk.repro.to_json()).as_ref() == Ok(&shrunk.repro);

    match shrunk.repro.save(&repro_dir()) {
        Ok(path) => println!("saved {}", path.display()),
        Err(e) => {
            eprintln!("selftest: could not save artifact: {e}");
            return ExitCode::FAILURE;
        }
    }

    for (name, ok) in [
        ("shrunk artifact still fails its checker", still_fails),
        (
            "shrunk artifact replays with zero divergences",
            zero_divergences,
        ),
        ("strictly fewer decisions", fewer_decisions),
        ("strictly fewer crashes", fewer_crashes),
        ("artifact JSON round-trips", round_trip),
    ] {
        println!("  [{}] {name}", if ok { "ok" } else { "FAIL" });
        if !ok {
            return ExitCode::FAILURE;
        }
    }
    explore_selftest()
}

/// The exhaustive-side counterpart of the recorded-run selftest: drive the
/// bounded explorer against the same (Ω, Σ) consensus target with the
/// same broken fixture checker, prove the parallel frontier is invisible
/// to the report, and round-trip the counterexample through a `Repro`
/// artifact back into [`wfd_sim::Replay`].
fn explore_selftest() -> ExitCode {
    use wfd_consensus::{ConsensusOutput, OmegaSigmaConsensus};
    use wfd_detectors::oracles::{OmegaOracle, PairOracle, SigmaOracle};
    use wfd_sim::{explore, ExploreConfig, FailurePattern, OracleSpec, ProcessId};

    let n = 2;
    let depth = 14;
    let pattern = FailurePattern::failure_free(n);
    let make_procs = || {
        (0..n)
            .map(|_| OmegaSigmaConsensus::<u64>::new())
            .collect::<Vec<_>>()
    };
    let mk_detector = || {
        PairOracle::new(
            OmegaOracle::new(&pattern, 0, 1),
            SigmaOracle::new(&pattern, 0, 1),
        )
    };
    // The fixture checker fails as soon as anyone decides, so a live
    // consensus protocol guarantees the explorer a counterexample.
    let checker = |_procs: &[OmegaSigmaConsensus<u64>],
                   outputs: &[(ProcessId, ConsensusOutput<u64>)]|
     -> Result<(), String> {
        match outputs.first() {
            Some((p, ConsensusOutput::Decided(v))) => Err(format!("{p} decided {v}")),
            None => Ok(()),
        }
    };
    let run = |threads: usize| {
        explore(
            ExploreConfig::new(depth)
                .with_max_states(200_000)
                .with_threads(threads),
            make_procs,
            vec![Some(10), Some(20)],
            &pattern,
            mk_detector(),
            checker,
        )
    };
    let report = run(1);
    println!(
        "\nexplore selftest: {} states visited, {} dedup entries, {} dedup hits, \
         max frontier {}, {} thread(s), capped {}, depth-bounded {}",
        report.states_visited,
        report.dedup_entries,
        report.dedup_hits,
        report.max_frontier_len,
        report.threads_used,
        report.states_capped,
        report.depth_bounded
    );
    println!("report json: {}", report.to_json());

    let parallel = run(2);
    let deterministic = report.same_semantics(&parallel) && parallel.threads_used == 2;

    let Some(violation) = report.violation.clone() else {
        println!("  [FAIL] explorer finds the fixture counterexample");
        return ExitCode::FAILURE;
    };
    let repro = wfd_sim::Repro::from_explore(
        "consensus-omega-sigma",
        CHECKER_FIXTURE,
        &violation,
        depth,
        &pattern,
        OracleSpec::new("omega+sigma")
            .with("stabilize_at", 0)
            .with("seed", 1),
    );
    let round_trip = wfd_sim::Repro::from_json(&repro.to_json()).as_ref() == Ok(&repro);
    let replayed = wfd_sim::Replay::from_repro(&repro).is_ok_and(|replay| {
        replay.run(
            make_procs,
            vec![Some(10), Some(20)],
            &pattern,
            mk_detector(),
            checker,
        ) == Err(violation.message.clone())
    });

    for (name, ok) in [
        ("explorer finds the fixture counterexample", true),
        ("1- and 2-thread reports agree semantically", deterministic),
        ("explore artifact JSON round-trips", round_trip),
        ("machine-layer Replay reproduces the violation", replayed),
    ] {
        println!("  [{}] {name}", if ok { "ok" } else { "FAIL" });
        if !ok {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = MetricsFlag::take(&mut args);
    match args.first().map(String::as_str) {
        None | Some("campaign") => campaign(&metrics),
        Some("selftest") => selftest(),
        Some("replay") => {
            if args.len() < 2 {
                eprintln!("usage: exp_fuzz_campaign replay <repro.json>…");
                ExitCode::FAILURE
            } else {
                replay(&args[1..])
            }
        }
        Some(other) => {
            eprintln!("unknown mode {other:?}; modes: campaign (default), replay, selftest");
            ExitCode::FAILURE
        }
    }
}
