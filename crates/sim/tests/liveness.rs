//! Integration tests for the liveness layer: verdict invariance under
//! symmetry, and the lasso-artifact
//! pipeline (emit → JSON → replay, byte-identically).

use wfd_sim::liveness::fixtures::{Decider, PingPong};
use wfd_sim::{
    check_liveness, FailurePattern, LivenessConfig, LivenessVerdict, Ltl, NoDetector, OracleSpec,
    ProcessId, Replay, Repro, ReproSource,
};

/// One scenario of the equivalence family, derived from a seed: protocol
/// choice (livelocking `PingPong` on even seeds, terminating `Decider`
/// on odd), system size, fairness bounds and an optional crash. The
/// family deliberately mixes verdicts so invariance is tested on both.
struct Family {
    n: usize,
    pattern: FailurePattern,
    max_step_gap: u64,
    max_delay: u64,
    livelock: bool,
}

fn family(seed: u64) -> Family {
    let n = 2 + (seed as usize % 2); // 2 or 3
    let mut pattern = FailurePattern::failure_free(n);
    if seed.is_multiple_of(4) {
        // Crash one process at t = 0 (never all of them: n ≥ 2).
        pattern = pattern.with_crash(ProcessId(seed as usize % n), 0);
    }
    Family {
        n,
        pattern,
        max_step_gap: 2 + (seed % 2),
        max_delay: 2 + ((seed / 2) % 2),
        livelock: seed.is_multiple_of(2),
    }
}

fn verdict(fam: &Family, cfg: LivenessConfig) -> LivenessVerdict {
    let n = fam.n;
    let report = if fam.livelock {
        check_liveness(
            cfg,
            || PingPong::fleet(n),
            vec![None; n],
            &fam.pattern,
            NoDetector,
            &Ltl::prop("decided").eventually(),
        )
    } else {
        check_liveness(
            cfg,
            || Decider::fleet(n),
            vec![None; n],
            &fam.pattern,
            NoDetector,
            &Ltl::prop("all-decided").eventually(),
        )
    };
    let report = report.expect("family scenarios are well-formed");
    assert!(
        !report.truncated,
        "family scenarios must fit the default inbox capacity"
    );
    report.verdict
}

/// The ladder: over 40 seeded scenarios, the verdict must be invariant
/// under symmetry canonicalization on/off. Any divergence means the
/// reduction changed the model, not just its cost. DPOR is *not* a rung:
/// sleep-set reduction is unsound for cycle detection, so
/// `LivenessConfig` has no flag for it.
#[test]
fn verdicts_are_invariant_under_symmetry() {
    for seed in 0..40u64 {
        let fam = family(seed);
        let base = LivenessConfig::new(fam.max_step_gap, fam.max_delay, 0);
        let expected = if fam.livelock {
            LivenessVerdict::Violated
        } else {
            LivenessVerdict::Holds
        };
        let baseline = verdict(&fam, base.clone());
        assert_eq!(baseline, expected, "seed {seed}: baseline verdict");
        let got = verdict(&fam, base.with_symmetry(true));
        assert_eq!(got, baseline, "seed {seed}: verdict changed under symmetry");
    }
}

/// The artifact pipeline: a found lasso serializes to `wfd-repro-v1`
/// JSON, parses back to an equal value whose re-serialization is
/// byte-identical, and the parsed decision lists replay as a fair
/// infinite run.
#[test]
fn lasso_repro_round_trips_byte_identically_and_replays() {
    let n = 2;
    let cfg = || LivenessConfig::new(3, 3, 0);
    let pattern = FailurePattern::failure_free(n);
    let report = check_liveness(
        cfg(),
        || PingPong::fleet(n),
        vec![None; n],
        &pattern,
        NoDetector,
        &Ltl::prop("decided").eventually(),
    )
    .expect("well-formed");
    assert_eq!(report.verdict, LivenessVerdict::Violated);
    let lasso = report.lasso.expect("a concrete witness");

    let repro = Repro::from_lasso(
        "fixtures::PingPong",
        "F \"decided\"",
        "no process ever decides on this fair cycle",
        lasso.stem.clone(),
        lasso.cycle.clone(),
        0,
        3,
        3,
        &pattern,
        OracleSpec::new("none"),
    );
    let json = repro.to_json();
    let parsed = Repro::from_json(&json).expect("artifact parses");
    assert_eq!(parsed, repro, "round-trip must be lossless");
    assert_eq!(
        parsed.to_json(),
        json,
        "re-serialization must be byte-identical"
    );
    assert_eq!(parsed.source, ReproSource::Liveness);

    let (stem, cycle) = parsed
        .decisions
        .as_lasso()
        .expect("liveness artifacts carry lasso decisions");
    assert_eq!(stem, lasso.stem.as_slice());
    assert_eq!(cycle, lasso.cycle.as_slice());
    let replay = Replay::from_repro(&parsed).expect("liveness artifacts build a lasso replay");
    assert!(replay.is_lasso());
    replay
        .run_fair(
            &cfg(),
            || PingPong::fleet(n),
            vec![None; n],
            &pattern,
            NoDetector,
        )
        .expect("parsed artifact replays as a fair run");
}

/// Corrupted artifacts must be rejected by the replayer, not panic it:
/// an unfair decision (a non-forced actor while another is overdue) and
/// a non-recurring cycle both return `Err`.
#[test]
fn hostile_lassos_are_rejected_gracefully() {
    let n = 2;
    let cfg = LivenessConfig::new(2, 2, 0);
    let pattern = FailurePattern::failure_free(n);
    // Empty cycle: not an infinite run.
    let err = Replay::lasso(vec![], vec![])
        .run_fair(
            &cfg,
            || PingPong::fleet(n),
            vec![None; n],
            &pattern,
            NoDetector,
        )
        .expect_err("empty cycle");
    assert!(err.contains("non-empty"), "{err}");
    // A cycle that exists but does not recur: one start step leaves the
    // initial configuration for good.
    let err = Replay::lasso(vec![], vec![(ProcessId(0), None)])
        .run_fair(
            &cfg,
            || PingPong::fleet(n),
            vec![None; n],
            &pattern,
            NoDetector,
        )
        .expect_err("non-recurring cycle");
    assert!(err.contains("return"), "{err}");
    // An unfair decision: with G = 2, stepping the same process three
    // times in a row leaves the other overdue and forced.
    let err = Replay::lasso(
        vec![
            (ProcessId(0), None),
            (ProcessId(0), None),
            (ProcessId(0), None),
        ],
        vec![(ProcessId(0), None)],
    )
    .run_fair(
        &cfg,
        || PingPong::fleet(n),
        vec![None; n],
        &pattern,
        NoDetector,
    )
    .expect_err("unfair stem");
    assert!(err.contains("fair"), "{err}");
}

/// Ill-formed scenarios are `Err`, not panics or wrong verdicts.
#[test]
fn scenario_validation_errors() {
    let cfg = || LivenessConfig::new(2, 2, 0);
    let check = |cfg: LivenessConfig, pattern: &FailurePattern, slots: usize| {
        check_liveness(
            cfg,
            || PingPong::fleet(2),
            vec![None; slots],
            pattern,
            NoDetector,
            &Ltl::prop("decided").eventually(),
        )
    };
    let ff = FailurePattern::failure_free(2);
    // Invocation arity.
    assert!(check(cfg(), &ff, 3).is_err());
    // All processes crashed: no fair infinite run exists.
    let dead = FailurePattern::failure_free(2)
        .with_crash(ProcessId(0), 0)
        .with_crash(ProcessId(1), 0);
    assert!(check(cfg(), &dead, 2).is_err());
    // Degenerate capacities.
    assert!(check(cfg().with_max_inbox(0), &ff, 2).is_err());
    assert!(check(LivenessConfig::new(0, 2, 0), &ff, 2).is_err());
    assert!(check(LivenessConfig::new(2, 0, 0), &ff, 2).is_err());
}
