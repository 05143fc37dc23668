//! Bounded model checking of the core algorithms: enumerate *every*
//! message-delivery interleaving for tiny systems and assert safety in
//! every reachable state — the exhaustive counterpart of the randomized
//! property tests.

use weakest_failure_detectors::prelude::*;
use weakest_failure_detectors::registers::abd::{AbdOp, AbdOutput, AbdResp};
use weakest_failure_detectors::registers::spec::{OpHistory, OpRecord};
use weakest_failure_detectors::sim::{explore, ExploreConfig};

/// (Ω, Σ) consensus, n = 2: agreement + validity in every state of every
/// interleaving up to the depth bound.
#[test]
fn consensus_agreement_holds_in_every_interleaving() {
    let n = 2;
    let pattern = FailurePattern::failure_free(n);
    let detector = PairOracle::new(
        OmegaOracle::new(&pattern, 0, 1),
        SigmaOracle::new(&pattern, 0, 1),
    );
    let report = explore(
        ExploreConfig::new(14).with_max_states(200_000),
        || (0..n).map(|_| OmegaSigmaConsensus::<u64>::new()).collect(),
        vec![Some(10), Some(20)],
        &pattern,
        detector,
        |_procs, outputs| {
            let decisions: Vec<u64> = outputs
                .iter()
                .map(|(_, ConsensusOutput::Decided(v))| *v)
                .collect();
            if decisions.windows(2).any(|w| w[0] != w[1]) {
                return Err(format!("agreement violated: {decisions:?}"));
            }
            if decisions.iter().any(|v| *v != 10 && *v != 20) {
                return Err(format!("validity violated: {decisions:?}"));
            }
            Ok(())
        },
    );
    if let Some(v) = report.violation {
        panic!("violation: {}; schedule: {:?}", v.message, v.decisions);
    }
    assert!(
        !report.states_capped,
        "state cap hit: the run no longer covers every interleaving"
    );
    // Dedup collapses converging interleavings aggressively; the distinct
    // state count stays modest even though every delivery order was
    // covered.
    assert!(
        report.states_visited > 50,
        "expected a non-trivial state space, got {}",
        report.states_visited
    );
}

/// Consensus with one process crashed from the start: safety unaffected.
#[test]
fn consensus_safety_with_immediate_crash_in_every_interleaving() {
    let n = 2;
    let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(1), 0);
    let detector = PairOracle::new(
        OmegaOracle::new(&pattern, 0, 1),
        SigmaOracle::new(&pattern, 0, 1),
    );
    let report = explore(
        ExploreConfig::new(16).with_max_states(200_000),
        || (0..n).map(|_| OmegaSigmaConsensus::<u64>::new()).collect(),
        vec![Some(10), Some(20)],
        &pattern,
        detector,
        |_procs, outputs| {
            for (_, ConsensusOutput::Decided(v)) in outputs {
                if *v != 10 {
                    return Err(format!("p0 alone can only decide its own value, got {v}"));
                }
            }
            Ok(())
        },
    );
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(!report.states_capped, "state cap hit");
}

/// Σ-ABD register, n = 2: the history reconstructed from outputs (with
/// emission indices as times) is linearizable in every reachable state.
#[test]
fn abd_register_linearizable_in_every_interleaving() {
    let n = 2;
    let pattern = FailurePattern::failure_free(n);
    let detector = SigmaOracle::new(&pattern, 0, 1);
    let report = explore(
        ExploreConfig::new(13).with_max_states(200_000),
        || {
            (0..n)
                .map(|_| AbdRegister::new(QuorumRule::Detector, 0u64))
                .collect()
        },
        vec![Some(AbdOp::Write(7)), Some(AbdOp::Read)],
        &pattern,
        detector,
        |_procs, outputs| {
            let mut h = OpHistory::new(0);
            for (i, (_, out)) in outputs.iter().enumerate() {
                match out {
                    AbdOutput::Invoked { id, op } => h.ops.push(OpRecord {
                        id: *id,
                        op: match op {
                            AbdOp::Read => RegOp::Read,
                            AbdOp::Write(v) => RegOp::Write(*v),
                        },
                        invoked_at: i as u64,
                        response: None,
                        participants: ProcessSet::new(),
                    }),
                    AbdOutput::Completed { id, resp, .. } => {
                        if let Some(rec) = h.ops.iter_mut().find(|r| r.id == *id) {
                            rec.response = Some((
                                i as u64,
                                match resp {
                                    AbdResp::ReadOk(v) => RegResp::ReadOk(*v),
                                    AbdResp::WriteOk => RegResp::WriteOk,
                                },
                            ));
                        }
                    }
                }
            }
            check_linearizable(&h)
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
    );
    if let Some(v) = report.violation {
        panic!("violation: {}; schedule: {:?}", v.message, v.decisions);
    }
    assert!(!report.states_capped, "state cap hit");
    assert!(report.states_visited > 500);
}

/// Ψ-QC, n = 2, consensus-mode Ψ available from the start: no state may
/// ever decide Q, and decisions agree.
#[test]
fn psi_qc_never_quits_in_consensus_mode_in_every_interleaving() {
    let n = 2;
    let pattern = FailurePattern::failure_free(n);
    let detector = PsiOracle::new(&pattern, PsiMode::OmegaSigma, 0, 0, 1);
    let report = explore(
        ExploreConfig::new(14).with_max_states(200_000),
        || (0..n).map(|_| PsiQc::<u64>::new()).collect(),
        vec![Some(1), Some(2)],
        &pattern,
        detector,
        |_procs, outputs| {
            let mut seen: Option<&QcDecision<u64>> = None;
            for (_, ConsensusOutput::Decided(d)) in outputs {
                if *d == QcDecision::Quit {
                    return Err("quit without failure".into());
                }
                if let Some(prev) = seen {
                    if prev != d {
                        return Err(format!("disagreement: {prev:?} vs {d:?}"));
                    }
                }
                seen = Some(d);
            }
            Ok(())
        },
    );
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(!report.states_capped, "state cap hit");
}

/// The explore → repro bridge on the real target: force a "violation"
/// with an impossible checker, serialize the counterexample branch as a
/// `Repro`, and replay it through [`Replay`] to the same message.
#[test]
fn explore_violations_round_trip_as_repro_artifacts() {
    use weakest_failure_detectors::sim::{OracleSpec, Replay, Repro};

    let n = 2;
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
    // "No process ever decides" is false for a live consensus protocol, so
    // the explorer must find a counterexample branch.
    let checker = |_procs: &[OmegaSigmaConsensus<u64>],
                   outputs: &[(ProcessId, ConsensusOutput<u64>)]|
     -> Result<(), String> {
        match outputs.first() {
            Some((p, ConsensusOutput::Decided(v))) => Err(format!("{p} decided {v}")),
            None => Ok(()),
        }
    };
    let report = explore(
        ExploreConfig::new(14).with_max_states(200_000),
        make_procs,
        vec![Some(10), Some(20)],
        &pattern,
        mk_detector(),
        checker,
    );
    assert!(
        report.dedup_entries > 0 && report.max_frontier_len > 0,
        "observability counters must be populated: {report:?}"
    );
    let violation = report.violation.expect("impossible checker must fail");

    let repro = Repro::from_explore(
        "consensus-omega-sigma",
        "fixture:no-decision",
        &violation,
        14,
        &pattern,
        OracleSpec::new("omega+sigma")
            .with("stabilize_at", 0)
            .with("seed", 1),
    );
    let parsed = Repro::from_json(&repro.to_json()).expect("artifact round-trips");
    assert_eq!(parsed, repro);

    let err = Replay::from_repro(&parsed)
        .expect("explore-sourced")
        .run(
            make_procs,
            vec![Some(10), Some(20)],
            &parsed.pattern(),
            mk_detector(),
            checker,
        )
        .expect_err("replay must reproduce the violation");
    assert_eq!(err, violation.message);
}

use weakest_failure_detectors::registers::spec::{RegOp, RegResp};
