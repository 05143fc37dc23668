//! Cross-crate integration tests exercising the facade crate: full
//! pipelines that chain simulator, oracles, algorithms and checkers the
//! way a downstream user would.

use weakest_failure_detectors::prelude::*;
use weakest_failure_detectors::registers::abd::{op_history_from_trace, AbdOp};

/// Σ oracle → ABD register → linearizability checker, through the facade.
#[test]
fn facade_register_pipeline() {
    let n = 4;
    let pattern = FailurePattern::with_crashes(n, &[(ProcessId(3), 300)]);
    let sigma = SigmaOracle::new(&pattern, 400, 9).with_jitter(100);
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(20_000),
        (0..n)
            .map(|_| AbdRegister::new(QuorumRule::Detector, 0u64))
            .collect(),
        pattern,
        sigma,
        RandomFair::new(9),
    );
    for p in 0..n {
        sim.schedule_invoke(ProcessId(p), 0, AbdOp::Write(p as u64 + 1));
        sim.schedule_invoke(ProcessId(p), 600, AbdOp::Read);
    }
    sim.run();
    let h = op_history_from_trace(sim.trace(), 0);
    assert!(h.completed().count() >= 6);
    check_linearizable(&h).expect("linearizable");
}

/// A recorded oracle history must satisfy the very spec the oracle
/// promises — the Recorder/checker loop users rely on for their own
/// detectors.
#[test]
fn facade_recorder_pipeline() {
    let n = 3;
    let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 50)]);
    let mut rec = Recorder::new(
        PairOracle::new(
            OmegaOracle::new(&pattern, 100, 1),
            SigmaOracle::new(&pattern, 100, 1),
        ),
        n,
    );
    for t in 0..400 {
        for p in ProcessId::all(n) {
            let _ = rec.query(p, t);
        }
    }
    let h = rec.into_history();
    let omega_h = h.map(|(l, _)| *l);
    let sigma_h = h.map(|(_, q)| *q);
    check_omega(&omega_h, &pattern).expect("Ω oracle conforms");
    check_sigma(&sigma_h, &pattern).expect("Σ oracle conforms");
}

/// The full dependency chain of Corollary 4's sufficiency: a Σ-backed
/// register stack hosting consensus, all through public APIs.
#[test]
fn facade_consensus_stack() {
    use weakest_failure_detectors::consensus::register_omega::RegisterOmegaConsensus;
    let n = 3;
    let pattern = FailurePattern::failure_free(n);
    let fd = PairOracle::new(
        OmegaOracle::new(&pattern, 50, 2),
        SigmaOracle::new(&pattern, 50, 2),
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(120_000),
        (0..n)
            .map(|_| RegisterOmegaConsensus::<u64>::new(n))
            .collect(),
        pattern.clone(),
        fd,
        RandomFair::new(2),
    );
    for p in 0..n {
        sim.schedule_invoke(ProcessId(p), 0, 100 + p as u64);
    }
    sim.run_until(|_, procs| procs.iter().all(|p| p.decision().is_some()));
    let props: Vec<Option<u64>> = (0..n).map(|p| Some(100 + p as u64)).collect();
    let stats = check_consensus(sim.trace(), &props, &pattern).expect("consensus");
    assert!(stats.decision.is_some());
}

/// Implemented detectors can power the algorithms that need them: the
/// heartbeat Ω's emitted history, replayed as an oracle, must satisfy Ω.
#[test]
fn implemented_omega_feeds_checker() {
    let n = 3;
    let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 400)]);
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(25_000),
        (0..n).map(|_| HeartbeatOmega::new(n, 4)).collect(),
        pattern.clone(),
        wfd_sim::NoDetector,
        RandomFair::new(4),
    );
    sim.run();
    let h = history_from_outputs(sim.trace(), |l: &ProcessId| Some(*l));
    let stats = check_omega(&h, &pattern).expect("Ω conforms");
    assert_eq!(stats.leader, Some(ProcessId(1)));
}

/// Determinism across the whole stack: same inputs, same trace — byte for
/// byte.
#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let n = 3;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(2), 111)]);
        let fd = PairOracle::new(
            OmegaOracle::new(&pattern, 200, 3).with_jitter(50),
            SigmaOracle::new(&pattern, 200, 3).with_jitter(50),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(5_000),
            (0..n).map(|_| OmegaSigmaConsensus::<u64>::new()).collect(),
            pattern,
            fd,
            RandomFair::new(3),
        );
        for p in 0..n {
            sim.schedule_invoke(ProcessId(p), 0, p as u64);
        }
        sim.run();
        format!("{:?}", sim.trace().events())
    };
    assert_eq!(run(), run());
}

/// The four problems stack: QC solved via NBAC which is itself built from
/// QC — the two transformations of Theorem 8 composed back to back.
#[test]
fn theorem8_composition_round_trip() {
    let n = 3;
    let pattern = FailurePattern::failure_free(n);
    let fd = PairOracle::new(
        FsOracle::new(&pattern, 20, 6),
        PsiOracle::new(&pattern, PsiMode::OmegaSigma, 60, 20, 6),
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(150_000),
        (0..n)
            .map(|_| QcFromNbac::new(n, NbacFromQc::new(n, PsiQc::<u8>::new())))
            .collect(),
        pattern.clone(),
        fd,
        RandomFair::new(6),
    );
    for p in 0..n {
        sim.schedule_invoke(ProcessId(p), 0, (p % 2) as u8);
    }
    sim.run_until(|_, procs| procs.iter().all(|p| p.decision().is_some()));
    let props: Vec<Option<u8>> = (0..n).map(|p| Some((p % 2) as u8)).collect();
    let stats = check_qc(sim.trace(), &props, &pattern).expect("QC conforms");
    assert_eq!(stats.decision, Some(QcDecision::Value(0)));
}
