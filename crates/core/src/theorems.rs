//! Executable theorem harnesses: one deterministic, checker-validated
//! experiment per direction of each of the paper's results.
//!
//! Every harness takes a [`RunSetup`] (failure pattern + seed + horizon),
//! assembles oracles, algorithms and workload, runs the simulation, and
//! returns the relevant checker's statistics — or its violation, which
//! for a correct implementation should never happen and is therefore a
//! `Result::Err` worth a test failure.

use wfd_consensus::chandra_toueg::ChandraToueg;
use wfd_consensus::register_omega::RegisterOmegaConsensus;
use wfd_consensus::spec::{check_consensus, ConsensusStats, ConsensusViolation};
use wfd_consensus::OmegaSigmaConsensus;
use wfd_detectors::check::{
    check_fs, check_psi, check_sigma, FsStats, FsViolation, PsiStats, PsiViolation, SigmaStats,
    SigmaViolation,
};
use wfd_detectors::history::history_from_outputs;
use wfd_detectors::oracles::{
    EventuallyStrongOracle, FsOracle, OmegaOracle, PairOracle, PsiMode, PsiOracle, SigmaOracle,
};
use wfd_detectors::{PsiValue, Signal};
use wfd_extraction::{PsiExtraction, PsiQcFamily};
use wfd_nbac::fs_from_nbac::FsFromNbac;
use wfd_nbac::spec::{check_nbac, NbacStats, NbacViolation};
use wfd_nbac::{NbacFromQc, QcFromNbac, Vote};
use wfd_quittable::spec::{check_qc, QcStats, QcViolation};
use wfd_quittable::{PsiQc, QcDecision};
use wfd_registers::abd::{op_history_from_trace, AbdOp, AbdRegister, QuorumRule};
use wfd_registers::linearizability::{check_linearizable, LinearizabilityError};
use wfd_registers::sigma_extraction::{initial_e_value, EValue, SigmaExtraction};
use wfd_sim::{FailurePattern, ProcessId, ProcessSet, RandomFair, Sim, SimConfig, Time};

/// Common knobs of a theorem-harness run.
#[derive(Clone, Debug)]
pub struct RunSetup {
    /// The failure pattern of the run.
    pub pattern: FailurePattern,
    /// Seed driving both oracle noise and the random-fair scheduler.
    pub seed: u64,
    /// Step horizon.
    pub horizon: u64,
    /// Stabilisation time handed to the oracles.
    pub stabilize: Time,
}

impl RunSetup {
    /// A setup with defaults scaled to the pattern (seed 0, horizon
    /// 60 000, oracle stabilisation shortly after the last crash).
    pub fn new(pattern: FailurePattern) -> Self {
        let stabilize = pattern.last_crash_time().unwrap_or(0) + 100;
        RunSetup {
            pattern,
            seed: 0,
            horizon: 60_000,
            stabilize,
        }
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the horizon.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Override the oracle stabilisation time.
    pub fn with_stabilize(mut self, t: Time) -> Self {
        self.stabilize = t;
        self
    }

    fn n(&self) -> usize {
        self.pattern.n()
    }
}

/// Evidence from a successful register run.
#[derive(Clone, Debug)]
pub struct RegisterEvidence {
    /// Operations that completed.
    pub completed_ops: usize,
    /// Operations left pending (e.g. invoker crashed).
    pub pending_ops: usize,
    /// Completed operations whose response came after the last crash —
    /// liveness evidence in post-crash territory.
    pub post_crash_completions: usize,
}

/// **Theorem 1, sufficiency**: with Σ, the ABD register is linearizable
/// and live in any environment. Runs a write/read workload on every
/// process and checks the reconstructed history.
///
/// # Errors
///
/// Returns the linearizability violation, should one occur.
pub fn sigma_implements_registers(
    setup: &RunSetup,
) -> Result<RegisterEvidence, LinearizabilityError> {
    let n = setup.n();
    let sigma = SigmaOracle::new(&setup.pattern, setup.stabilize, setup.seed)
        .with_jitter(setup.stabilize / 2 + 1);
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n)
            .map(|_| AbdRegister::new(QuorumRule::Detector, 0u64))
            .collect(),
        setup.pattern.clone(),
        sigma,
        RandomFair::new(setup.seed),
    );
    let spacing = (setup.stabilize / 2).max(50);
    for p in 0..n {
        for k in 0..4u64 {
            let t = k * spacing;
            sim.schedule_invoke(ProcessId(p), t, AbdOp::Write((p as u64 + 1) * 1_000 + k));
            sim.schedule_invoke(ProcessId(p), t + spacing / 2, AbdOp::Read);
        }
    }
    sim.run();
    let h = op_history_from_trace(sim.trace(), 0);
    check_linearizable(&h)?;
    let last_crash = setup.pattern.last_crash_time().unwrap_or(0);
    Ok(RegisterEvidence {
        completed_ops: h.completed().count(),
        pending_ops: h.pending().count(),
        post_crash_completions: h
            .completed()
            .filter(|o| o.response.expect("completed").0 > last_crash)
            .count(),
    })
}

/// **Theorem 1, necessity (Figure 1)**: the transformation extracts a
/// conforming Σ from a register implementation and its detector.
///
/// # Errors
///
/// Returns the Σ-spec violation, should one occur.
pub fn registers_yield_sigma(setup: &RunSetup) -> Result<SigmaStats, SigmaViolation> {
    let n = setup.n();
    let sigma = SigmaOracle::new(&setup.pattern, setup.stabilize, setup.seed)
        .with_jitter(setup.stabilize / 2 + 1);
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n)
            .map(|_| {
                SigmaExtraction::new(
                    n,
                    (0..n)
                        .map(|_| AbdRegister::new(QuorumRule::Detector, initial_e_value(n)))
                        .collect::<Vec<AbdRegister<EValue>>>(),
                )
            })
            .collect(),
        setup.pattern.clone(),
        sigma,
        RandomFair::new(setup.seed),
    );
    sim.run();
    let h = history_from_outputs(sim.trace(), |q: &ProcessSet| Some(*q));
    check_sigma(&h, &setup.pattern)
}

/// **Corollary 3, the necessity chain for Σ**: a detector `D` that solves
/// consensus implements registers via state-machine replication, and the
/// Figure 1 transformation then extracts Σ from those registers — here
/// with `D` = (Ω, Σ), end to end:
/// `D → consensus → SMR registers → Figure 1 → Σ`.
///
/// # Errors
///
/// Returns the Σ-spec violation, should one occur.
pub fn consensus_yields_sigma(setup: &RunSetup) -> Result<SigmaStats, SigmaViolation> {
    use wfd_consensus::smr_register::RegisterFromConsensus;
    let n = setup.n();
    let fd = PairOracle::new(
        OmegaOracle::new(&setup.pattern, setup.stabilize, setup.seed),
        SigmaOracle::new(&setup.pattern, setup.stabilize, setup.seed),
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n)
            .map(|_| {
                SigmaExtraction::new(
                    n,
                    (0..n)
                        .map(|_| RegisterFromConsensus::new(initial_e_value(n)))
                        .collect::<Vec<RegisterFromConsensus<EValue>>>(),
                )
            })
            .collect(),
        setup.pattern.clone(),
        fd,
        RandomFair::new(setup.seed),
    );
    sim.run();
    let h = history_from_outputs(sim.trace(), |q: &ProcessSet| Some(*q));
    check_sigma(&h, &setup.pattern)
}

/// **Corollary 3, the necessity chain for (Ω, Σ) as a whole**: a detector
/// `D` solving consensus solves QC trivially (consensus never quits), and
/// the Figure 3 transformation extracts a detector behaving like (Ω, Σ)
/// from it — here with `D` = (Ω, Σ). The returned stats certify that the
/// emitted stream conforms to Ψ and settled in (Ω, Σ) mode, whose
/// post-switch projections satisfy Ω and Σ.
///
/// # Errors
///
/// Returns the Ψ-spec violation, should one occur.
pub fn consensus_yields_omega_sigma(setup: &RunSetup) -> Result<PsiStats, PsiViolation> {
    use wfd_extraction::OmegaSigmaQcFamily;
    let n = setup.n();
    let fd = PairOracle::new(
        OmegaOracle::new(&setup.pattern, setup.stabilize, setup.seed),
        SigmaOracle::new(&setup.pattern, setup.stabilize, setup.seed),
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n)
            .map(|_| PsiExtraction::new(OmegaSigmaQcFamily).with_eval_interval(48))
            .collect(),
        setup.pattern.clone(),
        fd,
        RandomFair::new(setup.seed),
    );
    sim.run();
    let h = history_from_outputs(sim.trace(), |v: &PsiValue| Some(v.clone()));
    check_psi(&h, &setup.pattern)
}

/// **Corollary 2/4, sufficiency**: (Ω, Σ) solves consensus in any
/// environment (the quorum-based algorithm).
///
/// # Errors
///
/// Returns the consensus violation, should one occur.
pub fn omega_sigma_solves_consensus(
    setup: &RunSetup,
    proposals: &[u64],
) -> Result<ConsensusStats<u64>, ConsensusViolation<u64>> {
    let n = setup.n();
    assert_eq!(proposals.len(), n, "one proposal per process");
    let fd = PairOracle::new(
        OmegaOracle::new(&setup.pattern, setup.stabilize, setup.seed)
            .with_jitter(setup.stabilize / 2 + 1),
        SigmaOracle::new(&setup.pattern, setup.stabilize, setup.seed)
            .with_jitter(setup.stabilize / 2 + 1),
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n).map(|_| OmegaSigmaConsensus::<u64>::new()).collect(),
        setup.pattern.clone(),
        fd,
        RandomFair::new(setup.seed),
    );
    for (p, &v) in proposals.iter().enumerate() {
        sim.schedule_invoke(ProcessId(p), 0, v);
    }
    let correct = setup.pattern.correct();
    sim.run_until(move |_, procs| {
        procs
            .iter()
            .enumerate()
            .all(|(i, p)| !correct.contains(ProcessId(i)) || p.decision().is_some())
    });
    let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
    check_consensus(sim.trace(), &props, &setup.pattern)
}

/// **Corollary 2, the paper's construction route**: consensus via
/// Σ-backed registers plus Ω (Disk-Paxos over hosted ABD registers).
///
/// # Errors
///
/// Returns the consensus violation, should one occur.
pub fn consensus_via_registers(
    setup: &RunSetup,
    proposals: &[u64],
) -> Result<ConsensusStats<u64>, ConsensusViolation<u64>> {
    let n = setup.n();
    assert_eq!(proposals.len(), n, "one proposal per process");
    let fd = PairOracle::new(
        OmegaOracle::new(&setup.pattern, setup.stabilize, setup.seed),
        SigmaOracle::new(&setup.pattern, setup.stabilize, setup.seed),
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n)
            .map(|_| RegisterOmegaConsensus::<u64>::new(n))
            .collect(),
        setup.pattern.clone(),
        fd,
        RandomFair::new(setup.seed),
    );
    for (p, &v) in proposals.iter().enumerate() {
        sim.schedule_invoke(ProcessId(p), 0, v);
    }
    let correct = setup.pattern.correct();
    sim.run_until(move |_, procs| {
        procs
            .iter()
            .enumerate()
            .all(|(i, p)| !correct.contains(ProcessId(i)) || p.decision().is_some())
    });
    let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
    check_consensus(sim.trace(), &props, &setup.pattern)
}

/// **Baseline (experiment E9)**: Chandra–Toueg ◇S consensus. Conforms
/// only under a correct majority; used to exhibit the crossover against
/// (Ω, Σ).
///
/// # Errors
///
/// Returns the consensus violation — including the expected
/// `Termination` failures when a majority has crashed.
pub fn chandra_toueg_consensus(
    setup: &RunSetup,
    proposals: &[u64],
) -> Result<ConsensusStats<u64>, ConsensusViolation<u64>> {
    let n = setup.n();
    assert_eq!(proposals.len(), n, "one proposal per process");
    let fd = EventuallyStrongOracle::new(&setup.pattern, setup.stabilize, setup.seed);
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n).map(|_| ChandraToueg::<u64>::new()).collect(),
        setup.pattern.clone(),
        fd,
        RandomFair::new(setup.seed),
    );
    for (p, &v) in proposals.iter().enumerate() {
        sim.schedule_invoke(ProcessId(p), 0, v);
    }
    let correct = setup.pattern.correct();
    sim.run_until(move |_, procs| {
        procs
            .iter()
            .enumerate()
            .all(|(i, p)| !correct.contains(ProcessId(i)) || p.decision().is_some())
    });
    let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
    check_consensus(sim.trace(), &props, &setup.pattern)
}

/// **Corollary 7, sufficiency (Figure 2)**: Ψ solves QC. `mode` selects
/// which behaviour the Ψ history commits to (`Fs` requires the pattern to
/// contain a crash).
///
/// # Errors
///
/// Returns the QC violation, should one occur.
pub fn psi_solves_qc(
    setup: &RunSetup,
    mode: PsiMode,
    proposals: &[u64],
) -> Result<QcStats<u64>, QcViolation<u64>> {
    let n = setup.n();
    assert_eq!(proposals.len(), n, "one proposal per process");
    let psi = PsiOracle::new(&setup.pattern, mode, setup.stabilize, 30, setup.seed);
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n).map(|_| PsiQc::<u64>::new()).collect(),
        setup.pattern.clone(),
        psi,
        RandomFair::new(setup.seed),
    );
    for (p, &v) in proposals.iter().enumerate() {
        sim.schedule_invoke(ProcessId(p), 0, v);
    }
    let correct = setup.pattern.correct();
    sim.run_until(move |_, procs| {
        procs
            .iter()
            .enumerate()
            .all(|(i, p)| !correct.contains(ProcessId(i)) || p.decision().is_some())
    });
    let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
    check_qc(sim.trace(), &props, &setup.pattern)
}

/// **Corollary 7, necessity (Figure 3)**: the transformation extracts a
/// conforming Ψ from a QC algorithm and its detector.
///
/// # Errors
///
/// Returns the Ψ-spec violation, should one occur.
pub fn qc_yields_psi(setup: &RunSetup, mode: PsiMode) -> Result<PsiStats, PsiViolation> {
    let n = setup.n();
    let psi = PsiOracle::new(&setup.pattern, mode, setup.stabilize, 20, setup.seed);
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n)
            .map(|_| PsiExtraction::new(PsiQcFamily).with_eval_interval(48))
            .collect(),
        setup.pattern.clone(),
        psi,
        RandomFair::new(setup.seed),
    );
    sim.run();
    let h = history_from_outputs(sim.trace(), |v: &PsiValue| Some(v.clone()));
    check_psi(&h, &setup.pattern)
}

/// **Theorem 8(a) / Figure 4**: QC + FS solve NBAC. `votes[p] = None`
/// means `p` never votes (e.g. it crashes first).
///
/// # Errors
///
/// Returns the NBAC violation, should one occur.
pub fn qc_fs_solve_nbac(
    setup: &RunSetup,
    mode: PsiMode,
    votes: &[Option<Vote>],
) -> Result<NbacStats, NbacViolation> {
    let n = setup.n();
    assert_eq!(votes.len(), n, "one vote slot per process");
    let fd = PairOracle::new(
        FsOracle::new(&setup.pattern, 30, setup.seed),
        PsiOracle::new(&setup.pattern, mode, setup.stabilize, 30, setup.seed),
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n)
            .map(|_| NbacFromQc::new(n, PsiQc::<u8>::new()))
            .collect(),
        setup.pattern.clone(),
        fd,
        RandomFair::new(setup.seed),
    );
    for (p, v) in votes.iter().enumerate() {
        if let Some(v) = v {
            sim.schedule_invoke(ProcessId(p), 0, *v);
        }
    }
    let correct = setup.pattern.correct();
    sim.run_until(move |_, procs| {
        procs
            .iter()
            .enumerate()
            .all(|(i, p)| !correct.contains(ProcessId(i)) || p.decision().is_some())
    });
    check_nbac(sim.trace(), &setup.pattern)
}

/// **Theorem 8(b) / Figure 5**: NBAC solves QC (run over the in-repo
/// NBAC, which is Figure 4 over Ψ-QC).
///
/// # Errors
///
/// Returns the QC violation, should one occur.
pub fn nbac_yields_qc(
    setup: &RunSetup,
    mode: PsiMode,
    proposals: &[Option<u8>],
) -> Result<QcStats<u8>, QcViolation<u8>> {
    let n = setup.n();
    assert_eq!(proposals.len(), n, "one proposal slot per process");
    let fd = PairOracle::new(
        FsOracle::new(&setup.pattern, 30, setup.seed),
        PsiOracle::new(&setup.pattern, mode, setup.stabilize, 30, setup.seed),
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n)
            .map(|_| QcFromNbac::new(n, NbacFromQc::new(n, PsiQc::<u8>::new())))
            .collect(),
        setup.pattern.clone(),
        fd,
        RandomFair::new(setup.seed),
    );
    for (p, v) in proposals.iter().enumerate() {
        if let Some(v) = v {
            sim.schedule_invoke(ProcessId(p), 0, *v);
        }
    }
    let correct = setup.pattern.correct();
    sim.run_until(move |_, procs| {
        procs
            .iter()
            .enumerate()
            .all(|(i, p)| !correct.contains(ProcessId(i)) || p.decision().is_some())
    });
    check_qc(sim.trace(), proposals, &setup.pattern)
}

/// **Theorem 8(b), second half**: repeated unanimous-`Yes` NBAC
/// implements FS.
///
/// # Errors
///
/// Returns the FS violation, should one occur.
pub fn nbac_yields_fs(setup: &RunSetup, mode: PsiMode) -> Result<FsStats, FsViolation> {
    let n = setup.n();
    let fd = PairOracle::new(
        FsOracle::new(&setup.pattern, 30, setup.seed),
        PsiOracle::new(&setup.pattern, mode, setup.stabilize, 30, setup.seed),
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(setup.horizon),
        (0..n)
            .map(|_| FsFromNbac::new(move || NbacFromQc::new(n, PsiQc::<u8>::new())))
            .collect(),
        setup.pattern.clone(),
        fd,
        RandomFair::new(setup.seed),
    );
    sim.run();
    let h = history_from_outputs(sim.trace(), |s: &Signal| Some(*s));
    check_fs(&h, &setup.pattern)
}

/// Convenience: the decision of a QC stats object, for terse assertions.
pub fn qc_decided_value<V: Clone>(stats: &QcStats<V>) -> Option<QcDecision<V>> {
    stats.decision.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfd_nbac::Decision;

    fn majority_crash_pattern() -> FailurePattern {
        FailurePattern::with_crashes(
            5,
            &[
                (ProcessId(0), 100),
                (ProcessId(1), 200),
                (ProcessId(2), 300),
            ],
        )
    }

    #[test]
    fn theorem1_sufficiency_harness() {
        let setup = RunSetup::new(majority_crash_pattern()).with_horizon(40_000);
        let ev = sigma_implements_registers(&setup).expect("linearizable");
        assert!(ev.completed_ops > 0);
        assert!(ev.post_crash_completions > 0);
    }

    #[test]
    fn theorem1_necessity_harness() {
        let setup = RunSetup::new(FailurePattern::failure_free(3)).with_horizon(30_000);
        let stats = registers_yield_sigma(&setup).expect("Σ extracted");
        assert!(stats.samples > 3);
    }

    #[test]
    fn corollary4_sufficiency_harness() {
        let setup = RunSetup::new(majority_crash_pattern()).with_horizon(60_000);
        let stats = omega_sigma_solves_consensus(&setup, &[1, 2, 3, 4, 5]).expect("consensus");
        assert!(stats.decision.is_some());
    }

    #[test]
    fn corollary3_consensus_to_sigma_chain() {
        let setup = RunSetup::new(FailurePattern::failure_free(3))
            .with_seed(3)
            .with_horizon(120_000);
        let stats = consensus_yields_sigma(&setup).expect("Σ from consensus via SMR + Fig 1");
        assert!(
            stats.samples > 6,
            "extraction should emit quorums beyond the initial Π"
        );
    }

    #[test]
    fn corollary3_chain_sheds_crashed_processes() {
        // The completeness half with a real crash: the extracted Σ must
        // eventually stop quoting the crashed process, which requires the
        // SMR registers to report genuine (quorum) participants.
        let pattern = FailurePattern::with_crashes(3, &[(ProcessId(2), 400)]);
        let setup = RunSetup::new(pattern).with_seed(5).with_horizon(250_000);
        let stats = consensus_yields_sigma(&setup).expect("Σ conforms despite the crash");
        assert!(stats.stabilization_time().is_some());
    }

    #[test]
    fn corollary3_consensus_to_omega_sigma_chain() {
        use wfd_detectors::check::PsiPhase;
        let setup = RunSetup::new(FailurePattern::failure_free(3))
            .with_seed(2)
            .with_horizon(150_000);
        let stats =
            consensus_yields_omega_sigma(&setup).expect("(Ω,Σ)-mode Ψ from consensus-as-QC");
        assert_eq!(stats.phase, PsiPhase::OmegaSigma);
    }

    #[test]
    fn corollary2_register_route_harness() {
        let setup = RunSetup::new(FailurePattern::failure_free(3)).with_horizon(80_000);
        let stats = consensus_via_registers(&setup, &[7, 8, 9]).expect("consensus");
        assert!(stats.decision.is_some());
    }

    #[test]
    fn baseline_ct_works_with_majority_only() {
        let ok = RunSetup::new(FailurePattern::with_crashes(5, &[(ProcessId(0), 50)]))
            .with_horizon(60_000);
        chandra_toueg_consensus(&ok, &[1, 2, 3, 4, 5]).expect("CT with majority");

        // Crash the majority at t = 0: with late crash times a fast
        // schedule can legitimately decide before any crash occurs, so
        // an immediate majority loss is the only schedule-independent way
        // to exhibit the blocking.
        let bad = RunSetup::new(FailurePattern::with_crashes(
            5,
            &[(ProcessId(0), 0), (ProcessId(1), 0), (ProcessId(2), 0)],
        ))
        .with_horizon(20_000);
        let err = chandra_toueg_consensus(&bad, &[1, 2, 3, 4, 5])
            .expect_err("CT must fail without a majority");
        assert!(matches!(err, ConsensusViolation::Termination { .. }));
    }

    #[test]
    fn corollary7_sufficiency_harness() {
        let setup = RunSetup::new(FailurePattern::failure_free(3)).with_horizon(60_000);
        let stats = psi_solves_qc(&setup, PsiMode::OmegaSigma, &[1, 0, 1]).expect("QC solved");
        assert!(matches!(stats.decision, Some(QcDecision::Value(_))));

        let crashy = RunSetup::new(FailurePattern::with_crashes(3, &[(ProcessId(1), 30)]))
            .with_horizon(40_000);
        let stats = psi_solves_qc(&crashy, PsiMode::Fs, &[1, 0, 1]).expect("QC solved");
        assert_eq!(stats.decision, Some(QcDecision::Quit));
    }

    #[test]
    fn theorem8_nbac_harnesses() {
        let setup = RunSetup::new(FailurePattern::failure_free(3)).with_horizon(80_000);
        let votes = vec![Some(Vote::Yes); 3];
        let stats = qc_fs_solve_nbac(&setup, PsiMode::OmegaSigma, &votes).expect("NBAC");
        assert_eq!(stats.decision, Some(Decision::Commit));

        let qc = nbac_yields_qc(&setup, PsiMode::OmegaSigma, &[Some(1), Some(0), Some(1)])
            .expect("QC from NBAC");
        assert_eq!(qc.decision, Some(QcDecision::Value(0)));
    }

    #[test]
    fn nbac_yields_fs_harness() {
        let setup = RunSetup::new(FailurePattern::with_crashes(3, &[(ProcessId(2), 500)]))
            .with_horizon(80_000)
            .with_stabilize(50);
        let stats = nbac_yields_fs(&setup, PsiMode::OmegaSigma).expect("FS from NBAC");
        assert!(stats.first_red.is_some());
    }
}
