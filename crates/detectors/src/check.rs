//! Checkers deciding whether a sampled history conforms to a detector's
//! defining predicate.
//!
//! The paper's specifications are statements about *infinite* histories
//! ("eventually … forever"). On a finite run we check the standard
//! finite-trace proxy: the safety part must hold at every sample, and the
//! liveness ("eventually-forever") part must have *stabilised by the end
//! of the recorded history* — i.e. a qualifying suffix exists. Harnesses
//! are expected to run well past the oracles' stabilisation parameters so
//! that a failed check is a real violation rather than a too-short run.

use crate::history::History;
use crate::value::{PsiValue, Signal};
use std::fmt;
use wfd_sim::{FailurePattern, ProcessId, ProcessSet, Time};

/// A violation of the Σ specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SigmaViolation {
    /// Two sampled quorums do not intersect.
    Intersection {
        /// First sample (process, time, quorum).
        a: (ProcessId, Time, ProcessSet),
        /// Second sample.
        b: (ProcessId, Time, ProcessSet),
    },
    /// A correct process's final quorum still contains a faulty process.
    Completeness {
        /// The correct process whose quorums never clean up.
        p: ProcessId,
        /// Time of its last sample.
        t: Time,
        /// The offending quorum.
        quorum: ProcessSet,
    },
}

impl fmt::Display for SigmaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigmaViolation::Intersection { a, b } => write!(
                f,
                "Σ intersection violated: {}@{} output {} vs {}@{} output {}",
                a.0, a.1, a.2, b.0, b.1, b.2
            ),
            SigmaViolation::Completeness { p, t, quorum } => write!(
                f,
                "Σ completeness violated: correct {p} still outputs {quorum} at {t}"
            ),
        }
    }
}

impl std::error::Error for SigmaViolation {}

/// Diagnostics from a successful Σ check.
#[derive(Clone, Debug, Default)]
pub struct SigmaStats {
    /// Number of samples examined.
    pub samples: usize,
    /// Per correct process: the earliest time from which all its sampled
    /// quorums contain only correct processes (`None` if it had no
    /// samples).
    pub completeness_times: Vec<Option<Time>>,
}

impl SigmaStats {
    /// The latest per-process completeness time — when the whole system's
    /// Σ output had stabilised.
    pub fn stabilization_time(&self) -> Option<Time> {
        self.completeness_times.iter().flatten().max().copied()
    }
}

/// Check a quorum history against Σ's intersection + completeness.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_sigma(
    h: &History<ProcessSet>,
    pattern: &FailurePattern,
) -> Result<SigmaStats, SigmaViolation> {
    let samples = h.samples();
    // Intersection: every pair (including pairs at the same process).
    // Histories repeat the same quorum many times, so deduplicate first:
    // pairwise intersection only depends on the distinct sets.
    let mut distinct: Vec<(ProcessId, Time, &ProcessSet)> = Vec::new();
    for (p, t, q) in samples {
        if !distinct.iter().any(|(_, _, seen)| *seen == q) {
            distinct.push((*p, *t, q));
        }
    }
    for (i, a) in distinct.iter().enumerate() {
        for b in &distinct[i..] {
            if !a.2.intersects(b.2) {
                return Err(SigmaViolation::Intersection {
                    a: (a.0, a.1, *a.2),
                    b: (b.0, b.1, *b.2),
                });
            }
        }
    }
    // Completeness: each correct process's samples must end with a clean
    // suffix.
    let correct = pattern.correct();
    let mut completeness_times = vec![None; pattern.n()];
    for p in correct.iter() {
        let mut stabilized_at: Option<Time> = None;
        let mut last_bad: Option<(Time, ProcessSet)> = None;
        for (t, q) in h.samples_of(p) {
            if q.is_subset(&correct) {
                stabilized_at.get_or_insert(t);
            } else {
                stabilized_at = None;
                last_bad = Some((t, *q));
            }
        }
        match (stabilized_at, last_bad) {
            (Some(t), _) => completeness_times[p.index()] = Some(t),
            (None, Some((t, quorum))) => return Err(SigmaViolation::Completeness { p, t, quorum }),
            (None, None) => {} // no samples at all: vacuous
        }
    }
    Ok(SigmaStats {
        samples: samples.len(),
        completeness_times,
    })
}

/// A violation of the Ω specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OmegaViolation {
    /// Two correct processes ended the run trusting different leaders.
    Disagreement {
        /// First process and its final leader.
        p: (ProcessId, ProcessId),
        /// Second process and its final leader.
        q: (ProcessId, ProcessId),
    },
    /// The common final leader is a faulty process.
    FaultyLeader {
        /// The faulty leader everyone converged to.
        leader: ProcessId,
    },
}

impl fmt::Display for OmegaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmegaViolation::Disagreement { p, q } => write!(
                f,
                "Ω violated: {} ends trusting {} but {} ends trusting {}",
                p.0, p.1, q.0, q.1
            ),
            OmegaViolation::FaultyLeader { leader } => {
                write!(f, "Ω violated: final common leader {leader} is faulty")
            }
        }
    }
}

impl std::error::Error for OmegaViolation {}

/// Diagnostics from a successful Ω check.
#[derive(Clone, Debug)]
pub struct OmegaStats {
    /// Number of samples examined.
    pub samples: usize,
    /// The common eventual leader (if any correct process sampled at all).
    pub leader: Option<ProcessId>,
    /// Earliest time from which every sample at every correct process
    /// equals the leader.
    pub stabilization_time: Option<Time>,
}

/// Check a leader history against Ω: all correct processes converge to the
/// same correct leader by the end of the history.
///
/// # Errors
///
/// Returns the violation preventing convergence.
pub fn check_omega(
    h: &History<ProcessId>,
    pattern: &FailurePattern,
) -> Result<OmegaStats, OmegaViolation> {
    let correct = pattern.correct();
    let mut finals: Vec<(ProcessId, ProcessId)> = Vec::new();
    for p in correct.iter() {
        if let Some((_, leader)) = h.last_of(p) {
            finals.push((p, *leader));
        }
    }
    let Some(&(first_p, leader)) = finals.first() else {
        return Ok(OmegaStats {
            samples: h.len(),
            leader: None,
            stabilization_time: None,
        });
    };
    for &(p, l) in &finals[1..] {
        if l != leader {
            return Err(OmegaViolation::Disagreement {
                p: (first_p, leader),
                q: (p, l),
            });
        }
    }
    if !correct.contains(leader) {
        return Err(OmegaViolation::FaultyLeader { leader });
    }
    // Stabilisation: earliest time from which all correct samples == leader.
    let mut stab: Option<Time> = None;
    for p in correct.iter() {
        let mut p_stab: Option<Time> = None;
        for (t, l) in h.samples_of(p) {
            if *l == leader {
                p_stab.get_or_insert(t);
            } else {
                p_stab = None;
            }
        }
        if let Some(t) = p_stab {
            stab = Some(stab.map_or(t, |s: Time| s.max(t)));
        }
    }
    Ok(OmegaStats {
        samples: h.len(),
        leader: Some(leader),
        stabilization_time: stab,
    })
}

/// A violation of the FS specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsViolation {
    /// Red was output at a time when no process had crashed.
    UntruthfulRed {
        /// The process that saw red.
        p: ProcessId,
        /// When it saw red.
        t: Time,
    },
    /// A failure occurred but a correct process's history does not end in
    /// a permanent red suffix.
    MissedFailure {
        /// The correct process whose output never settled on red.
        p: ProcessId,
    },
}

impl fmt::Display for FsViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsViolation::UntruthfulRed { p, t } => {
                write!(f, "FS violated: {p} saw red at {t} before any failure")
            }
            FsViolation::MissedFailure { p } => write!(
                f,
                "FS violated: a failure occurred but correct {p} does not end permanently red"
            ),
        }
    }
}

impl std::error::Error for FsViolation {}

/// Diagnostics from a successful FS check.
#[derive(Clone, Debug)]
pub struct FsStats {
    /// Number of samples examined.
    pub samples: usize,
    /// Earliest red sample, if any.
    pub first_red: Option<Time>,
}

/// Check a signal history against FS: red only after a failure; if a
/// failure occurs, correct processes end permanently red.
///
/// Correct processes with no samples after the first crash are treated as
/// vacuous (they were never consulted late enough to falsify liveness).
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_fs(h: &History<Signal>, pattern: &FailurePattern) -> Result<FsStats, FsViolation> {
    let first_crash = pattern.first_crash_time();
    let mut first_red = None;
    for &(p, t, s) in h.samples() {
        if s.is_red() {
            first_red.get_or_insert(t);
            if first_crash.is_none_or(|fc| t < fc) {
                return Err(FsViolation::UntruthfulRed { p, t });
            }
        }
    }
    if first_crash.is_some() {
        for p in pattern.correct().iter() {
            // Permanent-red suffix: the last sample must be red (and we
            // require it only of processes sampled at all).
            if let Some((_, s)) = h.last_of(p) {
                if !s.is_red() {
                    return Err(FsViolation::MissedFailure { p });
                }
            }
        }
    }
    Ok(FsStats {
        samples: h.len(),
        first_red,
    })
}

/// A violation of the Ψ specification.
#[derive(Clone, Debug)]
pub enum PsiViolation {
    /// A process output ⊥ after having already switched.
    BotAfterSwitch {
        /// Offender.
        p: ProcessId,
        /// Time of the late ⊥.
        t: Time,
    },
    /// A single process mixed (Ω, Σ) and FS outputs.
    LocalModeMix {
        /// Offender.
        p: ProcessId,
    },
    /// Two processes committed to different modes.
    GlobalModeMix {
        /// A process in (Ω, Σ) mode.
        consensus: ProcessId,
        /// A process in FS mode.
        fs: ProcessId,
    },
    /// FS mode was chosen although no failure had occurred by the first
    /// switch.
    PrematureFsMode {
        /// First process to switch.
        p: ProcessId,
        /// Its switch time.
        t: Time,
    },
    /// The (Ω, Σ) phase violates Ω.
    Omega(OmegaViolation),
    /// The (Ω, Σ) phase violates Σ.
    Sigma(SigmaViolation),
    /// The FS phase violates FS.
    Fs(FsViolation),
}

impl fmt::Display for PsiViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsiViolation::BotAfterSwitch { p, t } => {
                write!(f, "Ψ violated: {p} output ⊥ at {t} after switching")
            }
            PsiViolation::LocalModeMix { p } => {
                write!(f, "Ψ violated: {p} mixed (Ω,Σ) and FS outputs")
            }
            PsiViolation::GlobalModeMix { consensus, fs } => write!(
                f,
                "Ψ violated: {consensus} switched to (Ω,Σ) but {fs} switched to FS"
            ),
            PsiViolation::PrematureFsMode { p, t } => write!(
                f,
                "Ψ violated: {p} switched to FS mode at {t} before any failure"
            ),
            PsiViolation::Omega(v) => write!(f, "Ψ/(Ω,Σ) phase: {v}"),
            PsiViolation::Sigma(v) => write!(f, "Ψ/(Ω,Σ) phase: {v}"),
            PsiViolation::Fs(v) => write!(f, "Ψ/FS phase: {v}"),
        }
    }
}

impl std::error::Error for PsiViolation {}

/// Which behaviour a conforming Ψ history settled on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PsiPhase {
    /// Every recorded sample was still ⊥.
    AllBot,
    /// The history switched to (Ω, Σ).
    OmegaSigma,
    /// The history switched to FS.
    Fs,
}

/// Diagnostics from a successful Ψ check.
#[derive(Clone, Debug)]
pub struct PsiStats {
    /// Number of samples examined.
    pub samples: usize,
    /// The mode the history settled on.
    pub phase: PsiPhase,
    /// Per-process switch times (first non-⊥ sample).
    pub switch_times: Vec<Option<Time>>,
}

/// Check a Ψ-valued history against the Ψ specification: per-process
/// ⊥-prefix, globally consistent mode, FS mode only after a real failure,
/// and the post-switch samples conforming to (Ω, Σ) or FS respectively.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_psi(
    h: &History<PsiValue>,
    pattern: &FailurePattern,
) -> Result<PsiStats, PsiViolation> {
    let n = pattern.n();
    let mut switch_times: Vec<Option<Time>> = vec![None; n];
    let mut mode: Vec<Option<PsiPhase>> = vec![None; n];
    let mut mode_rep: [Option<ProcessId>; 2] = [None, None]; // [consensus, fs]

    for &(p, t, ref v) in h.samples() {
        match v {
            PsiValue::Bot => {
                if switch_times[p.index()].is_some() {
                    return Err(PsiViolation::BotAfterSwitch { p, t });
                }
            }
            PsiValue::OmegaSigma(_) => {
                switch_times[p.index()].get_or_insert(t);
                match mode[p.index()] {
                    Some(PsiPhase::Fs) => return Err(PsiViolation::LocalModeMix { p }),
                    _ => mode[p.index()] = Some(PsiPhase::OmegaSigma),
                }
                mode_rep[0].get_or_insert(p);
            }
            PsiValue::Fs(_) => {
                switch_times[p.index()].get_or_insert(t);
                match mode[p.index()] {
                    Some(PsiPhase::OmegaSigma) => return Err(PsiViolation::LocalModeMix { p }),
                    _ => mode[p.index()] = Some(PsiPhase::Fs),
                }
                mode_rep[1].get_or_insert(p);
                // FS choice is legitimate only if a failure occurred by the
                // switch.
                if pattern.first_crash_time().is_none_or(|fc| t < fc) {
                    return Err(PsiViolation::PrematureFsMode { p, t });
                }
            }
        }
    }

    if let (Some(c), Some(f)) = (mode_rep[0], mode_rep[1]) {
        return Err(PsiViolation::GlobalModeMix {
            consensus: c,
            fs: f,
        });
    }

    let phase = if mode_rep[0].is_some() {
        PsiPhase::OmegaSigma
    } else if mode_rep[1].is_some() {
        PsiPhase::Fs
    } else {
        PsiPhase::AllBot
    };

    // Check the post-switch projection against the component spec.
    match phase {
        PsiPhase::OmegaSigma => {
            let projected = h.filter(|_, _, v| v.as_omega_sigma().is_some());
            let omega_h = projected.map(|v| v.as_omega_sigma().expect("filtered").leader);
            let sigma_h = projected.map(|v| v.as_omega_sigma().expect("filtered").quorum);
            check_omega(&omega_h, pattern).map_err(PsiViolation::Omega)?;
            check_sigma(&sigma_h, pattern).map_err(PsiViolation::Sigma)?;
        }
        PsiPhase::Fs => {
            let fs_h = h
                .filter(|_, _, v| v.as_fs().is_some())
                .map(|v| v.as_fs().expect("filtered"));
            check_fs(&fs_h, pattern).map_err(PsiViolation::Fs)?;
        }
        PsiPhase::AllBot => {}
    }

    Ok(PsiStats {
        samples: h.len(),
        phase,
        switch_times,
    })
}

/// Check an `(Ω, Σ)`-valued history by checking both projections.
///
/// # Errors
///
/// Returns `Err(Ok(v))`-style composite via [`OmegaSigmaViolation`].
pub fn check_omega_sigma(
    h: &History<(ProcessId, ProcessSet)>,
    pattern: &FailurePattern,
) -> Result<(OmegaStats, SigmaStats), OmegaSigmaViolation> {
    let omega_h = h.map(|(l, _)| *l);
    let sigma_h = h.map(|(_, q)| *q);
    let o = check_omega(&omega_h, pattern).map_err(OmegaSigmaViolation::Omega)?;
    let s = check_sigma(&sigma_h, pattern).map_err(OmegaSigmaViolation::Sigma)?;
    Ok((o, s))
}

/// A violation of the (Ω, Σ) specification.
#[derive(Clone, Debug)]
pub enum OmegaSigmaViolation {
    /// The Ω component is violated.
    Omega(OmegaViolation),
    /// The Σ component is violated.
    Sigma(SigmaViolation),
}

impl fmt::Display for OmegaSigmaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmegaSigmaViolation::Omega(v) => write!(f, "(Ω,Σ): {v}"),
            OmegaSigmaViolation::Sigma(v) => write!(f, "(Ω,Σ): {v}"),
        }
    }
}

impl std::error::Error for OmegaSigmaViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::{FsOracle, OmegaOracle, PsiMode, PsiOracle, SigmaOracle};
    use wfd_sim::FdOracle;

    fn sample_history<O: FdOracle>(
        oracle: &mut O,
        n: usize,
        horizon: Time,
        stride: Time,
    ) -> History<O::Value> {
        let mut h = History::new(n);
        for t in (0..horizon).step_by(stride as usize) {
            for p in ProcessId::all(n) {
                h.record(p, t, oracle.query(p, t));
            }
        }
        h
    }

    fn pset(ids: &[usize]) -> ProcessSet {
        ids.iter().copied().map(ProcessId).collect()
    }

    #[test]
    fn sigma_oracle_history_passes_sigma_check() {
        let f = FailurePattern::with_crashes(5, &[(ProcessId(1), 20), (ProcessId(4), 60)]);
        let mut o = SigmaOracle::new(&f, 100, 3).with_jitter(30);
        let h = sample_history(&mut o, 5, 400, 3);
        let stats = check_sigma(&h, &f).expect("Σ oracle must conform");
        // Every correct process stabilises no later than its oracle
        // stabilisation instant (possibly earlier: noise can happen to be
        // clean once all faulty processes have crashed).
        assert!(stats.stabilization_time().unwrap() <= 130);
    }

    #[test]
    fn sigma_check_catches_intersection_violation() {
        let mut h = History::new(4);
        h.record(ProcessId(0), 0, pset(&[0, 1]));
        h.record(ProcessId(1), 1, pset(&[2, 3]));
        let f = FailurePattern::failure_free(4);
        let err = check_sigma(&h, &f).unwrap_err();
        assert!(matches!(err, SigmaViolation::Intersection { .. }));
        assert!(err.to_string().contains("intersection"));
    }

    #[test]
    fn sigma_check_catches_completeness_violation() {
        let f = FailurePattern::with_crashes(3, &[(ProcessId(2), 0)]);
        let mut h = History::new(3);
        // p0 (correct) keeps quoting the crashed p2 forever.
        for t in 0..10 {
            h.record(ProcessId(0), t, pset(&[0, 2]));
        }
        let err = check_sigma(&h, &f).unwrap_err();
        assert!(matches!(err, SigmaViolation::Completeness { p, .. } if p == ProcessId(0)));
    }

    #[test]
    fn sigma_check_allows_dirty_prefix() {
        let f = FailurePattern::with_crashes(3, &[(ProcessId(2), 0)]);
        let mut h = History::new(3);
        h.record(ProcessId(0), 0, pset(&[0, 2]));
        h.record(ProcessId(0), 1, pset(&[0, 1]));
        h.record(ProcessId(1), 2, pset(&[0, 1]));
        let stats = check_sigma(&h, &f).expect("dirty prefix then clean suffix conforms");
        assert_eq!(stats.completeness_times[0], Some(1));
    }

    #[test]
    fn omega_oracle_history_passes_omega_check() {
        let f = FailurePattern::with_crashes(4, &[(ProcessId(0), 10)]);
        let mut o = OmegaOracle::new(&f, 50, 1).with_jitter(25);
        let h = sample_history(&mut o, 4, 300, 2);
        let stats = check_omega(&h, &f).expect("Ω oracle must conform");
        assert_eq!(stats.leader, Some(ProcessId(1)));
        assert!(stats.stabilization_time.unwrap() <= 75);
    }

    #[test]
    fn omega_check_catches_disagreement() {
        let f = FailurePattern::failure_free(2);
        let mut h = History::new(2);
        h.record(ProcessId(0), 0, ProcessId(0));
        h.record(ProcessId(1), 1, ProcessId(1));
        assert!(matches!(
            check_omega(&h, &f).unwrap_err(),
            OmegaViolation::Disagreement { .. }
        ));
    }

    #[test]
    fn omega_check_catches_faulty_leader() {
        let f = FailurePattern::with_crashes(2, &[(ProcessId(1), 0)]);
        let mut h = History::new(2);
        h.record(ProcessId(0), 5, ProcessId(1));
        assert!(matches!(
            check_omega(&h, &f).unwrap_err(),
            OmegaViolation::FaultyLeader { leader } if leader == ProcessId(1)
        ));
    }

    #[test]
    fn omega_check_on_empty_history_is_vacuous() {
        let f = FailurePattern::failure_free(2);
        let h: History<ProcessId> = History::new(2);
        let stats = check_omega(&h, &f).expect("vacuous");
        assert_eq!(stats.leader, None);
    }

    #[test]
    fn fs_oracle_history_passes_fs_check() {
        let f = FailurePattern::with_crashes(3, &[(ProcessId(1), 30)]);
        let mut o = FsOracle::new(&f, 10, 4);
        let h = sample_history(&mut o, 3, 200, 5);
        let stats = check_fs(&h, &f).expect("FS oracle must conform");
        assert!(stats.first_red.unwrap() >= 30);
    }

    #[test]
    fn fs_check_catches_untruthful_red() {
        let f = FailurePattern::with_crashes(2, &[(ProcessId(0), 50)]);
        let mut h = History::new(2);
        h.record(ProcessId(1), 10, Signal::Red);
        assert!(matches!(
            check_fs(&h, &f).unwrap_err(),
            FsViolation::UntruthfulRed { t: 10, .. }
        ));
    }

    #[test]
    fn fs_check_catches_missed_failure() {
        let f = FailurePattern::with_crashes(2, &[(ProcessId(0), 5)]);
        let mut h = History::new(2);
        h.record(ProcessId(1), 100, Signal::Green);
        assert!(matches!(
            check_fs(&h, &f).unwrap_err(),
            FsViolation::MissedFailure { p } if p == ProcessId(1)
        ));
    }

    #[test]
    fn fs_check_failure_free_all_green_ok() {
        let f = FailurePattern::failure_free(2);
        let mut h = History::new(2);
        h.record(ProcessId(0), 0, Signal::Green);
        h.record(ProcessId(1), 100, Signal::Green);
        let stats = check_fs(&h, &f).expect("all green conforms");
        assert_eq!(stats.first_red, None);
    }

    #[test]
    fn psi_oracle_histories_pass_psi_check_in_both_modes() {
        // Consensus mode.
        let f1 = FailurePattern::failure_free(3);
        let mut psi1 = PsiOracle::new(&f1, PsiMode::OmegaSigma, 40, 20, 5);
        let h1 = sample_history(&mut psi1, 3, 400, 3);
        let s1 = check_psi(&h1, &f1).expect("consensus-mode Ψ conforms");
        assert_eq!(s1.phase, PsiPhase::OmegaSigma);
        assert!(s1.switch_times.iter().all(|t| t.is_some()));

        // FS mode (requires a failure).
        let f2 = FailurePattern::with_crashes(3, &[(ProcessId(0), 25)]);
        let mut psi2 = PsiOracle::new(&f2, PsiMode::Fs, 0, 15, 6);
        let h2 = sample_history(&mut psi2, 3, 400, 3);
        let s2 = check_psi(&h2, &f2).expect("fs-mode Ψ conforms");
        assert_eq!(s2.phase, PsiPhase::Fs);
    }

    #[test]
    fn psi_check_catches_bot_after_switch() {
        let f = FailurePattern::failure_free(2);
        let mut h = History::new(2);
        h.record(
            ProcessId(0),
            0,
            PsiValue::OmegaSigma(crate::value::OmegaSigma {
                leader: ProcessId(0),
                quorum: pset(&[0, 1]),
            }),
        );
        h.record(ProcessId(0), 1, PsiValue::Bot);
        assert!(matches!(
            check_psi(&h, &f).unwrap_err(),
            PsiViolation::BotAfterSwitch { .. }
        ));
    }

    #[test]
    fn psi_check_catches_global_mode_mix() {
        let f = FailurePattern::with_crashes(2, &[(ProcessId(1), 0)]);
        let mut h = History::new(2);
        h.record(
            ProcessId(0),
            1,
            PsiValue::OmegaSigma(crate::value::OmegaSigma {
                leader: ProcessId(0),
                quorum: pset(&[0]),
            }),
        );
        h.record(ProcessId(1), 2, PsiValue::Fs(Signal::Red));
        assert!(matches!(
            check_psi(&h, &f).unwrap_err(),
            PsiViolation::GlobalModeMix { .. }
        ));
    }

    #[test]
    fn psi_check_catches_premature_fs_mode() {
        let f = FailurePattern::with_crashes(2, &[(ProcessId(1), 100)]);
        let mut h = History::new(2);
        h.record(ProcessId(0), 10, PsiValue::Fs(Signal::Green));
        assert!(matches!(
            check_psi(&h, &f).unwrap_err(),
            PsiViolation::PrematureFsMode { t: 10, .. }
        ));
    }

    #[test]
    fn psi_check_all_bot_is_conforming_prefix() {
        let f = FailurePattern::failure_free(2);
        let mut h = History::new(2);
        h.record(ProcessId(0), 0, PsiValue::Bot);
        h.record(ProcessId(1), 5, PsiValue::Bot);
        let stats = check_psi(&h, &f).expect("all-⊥ prefix conforms");
        assert_eq!(stats.phase, PsiPhase::AllBot);
    }

    #[test]
    fn omega_sigma_pair_check() {
        let f = FailurePattern::with_crashes(4, &[(ProcessId(3), 10)]);
        let mut omega = OmegaOracle::new(&f, 50, 1);
        let mut sigma = SigmaOracle::new(&f, 50, 1);
        let mut h = History::new(4);
        for t in (0..300).step_by(4) {
            for p in ProcessId::all(4) {
                h.record(p, t, (omega.query(p, t), sigma.query(p, t)));
            }
        }
        let (o, s) = check_omega_sigma(&h, &f).expect("(Ω,Σ) conforms");
        assert_eq!(o.leader, Some(ProcessId(0)));
        assert!(s.stabilization_time().is_some());
    }
}
