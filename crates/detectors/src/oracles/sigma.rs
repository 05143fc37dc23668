//! The quorum failure detector Σ.
//!
//! Spec (paper §2): `H ∈ Σ(F)` iff
//! 1. **Intersection** — any two output sets, at any processes and times,
//!    intersect; and
//! 2. **Completeness** — for every correct process `p` there is a time
//!    after which every set output at `p` contains only correct processes.

use crate::oracles::assert_pattern_nonempty;
use crate::rngmix::{mix, mix_range};
use wfd_sim::{FailurePattern, FdOracle, ProcessId, ProcessSet, Time};

/// A Σ history generator for a given failure pattern.
///
/// The construction keeps a **core** that every output contains, which
/// makes intersection hold by construction:
///
/// * If the pattern has at least one correct process, the core is
///   `correct(F)`; outputs are `correct(F) ∪ (noise ⊆ alive-at-t)` before
///   stabilisation and exactly `correct(F)` afterwards, so completeness
///   holds too.
/// * If *every* process crashes (possible in `Environment::Any`), the core
///   is `{p0}` forever — intersection still holds and completeness is
///   vacuous, matching the spec.
///
/// ```
/// use wfd_detectors::oracles::SigmaOracle;
/// use wfd_sim::{FailurePattern, FdOracle, ProcessId};
/// let f = FailurePattern::failure_free(4).with_crash(ProcessId(3), 10);
/// let mut sigma = SigmaOracle::new(&f, 50, 1);
/// let early = sigma.query(ProcessId(0), 0);
/// let late = sigma.query(ProcessId(1), 100);
/// assert!(early.intersects(&late));
/// assert_eq!(late, f.correct());
/// ```
#[derive(Clone, Debug)]
pub struct SigmaOracle {
    pattern: FailurePattern,
    stabilize_at: Time,
    jitter: Time,
    seed: u64,
    core: ProcessSet,
}

impl SigmaOracle {
    /// Create a Σ oracle whose outputs at correct processes contain only
    /// correct processes from `stabilize_at` on.
    pub fn new(pattern: &FailurePattern, stabilize_at: Time, seed: u64) -> Self {
        assert_pattern_nonempty(pattern);
        let correct = pattern.correct();
        let core = if correct.is_empty() {
            ProcessSet::singleton(ProcessId(0))
        } else {
            correct
        };
        SigmaOracle {
            pattern: pattern.clone(),
            stabilize_at,
            jitter: 0,
            seed,
            core,
        }
    }

    /// Spread per-process stabilisation instants over
    /// `[stabilize_at, stabilize_at + jitter]`.
    pub fn with_jitter(mut self, jitter: Time) -> Self {
        self.jitter = jitter;
        self
    }

    /// The eventual quorum at correct processes (`correct(F)`, or `{p0}`
    /// for all-crash patterns).
    pub fn core(&self) -> &ProcessSet {
        &self.core
    }

    fn stabilisation_of(&self, p: ProcessId) -> Time {
        if self.jitter == 0 {
            self.stabilize_at
        } else {
            self.stabilize_at + mix_range(self.seed, p.index() as u64, 0x51, self.jitter + 1)
        }
    }
}

impl FdOracle for SigmaOracle {
    type Value = ProcessSet;

    fn query(&mut self, p: ProcessId, t: Time) -> ProcessSet {
        let mut quorum = self.core;
        if t < self.stabilisation_of(p) {
            // Noise phase: adjoin a deterministic subset of the processes
            // still alive at t (crashed-but-present members are exactly the
            // inaccuracy Σ tolerates before completeness kicks in).
            for q in self.pattern.alive_at(t).iter() {
                if mix(self.seed, (p.index() as u64) << 20 | q.index() as u64, t).is_multiple_of(2)
                {
                    quorum.insert(q);
                }
            }
        }
        quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_outputs_pairwise_intersect() {
        let f = FailurePattern::with_crashes(5, &[(ProcessId(0), 3), (ProcessId(1), 8)]);
        let mut sigma = SigmaOracle::new(&f, 40, 9).with_jitter(10);
        let mut outputs = Vec::new();
        for p in 0..5 {
            for t in (0..100).step_by(7) {
                outputs.push(sigma.query(ProcessId(p), t));
            }
        }
        for a in &outputs {
            for b in &outputs {
                assert!(a.intersects(b), "Σ intersection violated: {a} vs {b}");
            }
        }
    }

    #[test]
    fn eventually_only_correct_processes() {
        let f = FailurePattern::with_crashes(4, &[(ProcessId(2), 5)]);
        let mut sigma = SigmaOracle::new(&f, 30, 4);
        for p in f.correct().iter() {
            for t in 30..60 {
                assert!(sigma.query(p, t).is_subset(&f.correct()));
            }
        }
    }

    #[test]
    fn noise_phase_may_include_crashed_but_alive_members() {
        let f = FailurePattern::with_crashes(4, &[(ProcessId(3), 50)]);
        let mut sigma = SigmaOracle::new(&f, 1_000, 11);
        let saw_faulty = (0..40).any(|t| sigma.query(ProcessId(0), t).contains(ProcessId(3)));
        assert!(
            saw_faulty,
            "noise phase should sometimes include the not-yet-crashed faulty p3"
        );
    }

    #[test]
    fn all_crash_pattern_uses_constant_core() {
        let f = FailurePattern::with_crashes(
            3,
            &[(ProcessId(0), 0), (ProcessId(1), 0), (ProcessId(2), 0)],
        );
        let mut sigma = SigmaOracle::new(&f, 0, 0);
        assert_eq!(sigma.core(), &ProcessSet::singleton(ProcessId(0)));
        assert_eq!(
            sigma.query(ProcessId(1), 99),
            ProcessSet::singleton(ProcessId(0))
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let f = FailurePattern::failure_free(4);
        let mut a = SigmaOracle::new(&f, 100, 5);
        let mut b = SigmaOracle::new(&f, 100, 5);
        for t in 0..50 {
            assert_eq!(a.query(ProcessId(1), t), b.query(ProcessId(1), t));
        }
    }
}
