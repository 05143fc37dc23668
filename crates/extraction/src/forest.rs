//! The simulation forest Υ: canonical runs of `A` for the `n+1` initial
//! configurations, driven by recorded detector samples.
//!
//! Tree `i`'s initial configuration `I_i` has processes `p_0 … p_{i−1}`
//! propose 1 and the rest propose 0. The canonical run of a tree over a
//! sample window applies the samples in time order (each sample is one
//! step of the sampled process) and stops at the first decision — one
//! admissible branch of the CHT tree, deterministic in the window, hence
//! identical at every extractor that holds the same samples.

use crate::family::QcFamily;
use crate::runner::Runner;
use crate::sampling::Sample;
use wfd_consensus::ConsensusOutput;
use wfd_quittable::QcDecision;
use wfd_sim::obs::{CounterId, HistId, Obs, PhaseId};
use wfd_sim::ProcessId;

/// Result of evaluating one tree over a window.
#[derive(Clone, Debug)]
pub struct TreeRun<Fd> {
    /// Which tree (number of leading 1-proposers in `I_i`).
    pub ones: usize,
    /// The first decision reached in the canonical run, if any.
    pub decision: Option<QcDecision<u8>>,
    /// The executed schedule up to (and including) the deciding step.
    pub schedule: Vec<(ProcessId, Fd)>,
}

/// The proposals of initial configuration `I_i` for a system of `n`
/// processes: `p_j` proposes 1 iff `j < i`.
pub fn initial_proposals(n: usize, ones: usize) -> Vec<Option<u8>> {
    (0..n).map(|j| Some(u8::from(j < ones))).collect()
}

/// Evaluate tree `ones` over a sample window: run the canonical
/// simulation until the first decision or window exhaustion.
pub fn evaluate_tree<F: QcFamily>(
    family: &F,
    n: usize,
    ones: usize,
    window: impl Iterator<Item = Sample<F::Fd>>,
) -> TreeRun<F::Fd> {
    let procs: Vec<F::Binary> = (0..n).map(|_| family.binary()).collect();
    let mut runner = Runner::new(procs, initial_proposals(n, ones));
    let mut decision = None;
    let mut schedule = Vec::new();
    for s in window {
        runner.step(s.q, s.val.clone());
        schedule.push((s.q, s.val));
        if let Some((_, ConsensusOutput::Decided(d))) = runner.outputs().first() {
            decision = Some(d.clone());
            break;
        }
    }
    TreeRun {
        ones,
        decision,
        schedule,
    }
}

/// Evaluate all `n + 1` trees over (clones of) one window.
pub fn evaluate_forest<F: QcFamily>(
    family: &F,
    n: usize,
    window: &[Sample<F::Fd>],
) -> Vec<TreeRun<F::Fd>> {
    (0..=n)
        .map(|ones| evaluate_tree(family, n, ones, window.iter().cloned()))
        .collect()
}

/// Incremental evaluator for the simulation forest: caches the live
/// runner of every undecided tree so that re-evaluating a *grown* window
/// only feeds the freshly-appended samples instead of replaying the whole
/// window from scratch (the dominant cost of the Figure 3 host, which
/// re-evaluates its forest every eval-interval).
///
/// [`ForestEvaluator::evaluate`] is observationally identical to
/// [`evaluate_forest`] on every window: it verifies that the new window
/// still extends the consumed prefix (samples are keyed by `(time,
/// process)`, and a late-flooded sample may land *before* the consumed
/// frontier) and transparently falls back to a full replay when it does
/// not.
pub struct ForestEvaluator<F: QcFamily> {
    n: usize,
    /// Live runner per undecided tree; `None` once the tree decided
    /// (a canonical run stops at its first decision, so decided trees
    /// are final).
    runners: Vec<Option<Runner<F::Binary>>>,
    runs: Vec<TreeRun<F::Fd>>,
    /// Samples consumed so far and the `(time, process)` key of the last
    /// one — used to detect windows that are not prefix-extensions.
    consumed: usize,
    frontier: Option<(wfd_sim::Time, ProcessId)>,
    /// Observability handle (off by default): counts incremental vs
    /// full-replay evaluations and times each path. Never read back —
    /// results are identical with metrics on or off.
    obs: Obs,
}

// Manual impl: a derived one would require `F::Binary: Debug`, which
// `QcFamily` does not (and need not) promise.
impl<F: QcFamily> std::fmt::Debug for ForestEvaluator<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForestEvaluator")
            .field("n", &self.n)
            .field("consumed", &self.consumed)
            .field("frontier", &self.frontier)
            .field(
                "decided",
                &self.runs.iter().filter(|r| r.decision.is_some()).count(),
            )
            .finish_non_exhaustive()
    }
}

impl<F: QcFamily> ForestEvaluator<F> {
    /// A fresh evaluator for the `n + 1` trees of a system of `n`
    /// processes.
    pub fn new(family: &F, n: usize) -> Self {
        let mut ev = ForestEvaluator {
            n,
            runners: Vec::new(),
            runs: Vec::new(),
            consumed: 0,
            frontier: None,
            obs: Obs::off(),
        };
        ev.reset(family);
        ev
    }

    /// Attach an observability handle (see [`wfd_sim::obs`]). Each
    /// [`evaluate`](Self::evaluate) call is counted as incremental
    /// ([`CounterId::ForestEvalsIncremental`]) or full-replay
    /// ([`CounterId::ForestEvalsFullReplay`]) and timed under the matching
    /// phase; the per-call delta size feeds
    /// [`HistId::ForestDeltaSamples`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Discard all cached state, returning to the empty-window state.
    pub fn reset(&mut self, family: &F) {
        self.runners = (0..=self.n)
            .map(|ones| {
                let procs: Vec<F::Binary> = (0..self.n).map(|_| family.binary()).collect();
                Some(Runner::new(procs, initial_proposals(self.n, ones)))
            })
            .collect();
        self.runs = (0..=self.n)
            .map(|ones| TreeRun {
                ones,
                decision: None,
                schedule: Vec::new(),
            })
            .collect();
        self.consumed = 0;
        self.frontier = None;
    }

    /// Samples consumed since the last reset (for instrumentation).
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Evaluate all trees over `window` (sorted by `(time, process)`, as
    /// [`crate::sampling::SampleStore`] yields it). If `window` extends
    /// the previously-evaluated one, only the delta is fed to the
    /// still-undecided trees; otherwise the forest is re-run from
    /// scratch. The result equals `evaluate_forest(family, n, window)`.
    pub fn evaluate(&mut self, family: &F, window: &[Sample<F::Fd>]) -> &[TreeRun<F::Fd>] {
        let extends = window.len() >= self.consumed
            && (self.consumed == 0
                || window.get(self.consumed - 1).map(|s| (s.t, s.q)) == self.frontier);
        let _span = if extends {
            self.obs.add(CounterId::ForestEvalsIncremental, 1);
            self.obs.phase(PhaseId::ForestEvalIncremental)
        } else {
            self.obs.add(CounterId::ForestEvalsFullReplay, 1);
            self.reset(family);
            self.obs.phase(PhaseId::ForestEvalFullReplay)
        };
        let delta = window.len() - self.consumed;
        self.obs.record(HistId::ForestDeltaSamples, delta as u64);
        self.obs.add(CounterId::ForestSamplesConsumed, delta as u64);
        for s in &window[self.consumed..] {
            debug_assert!(
                self.frontier.is_none_or(|f| f < (s.t, s.q)),
                "window must be sorted by (time, process)"
            );
            self.frontier = Some((s.t, s.q));
            for (runner_slot, run) in self.runners.iter_mut().zip(self.runs.iter_mut()) {
                let Some(runner) = runner_slot else { continue };
                runner.step(s.q, s.val.clone());
                run.schedule.push((s.q, s.val.clone()));
                if let Some((_, ConsensusOutput::Decided(d))) = runner.outputs().first() {
                    run.decision = Some(d.clone());
                    *runner_slot = None; // final: stop feeding this tree
                }
            }
        }
        self.consumed = window.len();
        &self.runs
    }
}

/// Locate a *critical pair* in fully-decided forest results: adjacent
/// trees `i`, `i+1` (initial configurations differing only in `p_i`'s
/// proposal) whose canonical runs decided 0 and 1 (in either order).
/// Returns `(zero_tree, one_tree)` — the tree deciding 0 first.
pub fn critical_pair<Fd>(runs: &[TreeRun<Fd>]) -> Option<(usize, usize)> {
    for w in runs.windows(2) {
        match (&w[0].decision, &w[1].decision) {
            (Some(QcDecision::Value(0)), Some(QcDecision::Value(1))) => {
                return Some((w[0].ones, w[1].ones))
            }
            (Some(QcDecision::Value(1)), Some(QcDecision::Value(0))) => {
                return Some((w[1].ones, w[0].ones))
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::PsiQcFamily;
    use wfd_detectors::oracles::{PsiMode, PsiOracle};
    use wfd_detectors::PsiValue;
    use wfd_sim::{FailurePattern, FdOracle, Time};

    /// A window of Ψ samples in which every process samples round-robin.
    fn psi_window(
        pattern: &FailurePattern,
        mode: PsiMode,
        switch: Time,
        len: usize,
    ) -> Vec<Sample<PsiValue>> {
        let n = pattern.n();
        let mut psi = PsiOracle::new(pattern, mode, switch, 0, 3);
        let mut out = Vec::new();
        for k in 0..len {
            let q = ProcessId(k % n);
            let t = k as Time;
            // Skip samples of crashed processes: a crashed process takes
            // no steps, hence no samples.
            if !pattern.is_crashed(q, t) {
                out.push(Sample {
                    q,
                    t,
                    val: psi.query(q, t),
                });
            }
        }
        out
    }

    #[test]
    fn initial_proposals_shape() {
        assert_eq!(initial_proposals(3, 0), vec![Some(0), Some(0), Some(0)]);
        assert_eq!(initial_proposals(3, 2), vec![Some(1), Some(1), Some(0)]);
    }

    #[test]
    fn all_trees_decide_with_consensus_mode_samples() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let window = psi_window(&pattern, PsiMode::OmegaSigma, 0, 3_000);
        let runs = evaluate_forest(&PsiQcFamily, n, &window);
        assert_eq!(runs.len(), n + 1);
        for run in &runs {
            let d = run
                .decision
                .as_ref()
                .unwrap_or_else(|| panic!("tree {} undecided", run.ones));
            assert!(matches!(d, QcDecision::Value(_)));
        }
        // Tree 0 (all propose 0) must decide 0; tree n (all 1) must
        // decide 1 — QC validity inside the simulation.
        assert_eq!(runs[0].decision, Some(QcDecision::Value(0)));
        assert_eq!(runs[n].decision, Some(QcDecision::Value(1)));
        // And therefore a critical pair exists.
        let (z, o) = critical_pair(&runs).expect("0-vs-1 boundary exists");
        assert!(z.abs_diff(o) == 1);
    }

    #[test]
    fn fs_mode_samples_make_trees_decide_q() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(2), 10);
        let window = psi_window(&pattern, PsiMode::Fs, 0, 500);
        let runs = evaluate_forest(&PsiQcFamily, n, &window);
        for run in &runs {
            assert_eq!(
                run.decision,
                Some(QcDecision::Quit),
                "tree {} should quit under FS-mode samples",
                run.ones
            );
        }
        assert_eq!(critical_pair(&runs), None);
    }

    #[test]
    fn schedule_stops_at_decision() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let window = psi_window(&pattern, PsiMode::OmegaSigma, 0, 3_000);
        let run = evaluate_tree(&PsiQcFamily, n, 1, window.into_iter());
        assert!(run.decision.is_some());
        assert!(
            run.schedule.len() < 3_000,
            "canonical run should stop at the first decision"
        );
    }

    /// Compare two forest results field by field (TreeRun has no PartialEq
    /// because schedules can be large; tests want exact equality anyway).
    fn assert_runs_eq(a: &[TreeRun<PsiValue>], b: &[TreeRun<PsiValue>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.ones, y.ones);
            assert_eq!(x.decision, y.decision, "tree {}", x.ones);
            assert_eq!(x.schedule, y.schedule, "tree {}", x.ones);
        }
    }

    #[test]
    fn incremental_matches_scratch_on_growing_windows() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let window = psi_window(&pattern, PsiMode::OmegaSigma, 0, 2_000);
        let mut eval = ForestEvaluator::new(&PsiQcFamily, n);
        for upto in [0, 100, 101, 500, 1_200, 2_000] {
            let scratch = evaluate_forest(&PsiQcFamily, n, &window[..upto]);
            let inc = eval.evaluate(&PsiQcFamily, &window[..upto]);
            assert_runs_eq(inc, &scratch);
        }
        assert_eq!(eval.consumed(), 2_000);
    }

    #[test]
    fn incremental_detects_non_prefix_window_and_replays() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let window = psi_window(&pattern, PsiMode::OmegaSigma, 0, 600);
        let mut eval = ForestEvaluator::new(&PsiQcFamily, n);
        eval.evaluate(&PsiQcFamily, &window[..400]);

        // A sample flooded late lands *before* the consumed frontier:
        // the prefix the evaluator consumed is no longer a prefix of the
        // new window, so it must fall back to a full replay.
        let mut shifted = window.clone();
        let moved = shifted.remove(10);
        assert!(moved.t < shifted[398].t);
        let scratch = evaluate_forest(&PsiQcFamily, n, &shifted[..450]);
        let inc = eval.evaluate(&PsiQcFamily, &shifted[..450]);
        assert_runs_eq(inc, &scratch);

        // Shrinking the window is also a non-extension.
        let scratch = evaluate_forest(&PsiQcFamily, n, &window[..50]);
        let inc = eval.evaluate(&PsiQcFamily, &window[..50]);
        assert_runs_eq(inc, &scratch);
    }

    #[test]
    fn critical_pair_handles_non_monotone_decisions() {
        let mk = |ones: usize, d: u8| TreeRun::<()> {
            ones,
            decision: Some(QcDecision::Value(d)),
            schedule: vec![],
        };
        let runs = vec![mk(0, 1), mk(1, 0), mk(2, 1)];
        assert_eq!(critical_pair(&runs), Some((1, 0)));
    }
}
