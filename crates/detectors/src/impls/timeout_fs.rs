//! An FS implementation from conservative timeouts.
//!
//! FS must never cry wolf (red implies a real crash), so unlike
//! [`HeartbeatOmega`](super::HeartbeatOmega) it cannot adapt its way out
//! of false suspicions — a single wrong red is a permanent spec violation.
//! The implementation is therefore only *accurate* under a timing
//! assumption: its `threshold` (measured in the suspecting process's own
//! steps) must exceed the run's worst-case heartbeat round-trip, which in
//! this engine is bounded by `max_step_gap + max_delay`. Completeness
//! needs no assumption: a crashed process stops beating, someone times
//! out, and the red verdict is flooded to everyone.
//!
//! This mirrors the literature: FS is implementable in synchronous
//! systems, and Charron-Bost & Toueg / Guerraoui use it as the extra
//! power NBAC needs beyond consensus.

use crate::value::Signal;
use wfd_sim::{Ctx, Permutation, ProcessId, Protocol, Symmetry};

/// Messages of the timeout FS implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsMsg {
    /// Periodic liveness beat.
    Beat,
    /// Flooded verdict: some process crashed.
    Red,
}

/// One process of the timeout FS implementation.
///
/// Outputs [`Signal`] values; green periodically while no failure is
/// suspected, red (forever) once one is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeoutFs {
    staleness: Vec<u64>,
    threshold: u64,
    red: bool,
    steps_since_output: u64,
    steps_since_beat: u64,
    beat_interval: u64,
}

impl TimeoutFs {
    /// Create a process with the given timeout threshold (own steps).
    /// Beats are broadcast every `n` own steps; `threshold` must therefore
    /// exceed `n · max_step_gap + max_delay` of the run for accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(n: usize, threshold: u64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        TimeoutFs {
            staleness: vec![0; n],
            threshold,
            red: false,
            steps_since_output: 0,
            steps_since_beat: 0,
            beat_interval: n as u64,
        }
    }

    /// Whether this process has turned red.
    pub fn is_red(&self) -> bool {
        self.red
    }

    fn signal(&self) -> Signal {
        if self.red {
            Signal::Red
        } else {
            Signal::Green
        }
    }

    fn step_common(&mut self, ctx: &mut Ctx<Self>) {
        if !self.red {
            let me = ctx.me().index();
            for q in 0..ctx.n() {
                if q == me {
                    continue;
                }
                self.staleness[q] += 1;
                if self.staleness[q] > self.threshold {
                    self.turn_red(ctx);
                    break;
                }
            }
        }
        self.steps_since_beat += 1;
        if self.steps_since_beat >= self.beat_interval {
            self.steps_since_beat = 0;
            ctx.broadcast_others(FsMsg::Beat);
        }
        self.steps_since_output += 1;
        if self.steps_since_output >= 4 {
            self.steps_since_output = 0;
            ctx.output(self.signal());
        }
    }

    fn turn_red(&mut self, ctx: &mut Ctx<Self>) {
        if !self.red {
            self.red = true;
            ctx.output(Signal::Red);
            ctx.broadcast_others(FsMsg::Red);
        }
    }
}

impl Protocol for TimeoutFs {
    type Msg = FsMsg;
    type Output = Signal;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        ctx.output(Signal::Green);
        ctx.broadcast_others(FsMsg::Beat);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.step_common(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: FsMsg) {
        match msg {
            FsMsg::Beat => {
                self.staleness[from.index()] = 0;
                self.step_common(ctx);
            }
            FsMsg::Red => {
                self.turn_red(ctx);
                self.step_common(ctx);
            }
        }
    }

    // Fully id-agnostic: handlers treat peers uniformly (the timeout scan
    // is order-independent — any overdue peer yields the same permanent
    // red), ids appear only as indices into `staleness`, and neither
    // messages nor outputs carry ids.
    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }

    fn permute(&mut self, perm: &Permutation) {
        let mut staleness = vec![0; self.staleness.len()];
        for (q, &s) in self.staleness.iter().enumerate() {
            staleness[perm.apply(ProcessId(q)).index()] = s;
        }
        self.staleness = staleness;
    }

    fn props() -> &'static [&'static str] {
        &["some-correct-red", "all-correct-red"]
    }

    /// `some-correct-red`: at least one correct process has turned red —
    /// its absence forever (`G !"some-correct-red"`) is FS accuracy on
    /// failure-free patterns. `all-correct-red`: every correct process is
    /// red — `F "all-correct-red"` is FS completeness once someone
    /// crashes. Both quantify over *correct* processes only, so they are
    /// invariant under the scenario symmetry group (which preserves the
    /// failure pattern).
    fn eval_prop(prop: usize, procs: &[Self], view: &wfd_sim::PropView<'_>) -> bool {
        let mut correct = procs
            .iter()
            .zip(view.correct)
            .filter_map(|(p, &c)| c.then_some(p));
        match prop {
            0 => correct.any(|p| p.red),
            _ => correct.all(|p| p.red),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_fs;
    use crate::history::history_from_outputs;
    use wfd_sim::{FailurePattern, NoDetector, RandomFair, Sim, SimConfig};

    /// A threshold safely above the engine's
    /// `beat_interval · max_step_gap + max_delay` for the configs below
    /// (`beat_interval = n`, `max_step_gap = max_delay = 4n`).
    fn safe_threshold(n: usize) -> u64 {
        let n = n as u64;
        3 * (n * 4 * n + 4 * n)
    }

    fn run_fs(
        n: usize,
        pattern: &FailurePattern,
        seed: u64,
        horizon: u64,
    ) -> crate::History<Signal> {
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n)
                .map(|_| TimeoutFs::new(n, safe_threshold(n)))
                .collect(),
            pattern.clone(),
            NoDetector,
            RandomFair::new(seed),
        );
        sim.run();
        history_from_outputs(sim.trace(), |s: &Signal| Some(*s))
    }

    #[test]
    fn failure_free_run_stays_green() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        for seed in 0..5 {
            let h = run_fs(n, &pattern, seed, 15_000);
            let stats = check_fs(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(stats.first_red, None, "seed {seed}: spurious red");
        }
    }

    #[test]
    fn crash_turns_everyone_red() {
        let n = 4;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(2), 500)]);
        for seed in 0..5 {
            let h = run_fs(n, &pattern, seed, 25_000);
            let stats = check_fs(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            let first_red = stats.first_red.expect("red must eventually appear");
            assert!(first_red >= 500, "red before the crash would be untruthful");
        }
    }

    #[test]
    fn red_is_permanent_per_process() {
        let n = 3;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 200)]);
        let h = run_fs(n, &pattern, 7, 20_000);
        for p in pattern.correct().iter() {
            let sigs: Vec<Signal> = h.samples_of(p).map(|(_, s)| *s).collect();
            if let Some(first_red) = sigs.iter().position(|s| s.is_red()) {
                assert!(
                    sigs[first_red..].iter().all(|s| s.is_red()),
                    "{p} flapped back to green"
                );
            }
        }
    }

    #[test]
    fn is_red_accessor() {
        let p = TimeoutFs::new(3, 10);
        assert!(!p.is_red());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        let _ = TimeoutFs::new(2, 0);
    }
}
