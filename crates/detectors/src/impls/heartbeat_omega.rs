//! An Ω implementation from adaptive-timeout heartbeats.
//!
//! Every process piggybacks a heartbeat on each of its steps and suspects
//! a peer whose heartbeat is overdue by an *adaptive* timeout: each false
//! suspicion (a heartbeat arriving from a suspected peer) doubles that
//! peer's timeout. The leader estimate is the smallest unsuspected id.
//!
//! In a fair run of the engine the system is eventually timely (step gaps
//! and delays are bounded by `max_step_gap`/`max_delay`), so every correct
//! process is falsely suspected only finitely often, crashed processes are
//! suspected forever, and all correct processes converge to the same
//! smallest correct id — i.e. the emitted history satisfies Ω. No bound
//! needs to be known in advance; that is the point of the adaptive
//! timeout.

use wfd_sim::{Ctx, ProcessId, Protocol};

/// Messages of the heartbeat Ω implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heartbeat;

/// One process of the heartbeat Ω implementation.
///
/// Outputs its leader estimate ([`ProcessId`]) whenever the estimate
/// changes, plus periodically so that histories stay densely sampled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeartbeatOmega {
    /// Own steps since the last heartbeat from each peer, saturated at
    /// `timeout + 1`: past that the comparison against the timeout can
    /// never change again until the counter is reset, so larger values
    /// are behaviorally indistinguishable. The cap keeps the state space
    /// finite, which the liveness checker's state graph requires.
    staleness: Vec<u64>,
    /// Current per-peer timeout (in own steps).
    timeout: Vec<u64>,
    suspected: Vec<bool>,
    leader: ProcessId,
    steps_since_output: u64,
    /// Own steps since the last beat broadcast; beats go out every
    /// `beat_interval` steps so the network load stays bounded (sending on
    /// every step — in particular on every *delivery* — floods the system
    /// faster than one-delivery-per-step can drain it).
    steps_since_beat: u64,
    beat_interval: u64,
}

impl HeartbeatOmega {
    /// Create a process with the given initial per-peer timeout (adapted
    /// upwards at runtime on false suspicion). Beats are broadcast every
    /// `n` own steps.
    ///
    /// # Panics
    ///
    /// Panics if `initial_timeout` is zero.
    pub fn new(n: usize, initial_timeout: u64) -> Self {
        assert!(initial_timeout > 0, "initial_timeout must be positive");
        HeartbeatOmega {
            staleness: vec![0; n],
            timeout: vec![initial_timeout; n],
            suspected: vec![false; n],
            leader: ProcessId(0),
            steps_since_output: 0,
            steps_since_beat: 0,
            beat_interval: n as u64,
        }
    }

    /// Override how many of its own steps a process waits between beat
    /// broadcasts.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_beat_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "beat interval must be positive");
        self.beat_interval = interval;
        self
    }

    /// The current leader estimate.
    pub fn leader(&self) -> ProcessId {
        self.leader
    }

    /// Whether this process currently suspects `q`.
    pub fn suspects(&self, q: ProcessId) -> bool {
        self.suspected[q.index()]
    }

    fn step_common(&mut self, ctx: &mut Ctx<Self>) {
        let me = ctx.me().index();
        for q in 0..ctx.n() {
            if q == me {
                continue;
            }
            self.staleness[q] = (self.staleness[q] + 1).min(self.timeout[q] + 1);
            if self.staleness[q] > self.timeout[q] {
                self.suspected[q] = true;
            }
        }
        self.refresh_leader(ctx);
        self.steps_since_beat += 1;
        if self.steps_since_beat >= self.beat_interval {
            self.steps_since_beat = 0;
            ctx.broadcast_others(Heartbeat);
        }
        // Dense sampling: re-emit the estimate every few steps even when
        // unchanged, so checkers see a suffix, not a single point.
        self.steps_since_output += 1;
        if self.steps_since_output >= 4 {
            self.steps_since_output = 0;
            ctx.output(self.leader);
        }
    }

    fn refresh_leader(&mut self, ctx: &mut Ctx<Self>) {
        let me = ctx.me().index();
        let new_leader = (0..ctx.n())
            .find(|&q| q == me || !self.suspected[q])
            .map(ProcessId)
            .unwrap_or(ctx.me());
        if new_leader != self.leader {
            self.leader = new_leader;
            ctx.output(self.leader);
        }
    }
}

impl Protocol for HeartbeatOmega {
    type Msg = Heartbeat;
    type Output = ProcessId;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        ctx.output(self.leader);
        ctx.broadcast_others(Heartbeat);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.step_common(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, _msg: Heartbeat) {
        let q = from.index();
        if self.suspected[q] {
            // False suspicion: forgive and adapt.
            self.suspected[q] = false;
            self.timeout[q] = self.timeout[q].saturating_mul(2);
        }
        self.staleness[q] = 0;
        self.step_common(ctx);
    }

    // No `symmetry` override: the leader rule "smallest unsuspected id"
    // is id-*dependent* — permuting process ids does not commute with
    // taking the minimum — so canonicalizing states under permutation
    // would merge states with genuinely different futures. Ω exists to
    // break symmetry; only [`Symmetry::Trivial`](wfd_sim::Symmetry) is
    // sound here.
    fn props() -> &'static [&'static str] {
        &["leader-agreed"]
    }

    /// `leader-agreed`: every correct process's estimate is the smallest
    /// correct id — the stabilized state Ω promises. The paper property
    /// is `F G "leader-agreed"` over all fair runs.
    fn eval_prop(_prop: usize, procs: &[Self], view: &wfd_sim::PropView<'_>) -> bool {
        let Some(expected) = view.correct.iter().position(|&c| c) else {
            return false;
        };
        procs
            .iter()
            .zip(view.correct)
            .all(|(p, &c)| !c || p.leader == ProcessId(expected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_omega;
    use crate::history::history_from_outputs;
    use wfd_sim::{Adversarial, FailurePattern, NoDetector, RandomFair, Sim, SimConfig};

    fn run_omega<S: wfd_sim::Scheduler>(
        n: usize,
        pattern: &FailurePattern,
        sched: S,
        horizon: u64,
    ) -> crate::History<ProcessId> {
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| HeartbeatOmega::new(n, 4)).collect(),
            pattern.clone(),
            NoDetector,
            sched,
        );
        sim.run();
        history_from_outputs(sim.trace(), |l: &ProcessId| Some(*l))
    }

    #[test]
    fn converges_to_smallest_correct_process() {
        let n = 4;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 300)]);
        for seed in 0..5 {
            let h = run_omega(n, &pattern, RandomFair::new(seed), 20_000);
            let stats = check_omega(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(stats.leader, Some(ProcessId(1)), "seed {seed}");
        }
    }

    #[test]
    fn failure_free_leader_is_p0() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let h = run_omega(n, &pattern, RandomFair::new(9), 10_000);
        let stats = check_omega(&h, &pattern).expect("conforms");
        assert_eq!(stats.leader, Some(ProcessId(0)));
    }

    #[test]
    fn converges_under_adversarial_schedule() {
        let n = 4;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 200), (ProcessId(1), 400)]);
        let h = run_omega(n, &pattern, Adversarial::new(11), 40_000);
        let stats = check_omega(&h, &pattern).expect("adaptive timeouts must converge");
        assert_eq!(stats.leader, Some(ProcessId(2)));
    }

    #[test]
    fn suspicion_accessors() {
        let p = HeartbeatOmega::new(3, 4);
        assert_eq!(p.leader(), ProcessId(0));
        assert!(!p.suspects(ProcessId(1)));
    }

    #[test]
    #[should_panic(expected = "initial_timeout")]
    fn zero_timeout_rejected() {
        let _ = HeartbeatOmega::new(3, 0);
    }
}
