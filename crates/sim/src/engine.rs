//! The discrete-event simulation engine.

use crate::failure::FailurePattern;
use crate::id::{ProcessId, Time};
use crate::machine::{dispatch, ResolvedStep};
use crate::obs::{CounterId, HistId, Obs, PhaseId};
use crate::oracle::FdOracle;
use crate::protocol::{Ctx, Protocol};
use crate::scheduler::{MsgMeta, Scheduler};
use crate::trace::{EventKind, Trace, TraceMode, TraceSummary};
use std::collections::VecDeque;

/// Schedulers choose among at most this many oldest messages per step (a
/// bounded window keeps per-step cost O(1) for flood-y protocols).
/// Shared with `crate::liveness`, whose fair state graph must branch on
/// exactly the deliveries a scheduler could pick.
pub(crate) const POLICY_WINDOW: usize = 32;

/// Static parameters of a simulation.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of processes `n = |Π|`.
    pub n: usize,
    /// Maximum number of steps to execute in [`Sim::run`].
    pub horizon: u64,
    /// Fairness bound: a message to a live process is delivered within this
    /// many time units of being sent (delays up to the bound are allowed).
    pub max_delay: Time,
    /// Fairness bound: a live process takes a step at least this often.
    pub max_step_gap: Time,
    /// How much of the run to record (default: everything).
    pub trace_mode: TraceMode,
    /// Observability handle (default: [`Obs::off`], which costs nothing).
    /// Metrics never influence the executed schedule or the trace.
    pub obs: Obs,
}

impl SimConfig {
    /// Defaults scaled to the system size: delay and step-gap bounds of
    /// `4·n`, horizon of 50 000 steps, full tracing, metrics off.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a system needs at least one process");
        SimConfig {
            n,
            horizon: 50_000,
            max_delay: 4 * n as Time,
            max_step_gap: 4 * n as Time,
            trace_mode: TraceMode::Full,
            obs: Obs::off(),
        }
    }

    /// Override how much of the run is recorded. The executed schedule is
    /// identical in every mode; only the record (and its cost) changes.
    pub fn with_trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Override the run horizon (total steps).
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Override the message-delay fairness bound.
    pub fn with_max_delay(mut self, d: Time) -> Self {
        assert!(d > 0, "max_delay must be positive");
        self.max_delay = d;
        self
    }

    /// Override the step-gap fairness bound.
    pub fn with_max_step_gap(mut self, g: Time) -> Self {
        assert!(g > 0, "max_step_gap must be positive");
        self.max_step_gap = g;
        self
    }

    /// Attach an observability handle (see [`crate::obs`]). Like the
    /// other builders this is an *explicit* choice and therefore beats
    /// the `WFD_METRICS` environment toggle — binaries that want env
    /// control resolve via [`crate::EnvOverrides::resolve_obs`] first.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

/// What [`Sim::into_parts`] returns: the protocol instances, the
/// detector, the scheduler, and the trace.
pub type SimParts<P, D, S> = (
    Vec<P>,
    D,
    S,
    Trace<<P as Protocol>::Msg, <P as Protocol>::Output>,
);

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The stop predicate returned true.
    Predicate,
    /// The step horizon was reached.
    Horizon,
    /// Every process has crashed.
    AllCrashed,
}

/// Result of running a simulation.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Steps executed in this call.
    pub steps: u64,
    /// Why execution stopped.
    pub reason: StopReason,
}

#[derive(Clone, Debug)]
struct Envelope<M> {
    id: u64,
    from: ProcessId,
    sent_at: Time,
    msg: M,
}

/// A simulation: `n` protocol instances + failure pattern + detector oracle
/// + scheduler, executed step by step on the discrete global clock.
///
/// Runs are deterministic functions of their inputs (including scheduler
/// seeds), which the test suites exploit heavily.
#[derive(Debug)]
pub struct Sim<P: Protocol, D, S> {
    cfg: SimConfig,
    procs: Vec<P>,
    pattern: FailurePattern,
    detector: D,
    sched: S,
    /// Per-receiver FIFO inboxes (scheduling may still reorder deliveries).
    inboxes: Vec<VecDeque<Envelope<P::Msg>>>,
    invocations: Vec<VecDeque<(Time, P::Inv)>>,
    trace: Trace<P::Msg, P::Output>,
    stats: TraceSummary,
    now: Time,
    started: Vec<bool>,
    crash_logged: Vec<bool>,
    last_step: Vec<Time>,
    next_msg_id: u64,
    // Reused per-step scratch buffers: the delivery loop allocates nothing.
    alive_buf: Vec<ProcessId>,
    metas_buf: Vec<MsgMeta>,
    send_buf: Vec<(ProcessId, P::Msg)>,
    out_buf: Vec<P::Output>,
}

impl<P, D, S> Sim<P, D, S>
where
    P: Protocol,
    D: FdOracle<Value = P::Fd>,
    S: Scheduler,
{
    /// Create a simulation.
    ///
    /// # Panics
    ///
    /// Panics if `procs.len()` or the pattern's size disagree with `cfg.n`.
    pub fn new(
        cfg: SimConfig,
        procs: Vec<P>,
        pattern: FailurePattern,
        detector: D,
        sched: S,
    ) -> Self {
        assert_eq!(procs.len(), cfg.n, "one protocol instance per process");
        assert_eq!(pattern.n(), cfg.n, "failure pattern size must match n");
        Sim {
            inboxes: (0..cfg.n).map(|_| VecDeque::new()).collect(),
            invocations: vec![VecDeque::new(); cfg.n],
            trace: Trace::new(cfg.n),
            stats: TraceSummary::default(),
            now: 0,
            started: vec![false; cfg.n],
            crash_logged: vec![false; cfg.n],
            last_step: vec![0; cfg.n],
            next_msg_id: 0,
            alive_buf: Vec::with_capacity(cfg.n),
            metas_buf: Vec::new(),
            send_buf: Vec::new(),
            out_buf: Vec::new(),
            cfg,
            procs,
            pattern,
            detector,
            sched,
        }
    }

    /// Schedule an operation invocation for process `p` at the first step
    /// it takes at or after time `t`. Invocations for the same process are
    /// consumed in scheduling order.
    pub fn schedule_invoke(&mut self, p: ProcessId, t: Time, inv: P::Inv) {
        let q = &mut self.invocations[p.index()];
        debug_assert!(
            q.back().is_none_or(|(bt, _)| *bt <= t),
            "invocations must be scheduled in nondecreasing time order per process"
        );
        q.push_back((t, inv));
    }

    /// The current global time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The failure pattern of this run.
    pub fn pattern(&self) -> &FailurePattern {
        &self.pattern
    }

    /// The run trace so far. What it records depends on
    /// [`SimConfig::trace_mode`]; see [`Sim::stats`] for mode-independent
    /// aggregate counters.
    pub fn trace(&self) -> &Trace<P::Msg, P::Output> {
        &self.trace
    }

    /// Aggregate run counters (steps, messages, outputs, crashes),
    /// maintained exactly in every [`TraceMode`] — in
    /// [`TraceMode::Full`] they equal `trace().summary()` except for the
    /// event total, which counts recorded events only.
    pub fn stats(&self) -> TraceSummary {
        TraceSummary {
            events: self.trace.len(),
            ..self.stats
        }
    }

    /// The protocol instances (post-run state inspection).
    pub fn processes(&self) -> &[P] {
        &self.procs
    }

    /// Mutable access to the detector oracle (e.g. to extract a recorded
    /// history after the run).
    pub fn detector_mut(&mut self) -> &mut D {
        &mut self.detector
    }

    /// The scheduling policy (e.g. to read a recorded decision log after
    /// the run; see [`crate::RecordedSchedule`]).
    pub fn scheduler(&self) -> &S {
        &self.sched
    }

    /// Mutable access to the scheduling policy.
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.sched
    }

    /// Consume the simulation, returning
    /// `(processes, detector, scheduler, trace)` — everything a caller
    /// handed to [`Sim::new`] that carries post-run state worth
    /// inspecting (e.g. a [`crate::RecordedSchedule`] decision log).
    pub fn into_parts(self) -> SimParts<P, D, S> {
        (self.procs, self.detector, self.sched, self.trace)
    }

    /// Number of undelivered messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inboxes.iter().map(|q| q.len()).sum()
    }

    /// Run until the horizon (or all processes crash).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(|_, _| false)
    }

    /// Run until `stop(trace, processes)` holds (checked after every step),
    /// the horizon is reached, or all processes have crashed.
    pub fn run_until(
        &mut self,
        mut stop: impl FnMut(&Trace<P::Msg, P::Output>, &[P]) -> bool,
    ) -> RunOutcome {
        let phase = self.cfg.obs.phase(PhaseId::EngineRun);
        let before = self.stats;
        let mut steps = 0u64;
        let outcome = loop {
            if steps >= self.cfg.horizon {
                break RunOutcome {
                    steps,
                    reason: StopReason::Horizon,
                };
            }
            if !self.step_once() {
                break RunOutcome {
                    steps,
                    reason: StopReason::AllCrashed,
                };
            }
            steps += 1;
            if stop(&self.trace, &self.procs) {
                break RunOutcome {
                    steps,
                    reason: StopReason::Predicate,
                };
            }
        };
        drop(phase);
        // Counters come from the engine's always-exact `stats` deltas, so
        // the step loop itself carries no per-step metric cost beyond the
        // one `is_on` branch in `step_once`.
        let obs = &self.cfg.obs;
        if obs.is_on() {
            obs.add(CounterId::EngineRuns, 1);
            obs.add(CounterId::EngineSteps, outcome.steps);
            obs.add(
                CounterId::EngineMessagesSent,
                (self.stats.messages_sent - before.messages_sent) as u64,
            );
            obs.add(
                CounterId::EngineMessagesDelivered,
                (self.stats.messages_delivered - before.messages_delivered) as u64,
            );
            obs.add(
                CounterId::EngineOutputs,
                (self.stats.outputs - before.outputs) as u64,
            );
        }
        outcome
    }

    /// Execute one step of one process. Returns `false` if no process is
    /// alive (nothing happened).
    ///
    /// The step schedule is a pure function of the inputs — the
    /// [`TraceMode`] never influences which process steps or which message
    /// it receives, only what gets recorded.
    pub fn step_once(&mut self) -> bool {
        self.log_new_crashes();
        let record_msgs = self.cfg.trace_mode.records_messages();
        let record_outs = self.cfg.trace_mode.records_outputs();

        let mut alive = std::mem::take(&mut self.alive_buf);
        alive.clear();
        alive.extend(ProcessId::all(self.cfg.n).filter(|&p| !self.pattern.is_crashed(p, self.now)));
        if alive.is_empty() {
            self.alive_buf = alive;
            return false;
        }

        let actor = self.choose_actor(&alive);
        self.alive_buf = alive;
        self.last_step[actor.index()] = self.now;
        self.stats.steps += 1;

        let fd = self.detector.query(actor, self.now);
        let mut ctx = Ctx::<P>::with_buffers(
            actor,
            self.cfg.n,
            self.now,
            fd,
            std::mem::take(&mut self.send_buf),
            std::mem::take(&mut self.out_buf),
        );

        // Resolve the step kind: start > pending invocation > message/λ.
        // The resolution (scheduler picks, trace events) is the engine's
        // own; the callback routing is the shared [`dispatch`], so the
        // engine executes the same step semantics as the explorer and the
        // liveness checker. Invocations arrive over time here, so they
        // stay stand-alone steps instead of being folded into `Start` as
        // the machine layer does.
        let step: ResolvedStep<P> = if !self.started[actor.index()] {
            self.started[actor.index()] = true;
            if record_msgs {
                self.trace.push(self.now, actor, EventKind::Start);
            }
            ResolvedStep::Start { inv: None }
        } else if self.invocations[actor.index()]
            .front()
            .is_some_and(|(t, _)| *t <= self.now)
        {
            let (_, inv) = self.invocations[actor.index()]
                .pop_front()
                .expect("checked");
            if record_msgs {
                self.trace.push(self.now, actor, EventKind::Invoke);
            }
            ResolvedStep::Invoke(inv)
        } else {
            match self.choose_message(actor) {
                Some(pos) => {
                    let env = self.inboxes[actor.index()]
                        .remove(pos)
                        .expect("chosen message position is valid");
                    self.stats.messages_delivered += 1;
                    if record_msgs {
                        self.trace.push(
                            self.now,
                            actor,
                            EventKind::Deliver {
                                from: env.from,
                                msg: env.msg.clone(),
                            },
                        );
                    }
                    ResolvedStep::Deliver {
                        from: env.from,
                        msg: env.msg,
                    }
                }
                None => {
                    if record_msgs {
                        self.trace.push(self.now, actor, EventKind::Lambda);
                    }
                    ResolvedStep::Tick
                }
            }
        };
        dispatch(&mut self.procs[actor.index()], &mut ctx, step);

        let (mut sends, mut outs) = ctx.into_buffers();
        self.cfg
            .obs
            .record(HistId::EngineSendsPerStep, sends.len() as u64);
        self.stats.messages_sent += sends.len();
        for (to, msg) in sends.drain(..) {
            assert!(to.index() < self.cfg.n, "send to unknown process {to}");
            if record_msgs {
                self.trace.push(
                    self.now,
                    actor,
                    EventKind::Send {
                        to,
                        msg: msg.clone(),
                    },
                );
            }
            // Inboxes of already-crashed receivers are a black hole.
            if !self.pattern.is_crashed(to, self.now) {
                self.inboxes[to.index()].push_back(Envelope {
                    id: self.next_msg_id,
                    from: actor,
                    sent_at: self.now,
                    msg,
                });
            }
            self.next_msg_id += 1;
        }
        self.stats.outputs += outs.len();
        for out in outs.drain(..) {
            if record_outs {
                self.trace.push(self.now, actor, EventKind::Output(out));
            }
        }
        self.send_buf = sends;
        self.out_buf = outs;

        self.now += 1;
        true
    }

    fn log_new_crashes(&mut self) {
        for p in ProcessId::all(self.cfg.n) {
            if !self.crash_logged[p.index()] && self.pattern.is_crashed(p, self.now) {
                self.crash_logged[p.index()] = true;
                self.stats.crashes += 1;
                let t = self
                    .pattern
                    .crash_time(p)
                    .expect("crashed implies crash time");
                if self.cfg.trace_mode.records_outputs() {
                    self.trace.push(t, p, EventKind::Crash);
                }
                // Reliable links do not deliver to crashed processes — drop
                // their inbox so the fairness logic ignores those messages.
                self.inboxes[p.index()].clear();
            }
        }
    }

    /// Fairness-respecting actor choice: if some alive process is overdue
    /// (no step for `max_step_gap`), the most-overdue one is forced;
    /// otherwise the policy picks among all alive processes.
    fn choose_actor(&mut self, alive: &[ProcessId]) -> ProcessId {
        // NOTE: the liveness checker (`crate::liveness`) mirrors this rule
        // and `choose_message` exactly when it builds its fair state
        // graph. Any change to the forcing rules here must be reflected
        // there, or "all fair runs" stops meaning "all engine runs".
        let overdue = alive
            .iter()
            .copied()
            .filter(|p| {
                let last = self.last_step[p.index()];
                self.started[p.index()] && self.now.saturating_sub(last) >= self.cfg.max_step_gap
                    || !self.started[p.index()] && self.now >= self.cfg.max_step_gap
            })
            .min_by_key(|p| self.last_step[p.index()]);
        if let Some(p) = overdue {
            return p;
        }
        let idx = self.sched.pick_actor(self.now, alive);
        assert!(idx < alive.len(), "scheduler returned out-of-range actor");
        alive[idx]
    }

    /// Fairness-respecting message choice for `actor`: an overdue message
    /// (older than `max_delay`) is forced oldest-first; otherwise the
    /// policy chooses among deliverable messages or λ. Returns an index
    /// into the actor's inbox.
    fn choose_message(&mut self, actor: ProcessId) -> Option<usize> {
        let inbox = &self.inboxes[actor.index()];
        if inbox.is_empty() {
            return None;
        }
        // The inbox is FIFO, so the front message is the oldest: if it is
        // overdue it must be delivered now.
        if self
            .now
            .saturating_sub(inbox.front().expect("non-empty").sent_at)
            >= self.cfg.max_delay
        {
            return Some(0);
        }
        // Policies choose among the oldest messages only (a bounded window
        // keeps per-step cost O(1) for flood-y protocols); reordering
        // within the window plus the overdue rule above preserves
        // fairness.
        let mut metas = std::mem::take(&mut self.metas_buf);
        metas.clear();
        metas.extend(inbox.iter().take(POLICY_WINDOW).map(|e| MsgMeta {
            id: e.id,
            from: e.from,
            sent_at: e.sent_at,
        }));
        let choice = match self.sched.pick_message(self.now, actor, &metas) {
            Some(k) => {
                assert!(k < metas.len(), "scheduler returned out-of-range message");
                Some(k)
            }
            None => None,
        };
        self.metas_buf = metas;
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NoDetector;
    use crate::scheduler::{Adversarial, RandomFair, RoundRobin};

    /// Each process repeatedly pings its successor; counts pongs.
    #[derive(Debug)]
    struct Ring {
        pings_seen: usize,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum RingMsg {
        Ping,
    }

    impl Protocol for Ring {
        type Msg = RingMsg;
        type Output = usize;
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            let next = ProcessId((ctx.me().index() + 1) % ctx.n());
            ctx.send(next, RingMsg::Ping);
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, _msg: RingMsg) {
            self.pings_seen += 1;
            ctx.output(self.pings_seen);
            let next = ProcessId((ctx.me().index() + 1) % ctx.n());
            ctx.send(next, RingMsg::Ping);
        }
    }

    fn ring_sim(n: usize, pattern: FailurePattern) -> Sim<Ring, NoDetector, RoundRobin> {
        Sim::new(
            SimConfig::new(n).with_horizon(2_000),
            (0..n).map(|_| Ring { pings_seen: 0 }).collect(),
            pattern,
            NoDetector,
            RoundRobin::new(),
        )
    }

    #[test]
    fn ring_makes_progress_under_every_policy() {
        let n = 3;
        let mk_procs = || (0..n).map(|_| Ring { pings_seen: 0 }).collect::<Vec<_>>();
        let cfg = SimConfig::new(n).with_horizon(2_000);
        let pat = FailurePattern::failure_free(n);

        fn check<D: FdOracle<Value = ()>, S: Scheduler>(
            name: &str,
            sim: &Sim<Ring, D, S>,
            n: usize,
        ) {
            for p in ProcessId::all(n) {
                assert!(
                    sim.trace().outputs_of(p).count() > 10,
                    "{name}: {p} should have made progress"
                );
            }
        }

        let mut s1 = Sim::new(
            cfg.clone(),
            mk_procs(),
            pat.clone(),
            NoDetector,
            RoundRobin::new(),
        );
        s1.run();
        check("rr", &s1, n);
        let mut s2 = Sim::new(
            cfg.clone(),
            mk_procs(),
            pat.clone(),
            NoDetector,
            RandomFair::new(9),
        );
        s2.run();
        check("rand", &s2, n);
        let mut s3 = Sim::new(cfg, mk_procs(), pat, NoDetector, Adversarial::new(9));
        s3.run();
        check("adv", &s3, n);
    }

    #[test]
    fn determinism_same_inputs_same_trace() {
        let n = 4;
        let run = || {
            let mut sim = Sim::new(
                SimConfig::new(n).with_horizon(500),
                (0..n).map(|_| Ring { pings_seen: 0 }).collect(),
                FailurePattern::failure_free(n).with_crash(ProcessId(2), 100),
                NoDetector,
                RandomFair::new(1234),
            );
            sim.run();
            sim.trace().events().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crashed_process_takes_no_steps_after_crash() {
        let n = 3;
        let crash_t = 50;
        let mut sim = ring_sim(
            n,
            FailurePattern::failure_free(n).with_crash(ProcessId(0), crash_t),
        );
        sim.run();
        let late_steps = sim
            .trace()
            .events()
            .iter()
            .filter(|e| {
                e.pid == ProcessId(0) && e.time >= crash_t && !matches!(e.kind, EventKind::Crash)
            })
            .count();
        assert_eq!(late_steps, 0, "no events from p0 at/after its crash time");
        assert_eq!(sim.trace().crashes().count(), 1);
    }

    #[test]
    fn all_crashed_stops_run() {
        let n = 2;
        let mut sim = ring_sim(
            n,
            FailurePattern::with_crashes(n, &[(ProcessId(0), 0), (ProcessId(1), 0)]),
        );
        let out = sim.run();
        assert_eq!(out.reason, StopReason::AllCrashed);
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim = ring_sim(2, FailurePattern::failure_free(2));
        let out = sim.run();
        assert_eq!(out.reason, StopReason::Horizon);
        assert_eq!(out.steps, 2_000);
    }

    #[test]
    fn predicate_stops_run() {
        let mut sim = ring_sim(3, FailurePattern::failure_free(3));
        let out = sim.run_until(|trace, _| trace.outputs().count() >= 5);
        assert_eq!(out.reason, StopReason::Predicate);
        assert_eq!(sim.trace().outputs().count(), 5);
    }

    #[test]
    fn fairness_every_correct_process_keeps_stepping_under_adversary() {
        let n = 4;
        let cfg = SimConfig::new(n).with_horizon(4_000);
        let mut sim = Sim::new(
            cfg,
            (0..n).map(|_| Ring { pings_seen: 0 }).collect(),
            FailurePattern::failure_free(n),
            NoDetector,
            Adversarial::new(0),
        );
        sim.run();
        for p in ProcessId::all(n) {
            let steps = sim.trace().steps_of(p);
            // With max_step_gap = 16 and 4000 steps, each process must step
            // at least every 16 time units.
            assert!(steps >= 4_000 / (16 + 1), "{p} starved: only {steps} steps");
        }
    }

    #[test]
    fn fairness_messages_are_delivered_within_bound_under_adversary() {
        let n = 3;
        let cfg = SimConfig::new(n).with_horizon(3_000);
        let mut sim = Sim::new(
            cfg,
            (0..n).map(|_| Ring { pings_seen: 0 }).collect(),
            FailurePattern::failure_free(n),
            NoDetector,
            Adversarial::new(7),
        );
        sim.run();
        // Every process keeps receiving pings: delivery can't be postponed
        // forever.
        for p in ProcessId::all(n) {
            assert!(
                sim.trace().outputs_of(p).count() > 20,
                "{p} should keep receiving pings under the adversary"
            );
        }
        // And nothing older than the bound lingers in flight for a live
        // receiver at the end of the run (receivers all alive here).
        let now = sim.now();
        let max_delay = sim.config().max_delay;
        // In-flight messages may be up to max_delay + max_step_gap old
        // because forcing happens when the receiver steps.
        let slack = 2 * (max_delay + sim.config().max_step_gap);
        for inbox in &sim.inboxes {
            for e in inbox {
                assert!(now - e.sent_at <= slack, "stale message in flight");
            }
        }
    }

    /// Invocation-driven protocol: outputs the doubled invocation payload.
    #[derive(Debug)]
    struct Doubler;

    impl Protocol for Doubler {
        type Msg = ();
        type Output = u32;
        type Inv = u32;
        type Fd = ();

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {}

        fn on_invoke(&mut self, ctx: &mut Ctx<Self>, inv: u32) {
            ctx.output(inv * 2);
        }
    }

    #[test]
    fn invocations_are_consumed_in_order_at_or_after_their_time() {
        let n = 2;
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(200),
            vec![Doubler, Doubler],
            FailurePattern::failure_free(n),
            NoDetector,
            RoundRobin::new(),
        );
        sim.schedule_invoke(ProcessId(0), 0, 1);
        sim.schedule_invoke(ProcessId(0), 10, 2);
        sim.schedule_invoke(ProcessId(1), 5, 3);
        sim.run();
        let outs0: Vec<u32> = sim
            .trace()
            .outputs_of(ProcessId(0))
            .map(|(_, o)| *o)
            .collect();
        assert_eq!(outs0, vec![2, 4]);
        let (t, _) = sim
            .trace()
            .outputs_of(ProcessId(1))
            .next()
            .expect("p1 output");
        assert!(t >= 5, "invocation must not fire before its scheduled time");
    }

    #[test]
    fn messages_to_crashed_processes_are_dropped() {
        let n = 2;
        let mut sim = ring_sim(
            n,
            FailurePattern::failure_free(n).with_crash(ProcessId(1), 1),
        );
        sim.run_until(|trace, _| trace.events().len() > 100);
        assert!(
            sim.inboxes[1].is_empty(),
            "inbox of crashed p1 should be dropped"
        );
    }

    #[test]
    #[should_panic(expected = "one protocol instance per process")]
    fn mismatched_process_count_panics() {
        let _ = Sim::new(
            SimConfig::new(3),
            vec![Doubler],
            FailurePattern::failure_free(3),
            NoDetector,
            RoundRobin::new(),
        );
    }

    #[test]
    fn into_parts_returns_state() {
        let n = 2;
        let mut sim = ring_sim(n, FailurePattern::failure_free(n));
        sim.run_until(|t, _| t.outputs().count() >= 4);
        let (procs, _det, _sched, trace) = sim.into_parts();
        assert_eq!(procs.len(), 2);
        assert!(procs.iter().map(|p| p.pings_seen).sum::<usize>() >= 4);
        assert!(trace.outputs().count() >= 4);
    }
}
