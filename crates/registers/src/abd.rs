//! The Attiya–Bar-Noy–Dolev register, quorum-generalised.
//!
//! The paper (§3, sufficiency half of Theorem 1): *"Where that algorithm
//! uses majorities to ensure that a read operation returns the most
//! recently written value, we can use the quorums provided by Σ to the
//! same effect."* [`AbdRegister`] implements exactly that: a multi-writer
//! multi-reader atomic register in which each phase waits until the
//! responder set **covers a quorum currently output by Σ**
//! ([`QuorumRule::Detector`]) or, as the classical baseline, until it
//! reaches a majority ([`QuorumRule::Majority`]).
//!
//! * Safety (linearizability) follows from Σ's intersection property: any
//!   two phases intersect in some replica, so a read's query phase meets
//!   the latest write's store phase.
//! * Liveness follows from Σ's completeness: eventually Σ outputs only
//!   correct processes, all of which reply.
//!
//! With `QuorumRule::Majority` the register is live only while a majority
//! is correct — the crossover that experiment E2 measures.
//!
//! The register is generic in its value type `V` because the Figure 1
//! extraction (paper §3, necessity half) stores *sets of participant
//! sets* in its registers.

use crate::spec::{OpHistory, OpId, OpRecord, RegOp, RegResp, Value};
use std::collections::VecDeque;
use std::fmt::Debug;
use wfd_sim::{Ctx, EventKind, ProcessId, ProcessSet, Protocol, Trace};

/// How a phase decides it has heard from "enough" replicas.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QuorumRule {
    /// Wait until the responders cover some quorum currently output by the
    /// Σ failure detector module of this process.
    Detector,
    /// Wait for a majority (`⌊n/2⌋ + 1`) of replicas — the original ABD
    /// rule, which needs no detector but requires a correct majority.
    Majority,
}

/// A logical timestamp `(sequence, writer)` with lexicographic order —
/// ties between concurrent writers are broken by process id.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ts {
    /// Sequence number.
    pub seq: u64,
    /// The writer that produced this timestamp.
    pub writer: ProcessId,
}

impl Ts {
    /// The timestamp of the initial register value.
    pub const ZERO: Ts = Ts {
        seq: 0,
        writer: ProcessId(0),
    };
}

/// Register operations, generic in the stored value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbdOp<V> {
    /// Read the register.
    Read,
    /// Write a value.
    Write(V),
}

/// Register responses, generic in the stored value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbdResp<V> {
    /// Value returned by a read.
    ReadOk(V),
    /// Write acknowledgement.
    WriteOk,
}

/// Protocol messages of the ABD register.
#[derive(Clone, Debug, PartialEq)]
pub enum AbdMsg<V> {
    /// Phase 1: ask a replica for its current `(ts, value)`.
    Query {
        /// Nonce identifying the in-progress operation at the invoker.
        op: u64,
    },
    /// Phase-1 reply.
    Reply {
        /// Nonce echoed back.
        op: u64,
        /// Replica's current timestamp.
        ts: Ts,
        /// Replica's current value.
        val: V,
    },
    /// Phase 2: ask a replica to adopt `(ts, value)` if newer.
    Store {
        /// Nonce identifying the in-progress operation.
        op: u64,
        /// Timestamp to store.
        ts: Ts,
        /// Value to store.
        val: V,
    },
    /// Phase-2 acknowledgement.
    StoreAck {
        /// Nonce echoed back.
        op: u64,
    },
}

/// Observable outputs of the register protocol; feed a run's outputs to
/// [`op_history_from_trace`] to obtain a checkable [`OpHistory`].
#[derive(Clone, Debug, PartialEq)]
pub enum AbdOutput<V> {
    /// An operation left the local queue and began executing.
    Invoked {
        /// Operation id.
        id: OpId,
        /// The operation.
        op: AbdOp<V>,
    },
    /// An operation completed.
    Completed {
        /// Operation id.
        id: OpId,
        /// Its response.
        resp: AbdResp<V>,
        /// The replicas that served it (responders of both phases) — the
        /// participant set used by the Figure 1 extraction.
        participants: ProcessSet,
    },
}

#[derive(Clone, Debug)]
enum Phase<V> {
    Idle,
    Query {
        kind: AbdOp<V>,
        replies: Vec<Option<(Ts, V)>>,
        responders: ProcessSet,
    },
    Store {
        kind: AbdOp<V>,
        ts: Ts,
        val: V,
        acks: ProcessSet,
        participants: ProcessSet,
    },
}

/// One process of the quorum-generalised ABD register. Acts as client
/// (executing its own invocations) and replica (serving everyone's).
#[derive(Clone, Debug)]
pub struct AbdRegister<V> {
    rule: QuorumRule,
    // Replica state.
    ts: Ts,
    val: V,
    // Client state.
    phase: Phase<V>,
    op_nonce: u64,
    op_seq: u64,
    queue: VecDeque<AbdOp<V>>,
}

impl<V: Clone + Debug + PartialEq> AbdRegister<V> {
    /// Create a register process with the given quorum rule and initial
    /// register value.
    pub fn new(rule: QuorumRule, initial: V) -> Self {
        AbdRegister {
            rule,
            ts: Ts::ZERO,
            val: initial,
            phase: Phase::Idle,
            op_nonce: 0,
            op_seq: 0,
            queue: VecDeque::new(),
        }
    }

    /// Whether the process is between operations (nothing in flight or
    /// queued).
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Idle) && self.queue.is_empty()
    }

    /// The replica's current `(ts, value)` — visible for tests and for
    /// embedding protocols.
    pub fn replica_state(&self) -> (Ts, &V) {
        (self.ts, &self.val)
    }

    fn quorum_satisfied(&self, responders: &ProcessSet, ctx: &Ctx<Self>) -> bool {
        match self.rule {
            QuorumRule::Majority => responders.len() > ctx.n() / 2,
            QuorumRule::Detector => {
                let quorum = ctx.fd();
                !quorum.is_empty() && quorum.is_subset(responders)
            }
        }
    }

    fn start_next_op(&mut self, ctx: &mut Ctx<Self>) {
        if !matches!(self.phase, Phase::Idle) {
            return;
        }
        let Some(kind) = self.queue.pop_front() else {
            return;
        };
        self.op_nonce += 1;
        let id = (ctx.me(), self.op_seq);
        self.op_seq += 1;
        ctx.output(AbdOutput::Invoked {
            id,
            op: kind.clone(),
        });
        self.phase = Phase::Query {
            kind,
            replies: vec![None; ctx.n()],
            responders: ProcessSet::new(),
        };
        ctx.broadcast(AbdMsg::Query { op: self.op_nonce });
    }

    /// Progress check, run with the failure detector value of the current
    /// step: Σ's current quorum may have shrunk below the responders we
    /// already have.
    fn try_advance(&mut self, ctx: &mut Ctx<Self>) {
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => self.start_next_op(ctx),
            Phase::Query {
                kind,
                replies,
                responders,
            } => {
                if !self.quorum_satisfied(&responders, ctx) {
                    self.phase = Phase::Query {
                        kind,
                        replies,
                        responders,
                    };
                    return;
                }
                let (max_ts, max_val) = replies
                    .iter()
                    .flatten()
                    .max_by_key(|(ts, _)| *ts)
                    .map(|(ts, v)| (*ts, v.clone()))
                    .expect("a satisfied quorum is non-empty");
                let (store_ts, store_val) = match &kind {
                    AbdOp::Write(v) => (
                        Ts {
                            seq: max_ts.seq + 1,
                            writer: ctx.me(),
                        },
                        v.clone(),
                    ),
                    AbdOp::Read => (max_ts, max_val),
                };
                self.op_nonce += 1;
                self.phase = Phase::Store {
                    kind,
                    ts: store_ts,
                    val: store_val.clone(),
                    acks: ProcessSet::new(),
                    participants: responders,
                };
                ctx.broadcast(AbdMsg::Store {
                    op: self.op_nonce,
                    ts: store_ts,
                    val: store_val,
                });
            }
            Phase::Store {
                kind,
                ts,
                val,
                acks,
                participants,
            } => {
                if !self.quorum_satisfied(&acks, ctx) {
                    self.phase = Phase::Store {
                        kind,
                        ts,
                        val,
                        acks,
                        participants,
                    };
                    return;
                }
                let id = (ctx.me(), self.op_seq - 1);
                let resp = match kind {
                    AbdOp::Read => AbdResp::ReadOk(val),
                    AbdOp::Write(_) => AbdResp::WriteOk,
                };
                let participants = participants.union(&acks);
                ctx.output(AbdOutput::Completed {
                    id,
                    resp,
                    participants,
                });
                self.start_next_op(ctx);
            }
        }
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for AbdRegister<V> {
    type Msg = AbdMsg<V>;
    type Output = AbdOutput<V>;
    type Inv = AbdOp<V>;
    type Fd = ProcessSet;

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, inv: AbdOp<V>) {
        self.queue.push_back(inv);
        self.try_advance(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        // Σ's quorum can change between steps; re-check progress.
        self.try_advance(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: AbdMsg<V>) {
        match msg {
            AbdMsg::Query { op } => {
                ctx.send(
                    from,
                    AbdMsg::Reply {
                        op,
                        ts: self.ts,
                        val: self.val.clone(),
                    },
                );
            }
            AbdMsg::Store { op, ts, val } => {
                if ts > self.ts {
                    self.ts = ts;
                    self.val = val;
                }
                ctx.send(from, AbdMsg::StoreAck { op });
            }
            AbdMsg::Reply { op, ts, val } => {
                if op == self.op_nonce {
                    if let Phase::Query {
                        replies,
                        responders,
                        ..
                    } = &mut self.phase
                    {
                        replies[from.index()] = Some((ts, val));
                        responders.insert(from);
                    }
                }
                self.try_advance(ctx);
            }
            AbdMsg::StoreAck { op } => {
                if op == self.op_nonce {
                    if let Phase::Store { acks, .. } = &mut self.phase {
                        acks.insert(from);
                    }
                }
                self.try_advance(ctx);
            }
        }
    }
}

/// Reconstruct a checkable operation history from a run trace of
/// `AbdRegister<Value>` processes.
///
/// Operations that never completed (e.g. their invoker crashed) appear as
/// pending records, which the linearizability checker treats per the
/// standard pending-operation semantics.
pub fn op_history_from_trace(
    trace: &Trace<AbdMsg<Value>, AbdOutput<Value>>,
    initial: Value,
) -> OpHistory {
    let mut h = OpHistory::new(initial);
    for event in trace.events() {
        if let EventKind::Output(out) = &event.kind {
            match out {
                AbdOutput::Invoked { id, op } => {
                    h.ops.push(OpRecord {
                        id: *id,
                        op: match op {
                            AbdOp::Read => RegOp::Read,
                            AbdOp::Write(v) => RegOp::Write(*v),
                        },
                        invoked_at: event.time,
                        response: None,
                        participants: ProcessSet::new(),
                    });
                }
                AbdOutput::Completed {
                    id,
                    resp,
                    participants,
                } => {
                    let rec = h
                        .ops
                        .iter_mut()
                        .find(|r| r.id == *id)
                        .expect("completion without invocation");
                    rec.response = Some((
                        event.time,
                        match resp {
                            AbdResp::ReadOk(v) => RegResp::ReadOk(*v),
                            AbdResp::WriteOk => RegResp::WriteOk,
                        },
                    ));
                    rec.participants = *participants;
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearizability::check_linearizable;
    use wfd_detectors::oracles::SigmaOracle;
    use wfd_sim::{
        Adversarial, ConstDetector, Environment, FailurePattern, PatternSampler, RandomFair,
        Scheduler, Sim, SimConfig,
    };

    type Reg = AbdRegister<Value>;

    /// Build a sim with one read/write workload per process: each process
    /// alternates `write(unique)` / `read`, `ops_per_proc` times.
    fn run_register<S: Scheduler>(
        n: usize,
        rule: QuorumRule,
        pattern: FailurePattern,
        sigma_stabilize: u64,
        sched: S,
        ops_per_proc: u64,
        horizon: u64,
    ) -> OpHistory {
        run_register_spaced(
            n,
            rule,
            pattern,
            sigma_stabilize,
            sched,
            ops_per_proc,
            horizon,
            40,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_register_spaced<S: Scheduler>(
        n: usize,
        rule: QuorumRule,
        pattern: FailurePattern,
        sigma_stabilize: u64,
        sched: S,
        ops_per_proc: u64,
        horizon: u64,
        spacing: u64,
    ) -> OpHistory {
        let sigma = SigmaOracle::new(&pattern, sigma_stabilize, 7).with_jitter(sigma_stabilize / 2);
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| Reg::new(rule, 0)).collect(),
            pattern,
            sigma,
            sched,
        );
        for p in 0..n {
            for k in 0..ops_per_proc {
                let t = k * spacing;
                let unique = (p as u64 + 1) * 1_000 + k;
                sim.schedule_invoke(ProcessId(p), t, AbdOp::Write(unique));
                sim.schedule_invoke(ProcessId(p), t + spacing / 2, AbdOp::Read);
            }
        }
        sim.run();
        op_history_from_trace(sim.trace(), 0)
    }

    #[test]
    fn sigma_abd_is_linearizable_failure_free() {
        for seed in 0..5 {
            let h = run_register(
                3,
                QuorumRule::Detector,
                FailurePattern::failure_free(3),
                30,
                RandomFair::new(seed),
                3,
                6_000,
            );
            assert!(
                h.completed().count() >= 15,
                "seed {seed}: ops should complete"
            );
            check_linearizable(&h).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{h}"));
        }
    }

    #[test]
    fn sigma_abd_survives_majority_crash() {
        // 3 of 5 crash: majorities are impossible, but Σ keeps the
        // register both safe and live — the heart of Theorem 1.
        let n = 5;
        let pattern = FailurePattern::with_crashes(
            n,
            &[
                (ProcessId(1), 400),
                (ProcessId(2), 600),
                (ProcessId(4), 800),
            ],
        );
        for seed in 0..5 {
            // Spacing of 600 puts the last write/read pairs well after the
            // final crash at t = 800.
            let h = run_register_spaced(
                n,
                QuorumRule::Detector,
                pattern.clone(),
                1_000,
                RandomFair::new(seed),
                4,
                30_000,
                600,
            );
            check_linearizable(&h).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{h}"));
            // The two survivors must still complete operations *after* the
            // last crash.
            let late_completions = h
                .completed()
                .filter(|o| o.response.expect("completed").0 > 800)
                .count();
            assert!(
                late_completions > 0,
                "seed {seed}: Σ-ABD must stay live with a crashed majority"
            );
        }
    }

    #[test]
    fn majority_abd_is_linearizable_with_minority_crashes() {
        let n = 5;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 300), (ProcessId(3), 500)]);
        for seed in 0..5 {
            let sigma = ConstDetector::new(ProcessSet::new());
            let mut sim = Sim::new(
                SimConfig::new(n).with_horizon(15_000),
                (0..n).map(|_| Reg::new(QuorumRule::Majority, 0)).collect(),
                pattern.clone(),
                sigma,
                RandomFair::new(seed),
            );
            for p in 0..n {
                sim.schedule_invoke(ProcessId(p), 10, AbdOp::Write(100 + p as u64));
                sim.schedule_invoke(ProcessId(p), 200, AbdOp::Read);
                sim.schedule_invoke(ProcessId(p), 900, AbdOp::Read);
            }
            sim.run();
            let h = op_history_from_trace(sim.trace(), 0);
            check_linearizable(&h).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{h}"));
            assert!(h.completed().count() >= n);
        }
    }

    #[test]
    fn majority_abd_blocks_when_majority_crashes() {
        let n = 5;
        let pattern = FailurePattern::with_crashes(
            n,
            &[
                (ProcessId(0), 100),
                (ProcessId(1), 100),
                (ProcessId(2), 100),
            ],
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(10_000),
            (0..n).map(|_| Reg::new(QuorumRule::Majority, 0)).collect(),
            pattern,
            ConstDetector::new(ProcessSet::new()),
            RandomFair::new(3),
        );
        // Invoke *after* the majority is gone.
        sim.schedule_invoke(ProcessId(3), 500, AbdOp::Write(7));
        sim.run();
        let h = op_history_from_trace(sim.trace(), 0);
        let op = h
            .ops
            .iter()
            .find(|o| o.id == (ProcessId(3), 0))
            .expect("invoked");
        assert!(
            !op.is_complete(),
            "majority ABD must block without a live majority (got {op})"
        );
    }

    #[test]
    fn sigma_abd_linearizable_under_adversarial_schedule() {
        let n = 4;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 700)]);
        let h = run_register(
            n,
            QuorumRule::Detector,
            pattern,
            900,
            Adversarial::new(5),
            3,
            25_000,
        );
        check_linearizable(&h).unwrap_or_else(|e| panic!("{e}\n{h}"));
    }

    #[test]
    fn property_random_environments_and_schedules_stay_linearizable() {
        // Sweep: random patterns from the unrestricted environment ×
        // random schedules; Σ-ABD must be linearizable in every run.
        let n = 4;
        let mut sampler = PatternSampler::new(n, Environment::AtLeastOneCorrect, 99);
        for case in 0..12u64 {
            let pattern = sampler.sample(2_000);
            let h = run_register(
                n,
                QuorumRule::Detector,
                pattern.clone(),
                2_500,
                RandomFair::new(case),
                2,
                12_000,
            );
            check_linearizable(&h)
                .unwrap_or_else(|e| panic!("case {case} pattern {pattern}: {e}\n{h}"));
        }
    }

    #[test]
    fn participants_are_recorded_for_completed_ops() {
        let h = run_register(
            3,
            QuorumRule::Detector,
            FailurePattern::failure_free(3),
            10,
            RandomFair::new(1),
            1,
            4_000,
        );
        for op in h.completed() {
            assert!(
                !op.participants.is_empty(),
                "completed ops must record their quorum participants"
            );
        }
    }

    #[test]
    fn replica_accessors() {
        let r: Reg = AbdRegister::new(QuorumRule::Majority, 42);
        assert!(r.is_idle());
        let (ts, v) = r.replica_state();
        assert_eq!(ts, Ts::ZERO);
        assert_eq!(*v, 42);
    }

    #[test]
    fn timestamps_order_lexicographically() {
        let a = Ts {
            seq: 1,
            writer: ProcessId(2),
        };
        let b = Ts {
            seq: 2,
            writer: ProcessId(0),
        };
        let c = Ts {
            seq: 1,
            writer: ProcessId(3),
        };
        assert!(a < b);
        assert!(a < c, "same seq breaks ties by writer id");
    }
}
