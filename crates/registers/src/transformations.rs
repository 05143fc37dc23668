//! Classical register transformations — the step the paper's Theorem 1
//! proof sketch delegates to the literature:
//!
//! > "we adapt the algorithm of \[1\] to show how an atomic register with
//! > one reader and one writer can be implemented with Σ. Then, using the
//! > classical results \[16, 23\], we deduce that atomic registers with
//! > multiple readers and writers can be implemented."
//!
//! This module provides the executable counterparts:
//!
//! * [`SwmrRegister`] — a single-writer restriction of the quorum
//!   register: process `owner` is the only one allowed to write (the
//!   base object of the classical constructions).
//! * [`MwmrFromSwmr`] — the classical multi-writer construction over `n`
//!   single-writer registers: to write, read all registers, pick a
//!   timestamp larger than everything seen (ties broken by writer id)
//!   and write `(ts, v)` to *your own* register; to read, read all
//!   registers and return the value with the largest timestamp, then
//!   **write it back to your own register** so that later readers cannot
//!   see an older value (the read-must-write rule that makes the
//!   construction atomic rather than merely regular).
//!
//! `MwmrFromSwmr` is itself a register speaking the standard
//! [`AbdOp`]/[`AbdOutput`] interface, so the linearizability checker
//! applies to it unchanged — and so it can even be slotted back into the
//! Figure 1 extraction as "algorithm A".

use crate::abd::{AbdMsg, AbdOp, AbdOutput, AbdRegister, AbdResp, QuorumRule, Ts};
use std::collections::VecDeque;
use std::fmt::Debug;
use wfd_sim::{Ctx, ProcessId, ProcessSet, Protocol};

/// A single-writer multi-reader register: a [`AbdRegister`] whose write
/// operations are restricted to `owner`.
#[derive(Clone, Debug)]
pub struct SwmrRegister<V> {
    inner: AbdRegister<V>,
    owner: ProcessId,
}

impl<V: Clone + Debug + PartialEq> SwmrRegister<V> {
    /// Create one process's replica of the register owned (written) by
    /// `owner`.
    pub fn new(owner: ProcessId, rule: QuorumRule, initial: V) -> Self {
        SwmrRegister {
            inner: AbdRegister::new(rule, initial),
            owner,
        }
    }

    /// The register's designated writer.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// Run `f` on the hosted register, forwarding its effects one-to-one.
    fn with_inner(
        &mut self,
        ctx: &mut Ctx<Self>,
        f: impl FnOnce(&mut AbdRegister<V>, &mut Ctx<AbdRegister<V>>),
    ) {
        let fd = *ctx.fd();
        for out in ctx.host(fd, |msg| msg, |ictx| f(&mut self.inner, ictx)) {
            ctx.output(out);
        }
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for SwmrRegister<V> {
    type Msg = AbdMsg<V>;
    type Output = AbdOutput<V>;
    type Inv = AbdOp<V>;
    type Fd = ProcessSet;

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, inv: AbdOp<V>) {
        assert!(
            !matches!(inv, AbdOp::Write(_)) || ctx.me() == self.owner,
            "single-writer register owned by {} written by {}",
            self.owner,
            ctx.me()
        );
        self.with_inner(ctx, |inner, ictx| inner.on_invoke(ictx, inv));
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.with_inner(ctx, |inner, ictx| inner.on_tick(ictx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: AbdMsg<V>) {
        self.with_inner(ctx, |inner, ictx| inner.on_message(ictx, from, msg));
    }
}

/// A `(writer-timestamp, value)` cell stored in each single-writer
/// register of the multi-writer construction.
type Cell<V> = (Ts, Option<V>);

/// Messages of the multi-writer construction: instance-tagged traffic of
/// the `n` hosted single-writer registers.
#[derive(Clone, Debug, PartialEq)]
pub struct MwMsg<V> {
    /// Which single-writer register (index = its owner).
    pub instance: usize,
    /// Inner register message.
    pub inner: AbdMsg<Cell<V>>,
}

#[derive(Clone, Debug)]
enum MwStage<V> {
    Idle,
    /// Collecting reads of all `n` registers before completing `op`.
    Collect {
        op: AbdOp<V>,
        j: usize,
        best: Cell<V>,
    },
    /// Writing `(ts, v)` to our own register; respond with `resp` when it
    /// completes.
    WriteOwn {
        resp: AbdResp<V>,
    },
}

/// The classical multi-writer multi-reader register built from `n`
/// single-writer registers (one per process).
#[derive(Debug)]
pub struct MwmrFromSwmr<V: Clone + Debug + PartialEq> {
    regs: Vec<SwmrRegister<Cell<V>>>,
    stage: MwStage<V>,
    queue: VecDeque<AbdOp<V>>,
    op_seq: u64,
    initial: V,
}

impl<V: Clone + Debug + PartialEq> MwmrFromSwmr<V> {
    /// Create one process of the construction for a system of `n`
    /// processes; the hosted single-writer registers use quorum `rule`
    /// and reads before any write return `initial`.
    pub fn new(n: usize, rule: QuorumRule, initial: V) -> Self {
        MwmrFromSwmr {
            regs: (0..n)
                .map(|owner| SwmrRegister::new(ProcessId(owner), rule, (Ts::ZERO, None)))
                .collect(),
            stage: MwStage::Idle,
            queue: VecDeque::new(),
            op_seq: 0,
            initial,
        }
    }

    fn with_instance(
        &mut self,
        ctx: &mut Ctx<Self>,
        idx: usize,
        f: impl FnOnce(&mut SwmrRegister<Cell<V>>, &mut Ctx<SwmrRegister<Cell<V>>>),
    ) {
        let fd = *ctx.fd();
        let wrap = |inner| MwMsg {
            instance: idx,
            inner,
        };
        for out in ctx.host(fd, wrap, |ictx| f(&mut self.regs[idx], ictx)) {
            self.on_instance_output(ctx, idx, out);
        }
    }

    fn start_next(&mut self, ctx: &mut Ctx<Self>) {
        if !matches!(self.stage, MwStage::Idle) {
            return;
        }
        let Some(op) = self.queue.pop_front() else {
            return;
        };
        let id = (ctx.me(), self.op_seq);
        self.op_seq += 1;
        ctx.output(AbdOutput::Invoked { id, op: op.clone() });
        self.stage = MwStage::Collect {
            op,
            j: 0,
            best: (Ts::ZERO, None),
        };
        self.with_instance(ctx, 0, |reg, ictx| reg.on_invoke(ictx, AbdOp::Read));
    }

    fn on_instance_output(&mut self, ctx: &mut Ctx<Self>, idx: usize, out: AbdOutput<Cell<V>>) {
        let AbdOutput::Completed { resp, .. } = out else {
            return;
        };
        match (std::mem::replace(&mut self.stage, MwStage::Idle), resp) {
            (MwStage::Collect { op, j, best }, AbdResp::ReadOk(cell)) if idx == j => {
                let best = if cell.0 > best.0 { cell } else { best };
                if j + 1 < ctx.n() {
                    self.stage = MwStage::Collect { op, j: j + 1, best };
                    self.with_instance(ctx, j + 1, |reg, ictx| reg.on_invoke(ictx, AbdOp::Read));
                } else {
                    // All registers read: derive what to write to our own.
                    let me = ctx.me();
                    let (ts, resp, val) = match op {
                        AbdOp::Write(v) => (
                            Ts {
                                seq: best.0.seq + 1,
                                writer: me,
                            },
                            AbdResp::WriteOk,
                            Some(v),
                        ),
                        AbdOp::Read => {
                            // Read-write-back: republish the value we are
                            // about to return under its timestamp, so our
                            // own register never regresses.
                            let v = best.1.clone();
                            let returned = v.clone().unwrap_or_else(|| self.initial.clone());
                            (best.0, AbdResp::ReadOk(returned), v)
                        }
                    };
                    self.stage = MwStage::WriteOwn { resp };
                    let cell = (ts, val);
                    let own = me.index();
                    self.with_instance(ctx, own, |reg, ictx| {
                        reg.on_invoke(ictx, AbdOp::Write(cell))
                    });
                }
            }
            (MwStage::WriteOwn { resp }, AbdResp::WriteOk) if idx == ctx.me().index() => {
                let id = (ctx.me(), self.op_seq - 1);
                ctx.output(AbdOutput::Completed {
                    id,
                    resp,
                    participants: ProcessSet::new(),
                });
                self.start_next(ctx);
            }
            (stage, _) => self.stage = stage,
        }
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for MwmrFromSwmr<V> {
    type Msg = MwMsg<V>;
    type Output = AbdOutput<V>;
    type Inv = AbdOp<V>;
    type Fd = ProcessSet;

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, inv: AbdOp<V>) {
        self.queue.push_back(inv);
        self.start_next(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        for idx in 0..self.regs.len() {
            self.with_instance(ctx, idx, |reg, ictx| reg.on_tick(ictx));
        }
        self.start_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: MwMsg<V>) {
        let MwMsg { instance, inner } = msg;
        self.with_instance(ctx, instance, |reg, ictx| reg.on_message(ictx, from, inner));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearizability::check_linearizable;
    use crate::spec::{OpHistory, OpRecord, RegOp, RegResp};
    use wfd_detectors::oracles::SigmaOracle;
    use wfd_sim::{EventKind, FailurePattern, RandomFair, Sim, SimConfig, Trace};

    type Mw = MwmrFromSwmr<u64>;

    fn history_of(trace: &Trace<MwMsg<u64>, AbdOutput<u64>>) -> OpHistory {
        let mut h = OpHistory::new(0);
        for event in trace.events() {
            if let EventKind::Output(out) = &event.kind {
                match out {
                    AbdOutput::Invoked { id, op } => h.ops.push(OpRecord {
                        id: *id,
                        op: match op {
                            AbdOp::Read => RegOp::Read,
                            AbdOp::Write(v) => RegOp::Write(*v),
                        },
                        invoked_at: event.time,
                        response: None,
                        participants: ProcessSet::new(),
                    }),
                    AbdOutput::Completed { id, resp, .. } => {
                        let rec = h.ops.iter_mut().find(|r| r.id == *id).expect("invoked");
                        rec.response = Some((
                            event.time,
                            match resp {
                                AbdResp::ReadOk(v) => RegResp::ReadOk(*v),
                                AbdResp::WriteOk => RegResp::WriteOk,
                            },
                        ));
                    }
                }
            }
        }
        h
    }

    fn run_mwmr(n: usize, pattern: FailurePattern, seed: u64) -> OpHistory {
        let sigma = SigmaOracle::new(&pattern, 100, seed).with_jitter(50);
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(60_000),
            (0..n)
                .map(|_| Mw::new(n, QuorumRule::Detector, 0))
                .collect(),
            pattern,
            sigma,
            RandomFair::new(seed),
        );
        // Concurrent writers and readers; a seed write avoids the
        // never-written-read panic.
        sim.schedule_invoke(ProcessId(0), 0, AbdOp::Write(1_000));
        for p in 0..n {
            sim.schedule_invoke(
                ProcessId(p),
                400 + 10 * p as u64,
                AbdOp::Write(2_000 + p as u64),
            );
            sim.schedule_invoke(ProcessId(p), 500, AbdOp::Read);
            sim.schedule_invoke(ProcessId(p), 1_500, AbdOp::Read);
        }
        sim.run();
        history_of(sim.trace())
    }

    #[test]
    fn mwmr_from_swmr_is_linearizable() {
        for seed in 0..4 {
            let h = run_mwmr(3, FailurePattern::failure_free(3), seed);
            assert!(h.completed().count() >= 9, "seed {seed}");
            check_linearizable(&h).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{h}"));
        }
    }

    #[test]
    fn mwmr_from_swmr_survives_crashes() {
        let pattern = FailurePattern::with_crashes(3, &[(ProcessId(2), 800)]);
        for seed in 0..3 {
            let h = run_mwmr(3, pattern.clone(), seed);
            check_linearizable(&h).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{h}"));
            // Survivors' late reads completed.
            let late = h
                .completed()
                .filter(|o| o.response.expect("completed").0 > 800)
                .count();
            assert!(late > 0, "seed {seed}: late ops should complete");
        }
    }

    #[test]
    #[should_panic(expected = "single-writer register owned by")]
    fn swmr_rejects_foreign_writer() {
        let mut reg: SwmrRegister<u64> = SwmrRegister::new(ProcessId(0), QuorumRule::Majority, 0);
        let mut ctx = Ctx::<SwmrRegister<u64>>::detached(ProcessId(1), 2, 0, ProcessSet::full(2));
        reg.on_invoke(&mut ctx, AbdOp::Write(5));
    }

    #[test]
    fn swmr_allows_owner_writes_and_any_reads() {
        let mut reg: SwmrRegister<u64> = SwmrRegister::new(ProcessId(0), QuorumRule::Majority, 0);
        assert_eq!(reg.owner(), ProcessId(0));
        let mut wctx = Ctx::<SwmrRegister<u64>>::detached(ProcessId(0), 2, 0, ProcessSet::full(2));
        reg.on_invoke(&mut wctx, AbdOp::Write(5));
        let mut rctx = Ctx::<SwmrRegister<u64>>::detached(ProcessId(1), 2, 1, ProcessSet::full(2));
        reg.on_invoke(&mut rctx, AbdOp::Read);
    }
}
