//! Registers from consensus — the state-machine step of Corollary 3:
//!
//! > "From Lamport's work on the state-machine approach we know that by
//! > using consensus we can implement any object, and in particular
//! > registers \[17, 21\]. Thus, using `D` we can implement registers in
//! > `E`. By (2), `D` can be transformed to Σ in `E`."
//!
//! [`RegisterFromConsensus`] replicates a register through a log of
//! consensus instances (one per slot): every operation is a command,
//! commands are forwarded to everyone (so the current Ω leader always has
//! something to propose), each slot's consensus picks one command, and a
//! process responds to its own operation when the command carrying it is
//! applied. Agreement per slot ⇒ identical logs ⇒ linearizability;
//! consensus termination per slot + fair forwarding ⇒ every pending
//! command is eventually chosen.
//!
//! Because the protocol speaks the standard [`AbdOp`]/[`AbdOutput`]
//! register interface, it slots straight into the **Figure 1 extraction**
//! — composing into the executable chain of Corollary 3:
//! *D solves consensus → D implements registers (here) → D yields Σ
//! (Figure 1).*

use crate::omega_sigma::{OmegaSigmaConsensus, PaxosMsg};
use crate::spec::ConsensusOutput;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;
use wfd_registers::abd::{AbdOp, AbdOutput, AbdResp};
use wfd_sim::{Ctx, ProcessId, ProcessSet, Protocol};

/// A register command: who issued it, a per-issuer tag, and the
/// operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Command<V> {
    /// The process whose operation this is.
    pub issuer: ProcessId,
    /// Issuer-local sequence number (dedup key).
    pub tag: u64,
    /// The register operation.
    pub op: AbdOp<V>,
}

/// Messages: command forwarding plus per-slot consensus traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum SmrMsg<V> {
    /// A command looking for a slot (flooded so any leader can propose
    /// it).
    Forward(Command<V>),
    /// Traffic of the consensus instance deciding slot `k`.
    Slot {
        /// The log slot.
        k: u64,
        /// Inner consensus message.
        inner: PaxosMsg<Command<V>>,
    },
}

/// One process of the consensus-replicated register.
#[derive(Debug)]
pub struct RegisterFromConsensus<V: Clone + Debug + PartialEq> {
    instances: BTreeMap<u64, OmegaSigmaConsensus<Command<V>>>,
    /// First slot not yet decided locally.
    next_slot: u64,
    /// Whether we proposed for `next_slot` already.
    proposed_slot: bool,
    /// Register value after applying all decided slots.
    state: V,
    /// Commands decided so far (dedup across slots).
    applied: BTreeSet<(ProcessId, u64)>,
    /// Commands known but not yet applied, ordered by (issuer, tag) so
    /// every process proposes deterministically.
    pool: Vec<Command<V>>,
    /// Our own operations awaiting commitment, oldest first.
    pending: VecDeque<Command<V>>,
    my_tag: u64,
    op_seq: u64,
}

impl<V: Clone + Debug + PartialEq> RegisterFromConsensus<V> {
    /// Create a process with the given initial register value.
    pub fn new(initial: V) -> Self {
        RegisterFromConsensus {
            instances: BTreeMap::new(),
            next_slot: 0,
            proposed_slot: false,
            state: initial,
            applied: BTreeSet::new(),
            pool: Vec::new(),
            pending: VecDeque::new(),
            my_tag: 0,
            op_seq: 0,
        }
    }

    /// The register value after all locally-applied commands.
    pub fn state(&self) -> &V {
        &self.state
    }

    /// Decided log length at this process.
    pub fn log_len(&self) -> u64 {
        self.next_slot
    }

    fn pool_insert(&mut self, cmd: Command<V>) {
        let key = (cmd.issuer, cmd.tag);
        if self.applied.contains(&key) || self.pool.iter().any(|c| (c.issuer, c.tag) == key) {
            return;
        }
        self.pool.push(cmd);
        self.pool.sort_by_key(|c| (c.issuer, c.tag));
    }

    fn with_slot(
        &mut self,
        ctx: &mut Ctx<Self>,
        k: u64,
        f: impl FnOnce(&mut OmegaSigmaConsensus<Command<V>>, &mut Ctx<OmegaSigmaConsensus<Command<V>>>),
    ) {
        let fd = *ctx.fd();
        let inst = self.instances.entry(k).or_default();
        let wrap = |inner| SmrMsg::Slot { k, inner };
        for out in ctx.host(fd, wrap, |ictx| f(inst, ictx)) {
            let ConsensusOutput::Decided(cmd) = out;
            self.on_slot_decided(ctx, k, cmd);
        }
    }

    fn on_slot_decided(&mut self, ctx: &mut Ctx<Self>, k: u64, cmd: Command<V>) {
        if k != self.next_slot {
            return; // applied in order; instance decisions are sticky
        }
        self.next_slot += 1;
        self.proposed_slot = false;
        let key = (cmd.issuer, cmd.tag);
        self.pool.retain(|c| (c.issuer, c.tag) != key);
        if self.applied.insert(key) {
            // Apply once; compute the response at the linearization point.
            let resp = match &cmd.op {
                AbdOp::Write(v) => {
                    self.state = v.clone();
                    AbdResp::WriteOk
                }
                AbdOp::Read => AbdResp::ReadOk(self.state.clone()),
            };
            if cmd.issuer == ctx.me() && self.pending.front().is_some_and(|c| c.tag == cmd.tag) {
                self.pending.pop_front();
                let id = (ctx.me(), self.op_seq);
                self.op_seq += 1;
                // Causal participants of the operation: the acceptor
                // quorum (plus proposer) behind the slot's decision. It
                // always contains a correct process (Σ-quorum
                // intersection) and is eventually all-correct — exactly
                // what the Figure 1 extraction needs from P_i(k).
                let participants = self
                    .instances
                    .get(&k)
                    .and_then(|i| i.decision_quorum().cloned())
                    .unwrap_or_else(|| ProcessSet::full(ctx.n()));
                ctx.output(AbdOutput::Completed {
                    id,
                    resp,
                    participants,
                });
            }
        }
        // Catch up: the next instance may already have decided (message
        // reordering); poke it.
        let next = self.next_slot;
        if self.instances.contains_key(&next) {
            if let Some(Some(cmd)) = self.instances.get(&next).map(|i| i.decision().cloned()) {
                self.on_slot_decided(ctx, next, cmd);
            }
        }
        self.drive(ctx);
    }

    /// Propose the deterministic pool-front for the current slot if we
    /// have anything to get committed.
    fn drive(&mut self, ctx: &mut Ctx<Self>) {
        let k = self.next_slot;
        if !self.proposed_slot {
            if let Some(cmd) = self.pool.first().cloned() {
                self.proposed_slot = true;
                self.with_slot(ctx, k, |inst, ictx| inst.on_invoke(ictx, cmd));
                return;
            }
        }
        if self.instances.contains_key(&k) {
            self.with_slot(ctx, k, |inst, ictx| inst.on_tick(ictx));
        }
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for RegisterFromConsensus<V> {
    type Msg = SmrMsg<V>;
    type Output = AbdOutput<V>;
    type Inv = AbdOp<V>;
    type Fd = (ProcessId, ProcessSet);

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, op: AbdOp<V>) {
        self.my_tag += 1;
        let cmd = Command {
            issuer: ctx.me(),
            tag: self.my_tag,
            op: op.clone(),
        };
        // Invocation ids are assigned at completion order (ops of one
        // process complete in issue order, so ids line up).
        let id = (ctx.me(), self.op_seq + self.pending.len() as u64);
        ctx.output(AbdOutput::Invoked { id, op });
        self.pending.push_back(cmd.clone());
        ctx.broadcast_others(SmrMsg::Forward(cmd.clone()));
        self.pool_insert(cmd);
        self.drive(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.drive(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: SmrMsg<V>) {
        match msg {
            SmrMsg::Forward(cmd) => {
                self.pool_insert(cmd);
                self.drive(ctx);
            }
            SmrMsg::Slot { k, inner } => {
                self.with_slot(ctx, k, |inst, ictx| inst.on_message(ictx, from, inner));
                self.drive(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfd_detectors::oracles::{OmegaOracle, PairOracle, SigmaOracle};
    use wfd_registers::check_linearizable;
    use wfd_registers::spec::{OpHistory, OpRecord, RegOp, RegResp};
    use wfd_sim::{EventKind, FailurePattern, RandomFair, Sim, SimConfig, Trace};

    type Smr = RegisterFromConsensus<u64>;

    fn history_of(trace: &Trace<SmrMsg<u64>, AbdOutput<u64>>) -> OpHistory {
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
                        if let Some(rec) = h.ops.iter_mut().find(|r| r.id == *id) {
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
        }
        h
    }

    fn run_smr(pattern: &FailurePattern, seed: u64, horizon: u64) -> OpHistory {
        let n = pattern.n();
        let fd = PairOracle::new(
            OmegaOracle::new(pattern, 100, seed),
            SigmaOracle::new(pattern, 100, seed),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| Smr::new(0)).collect(),
            pattern.clone(),
            fd,
            RandomFair::new(seed),
        );
        for p in 0..n {
            sim.schedule_invoke(ProcessId(p), 0, AbdOp::Write(100 + p as u64));
            sim.schedule_invoke(ProcessId(p), 300, AbdOp::Read);
            sim.schedule_invoke(ProcessId(p), 900, AbdOp::Read);
        }
        sim.run();
        history_of(sim.trace())
    }

    #[test]
    fn smr_register_is_linearizable() {
        for seed in 0..4 {
            let h = run_smr(&FailurePattern::failure_free(3), seed, 60_000);
            assert!(h.completed().count() >= 9, "seed {seed}: {h}");
            check_linearizable(&h).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{h}"));
        }
    }

    #[test]
    fn smr_register_survives_crashes() {
        let pattern = FailurePattern::with_crashes(3, &[(ProcessId(0), 500)]);
        for seed in 0..3 {
            let h = run_smr(&pattern, seed, 80_000);
            check_linearizable(&h).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{h}"));
            let late = h
                .completed()
                .filter(|o| o.response.expect("completed").0 > 500)
                .count();
            assert!(late > 0, "seed {seed}: survivors' ops must complete");
        }
    }

    #[test]
    fn logs_agree_across_processes() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let fd = PairOracle::new(
            OmegaOracle::new(&pattern, 50, 1),
            SigmaOracle::new(&pattern, 50, 1),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(60_000),
            (0..n).map(|_| Smr::new(0)).collect(),
            pattern,
            fd,
            RandomFair::new(1),
        );
        for p in 0..n {
            sim.schedule_invoke(ProcessId(p), 0, AbdOp::Write(p as u64));
        }
        sim.run_until(|_, procs| procs.iter().all(|s| s.log_len() >= 3));
        let states: Vec<u64> = sim.processes().iter().map(|s| *s.state()).collect();
        assert!(
            states.windows(2).all(|w| w[0] == w[1]),
            "replicated state diverged: {states:?}"
        );
    }

    #[test]
    fn accessors() {
        let s: Smr = RegisterFromConsensus::new(7);
        assert_eq!(*s.state(), 7);
        assert_eq!(s.log_len(), 0);
    }
}
