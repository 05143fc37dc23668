//! From binary to multivalued consensus — the Mostéfaoui–Raynal–Tronel
//! transformation the paper leans on in footnote 6: *"by using the
//! technique of \[20\] one can transform any binary QC algorithm into a
//! multivalued one."*
//!
//! Processes first flood their proposal values, then run a sequence of
//! binary consensus instances: instance `j` asks *"shall we decide the
//! value proposed by process `j mod n`?"*. A process proposes 1 for
//! instance `j` iff it has already received that process's value — and
//! crucially it re-floods the value in the same atomic step, so a
//! 1-decision implies the value is on its way to everyone. The first
//! instance that decides 1 fixes the outcome; cycling through `j`
//! forever guarantees one eventually does (all correct processes
//! eventually hold all correct proposals).
//!
//! The binary instances here are [`OmegaSigmaConsensus<u8>`] — any other
//! binary consensus protocol with the same interface would do.

use crate::omega_sigma::{OmegaSigmaConsensus, PaxosMsg};
use crate::spec::ConsensusOutput;
use std::collections::BTreeMap;
use std::fmt::Debug;
use wfd_sim::{Ctx, Footprint, ProcessId, ProcessSet, Protocol, StepKind};

/// Messages: proposal flooding plus wrapped binary-instance traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum MvMsg<V> {
    /// "Process `owner` proposed `v`" — flooded.
    Val {
        /// Whose proposal this is.
        owner: ProcessId,
        /// The proposed value.
        v: V,
    },
    /// Traffic of binary instance `instance`.
    Bin {
        /// Instance number `j` (target process is `j mod n`).
        instance: u64,
        /// Inner binary-consensus message.
        inner: PaxosMsg<u8>,
    },
}

/// One process of the multivalued-from-binary transformation.
#[derive(Debug)]
pub struct MultivaluedConsensus<V: Clone + Debug + PartialEq> {
    /// Proposals received so far, per owner.
    values: Vec<Option<V>>,
    /// Binary instances, created lazily.
    instances: BTreeMap<u64, OmegaSigmaConsensus<u8>>,
    /// The instance we are currently participating in.
    current: u64,
    proposed_current: bool,
    my_value: Option<V>,
    decided: Option<V>,
}

impl<V: Clone + Debug + PartialEq> MultivaluedConsensus<V> {
    /// Create a process for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        MultivaluedConsensus {
            values: vec![None; n],
            instances: BTreeMap::new(),
            current: 0,
            proposed_current: false,
            my_value: None,
            decided: None,
        }
    }

    /// The decision this process returned, if any.
    pub fn decision(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// The binary instance currently running.
    pub fn current_instance(&self) -> u64 {
        self.current
    }

    fn with_instance(
        &mut self,
        ctx: &mut Ctx<Self>,
        j: u64,
        f: impl FnOnce(&mut OmegaSigmaConsensus<u8>, &mut Ctx<OmegaSigmaConsensus<u8>>),
    ) {
        let fd = *ctx.fd();
        let inst = self.instances.entry(j).or_default();
        let wrap = |inner| MvMsg::Bin { instance: j, inner };
        for out in ctx.host(fd, wrap, |ictx| f(inst, ictx)) {
            self.on_instance_output(ctx, j, out);
        }
    }

    fn on_instance_output(&mut self, ctx: &mut Ctx<Self>, j: u64, out: ConsensusOutput<u8>) {
        let ConsensusOutput::Decided(bit) = out;
        if j != self.current || self.decided.is_some() {
            return;
        }
        if bit == 1 {
            let owner = (j % ctx.n() as u64) as usize;
            // A 1-decision implies some process had the value and flooded
            // it before proposing 1; wait for it if it is still in flight.
            if let Some(v) = self.values[owner].clone() {
                self.decided = Some(v.clone());
                ctx.output(ConsensusOutput::Decided(v));
            }
            // else: deferred to on_message(Val) below.
        } else {
            self.current = j + 1;
            self.proposed_current = false;
            self.maybe_propose(ctx);
        }
    }

    /// Propose for the current binary instance once we have proposed a
    /// value ourselves.
    fn maybe_propose(&mut self, ctx: &mut Ctx<Self>) {
        if self.my_value.is_none() || self.proposed_current || self.decided.is_some() {
            return;
        }
        let j = self.current;
        let owner = (j % ctx.n() as u64) as usize;
        let bit = if let Some(v) = self.values[owner].clone() {
            // Re-flood before proposing 1: a 1-decision must imply the
            // value reaches everyone.
            ctx.broadcast_others(MvMsg::Val {
                owner: ProcessId(owner),
                v,
            });
            1u8
        } else {
            0u8
        };
        self.proposed_current = true;
        self.with_instance(ctx, j, |inst, ictx| inst.on_invoke(ictx, bit));
    }

    /// Re-check a deferred decision (1 decided before the value arrived).
    fn check_deferred(&mut self, ctx: &mut Ctx<Self>) {
        if self.decided.is_some() {
            return;
        }
        let j = self.current;
        let owner = (j % ctx.n() as u64) as usize;
        let decided_one = self.instances.get(&j).and_then(|i| i.decision().copied()) == Some(1);
        if decided_one {
            if let Some(v) = self.values[owner].clone() {
                self.decided = Some(v.clone());
                ctx.output(ConsensusOutput::Decided(v));
            }
        }
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for MultivaluedConsensus<V> {
    type Msg = MvMsg<V>;
    type Output = ConsensusOutput<V>;
    type Inv = V;
    type Fd = (ProcessId, ProcessSet);

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, v: V) {
        if self.my_value.is_none() {
            self.my_value = Some(v.clone());
            self.values[ctx.me().index()] = Some(v.clone());
            ctx.broadcast_others(MvMsg::Val { owner: ctx.me(), v });
        }
        self.maybe_propose(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.maybe_propose(ctx);
        let j = self.current;
        if self.instances.contains_key(&j) {
            self.with_instance(ctx, j, |inst, ictx| inst.on_tick(ictx));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: MvMsg<V>) {
        match msg {
            MvMsg::Val { owner, v } => {
                if self.values[owner.index()].is_none() {
                    self.values[owner.index()] = Some(v);
                }
                self.check_deferred(ctx);
                self.maybe_propose(ctx);
            }
            MvMsg::Bin { instance, inner } => {
                self.with_instance(ctx, instance, |inst, ictx| {
                    inst.on_message(ictx, from, inner)
                });
            }
        }
    }

    fn footprint(&self, _me: ProcessId, n: usize, _step: StepKind<'_, Self>) -> Footprint {
        // Value floods and hosted binary instances may message anyone on
        // any step; the decision channel closes permanently once
        // `decided` is set (every `ctx.output` is guarded on it).
        let fp = Footprint::local().sends_to_all(n);
        if self.decided.is_some() {
            fp
        } else {
            fp.outputs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_consensus;
    use wfd_detectors::oracles::{OmegaOracle, PairOracle, SigmaOracle};
    use wfd_sim::{FailurePattern, RandomFair, Sim, SimConfig};

    type Mv = MultivaluedConsensus<u64>;

    fn run_mv(
        pattern: &FailurePattern,
        proposals: &[u64],
        stabilize: u64,
        seed: u64,
        horizon: u64,
    ) -> wfd_sim::Trace<MvMsg<u64>, ConsensusOutput<u64>> {
        let n = pattern.n();
        let fd = PairOracle::new(
            OmegaOracle::new(pattern, stabilize, seed),
            SigmaOracle::new(pattern, stabilize, seed),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| Mv::new(n)).collect(),
            pattern.clone(),
            fd,
            RandomFair::new(seed),
        );
        for (p, &v) in proposals.iter().enumerate() {
            sim.schedule_invoke(ProcessId(p), 0, v);
        }
        let correct = pattern.correct();
        sim.run_until(move |_, procs| {
            procs
                .iter()
                .enumerate()
                .all(|(i, p)| !correct.contains(ProcessId(i)) || p.decision().is_some())
        });
        let (_, _, _, trace) = sim.into_parts();
        trace
    }

    #[test]
    fn decides_a_proposed_multivalue() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let proposals = [111, 222, 333];
        for seed in 0..3 {
            let trace = run_mv(&pattern, &proposals, 40, seed, 80_000);
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            let stats = check_consensus(&trace, &props, &pattern)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert!(proposals.contains(&stats.decision.expect("decided")));
        }
    }

    #[test]
    fn decides_despite_crashes() {
        let n = 4;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 30)]);
        let proposals = [5, 6, 7, 8];
        for seed in 0..3 {
            let trace = run_mv(&pattern, &proposals, 300, seed, 120_000);
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            check_consensus(&trace, &props, &pattern)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn accessors() {
        let p: Mv = MultivaluedConsensus::new(3);
        assert_eq!(p.decision(), None);
        assert_eq!(p.current_instance(), 0);
    }
}
