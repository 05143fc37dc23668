//! From binary to multivalued quittable consensus — footnote 6 of the
//! paper, verbatim: *"We assume here that A can solve multivalued QC.
//! This causes no loss of generality: by using the technique of \[20\]
//! one can transform any binary QC algorithm into a multivalued one."*
//!
//! The Mostéfaoui–Raynal–Tronel loop, adapted to the quit option:
//! processes flood their proposals and run binary QC instances — instance
//! `j` asks *"shall we decide the value proposed by `p_{j mod n}`?"* — in
//! a common order. The adaptation: a binary instance may return `Q`, and
//! then everyone returns `Q` (agreement per instance makes the choice
//! common; validity (b) is inherited, since the inner `Q` already
//! certifies a failure). Otherwise the first 1-instance fixes the value,
//! exactly as in the consensus version.

use crate::psi_qc::PsiQc;
use crate::spec::QcDecision;
use std::collections::BTreeMap;
use std::fmt::Debug;
use wfd_consensus::omega_sigma::PaxosMsg;
use wfd_consensus::ConsensusOutput;
use wfd_detectors::PsiValue;
use wfd_sim::{Ctx, Footprint, ProcessId, Protocol, StepKind};

/// Messages: proposal flooding plus wrapped binary-QC traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum MvQcMsg<V> {
    /// "Process `owner` proposed `v`" — flooded.
    Val {
        /// Whose proposal this is.
        owner: ProcessId,
        /// The proposed value.
        v: V,
    },
    /// Traffic of binary QC instance `instance`.
    Bin {
        /// Instance number `j` (target process is `j mod n`).
        instance: u64,
        /// Inner binary-QC message.
        inner: PaxosMsg<u8>,
    },
}

/// One process of the multivalued-QC-from-binary-QC transformation. The
/// binary instances are [`PsiQc<u8>`]; the failure detector value is Ψ's.
#[derive(Debug)]
pub struct MultivaluedQc<V: Clone + Debug + PartialEq> {
    values: Vec<Option<V>>,
    instances: BTreeMap<u64, PsiQc<u8>>,
    current: u64,
    proposed_current: bool,
    my_value: Option<V>,
    decided: Option<QcDecision<V>>,
}

impl<V: Clone + Debug + PartialEq> MultivaluedQc<V> {
    /// Create a process for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        MultivaluedQc {
            values: vec![None; n],
            instances: BTreeMap::new(),
            current: 0,
            proposed_current: false,
            my_value: None,
            decided: None,
        }
    }

    /// The decision this process returned, if any.
    pub fn decision(&self) -> Option<&QcDecision<V>> {
        self.decided.as_ref()
    }

    fn decide(&mut self, ctx: &mut Ctx<Self>, d: QcDecision<V>) {
        if self.decided.is_none() {
            self.decided = Some(d.clone());
            ctx.output(ConsensusOutput::Decided(d));
        }
    }

    fn with_instance(
        &mut self,
        ctx: &mut Ctx<Self>,
        j: u64,
        f: impl FnOnce(&mut PsiQc<u8>, &mut Ctx<PsiQc<u8>>),
    ) {
        let fd: PsiValue = ctx.fd().clone();
        let inst = self.instances.entry(j).or_default();
        let wrap = |inner| MvQcMsg::Bin { instance: j, inner };
        for out in ctx.host(fd, wrap, |ictx| f(inst, ictx)) {
            let ConsensusOutput::Decided(d) = out;
            self.on_instance_output(ctx, j, d);
        }
    }

    fn on_instance_output(&mut self, ctx: &mut Ctx<Self>, j: u64, d: QcDecision<u8>) {
        if j != self.current || self.decided.is_some() {
            return;
        }
        match d {
            // The quit adaptation: an inner Q certifies a failure and all
            // processes see it at the same (first) instance.
            QcDecision::Quit => self.decide(ctx, QcDecision::Quit),
            QcDecision::Value(1) => {
                let owner = (j % ctx.n() as u64) as usize;
                if let Some(v) = self.values[owner].clone() {
                    self.decide(ctx, QcDecision::Value(v));
                }
                // else deferred until the flooded value arrives.
            }
            QcDecision::Value(_) => {
                self.current = j + 1;
                self.proposed_current = false;
                self.maybe_propose(ctx);
            }
        }
    }

    fn maybe_propose(&mut self, ctx: &mut Ctx<Self>) {
        if self.my_value.is_none() || self.proposed_current || self.decided.is_some() {
            return;
        }
        let j = self.current;
        let owner = (j % ctx.n() as u64) as usize;
        let bit = if let Some(v) = self.values[owner].clone() {
            ctx.broadcast_others(MvQcMsg::Val {
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

    fn check_deferred(&mut self, ctx: &mut Ctx<Self>) {
        if self.decided.is_some() {
            return;
        }
        let j = self.current;
        let owner = (j % ctx.n() as u64) as usize;
        let decided_one = self.instances.get(&j).and_then(|i| i.decision().cloned())
            == Some(QcDecision::Value(1));
        if decided_one {
            if let Some(v) = self.values[owner].clone() {
                self.decide(ctx, QcDecision::Value(v));
            }
        }
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for MultivaluedQc<V> {
    type Msg = MvQcMsg<V>;
    type Output = ConsensusOutput<QcDecision<V>>;
    type Inv = V;
    type Fd = PsiValue;

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, v: V) {
        if self.my_value.is_none() {
            self.my_value = Some(v.clone());
            self.values[ctx.me().index()] = Some(v.clone());
            ctx.broadcast_others(MvQcMsg::Val { owner: ctx.me(), v });
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

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: MvQcMsg<V>) {
        match msg {
            MvQcMsg::Val { owner, v } => {
                if self.values[owner.index()].is_none() {
                    self.values[owner.index()] = Some(v);
                }
                self.check_deferred(ctx);
                self.maybe_propose(ctx);
            }
            MvQcMsg::Bin { instance, inner } => {
                self.with_instance(ctx, instance, |inst, ictx| {
                    inst.on_message(ictx, from, inner)
                });
            }
        }
    }

    fn footprint(&self, _me: ProcessId, n: usize, _step: StepKind<'_, Self>) -> Footprint {
        // Value floods and the binary instances may message anyone on any
        // step; `decide` outputs exactly once (guarded by
        // `decided.is_none()`).
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
    use crate::spec::check_qc;
    use wfd_detectors::oracles::{PsiMode, PsiOracle};
    use wfd_sim::{FailurePattern, RandomFair, Sim, SimConfig};

    type Mv = MultivaluedQc<&'static str>;

    fn run_mv(
        pattern: &FailurePattern,
        mode: PsiMode,
        proposals: &[&'static str],
        seed: u64,
        horizon: u64,
    ) -> wfd_sim::Trace<MvQcMsg<&'static str>, ConsensusOutput<QcDecision<&'static str>>> {
        let n = pattern.n();
        let psi = PsiOracle::new(pattern, mode, 40, 20, seed);
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| Mv::new(n)).collect(),
            pattern.clone(),
            psi,
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
    fn decides_an_arbitrary_valued_proposal() {
        // Truly multivalued: string proposals, nothing binary about them.
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let proposals = ["alpha", "beta", "gamma"];
        for seed in 0..3 {
            let trace = run_mv(&pattern, PsiMode::OmegaSigma, &proposals, seed, 120_000);
            let props: Vec<Option<&str>> = proposals.iter().copied().map(Some).collect();
            let stats =
                check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            match stats.decision {
                Some(QcDecision::Value(v)) => assert!(proposals.contains(&v)),
                other => panic!("seed {seed}: expected a value, got {other:?}"),
            }
        }
    }

    #[test]
    fn quit_propagates_from_binary_instances() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(0), 20);
        let proposals = ["x", "y", "z"];
        let trace = run_mv(&pattern, PsiMode::Fs, &proposals, 1, 60_000);
        let props: Vec<Option<&str>> = proposals.iter().copied().map(Some).collect();
        let stats = check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.decision, Some(QcDecision::Quit));
    }

    #[test]
    fn accessors() {
        let p: Mv = MultivaluedQc::new(3);
        assert_eq!(p.decision(), None);
    }
}
