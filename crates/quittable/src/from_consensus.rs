//! Consensus viewed as quittable consensus.
//!
//! Every consensus algorithm trivially solves QC: it simply never
//! exercises the option to quit (the paper: *"in QC the decision to quit
//! is never inevitable, it is only an option"*). This adapter wraps the
//! (Ω, Σ) consensus of `wfd-consensus` behind the QC output interface,
//! giving the workspace a *second*, structurally different QC algorithm —
//! used to instantiate the Figure 3 extraction with an `A` that is not
//! Figure 2.

use crate::spec::QcDecision;
use std::fmt::Debug;
use wfd_consensus::omega_sigma::{OmegaSigmaConsensus, PaxosMsg};
use wfd_consensus::ConsensusOutput;
use wfd_sim::{Ctx, ProcessId, ProcessSet, Protocol};

/// A QC solution that never quits: the wrapped consensus decides a
/// proposed value in every run. Its failure detector is (Ω, Σ).
#[derive(Clone, Debug, Default)]
pub struct ConsensusAsQc<V: Clone + Debug + PartialEq> {
    inner: OmegaSigmaConsensus<V>,
}

impl<V: Clone + Debug + PartialEq> ConsensusAsQc<V> {
    /// Create a process (propose later via invocation).
    pub fn new() -> Self {
        ConsensusAsQc {
            inner: OmegaSigmaConsensus::new(),
        }
    }

    /// The QC decision this process returned, if any (never
    /// [`QcDecision::Quit`]).
    pub fn decision(&self) -> Option<QcDecision<V>> {
        self.inner.decision().cloned().map(QcDecision::Value)
    }

    fn with_inner(
        &mut self,
        ctx: &mut Ctx<Self>,
        f: impl FnOnce(&mut OmegaSigmaConsensus<V>, &mut Ctx<OmegaSigmaConsensus<V>>),
    ) {
        let fd = *ctx.fd();
        for out in ctx.host(fd, |msg| msg, |ictx| f(&mut self.inner, ictx)) {
            let ConsensusOutput::Decided(v) = out;
            ctx.output(ConsensusOutput::Decided(QcDecision::Value(v)));
        }
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for ConsensusAsQc<V> {
    type Msg = PaxosMsg<V>;
    type Output = ConsensusOutput<QcDecision<V>>;
    type Inv = V;
    type Fd = (ProcessId, ProcessSet);

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, v: V) {
        self.with_inner(ctx, |inner, ictx| inner.on_invoke(ictx, v));
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.with_inner(ctx, |inner, ictx| inner.on_tick(ictx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: Self::Msg) {
        self.with_inner(ctx, |inner, ictx| inner.on_message(ictx, from, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_qc;
    use wfd_detectors::oracles::{OmegaOracle, PairOracle, SigmaOracle};
    use wfd_sim::{FailurePattern, RandomFair, Sim, SimConfig};

    #[test]
    fn consensus_as_qc_solves_qc_and_never_quits() {
        let n = 3;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 40)]);
        for seed in 0..3 {
            let fd = PairOracle::new(
                OmegaOracle::new(&pattern, 100, seed),
                SigmaOracle::new(&pattern, 100, seed),
            );
            let mut sim = Sim::new(
                SimConfig::new(n).with_horizon(40_000),
                (0..n).map(|_| ConsensusAsQc::<u64>::new()).collect(),
                pattern.clone(),
                fd,
                RandomFair::new(seed),
            );
            for p in 0..n {
                sim.schedule_invoke(ProcessId(p), 0, 100 + p as u64);
            }
            let correct = pattern.correct();
            sim.run_until(move |_, procs| {
                procs
                    .iter()
                    .enumerate()
                    .all(|(i, p)| !correct.contains(ProcessId(i)) || p.decision().is_some())
            });
            let props: Vec<Option<u64>> = (0..n).map(|p| Some(100 + p as u64)).collect();
            let stats = check_qc(sim.trace(), &props, &pattern).unwrap_or_else(|v| panic!("{v}"));
            assert!(
                matches!(stats.decision, Some(QcDecision::Value(_))),
                "the adapter must never quit"
            );
        }
    }
}
