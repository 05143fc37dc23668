//! **Figure 2 of the paper**: solving quittable consensus with Ψ.
//!
//! ```text
//! Procedure PROPOSE(v):
//! 1  while Ψp = ⊥ do nop
//! 2  if Ψp ∈ {green, red}
//! 3    then                  { henceforth Ψ behaves like FS }
//! 4      return Q
//! 5    else                  { henceforth Ψ behaves like (Ω, Σ) }
//! 6      d := CONSPROPOSE(v) { (Ω, Σ)-based consensus }
//! 7      return d
//! ```
//!
//! Note line 2: the FS branch returns `Q` as soon as Ψ *reveals its FS
//! mode* — the signal's colour is irrelevant, because Ψ may choose the FS
//! behaviour only if a failure already occurred, so `Q` is justified
//! either way. The consensus branch hosts the
//! [`OmegaSigmaConsensus`] of `wfd-consensus`, feeding it the (Ω, Σ)
//! component of Ψ's output.

use crate::spec::QcDecision;
use std::fmt::Debug;
use wfd_consensus::omega_sigma::{OmegaSigmaConsensus, PaxosMsg};
use wfd_consensus::ConsensusOutput;
use wfd_detectors::PsiValue;
use wfd_sim::{Ctx, ProcessId, ProcessSet, Protocol};

/// One process of the Figure 2 algorithm. The failure detector value is
/// [`PsiValue`].
#[derive(Clone, Debug)]
pub struct PsiQc<V: Clone + Debug + PartialEq> {
    inner: OmegaSigmaConsensus<V>,
    proposal: Option<V>,
    proposed_inner: bool,
    decided: Option<QcDecision<V>>,
}

impl<V: Clone + Debug + PartialEq> PsiQc<V> {
    /// Create a QC process (propose later via invocation).
    pub fn new() -> Self {
        PsiQc {
            inner: OmegaSigmaConsensus::new(),
            proposal: None,
            proposed_inner: false,
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

    /// The (Ω, Σ) value handed to the hosted consensus: Ψ's component if
    /// available, or an inert placeholder while Ψ is still ⊥ (a foreign
    /// leader and an empty quorum, so the inner proposer can neither start
    /// nor finish a round — acceptor duties are unaffected).
    fn inner_fd(&self, ctx: &Ctx<Self>) -> (ProcessId, ProcessSet) {
        match ctx.fd() {
            PsiValue::OmegaSigma(os) => (os.leader, os.quorum),
            _ => (
                ProcessId((ctx.me().index() + 1) % ctx.n()),
                ProcessSet::new(),
            ),
        }
    }

    fn with_inner(
        &mut self,
        ctx: &mut Ctx<Self>,
        f: impl FnOnce(&mut OmegaSigmaConsensus<V>, &mut Ctx<OmegaSigmaConsensus<V>>),
    ) {
        let fd = self.inner_fd(ctx);
        for out in ctx.host(fd, |msg| msg, |ictx| f(&mut self.inner, ictx)) {
            let ConsensusOutput::Decided(v) = out;
            self.decide(ctx, QcDecision::Value(v));
        }
    }

    /// Lines 1–6 of Figure 2, re-evaluated on every step.
    fn drive(&mut self, ctx: &mut Ctx<Self>) {
        if self.decided.is_some() || self.proposal.is_none() {
            return;
        }
        match ctx.fd().clone() {
            PsiValue::Bot => {}                                    // line 1: nop
            PsiValue::Fs(_) => self.decide(ctx, QcDecision::Quit), // lines 2–4
            PsiValue::OmegaSigma(_) => {
                // lines 5–6: run the (Ω, Σ) consensus on our proposal.
                if !self.proposed_inner {
                    self.proposed_inner = true;
                    let v = self.proposal.clone().expect("proposal set");
                    self.with_inner(ctx, |inner, ictx| inner.on_invoke(ictx, v));
                } else {
                    self.with_inner(ctx, |inner, ictx| inner.on_tick(ictx));
                }
            }
        }
    }
}

impl<V: Clone + Debug + PartialEq> Default for PsiQc<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for PsiQc<V> {
    type Msg = PaxosMsg<V>;
    type Output = ConsensusOutput<QcDecision<V>>;
    type Inv = V;
    type Fd = PsiValue;

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, v: V) {
        if self.proposal.is_none() {
            self.proposal = Some(v);
        }
        self.drive(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.drive(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: PaxosMsg<V>) {
        // Consensus traffic is handled in every mode: Ψ's global-mode
        // guarantee means a process that switched to FS will never be
        // needed for a decision, but replying is harmless and keeps
        // laggards moving.
        self.with_inner(ctx, |inner, ictx| inner.on_message(ictx, from, msg));
        self.drive(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_qc;
    use wfd_detectors::oracles::{PsiMode, PsiOracle};
    use wfd_sim::{FailurePattern, RandomFair, Sim, SimConfig, Trace};

    type Qc = PsiQc<u64>;
    type QcTrace = Trace<PaxosMsg<u64>, ConsensusOutput<QcDecision<u64>>>;

    fn run_qc(
        pattern: &FailurePattern,
        mode: PsiMode,
        switch_at: u64,
        proposals: &[u64],
        seed: u64,
        horizon: u64,
    ) -> QcTrace {
        let n = pattern.n();
        let psi = PsiOracle::new(pattern, mode, switch_at, 40, seed);
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| Qc::new()).collect(),
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
    fn consensus_mode_decides_a_proposed_value() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let proposals = [4, 5, 6];
        for seed in 0..5 {
            let trace = run_qc(&pattern, PsiMode::OmegaSigma, 60, &proposals, seed, 60_000);
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            let stats =
                check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert!(
                matches!(stats.decision, Some(QcDecision::Value(_))),
                "consensus mode must not decide Q"
            );
        }
    }

    #[test]
    fn fs_mode_decides_quit() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(2), 50);
        let proposals = [1, 0, 1];
        for seed in 0..5 {
            let trace = run_qc(&pattern, PsiMode::Fs, 80, &proposals, seed, 30_000);
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            let stats =
                check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(stats.decision, Some(QcDecision::Quit));
        }
    }

    #[test]
    fn consensus_mode_works_even_with_failures() {
        // Failures do not force Q: Ψ may still choose (Ω, Σ) mode and
        // processes then agree on a proposed value.
        let n = 4;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 100)]);
        let proposals = [9, 8, 7, 6];
        let trace = run_qc(&pattern, PsiMode::OmegaSigma, 300, &proposals, 3, 80_000);
        let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
        let stats = check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("{v}"));
        assert!(matches!(stats.decision, Some(QcDecision::Value(_))));
    }

    #[test]
    fn fs_mode_with_majority_crashed_still_quits() {
        let n = 5;
        let pattern = FailurePattern::with_crashes(
            n,
            &[(ProcessId(0), 20), (ProcessId(1), 40), (ProcessId(2), 60)],
        );
        let proposals = [1, 1, 1, 0, 0];
        let trace = run_qc(&pattern, PsiMode::Fs, 100, &proposals, 7, 30_000);
        let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
        let stats = check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.decision, Some(QcDecision::Quit));
    }

    #[test]
    fn no_decision_while_psi_is_bot() {
        let n = 2;
        let pattern = FailurePattern::failure_free(n);
        // Switch far beyond the horizon: everyone must keep nop-ing.
        let psi = PsiOracle::new(&pattern, PsiMode::OmegaSigma, 1_000_000, 0, 1);
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(5_000),
            vec![Qc::new(), Qc::new()],
            pattern,
            psi,
            RandomFair::new(1),
        );
        sim.schedule_invoke(ProcessId(0), 0, 1);
        sim.schedule_invoke(ProcessId(1), 0, 0);
        sim.run();
        assert_eq!(sim.trace().outputs().count(), 0, "⊥ phase must block QC");
    }

    #[test]
    fn accessors() {
        let p: Qc = PsiQc::new();
        assert_eq!(p.decision(), None);
    }
}
