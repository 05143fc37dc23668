//! **Figure 5 of the paper**: transforming NBAC into QC.
//!
//! ```text
//! Procedure PROPOSE(v):   { v is 1 or 0 }
//! 1  send v to all
//! 2  d := VOTE(Yes)       { the given NBAC algorithm }
//! 3  if d = Abort then return Q
//! 4  else wait until received every q's proposal
//! 5       return smallest proposal received
//! ```
//!
//! Correctness hinges on NBAC's validity: a `Commit` means *everyone*
//! voted `Yes`, hence everyone first flooded its proposal (line 1), so
//! line 4 cannot block; an `Abort` with unanimous `Yes` votes can only be
//! due to a failure, which is exactly when QC may return `Q`.

use crate::spec::{Decision, NbacOutput, Vote};
use std::fmt::Debug;
use wfd_consensus::ConsensusOutput;
use wfd_quittable::QcDecision;
use wfd_sim::{Ctx, ProcessId, Protocol};

/// Bound on the NBAC interface Figure 5 needs.
pub trait NbacAlgorithm: Protocol<Inv = Vote, Output = NbacOutput> {}

impl<T> NbacAlgorithm for T where T: Protocol<Inv = Vote, Output = NbacOutput> {}

/// Messages: flooded proposals plus wrapped NBAC traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum QcMsg<M> {
    /// Line 1: a process's QC proposal.
    Prop(u8),
    /// Traffic of the hosted NBAC instance.
    Nbac(M),
}

/// One process of the Figure 5 transformation.
#[derive(Debug)]
pub struct QcFromNbac<N: NbacAlgorithm> {
    nbac: N,
    proposals: Vec<Option<u8>>,
    my_value: Option<u8>,
    nbac_decision: Option<Decision>,
    decided: Option<QcDecision<u8>>,
}

impl<N: NbacAlgorithm> QcFromNbac<N> {
    /// Create a process hosting the given NBAC instance.
    pub fn new(n: usize, nbac: N) -> Self {
        QcFromNbac {
            nbac,
            proposals: vec![None; n],
            my_value: None,
            nbac_decision: None,
            decided: None,
        }
    }

    /// The decision this process returned, if any.
    pub fn decision(&self) -> Option<&QcDecision<u8>> {
        self.decided.as_ref()
    }

    fn with_nbac(&mut self, ctx: &mut Ctx<Self>, f: impl FnOnce(&mut N, &mut Ctx<N>)) {
        let fd = ctx.fd().clone();
        for out in ctx.host(fd, QcMsg::Nbac, |ictx| f(&mut self.nbac, ictx)) {
            if let NbacOutput::Decided(d) = out {
                self.nbac_decision.get_or_insert(d);
            }
        }
        self.check_done(ctx);
    }

    /// Lines 3–5, re-evaluated whenever state changes.
    fn check_done(&mut self, ctx: &mut Ctx<Self>) {
        if self.decided.is_some() || self.my_value.is_none() {
            return;
        }
        match self.nbac_decision {
            Some(Decision::Abort) => {
                self.decided = Some(QcDecision::Quit);
                ctx.output(ConsensusOutput::Decided(QcDecision::Quit));
            }
            Some(Decision::Commit) if self.proposals.iter().all(|p| p.is_some()) => {
                let min = self
                    .proposals
                    .iter()
                    .flatten()
                    .min()
                    .copied()
                    .expect("all proposals present");
                self.decided = Some(QcDecision::Value(min));
                ctx.output(ConsensusOutput::Decided(QcDecision::Value(min)));
            }
            _ => {}
        }
    }
}

impl<N: NbacAlgorithm> Protocol for QcFromNbac<N> {
    type Msg = QcMsg<N::Msg>;
    type Output = ConsensusOutput<QcDecision<u8>>;
    type Inv = u8;
    type Fd = N::Fd;

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, v: u8) {
        if self.my_value.is_none() {
            self.my_value = Some(v);
            ctx.broadcast(QcMsg::Prop(v)); // line 1, including self
            self.with_nbac(ctx, |nbac, ictx| nbac.on_invoke(ictx, Vote::Yes)); // line 2
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        if self.my_value.is_some() {
            self.with_nbac(ctx, |nbac, ictx| nbac.on_tick(ictx));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: Self::Msg) {
        match msg {
            QcMsg::Prop(v) => {
                if self.proposals[from.index()].is_none() {
                    self.proposals[from.index()] = Some(v);
                }
                self.check_done(ctx);
            }
            QcMsg::Nbac(inner) => {
                self.with_nbac(ctx, |nbac, ictx| nbac.on_message(ictx, from, inner));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_qc::NbacFromQc;
    use wfd_detectors::oracles::{FsOracle, PairOracle, PsiMode, PsiOracle};
    use wfd_quittable::{check_qc, PsiQc};
    use wfd_sim::{FailurePattern, RandomFair, Sim, SimConfig};

    // The full stack of §7: QC (Ψ) → [Fig 4] → NBAC → [Fig 5] → QC.
    type Nbac = NbacFromQc<PsiQc<u8>>;
    type Host = QcFromNbac<Nbac>;

    fn run_roundtrip(
        pattern: &FailurePattern,
        proposals: &[Option<u8>],
        psi_mode: PsiMode,
        seed: u64,
        horizon: u64,
    ) -> wfd_sim::Trace<QcMsg<<Nbac as Protocol>::Msg>, ConsensusOutput<QcDecision<u8>>> {
        let n = pattern.n();
        let fd = PairOracle::new(
            FsOracle::new(pattern, 30, seed),
            PsiOracle::new(pattern, psi_mode, 80, 30, seed),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n)
                .map(|_| Host::new(n, NbacFromQc::new(n, PsiQc::new())))
                .collect(),
            pattern.clone(),
            fd,
            RandomFair::new(seed),
        );
        for (p, v) in proposals.iter().enumerate() {
            if let Some(v) = v {
                sim.schedule_invoke(ProcessId(p), 0, *v);
            }
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
    fn failure_free_roundtrip_decides_smallest_proposal() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let proposals = vec![Some(1), Some(0), Some(1)];
        for seed in 0..5 {
            let trace = run_roundtrip(&pattern, &proposals, PsiMode::OmegaSigma, seed, 80_000);
            let props: Vec<Option<u8>> = proposals.clone();
            let stats =
                check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            // Unanimous-Yes failure-free NBAC commits, so QC decides the
            // smallest proposal: 0.
            assert_eq!(stats.decision, Some(QcDecision::Value(0)), "seed {seed}");
        }
    }

    #[test]
    fn failure_leads_to_quit_via_abort() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(0), 10);
        let proposals = vec![None, Some(1), Some(1)];
        for seed in 0..3 {
            let trace = run_roundtrip(&pattern, &proposals, PsiMode::Fs, seed, 60_000);
            let props: Vec<Option<u8>> = proposals.clone();
            let stats =
                check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(stats.decision, Some(QcDecision::Quit), "seed {seed}");
        }
    }

    #[test]
    fn accessors() {
        let h: Host = QcFromNbac::new(2, NbacFromQc::new(2, PsiQc::new()));
        assert_eq!(h.decision(), None);
    }
}
