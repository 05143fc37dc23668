//! **Figure 4 of the paper**: using FS to transform QC into NBAC.
//!
//! ```text
//! Procedure VOTE(v):
//! 1  send v to all
//! 2  wait until [(received every q's vote) or FS = red]
//! 3  if all votes received and all Yes then myproposal := 1
//! 4  else myproposal := 0      { some No vote, or a failure }
//! 5  mydecision := PROPOSE(myproposal)   { the QC algorithm }
//! 6  if mydecision = 1 then return Commit
//! 7  else return Abort         { mydecision = 0 or Q }
//! ```
//!
//! The host is generic over the QC algorithm (anything proposing `u8` and
//! outputting `ConsensusOutput<QcDecision<u8>>`); its failure detector
//! value is the pair `(FS signal, inner QC detector)`.

use crate::spec::{Decision, NbacOutput, Vote};
use std::fmt::Debug;
use wfd_consensus::ConsensusOutput;
use wfd_detectors::Signal;
use wfd_quittable::QcDecision;
use wfd_sim::{Ctx, ProcessId, Protocol};

/// Bound on the QC interface Figure 4 needs.
pub trait QcAlgorithm: Protocol<Inv = u8, Output = ConsensusOutput<QcDecision<u8>>> {}

impl<T> QcAlgorithm for T where T: Protocol<Inv = u8, Output = ConsensusOutput<QcDecision<u8>>> {}

/// Messages: flooded votes plus wrapped QC traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum NbacMsg<M> {
    /// Line 1: a process's vote.
    Vote(Vote),
    /// Traffic of the hosted QC instance.
    Qc(M),
}

/// One process of the Figure 4 transformation.
#[derive(Debug)]
pub struct NbacFromQc<Q: QcAlgorithm> {
    qc: Q,
    my_vote: Option<Vote>,
    votes: Vec<Option<Vote>>,
    proposed: bool,
    decided: Option<Decision>,
}

impl<Q: QcAlgorithm> NbacFromQc<Q> {
    /// Create a process hosting the given QC instance.
    pub fn new(n: usize, qc: Q) -> Self {
        NbacFromQc {
            qc,
            my_vote: None,
            votes: vec![None; n],
            proposed: false,
            decided: None,
        }
    }

    /// The decision this process returned, if any.
    pub fn decision(&self) -> Option<Decision> {
        self.decided
    }

    fn with_qc(&mut self, ctx: &mut Ctx<Self>, f: impl FnOnce(&mut Q, &mut Ctx<Q>)) {
        let fd = ctx.fd().1.clone();
        for out in ctx.host(fd, NbacMsg::Qc, |ictx| f(&mut self.qc, ictx)) {
            let ConsensusOutput::Decided(d) = out;
            self.on_qc_decision(ctx, d);
        }
    }

    fn on_qc_decision(&mut self, ctx: &mut Ctx<Self>, d: QcDecision<u8>) {
        if self.decided.is_some() {
            return;
        }
        // Lines 6–7: 1 ⇒ Commit; 0 or Q ⇒ Abort.
        let decision = match d {
            QcDecision::Value(1) => Decision::Commit,
            _ => Decision::Abort,
        };
        self.decided = Some(decision);
        ctx.output(NbacOutput::Decided(decision));
    }

    /// Line 2's wait, re-evaluated every step.
    fn drive(&mut self, ctx: &mut Ctx<Self>) {
        if self.my_vote.is_none() {
            return;
        }
        if !self.proposed {
            let all_in = self.votes.iter().all(|v| v.is_some());
            let red = ctx.fd().0 == Signal::Red;
            if all_in || red {
                // Lines 3–5.
                let all_yes = all_in && self.votes.iter().all(|v| *v == Some(Vote::Yes));
                let proposal: u8 = if all_yes { 1 } else { 0 };
                self.proposed = true;
                self.with_qc(ctx, |qc, ictx| qc.on_invoke(ictx, proposal));
            }
        } else {
            self.with_qc(ctx, |qc, ictx| qc.on_tick(ictx));
        }
    }
}

impl<Q: QcAlgorithm> Protocol for NbacFromQc<Q> {
    type Msg = NbacMsg<Q::Msg>;
    type Output = NbacOutput;
    type Inv = Vote;
    type Fd = (Signal, Q::Fd);

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, vote: Vote) {
        if self.my_vote.is_none() {
            self.my_vote = Some(vote);
            ctx.output(NbacOutput::Voted(vote));
            ctx.broadcast(NbacMsg::Vote(vote)); // line 1, including self
        }
        self.drive(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.drive(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: Self::Msg) {
        match msg {
            NbacMsg::Vote(v) => {
                if self.votes[from.index()].is_none() {
                    self.votes[from.index()] = Some(v);
                }
                self.drive(ctx);
            }
            NbacMsg::Qc(inner) => {
                self.with_qc(ctx, |qc, ictx| qc.on_message(ictx, from, inner));
                self.drive(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_nbac;
    use wfd_detectors::oracles::{FsOracle, PairOracle, PsiMode, PsiOracle};
    use wfd_quittable::PsiQc;
    use wfd_sim::{FailurePattern, RandomFair, Sim, SimConfig, Time, Trace};

    type Host = NbacFromQc<PsiQc<u8>>;
    type HostTrace = Trace<NbacMsg<<PsiQc<u8> as Protocol>::Msg>, NbacOutput>;

    /// Run Figure 4 over a Ψ-based QC with the given votes (scheduled at
    /// the given times; `None` = never votes).
    fn run_nbac(
        pattern: &FailurePattern,
        votes: &[Option<(Time, Vote)>],
        psi_mode: PsiMode,
        psi_switch: u64,
        seed: u64,
        horizon: u64,
    ) -> HostTrace {
        let n = pattern.n();
        let fd = PairOracle::new(
            FsOracle::new(pattern, 30, seed),
            PsiOracle::new(pattern, psi_mode, psi_switch, 30, seed),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| Host::new(n, PsiQc::new())).collect(),
            pattern.clone(),
            fd,
            RandomFair::new(seed),
        );
        for (p, v) in votes.iter().enumerate() {
            if let Some((t, vote)) = v {
                sim.schedule_invoke(ProcessId(p), *t, *vote);
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
    fn all_yes_no_failure_commits() {
        // The crucial non-triviality clause: unanimous Yes + failure-free
        // run ⇒ Commit (Abort would be trivially "valid" but useless).
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let votes: Vec<_> = (0..n).map(|_| Some((0, Vote::Yes))).collect();
        for seed in 0..5 {
            let trace = run_nbac(&pattern, &votes, PsiMode::OmegaSigma, 60, seed, 60_000);
            let stats = check_nbac(&trace, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(
                stats.decision,
                Some(Decision::Commit),
                "seed {seed}: unanimous Yes without failure must commit"
            );
        }
    }

    #[test]
    fn single_no_forces_abort() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let votes = vec![
            Some((0, Vote::Yes)),
            Some((0, Vote::No)),
            Some((0, Vote::Yes)),
        ];
        for seed in 0..5 {
            let trace = run_nbac(&pattern, &votes, PsiMode::OmegaSigma, 60, seed, 60_000);
            let stats = check_nbac(&trace, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(stats.decision, Some(Decision::Abort));
        }
    }

    #[test]
    fn crash_before_voting_aborts() {
        // p2 crashes before voting: Commit is impossible, FS turns red,
        // survivors must abort — NBAC's "non-blocking".
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(2), 5);
        let votes = vec![Some((0, Vote::Yes)), Some((0, Vote::Yes)), None];
        for seed in 0..5 {
            // Ψ in consensus mode: the QC decides on the 0-proposals.
            let trace = run_nbac(&pattern, &votes, PsiMode::OmegaSigma, 100, seed, 80_000);
            let stats = check_nbac(&trace, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(stats.decision, Some(Decision::Abort));
        }
    }

    #[test]
    fn failure_with_fs_mode_psi_aborts_via_quit() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(0), 40);
        let votes = vec![None, Some((0, Vote::Yes)), Some((0, Vote::Yes))];
        let trace = run_nbac(&pattern, &votes, PsiMode::Fs, 60, 3, 60_000);
        let stats = check_nbac(&trace, &pattern).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.decision, Some(Decision::Abort));
    }

    #[test]
    fn all_yes_with_late_failure_may_still_commit() {
        // A failure after everyone voted Yes: aborting would be allowed,
        // but with Ψ in consensus mode the run commits — NBAC does not
        // force abort on failure.
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(2), 2_000);
        let votes: Vec<_> = (0..n).map(|_| Some((0, Vote::Yes))).collect();
        let trace = run_nbac(&pattern, &votes, PsiMode::OmegaSigma, 50, 1, 80_000);
        let stats = check_nbac(&trace, &pattern).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.decision, Some(Decision::Commit));
    }

    #[test]
    fn accessors() {
        let h: Host = NbacFromQc::new(3, PsiQc::new());
        assert_eq!(h.decision(), None);
    }
}
