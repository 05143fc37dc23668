//! Consensus from exactly (Ω, Σ) — live in every environment.
//!
//! The sufficiency half of Corollary 4. The algorithm is a single-decree
//! Paxos in which the two roles of a majority are played by the two
//! component detectors:
//!
//! * **Ω** elects the distinguished proposer: a process only runs prepare/
//!   accept rounds while its Ω module names it, so eventually exactly one
//!   correct proposer remains and livelock ends.
//! * **Σ** supplies the quorums: a phase completes when the responders
//!   cover a quorum currently output by Σ. Safety needs only that any two
//!   quorums intersect (Σ's intersection property, replacing
//!   majority-intersection); liveness needs that some quorum is eventually
//!   all-correct (Σ's completeness).
//!
//! Ballots are `(attempt, process)` pairs, so ballots of distinct
//! proposers never tie. A stalled proposer retries with a doubled patience
//! so that transient Ω disagreement cannot livelock the system forever.

use crate::spec::ConsensusOutput;
use std::fmt::Debug;
use wfd_sim::{Ctx, ProcessId, ProcessSet, Protocol};

/// A Paxos ballot: `(attempt, proposer)`, ordered lexicographically.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// Attempt counter of the proposer.
    pub attempt: u64,
    /// The proposer that owns this ballot.
    pub proposer: ProcessId,
}

impl Ballot {
    /// The ballot smaller than every real ballot.
    pub const ZERO: Ballot = Ballot {
        attempt: 0,
        proposer: ProcessId(0),
    };
}

/// Messages of the (Ω, Σ) consensus protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum PaxosMsg<V> {
    /// Phase-1a: reserve ballot `bal`.
    Prepare {
        /// Ballot being prepared.
        bal: Ballot,
    },
    /// Phase-1b: promise for `bal`, carrying the acceptor's
    /// highest-ballot accepted value, if any.
    Promise {
        /// Ballot the promise answers.
        bal: Ballot,
        /// The acceptor's accepted `(ballot, value)`, if any.
        accepted: Option<(Ballot, V)>,
    },
    /// Phase-2a: accept `v` at ballot `bal`.
    Accept {
        /// Ballot of the acceptance.
        bal: Ballot,
        /// The proposed value.
        v: V,
    },
    /// Phase-2b: the acceptor accepted `bal`.
    Accepted {
        /// Ballot that was accepted.
        bal: Ballot,
    },
    /// Rejection: the acceptor has promised a higher ballot. Lets a stale
    /// proposer leapfrog immediately instead of timing out.
    Nack {
        /// The ballot that was refused.
        bal: Ballot,
        /// The acceptor's current promise.
        promised: Ballot,
    },
    /// A decision, flooded so every correct process returns. Carries the
    /// quorum whose accepts produced it, so layered protocols (e.g. the
    /// SMR register of Corollary 3) can report causal participants.
    Decide {
        /// The decided value.
        v: V,
        /// The acceptor quorum behind the decision (plus the proposer).
        quorum: ProcessSet,
    },
}

#[derive(Clone, Debug, PartialEq)]
enum ProposerPhase<V> {
    Idle,
    Preparing {
        bal: Ballot,
        responders: ProcessSet,
        best_accepted: Option<(Ballot, V)>,
    },
    Accepting {
        bal: Ballot,
        v: V,
        responders: ProcessSet,
    },
}

/// One process of the (Ω, Σ) consensus algorithm.
///
/// Invoke with the proposal value; the process outputs
/// [`ConsensusOutput::Decided`] exactly once. The failure detector value is
/// the pair `(Ω leader, Σ quorum)`.
#[derive(Clone, Debug, PartialEq)]
pub struct OmegaSigmaConsensus<V> {
    // Acceptor state.
    promised: Ballot,
    accepted: Option<(Ballot, V)>,
    // Proposer state.
    proposal: Option<V>,
    phase: ProposerPhase<V>,
    attempt: u64,
    /// Own steps since the current proposer phase began.
    phase_age: u64,
    /// Give up on a phase after this many own steps and retry higher.
    patience: u64,
    decided: Option<V>,
    /// The quorum that produced the decision (from our own accept phase,
    /// or carried by the Decide flood).
    decision_quorum: Option<ProcessSet>,
}

impl<V: Clone + Debug + PartialEq> OmegaSigmaConsensus<V> {
    /// Create a consensus process (propose later via invocation).
    pub fn new() -> Self {
        OmegaSigmaConsensus {
            promised: Ballot::ZERO,
            accepted: None,
            proposal: None,
            phase: ProposerPhase::Idle,
            attempt: 0,
            phase_age: 0,
            patience: 32,
            decided: None,
            decision_quorum: None,
        }
    }

    /// The decision this process returned, if any.
    pub fn decision(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// The quorum behind the decision, if decided.
    pub fn decision_quorum(&self) -> Option<&ProcessSet> {
        self.decision_quorum.as_ref()
    }

    /// Whether this process has proposed yet.
    pub fn has_proposed(&self) -> bool {
        self.proposal.is_some()
    }

    fn decide(&mut self, ctx: &mut Ctx<Self>, v: V, quorum: ProcessSet) {
        if self.decided.is_none() {
            self.decided = Some(v.clone());
            self.decision_quorum = Some(quorum);
            self.phase = ProposerPhase::Idle;
            ctx.output(ConsensusOutput::Decided(v.clone()));
            ctx.broadcast_others(PaxosMsg::Decide { v, quorum });
        }
    }

    fn is_leader(&self, ctx: &Ctx<Self>) -> bool {
        ctx.fd().0 == ctx.me()
    }

    fn quorum_satisfied(&self, responders: &ProcessSet, ctx: &Ctx<Self>) -> bool {
        let quorum = &ctx.fd().1;
        !quorum.is_empty() && quorum.is_subset(responders)
    }

    fn start_round(&mut self, ctx: &mut Ctx<Self>) {
        self.attempt += 1;
        self.phase_age = 0;
        let bal = Ballot {
            attempt: self.attempt,
            proposer: ctx.me(),
        };
        self.phase = ProposerPhase::Preparing {
            bal,
            responders: ProcessSet::new(),
            best_accepted: None,
        };
        ctx.broadcast(PaxosMsg::Prepare { bal });
    }

    /// Drive the proposer role: start, advance, retry or abandon rounds,
    /// as dictated by Ω and Σ at this step.
    fn drive(&mut self, ctx: &mut Ctx<Self>) {
        if self.decided.is_some() || self.proposal.is_none() {
            return;
        }
        if !self.is_leader(ctx) {
            // Ω does not name us: abandon the proposer role (acceptor
            // state, which is what safety rests on, stays).
            self.phase = ProposerPhase::Idle;
            return;
        }
        match std::mem::replace(&mut self.phase, ProposerPhase::Idle) {
            ProposerPhase::Idle => self.start_round(ctx),
            ProposerPhase::Preparing {
                bal,
                responders,
                best_accepted,
            } => {
                if self.quorum_satisfied(&responders, ctx) {
                    let v = best_accepted
                        .map(|(_, v)| v)
                        .unwrap_or_else(|| self.proposal.clone().expect("proposer has proposal"));
                    self.phase_age = 0;
                    self.phase = ProposerPhase::Accepting {
                        bal,
                        v: v.clone(),
                        responders: ProcessSet::new(),
                    };
                    ctx.broadcast(PaxosMsg::Accept { bal, v });
                } else {
                    self.phase = ProposerPhase::Preparing {
                        bal,
                        responders,
                        best_accepted,
                    };
                    self.age_and_maybe_retry(ctx);
                }
            }
            ProposerPhase::Accepting { bal, v, responders } => {
                if self.quorum_satisfied(&responders, ctx) {
                    let mut quorum = responders;
                    quorum.insert(ctx.me());
                    self.decide(ctx, v, quorum);
                } else {
                    self.phase = ProposerPhase::Accepting { bal, v, responders };
                    self.age_and_maybe_retry(ctx);
                }
            }
        }
    }

    fn age_and_maybe_retry(&mut self, ctx: &mut Ctx<Self>) {
        self.phase_age += 1;
        if self.phase_age > self.patience {
            // Grow patience (capped) so competing proposers back off
            // rather than duel forever while Ω is still unstable; ballot
            // races are resolved promptly by nacks, not by this timeout.
            self.patience = self.patience.saturating_mul(2).min(1_024);
            self.start_round(ctx);
        }
    }
}

impl<V: Clone + Debug + PartialEq> Default for OmegaSigmaConsensus<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for OmegaSigmaConsensus<V> {
    type Msg = PaxosMsg<V>;
    type Output = ConsensusOutput<V>;
    type Inv = V;
    type Fd = (ProcessId, ProcessSet);

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
        if let Some(v) = self.decided.clone() {
            // Help laggards: answer any traffic with the decision.
            if !matches!(msg, PaxosMsg::Decide { .. }) {
                let quorum = self.decision_quorum.unwrap_or_default();
                ctx.send(from, PaxosMsg::Decide { v, quorum });
            }
            return;
        }
        match msg {
            PaxosMsg::Prepare { bal } => {
                if bal > self.promised {
                    self.promised = bal;
                    ctx.send(
                        from,
                        PaxosMsg::Promise {
                            bal,
                            accepted: self.accepted.clone(),
                        },
                    );
                } else {
                    ctx.send(
                        from,
                        PaxosMsg::Nack {
                            bal,
                            promised: self.promised,
                        },
                    );
                }
            }
            PaxosMsg::Accept { bal, v } => {
                if bal >= self.promised {
                    self.promised = bal;
                    self.accepted = Some((bal, v));
                    ctx.send(from, PaxosMsg::Accepted { bal });
                } else {
                    ctx.send(
                        from,
                        PaxosMsg::Nack {
                            bal,
                            promised: self.promised,
                        },
                    );
                }
            }
            PaxosMsg::Promise { bal, accepted } => {
                if let ProposerPhase::Preparing {
                    bal: cur,
                    responders,
                    best_accepted,
                } = &mut self.phase
                {
                    if bal == *cur {
                        responders.insert(from);
                        if let Some((abal, av)) = accepted {
                            let better = match best_accepted {
                                Some((b, _)) => abal > *b,
                                None => true,
                            };
                            if better {
                                *best_accepted = Some((abal, av));
                            }
                        }
                    }
                }
                self.drive(ctx);
            }
            PaxosMsg::Accepted { bal } => {
                if let ProposerPhase::Accepting {
                    bal: cur,
                    responders,
                    ..
                } = &mut self.phase
                {
                    if bal == *cur {
                        responders.insert(from);
                    }
                }
                self.drive(ctx);
            }
            PaxosMsg::Nack { bal, promised } => {
                let ours = match &self.phase {
                    ProposerPhase::Preparing { bal: cur, .. } => *cur == bal,
                    ProposerPhase::Accepting { bal: cur, .. } => *cur == bal,
                    ProposerPhase::Idle => false,
                };
                if ours && self.is_leader(ctx) {
                    // Jump past the competing ballot and retry now.
                    self.attempt = self.attempt.max(promised.attempt);
                    self.start_round(ctx);
                } else {
                    self.drive(ctx);
                }
            }
            PaxosMsg::Decide { v, quorum } => self.decide(ctx, v, quorum),
        }
    }

    fn props() -> &'static [&'static str] {
        &["all-decided", "some-decided"]
    }

    /// `all-decided`: every correct process holds a decision —
    /// `F "all-decided"` is consensus termination, checkable over all
    /// fair runs by the liveness layer. `some-decided` marks the first
    /// decision (useful for `U`-shaped properties).
    fn eval_prop(prop: usize, procs: &[Self], view: &wfd_sim::PropView<'_>) -> bool {
        let mut correct = procs
            .iter()
            .zip(view.correct)
            .filter_map(|(p, &c)| c.then_some(p));
        match prop {
            0 => correct.all(|p| p.decided.is_some()),
            _ => correct.any(|p| p.decided.is_some()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_consensus;
    use wfd_detectors::oracles::{OmegaOracle, PairOracle, SigmaOracle};
    use wfd_sim::{
        Adversarial, Environment, FailurePattern, PatternSampler, RandomFair, Scheduler, Sim,
        SimConfig, Trace,
    };

    type Cons = OmegaSigmaConsensus<u64>;
    type ConsTrace = Trace<PaxosMsg<u64>, ConsensusOutput<u64>>;

    fn run_consensus<S: Scheduler>(
        pattern: &FailurePattern,
        proposals: &[u64],
        stabilize: u64,
        seed: u64,
        sched: S,
        horizon: u64,
    ) -> ConsTrace {
        let n = pattern.n();
        let fd = PairOracle::new(
            OmegaOracle::new(pattern, stabilize, seed).with_jitter(stabilize / 2),
            SigmaOracle::new(pattern, stabilize, seed).with_jitter(stabilize / 2),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| Cons::new()).collect(),
            pattern.clone(),
            fd,
            sched,
        );
        for (p, &v) in proposals.iter().enumerate() {
            sim.schedule_invoke(ProcessId(p), 0, v);
        }
        sim.run_until(|trace, procs| {
            let correct = pattern.correct();
            procs
                .iter()
                .enumerate()
                .all(|(i, p)| !correct.contains(ProcessId(i)) || p.decision().is_some())
                && !trace.is_empty()
        });
        let (_, _, _, trace) = sim.into_parts();
        trace
    }

    #[test]
    fn decides_failure_free() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let proposals = vec![3, 1, 2];
        for seed in 0..5 {
            let trace = run_consensus(
                &pattern,
                &proposals,
                50,
                seed,
                RandomFair::new(seed),
                30_000,
            );
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            let stats = check_consensus(&trace, &props, &pattern)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert!(stats.decision.is_some());
        }
    }

    #[test]
    fn decides_with_majority_crashed() {
        // The headline: consensus in an environment where f ≥ ⌈n/2⌉ —
        // impossible for majority-based algorithms, fine for (Ω, Σ).
        let n = 5;
        let pattern = FailurePattern::with_crashes(
            n,
            &[
                (ProcessId(0), 100),
                (ProcessId(1), 200),
                (ProcessId(2), 300),
            ],
        );
        let proposals = vec![10, 11, 12, 13, 14];
        for seed in 0..5 {
            let trace = run_consensus(
                &pattern,
                &proposals,
                600,
                seed,
                RandomFair::new(seed),
                60_000,
            );
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            check_consensus(&trace, &props, &pattern)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn safe_and_live_under_adversarial_schedule() {
        let n = 4;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 400)]);
        let proposals = vec![1, 2, 3, 4];
        let trace = run_consensus(&pattern, &proposals, 800, 3, Adversarial::new(17), 100_000);
        let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
        check_consensus(&trace, &props, &pattern).unwrap_or_else(|v| panic!("{v}"));
    }

    #[test]
    fn property_agreement_and_validity_across_random_environments() {
        let n = 4;
        let mut sampler = PatternSampler::new(n, Environment::AtLeastOneCorrect, 5);
        for case in 0..10u64 {
            let pattern = sampler.sample(500);
            let proposals: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
            let trace = run_consensus(
                &pattern,
                &proposals,
                800,
                case,
                RandomFair::new(case * 7 + 1),
                80_000,
            );
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            check_consensus(&trace, &props, &pattern)
                .unwrap_or_else(|v| panic!("case {case} pattern {pattern}: {v}"));
        }
    }

    #[test]
    fn decision_is_sticky_and_single() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let trace = run_consensus(&pattern, &[7, 7, 7], 20, 1, RandomFair::new(1), 30_000);
        // Unanimous proposals must decide the proposed value.
        for (_, _, out) in trace.outputs() {
            assert_eq!(out, &ConsensusOutput::Decided(7));
        }
        let props = vec![Some(7), Some(7), Some(7)];
        check_consensus(&trace, &props, &pattern).expect("ok");
    }

    #[test]
    fn ballots_order_by_attempt_then_proposer() {
        let a = Ballot {
            attempt: 1,
            proposer: ProcessId(2),
        };
        let b = Ballot {
            attempt: 2,
            proposer: ProcessId(0),
        };
        let c = Ballot {
            attempt: 1,
            proposer: ProcessId(3),
        };
        assert!(a < b);
        assert!(a < c);
        assert!(Ballot::ZERO < a);
    }

    #[test]
    fn accessors_before_and_after_proposal() {
        let mut p: Cons = OmegaSigmaConsensus::new();
        assert!(!p.has_proposed());
        assert_eq!(p.decision(), None);
        let mut ctx =
            wfd_sim::Ctx::<Cons>::detached(ProcessId(0), 3, 0, (ProcessId(1), ProcessSet::full(3)));
        p.on_invoke(&mut ctx, 5);
        assert!(p.has_proposed());
    }
}
