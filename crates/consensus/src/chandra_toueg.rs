//! The Chandra–Toueg ◇S rotating-coordinator consensus — the classical
//! majority-correct baseline (paper §1, items (3)/(4)).
//!
//! Round `r` is coordinated by process `r mod n`:
//!
//! 1. everyone sends its `(estimate, ts)` to the coordinator;
//! 2. the coordinator gathers a majority of estimates, picks the one with
//!    the highest `ts`, and broadcasts it as the round's proposal;
//! 3. each process either adopts the proposal (positive ack) or, if its
//!    ◇S module suspects the coordinator, nacks and moves on;
//! 4. a coordinator whose first majority of replies is all-positive
//!    decides and floods the decision.
//!
//! Safety comes from majority intersection (a decided value is locked in
//! every subsequent round); liveness from ◇S's eventual weak accuracy —
//! once some correct process is never suspected, its round decides.
//!
//! **The point of the baseline**: this algorithm requires a correct
//! majority. With `f ≥ ⌈n/2⌉` it blocks, which is exactly the regime where
//! the paper's (Ω, Σ) algorithm keeps deciding (experiment E9).

use crate::spec::ConsensusOutput;
use std::collections::BTreeMap;
use std::fmt::Debug;
use wfd_sim::{Ctx, ProcessId, ProcessSet, Protocol};

/// Messages of the Chandra–Toueg algorithm.
#[derive(Clone, Debug, PartialEq)]
pub enum CtMsg<V> {
    /// Phase 1: a process's current estimate for round `r`.
    Estimate {
        /// Round number.
        r: u64,
        /// Current estimate.
        est: V,
        /// Round in which the estimate was last adopted.
        ts: u64,
    },
    /// Phase 2: the coordinator's proposal for round `r`.
    Proposal {
        /// Round number.
        r: u64,
        /// Proposed value.
        v: V,
    },
    /// Phase 3: ack (`ok = true`) or nack of round `r`'s proposal.
    Ack {
        /// Round number.
        r: u64,
        /// Whether the proposal was adopted.
        ok: bool,
    },
    /// Phase 4 / reliable broadcast: a decision.
    Decide {
        /// The decided value.
        v: V,
    },
}

#[derive(Clone, Debug)]
struct RoundDuty<V> {
    estimates: Vec<Option<(V, u64)>>,
    /// The value this round proposed, once phase 2 fired.
    proposal: Option<V>,
    acks: Vec<Option<bool>>,
    concluded: bool,
}

/// One process of the Chandra–Toueg ◇S consensus. The failure detector
/// value is the set of currently suspected processes.
#[derive(Clone, Debug)]
pub struct ChandraToueg<V> {
    est: Option<(V, u64)>,
    round: u64,
    /// Whether we are still waiting for the current round's proposal.
    awaiting_proposal: bool,
    /// Buffered proposals for rounds we have not reached yet.
    proposals: BTreeMap<u64, V>,
    /// Coordinator-side state per round we coordinate.
    duties: BTreeMap<u64, RoundDuty<V>>,
    decided: Option<V>,
}

impl<V: Clone + Debug + PartialEq> ChandraToueg<V> {
    /// Create a consensus process (propose later via invocation).
    pub fn new() -> Self {
        ChandraToueg {
            est: None,
            round: 0,
            awaiting_proposal: false,
            proposals: BTreeMap::new(),
            duties: BTreeMap::new(),
            decided: None,
        }
    }

    /// The decision this process returned, if any.
    pub fn decision(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// The round this process is currently in.
    pub fn round(&self) -> u64 {
        self.round
    }

    fn coordinator(r: u64, n: usize) -> ProcessId {
        ProcessId((r % n as u64) as usize)
    }

    fn majority(n: usize) -> usize {
        n / 2 + 1
    }

    fn decide(&mut self, ctx: &mut Ctx<Self>, v: V) {
        if self.decided.is_none() {
            self.decided = Some(v.clone());
            ctx.output(ConsensusOutput::Decided(v.clone()));
            ctx.broadcast_others(CtMsg::Decide { v });
        }
    }

    fn begin_round(&mut self, ctx: &mut Ctx<Self>) {
        let Some((est, ts)) = self.est.clone() else {
            return;
        };
        let coord = Self::coordinator(self.round, ctx.n());
        self.awaiting_proposal = true;
        ctx.send(
            coord,
            CtMsg::Estimate {
                r: self.round,
                est,
                ts,
            },
        );
        // A buffered proposal may already be waiting for this round.
        self.check_proposal(ctx);
    }

    fn check_proposal(&mut self, ctx: &mut Ctx<Self>) {
        if !self.awaiting_proposal {
            return;
        }
        if let Some(v) = self.proposals.get(&self.round).cloned() {
            let r = self.round;
            self.est = Some((v, r + 1));
            self.awaiting_proposal = false;
            ctx.send(Self::coordinator(r, ctx.n()), CtMsg::Ack { r, ok: true });
            self.round += 1;
            self.begin_round(ctx);
        }
    }

    /// ◇S check: nack and move on if the coordinator is suspected.
    fn check_suspicion(&mut self, ctx: &mut Ctx<Self>) {
        if !self.awaiting_proposal || self.decided.is_some() {
            return;
        }
        let r = self.round;
        let coord = Self::coordinator(r, ctx.n());
        if ctx.fd().contains(coord) {
            self.awaiting_proposal = false;
            ctx.send(coord, CtMsg::Ack { r, ok: false });
            self.round += 1;
            self.begin_round(ctx);
        }
    }

    fn duty(&mut self, r: u64, n: usize) -> &mut RoundDuty<V> {
        self.duties.entry(r).or_insert_with(|| RoundDuty {
            estimates: vec![None; n],
            proposal: None,
            acks: vec![None; n],
            concluded: false,
        })
    }

    fn run_coordinator(&mut self, ctx: &mut Ctx<Self>, r: u64) {
        let n = ctx.n();
        let majority = Self::majority(n);
        let duty = self.duty(r, n);
        if duty.proposal.is_none() {
            let have: Vec<(V, u64)> = duty.estimates.iter().flatten().cloned().collect();
            if have.len() >= majority {
                let (v, _) = have
                    .into_iter()
                    .max_by_key(|(_, ts)| *ts)
                    .expect("majority is non-empty");
                duty.proposal = Some(v.clone());
                ctx.broadcast(CtMsg::Proposal { r, v });
            }
        }
        let duty = self.duty(r, n);
        if let Some(v) = duty.proposal.clone() {
            if !duty.concluded {
                let replies: Vec<bool> = duty.acks.iter().flatten().copied().collect();
                if replies.len() >= majority {
                    duty.concluded = true;
                    if replies.iter().all(|&ok| ok) {
                        // The first majority all adopted: decide.
                        self.decide(ctx, v);
                    }
                }
            }
        }
    }
}

impl<V: Clone + Debug + PartialEq> Default for ChandraToueg<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for ChandraToueg<V> {
    type Msg = CtMsg<V>;
    type Output = ConsensusOutput<V>;
    type Inv = V;
    type Fd = ProcessSet;

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, v: V) {
        if self.est.is_none() {
            self.est = Some((v, 0));
            self.begin_round(ctx);
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.check_suspicion(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: CtMsg<V>) {
        if let Some(v) = self.decided.clone() {
            if !matches!(msg, CtMsg::Decide { .. }) {
                ctx.send(from, CtMsg::Decide { v });
            }
            return;
        }
        match msg {
            CtMsg::Estimate { r, est, ts } => {
                let n = ctx.n();
                if Self::coordinator(r, n) == ctx.me() {
                    self.duty(r, n).estimates[from.index()] = Some((est, ts));
                    self.run_coordinator(ctx, r);
                }
            }
            CtMsg::Proposal { r, v } => {
                self.proposals.insert(r, v);
                self.check_proposal(ctx);
                self.check_suspicion(ctx);
            }
            CtMsg::Ack { r, ok } => {
                let n = ctx.n();
                if Self::coordinator(r, n) == ctx.me() {
                    self.duty(r, n).acks[from.index()] = Some(ok);
                    self.run_coordinator(ctx, r);
                }
            }
            CtMsg::Decide { v } => self.decide(ctx, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_consensus;
    use wfd_detectors::oracles::EventuallyStrongOracle;
    use wfd_sim::{FailurePattern, RandomFair, Sim, SimConfig};

    type Ct = ChandraToueg<u64>;

    fn run_ct(
        pattern: &FailurePattern,
        proposals: &[u64],
        stabilize: u64,
        seed: u64,
        horizon: u64,
    ) -> wfd_sim::Trace<CtMsg<u64>, ConsensusOutput<u64>> {
        let n = pattern.n();
        let fd = EventuallyStrongOracle::new(pattern, stabilize, seed);
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| Ct::new()).collect(),
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
    fn decides_failure_free() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let proposals = [5, 6, 7];
        for seed in 0..5 {
            let trace = run_ct(&pattern, &proposals, 100, seed, 40_000);
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            check_consensus(&trace, &props, &pattern)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn decides_with_minority_crashes() {
        let n = 5;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 50), (ProcessId(1), 150)]);
        let proposals = [1, 2, 3, 4, 5];
        for seed in 0..5 {
            let trace = run_ct(&pattern, &proposals, 400, seed, 60_000);
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            check_consensus(&trace, &props, &pattern)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn blocks_when_majority_crashes() {
        // The baseline's limit: with 3 of 5 crashed it cannot decide.
        let n = 5;
        let pattern = FailurePattern::with_crashes(
            n,
            &[(ProcessId(0), 10), (ProcessId(1), 10), (ProcessId(2), 10)],
        );
        let proposals = [1, 2, 3, 4, 5];
        let trace = run_ct(&pattern, &proposals, 100, 1, 30_000);
        let survivors_decided = trace
            .outputs()
            .filter(|(_, p, _)| pattern.correct().contains(*p))
            .count();
        assert_eq!(
            survivors_decided, 0,
            "CT must block without a correct majority"
        );
    }

    #[test]
    fn accessors() {
        let p: Ct = ChandraToueg::new();
        assert_eq!(p.decision(), None);
        assert_eq!(p.round(), 0);
    }
}
