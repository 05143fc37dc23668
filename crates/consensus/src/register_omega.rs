//! Consensus from **registers + Ω** — the construction the paper actually
//! cites for Corollary 2: *"using registers and Ω we can solve consensus
//! in any environment \[19\]"*, with the registers supplied by the Σ-based
//! ABD of `wfd-registers`.
//!
//! The shared-memory algorithm is single-decree Disk-Paxos-style: each
//! process owns one single-writer register holding a block
//! `(mbal, bal, val)`; a process that Ω names leader
//!
//! 1. writes its block with a fresh ballot `mbal = b`, reads everyone's
//!    block, and aborts (retrying higher) if it sees a larger `mbal`;
//! 2. adopts the value of the largest `bal` it read (or its own
//!    proposal), writes `(b, b, v)`, re-reads everyone, and decides `v`
//!    if still unbeaten — flooding a `Decide` so all correct processes
//!    return.
//!
//! Safety rests entirely on register atomicity (two competing ballots
//! must see each other in one direction); liveness on Ω (eventually a
//! single leader) plus the hosted registers' own liveness (from Σ). This
//! makes the chain Σ → registers → (+Ω) → consensus executable end to
//! end, which is precisely how the paper proves that (Ω, Σ) suffices in
//! every environment.

use crate::omega_sigma::Ballot;
use crate::spec::ConsensusOutput;
use std::fmt::Debug;
use wfd_registers::abd::{AbdMsg, AbdOp, AbdOutput, AbdRegister, AbdResp, QuorumRule};
use wfd_sim::{Ctx, ProcessId, ProcessSet, Protocol};

/// The block each process keeps in its single-writer register.
#[derive(Clone, Debug, PartialEq)]
pub struct DBlock<V> {
    /// Highest ballot this process has started.
    pub mbal: Ballot,
    /// Ballot at which `val` was adopted.
    pub bal: Ballot,
    /// The value adopted at `bal`, if any.
    pub val: Option<V>,
}

impl<V: Clone + Debug + PartialEq> DBlock<V> {
    /// The initial (empty) block.
    pub fn initial() -> Self {
        DBlock {
            mbal: Ballot::ZERO,
            bal: Ballot::ZERO,
            val: None,
        }
    }
}

/// Messages: wrapped register traffic plus the decision flood.
#[derive(Clone, Debug, PartialEq)]
pub enum RoMsg<V> {
    /// Traffic of hosted register instance `instance`.
    Reg {
        /// Which process's single-writer register this belongs to.
        instance: usize,
        /// Inner ABD message.
        inner: AbdMsg<DBlock<V>>,
    },
    /// Decision flood.
    Decide {
        /// The decided value.
        v: V,
    },
}

#[derive(Clone, Debug, PartialEq)]
enum Stage<V> {
    Idle,
    P1Write,
    P1Read {
        j: usize,
        blocks: Vec<Option<DBlock<V>>>,
    },
    P2Write {
        v: V,
    },
    P2Read {
        j: usize,
        v: V,
        beaten: bool,
    },
}

/// One process of the registers+Ω consensus. The failure detector value is
/// `(Ω leader, Σ quorum)` — Ω drives the leader logic here, Σ drives the
/// hosted ABD registers.
#[derive(Debug)]
pub struct RegisterOmegaConsensus<V: Clone + Debug + PartialEq> {
    /// Hosted replicas of the `n` single-writer registers.
    regs: Vec<AbdRegister<DBlock<V>>>,
    proposal: Option<V>,
    stage: Stage<V>,
    attempt: u64,
    ballot: Ballot,
    /// Client-side copy of our own block: phase 1 only bumps `mbal`,
    /// keeping any previously adopted `(bal, val)` — overwriting them
    /// would un-accept a value and break agreement.
    my_block: DBlock<V>,
    /// Highest competing attempt observed; fresh ballots jump past it so
    /// a beaten leader does not crawl through intermediate attempts.
    rival_attempt: u64,
    decided: Option<V>,
}

impl<V: Clone + Debug + PartialEq> RegisterOmegaConsensus<V> {
    /// Create a consensus process for a system of `n` processes whose
    /// hosted registers use the Σ quorum rule.
    pub fn new(n: usize) -> Self {
        RegisterOmegaConsensus {
            regs: (0..n)
                .map(|_| AbdRegister::new(QuorumRule::Detector, DBlock::initial()))
                .collect(),
            proposal: None,
            stage: Stage::Idle,
            attempt: 0,
            ballot: Ballot::ZERO,
            my_block: DBlock::initial(),
            rival_attempt: 0,
            decided: None,
        }
    }

    /// The decision this process returned, if any.
    pub fn decision(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    fn decide(&mut self, ctx: &mut Ctx<Self>, v: V) {
        if self.decided.is_none() {
            self.decided = Some(v.clone());
            self.stage = Stage::Idle;
            ctx.output(ConsensusOutput::Decided(v.clone()));
            ctx.broadcast_others(RoMsg::Decide { v });
        }
    }

    fn is_leader(&self, ctx: &Ctx<Self>) -> bool {
        ctx.fd().0 == ctx.me()
    }

    /// Run `f` on hosted register instance `idx`, forwarding sends and
    /// feeding completions back into the stage machine. The inner ABD uses
    /// the Σ component of our (Ω, Σ) detector value.
    fn with_instance(
        &mut self,
        ctx: &mut Ctx<Self>,
        idx: usize,
        f: impl FnOnce(&mut AbdRegister<DBlock<V>>, &mut Ctx<AbdRegister<DBlock<V>>>),
    ) {
        let sigma = ctx.fd().1;
        let wrap = |inner| RoMsg::Reg {
            instance: idx,
            inner,
        };
        for out in ctx.host(sigma, wrap, |ictx| f(&mut self.regs[idx], ictx)) {
            self.on_register_output(ctx, idx, out);
        }
    }

    fn on_register_output(&mut self, ctx: &mut Ctx<Self>, idx: usize, out: AbdOutput<DBlock<V>>) {
        let AbdOutput::Completed { resp, .. } = out else {
            return;
        };
        if self.decided.is_some() {
            return;
        }
        match (std::mem::replace(&mut self.stage, Stage::Idle), resp) {
            (Stage::P1Write, AbdResp::WriteOk) if idx == ctx.me().index() => {
                self.stage = Stage::P1Read {
                    j: 0,
                    blocks: vec![None; ctx.n()],
                };
                self.read_register(ctx, 0);
            }
            (Stage::P1Read { j, mut blocks }, AbdResp::ReadOk(block)) if idx == j => {
                self.rival_attempt = self.rival_attempt.max(block.mbal.attempt);
                blocks[j] = Some(block);
                if j + 1 < ctx.n() {
                    self.stage = Stage::P1Read { j: j + 1, blocks };
                    self.read_register(ctx, j + 1);
                } else {
                    self.finish_phase1(ctx, blocks);
                }
            }
            (Stage::P2Write { v }, AbdResp::WriteOk) if idx == ctx.me().index() => {
                self.stage = Stage::P2Read {
                    j: 0,
                    v,
                    beaten: false,
                };
                self.read_register(ctx, 0);
            }
            (Stage::P2Read { j, v, beaten }, AbdResp::ReadOk(block)) if idx == j => {
                self.rival_attempt = self.rival_attempt.max(block.mbal.attempt);
                let beaten = beaten || block.mbal > self.ballot;
                if j + 1 < ctx.n() {
                    self.stage = Stage::P2Read {
                        j: j + 1,
                        v,
                        beaten,
                    };
                    self.read_register(ctx, j + 1);
                } else if beaten {
                    self.retry(ctx);
                } else {
                    self.decide(ctx, v);
                }
            }
            (stage, _) => {
                // Completion that no longer matches the stage (e.g. we
                // abandoned leadership mid-operation): keep the stage.
                self.stage = stage;
            }
        }
    }

    fn finish_phase1(&mut self, ctx: &mut Ctx<Self>, blocks: Vec<Option<DBlock<V>>>) {
        let blocks: Vec<DBlock<V>> = blocks.into_iter().flatten().collect();
        let me = ctx.me();
        if blocks
            .iter()
            .any(|b| b.mbal > self.ballot || (b.mbal == self.ballot && b.mbal.proposer != me))
        {
            self.retry(ctx);
            return;
        }
        let v = blocks
            .iter()
            .filter(|b| b.val.is_some())
            .max_by_key(|b| b.bal)
            .and_then(|b| b.val.clone())
            .or_else(|| self.proposal.clone())
            .expect("leader has a proposal");
        self.stage = Stage::P2Write { v: v.clone() };
        self.my_block = DBlock {
            mbal: self.ballot,
            bal: self.ballot,
            val: Some(v),
        };
        let block = self.my_block.clone();
        let me = ctx.me().index();
        self.with_instance(ctx, me, |reg, ictx| {
            reg.on_invoke(ictx, AbdOp::Write(block))
        });
    }

    fn read_register(&mut self, ctx: &mut Ctx<Self>, j: usize) {
        self.with_instance(ctx, j, |reg, ictx| reg.on_invoke(ictx, AbdOp::Read));
    }

    fn retry(&mut self, ctx: &mut Ctx<Self>) {
        self.stage = Stage::Idle;
        self.drive(ctx);
    }

    fn drive(&mut self, ctx: &mut Ctx<Self>) {
        if self.decided.is_some() || self.proposal.is_none() {
            return;
        }
        if !self.is_leader(ctx) {
            return;
        }
        if !matches!(self.stage, Stage::Idle) {
            return;
        }
        self.attempt = self.attempt.max(self.rival_attempt) + 1;
        self.ballot = Ballot {
            attempt: self.attempt,
            proposer: ctx.me(),
        };
        self.stage = Stage::P1Write;
        // Phase 1 only raises mbal; previously adopted (bal, val) survive.
        self.my_block.mbal = self.ballot;
        let block = self.my_block.clone();
        let me = ctx.me().index();
        self.with_instance(ctx, me, |reg, ictx| {
            reg.on_invoke(ictx, AbdOp::Write(block))
        });
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for RegisterOmegaConsensus<V> {
    type Msg = RoMsg<V>;
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
        // Tick hosted registers so they can re-check Σ quorum progress.
        for idx in 0..self.regs.len() {
            self.with_instance(ctx, idx, |reg, ictx| reg.on_tick(ictx));
        }
        self.drive(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: RoMsg<V>) {
        match msg {
            RoMsg::Reg { instance, inner } => {
                self.with_instance(ctx, instance, |reg, ictx| reg.on_message(ictx, from, inner));
            }
            RoMsg::Decide { v } => self.decide(ctx, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_consensus;
    use wfd_detectors::oracles::{OmegaOracle, PairOracle, SigmaOracle};
    use wfd_sim::{FailurePattern, RandomFair, Sim, SimConfig};

    type Ro = RegisterOmegaConsensus<u64>;

    fn run_ro(
        pattern: &FailurePattern,
        proposals: &[u64],
        stabilize: u64,
        seed: u64,
        horizon: u64,
    ) -> wfd_sim::Trace<RoMsg<u64>, ConsensusOutput<u64>> {
        let n = pattern.n();
        let fd = PairOracle::new(
            OmegaOracle::new(pattern, stabilize, seed),
            SigmaOracle::new(pattern, stabilize, seed),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| Ro::new(n)).collect(),
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
        let proposals = [21, 22, 23];
        for seed in 0..3 {
            let trace = run_ro(&pattern, &proposals, 60, seed, 60_000);
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            check_consensus(&trace, &props, &pattern)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn decides_with_majority_crashed() {
        // The full chain Σ → ABD registers → +Ω → consensus, in an
        // environment where majorities are gone.
        let n = 5;
        let pattern = FailurePattern::with_crashes(
            n,
            &[
                (ProcessId(0), 100),
                (ProcessId(1), 150),
                (ProcessId(2), 220),
            ],
        );
        let proposals = [31, 32, 33, 34, 35];
        for seed in 0..3 {
            let trace = run_ro(&pattern, &proposals, 500, seed, 150_000);
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            check_consensus(&trace, &props, &pattern)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn initial_dblock_is_empty() {
        let b: DBlock<u64> = DBlock::initial();
        assert_eq!(b.mbal, Ballot::ZERO);
        assert_eq!(b.val, None);
    }

    #[test]
    fn accessors() {
        let p: Ro = RegisterOmegaConsensus::new(3);
        assert_eq!(p.decision(), None);
    }
}
