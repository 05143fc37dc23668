//! From binary to multivalued quittable consensus — footnote 6 of the
//! paper, verbatim: *"We assume here that A can solve multivalued QC.
//! This causes no loss of generality: by using the technique of \[20\]
//! one can transform any binary QC algorithm into a multivalued one."*
//!
//! The Mostéfaoui–Raynal–Tronel loop, adapted to the quit option:
//! processes flood their proposals and run binary QC instances — instance
//! `j` asks *"shall we decide the value proposed by `p_{j mod n}`?"* — in
//! a common order. A process proposes 1 for instance `j` iff it already
//! holds that value, and it re-floods the value in the same atomic step,
//! so a 1-decision implies the value is on its way to everyone. The
//! adaptation: a binary instance may return `Q`, and then everyone
//! returns `Q` (agreement per instance makes the choice common; validity
//! (b) is inherited, since the inner `Q` already certifies a failure).
//! Otherwise the first 1-instance fixes the value.
//!
//! Any binary QC algorithm `B` will do: [`PsiQc<u8>`](crate::PsiQc)
//! (Figure 2, with Ψ), or [`ConsensusAsQc<u8>`](crate::ConsensusAsQc),
//! which never quits and so makes this the plain binary-to-multivalued
//! consensus transformation, with (Ω, Σ).

use crate::spec::QcDecision;
use std::collections::BTreeMap;
use std::fmt::Debug;
use wfd_consensus::ConsensusOutput;
use wfd_sim::{Ctx, ProcessId, Protocol};

/// A binary QC algorithm the transformation can host: it is proposed a
/// bit and returns a QC decision on a bit; `Default` is a fresh instance.
pub trait BinaryQc: Protocol<Inv = u8, Output = ConsensusOutput<QcDecision<u8>>> + Default {}

impl<B: Protocol<Inv = u8, Output = ConsensusOutput<QcDecision<u8>>> + Default> BinaryQc for B {}

/// Messages: proposal flooding plus wrapped traffic of the binary
/// instances, whose messages are `M`.
#[derive(Clone, Debug, PartialEq)]
pub enum MvQcMsg<V, M> {
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
        inner: M,
    },
}

/// One process of the multivalued-QC-from-binary-QC transformation. The
/// binary instances are `B`s, and the failure detector value is `B`'s.
#[derive(Debug)]
pub struct MultivaluedQc<B, V: Clone + Debug + PartialEq> {
    values: Vec<Option<V>>,
    instances: BTreeMap<u64, B>,
    /// What each binary instance returned here. An instance may return
    /// before this process reaches it (messages are reordered), and it
    /// returns only once.
    returned: BTreeMap<u64, QcDecision<u8>>,
    current: u64,
    proposed_current: bool,
    my_value: Option<V>,
    decided: Option<QcDecision<V>>,
}

impl<B: BinaryQc, V: Clone + Debug + PartialEq> MultivaluedQc<B, V> {
    /// Create a process for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        MultivaluedQc {
            values: vec![None; n],
            instances: BTreeMap::new(),
            returned: BTreeMap::new(),
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

    fn with_instance(&mut self, ctx: &mut Ctx<Self>, j: u64, f: impl FnOnce(&mut B, &mut Ctx<B>)) {
        let fd = ctx.fd().clone();
        let inst = self.instances.entry(j).or_default();
        let wrap = |inner| MvQcMsg::Bin { instance: j, inner };
        for ConsensusOutput::Decided(d) in ctx.host(fd, wrap, |ictx| f(inst, ictx)) {
            self.returned.insert(j, d);
        }
        self.settle(ctx);
    }

    /// Act on what the current instance returned: move past a 0, return
    /// on `Q` or on a 1 whose value has arrived, and propose in the
    /// instance this leaves current. Runs whenever an instance returns or
    /// a value arrives.
    fn settle(&mut self, ctx: &mut Ctx<Self>) {
        while self.decided.is_none() {
            let j = self.current;
            let d = match self.returned.get(&j) {
                // The quit adaptation: an inner Q certifies a failure and
                // all processes see it at the same (first) instance.
                Some(QcDecision::Quit) => QcDecision::Quit,
                // A 1-decision implies some process had the value and
                // flooded it before proposing 1; wait for it if it is
                // still in flight.
                Some(QcDecision::Value(1)) => match &self.values[owner(j, ctx.n())] {
                    Some(v) => QcDecision::Value(v.clone()),
                    None => break,
                },
                Some(QcDecision::Value(_)) => {
                    self.current = j + 1;
                    self.proposed_current = false;
                    continue;
                }
                None => break,
            };
            self.decided = Some(d.clone());
            ctx.output(ConsensusOutput::Decided(d));
        }
        self.maybe_propose(ctx);
    }

    /// Propose for the current binary instance once we have proposed a
    /// value ourselves.
    fn maybe_propose(&mut self, ctx: &mut Ctx<Self>) {
        if self.my_value.is_none() || self.proposed_current || self.decided.is_some() {
            return;
        }
        let j = self.current;
        let owner = owner(j, ctx.n());
        let bit = if let Some(v) = self.values[owner].clone() {
            // Re-flood before proposing 1: a 1-decision must imply the
            // value reaches everyone.
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
}

/// The process whose value instance `j` decides on, among `n`.
fn owner(j: u64, n: usize) -> usize {
    (j % n as u64) as usize
}

impl<B: BinaryQc, V: Clone + Debug + PartialEq> Protocol for MultivaluedQc<B, V> {
    type Msg = MvQcMsg<V, B::Msg>;
    type Output = ConsensusOutput<QcDecision<V>>;
    type Inv = V;
    type Fd = B::Fd;

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, v: V) {
        if self.my_value.is_none() {
            self.my_value = Some(v.clone());
            self.values[ctx.me().index()] = Some(v.clone());
            ctx.broadcast_others(MvQcMsg::Val { owner: ctx.me(), v });
        }
        self.settle(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        let j = self.current;
        if self.instances.contains_key(&j) {
            self.with_instance(ctx, j, |inst, ictx| inst.on_tick(ictx));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: Self::Msg) {
        match msg {
            MvQcMsg::Val { owner, v } => {
                if self.values[owner.index()].is_none() {
                    self.values[owner.index()] = Some(v);
                }
                self.settle(ctx);
            }
            MvQcMsg::Bin { instance, inner } => {
                self.with_instance(ctx, instance, |inst, ictx| {
                    inst.on_message(ictx, from, inner)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_qc;
    use crate::{ConsensusAsQc, PsiQc};
    use std::collections::VecDeque;
    use wfd_consensus::omega_sigma::PaxosMsg;
    use wfd_detectors::oracles::{OmegaOracle, PairOracle, PsiMode, PsiOracle, SigmaOracle};
    use wfd_detectors::{OmegaSigma, PsiValue};
    use wfd_sim::{FailurePattern, FdOracle, ProcessSet, RandomFair, Sim, SimConfig, Time, Trace};

    type Mv = MultivaluedQc<PsiQc<u8>, &'static str>;
    type MvConsensus = MultivaluedQc<ConsensusAsQc<u8>, u64>;
    type MvTrace<B, V> = Trace<MvQcMsg<V, <B as Protocol>::Msg>, ConsensusOutput<QcDecision<V>>>;
    type Wire<B> = MvQcMsg<u64, <B as Protocol>::Msg>;

    fn run_mv<B, V, D>(
        pattern: &FailurePattern,
        fd: D,
        proposals: &[V],
        seed: u64,
        horizon: u64,
    ) -> MvTrace<B, V>
    where
        B: BinaryQc,
        V: Clone + Debug + PartialEq,
        D: FdOracle<Value = B::Fd>,
    {
        let n = pattern.n();
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| MultivaluedQc::<B, V>::new(n)).collect(),
            pattern.clone(),
            fd,
            RandomFair::new(seed),
        );
        for (p, v) in proposals.iter().enumerate() {
            sim.schedule_invoke(ProcessId(p), 0, v.clone());
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

    fn run_psi(
        pattern: &FailurePattern,
        mode: PsiMode,
        proposals: &[&'static str],
        seed: u64,
        horizon: u64,
    ) -> MvTrace<PsiQc<u8>, &'static str> {
        let psi = PsiOracle::new(pattern, mode, 40, 20, seed);
        run_mv::<PsiQc<u8>, _, _>(pattern, psi, proposals, seed, horizon)
    }

    fn run_consensus(
        pattern: &FailurePattern,
        proposals: &[u64],
        stabilize: u64,
        seed: u64,
        horizon: u64,
    ) -> MvTrace<ConsensusAsQc<u8>, u64> {
        let fd = PairOracle::new(
            OmegaOracle::new(pattern, stabilize, seed),
            SigmaOracle::new(pattern, stabilize, seed),
        );
        run_mv::<ConsensusAsQc<u8>, _, _>(pattern, fd, proposals, seed, horizon)
    }

    #[test]
    fn decides_an_arbitrary_valued_proposal() {
        // Truly multivalued: string proposals, nothing binary about them.
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let proposals = ["alpha", "beta", "gamma"];
        for seed in 0..3 {
            let trace = run_psi(&pattern, PsiMode::OmegaSigma, &proposals, seed, 120_000);
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
        let trace = run_psi(&pattern, PsiMode::Fs, &proposals, 1, 60_000);
        let props: Vec<Option<&str>> = proposals.iter().copied().map(Some).collect();
        let stats = check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.decision, Some(QcDecision::Quit));
    }

    #[test]
    fn decides_a_proposed_multivalue() {
        // Over consensus viewed as QC: the plain binary-to-multivalued
        // consensus transformation, which never quits.
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let proposals = [111, 222, 333];
        for seed in 0..3 {
            let trace = run_consensus(&pattern, &proposals, 40, seed, 80_000);
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            let stats =
                check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            match stats.decision {
                Some(QcDecision::Value(v)) => assert!(proposals.contains(&v)),
                other => panic!("seed {seed}: expected a value, got {other:?}"),
            }
        }
    }

    #[test]
    fn decides_despite_crashes() {
        let n = 4;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 30)]);
        let proposals = [5, 6, 7, 8];
        for seed in 0..3 {
            let trace = run_consensus(&pattern, &proposals, 300, seed, 120_000);
            let props: Vec<Option<u64>> = proposals.iter().copied().map(Some).collect();
            let stats =
                check_qc(&trace, &props, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert!(
                matches!(stats.decision, Some(QcDecision::Value(_))),
                "seed {seed}: consensus viewed as QC never quits"
            );
        }
    }

    /// A hand-scheduled run of `MultivaluedQc<B, u64>` over detached
    /// contexts: the test picks who steps and which message it takes,
    /// every process sees `fd` at every step, and `returned[p]` collects
    /// what `p` returned.
    struct HandRun<B: BinaryQc> {
        procs: Vec<MultivaluedQc<B, u64>>,
        inboxes: Vec<VecDeque<(ProcessId, Wire<B>)>>,
        returned: Vec<Vec<QcDecision<u64>>>,
        fd: B::Fd,
        now: Time,
    }

    impl<B: BinaryQc> HandRun<B> {
        fn new(n: usize, fd: B::Fd) -> Self {
            HandRun {
                procs: (0..n).map(|_| MultivaluedQc::new(n)).collect(),
                inboxes: (0..n).map(|_| VecDeque::new()).collect(),
                returned: vec![Vec::new(); n],
                fd,
                now: 0,
            }
        }

        fn step(
            &mut self,
            p: usize,
            f: impl FnOnce(&mut MultivaluedQc<B, u64>, &mut Ctx<MultivaluedQc<B, u64>>),
        ) {
            let n = self.procs.len();
            let mut ctx = Ctx::detached(ProcessId(p), n, self.now, self.fd.clone());
            f(&mut self.procs[p], &mut ctx);
            self.now += 1;
            let (sends, outputs) = ctx.into_buffers();
            for (to, msg) in sends {
                self.inboxes[to.index()].push_back((ProcessId(p), msg));
            }
            self.returned[p].extend(outputs.into_iter().map(|ConsensusOutput::Decided(d)| d));
        }

        /// `p` takes the oldest message in its inbox that `pick` accepts;
        /// false if there is none.
        fn take(&mut self, p: usize, pick: impl Fn(&Wire<B>) -> bool) -> bool {
            let Some(i) = self.inboxes[p].iter().position(|(_, m)| pick(m)) else {
                return false;
            };
            let (from, msg) = self.inboxes[p].remove(i).expect("position is in range");
            self.step(p, |proc, ctx| proc.on_message(ctx, from, msg));
            true
        }

        /// A fair step of `p`: its oldest message, or λ when its inbox is
        /// empty.
        fn fair_step(&mut self, p: usize) {
            if !self.take(p, |_| true) {
                self.step(p, |proc, ctx| proc.on_tick(ctx));
            }
        }
    }

    /// The binary instance whose decision `m` floods, if it is one.
    fn decide_of(m: &MvQcMsg<u64, PaxosMsg<u8>>) -> Option<u64> {
        match m {
            MvQcMsg::Bin {
                instance,
                inner: PaxosMsg::Decide { .. },
            } => Some(*instance),
            _ => None,
        }
    }

    /// n = 3, failure-free, and `fd` shows Ω = p2 and Σ = {p0, p2} to
    /// every process at every time. p2 proposes 102, then p0 proposes
    /// 100; p1 proposes nothing. p2 leads instances 0, 1 and 2 with p0 as
    /// its acceptor: they decide 0, 0 and 1, so p2 returns its own value.
    /// p0 takes no Decide until then, and then takes instance 1's before
    /// instance 0's, so instance 1 returns at p0 before p0 reaches it.
    /// Then every process takes 2,000 fair steps in turn.
    fn early_returning_instance<B: BinaryQc<Msg = PaxosMsg<u8>>>(
        fd: B::Fd,
    ) -> Vec<Vec<QcDecision<u64>>> {
        let mut run = HandRun::<B>::new(3, fd);
        run.step(2, |p, ctx| p.on_invoke(ctx, 102));
        run.step(0, |p, ctx| p.on_invoke(ctx, 100));
        while run.returned[2].is_empty() {
            assert!(run.now < 1_000, "p2 leads every instance to a decision");
            run.fair_step(2);
            run.take(0, |m| decide_of(m).is_none());
        }
        assert!(run.returned[0].is_empty());
        assert!(run.take(0, |m| decide_of(m) == Some(1)));
        assert!(run.take(0, |m| decide_of(m) == Some(0)));
        for _ in 0..2_000 {
            for p in 0..3 {
                run.fair_step(p);
            }
        }
        run.returned
    }

    #[test]
    fn an_instance_that_returned_early_still_counts() {
        let leader = ProcessId(2);
        let quorum = ProcessSet::from_iter([ProcessId(0), leader]);
        let psi = PsiValue::OmegaSigma(OmegaSigma { leader, quorum });
        let all_return_102 = vec![vec![QcDecision::Value(102)]; 3];
        assert_eq!(early_returning_instance::<PsiQc<u8>>(psi), all_return_102);
        assert_eq!(
            early_returning_instance::<ConsensusAsQc<u8>>((leader, quorum)),
            all_return_102
        );
    }

    #[test]
    fn accessors() {
        let p: Mv = MultivaluedQc::new(3);
        assert_eq!(p.decision(), None);
        let p: MvConsensus = MultivaluedQc::new(3);
        assert_eq!(p.decision(), None);
    }
}
