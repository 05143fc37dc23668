//! **Figure 3 of the paper**: the transformation extracting Ψ from any
//! failure detector `D` and QC algorithm `A`.
//!
//! Per process, the protocol runs the paper's two tasks:
//!
//! * **Task 1** — keep sampling the local `D` module and flooding the
//!   samples ([`SampleStore`]); keep growing simulated runs of `A` for
//!   the `n+1` initial configurations ([`crate::forest`]).
//! * **Task 2** — once every tree's simulation has decided (line 8):
//!   propose `0` to a *real* execution of `A` if any simulation decided
//!   `Q` (line 11), else propose the critical tuple `(I, I′, S, S′)`
//!   (lines 13–14). If the real execution returns `0`/`Q`, output `red`
//!   forever (line 18); if it returns a tuple, extract (Ω, Σ) forever
//!   (lines 20–34):
//!   - **Σ** exactly as lines 24–32: per round, reconstruct the
//!     configuration set `C` from all prefixes of the agreed schedules,
//!     extend each with *fresh* samples until it decides, and output the
//!     union of the step-takers. One [`Runner`] per schedule advances a
//!     step per prefix and each configuration is extended on a clone of
//!     it, so a round replays |S| + |S′| steps, not every prefix. Every
//!     extension consumes a prefix of the same fresh window, so the union
//!     of the step-takers is the step-takers of the longest extension;
//!   - **Ω** by re-evaluating the critical index of the simulated forest
//!     on the same fresh windows (the executable counterpart of the CHT
//!     limit-forest procedure of line 22 — see DESIGN.md §6).
//!
//! Until a branch is taken the output is ⊥, so the emitted stream is a
//! [`PsiValue`] history checkable by
//! [`check_psi`](wfd_detectors::check::check_psi).

use crate::family::QcFamily;
use crate::forest::{critical_pair, initial_proposals, ForestEvaluator};
use crate::runner::Runner;
use crate::sampling::{Sample, SampleStore};
use std::fmt::Debug;
use wfd_consensus::ConsensusOutput;
use wfd_detectors::value::{OmegaSigma, PsiValue, Signal};
use wfd_quittable::QcDecision;
use wfd_sim::obs::{CounterId, Obs, PhaseId};
use wfd_sim::{Ctx, ProcessId, ProcessSet, Protocol, Time};

/// The critical tuple `(I, I′, S, S′)` of Figure 3 line 13: two adjacent
/// initial configurations and schedules deciding 0 and 1 respectively.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalTuple<Fd> {
    /// `I`: the tree (number of leading 1-proposers) whose run decided 0.
    pub zero_tree: usize,
    /// `I′`: the adjacent tree whose run decided 1.
    pub one_tree: usize,
    /// `S`: schedule deciding 0 from `I`.
    pub s0: Vec<(ProcessId, Fd)>,
    /// `S′`: schedule deciding 1 from `I′`.
    pub s1: Vec<(ProcessId, Fd)>,
}

/// What a process proposes to the real execution of `A` (lines 11/14).
#[derive(Clone, Debug, PartialEq)]
pub enum ExtractProposal<Fd> {
    /// "I saw a `Q` decision in my simulations" (line 11).
    Zero,
    /// A critical tuple (line 14).
    Tuple(CriticalTuple<Fd>),
}

/// Messages: flooded detector samples plus the real execution's traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum Fig3Msg<Fd, M> {
    /// A flooded `D` sample.
    Sample(Sample<Fd>),
    /// Traffic of the hosted real execution of `A`.
    Real(M),
}

#[derive(Clone, Debug)]
enum Phase<Fd> {
    /// Task 1 only: simulating until every tree decides.
    Simulating,
    /// Proposed to the real execution, awaiting its decision.
    RealExec,
    /// Line 18: output red forever.
    Red,
    /// Lines 20–34: extract (Ω, Σ) forever.
    OmegaSigma {
        tuple: CriticalTuple<Fd>,
        watermark: Time,
        leader: ProcessId,
        quorum: ProcessSet,
    },
}

/// One process of the Figure 3 transformation, generic over the QC
/// algorithm family (`A` + `D`).
#[derive(Debug)]
pub struct PsiExtraction<F: QcFamily> {
    family: F,
    store: SampleStore<F::Fd>,
    real: F::Multi,
    phase: Phase<F::Fd>,
    own_steps: u64,
    /// `None` = default to `n` (one sample broadcast per `n` own steps).
    /// The default matters: with `n − 1` recipients per broadcast, any
    /// interval below `n − 1` *produces* messages faster than the
    /// one-delivery-per-step model can consume them, and the growing
    /// backlog starves every other protocol message.
    sample_interval: Option<u64>,
    eval_interval: u64,
    out_interval: u64,
    real_decision_seen: bool,
    /// Incremental forest over the whole store (Task 1, line 8). Created
    /// lazily because `n` is only known once a step context exists.
    sim_forest: Option<ForestEvaluator<F>>,
    /// Incremental forest over the current fresh-sample window, tagged
    /// with the watermark it started from (lines 22/24–32); replaced
    /// whenever the watermark advances.
    round_forest: Option<(Time, ForestEvaluator<F>)>,
    /// Observability handle for the Σ rounds, forwarded to every
    /// [`ForestEvaluator`] this process creates (off by default; never
    /// influences extraction).
    obs: Obs,
}

impl<F: QcFamily> PsiExtraction<F> {
    /// Create an extraction process.
    pub fn new(family: F) -> Self {
        let real = family.multi();
        PsiExtraction {
            family,
            store: SampleStore::new(),
            real,
            phase: Phase::Simulating,
            own_steps: 0,
            sample_interval: None,
            eval_interval: 64,
            out_interval: 8,
            real_decision_seen: false,
            sim_forest: None,
            round_forest: None,
            obs: Obs::off(),
        }
    }

    /// Attach an observability handle (see [`wfd_sim::obs`]): the forest
    /// evaluators created by this process report their incremental vs
    /// full-replay split through it, and each Σ round of lines 24–32 its
    /// time ([`PhaseId::ExtractionSigmaRound`]) and work
    /// ([`CounterId::SigmaConfigsExtended`],
    /// [`CounterId::SigmaRunnerSteps`]). Metrics never change what is
    /// extracted.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Override how often (in own steps) the process samples `D` and
    /// floods the sample. The default is `n`; anything below `n − 1`
    /// floods the network faster than it drains (see the field docs).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_sample_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "sample interval must be positive");
        self.sample_interval = Some(interval);
        self
    }

    /// Override how often (in own steps) simulations are re-evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_eval_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "eval interval must be positive");
        self.eval_interval = interval;
        self
    }

    /// Whether this process has left the ⊥ phase.
    pub fn has_switched(&self) -> bool {
        matches!(self.phase, Phase::Red | Phase::OmegaSigma { .. })
    }

    fn current_output(&self) -> PsiValue {
        match &self.phase {
            Phase::Simulating | Phase::RealExec => PsiValue::Bot,
            Phase::Red => PsiValue::Fs(Signal::Red),
            Phase::OmegaSigma { leader, quorum, .. } => PsiValue::OmegaSigma(OmegaSigma {
                leader: *leader,
                quorum: *quorum,
            }),
        }
    }

    fn with_real(
        &mut self,
        ctx: &mut Ctx<Self>,
        f: impl FnOnce(&mut F::Multi, &mut Ctx<F::Multi>),
    ) {
        let fd = ctx.fd().clone();
        for out in ctx.host(fd, Fig3Msg::Real, |ictx| f(&mut self.real, ictx)) {
            let ConsensusOutput::Decided(d) = out;
            self.on_real_decision(ctx, d);
        }
    }

    /// Lines 15–20: the real execution of `A` decided.
    fn on_real_decision(&mut self, ctx: &mut Ctx<Self>, d: QcDecision<ExtractProposal<F::Fd>>) {
        if self.real_decision_seen {
            return;
        }
        self.real_decision_seen = true;
        match d {
            QcDecision::Quit | QcDecision::Value(ExtractProposal::Zero) => {
                // Line 18: Ψ-output := red.
                self.phase = Phase::Red;
                ctx.output(PsiValue::Fs(Signal::Red));
            }
            QcDecision::Value(ExtractProposal::Tuple(tuple)) => {
                // Line 20: Ω-output := p; Σ-output := Π.
                let watermark = self.store.max_time().unwrap_or(0);
                self.phase = Phase::OmegaSigma {
                    tuple,
                    watermark,
                    leader: ctx.me(),
                    quorum: ProcessSet::full(ctx.n()),
                };
                ctx.output(PsiValue::OmegaSigma(OmegaSigma {
                    leader: ctx.me(),
                    quorum: ProcessSet::full(ctx.n()),
                }));
            }
        }
    }

    /// Line 8–14: check whether every tree's simulation has decided and,
    /// if so, propose to the real execution.
    fn try_finish_simulating(&mut self, ctx: &mut Ctx<Self>) {
        let n = ctx.n();
        let window: Vec<Sample<F::Fd>> = self.store.iter().collect();
        // The store only grows, so the cached evaluator usually just
        // consumes the delta; a late-flooded sample landing before its
        // frontier triggers a transparent full replay.
        let forest = self.sim_forest.get_or_insert_with(|| {
            ForestEvaluator::new(&self.family, n).with_obs(self.obs.clone())
        });
        let runs = forest.evaluate(&self.family, &window);
        if !runs.iter().all(|r| r.decision.is_some()) {
            return;
        }
        let proposal = if runs.iter().any(|r| r.decision == Some(QcDecision::Quit)) {
            // Line 11: a simulated Q decision licenses proposing 0.
            ExtractProposal::Zero
        } else if let Some((zero_tree, one_tree)) = critical_pair(runs) {
            ExtractProposal::Tuple(CriticalTuple {
                zero_tree,
                one_tree,
                s0: runs[zero_tree].schedule.clone(),
                s1: runs[one_tree].schedule.clone(),
            })
        } else {
            // All trees decided the same non-Q value — impossible for a
            // correct A (tree 0 must decide 0, tree n must decide 1), but
            // be defensive: keep simulating.
            return;
        };
        self.sim_forest = None; // simulation phase over — free the cache
        self.phase = Phase::RealExec;
        self.with_real(ctx, |real, ictx| real.on_invoke(ictx, proposal));
    }

    /// One (Ω, Σ) extraction round over the fresh-sample window
    /// (lines 22 and 24–32). Leaves state untouched if the window cannot
    /// yet decide everything it must.
    fn try_extraction_round(&mut self, ctx: &mut Ctx<Self>) {
        let n = ctx.n();
        let Phase::OmegaSigma {
            tuple, watermark, ..
        } = &self.phase
        else {
            return;
        };
        let watermark = *watermark;
        let window: Vec<Sample<F::Fd>> = self.store.window_after(watermark).collect();
        if window.is_empty() {
            return;
        }

        // Ω: re-evaluate the critical index on the fresh window. Until
        // the round completes the watermark is fixed and the window only
        // grows, so a cached evaluator consumes just the delta.
        if self
            .round_forest
            .as_ref()
            .is_none_or(|(wm, _)| *wm != watermark)
        {
            let forest = ForestEvaluator::new(&self.family, n).with_obs(self.obs.clone());
            self.round_forest = Some((watermark, forest));
        }
        let (_, forest) = self.round_forest.as_mut().expect("just ensured");
        let runs = forest.evaluate(&self.family, &window);
        if !runs.iter().all(|r| r.decision.is_some()) {
            return; // window not yet rich enough — wait for more samples
        }
        if runs.iter().any(|r| r.decision == Some(QcDecision::Quit)) {
            // Fresh simulations decided Q: no critical index in this
            // window. Keep the previous outputs and wait (cannot happen
            // with a mode-consistent Ψ-style D; defensive for exotic Ds).
            return;
        }
        let Some((zero_tree, one_tree)) = critical_pair(runs) else {
            return;
        };
        let leader = ProcessId(zero_tree.min(one_tree));

        // Σ (lines 24–32): extend every configuration in C with fresh
        // samples until it decides; the quorum is the union of the
        // extension step-takers, i.e. the step-takers of the longest
        // extension, since every extension is a prefix of one window.
        let mut work = SigmaWork::default();
        let quorum = {
            let _span = self.obs.phase(PhaseId::ExtractionSigmaRound);
            sigma_quorum(&self.family, n, tuple, &window, &mut work)
        };
        self.obs.add(CounterId::SigmaConfigsExtended, work.configs);
        self.obs.add(CounterId::SigmaRunnerSteps, work.steps);
        let Some(quorum) = quorum else {
            return; // a configuration needs more fresh samples
        };

        if let Phase::OmegaSigma {
            watermark: wm,
            leader: l,
            quorum: q,
            ..
        } = &mut self.phase
        {
            *l = leader;
            *q = quorum;
            // Next round must use strictly fresher samples (line 27).
            *wm = window.last().expect("non-empty window").t;
        }
        self.round_forest = None; // round done — next one starts fresh
        ctx.output(PsiValue::OmegaSigma(OmegaSigma { leader, quorum }));
    }

    /// Work done on every step: sampling, periodic evaluation, periodic
    /// output.
    fn advance(&mut self, ctx: &mut Ctx<Self>) {
        self.own_steps += 1;

        // Task 1: sample the local D module and flood the sample.
        let sample_interval = self.sample_interval.unwrap_or(ctx.n() as u64);
        if self.own_steps.is_multiple_of(sample_interval) {
            let s = Sample {
                q: ctx.me(),
                t: ctx.now(),
                val: ctx.fd().clone(),
            };
            self.store.insert(s.clone());
            ctx.broadcast_others(Fig3Msg::Sample(s));
        }

        // Phase work.
        if self.own_steps.is_multiple_of(self.eval_interval) {
            match self.phase {
                Phase::Simulating => self.try_finish_simulating(ctx),
                Phase::OmegaSigma { .. } => self.try_extraction_round(ctx),
                _ => {}
            }
        }
        if matches!(self.phase, Phase::RealExec) {
            self.with_real(ctx, |real, ictx| real.on_tick(ictx));
        }

        // Periodic (re-)emission so checkers see dense histories.
        if self.own_steps.is_multiple_of(self.out_interval) {
            ctx.output(self.current_output());
        }
    }
}

/// The work of one Σ round, reported to [`Obs`] once per round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SigmaWork {
    /// Configurations of `C` whose extension was attempted.
    configs: u64,
    /// Runner steps: prefix advances plus extension steps.
    steps: u64,
}

/// Figure 3 lines 24–32: the Σ quorum of one round, or `None` if some
/// configuration of `C` does not decide within `window`.
///
/// `C` holds the configuration after every prefix of `S` (from
/// `I_{zero_tree}`) and of `S′` (from `I_{one_tree}`), the empty and the
/// full prefix included. Each is extended with `window`'s samples, in
/// order, until it decides, and the quorum is the set of processes that
/// took an extension step. Every extension is a prefix of the same
/// window, so the union of their step-takers is the step-takers of the
/// longest one.
///
/// One runner per schedule starts at its initial configuration and
/// advances one step per prefix; each configuration is extended on a
/// clone of it, so a round replays |S| + |S′| steps instead of every
/// prefix. Configurations are visited in prefix order, `S` before `S′`,
/// and the first that does not decide ends the round.
fn sigma_quorum<F: QcFamily>(
    family: &F,
    n: usize,
    tuple: &CriticalTuple<F::Fd>,
    window: &[Sample<F::Fd>],
    work: &mut SigmaWork,
) -> Option<ProcessSet> {
    let mut longest = 0;
    for (ones, schedule) in [(tuple.zero_tree, &tuple.s0), (tuple.one_tree, &tuple.s1)] {
        let procs = (0..n).map(|_| family.binary()).collect();
        let mut runner = Runner::new(procs, initial_proposals(n, ones));
        let mut rest = schedule.iter();
        loop {
            work.configs += 1;
            longest = longest.max(extend_to_decision(&runner, window, work)?);
            let Some((q, fd)) = rest.next() else { break };
            runner.step(*q, fd.clone());
            work.steps += 1;
        }
    }
    Some(window[..longest].iter().map(|s| s.q).collect())
}

/// Extend a clone of `config` with `window`'s samples until it decides.
/// Returns how many samples that took (0 if `config` had already
/// decided), or `None` if the window runs out first.
fn extend_to_decision<P>(
    config: &Runner<P>,
    window: &[Sample<P::Fd>],
    work: &mut SigmaWork,
) -> Option<usize>
where
    P: Protocol<Output = ConsensusOutput<QcDecision<u8>>> + Clone,
{
    let decided = |r: &Runner<P>| {
        r.outputs()
            .iter()
            .any(|(_, o)| matches!(o, ConsensusOutput::Decided(_)))
    };
    if decided(config) {
        return Some(0);
    }
    let mut runner = config.clone();
    for (consumed, s) in (1..).zip(window) {
        runner.step(s.q, s.val.clone());
        work.steps += 1;
        if decided(&runner) {
            return Some(consumed);
        }
    }
    None
}

impl<F: QcFamily> Protocol for PsiExtraction<F> {
    type Msg = Fig3Msg<F::Fd, <F::Multi as Protocol>::Msg>;
    type Output = PsiValue;
    type Inv = ();
    type Fd = F::Fd;

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        // Ψ-output is initially ⊥ (line 1).
        ctx.output(PsiValue::Bot);
        self.advance(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        self.advance(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: Self::Msg) {
        match msg {
            Fig3Msg::Sample(s) => self.store.insert(s),
            Fig3Msg::Real(inner) => {
                self.with_real(ctx, |real, ictx| real.on_message(ictx, from, inner));
            }
        }
        self.advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{OmegaSigmaQcFamily, PsiQcFamily};
    use crate::forest::evaluate_forest;
    use wfd_detectors::check::{check_psi, PsiPhase};
    use wfd_detectors::history::history_from_outputs;
    use wfd_detectors::oracles::{OmegaOracle, PairOracle, PsiMode, PsiOracle, SigmaOracle};
    use wfd_sim::{FailurePattern, FdOracle, RandomFair, Sim, SimConfig, SimRng};

    type Host = PsiExtraction<PsiQcFamily>;

    fn run_extraction(
        pattern: &FailurePattern,
        mode: PsiMode,
        switch: u64,
        seed: u64,
        horizon: u64,
    ) -> wfd_detectors::History<PsiValue> {
        let n = pattern.n();
        let psi = PsiOracle::new(pattern, mode, switch, 20, seed);
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n)
                .map(|_| Host::new(PsiQcFamily).with_eval_interval(48))
                .collect(),
            pattern.clone(),
            psi,
            RandomFair::new(seed),
        );
        sim.run();
        history_from_outputs(sim.trace(), |v: &PsiValue| Some(v.clone()))
    }

    #[test]
    fn consensus_mode_extracts_omega_sigma() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        for seed in 0..2 {
            let h = run_extraction(&pattern, PsiMode::OmegaSigma, 10, seed, 120_000);
            let stats = check_psi(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(
                stats.phase,
                PsiPhase::OmegaSigma,
                "seed {seed}: extraction should settle in (Ω,Σ) mode"
            );
        }
    }

    #[test]
    fn fs_mode_extracts_red() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(2), 30);
        for seed in 0..2 {
            let h = run_extraction(&pattern, PsiMode::Fs, 40, seed, 60_000);
            let stats = check_psi(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(
                stats.phase,
                PsiPhase::Fs,
                "seed {seed}: FS-mode D should lead to red extraction"
            );
        }
    }

    #[test]
    fn consensus_mode_with_crash_still_extracts_omega_sigma() {
        // Ψ may stay in consensus mode despite a failure; the extraction
        // must then deliver a correct (Ω, Σ), with the crashed process
        // eventually dropped from quorums and never the leader.
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(0), 500);
        let h = run_extraction(&pattern, PsiMode::OmegaSigma, 10, 3, 200_000);
        let stats = check_psi(&h, &pattern).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.phase, PsiPhase::OmegaSigma);
    }

    #[test]
    fn accessors_and_validation() {
        let host: Host = PsiExtraction::new(PsiQcFamily);
        assert!(!host.has_switched());
    }

    #[test]
    fn extraction_works_for_a_second_algorithm_family() {
        // A = consensus-that-never-quits, D = (Ω, Σ): the simulated runs
        // can never decide Q, so the extraction must take the (Ω, Σ)
        // branch — with a crash present and all.
        let n = 3;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(2), 300)]);
        let fd = PairOracle::new(
            OmegaOracle::new(&pattern, 60, 2),
            SigmaOracle::new(&pattern, 60, 2),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(150_000),
            (0..n)
                .map(|_| PsiExtraction::new(OmegaSigmaQcFamily).with_eval_interval(48))
                .collect(),
            pattern.clone(),
            fd,
            RandomFair::new(2),
        );
        sim.run();
        let h = history_from_outputs(sim.trace(), |v: &PsiValue| Some(v.clone()));
        let stats = check_psi(&h, &pattern).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(stats.phase, PsiPhase::OmegaSigma);
    }

    #[test]
    #[should_panic(expected = "sample interval")]
    fn zero_sample_interval_rejected() {
        let _ = PsiExtraction::new(PsiQcFamily).with_sample_interval(0);
    }

    #[test]
    #[should_panic(expected = "eval interval")]
    fn zero_eval_interval_rejected() {
        let _ = PsiExtraction::new(PsiQcFamily).with_eval_interval(0);
    }

    #[test]
    fn metrics_never_change_the_extracted_history() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        let run = |obs: Obs| {
            let psi = PsiOracle::new(&pattern, PsiMode::OmegaSigma, 10, 20, 5);
            let mut sim = Sim::new(
                SimConfig::new(n).with_horizon(8_000),
                (0..n)
                    .map(|_| {
                        Host::new(PsiQcFamily)
                            .with_eval_interval(48)
                            .with_obs(obs.clone())
                    })
                    .collect(),
                pattern.clone(),
                psi,
                RandomFair::new(5),
            );
            sim.run();
            sim.trace()
                .outputs()
                .map(|(t, p, o)| format!("{t} {p:?} {o:?}"))
                .collect::<Vec<_>>()
        };
        let obs = Obs::on();
        assert_eq!(run(obs.clone()), run(Obs::off()));
        let m = obs.snapshot().expect("metrics on");
        let configs = m.counter(CounterId::SigmaConfigsExtended);
        assert!(configs > 0, "no Σ round ran");
        // An undecided configuration takes at least one extension step;
        // the full prefixes decided already, but advancing to them took
        // at least one step each.
        assert!(m.counter(CounterId::SigmaRunnerSteps) >= configs);
        let rounds = m.phase(PhaseId::ExtractionSigmaRound).expect("phase");
        assert!(rounds.calls > 0 && rounds.calls <= configs);
    }

    /// Figure 3 lines 24–32 read literally, the reference for
    /// [`sigma_quorum`]: every configuration replayed from its initial
    /// configuration, the quorum the union of every extension's
    /// step-takers. Counts the configurations it visits into `configs`.
    fn replay_every_prefix<F: QcFamily>(
        family: &F,
        n: usize,
        tuple: &CriticalTuple<F::Fd>,
        window: &[Sample<F::Fd>],
        configs: &mut u64,
    ) -> Option<ProcessSet> {
        let mut quorum = ProcessSet::new();
        for (ones, schedule) in [(tuple.zero_tree, &tuple.s0), (tuple.one_tree, &tuple.s1)] {
            for prefix_len in 0..=schedule.len() {
                *configs += 1;
                match replay_and_extend(family, n, ones, &schedule[..prefix_len], window) {
                    Some(steppers) => quorum.extend(steppers.iter()),
                    None => return None,
                }
            }
        }
        Some(quorum)
    }

    /// Replay `prefix` from `I_ones`, then extend with `window` until a
    /// decision appears: the extension's step-takers, or `None`.
    fn replay_and_extend<F: QcFamily>(
        family: &F,
        n: usize,
        ones: usize,
        prefix: &[(ProcessId, F::Fd)],
        window: &[Sample<F::Fd>],
    ) -> Option<ProcessSet> {
        let procs: Vec<F::Binary> = (0..n).map(|_| family.binary()).collect();
        let mut runner = Runner::new(procs, initial_proposals(n, ones));
        for (q, fd) in prefix {
            runner.step(*q, fd.clone());
        }
        let decided = |r: &Runner<F::Binary>| {
            r.outputs()
                .iter()
                .any(|(_, o)| matches!(o, ConsensusOutput::Decided(_)))
        };
        if decided(&runner) {
            return Some(ProcessSet::new());
        }
        let mut steppers = ProcessSet::new();
        for s in window {
            runner.step(s.q, s.val.clone());
            steppers.insert(s.q);
            if decided(&runner) {
                return Some(steppers);
            }
        }
        None
    }

    /// `len` samples at times `from, from + 1, ...`, each taken by a
    /// process drawn from `rng` among those alive at that time.
    fn random_window<D: FdOracle>(
        fd: &mut D,
        pattern: &FailurePattern,
        rng: &mut SimRng,
        from: Time,
        len: u64,
    ) -> Vec<Sample<D::Value>> {
        (from..from + len)
            .map(|t| {
                let alive: Vec<ProcessId> = ProcessId::all(pattern.n())
                    .filter(|&p| !pattern.is_crashed(p, t))
                    .collect();
                let q = alive[rng.gen_range(alive.len() as u64) as usize];
                Sample {
                    q,
                    t,
                    val: fd.query(q, t),
                }
            })
            .collect()
    }

    /// How often each outcome of `sigma_quorum` came up.
    #[derive(Debug, Default)]
    struct Outcomes {
        tuples: usize,
        aborted: usize,
        decided: usize,
    }

    /// Compare `sigma_quorum` with the replay-every-prefix oracle for the
    /// critical tuple of a real forest over `history`, on every
    /// truncation of the `fresh` window up to a few samples past the
    /// shortest one on which the round completes (beyond it the oracle
    /// only repeats itself, at the cost of a full replay each).
    fn check_against_oracle<F: QcFamily>(
        family: &F,
        n: usize,
        history: &[Sample<F::Fd>],
        fresh: &[Sample<F::Fd>],
        seen: &mut Outcomes,
    ) {
        let runs = evaluate_forest(family, n, history);
        if !runs.iter().all(|r| r.decision.is_some()) {
            return;
        }
        let Some((zero_tree, one_tree)) = critical_pair(&runs) else {
            return;
        };
        let tuple = CriticalTuple {
            zero_tree,
            one_tree,
            s0: runs[zero_tree].schedule.clone(),
            s1: runs[one_tree].schedule.clone(),
        };
        seen.tuples += 1;
        let completes = |len: usize| {
            sigma_quorum(family, n, &tuple, &fresh[..len], &mut SigmaWork::default()).is_some()
        };
        let last = (0..=fresh.len())
            .find(|&len| completes(len))
            .map_or(fresh.len(), |len| fresh.len().min(len + 4));
        for len in 0..=last {
            let window = &fresh[..len];
            let mut work = SigmaWork::default();
            let mut configs = 0;
            let got = sigma_quorum(family, n, &tuple, window, &mut work);
            let want = replay_every_prefix(family, n, &tuple, window, &mut configs);
            assert_eq!(got, want, "window of {len} fresh samples");
            assert_eq!(work.configs, configs, "window of {len} fresh samples");
            match got {
                None => seen.aborted += 1,
                Some(_) => {
                    seen.decided += 1;
                    // Each schedule is advanced to its end, and every
                    // configuration but the decided full prefixes takes
                    // at least one extension step.
                    let advances = (tuple.s0.len() + tuple.s1.len()) as u64;
                    assert_eq!(configs, advances + 2);
                    assert!(work.steps >= advances + configs - 2);
                }
            }
        }
    }

    /// A QC algorithm whose only decider is the last process, on its
    /// first step, deciding its own proposal: the step that ends every
    /// extension is that process's first.
    #[derive(Clone, Debug)]
    struct LastDecides<V>(std::marker::PhantomData<V>);

    impl<V: Clone + Debug> Protocol for LastDecides<V> {
        type Msg = ();
        type Output = ConsensusOutput<QcDecision<V>>;
        type Inv = V;
        type Fd = ();

        fn on_invoke(&mut self, ctx: &mut Ctx<Self>, v: V) {
            if ctx.me().index() == ctx.n() - 1 {
                ctx.output(ConsensusOutput::Decided(QcDecision::Value(v)));
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {}
    }

    #[derive(Clone, Debug)]
    struct LastDecidesFamily;

    impl QcFamily for LastDecidesFamily {
        type Fd = ();
        type Binary = LastDecides<u8>;
        type Multi = LastDecides<ExtractProposal<()>>;

        fn binary(&self) -> Self::Binary {
            LastDecides(std::marker::PhantomData)
        }

        fn multi(&self) -> Self::Multi {
            LastDecides(std::marker::PhantomData)
        }
    }

    #[test]
    fn sigma_quorum_keeps_the_step_taker_that_decides_last() {
        let (n, family) = (3, LastDecidesFamily);
        let samples = |qs: &[usize]| -> Vec<Sample<()>> {
            (0..)
                .zip(qs)
                .map(|(t, &q)| Sample {
                    q: ProcessId(q),
                    t,
                    val: (),
                })
                .collect()
        };
        // Every tree decides at p2's first step; only tree 3 has p2
        // propose 1, so trees 2 and 3 are the critical pair.
        let runs = evaluate_forest(&family, n, &samples(&[0, 1, 2]));
        assert_eq!(critical_pair(&runs), Some((2, 3)));
        let tuple = CriticalTuple {
            zero_tree: 2,
            one_tree: 3,
            s0: runs[2].schedule.clone(),
            s1: runs[3].schedule.clone(),
        };
        // Each of the six undecided prefixes decides on the fresh
        // window's fourth sample, p2's only one.
        let fresh = samples(&[0, 1, 0, 2, 1]);
        let mut work = SigmaWork::default();
        let mut configs = 0;
        let quorum = sigma_quorum(&family, n, &tuple, &fresh, &mut work);
        assert_eq!(quorum, Some(ProcessSet::full(n)));
        assert_eq!(
            quorum,
            replay_every_prefix(&family, n, &tuple, &fresh, &mut configs)
        );
        assert_eq!(
            work,
            SigmaWork {
                configs: 8,
                steps: 6 + 6 * 4
            }
        );
        assert_eq!(configs, 8);
        // One sample short of p2's, the first configuration ends the
        // round before any other is extended.
        let mut work = SigmaWork::default();
        assert_eq!(
            sigma_quorum(&family, n, &tuple, &fresh[..3], &mut work),
            None
        );
        assert_eq!(
            work,
            SigmaWork {
                configs: 1,
                steps: 3
            }
        );
    }

    #[test]
    fn sigma_quorum_matches_replaying_every_prefix() {
        let n = 3;
        let (mut psi_seen, mut pair_seen) = (Outcomes::default(), Outcomes::default());
        for seed in 0..12 {
            let pattern = if seed % 3 == 2 {
                FailurePattern::failure_free(n).with_crash(ProcessId(seed as usize % n), 150)
            } else {
                FailurePattern::failure_free(n)
            };
            let mut rng = SimRng::new(seed);
            let mut psi = PsiOracle::new(&pattern, PsiMode::OmegaSigma, 60, 20, seed);
            let history = random_window(&mut psi, &pattern, &mut rng, 0, 400);
            let fresh = random_window(&mut psi, &pattern, &mut rng, 400, 96);
            check_against_oracle(&PsiQcFamily, n, &history, &fresh, &mut psi_seen);

            let mut pair = PairOracle::new(
                OmegaOracle::new(&pattern, 60, seed),
                SigmaOracle::new(&pattern, 60, seed),
            );
            let history = random_window(&mut pair, &pattern, &mut rng, 0, 400);
            let fresh = random_window(&mut pair, &pattern, &mut rng, 400, 96);
            check_against_oracle(&OmegaSigmaQcFamily, n, &history, &fresh, &mut pair_seen);
        }
        for (family, seen) in [("psi", &psi_seen), ("omega-sigma", &pair_seen)] {
            assert!(
                seen.tuples >= 8,
                "{family}: too few critical tuples: {seen:?}"
            );
            assert!(seen.aborted > 0, "{family}: no round aborted: {seen:?}");
            assert!(seen.decided >= seen.tuples, "{family}: {seen:?}");
        }
    }
}
