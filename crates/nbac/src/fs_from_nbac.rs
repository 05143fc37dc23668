//! Implementing FS from any NBAC solution — the other half of
//! Theorem 8(b) (*"It is known that NBAC can be used to implement FS in
//! any environment [5, 11]"*).
//!
//! Every process runs NBAC instances forever, voting `Yes` in each. With
//! unanimous `Yes` votes, an `Abort` can only be caused by a failure, so:
//! the FS output starts `green` and flips permanently to `red` the first
//! time an instance aborts. Completeness holds because once a process
//! crashes, it stops voting, so every subsequent instance must abort.

use crate::spec::{Decision, NbacOutput, Vote};
use crate::to_qc::NbacAlgorithm;
use std::collections::BTreeMap;
use std::fmt;
use wfd_detectors::Signal;
use wfd_sim::{Ctx, ProcessId, Protocol};

/// Messages: NBAC-instance traffic tagged with the instance number.
#[derive(Clone, Debug, PartialEq)]
pub struct TaggedMsg<M> {
    /// Instance number.
    pub k: u64,
    /// The inner NBAC message.
    pub inner: M,
}

/// One process of the FS-from-NBAC construction. Outputs [`Signal`]
/// values (validate with [`check_fs`](wfd_detectors::check::check_fs)).
pub struct FsFromNbac<N: NbacAlgorithm> {
    make: Box<dyn FnMut() -> N + Send>,
    instances: BTreeMap<u64, N>,
    /// The instance this process is currently voting in.
    current: u64,
    red: bool,
    started: bool,
    steps_since_output: u64,
}

impl<N: NbacAlgorithm> fmt::Debug for FsFromNbac<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FsFromNbac")
            .field("current", &self.current)
            .field("red", &self.red)
            .finish_non_exhaustive()
    }
}

impl<N: NbacAlgorithm> FsFromNbac<N> {
    /// Create a process; `make` builds a fresh NBAC instance per round.
    pub fn new(make: impl FnMut() -> N + Send + 'static) -> Self {
        FsFromNbac {
            make: Box::new(make),
            instances: BTreeMap::new(),
            current: 0,
            red: false,
            started: false,
            steps_since_output: 0,
        }
    }

    /// Whether this process has turned red.
    pub fn is_red(&self) -> bool {
        self.red
    }

    /// The NBAC instance this process is currently voting in.
    pub fn current_instance(&self) -> u64 {
        self.current
    }

    fn with_instance(&mut self, ctx: &mut Ctx<Self>, k: u64, f: impl FnOnce(&mut N, &mut Ctx<N>)) {
        let fd = ctx.fd().clone();
        let make = &mut self.make;
        let inst = self.instances.entry(k).or_insert_with(&mut *make);
        let wrap = |inner| TaggedMsg { k, inner };
        for out in ctx.host(fd, wrap, |ictx| f(inst, ictx)) {
            if let NbacOutput::Decided(d) = out {
                self.on_instance_decision(ctx, k, d);
            }
        }
    }

    fn on_instance_decision(&mut self, ctx: &mut Ctx<Self>, k: u64, d: Decision) {
        if self.red || k != self.current {
            return;
        }
        match d {
            Decision::Abort => {
                // Unanimous-Yes NBAC aborted: a failure must have occurred.
                self.red = true;
                ctx.output(Signal::Red);
            }
            Decision::Commit => {
                self.current = k + 1;
                self.start_current(ctx);
            }
        }
    }

    fn start_current(&mut self, ctx: &mut Ctx<Self>) {
        let k = self.current;
        self.with_instance(ctx, k, |nbac, ictx| nbac.on_invoke(ictx, Vote::Yes));
    }
}

impl<N: NbacAlgorithm> Protocol for FsFromNbac<N> {
    type Msg = TaggedMsg<N::Msg>;
    type Output = Signal;
    type Inv = ();
    type Fd = N::Fd;

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        self.started = true;
        ctx.output(Signal::Green);
        self.start_current(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        if !self.started {
            return;
        }
        if !self.red {
            let k = self.current;
            self.with_instance(ctx, k, |nbac, ictx| nbac.on_tick(ictx));
        }
        // Dense sampling for the checker.
        self.steps_since_output += 1;
        if self.steps_since_output >= 4 {
            self.steps_since_output = 0;
            ctx.output(if self.red { Signal::Red } else { Signal::Green });
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: Self::Msg) {
        let TaggedMsg { k, inner } = msg;
        if self.red {
            return;
        }
        self.with_instance(ctx, k, |nbac, ictx| nbac.on_message(ictx, from, inner));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_qc::NbacFromQc;
    use wfd_detectors::check::check_fs;
    use wfd_detectors::history::history_from_outputs;
    use wfd_detectors::oracles::{FsOracle, PairOracle, PsiMode, PsiOracle};
    use wfd_quittable::PsiQc;
    use wfd_sim::{FailurePattern, RandomFair, Sim, SimConfig};

    type Nbac = NbacFromQc<PsiQc<u8>>;
    type Host = FsFromNbac<Nbac>;

    fn run_fs(
        pattern: &FailurePattern,
        psi_mode: PsiMode,
        seed: u64,
        horizon: u64,
    ) -> wfd_detectors::History<Signal> {
        let n = pattern.n();
        // NOTE: the inner detector here is (FS, Ψ) because our in-repo
        // NBAC is Figure 4 over Ψ-QC. The construction itself works with
        // any NBAC solution whatsoever.
        let fd = PairOracle::new(
            FsOracle::new(pattern, 30, seed),
            PsiOracle::new(pattern, psi_mode, 50, 30, seed),
        );
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n)
                .map(|_| Host::new(move || NbacFromQc::new(n, PsiQc::new())))
                .collect(),
            pattern.clone(),
            fd,
            RandomFair::new(seed),
        );
        sim.run();
        history_from_outputs(sim.trace(), |s: &Signal| Some(*s))
    }

    #[test]
    fn failure_free_stays_green_forever() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        for seed in 0..3 {
            let h = run_fs(&pattern, PsiMode::OmegaSigma, seed, 60_000);
            let stats = check_fs(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert_eq!(stats.first_red, None, "seed {seed}");
            // And instances keep committing: green outputs keep coming.
            assert!(h.len() > 20, "seed {seed}: expected a dense green history");
        }
    }

    #[test]
    fn crash_turns_everyone_red() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n).with_crash(ProcessId(1), 400);
        for seed in 0..3 {
            let h = run_fs(&pattern, PsiMode::OmegaSigma, seed, 80_000);
            let stats = check_fs(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert!(
                stats.first_red.is_some(),
                "seed {seed}: a crash must eventually turn FS red"
            );
            assert!(
                stats.first_red.unwrap() >= 400,
                "seed {seed}: red is truthful"
            );
        }
    }

    #[test]
    fn accessors() {
        let h: Host = FsFromNbac::new(|| NbacFromQc::new(2, PsiQc::new()));
        assert!(!h.is_red());
        assert_eq!(h.current_instance(), 0);
    }
}
