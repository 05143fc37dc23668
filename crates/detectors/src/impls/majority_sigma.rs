//! Σ ex nihilo under a correct majority — the join-quorum protocol
//! sketched in the paper's introduction.
//!
//! > "Each process periodically sends 'join-quorum' messages, and takes as
//! > its present quorum any majority of processes that respond to that
//! > message."
//!
//! Any two majorities intersect, so the intersection property holds
//! unconditionally; completeness holds because crashed processes
//! eventually stop responding, so sufficiently late quorums contain only
//! correct processes — *provided a majority is correct*, otherwise the
//! protocol blocks (which is exactly the paper's point: with ⌈n/2⌉ or more
//! faults you genuinely need Σ from outside).

use wfd_sim::{Ctx, Permutation, ProcessId, ProcessSet, Protocol, Symmetry};

fn permute_set(set: &ProcessSet, perm: &Permutation) -> ProcessSet {
    let mut out = ProcessSet::new();
    for p in set.iter() {
        out.insert(perm.apply(p));
    }
    out
}

/// Messages of the join-quorum protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SigmaMsg {
    /// "join-quorum" probe for round `k`.
    Join(u64),
    /// Acknowledgement of the round-`k` probe.
    Ack(u64),
}

/// One process of the join-quorum Σ implementation.
///
/// Outputs a [`ProcessSet`] (the new quorum) every time a round completes;
/// feed the run's outputs through
/// [`history_from_outputs`](crate::history::history_from_outputs) and
/// [`check_sigma`](crate::check::check_sigma) to validate.
#[derive(Clone, Debug)]
pub struct MajoritySigma {
    round: u64,
    acks: ProcessSet,
    round_complete: bool,
    /// Current quorum (initially Π, which intersects everything).
    quorum: ProcessSet,
    /// Own steps since the current round completed; the next round is
    /// launched `probe_interval` steps later. A round that cannot complete
    /// (majority dead) never spawns a successor: the protocol *blocks*,
    /// it never lies.
    ticks_since_complete: u64,
    probe_interval: u64,
}

impl MajoritySigma {
    /// Create a process that launches the next join-quorum round
    /// `probe_interval` own steps after the previous round completed.
    ///
    /// # Panics
    ///
    /// Panics if `probe_interval` is zero.
    pub fn new(n: usize, probe_interval: u64) -> Self {
        assert!(probe_interval > 0, "probe_interval must be positive");
        MajoritySigma {
            round: 0,
            acks: ProcessSet::new(),
            round_complete: false,
            quorum: ProcessSet::full(n),
            ticks_since_complete: 0,
            probe_interval,
        }
    }

    /// The quorum this process currently trusts.
    pub fn quorum(&self) -> &ProcessSet {
        &self.quorum
    }

    fn majority(n: usize) -> usize {
        n / 2 + 1
    }
}

impl Protocol for MajoritySigma {
    type Msg = SigmaMsg;
    type Output = ProcessSet;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        self.round = 1;
        ctx.broadcast(SigmaMsg::Join(self.round));
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        if self.round_complete {
            self.ticks_since_complete += 1;
            if self.ticks_since_complete >= self.probe_interval {
                self.ticks_since_complete = 0;
                self.round_complete = false;
                self.round += 1;
                self.acks = ProcessSet::new();
                ctx.broadcast(SigmaMsg::Join(self.round));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: SigmaMsg) {
        match msg {
            SigmaMsg::Join(k) => ctx.send(from, SigmaMsg::Ack(k)),
            SigmaMsg::Ack(k) => {
                if k == self.round && !self.round_complete {
                    self.acks.insert(from);
                    if self.acks.len() >= Self::majority(ctx.n()) {
                        // First majority for this round: adopt it and stop
                        // counting, so stragglers (possibly from processes
                        // that crashed meanwhile) cannot dirty the quorum.
                        self.round_complete = true;
                        self.quorum = self.acks;
                        ctx.output(self.quorum);
                    }
                }
            }
        }
    }

    // Fully id-agnostic: probes are broadcast, acks go to the sender, and
    // quorum formation only counts acks — ids enter state and outputs
    // solely as [`ProcessSet`] members, rewritten below.
    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }

    fn permute(&mut self, perm: &Permutation) {
        self.acks = permute_set(&self.acks, perm);
        self.quorum = permute_set(&self.quorum, perm);
    }

    fn permute_output(out: &mut ProcessSet, perm: &Permutation) {
        *out = permute_set(out, perm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_sigma;
    use crate::history::history_from_outputs;
    use wfd_sim::{Adversarial, FailurePattern, NoDetector, ProcessId, RandomFair, Sim, SimConfig};

    fn run_sigma(
        n: usize,
        pattern: FailurePattern,
        seed: u64,
        horizon: u64,
    ) -> crate::History<ProcessSet> {
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            (0..n).map(|_| MajoritySigma::new(n, 2)).collect(),
            pattern,
            NoDetector,
            RandomFair::new(seed),
        );
        sim.run();
        history_from_outputs(sim.trace(), |q: &ProcessSet| Some(*q))
    }

    #[test]
    fn conforms_to_sigma_with_correct_majority() {
        let n = 5;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(1), 200), (ProcessId(4), 500)]);
        for seed in 0..5 {
            let h = run_sigma(n, pattern.clone(), seed, 8_000);
            assert!(h.len() > 10, "protocol should emit quorums (seed {seed})");
            check_sigma(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn conforms_even_under_adversarial_schedule() {
        let n = 5;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(0), 100)]);
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(10_000),
            (0..n).map(|_| MajoritySigma::new(n, 2)).collect(),
            pattern.clone(),
            NoDetector,
            Adversarial::new(3),
        );
        sim.run();
        let h = history_from_outputs(sim.trace(), |q: &ProcessSet| Some(*q));
        assert!(h.len() > 5);
        check_sigma(&h, &pattern).expect("adversarial schedule still conforms");
    }

    #[test]
    fn blocks_when_majority_crashes() {
        // 3 of 5 crash early: no later round can complete, so quorum
        // outputs dry up — the protocol *blocks* rather than lies.
        let n = 5;
        let pattern = FailurePattern::with_crashes(
            n,
            &[(ProcessId(0), 50), (ProcessId(1), 50), (ProcessId(2), 50)],
        );
        let h = run_sigma(n, pattern, 1, 8_000);
        let late_outputs = h.since(1_000).count();
        assert_eq!(
            late_outputs, 0,
            "with a crashed majority no join-quorum round can complete"
        );
    }

    #[test]
    #[should_panic(expected = "probe_interval")]
    fn zero_probe_interval_rejected() {
        let _ = MajoritySigma::new(3, 0);
    }

    #[test]
    fn initial_quorum_is_full_system() {
        let p = MajoritySigma::new(4, 3);
        assert_eq!(p.quorum(), &ProcessSet::full(4));
    }
}
