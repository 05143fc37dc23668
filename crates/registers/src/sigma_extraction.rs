//! **Figure 1 of the paper**: extracting Σ from any failure detector `D`
//! and any register implementation `A`.
//!
//! The necessity half of Theorem 1. Given an algorithm `A` that implements
//! atomic registers using some detector `D`, every process runs:
//!
//! 1. `n` register instances `Reg_1 … Reg_n` built from `A` (+`D`), where
//!    `Reg_i` is written only by `p_i` and read by everyone;
//! 2. a loop in which `p_i` **writes** its accumulated set of participant
//!    sets `E_i` into `Reg_i` (recording the participants `P_i(k)` of the
//!    write), then **reads** every `Reg_j`, and for every participant set
//!    `X` it finds there **probes** all members of `X` until one replies;
//! 3. `Σ-output_i := P_i(k−1) ∪ {one responsive member of every X}`.
//!
//! *Intersection* holds because `p_i` writes before reading everyone
//! (register atomicity forces two loop iterations at different processes
//! to see each other in at least one direction), and *completeness* holds
//! because eventually participant sets and probe responders contain only
//! correct processes.
//!
//! The implementation is generic over the register algorithm: any
//! [`Protocol`] speaking the [`AbdOp`]/[`AbdOutput`] operation interface
//! can be slotted in as `A` — [`crate::AbdRegister`] with either quorum
//! rule being the in-repo instantiations.

use crate::abd::{AbdOp, AbdOutput, AbdResp};
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Debug;
use wfd_sim::{Ctx, ProcessId, ProcessSet, Protocol};

/// What Figure 1 stores in its registers: the write counter `k` together
/// with the set `E_i` of participant sets of all previous writes.
pub type EValue = (u64, BTreeSet<ProcessSet>);

/// The initial value of every `Reg_i`: `k = 0`, `E = {Π}` (the paper
/// assumes `P_i(0) = Π`).
pub fn initial_e_value(n: usize) -> EValue {
    let mut e = BTreeSet::new();
    e.insert(ProcessSet::full(n));
    (0, e)
}

/// Bound on the register-algorithm interface Figure 1 needs: a protocol
/// whose invocations are register operations over [`EValue`] and whose
/// outputs are the corresponding completions.
pub trait RegisterAlgorithm: Protocol<Inv = AbdOp<EValue>, Output = AbdOutput<EValue>> {}

impl<T> RegisterAlgorithm for T where T: Protocol<Inv = AbdOp<EValue>, Output = AbdOutput<EValue>> {}

/// Messages of the transformation: wrapped register-instance traffic plus
/// the probe/ack pairs of Figure 1's lines 14–18.
#[derive(Clone, Debug, PartialEq)]
pub enum ExtractionMsg<M> {
    /// Traffic of register instance `instance` (the instance index is the
    /// id of its writer).
    Reg {
        /// Which `Reg_j` this belongs to.
        instance: usize,
        /// The inner algorithm's message.
        inner: M,
    },
    /// Figure 1 line 14: `send(k, ?)`.
    Probe {
        /// Nonce matching the ack to the outstanding wait.
        nonce: u64,
    },
    /// Figure 1 line 18: `send(l, ok)`.
    ProbeAck {
        /// Echoed nonce.
        nonce: u64,
    },
}

#[derive(Clone, Debug)]
enum Stage {
    /// Waiting for the completion of `Reg_i.write(k, E_i)`.
    Writing,
    /// Waiting for the completion of `Reg_j.read()`.
    Reading {
        /// Register currently being read.
        j: usize,
    },
    /// Probing the participant sets collected from `Reg_j.read()`.
    Probing {
        /// Register whose sets are being probed.
        j: usize,
        /// The set currently awaiting one acknowledgement.
        current: ProcessSet,
        /// Sets still to probe from this register.
        remaining: VecDeque<ProcessSet>,
    },
}

/// One process of the Figure 1 transformation, generic over the hosted
/// register algorithm `A`.
///
/// Outputs a [`ProcessSet`] — the emulated Σ value — every time
/// `Σ-output_i` is updated. Validate a run with
/// [`check_sigma`](wfd_detectors::check::check_sigma) via
/// [`history_from_outputs`](wfd_detectors::history::history_from_outputs).
#[derive(Debug)]
pub struct SigmaExtraction<A: RegisterAlgorithm> {
    /// The `n` hosted register instances (this process's replica of each).
    regs: Vec<A>,
    stage: Stage,
    k: u64,
    e_sets: BTreeSet<ProcessSet>,
    /// `P_i(k−1)`: participants of the previous write.
    last_participants: ProcessSet,
    /// `F_i` being assembled this iteration.
    f: ProcessSet,
    probe_nonce: u64,
    /// Loop iterations completed (for harness introspection).
    iterations: u64,
}

impl<A: RegisterAlgorithm> SigmaExtraction<A> {
    /// Create the transformation process hosting the given `n` register
    /// instances (`regs[j]` is this process's replica of `Reg_j`).
    ///
    /// # Panics
    ///
    /// Panics if `regs.len() != n`.
    pub fn new(n: usize, regs: Vec<A>) -> Self {
        assert_eq!(regs.len(), n, "one register instance per process");
        SigmaExtraction {
            regs,
            stage: Stage::Writing,
            k: 0,
            e_sets: {
                let mut e = BTreeSet::new();
                e.insert(ProcessSet::full(n));
                e
            },
            last_participants: ProcessSet::full(n),
            f: ProcessSet::new(),
            probe_nonce: 0,
            iterations: 0,
        }
    }

    /// Completed loop iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Run `f` on hosted instance `idx` with a sub-context, forwarding its
    /// sends (wrapped) and handling its operation completions.
    fn with_instance(
        &mut self,
        ctx: &mut Ctx<Self>,
        idx: usize,
        f: impl FnOnce(&mut A, &mut Ctx<A>),
    ) {
        let fd = ctx.fd().clone();
        let wrap = |inner| ExtractionMsg::Reg {
            instance: idx,
            inner,
        };
        for out in ctx.host(fd, wrap, |ictx| f(&mut self.regs[idx], ictx)) {
            self.on_instance_output(ctx, idx, out);
        }
    }

    fn on_instance_output(&mut self, ctx: &mut Ctx<Self>, idx: usize, out: AbdOutput<EValue>) {
        let AbdOutput::Completed {
            resp, participants, ..
        } = out
        else {
            return; // `Invoked` echoes are uninteresting here
        };
        match (&self.stage, resp) {
            (Stage::Writing, AbdResp::WriteOk) if idx == ctx.me().index() => {
                // Lines 8–10: record P_i(k), fold it into E_i, seed F_i
                // with P_i(k−1).
                let p_k = participants;
                self.f = self.last_participants;
                self.last_participants = p_k;
                self.e_sets.insert(p_k);
                self.start_read(ctx, 0);
            }
            (Stage::Reading { j }, AbdResp::ReadOk((_, l_j))) if idx == *j => {
                let j = *j;
                let mut remaining: VecDeque<ProcessSet> = l_j.into_iter().collect();
                match remaining.pop_front() {
                    Some(first) => {
                        self.stage = Stage::Probing {
                            j,
                            current: first,
                            remaining,
                        };
                        self.send_probe(ctx, &first);
                    }
                    None => self.next_register(ctx, j),
                }
            }
            _ => {}
        }
    }

    fn send_probe(&mut self, ctx: &mut Ctx<Self>, set: &ProcessSet) {
        self.probe_nonce += 1;
        for q in set.iter() {
            ctx.send(
                q,
                ExtractionMsg::Probe {
                    nonce: self.probe_nonce,
                },
            );
        }
    }

    fn start_read(&mut self, ctx: &mut Ctx<Self>, j: usize) {
        self.stage = Stage::Reading { j };
        self.with_instance(ctx, j, |reg, ictx| reg.on_invoke(ictx, AbdOp::Read));
    }

    fn next_register(&mut self, ctx: &mut Ctx<Self>, j: usize) {
        if j + 1 < ctx.n() {
            self.start_read(ctx, j + 1);
        } else {
            // Line 17: Σ-output_i := F_i; then start the next iteration.
            self.iterations += 1;
            ctx.output(self.f);
            self.start_write(ctx);
        }
    }

    fn start_write(&mut self, ctx: &mut Ctx<Self>) {
        self.k += 1;
        self.stage = Stage::Writing;
        let value = (self.k, self.e_sets.clone());
        let me = ctx.me().index();
        self.with_instance(ctx, me, |reg, ictx| {
            reg.on_invoke(ictx, AbdOp::Write(value))
        });
    }
}

impl<A: RegisterAlgorithm> Protocol for SigmaExtraction<A> {
    type Msg = ExtractionMsg<A::Msg>;
    type Output = ProcessSet;
    type Inv = ();
    type Fd = A::Fd;

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        // Σ-output_i is initially Π (line 5).
        ctx.output(ProcessSet::full(ctx.n()));
        self.start_write(ctx);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        // Give every hosted instance a chance to re-check quorum progress
        // under the current detector value.
        for idx in 0..self.regs.len() {
            self.with_instance(ctx, idx, |reg, ictx| reg.on_tick(ictx));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: Self::Msg) {
        match msg {
            ExtractionMsg::Reg { instance, inner } => {
                self.with_instance(ctx, instance, |reg, ictx| reg.on_message(ictx, from, inner));
            }
            ExtractionMsg::Probe { nonce } => {
                // Task 2 (line 18): always answer probes.
                ctx.send(from, ExtractionMsg::ProbeAck { nonce });
            }
            ExtractionMsg::ProbeAck { nonce } => {
                if nonce != self.probe_nonce {
                    return; // stale ack for an earlier probe
                }
                if let Stage::Probing {
                    j,
                    current,
                    remaining,
                } = &mut self.stage
                {
                    if !current.contains(from) {
                        return;
                    }
                    // Line 16: F_i := F_i ∪ {p_t}.
                    self.f.insert(from);
                    let j = *j;
                    match remaining.pop_front() {
                        Some(next) => {
                            if let Stage::Probing { current, .. } = &mut self.stage {
                                *current = next;
                            }
                            self.send_probe(ctx, &next);
                        }
                        None => self.next_register(ctx, j),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abd::{AbdRegister, QuorumRule};
    use wfd_detectors::check::check_sigma;
    use wfd_detectors::history::history_from_outputs;
    use wfd_detectors::oracles::SigmaOracle;
    use wfd_sim::{Adversarial, FailurePattern, RandomFair, Scheduler, Sim, SimConfig};

    type Host = SigmaExtraction<AbdRegister<EValue>>;

    fn make_processes(n: usize) -> Vec<Host> {
        (0..n)
            .map(|_| {
                SigmaExtraction::new(
                    n,
                    (0..n)
                        .map(|_| AbdRegister::new(QuorumRule::Detector, initial_e_value(n)))
                        .collect(),
                )
            })
            .collect()
    }

    fn run_extraction<S: Scheduler>(
        n: usize,
        pattern: &FailurePattern,
        sigma_seed: u64,
        sched: S,
        horizon: u64,
    ) -> (wfd_detectors::History<ProcessSet>, Vec<u64>) {
        let sigma = SigmaOracle::new(pattern, 150, sigma_seed).with_jitter(100);
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(horizon),
            make_processes(n),
            pattern.clone(),
            sigma,
            sched,
        );
        sim.run();
        let h = history_from_outputs(sim.trace(), |q: &ProcessSet| Some(*q));
        let iters = sim.processes().iter().map(|p| p.iterations()).collect();
        (h, iters)
    }

    #[test]
    fn extracted_sigma_conforms_failure_free() {
        let n = 3;
        let pattern = FailurePattern::failure_free(n);
        for seed in 0..3 {
            let (h, iters) = run_extraction(n, &pattern, seed, RandomFair::new(seed), 30_000);
            assert!(
                iters.iter().all(|&k| k >= 2),
                "seed {seed}: every process should complete loop iterations, got {iters:?}"
            );
            check_sigma(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn extracted_sigma_conforms_with_crashes() {
        let n = 3;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(2), 800)]);
        for seed in 0..3 {
            let (h, iters) = run_extraction(n, &pattern, seed, RandomFair::new(seed), 40_000);
            check_sigma(&h, &pattern).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert!(
                iters[0] >= 2 && iters[1] >= 2,
                "correct processes keep looping"
            );
        }
    }

    #[test]
    fn extracted_sigma_conforms_with_majority_crashed() {
        // The defining power of the theorem: D (here a Σ oracle) lets A
        // implement registers even with a crashed majority, and the
        // transformation still extracts a correct Σ.
        let n = 5;
        let pattern = FailurePattern::with_crashes(
            n,
            &[
                (ProcessId(0), 500),
                (ProcessId(2), 900),
                (ProcessId(4), 1_300),
            ],
        );
        let (h, _) = run_extraction(n, &pattern, 4, RandomFair::new(11), 60_000);
        check_sigma(&h, &pattern).unwrap_or_else(|v| panic!("{v}"));
        // Late outputs must have shed the crashed processes.
        let last = h.last_of(ProcessId(1)).expect("p1 keeps emitting").1;
        assert!(
            last.is_subset(&pattern.correct()),
            "final Σ-output {last} should contain only correct processes"
        );
    }

    #[test]
    fn extracted_sigma_conforms_under_adversarial_schedule() {
        let n = 3;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(1), 600)]);
        let (h, _) = run_extraction(n, &pattern, 9, Adversarial::new(2), 60_000);
        check_sigma(&h, &pattern).unwrap_or_else(|v| panic!("{v}"));
    }

    #[test]
    fn extraction_works_over_majority_abd_with_trivial_detector() {
        // The theorem quantifies over ANY (A, D) implementing registers.
        // Here A = majority-rule ABD and D is trivial (constant ∅) — a
        // valid register implementation in majority-correct environments,
        // and the extraction must still emit a conforming Σ there.
        use wfd_sim::ConstDetector;
        let n = 3;
        let pattern = FailurePattern::with_crashes(n, &[(ProcessId(2), 700)]);
        let processes: Vec<SigmaExtraction<AbdRegister<EValue>>> = (0..n)
            .map(|_| {
                SigmaExtraction::new(
                    n,
                    (0..n)
                        .map(|_| AbdRegister::new(QuorumRule::Majority, initial_e_value(n)))
                        .collect(),
                )
            })
            .collect();
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(40_000),
            processes,
            pattern.clone(),
            ConstDetector::new(wfd_sim::ProcessSet::new()),
            RandomFair::new(5),
        );
        sim.run();
        let h = history_from_outputs(sim.trace(), |q: &ProcessSet| Some(*q));
        assert!(h.len() > 5, "extraction should keep emitting quorums");
        check_sigma(&h, &pattern).unwrap_or_else(|v| panic!("{v}"));
    }

    #[test]
    fn initial_e_value_is_k0_full_set() {
        let (k, e) = initial_e_value(4);
        assert_eq!(k, 0);
        assert_eq!(e.len(), 1);
        assert!(e.contains(&ProcessSet::full(4)));
    }

    #[test]
    #[should_panic(expected = "one register instance per process")]
    fn wrong_instance_count_is_rejected() {
        let _ = SigmaExtraction::<AbdRegister<EValue>>::new(
            3,
            vec![AbdRegister::new(QuorumRule::Detector, initial_e_value(3))],
        );
    }
}
