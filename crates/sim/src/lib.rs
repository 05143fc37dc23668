//! # wfd-sim — the asynchronous message-passing model, executable
//!
//! This crate implements the system model of Chandra–Toueg style
//! failure-detector papers, and in particular the model section of
//! Delporte-Gallet et al., *"The Weakest Failure Detectors to Solve Certain
//! Fundamental Problems in Distributed Computing"* (PODC 2004):
//!
//! * a set `Π` of `n` processes that fail only by crashing
//!   ([`ProcessId`], [`FailurePattern`]),
//! * reliable links with finite but unbounded delay (the message buffer in
//!   [`Sim`], bounded per-run by a fairness parameter so that runs are fair),
//! * a discrete global clock ([`Time`]) that is *not* accessible to
//!   processes,
//! * atomic steps `⟨p, m, d⟩` in which a process receives one message (or
//!   the empty message λ), queries its failure detector module, sends
//!   messages and changes state ([`Protocol`], [`Ctx`]),
//! * failure detectors as per-process, per-time oracles ([`FdOracle`]),
//! * environments as sets of admissible failure patterns ([`Environment`]).
//!
//! The simulator is fully deterministic given a protocol, a failure
//! pattern, a detector oracle, a scheduler and a seed, which is what makes
//! the paper's *"for all runs"* claims checkable by sweeping seeds and
//! patterns.
//!
//! ## Quickstart
//!
//! ```
//! use wfd_sim::{Protocol, Ctx, ProcessId, Sim, SimConfig, FailurePattern,
//!               NoDetector, RoundRobin};
//!
//! /// Every process broadcasts "hello" once and outputs how many hellos it saw.
//! struct Hello { seen: usize }
//!
//! impl Protocol for Hello {
//!     type Msg = ();
//!     type Output = usize;
//!     type Inv = ();
//!     type Fd = ();
//!
//!     fn on_start(&mut self, ctx: &mut Ctx<Self>) {
//!         ctx.broadcast(());
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {
//!         self.seen += 1;
//!         ctx.output(self.seen);
//!     }
//! }
//!
//! let n = 3;
//! let mut sim = Sim::new(
//!     SimConfig::new(n),
//!     (0..n).map(|_| Hello { seen: 0 }).collect(),
//!     FailurePattern::failure_free(n),
//!     NoDetector,
//!     RoundRobin::new(),
//! );
//! let outcome = sim.run();
//! assert!(outcome.steps >= 3);
//! // Everyone eventually saw all three hellos.
//! assert!(sim.trace().outputs().filter(|(_, _, o)| **o == n).count() >= n);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagram;
mod engine;
pub mod env;
pub mod explore;
#[doc(hidden)]
pub mod explore_baseline;
mod failure;
mod fingerprint;
mod id;
pub mod json;
pub mod liveness;
pub mod machine;
pub mod obs;
mod oracle;
pub mod par;
mod protocol;
pub mod repro;
mod rng;
mod scheduler;
pub mod shrink;
mod trace;

pub use diagram::{Diagram, DiagramConfig, DiagramNode};
pub use engine::{RunOutcome, Sim, SimConfig, SimParts, StopReason};
pub use env::{EnvOverrides, MetricsMode};
pub use explore::{explore, ExploreConfig, ExploreDecision, ExploreReport, ExploreViolation};
pub use failure::{Environment, FailurePattern, PatternSampler};
pub use id::{ProcessId, ProcessSet, ProcessSetIter, Time, MAX_PROCESSES};
pub use liveness::{
    check_liveness, LassoWitness, LivenessConfig, LivenessReport, LivenessVerdict, Ltl,
};
pub use machine::{
    oracle_fn, FairMachine, LiveNode, Machine, ProtocolMachine, Replay, State, StepResult,
};
pub use obs::{CounterId, HistId, MetricsSnapshot, Obs, PhaseId, PhaseTimer};
pub use oracle::{ConstDetector, FdOracle, FnDetector, NoDetector};
pub use protocol::{Ctx, Permutation, PropView, Protocol, Symmetry, FULL_SYMMETRY_MAX_N};
#[allow(deprecated)]
pub use protocol::{Footprint, StepKind};
pub use repro::{OracleSpec, Repro, ReproDecisions, ReproInvocation, ReproSource, SchedulerSpec};
pub use rng::SimRng;
pub use scheduler::{
    Adversarial, Decision, RandomFair, RecordedSchedule, ReplaySchedule, RoundRobin, Scheduler,
};
pub use shrink::{shrink, ShrinkReport};
pub use trace::{Event, EventKind, Trace, TraceMode, TraceSummary};
