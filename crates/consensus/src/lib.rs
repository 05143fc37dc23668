//! # wfd-consensus — consensus and the (Ω, Σ) result (paper §4)
//!
//! Corollary 4 of the paper: **for all environments, (Ω, Σ) is the weakest
//! failure detector to solve consensus.** This crate provides:
//!
//! * [`spec`] — the consensus problem (Termination, Uniform Agreement,
//!   Validity) and a trace checker for it.
//! * [`omega_sigma`] — a quorum-based consensus algorithm using exactly
//!   (Ω, Σ): Ω elects the proposer, Σ supplies the intersecting quorums
//!   that replace Paxos majorities. Live in *every* environment.
//! * [`register_omega`] — the paper's own construction route: the
//!   round-based shared-memory algorithm of Lo–Hadzilacos using Ω and
//!   atomic registers, with the registers provided by the Σ-based ABD of
//!   `wfd-registers` (Corollary 2 made executable).
//! * [`chandra_toueg`] — the classical ◇S + majority rotating-coordinator
//!   algorithm, the baseline that the generalisation is measured against
//!   (experiment E9: it loses exactly when `f ≥ ⌈n/2⌉`).
//! * [`smr_register`] — the state-machine step of Corollary 3: registers
//!   replicated over consensus instances, composing with Figure 1 into
//!   the executable necessity chain *consensus → registers → Σ*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chandra_toueg;
pub mod omega_sigma;
pub mod register_omega;
pub mod smr_register;
pub mod spec;

pub use omega_sigma::OmegaSigmaConsensus;
pub use spec::{check_consensus, ConsensusOutput, ConsensusStats, ConsensusViolation};
