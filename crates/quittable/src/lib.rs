//! # wfd-quittable — quittable consensus and the Ψ result (paper §§5–6)
//!
//! Quittable consensus (QC) — introduced by this paper — is consensus
//! weakened so that, *if a failure has occurred*, processes may instead
//! agree on the special value `Q` ("quit") and resort to a default action.
//! Corollary 7: **for all environments, Ψ is the weakest failure detector
//! to solve QC.**
//!
//! * [`spec`] — the QC problem (Termination, Uniform Agreement, and the
//!   two-part Validity where `Q` is allowed only after a real failure)
//!   and its trace checker.
//! * [`psi_qc`] — **Figure 2**: the algorithm solving QC with Ψ. Wait out
//!   the ⊥ phase; if Ψ turns into FS, return `Q`; if it turns into
//!   (Ω, Σ), run the consensus algorithm of `wfd-consensus` on it.
//! * [`multivalued`] — footnote 6: any binary QC algorithm made
//!   multivalued (Mostéfaoui–Raynal–Tronel). Over [`ConsensusAsQc`],
//!   which never quits, it is the binary-to-multivalued consensus
//!   transformation.
//!
//! The necessity half (Figure 3, extracting Ψ from any QC algorithm)
//! lives in `wfd-extraction`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod from_consensus;
pub mod multivalued;
pub mod psi_qc;
pub mod spec;

pub use from_consensus::ConsensusAsQc;
pub use multivalued::MultivaluedQc;
pub use psi_qc::PsiQc;
pub use spec::{check_qc, QcDecision, QcStats, QcViolation};
