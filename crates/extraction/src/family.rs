//! Abstraction over "a QC algorithm `A` using detector `D`" — the objects
//! Figure 3 quantifies over.
//!
//! The transformation needs the *same* algorithm in two value domains:
//! binary (for the `n+1` simulated trees, whose initial configurations
//! propose 0/1) and multivalued over the critical tuples (for the real
//! execution of lines 11/14; footnote 6 of the paper invokes the
//! binary→multivalued transformation to justify this). A [`QcFamily`]
//! packages both instantiations plus the detector value type they share.

use crate::psi::ExtractProposal;
use std::fmt::Debug;
use wfd_consensus::ConsensusOutput;
use wfd_detectors::PsiValue;
use wfd_quittable::{ConsensusAsQc, PsiQc, QcDecision};
use wfd_sim::{ProcessId, ProcessSet, Protocol};

/// A family of instantiations of one QC algorithm over one detector.
pub trait QcFamily {
    /// The detector value type `A` queries (the range of `D`).
    type Fd: Clone + Debug + PartialEq;
    /// `A` instantiated for binary proposals (the simulated trees).
    /// `Clone` because the Σ rounds of lines 24–32 fork one simulated
    /// configuration per schedule prefix (see [`crate::runner`]).
    type Binary: Protocol<Inv = u8, Output = ConsensusOutput<QcDecision<u8>>, Fd = Self::Fd> + Clone;
    /// `A` instantiated for critical-tuple proposals (the real execution).
    type Multi: Protocol<
        Inv = ExtractProposal<Self::Fd>,
        Output = ConsensusOutput<QcDecision<ExtractProposal<Self::Fd>>>,
        Fd = Self::Fd,
    >;

    /// A fresh binary instance (one simulated process).
    fn binary(&self) -> Self::Binary;

    /// A fresh multivalued instance (the hosted real execution).
    fn multi(&self) -> Self::Multi;
}

/// The in-repo instantiation: `A` = the Figure 2 algorithm
/// ([`PsiQc`]), `D` = Ψ. Any other QC algorithm/detector pair can be
/// plugged into the extraction by implementing [`QcFamily`] for it.
#[derive(Clone, Copy, Debug, Default)]
pub struct PsiQcFamily;

impl QcFamily for PsiQcFamily {
    type Fd = PsiValue;
    type Binary = PsiQc<u8>;
    type Multi = PsiQc<ExtractProposal<PsiValue>>;

    fn binary(&self) -> Self::Binary {
        PsiQc::new()
    }

    fn multi(&self) -> Self::Multi {
        PsiQc::new()
    }
}

/// A second instantiation: `A` = consensus-that-never-quits
/// ([`ConsensusAsQc`]), `D` = (Ω, Σ). Exercises the extraction with an
/// algorithm that is structurally unlike Figure 2 — its simulated runs
/// can never decide `Q`, so the extraction must always take the (Ω, Σ)
/// branch.
#[derive(Clone, Copy, Debug, Default)]
pub struct OmegaSigmaQcFamily;

impl QcFamily for OmegaSigmaQcFamily {
    type Fd = (ProcessId, ProcessSet);
    type Binary = ConsensusAsQc<u8>;
    type Multi = ConsensusAsQc<ExtractProposal<(ProcessId, ProcessSet)>>;

    fn binary(&self) -> Self::Binary {
        ConsensusAsQc::new()
    }

    fn multi(&self) -> Self::Multi {
        ConsensusAsQc::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_builds_fresh_instances() {
        let fam = PsiQcFamily;
        let b = fam.binary();
        assert_eq!(b.decision(), None);
        let m = fam.multi();
        assert_eq!(m.decision(), None);
    }

    #[test]
    fn omega_sigma_family_builds_fresh_instances() {
        let fam = OmegaSigmaQcFamily;
        let b = fam.binary();
        assert_eq!(b.decision(), None);
        let m = fam.multi();
        assert_eq!(m.decision(), None);
    }
}
