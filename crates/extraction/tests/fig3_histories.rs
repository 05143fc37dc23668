//! Golden Ψ histories of the benchmark's two Figure 3 runs.
//!
//! Both runs are the `paper_runs` workload's Figure 3 cases: n = 3,
//! failure free, detector stabilization at t = 100, horizon 40,000, eval
//! interval 48.
//!
//! * `fig3_consensus_to_omega_sigma`: `A` = consensus that never quits,
//!   `D` = (Ω, Σ) from `OmegaOracle`/`SigmaOracle`, seed 1.
//! * `fig3_qc_to_psi`: `A` = Figure 2's Ψ-QC, `D` = `PsiOracle` in
//!   consensus mode with jitter 20, seed 13.
//!
//! Each golden line holds the run's output count, every process's ⊥-exit
//! time and an FNV-1a-64 hash of the `"{t} {p:?} {o:?}"` line of every
//! output, so any change to what the extraction emits, or when, shows up
//! here. A change that only makes Figure 3 faster must leave the file
//! byte-identical.
//!
//! Regenerate with
//! `WFD_UPDATE_GOLDEN=1 cargo test --release -p wfd-extraction --test fig3_histories`
//! only for a deliberate change to what Figure 3 outputs.

use std::fmt::Debug;
use std::path::Path;
use wfd_detectors::check::{check_psi, PsiPhase};
use wfd_detectors::history::history_from_outputs;
use wfd_detectors::oracles::{OmegaOracle, PairOracle, PsiMode, PsiOracle, SigmaOracle};
use wfd_detectors::PsiValue;
use wfd_extraction::{OmegaSigmaQcFamily, PsiExtraction, PsiQcFamily, QcFamily};
use wfd_sim::{FailurePattern, FdOracle, RandomFair, Sim, SimConfig, Trace};

const N: usize = 3;
const STABILIZE: u64 = 100;
const HORIZON: u64 = 40_000;

/// FNV-1a, 64-bit.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run the Figure 3 transformation for `family` under `fd` and return its
/// golden line.
fn golden_line<F, D>(name: &str, family: F, fd: D, seed: u64) -> String
where
    F: QcFamily + Clone,
    D: FdOracle<Value = F::Fd>,
{
    let pattern = FailurePattern::failure_free(N);
    let mut sim = Sim::new(
        SimConfig::new(N).with_horizon(HORIZON),
        (0..N)
            .map(|_| PsiExtraction::new(family.clone()).with_eval_interval(48))
            .collect(),
        pattern.clone(),
        fd,
        RandomFair::new(seed),
    );
    sim.run();
    let trace = sim.trace();
    let stats = check_psi(
        &history_from_outputs(trace, |v: &PsiValue| Some(v.clone())),
        &pattern,
    )
    .unwrap_or_else(|v| panic!("{name}: {v}"));
    assert_eq!(stats.phase, PsiPhase::OmegaSigma, "{name}");
    let (count, hash) = hash_outputs(trace);
    format!(
        "{name} outputs={count} bot_exit={:?} fnv1a64={hash:016x}",
        stats.switch_times
    )
}

/// Number of outputs and the FNV-1a-64 hash of their lines.
fn hash_outputs<M: Clone + Debug>(trace: &Trace<M, PsiValue>) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut count = 0;
    for (t, p, o) in trace.outputs() {
        hash = fnv1a(hash, format!("{t} {p:?} {o:?}\n").as_bytes());
        count += 1;
    }
    (count, hash)
}

#[test]
fn figure3_histories_match_the_golden_file() {
    let pattern = FailurePattern::failure_free(N);
    let body = [
        golden_line(
            "fig3_consensus_to_omega_sigma",
            OmegaSigmaQcFamily,
            PairOracle::new(
                OmegaOracle::new(&pattern, STABILIZE, 1),
                SigmaOracle::new(&pattern, STABILIZE, 1),
            ),
            1,
        ),
        golden_line(
            "fig3_qc_to_psi",
            PsiQcFamily,
            PsiOracle::new(&pattern, PsiMode::OmegaSigma, STABILIZE, 20, 13),
            13,
        ),
    ]
    .map(|line| line + "\n")
    .concat();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig3_histories.txt");
    if std::env::var_os("WFD_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &body).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (regenerate with WFD_UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(body, expected, "Figure 3 histories drifted");
}
