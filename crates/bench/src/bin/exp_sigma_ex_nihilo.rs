//! **E8 — Σ ex nihilo** (paper §1): under a correct majority the
//! join-quorum protocol implements Σ with no detector at all; once a
//! majority crashes it blocks (it never lies). Sweep the crash count and
//! report conformance plus output liveness.

use wfd_bench::Table;
use wfd_detectors::check::check_sigma;
use wfd_detectors::history::history_from_outputs;
use wfd_detectors::impls::MajoritySigma;
use wfd_sim::{FailurePattern, NoDetector, ProcessId, ProcessSet, RandomFair, Sim, SimConfig};

fn main() {
    let n = 5;
    let mut table = Table::new(
        "E8-sigma-ex-nihilo",
        "Join-quorum Σ (no detector) vs crash count f (n = 5, crashes at t = 400)",
        &[
            "f",
            "majority_correct",
            "outputs",
            "outputs_after_1500",
            "sigma_ok_while_live",
        ],
    );
    for f in 0..n {
        let pattern = FailurePattern::with_crashes(
            n,
            &(0..f).map(|i| (ProcessId(i), 400)).collect::<Vec<_>>(),
        );
        let majority_correct = pattern.correct().len() * 2 > n;
        let mut sim = Sim::new(
            SimConfig::new(n).with_horizon(15_000),
            (0..n).map(|_| MajoritySigma::new(n, 2)).collect(),
            pattern.clone(),
            NoDetector,
            RandomFair::new(9),
        );
        sim.run();
        let h = history_from_outputs(sim.trace(), |q: &ProcessSet| Some(*q));
        let late = h.since(1_500).count();
        // Conformance is only claimed where the protocol's assumption
        // holds; in blocked runs we check that it emitted nothing late
        // rather than something wrong.
        let verdict = if majority_correct {
            match check_sigma(&h, &pattern) {
                Ok(_) => "yes".to_string(),
                Err(v) => format!("VIOLATION: {v}"),
            }
        } else {
            format!("n/a (blocks; {} late outputs)", late)
        };
        table.row(&[&f, &majority_correct, &h.len(), &late, &verdict]);
    }
    table.finish();
    println!(
        "\nExpected shape: f <= 2 conforms with plenty of late outputs ('for \
         free'); f >= 3 emits nothing after the crashes — the free lunch ends \
         exactly at the majority boundary."
    );
}
