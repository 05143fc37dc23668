//! The detector zoo: *implementing* failure detectors inside the system,
//! and the paper's "for free" remark made concrete.
//!
//! §1 of the paper: *"to implement registers in environments with a
//! majority of correct processes we 'need' something that we can get for
//! free"* — Σ is implementable ex nihilo whenever a majority is correct.
//! This example runs the three message-passing implementations of
//! `wfd-detectors` (join-quorum Σ, adaptive-heartbeat Ω, timeout FS)
//! against their specification checkers, then shows the same Σ protocol
//! *blocking* once the majority is gone.
//!
//! Run with: `cargo run --example detector_zoo`

use weakest_failure_detectors::prelude::*;

fn main() {
    let n = 5;
    let pattern = FailurePattern::with_crashes(n, &[(ProcessId(1), 400), (ProcessId(4), 900)]);
    println!("environment: {pattern} (majority stays correct)\n");

    // Σ ex nihilo from a correct majority.
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(20_000),
        (0..n).map(|_| MajoritySigma::new(n, 2)).collect(),
        pattern.clone(),
        NoDetector,
        RandomFair::new(5),
    );
    sim.run();
    let sigma_h = history_from_outputs(sim.trace(), |q: &ProcessSet| Some(*q));
    match check_sigma(&sigma_h, &pattern) {
        Ok(stats) => println!(
            "join-quorum Σ   : conforms ✓ ({} quorum outputs, stabilised by t = {:?})",
            stats.samples,
            stats.stabilization_time()
        ),
        Err(v) => println!("join-quorum Σ   : VIOLATION — {v}"),
    }

    // Ω from adaptive heartbeats.
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(30_000),
        (0..n).map(|_| HeartbeatOmega::new(n, 4)).collect(),
        pattern.clone(),
        NoDetector,
        RandomFair::new(5),
    );
    sim.run();
    let omega_h = history_from_outputs(sim.trace(), |l: &ProcessId| Some(*l));
    match check_omega(&omega_h, &pattern) {
        Ok(stats) => println!(
            "heartbeat Ω     : conforms ✓ (leader {:?}, stabilised by t = {:?})",
            stats.leader, stats.stabilization_time
        ),
        Err(v) => println!("heartbeat Ω     : VIOLATION — {v}"),
    }

    // FS from conservative timeouts.
    let threshold = 3 * (n as u64 * 4 * n as u64 + 4 * n as u64);
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(30_000),
        (0..n).map(|_| TimeoutFs::new(n, threshold)).collect(),
        pattern.clone(),
        NoDetector,
        RandomFair::new(5),
    );
    sim.run();
    let fs_h = history_from_outputs(sim.trace(), |s: &Signal| Some(*s));
    match check_fs(&fs_h, &pattern) {
        Ok(stats) => println!(
            "timeout FS      : conforms ✓ (first red at t = {:?}, first crash at t = {:?})",
            stats.first_red,
            pattern.first_crash_time()
        ),
        Err(v) => println!("timeout FS      : VIOLATION — {v}"),
    }

    // And the punchline: the free lunch ends where Theorem 1 begins.
    let hostile = FailurePattern::with_crashes(
        n,
        &[
            (ProcessId(0), 200),
            (ProcessId(1), 200),
            (ProcessId(2), 200),
        ],
    );
    let mut sim = Sim::new(
        SimConfig::new(n).with_horizon(20_000),
        (0..n).map(|_| MajoritySigma::new(n, 2)).collect(),
        hostile.clone(),
        NoDetector,
        RandomFair::new(5),
    );
    sim.run();
    let h = history_from_outputs(sim.trace(), |q: &ProcessSet| Some(*q));
    let late = h.since(1_000).count();
    println!(
        "\nhostile environment {hostile}:\n\
         join-quorum Σ emits {late} quorums after t = 1000 — it blocks rather \
         than lie once the majority is gone. In such environments Σ must come \
         from outside the system, and Theorem 1 says nothing weaker will do."
    );
}
