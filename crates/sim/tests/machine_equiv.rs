//! The sixth 40-seed equivalence ladder: every consumer of the unified
//! `Machine` transition system — the engine's run loop, the bounded
//! explorer, and the liveness checker's fair graph — must produce
//! byte-identical results across reruns and agree with the
//! retained pre-refactor loop (`explore_baseline`, the differential
//! anchor, whose seen-table confirms every match with `==`). A divergence anywhere means the machine-layer
//! rebase changed semantics, not just structure.
//!
//! Plus the golden-file diagram gate: `wfd_sim::diagram` output is
//! checked byte-for-byte against committed `.dot`/`.mmd` files, and
//! structurally (balanced braces, declared node ids only) — so renderer
//! drift cannot land silently.

use wfd_sim::explore_baseline::explore_baseline;
use wfd_sim::liveness::fixtures::{Decider, PingPong};
use wfd_sim::{
    check_liveness, explore, Ctx, Diagram, DiagramConfig, ExploreConfig, ExploreReport,
    FailurePattern, LivenessConfig, Ltl, NoDetector, ProcessId, Protocol, RandomFair,
    RecordedSchedule, ReplaySchedule, Sim, SimConfig, Symmetry, Time,
};

/// The seed family: a two-process broadcast/relay protocol whose tree
/// shape, outputs and verdict vary with every parameter (the same design
/// as the dedup ladders' `Mixer`, duplicated here so this ladder stays
/// self-contained).
#[derive(Clone, Debug, PartialEq)]
struct Mixer {
    burst: u64,
    mult: u64,
    acc: u64,
    relays_left: u64,
}

impl Mixer {
    fn family(seed: u64) -> Self {
        Mixer {
            burst: 1 + seed % 3,
            mult: 3 + seed % 5,
            acc: seed % 7,
            relays_left: seed % 2,
        }
    }
}

impl Protocol for Mixer {
    type Msg = u64;
    type Output = u64;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        for tag in 0..self.burst {
            ctx.broadcast_others(tag);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, tag: u64) {
        self.acc = self.acc.wrapping_mul(self.mult).wrapping_add(tag);
        ctx.output(self.acc);
        if self.relays_left > 0 && tag > 0 {
            self.relays_left -= 1;
            ctx.broadcast_others(tag - 1);
        }
    }

    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }
}

fn family_pattern(seed: u64) -> FailurePattern {
    if seed.is_multiple_of(4) {
        FailurePattern::failure_free(2).with_crash(ProcessId(1), (seed % 5) as Time)
    } else {
        FailurePattern::failure_free(2)
    }
}

fn run_explore(seed: u64) -> ExploreReport {
    let pattern = family_pattern(seed);
    let bar = 20 + (seed % 30);
    explore(
        ExploreConfig::new(4 + (seed as usize % 4)).with_max_states(500_000),
        move || (0..2).map(|_| Mixer::family(seed)).collect::<Vec<_>>(),
        vec![None, None],
        &pattern,
        NoDetector,
        move |_procs: &[Mixer], outputs: &[(ProcessId, u64)]| match outputs
            .iter()
            .find(|(_, acc)| *acc > bar)
        {
            Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
            None => Ok(()),
        },
    )
}

/// Ladder leg 1 — explorer: the Machine-backed loop reruns to an equal
/// report, and agrees with the pre-refactor baseline loop on everything
/// the baseline's classic DFS order defines (verdict, flags,
/// distinct-state coverage).
#[test]
fn explorer_matches_baseline_and_reruns_identically() {
    let mut violating = 0;
    for seed in 0..40u64 {
        let pattern = family_pattern(seed);
        let bar = 20 + (seed % 30);
        let baseline = explore_baseline(
            ExploreConfig::new(4 + (seed as usize % 4)).with_max_states(500_000),
            move || (0..2).map(|_| Mixer::family(seed)).collect::<Vec<_>>(),
            vec![None, None],
            &pattern,
            NoDetector,
            move |_procs: &[Mixer], outputs: &[(ProcessId, u64)]| match outputs
                .iter()
                .find(|(_, acc)| *acc > bar)
            {
                Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
                None => Ok(()),
            },
        );
        let one = run_explore(seed);
        // Baseline vs Machine-backed: the traversal order differs by
        // design (classic DFS vs batched), so anything downstream of an
        // early stop is order-shaped. The verdict itself must agree; on
        // exhaustive sweeps (no violation, so both walked the whole
        // space) the bound flags and the distinct-state coverage must be
        // identical too; on violating seeds each witness must actually
        // replay to its reported message.
        assert_eq!(
            baseline.violation.is_some(),
            one.violation.is_some(),
            "seed {seed}: machine loop changed the verdict\n{baseline:?}\nvs\n{one:?}"
        );
        if one.violation.is_none() {
            assert!(
                baseline.depth_bounded == one.depth_bounded
                    && baseline.states_capped == one.states_capped
                    && baseline.dedup_entries == one.dedup_entries,
                "seed {seed}: machine loop diverged from the baseline\n{baseline:?}\nvs\n{one:?}"
            );
        }
        for v in [&baseline.violation, &one.violation].into_iter().flatten() {
            let replayed = wfd_sim::Replay::explore(v.decisions.clone()).run(
                move || (0..2).map(|_| Mixer::family(seed)).collect::<Vec<_>>(),
                vec![None, None],
                &pattern,
                NoDetector,
                move |_procs: &[Mixer], outputs: &[(ProcessId, u64)]| match outputs
                    .iter()
                    .find(|(_, acc)| *acc > bar)
                {
                    Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
                    None => Ok(()),
                },
            );
            assert_eq!(
                replayed,
                Err(v.message.clone()),
                "seed {seed}: a reported witness does not replay"
            );
        }
        assert_eq!(
            one,
            run_explore(seed),
            "seed {seed}: a rerun changed the report"
        );
        if one.violation.is_some() {
            violating += 1;
        }
    }
    assert!(violating >= 5, "sweep too tame: {violating}");
}

/// Ladder leg 2 — engine: the dispatch-through-`machine::ResolvedStep`
/// run loop stays a deterministic function of its inputs (two identical
/// runs are byte-identical, trace and all), and a recorded decision log
/// replays with zero divergences to the byte-identical trace.
#[test]
fn engine_runs_are_deterministic_and_replay_byte_identically() {
    for seed in 0..40u64 {
        let n = 2 + (seed as usize % 2);
        let pattern = if seed.is_multiple_of(4) {
            FailurePattern::failure_free(n).with_crash(ProcessId(seed as usize % n), 3)
        } else {
            FailurePattern::failure_free(n)
        };
        let cfg = || {
            let mut c = SimConfig::new(n);
            c.horizon = 120 + (seed % 40);
            c
        };
        let procs = || (0..n).map(|_| Mixer::family(seed)).collect::<Vec<_>>();

        let mut recorded = Sim::new(
            cfg(),
            procs(),
            pattern.clone(),
            NoDetector,
            RecordedSchedule::new(RandomFair::new(seed)),
        );
        let out = recorded.run();
        let golden = format!("{} {:?}", out.steps, recorded.trace().events());

        // Determinism: the identical configuration reruns byte-identically.
        let mut again = Sim::new(
            cfg(),
            procs(),
            pattern.clone(),
            NoDetector,
            RecordedSchedule::new(RandomFair::new(seed)),
        );
        let out2 = again.run();
        assert_eq!(out.reason, out2.reason, "seed {seed}: stop reason drifted");
        assert_eq!(
            golden,
            format!("{} {:?}", out2.steps, again.trace().events()),
            "seed {seed}: rerun drifted"
        );

        // Replay: the recorded decision log reproduces the run exactly.
        let log = recorded.scheduler().log().to_vec();
        let mut replay = Sim::new(
            cfg(),
            procs(),
            pattern.clone(),
            NoDetector,
            ReplaySchedule::new(log),
        );
        let out3 = replay.run();
        assert_eq!(
            replay.scheduler().divergences(),
            0,
            "seed {seed}: replay diverged from its own log"
        );
        assert_eq!(
            golden,
            format!("{} {:?}", out3.steps, replay.trace().events()),
            "seed {seed}: replayed trace is not byte-identical"
        );
    }
}

/// Ladder leg 3 — liveness: the `FairMachine`-backed graph build is
/// byte-identical across reruns — not only the verdict but the full
/// report (model sizes, product size, lasso witness decisions).
#[test]
fn liveness_reports_are_byte_identical_across_reruns() {
    for seed in 0..40u64 {
        let n = 2 + (seed as usize % 2);
        let mut pattern = FailurePattern::failure_free(n);
        if seed.is_multiple_of(4) {
            pattern = pattern.with_crash(ProcessId(seed as usize % n), 0);
        }
        let livelock = seed.is_multiple_of(2);
        let run = || {
            let cfg = LivenessConfig::new(2 + (seed % 2), 2 + ((seed / 2) % 2), 0);
            let report = if livelock {
                check_liveness(
                    cfg,
                    || PingPong::fleet(n),
                    vec![None; n],
                    &pattern,
                    NoDetector,
                    &Ltl::prop("decided").eventually(),
                )
            } else {
                check_liveness(
                    cfg,
                    || Decider::fleet(n),
                    vec![None; n],
                    &pattern,
                    NoDetector,
                    &Ltl::prop("all-decided").eventually(),
                )
            };
            format!("{:?}", report.expect("family scenarios are well-formed"))
        };
        let one = run();
        assert!(
            one.contains(if livelock { "Violated" } else { "Holds" }),
            "seed {seed}: unexpected baseline verdict\n{one}"
        );
        assert_eq!(
            one,
            run(),
            "seed {seed}: a rerun changed the liveness report"
        );
    }
}

/// The golden protocol for the diagram gate: two processes ping once on
/// start; each delivery increments a counter and outputs it. Small enough
/// that the full reachable graph fits the caps, rich enough to exercise
/// start/deliver/λ edges, props and a highlighted violation.
#[derive(Clone, Debug, PartialEq)]
struct Pulse {
    count: u64,
}

impl Protocol for Pulse {
    type Msg = u64;
    type Output = u64;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        ctx.broadcast_others(1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, tag: u64) {
        self.count += tag;
        ctx.output(self.count);
    }

    fn props() -> &'static [&'static str] {
        &["pulsed"]
    }

    fn eval_prop(_prop: usize, procs: &[Self], _view: &wfd_sim::PropView<'_>) -> bool {
        procs.iter().any(|p| p.count > 0)
    }
}

fn pulse_diagram() -> Diagram {
    Diagram::walk(
        &DiagramConfig::new("pulse")
            .with_max_states(64)
            .with_max_depth(6),
        || (0..2).map(|_| Pulse { count: 0 }).collect::<Vec<_>>(),
        vec![None, None],
        &FailurePattern::failure_free(2),
        NoDetector,
        |procs: &[Pulse], _outputs: &[(ProcessId, u64)]| {
            if procs.iter().all(|p| p.count > 0) {
                Err("every process pulsed".to_string())
            } else {
                Ok(())
            }
        },
    )
    .expect("well-formed scenario")
}

/// Golden-file gate: the DOT and Mermaid renderings are byte-identical
/// to the committed artifacts — any renderer or walk-order drift fails
/// loudly and updates consciously. Regenerate with
/// `WFD_UPDATE_GOLDEN=1 cargo test -p wfd-sim --test machine_equiv`.
#[test]
fn diagram_output_matches_the_golden_files() {
    let d = pulse_diagram();
    assert!(
        d.has_violation(),
        "the golden scenario must show a violation"
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, body) in [
        ("diagram_pulse.dot", d.to_dot()),
        ("diagram_pulse.mmd", d.to_mermaid()),
    ] {
        let path = dir.join(name);
        if std::env::var_os("WFD_UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(&dir).expect("create tests/golden");
            std::fs::write(&path, &body).expect("write golden file");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e} (regenerate with WFD_UPDATE_GOLDEN=1)",
                path.display()
            )
        });
        assert_eq!(
            body, golden,
            "{name} drifted from tests/golden (regenerate with WFD_UPDATE_GOLDEN=1 if intended)"
        );
    }
}

/// Structural gate: rebuilt from scratch the diagram is identical
/// (determinism), the DOT braces balance, and every edge endpoint is a
/// declared node id.
#[test]
fn diagram_output_is_deterministic_and_well_formed() {
    let d = pulse_diagram();
    let again = pulse_diagram();
    assert_eq!(d.to_dot(), again.to_dot(), "walk is not deterministic");
    let dot = d.to_dot();
    assert_eq!(
        dot.matches('{').count(),
        dot.matches('}').count(),
        "unbalanced braces"
    );
    for (from, to, _) in &d.edges {
        assert!(
            *from < d.nodes.len() && *to < d.nodes.len(),
            "undeclared id"
        );
        assert!(
            dot.contains(&format!("s{from} -> s{to}")),
            "edge s{from}->s{to} missing from DOT"
        );
    }
    let mmd = d.to_mermaid();
    for (from, to, _) in &d.edges {
        assert!(
            mmd.contains(&format!("s{from} --> s{to}")),
            "edge s{from}-->s{to} missing from Mermaid"
        );
    }
}
