//! The observability layer's load-bearing guarantee: metrics **never**
//! influence what the simulator or the explorer compute. Turning metrics
//! on must leave every [`RunOutcome`], every trace, and every
//! [`ExploreReport`] byte-identical to a metrics-off execution — at any
//! thread count — because the obs handle only ever writes to a side table
//! of relaxed atomics that nothing on the decision path reads back.
//!
//! These tests are the acceptance gate for that claim:
//!
//! * engine runs with `Obs::off()` vs `Obs::on()` produce identical
//!   outcomes and identical traces (full `Debug` form),
//! * explorations with metrics off vs on produce byte-identical reports
//!   at 1 and 4 worker threads, with the reductions on or off,
//! * liveness checks with metrics off vs on produce identical
//!   [`LivenessReport`]s at 1 and 2 worker threads, with symmetry on or
//!   off, for a violated and a holding property,
//! * and while invisible to results, the metrics are *not* inert: the
//!   snapshot carries the exact traversal counters (the transition memo's
//!   hits and misses included: one per keyed child; and the children
//!   deferred unbuilt) and its JSON export round-trips through the
//!   crate's own parser.

use wfd_sim::json::Json;
use wfd_sim::liveness::fixtures::{JoinQuorum, PingPong};
use wfd_sim::{
    check_liveness, explore, CounterId, Ctx, ExploreConfig, ExploreReport, FailurePattern,
    LivenessConfig, LivenessReport, Ltl, NoDetector, Obs, PhaseId, ProcessId, Protocol, RoundRobin,
    Sim, SimConfig,
};

/// A small token-relay protocol with enough branching to exercise the
/// explorer's dedup table and the engine's send paths.
#[derive(Clone, Debug, PartialEq)]
struct Relay {
    acc: u64,
    relays_left: u64,
}

impl Protocol for Relay {
    type Msg = u64;
    type Output = u64;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        ctx.broadcast_others(ctx.me().index() as u64);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, tag: u64) {
        self.acc = self.acc.wrapping_mul(7).wrapping_add(tag);
        ctx.output(self.acc);
        if self.relays_left > 0 && tag > 0 {
            self.relays_left -= 1;
            ctx.broadcast_others(tag - 1);
        }
    }
}

fn make_procs() -> Vec<Relay> {
    (0..2)
        .map(|_| Relay {
            acc: 1,
            relays_left: 1,
        })
        .collect()
}

fn safety(_: &[Relay], outputs: &[(ProcessId, u64)]) -> Result<(), String> {
    match outputs.iter().find(|(_, acc)| *acc > 40) {
        Some((p, acc)) => Err(format!("{p} overflowed: {acc}")),
        None => Ok(()),
    }
}

fn run_sim(obs: Obs) -> String {
    let n = 3;
    let mut sim = Sim::new(
        SimConfig::new(n).with_obs(obs),
        (0..n)
            .map(|_| Relay {
                acc: 1,
                relays_left: 2,
            })
            .collect(),
        FailurePattern::failure_free(n),
        NoDetector,
        RoundRobin::new(),
    );
    let outcome = sim.run();
    format!("{outcome:?}\n{:?}", sim.trace())
}

fn run_explore(obs: Obs, threads: usize) -> ExploreReport {
    run_explore_with(ExploreConfig::new(7).with_obs(obs), threads)
}

fn run_explore_with(cfg: ExploreConfig, threads: usize) -> ExploreReport {
    let cfg = cfg.with_max_states(500_000).with_threads(threads);
    explore(
        cfg,
        make_procs,
        vec![None, None],
        &FailurePattern::failure_free(2),
        NoDetector,
        safety,
    )
}

#[test]
fn engine_outcome_and_trace_are_identical_with_metrics_on() {
    assert_eq!(run_sim(Obs::off()), run_sim(Obs::on()));
}

/// Metrics off and on give byte-identical reports, with symmetry off
/// and on.
fn check_metrics_invisible(threads: usize) {
    for reduced in [false, true] {
        let cfg = ExploreConfig::new(7).with_symmetry(reduced);
        let off = run_explore_with(cfg.clone().with_obs(Obs::off()), threads);
        let on = run_explore_with(cfg.with_obs(Obs::on()), threads);
        assert_eq!(
            format!("{off:?}"),
            format!("{on:?}"),
            "{threads} threads, reduced={reduced}: metrics changed the report"
        );
    }
}

#[test]
fn explore_reports_are_byte_identical_with_metrics_on_at_any_thread_count() {
    for threads in [1, 4] {
        check_metrics_invisible(threads);
    }
}

#[test]
fn step_memo_counters_count_every_keyed_child() {
    for threads in [1, 4] {
        let obs = Obs::on();
        let report = explore(
            ExploreConfig::new(7)
                .with_threads(threads)
                .with_obs(obs.clone()),
            make_procs,
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert!(report.violation.is_none() && !report.states_capped);
        let snap = obs.snapshot().expect("metrics are on");
        let hits = snap.counter(CounterId::ExploreStepMemoHits);
        let misses = snap.counter(CounterId::ExploreStepMemoMisses);
        // Without reductions or a violation every popped state but the
        // root is a child, keyed once, through the memo: a child deferred
        // unbuilt is keyed at generation, where the memo served it.
        assert_eq!(
            hits + misses,
            (report.states_visited + report.dedup_hits - 1) as u64,
            "{threads} threads"
        );
        assert!(hits > 0, "{threads} threads: the memo never served a child");
        // Starts and λ steps emit nothing, so a memo hit on one waits on
        // the frontier unbuilt; only the ones the revisit rule keeps are
        // built. Each worker has its own memo, and at four threads each
        // sees a quarter of this small model's batches, too few repeats
        // to serve a step that emits nothing.
        let deferred = snap.counter(CounterId::ExploreChildrenDeferred);
        let built = snap.counter(CounterId::ExploreDeferredBuilt);
        if threads == 1 {
            assert!(deferred > 0, "no child was deferred");
        }
        assert!(
            built <= deferred,
            "{threads} threads: built {built} of {deferred} deferred children"
        );
    }
}

#[test]
fn metrics_actually_measure_the_traversal() {
    let obs = Obs::on();
    let report = run_explore(obs.clone(), 1);
    let snap = obs.snapshot().expect("metrics are on");
    assert_eq!(
        snap.counter(CounterId::ExploreStatesVisited),
        report.states_visited as u64
    );
    assert_eq!(
        snap.counter(CounterId::ExploreDedupHits),
        report.dedup_hits as u64
    );
    assert_eq!(
        snap.counter(CounterId::ExploreDedupEntries),
        report.dedup_entries as u64
    );
    assert_eq!(snap.counter(CounterId::ExploreRuns), 1);
}

#[test]
fn snapshot_json_round_trips_through_the_crate_parser() {
    let obs = Obs::on();
    let _ = run_explore(obs.clone(), 2);
    let json = obs.snapshot().expect("metrics are on").to_json();
    let parsed = Json::parse(&json.to_string()).expect("metrics JSON must parse");
    let counters = parsed.get("counters").expect("counters block");
    assert!(counters.get("explore_states_visited").is_some());
    assert!(parsed.get("histograms").is_some());
    assert!(parsed.get("phases").is_some());
}

#[test]
fn off_handle_never_allocates_a_snapshot() {
    let obs = Obs::off();
    let _ = run_explore(obs.clone(), 1);
    assert!(obs.snapshot().is_none());
    assert!(!obs.is_on());
}

/// One liveness check of the planted livelock (`F "decided"` is
/// violated) or of the join quorum (`F "formed"` holds), n = 3.
fn run_liveness(livelock: bool, cfg: LivenessConfig) -> LivenessReport {
    let n = 3;
    let pattern = FailurePattern::failure_free(n);
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
            cfg.with_max_inbox(12),
            || JoinQuorum::fleet(n),
            vec![None; n],
            &pattern,
            NoDetector,
            &Ltl::prop("formed").eventually(),
        )
    };
    report.expect("valid scenario")
}

#[test]
fn liveness_reports_are_identical_with_metrics_on() {
    for livelock in [true, false] {
        for threads in [1, 2] {
            for symmetry in [false, true] {
                let cfg = LivenessConfig::new(2, 2, 0)
                    .with_threads(threads)
                    .with_symmetry(symmetry);
                let off = run_liveness(livelock, cfg.clone());
                let on = run_liveness(livelock, cfg.with_obs(Obs::on()));
                assert_eq!(
                    format!("{off:?}"),
                    format!("{on:?}"),
                    "livelock={livelock}, {threads} threads, symmetry={symmetry}: \
                     metrics changed the report"
                );
            }
        }
    }
}

#[test]
fn liveness_metrics_measure_the_check() {
    for livelock in [true, false] {
        let obs = Obs::on();
        let report = run_liveness(livelock, LivenessConfig::new(2, 2, 0).with_obs(obs.clone()));
        let snap = obs.snapshot().expect("metrics are on");
        assert_eq!(snap.counter(CounterId::LivenessNodes), report.states as u64);
        assert_eq!(snap.counter(CounterId::LivenessEdges), report.edges as u64);
        assert_eq!(
            snap.counter(CounterId::LivenessProductStates),
            report.product_states as u64
        );
        // A table holds at most one value per slot of each node
        // (n = 3, and one bookkeeping value per node).
        for id in [
            CounterId::LivenessInternedProcs,
            CounterId::LivenessInternedInboxes,
            CounterId::LivenessInternedBookkeeping,
        ] {
            let interned = snap.counter(id);
            assert!(
                interned > 0 && interned <= 3 * report.states as u64,
                "{}: {interned}",
                id.name()
            );
        }
        for id in [
            PhaseId::LivenessBuchi,
            PhaseId::LivenessExpand,
            PhaseId::LivenessMerge,
            PhaseId::LivenessLasso,
        ] {
            assert!(snap.phase(id).is_some_and(|p| p.calls > 0), "{}", id.name());
        }
        // No symmetry, so no concrete re-run.
        assert_eq!(
            snap.phase(PhaseId::LivenessConcrete).map(|p| p.calls),
            Some(0)
        );
    }
    // A violation under symmetry re-runs concretely, and counts both.
    let obs = Obs::on();
    let reduced = run_liveness(
        true,
        LivenessConfig::new(2, 2, 0)
            .with_symmetry(true)
            .with_obs(obs.clone()),
    );
    let concrete = run_liveness(true, LivenessConfig::new(2, 2, 0));
    let snap = obs.snapshot().expect("metrics are on");
    assert_eq!(
        snap.phase(PhaseId::LivenessConcrete).map(|p| p.calls),
        Some(1)
    );
    assert_eq!(
        snap.counter(CounterId::LivenessNodes),
        (reduced.states + concrete.states) as u64
    );
}
