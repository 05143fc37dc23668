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
//!   at 1 and 4 worker threads, with either hasher and with the
//!   reductions on or off,
//! * and while invisible to results, the metrics are *not* inert: the
//!   snapshot carries the exact traversal counters (the transition memo's
//!   hits and misses included: one per keyed child) and its JSON export
//!   round-trips through the crate's own parser.

use wfd_sim::json::Json;
use wfd_sim::{
    explore, CounterId, Ctx, ExploreConfig, ExploreReport, FailurePattern, Hasher, NoDetector, Obs,
    ProcessId, Protocol, ReductionConfig, RoundRobin, Sim, SimConfig,
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

#[test]
fn explore_reports_are_byte_identical_with_metrics_on_at_any_thread_count() {
    let reduced = ReductionConfig::none().with_dpor(true).with_symmetry(true);
    for threads in [1, 4] {
        for hasher in [Hasher::Fingerprint, Hasher::ExactKey] {
            for reduction in [ReductionConfig::none(), reduced] {
                let cfg = ExploreConfig::new(7)
                    .with_hasher(hasher)
                    .with_reduction(reduction);
                let off = run_explore_with(cfg.clone().with_obs(Obs::off()), threads);
                let on = run_explore_with(cfg.with_obs(Obs::on()), threads);
                assert_eq!(
                    format!("{off:?}"),
                    format!("{on:?}"),
                    "{threads} threads, {hasher:?}, {reduction:?}: metrics changed the report"
                );
            }
        }
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
        // root is a child, keyed once, through the memo.
        assert_eq!(
            hits + misses,
            (report.states_visited + report.dedup_hits - 1) as u64,
            "{threads} threads"
        );
        assert!(hits > 0, "{threads} threads: the memo never served a child");
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
