//! Zero-cost-when-off observability: counters, histograms and phase
//! timers for the engine, the explorer, the liveness checker, the sweep
//! harness and the Figure 3 extraction host.
//!
//! The design mirrors [`crate::TraceMode::Off`]: an [`Obs`] handle is
//! carried by [`crate::SimConfig`] / [`crate::ExploreConfig`] /
//! [`crate::LivenessConfig`] (builders [`crate::SimConfig::with_obs`] /
//! [`crate::ExploreConfig::with_obs`] / [`crate::LivenessConfig::with_obs`])
//! and defaults to **off**, in which state every instrumentation call
//! inlines to a null-pointer check and returns — no clock reads, no
//! atomics, no allocation. Metrics can never change what a run computes:
//! they feed a side table that is only read by [`Obs::snapshot`].
//!
//! When on, the handle wraps one shared [`Arc`] of atomic cells:
//!
//! * **Counters** ([`CounterId`]) are monotonic `AtomicU64` sums. Workers
//!   write relaxed fetch-adds — lock-free, and since addition commutes the
//!   final totals are independent of thread interleaving, so metrics-on
//!   runs aggregate deterministically at any worker count.
//! * **Histograms** ([`HistId`]) bucket values by power of two (plus
//!   exact count / sum / min / max), same lock-free scheme.
//! * **Phase timers** ([`PhaseId`]) accumulate wall-clock nanoseconds per
//!   named phase via a drop guard ([`PhaseTimer`]); `Instant::now` is
//!   only ever called when the handle is on. (Timings are wall-clock and
//!   therefore *not* run-to-run deterministic — they are the one
//!   intentionally nondeterministic block of the snapshot.)
//!
//! [`Obs::snapshot`] freezes everything into a [`MetricsSnapshot`], whose
//! [`MetricsSnapshot::to_json`] is the `metrics` block the experiment
//! binaries append to their artifacts (`--metrics[=PATH]`).
//!
//! An opt-in **heartbeat** ([`Obs::with_heartbeat`], or
//! `WFD_METRICS=heartbeat` via [`crate::EnvOverrides`]) lets long
//! explorations report progress (states/sec, dedup hit rate, frontier
//! high-water) to stderr at a bounded rate.
//!
//! ```
//! use wfd_sim::{explore, ExploreConfig, FailurePattern, NoDetector, Obs,
//!               Ctx, ProcessId, Protocol};
//! # #[derive(Clone, Debug)]
//! # struct Flood;
//! # impl Protocol for Flood {
//! #     type Msg = (); type Output = (); type Inv = (); type Fd = ();
//! #     fn on_start(&mut self, ctx: &mut Ctx<Self>) { ctx.broadcast_others(()); }
//! #     fn on_message(&mut self, _: &mut Ctx<Self>, _: ProcessId, _: ()) {}
//! # }
//! let obs = Obs::on();
//! let report = explore(
//!     ExploreConfig::new(6).with_obs(obs.clone()),
//!     || vec![Flood, Flood],
//!     vec![None, None],
//!     &FailurePattern::failure_free(2),
//!     NoDetector,
//!     |_, _| Ok(()),
//! );
//! let metrics = obs.snapshot().expect("obs is on");
//! assert_eq!(metrics.counter(wfd_sim::CounterId::ExploreStatesVisited),
//!            report.states_visited as u64);
//! ```

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Power-of-two histogram buckets: bucket `b` holds `0` (for `b == 0`)
/// or values `v` with `2^(b-1) <= v < 2^b`. `u64::BITS + 1` buckets
/// cover the whole domain.
const BUCKETS: usize = (u64::BITS + 1) as usize;

macro_rules! metric_ids {
    ($(#[$enum_meta:meta])* $vis:vis enum $name:ident {
        $($(#[$meta:meta])* $variant:ident => $label:literal,)*
    }) => {
        $(#[$enum_meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $name {
            $($(#[$meta])* $variant,)*
        }

        impl $name {
            /// Every id, in declaration (and snapshot) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// The id's snake_case label, as used in the metrics JSON.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }
        }
    };
}

metric_ids! {
    /// Monotonic counters the instrumented subsystems maintain.
    pub enum CounterId {
        /// Engine steps executed across all instrumented runs.
        EngineSteps => "engine_steps",
        /// Messages sent by protocol handlers under the engine.
        EngineMessagesSent => "engine_messages_sent",
        /// Messages delivered by the engine.
        EngineMessagesDelivered => "engine_messages_delivered",
        /// Outputs emitted by protocol handlers under the engine.
        EngineOutputs => "engine_outputs",
        /// Calls to [`crate::Sim::run`] / [`crate::Sim::run_until`].
        EngineRuns => "engine_runs",
        /// Explorer states expanded (post-dedup).
        ExploreStatesVisited => "explore_states_visited",
        /// Explorer states pruned as already-covered revisits.
        ExploreDedupHits => "explore_dedup_hits",
        /// Distinct keys committed to the explorer's seen-table.
        ExploreDedupEntries => "explore_dedup_entries",
        /// Frontier batches the explorer processed.
        ExploreBatches => "explore_batches",
        /// Always 0: nothing increments it since sleep-set partial-order
        /// reduction was removed. Kept so the name table still names it.
        ExploreDporPruned => "explore_dpor_pruned",
        /// Keyed states whose canonical form used a non-identity
        /// permutation (symmetry canonicalization took effect).
        ExploreSymmetryHits => "explore_symmetry_hits",
        /// Completed [`explore`](crate::explore()) calls.
        ExploreRuns => "explore_runs",
        /// Explored children keyed from the transition memo, without
        /// rendering the actor's state or the messages it sent.
        ExploreStepMemoHits => "explore_step_memo_hits",
        /// Explored children whose step missed the transition memo and
        /// was rendered and recorded.
        ExploreStepMemoMisses => "explore_step_memo_misses",
        /// Explored children pushed onto the frontier unbuilt, keyed from
        /// the transition memo before any handler ran.
        ExploreChildrenDeferred => "explore_children_deferred",
        /// Deferred children the revisit rule kept, and so built.
        ExploreDeferredBuilt => "explore_deferred_built",
        /// Runs completed by an instrumented sweep.
        SweepRuns => "sweep_runs",
        /// Forest evaluations served incrementally (prefix extension).
        ForestEvalsIncremental => "forest_evals_incremental",
        /// Forest evaluations that fell back to a full replay.
        ForestEvalsFullReplay => "forest_evals_full_replay",
        /// Samples fed to forest runners (delta on incremental paths,
        /// whole window on replays).
        ForestSamplesConsumed => "forest_samples_consumed",
        /// Figure 3 Σ rounds (lines 24–32): configurations of `C` whose
        /// extension was attempted, one per schedule prefix visited.
        SigmaConfigsExtended => "sigma_configs_extended",
        /// Figure 3 Σ rounds: simulated runner steps, counting both the
        /// advance of a critical schedule by one prefix step and each
        /// extension step on a fresh sample.
        SigmaRunnerSteps => "sigma_runner_steps",
        /// Fair-graph nodes a liveness check built.
        LivenessNodes => "liveness_nodes",
        /// Fair-graph edges a liveness check built.
        LivenessEdges => "liveness_edges",
        /// Product states the liveness check's nested DFS visited.
        LivenessProductStates => "liveness_product_states",
        /// Distinct process states interned by the fair-graph store.
        LivenessInternedProcs => "liveness_interned_procs",
        /// Distinct inboxes interned by the fair-graph store.
        LivenessInternedInboxes => "liveness_interned_inboxes",
        /// Distinct node bookkeeping values (`started` bits, step-gap
        /// counters, message ages, pending invocations) interned by the
        /// fair-graph store.
        LivenessInternedBookkeeping => "liveness_interned_bookkeeping",
    }
}

metric_ids! {
    /// Value distributions recorded as power-of-two histograms.
    pub enum HistId {
        /// Messages sent per engine step.
        EngineSendsPerStep => "engine_sends_per_step",
        /// Explorer frontier length at each batch boundary.
        ExploreFrontierLen => "explore_frontier_len",
        /// States taken per explorer batch.
        ExploreBatchSize => "explore_batch_size",
        /// Depth of each state the explorer expanded.
        ExploreStateDepth => "explore_state_depth",
        /// Fresh samples per incremental forest evaluation.
        ForestDeltaSamples => "forest_delta_samples",
    }
}

metric_ids! {
    /// Named phases accumulated by wall-clock span timers.
    pub enum PhaseId {
        /// The engine's step loop ([`crate::Sim::run_until`]).
        EngineRun => "engine_run",
        /// Explorer: parallel key composition (and symmetry
        /// canonicalization) from carried slot keys, and seen-table
        /// pre-read, of a batch.
        ExploreKey => "explore_key",
        /// Explorer: sequential budget-aware revisit resolution.
        ExploreRevisit => "explore_revisit",
        /// Explorer: sequential per-batch detector pre-sampling.
        ExploreOracle => "explore_oracle",
        /// Explorer: parallel building of the deferred children the
        /// revisit rule kept, then safety-check + expansion of survivors,
        /// including keying each child from its parent's keys and the
        /// transition memo (before building it, where the memo allows).
        ExploreExpand => "explore_expand",
        /// Explorer: sequential merge of children and violations.
        ExploreMerge => "explore_merge",
        /// One worker chunk of an instrumented sweep.
        SweepRun => "sweep_run",
        /// Incremental (delta-feed) forest evaluation.
        ForestEvalIncremental => "forest_eval_incremental",
        /// Full-replay forest evaluation.
        ForestEvalFullReplay => "forest_eval_full_replay",
        /// One Figure 3 Σ round (lines 24–32): extending every
        /// configuration of `C` with the fresh window until it decides.
        ExtractionSigmaRound => "extraction_sigma_round",
        /// Liveness: compiling ¬φ into a Büchi automaton.
        LivenessBuchi => "liveness_buchi",
        /// Liveness: parallel expansion of a fair-graph BFS level —
        /// stepping, keying, canonicalization, the proposition check and
        /// table lookups.
        LivenessExpand => "liveness_expand",
        /// Liveness: sequential merge of a level's successors — interning
        /// new slot values, node dedup and edge recording.
        LivenessMerge => "liveness_merge",
        /// Liveness: the nested-DFS search of the Büchi product.
        LivenessLasso => "liveness_lasso",
        /// Liveness: the concrete re-run without symmetry that extracts a
        /// replayable lasso after a violation under symmetry.
        LivenessConcrete => "liveness_concrete",
    }
}

/// One histogram: exact count/sum/min/max plus power-of-two buckets.
struct Hist {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Hist {
    fn new() -> Self {
        Hist {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let b = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }
}

struct PhaseStat {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// The shared metric store behind an on-handle.
struct ObsCore {
    counters: [AtomicU64; CounterId::ALL.len()],
    hists: [Hist; HistId::ALL.len()],
    phases: [PhaseStat; PhaseId::ALL.len()],
    /// Minimum interval between heartbeat lines; `None` = no heartbeat.
    heartbeat_every: Option<Duration>,
    /// Nanos-since-`started` of the last heartbeat actually printed.
    heartbeat_last: AtomicU64,
    started: Instant,
}

/// The observability handle: a cheap, cloneable reference to one shared
/// metric store — or nothing at all (the default), in which case every
/// instrumentation method is a no-op. See the [module docs](self).
#[derive(Clone, Default)]
pub struct Obs {
    core: Option<Arc<ObsCore>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.core {
            None => write!(f, "Obs::Off"),
            Some(core) => write!(
                f,
                "Obs::On{}",
                if core.heartbeat_every.is_some() {
                    " (heartbeat)"
                } else {
                    ""
                }
            ),
        }
    }
}

impl Obs {
    /// The no-op handle (the default): all instrumentation compiles down
    /// to a pointer check.
    pub fn off() -> Self {
        Obs { core: None }
    }

    /// A fresh metric store. Clones of this handle share it, so one `Obs`
    /// can be threaded through a sim, an exploration and a sweep and
    /// snapshotted once.
    pub fn on() -> Self {
        Self::build(None)
    }

    /// Like [`Obs::on`], plus a progress heartbeat on stderr at most once
    /// per `every` (rate-limited inside [`Obs::heartbeat`]).
    pub fn with_heartbeat(every: Duration) -> Self {
        Self::build(Some(every))
    }

    /// The handle the environment asks for: `WFD_METRICS` ∈
    /// {`1`/`on`, `heartbeat[=SECS]`} — off otherwise. Explicit builder
    /// choices take precedence; see [`crate::EnvOverrides`].
    pub fn from_env() -> Self {
        crate::EnvOverrides::from_env().resolve_obs(None)
    }

    fn build(heartbeat_every: Option<Duration>) -> Self {
        Obs {
            core: Some(Arc::new(ObsCore {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| Hist::new()),
                phases: std::array::from_fn(|_| PhaseStat {
                    calls: AtomicU64::new(0),
                    nanos: AtomicU64::new(0),
                }),
                heartbeat_every,
                heartbeat_last: AtomicU64::new(0),
                started: Instant::now(),
            })),
        }
    }

    /// Whether metrics are being collected. Hot paths may use this to
    /// skip computing a value that only feeds [`Obs::record`].
    #[inline]
    pub fn is_on(&self) -> bool {
        self.core.is_some()
    }

    /// Add `n` to a counter. No-op (one branch) when off.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(core) = &self.core {
            core.counters[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one histogram sample. No-op (one branch) when off.
    #[inline]
    pub fn record(&self, id: HistId, value: u64) {
        if let Some(core) = &self.core {
            core.hists[id as usize].record(value);
        }
    }

    /// Start timing a phase; the elapsed wall-clock is accumulated when
    /// the returned guard drops. When off, no clock is read.
    #[inline]
    #[must_use = "the phase is timed until the guard drops"]
    pub fn phase(&self, id: PhaseId) -> PhaseTimer {
        PhaseTimer {
            active: self
                .core
                .as_ref()
                .map(|core| (Arc::clone(core), id, Instant::now())),
        }
    }

    /// Print `line()` to stderr if a heartbeat is configured and at least
    /// the configured interval passed since the last one. The closure is
    /// only invoked when a line will actually be printed, so callers can
    /// format freely.
    pub fn heartbeat(&self, line: impl FnOnce() -> String) {
        let Some(core) = &self.core else { return };
        let Some(every) = core.heartbeat_every else {
            return;
        };
        let now = core.started.elapsed().as_nanos() as u64;
        let last = core.heartbeat_last.load(Ordering::Relaxed);
        if now.saturating_sub(last) < every.as_nanos() as u64 {
            return;
        }
        // One winner per interval even if several threads race here.
        if core
            .heartbeat_last
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            eprintln!("[obs {:>8.1}s] {}", now as f64 / 1e9, line());
        }
    }

    /// Freeze the current totals into an immutable snapshot (`None` when
    /// the handle is off). Counters keep accumulating afterwards; take
    /// the snapshot when the measured work is done.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        let core = self.core.as_ref()?;
        Some(MetricsSnapshot {
            counters: CounterId::ALL
                .iter()
                .map(|&id| (id, core.counters[id as usize].load(Ordering::Relaxed)))
                .collect(),
            hists: HistId::ALL
                .iter()
                .map(|&id| {
                    let h = &core.hists[id as usize];
                    let count = h.count.load(Ordering::Relaxed);
                    HistSnapshot {
                        id,
                        count,
                        sum: h.sum.load(Ordering::Relaxed),
                        min: if count == 0 {
                            0
                        } else {
                            h.min.load(Ordering::Relaxed)
                        },
                        max: h.max.load(Ordering::Relaxed),
                        buckets: h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(b, c)| {
                                let c = c.load(Ordering::Relaxed);
                                (c > 0).then_some((bucket_le(b), c))
                            })
                            .collect(),
                    }
                })
                .collect(),
            phases: PhaseId::ALL
                .iter()
                .map(|&id| {
                    let p = &core.phases[id as usize];
                    PhaseSnapshot {
                        id,
                        calls: p.calls.load(Ordering::Relaxed),
                        nanos: p.nanos.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        })
    }
}

/// Inclusive upper bound of power-of-two bucket `b`.
fn bucket_le(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Drop guard returned by [`Obs::phase`]; accumulates the elapsed
/// wall-clock into the phase's totals when dropped.
pub struct PhaseTimer {
    active: Option<(Arc<ObsCore>, PhaseId, Instant)>,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some((core, id, t0)) = self.active.take() {
            let stat = &core.phases[id as usize];
            stat.calls.fetch_add(1, Ordering::Relaxed);
            stat.nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// One histogram, frozen: exact moments plus the non-empty power-of-two
/// buckets as `(inclusive upper bound, count)` pairs.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Which histogram.
    pub id: HistId,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<(u64, u64)>,
}

/// One phase timer, frozen.
#[derive(Clone, Debug)]
pub struct PhaseSnapshot {
    /// Which phase.
    pub id: PhaseId,
    /// Times the phase ran.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub nanos: u64,
}

/// An immutable copy of every metric at one point in time — what
/// [`MetricsSnapshot::to_json`] serializes into the `metrics` block of
/// the experiment artifacts.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// All counters, in [`CounterId::ALL`] order.
    pub counters: Vec<(CounterId, u64)>,
    /// All histograms, in [`HistId::ALL`] order.
    pub hists: Vec<HistSnapshot>,
    /// All phase timers, in [`PhaseId::ALL`] order.
    pub phases: Vec<PhaseSnapshot>,
}

impl MetricsSnapshot {
    /// The value of one counter (0 if the id is somehow absent).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters
            .iter()
            .find(|(i, _)| *i == id)
            .map_or(0, |(_, v)| *v)
    }

    /// The frozen histogram for `id`.
    pub fn hist(&self, id: HistId) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.id == id)
    }

    /// The frozen phase timer for `id`.
    pub fn phase(&self, id: PhaseId) -> Option<&PhaseSnapshot> {
        self.phases.iter().find(|p| p.id == id)
    }

    /// The snapshot as the `metrics` JSON block:
    /// `{"counters": {...}, "histograms": {...}, "phases": {...}}`.
    /// Every declared id appears (zeros included) so the schema is stable
    /// across workloads.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(id, v)| (id.name().to_string(), Json::u64(*v)))
                .collect(),
        );
        let hists = Json::Obj(
            self.hists
                .iter()
                .map(|h| {
                    (
                        h.id.name().to_string(),
                        Json::Obj(vec![
                            ("count".to_string(), Json::u64(h.count)),
                            ("sum".to_string(), Json::u64(h.sum)),
                            ("min".to_string(), Json::u64(h.min)),
                            ("max".to_string(), Json::u64(h.max)),
                            (
                                "buckets".to_string(),
                                Json::Arr(
                                    h.buckets
                                        .iter()
                                        .map(|(le, c)| {
                                            Json::Obj(vec![
                                                ("le".to_string(), Json::u64(*le)),
                                                ("count".to_string(), Json::u64(*c)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let phases = Json::Obj(
            self.phases
                .iter()
                .map(|p| {
                    (
                        p.id.name().to_string(),
                        Json::Obj(vec![
                            ("calls".to_string(), Json::u64(p.calls)),
                            ("nanos".to_string(), Json::u64(p.nanos)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".to_string(), counters),
            ("histograms".to_string(), hists),
            ("phases".to_string(), phases),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_inert() {
        let obs = Obs::off();
        assert!(!obs.is_on());
        obs.add(CounterId::EngineSteps, 5);
        obs.record(HistId::EngineSendsPerStep, 3);
        drop(obs.phase(PhaseId::EngineRun));
        obs.heartbeat(|| unreachable!("off handles never format"));
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn clones_share_one_store() {
        let obs = Obs::on();
        let clone = obs.clone();
        obs.add(CounterId::SweepRuns, 2);
        clone.add(CounterId::SweepRuns, 3);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter(CounterId::SweepRuns), 5);
    }

    #[test]
    fn histogram_moments_and_buckets() {
        let obs = Obs::on();
        for v in [0, 1, 2, 3, 1024] {
            obs.record(HistId::ExploreBatchSize, v);
        }
        let snap = obs.snapshot().unwrap();
        let h = snap.hist(HistId::ExploreBatchSize).unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (5, 1030, 0, 1024));
        // 0 → le 0; 1 → le 1; 2,3 → le 3; 1024 → le 2047.
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 2), (2047, 1)]);
    }

    #[test]
    fn phase_timer_accumulates_on_drop() {
        let obs = Obs::on();
        {
            let _t = obs.phase(PhaseId::ExploreExpand);
            std::hint::black_box(());
        }
        let snap = obs.snapshot().unwrap();
        let p = snap.phase(PhaseId::ExploreExpand).unwrap();
        assert_eq!(p.calls, 1);
    }

    #[test]
    fn snapshot_json_is_parseable_and_complete() {
        let obs = Obs::on();
        obs.add(CounterId::ExploreStatesVisited, 7);
        obs.record(HistId::ExploreFrontierLen, 12);
        drop(obs.phase(PhaseId::ExploreMerge));
        let json = obs.snapshot().unwrap().to_json();
        let parsed = Json::parse(&json.to_string()).expect("metrics JSON parses");
        let counters = parsed.get("counters").expect("counters block");
        for id in CounterId::ALL {
            assert!(counters.get(id.name()).is_some(), "missing {}", id.name());
        }
        let hists = parsed.get("histograms").expect("histograms block");
        for id in HistId::ALL {
            assert!(hists.get(id.name()).is_some(), "missing {}", id.name());
        }
        let phases = parsed.get("phases").expect("phases block");
        for id in PhaseId::ALL {
            assert!(phases.get(id.name()).is_some(), "missing {}", id.name());
        }
        assert_eq!(
            counters
                .get("explore_states_visited")
                .and_then(Json::as_u64),
            Some(7)
        );
    }

    #[test]
    fn bucket_bounds() {
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(11), 2047);
        assert_eq!(bucket_le(64), u64::MAX);
    }
}
