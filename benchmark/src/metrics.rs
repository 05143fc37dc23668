//! The metric catalogue (which must match `BENCHMARK.json`), the
//! per-layer breakdown of a traced rep, and the order statistics shared
//! by `run` and `compare`.

use crate::probe::Recording;
use crate::timed::Op;
use std::collections::BTreeMap;
use wfd_sim::{CounterId, PhaseId};

/// End-to-end metrics of an untraced run: `(name, unit)`. All lower is
/// better.
pub const END_TO_END: &[(&str, &str)] = &[
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("explore.call_s", "s"),
    ("explore.key_s", "s"),
    ("explore.revisit_s", "s"),
    ("explore.oracle_s", "s"),
    ("explore.expand_s", "s"),
    ("explore.merge_s", "s"),
    ("explore.states_visited", "count"),
    ("explore.batches", "count"),
    ("explore.dedup_entries", "count"),
    ("explore.dedup_hits", "count"),
    ("explore.dedup_hit_ratio", "ratio"),
    ("explore.symmetry_hits", "count"),
    ("explore.dpor_pruned", "count"),
    ("protocol.handler_calls", "count"),
    ("protocol.handler_s", "s"),
    ("protocol.clone_calls", "count"),
    ("protocol.clone_s", "s"),
    ("protocol.render_calls", "count"),
    ("protocol.render_s", "s"),
    ("protocol.render_bytes", "bytes"),
    ("protocol.permute_calls", "count"),
    ("protocol.footprint_calls", "count"),
    ("protocol.footprint_s", "s"),
    ("protocol.prop_calls", "count"),
    ("protocol.prop_s", "s"),
    ("spec.calls", "count"),
    ("spec.s", "s"),
    ("liveness.call_s", "s"),
    ("liveness.self_s", "s"),
    ("liveness.graph_states", "count"),
    ("liveness.graph_edges", "count"),
    ("liveness.product_states", "count"),
    ("liveness.buchi_states", "count"),
    ("engine.run_s", "s"),
    ("engine.steps", "count"),
    ("engine.messages_delivered", "count"),
    ("engine.steps_per_s", "1/s"),
    ("oracle.queries", "count"),
    ("oracle.query_s", "s"),
    ("extraction.incremental_s", "s"),
    ("extraction.full_replay_s", "s"),
    ("extraction.evals_incremental", "count"),
    ("extraction.evals_full_replay", "count"),
    ("extraction.samples_consumed", "count"),
    ("extraction.incremental_ratio", "ratio"),
    ("artifact.json_s", "s"),
    ("artifact.replay_calls", "count"),
    ("artifact.replay_s", "s"),
    ("artifact.shrink_s", "s"),
    ("artifact.shrink_candidates", "count"),
    ("trace.overhead_ratio", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced rep, every name in [`PER_LAYER`]
/// except `trace.overhead_ratio` (which needs the untraced reps).
pub fn per_layer(rec: &Recording) -> BTreeMap<&'static str, f64> {
    let counter = |id: CounterId| rec.obs.counter(id) as f64;
    let phase_s = |id: PhaseId| rec.obs.phase(id).map_or(0.0, |p| p.nanos as f64 / 1e9);
    let spans_s = |name: &str| -> f64 {
        rec.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.secs())
    };
    let calls = |op: Op| rec.calls.calls(op) as f64;
    let secs = |op: Op| rec.calls.nanos(op) as f64 / 1e9;
    let note = |key: &str| rec.notes.get(key).copied().unwrap_or(0.0);

    let visited = counter(CounterId::ExploreStatesVisited);
    let hits = counter(CounterId::ExploreDedupHits);
    let incremental = counter(CounterId::ForestEvalsIncremental);
    let full_replay = counter(CounterId::ForestEvalsFullReplay);
    let steps = counter(CounterId::EngineSteps);
    let run_s = phase_s(PhaseId::EngineRun);

    let mut m = BTreeMap::new();
    m.insert("explore.call_s", spans_s("explore"));
    m.insert("explore.key_s", phase_s(PhaseId::ExploreKey));
    m.insert("explore.revisit_s", phase_s(PhaseId::ExploreRevisit));
    m.insert("explore.oracle_s", phase_s(PhaseId::ExploreOracle));
    m.insert("explore.expand_s", phase_s(PhaseId::ExploreExpand));
    m.insert("explore.merge_s", phase_s(PhaseId::ExploreMerge));
    m.insert("explore.states_visited", visited);
    m.insert("explore.batches", counter(CounterId::ExploreBatches));
    m.insert(
        "explore.dedup_entries",
        counter(CounterId::ExploreDedupEntries),
    );
    m.insert("explore.dedup_hits", hits);
    m.insert("explore.dedup_hit_ratio", ratio(hits, hits + visited));
    m.insert(
        "explore.symmetry_hits",
        counter(CounterId::ExploreSymmetryHits),
    );
    m.insert("explore.dpor_pruned", counter(CounterId::ExploreDporPruned));
    m.insert("protocol.handler_calls", calls(Op::Handler));
    m.insert("protocol.handler_s", secs(Op::Handler));
    m.insert("protocol.clone_calls", calls(Op::Clone));
    m.insert("protocol.clone_s", secs(Op::Clone));
    m.insert("protocol.render_calls", calls(Op::Render));
    m.insert("protocol.render_s", secs(Op::Render));
    m.insert("protocol.render_bytes", rec.calls.render_bytes as f64);
    m.insert("protocol.permute_calls", calls(Op::Permute));
    m.insert("protocol.footprint_calls", calls(Op::Footprint));
    m.insert("protocol.footprint_s", secs(Op::Footprint));
    m.insert("protocol.prop_calls", calls(Op::Prop));
    m.insert("protocol.prop_s", secs(Op::Prop));
    m.insert("spec.calls", calls(Op::Spec));
    m.insert("spec.s", secs(Op::Spec));
    m.insert("liveness.call_s", spans_s("check_liveness"));
    for key in [
        "liveness.self_s",
        "liveness.graph_states",
        "liveness.graph_edges",
        "liveness.product_states",
        "liveness.buchi_states",
        "artifact.shrink_candidates",
    ] {
        m.insert(key, note(key));
    }
    m.insert("engine.run_s", run_s);
    m.insert("engine.steps", steps);
    m.insert(
        "engine.messages_delivered",
        counter(CounterId::EngineMessagesDelivered),
    );
    m.insert("engine.steps_per_s", ratio(steps, run_s));
    m.insert("oracle.queries", calls(Op::Query));
    m.insert("oracle.query_s", secs(Op::Query));
    m.insert(
        "extraction.incremental_s",
        phase_s(PhaseId::ForestEvalIncremental),
    );
    m.insert(
        "extraction.full_replay_s",
        phase_s(PhaseId::ForestEvalFullReplay),
    );
    m.insert("extraction.evals_incremental", incremental);
    m.insert("extraction.evals_full_replay", full_replay);
    m.insert(
        "extraction.samples_consumed",
        counter(CounterId::ForestSamplesConsumed),
    );
    m.insert(
        "extraction.incremental_ratio",
        ratio(incremental, incremental + full_replay),
    );
    m.insert("artifact.json_s", spans_s("json"));
    m.insert(
        "artifact.replay_calls",
        rec.spans.iter().filter(|s| s.name == "replay").count() as f64,
    );
    m.insert("artifact.replay_s", spans_s("replay"));
    m.insert("artifact.shrink_s", spans_s("shrink"));
    m
}

/// `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `statistics.quantiles(values, n=4)` (the default exclusive method):
/// the first quartile, the median and the third quartile.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = ld + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    ratio(q3 - q1, median(values).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
