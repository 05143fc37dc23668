//! The benchmark's own gates: a smoke-sized run of every workload,
//! untraced and traced, passes every verdict and emits exactly the
//! metrics `BENCHMARK.json` declares; and `BENCHMARK.json` stays within
//! the limits its readers rely on.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;
use wfd_sim::json::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{entry} has a string {key}"))
}

/// `name -> unit` of one metric list.
fn declared(doc: &Json, key: &str) -> BTreeMap<String, String> {
    entries(doc, key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

/// The summary line of a smoke run of every workload.
fn smoke(trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_wfd-benchmark"))
        .args(["run", "--smoke", "--seconds", "0", "--trace", trace])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a summary line");
    Json::parse(last).expect("the summary line is JSON")
}

#[test]
fn smoke_run_passes_and_emits_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    let workloads: BTreeSet<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let summary = smoke(trace);
        assert_eq!(summary.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
        assert!(summary.get("attempted").and_then(Json::as_u64) > Some(0));
        let Some(Json::Obj(metrics)) = summary.get("metrics") else {
            panic!("no metrics object in {summary}");
        };
        let mut emitted: BTreeMap<&str, BTreeMap<String, String>> = BTreeMap::new();
        for (key, value) in metrics {
            // Several workloads: keys are `<workload>.<metric>`, and
            // workload names hold no dot.
            let (workload, name) = key.split_once('.').expect("workload-qualified key");
            let unit = value.get("unit").and_then(Json::as_str).expect("a unit");
            assert!(
                matches!(value.get("value"), Some(Json::Num(_))),
                "{key} has a numeric value"
            );
            emitted
                .entry(workload)
                .or_default()
                .insert(name.to_string(), unit.to_string());
        }
        assert_eq!(
            emitted.keys().copied().collect::<BTreeSet<_>>(),
            workloads,
            "every declared workload ran (trace {trace})"
        );
        for (workload, names) in emitted {
            assert_eq!(
                names,
                declared(&doc, list),
                "{workload} emitted exactly the declared {list} metrics"
            );
        }
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_stays_within_its_limits() {
    let doc = benchmark_json();
    let workloads = entries(&doc, "workloads");
    let end_to_end = entries(&doc, "end_to_end");
    let per_layer = entries(&doc, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));

    let mut seen = BTreeSet::new();
    for entry in workloads.iter().chain(end_to_end).chain(per_layer) {
        let name = field(entry, "name");
        assert!(valid_name(name), "bad name {name:?}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for w in workloads {
        let why = field(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    for m in end_to_end {
        assert_eq!(field(m, "better"), "lower", "{m}");
        let bound: f64 = match m.get("bound") {
            Some(Json::Num(raw)) => raw.parse().expect("numeric bound"),
            _ => panic!("{m} has a bound"),
        };
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(field(setup, "unit"), "s");
}
