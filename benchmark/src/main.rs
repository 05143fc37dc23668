//! `wfd-benchmark`: time to verdict on five paper-grounded workloads,
//! with a traced per-layer breakdown.
//!
//! ```text
//! wfd-benchmark run [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]]
//!                   [--json PATH] [--smoke]
//! wfd-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! `run` measures each workload in a fresh child process of itself, one
//! at a time, so set-up time and peak memory are per workload. A child
//! sets the workload up several times, then runs reps — every case once
//! each, one thread, closed loop — until `--seconds` have passed, and
//! with `--trace` one more traced rep. It checks every verdict. The
//! parent prints every metric as `workload metric value unit`, then one
//! JSON summary line, and exits non-zero if any case failed. `--json`
//! appends one record per workload for `compare`.

mod metrics;
mod probe;
mod timed;
mod workloads;

use metrics::{median, quartiles, spread, END_TO_END, PER_LAYER};
use probe::{Probe, Span};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use wfd_sim::json::Json;
use workloads::{Case, Outcome, Size, WORKLOADS};

/// `setup_s` is the median of one set-up sample taken before each rep,
/// so set-up and reps see the same host. Each sample is the mean over a
/// batch of set-ups lasting at least this long, so a set-up far shorter
/// than the clock's resolution still reads true.
const SETUP_BATCH_S: f64 = 0.002;

const USAGE: &str = "usage:
  wfd-benchmark run [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] [--json PATH] [--smoke]
  wfd-benchmark compare A.jsonl B.jsonl";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("worker") => worker(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wfd-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Clone, Debug)]
struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    smoke: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workloads: Vec::new(),
            seed: 1,
            seconds: 20.0,
            trace: false,
            json: None,
            smoke: false,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    if !WORKLOADS.contains(&name.as_str()) {
                        return Err(format!("unknown workload '{name}'"));
                    }
                    opts.workloads.push(name);
                }
                "--seed" => {
                    opts.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err("--seconds must be a non-negative number".to_string());
                    }
                    opts.seconds = s;
                }
                "--trace" => {
                    opts.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--json" => opts.json = Some(PathBuf::from(value("--json")?)),
                "--smoke" => opts.smoke = true,
                other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
            }
        }
        if opts.workloads.is_empty() {
            opts.workloads = WORKLOADS.iter().map(|n| n.to_string()).collect();
        }
        Ok(opts)
    }
}

fn num(v: f64) -> Json {
    assert!(v.is_finite(), "metric values are finite");
    Json::Num(format!("{v}"))
}

fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Num(raw) => raw.parse().ok(),
        _ => None,
    }
}

fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn values(map: &BTreeMap<&str, f64>) -> Json {
    obj(map.iter().map(|(k, v)| (*k, num(*v))))
}

// ---------------------------------------------------------------------------
// worker: one workload, in its own process
// ---------------------------------------------------------------------------

/// Verdict bookkeeping over every rep of one child.
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Each case's signature from the first untraced rep.
    signatures: Vec<String>,
}

impl Tally {
    fn add(&mut self, cases: &[Case], outcomes: Vec<Outcome>, traced: bool) {
        let first = self.signatures.is_empty();
        for (i, (case, out)) in cases.iter().zip(outcomes).enumerate() {
            self.attempted += 1;
            let error = if let Err(e) = out.verdict {
                Some(e)
            } else if first {
                None
            } else if out.signature != self.signatures[i] {
                Some(format!(
                    "{} report differs from the first untraced rep:\n  {}\nvs\n  {}",
                    if traced { "traced" } else { "untraced" },
                    out.signature,
                    self.signatures[i]
                ))
            } else {
                None
            };
            if first {
                self.signatures.push(out.signature);
            }
            if let Some(e) = error {
                self.failed += 1;
                self.errors.push(format!("{}: {e}", case.name));
            }
        }
    }
}

/// One rep: every case once. Returns its wall-clock time.
fn rep(cases: &[Case], probe: &mut Probe) -> (f64, Vec<Outcome>) {
    probe.begin("rep", false);
    let t0 = Instant::now();
    let outcomes = cases
        .iter()
        .map(|case| {
            probe.begin(case.name, true);
            let out = (case.run)(probe);
            probe.end();
            out
        })
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    probe.end();
    (secs, outcomes)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the traced rep's spans, each with its self time (duration minus
/// the part its child spans cover).
fn write_trace(workload: &str, seed: u64, spans: &[Span]) -> Result<PathBuf, String> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let spans = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            obj([
                ("id", Json::usize(id)),
                ("name", Json::str(&s.name)),
                ("parent", s.parent.map_or(Json::Null, Json::usize)),
                ("case", s.case.map_or(Json::Null, Json::u64)),
                ("start_ns", Json::u64(s.start_ns)),
                ("end_ns", Json::u64(s.end_ns)),
                ("self_ns", Json::u64(s.end_ns - s.start_ns - child_ns[id])),
                (
                    "counts",
                    obj(s.counts.iter().map(|(k, v)| (k.as_str(), Json::u64(*v)))),
                ),
            ])
        })
        .collect();
    let doc = obj([
        ("workload", Json::str(workload)),
        ("seed", Json::u64(seed)),
        ("spans", Json::Arr(spans)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn worker(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args)?;
    let [name] = opts.workloads.as_slice() else {
        return Err("a worker runs exactly one workload".to_string());
    };
    let size = if opts.smoke { Size::Smoke } else { Size::Full };

    // Mean time of `count` set-ups, and the cases the last one built.
    let setups = |count: usize| -> Result<(f64, Vec<Case>), String> {
        let t0 = Instant::now();
        let mut cases = workloads::setup(name, opts.seed, size)?;
        for _ in 1..count {
            cases = workloads::setup(name, opts.seed, size)?;
        }
        Ok((t0.elapsed().as_secs_f64() / count as f64, cases))
    };
    let mut batch = 1;
    while setups(batch)?.0 * (batch as f64) < SETUP_BATCH_S {
        batch *= 2;
    }

    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        signatures: Vec::new(),
    };
    let mut verdict_samples = Vec::new();
    let mut setup_samples = Vec::new();
    let start = Instant::now();
    let cases = loop {
        let (setup_s, cases) = setups(batch)?;
        setup_samples.push(setup_s);
        let (secs, outcomes) = rep(&cases, &mut Probe::off());
        verdict_samples.push(secs);
        tally.add(&cases, outcomes, false);
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break cases;
        }
    };
    let verdict_s = median(&verdict_samples);

    let mut layers = BTreeMap::new();
    if opts.trace {
        let mut probe = Probe::traced();
        let (secs, outcomes) = rep(&cases, &mut probe);
        tally.add(&cases, outcomes, true);
        let recording = probe.finish().expect("the probe was traced");
        layers = metrics::per_layer(&recording);
        layers.insert("trace.overhead_ratio", secs / verdict_s - 1.0);
        let path = write_trace(name, opts.seed, &recording.spans)?;
        eprintln!("{name}: trace written to {}", path.display());
    }
    for e in &tally.errors {
        eprintln!("{name}: FAILED {e}");
    }

    let e2e = BTreeMap::from([
        ("verdict_s", verdict_s),
        ("setup_s", median(&setup_samples)),
        ("peak_rss_mib", peak_rss_mib()?),
    ]);
    let record = obj([
        ("workload", Json::str(name)),
        ("attempted", Json::u64(tally.attempted)),
        ("failed", Json::u64(tally.failed)),
        ("metrics", values(&e2e)),
        ("per_layer", values(&layers)),
        (
            "verdict_samples",
            Json::Arr(verdict_samples.iter().map(|&x| num(x)).collect()),
        ),
    ]);
    println!("{record}");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// run: one child per workload
// ---------------------------------------------------------------------------

/// What one child reported.
struct Measured {
    workload: String,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
    verdict_samples: Vec<f64>,
}

fn number_map(j: Option<&Json>) -> BTreeMap<String, f64> {
    match j {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| as_f64(v).map(|x| (k.clone(), x)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn measure(workload: &str, opts: &Options) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["worker", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .filter(|_| output.status.success());
    let Some(j) = parsed else {
        // A crashed child fails every case it would have run.
        let size = if opts.smoke { Size::Smoke } else { Size::Full };
        let cases = workloads::setup(workload, opts.seed, size)?.len() as u64;
        eprintln!("{workload}: worker failed ({})", output.status);
        return Ok(Measured {
            workload: workload.to_string(),
            attempted: cases,
            failed: cases,
            metrics: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            verdict_samples: Vec::new(),
        });
    };
    Ok(Measured {
        workload: workload.to_string(),
        attempted: j.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: j.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics: number_map(j.get("metrics")),
        per_layer: number_map(j.get("per_layer")),
        verdict_samples: j
            .get("verdict_samples")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(as_f64).collect())
            .unwrap_or_default(),
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args)?;
    let mut results = Vec::new();
    for workload in &opts.workloads {
        let m = measure(workload, &opts)?;
        let w = &m.workload;
        for (name, unit) in END_TO_END {
            if let Some(v) = m.metrics.get(*name) {
                print!("{w} {name} {v} {unit}");
                if *name == "verdict_s" {
                    let s = &m.verdict_samples;
                    let lo = s.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    print!(" min={lo} max={hi} n={}", s.len());
                }
                println!();
            }
        }
        let fail_ratio = m.failed as f64 / m.attempted.max(1) as f64;
        println!("{w} fail_ratio {fail_ratio} ratio");
        for (name, unit) in PER_LAYER {
            if let Some(v) = m.per_layer.get(*name) {
                println!("{w} {name} {v} {unit}");
            }
        }
        if let Some(path) = &opts.json {
            append_record(path, &m, &opts)?;
        }
        results.push(m);
    }

    let attempted: u64 = results.iter().map(|m| m.attempted).sum();
    let failed: u64 = results.iter().map(|m| m.failed).sum();
    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    let single = results.len() == 1;
    let mut fields = Vec::new();
    for m in &results {
        let source = if opts.trace { &m.per_layer } else { &m.metrics };
        for (name, unit) in catalogue {
            if let Some(v) = source.get(*name) {
                let key = if single {
                    name.to_string()
                } else {
                    format!("{}.{name}", m.workload)
                };
                fields.push((key, obj([("value", num(*v)), ("unit", Json::str(unit))])));
            }
        }
    }
    let summary = obj([
        ("correct", Json::bool(failed == 0)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", Json::Obj(fields)),
    ]);
    println!("{summary}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn append_record(path: &Path, m: &Measured, opts: &Options) -> Result<(), String> {
    let map = |src: &BTreeMap<String, f64>| {
        Json::Obj(src.iter().map(|(k, v)| (k.clone(), num(*v))).collect())
    };
    let record = obj([
        ("workload", Json::str(&m.workload)),
        ("seed", Json::u64(opts.seed)),
        ("trace", Json::bool(opts.trace)),
        ("attempted", Json::u64(m.attempted)),
        ("failed", Json::u64(m.failed)),
        ("metrics", map(&m.metrics)),
        ("per_layer", map(&m.per_layer)),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    writeln!(file, "{record}").map_err(|e| format!("writing {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// compare: two sets of runs against the bounds in BENCHMARK.json
// ---------------------------------------------------------------------------

/// `(name, bound)` of every end-to-end metric `BENCHMARK.json` declares.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err(format!("malformed end_to_end entry: {m}")),
            }
        })
        .collect()
}

/// One side of a comparison: per workload, each metric's values and the
/// failure totals, over the untraced records of a `--json` file.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    attempted: BTreeMap<String, u64>,
    failed: BTreeMap<String, u64>,
}

fn load_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut side = Side::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if rec.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?
            .to_string();
        for (metric, v) in number_map(rec.get("metrics")) {
            side.values
                .entry((workload.clone(), metric))
                .or_default()
                .push(v);
        }
        for (key, totals) in [
            ("attempted", &mut side.attempted),
            ("failed", &mut side.failed),
        ] {
            *totals.entry(workload.clone()).or_default() +=
                rec.get(key).and_then(Json::as_u64).unwrap_or(0);
        }
    }
    Ok(side)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let bounds = bounds()?;
    let (a, b) = (load_side(a)?, load_side(b)?);
    let mut violations = 0;
    let describe = |v: &[f64]| {
        let [q1, med, q3] = quartiles(v);
        format!("{med:.4e} [{q1:.4e}, {q3:.4e}] n={}", v.len())
    };
    println!(
        "workload metric | A median [q1, q3] n | B median [q1, q3] n | change | bound | verdict"
    );
    let workloads: Vec<&String> = a
        .attempted
        .keys()
        .filter(|w| b.attempted.contains_key(*w))
        .collect();
    for w in workloads {
        for (metric, bound) in &bounds {
            let key = (w.clone(), metric.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            // Every end-to-end metric is lower-is-better.
            let change = (mb - ma) / ma;
            let b_always_better = vb.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x))
                < va.iter().fold(f64::INFINITY, |m, &x| m.min(x));
            let verdict = if spread(va) > *bound || spread(vb) > *bound {
                if b_always_better {
                    "improved"
                } else {
                    "unresolved"
                }
            } else if change > *bound {
                violations += 1;
                "REGRESSED"
            } else if change < -bound {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{w} {metric} | {} | {} | {:+.2}% | {:.0}% | {verdict}",
                describe(va),
                describe(vb),
                change * 100.0,
                bound * 100.0
            );
        }
        let ratio = |s: &Side| s.failed[w] as f64 / s.attempted[w].max(1) as f64;
        let (fa, fb) = (ratio(&a), ratio(&b));
        let verdict = if fb > fa {
            violations += 1;
            "REGRESSED"
        } else {
            "unchanged"
        };
        println!("{w} fail_ratio | {fa} | {fb} | | any increase | {verdict}");
    }
    Ok(if violations == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{violations} bound violation(s)");
        ExitCode::FAILURE
    })
}
