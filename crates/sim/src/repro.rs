//! Serializable, replayable counterexample artifacts.
//!
//! When a checker fails — under a randomized schedule or inside the
//! bounded model checker — the run that produced the failure is worth
//! keeping: a [`Repro`] records everything needed to re-execute it
//! byte-identically (system size, fairness bounds, failure pattern,
//! oracle parameters, scheduled invocations and the full scheduler
//! decision log) in a single JSON document, with no external
//! dependencies (see [`crate::json`]).
//!
//! Three kinds of run share the format, distinguished by
//! [`Repro::source`]:
//!
//! * **fuzz** — a [`Sim`](crate::Sim) run recorded through
//!   [`RecordedSchedule`](crate::RecordedSchedule); replay builds a
//!   [`ReplaySchedule`] from the decision log.
//! * **explore** — a counterexample branch of
//!   [`explore`](crate::explore()); replay goes through the machine
//!   layer: [`Replay::from_repro`](crate::Replay::from_repro) then
//!   [`Replay::run`](crate::Replay::run).
//! * **liveness** — an accepting lasso of
//!   [`check_liveness`](crate::liveness::check_liveness); replay goes
//!   through [`Replay::run_fair`](crate::Replay::run_fair).
//!
//! The protocol, checker and oracle are recorded *by name* (plus numeric
//! oracle parameters): the artifact stays protocol-agnostic and the
//! harness that owns the named target reconstructs the concrete types
//! (see `wfd-bench`'s fuzz campaign). [`crate::shrink()`] minimizes failing
//! artifacts.

use crate::explore::ExploreDecision;
use crate::failure::FailurePattern;
use crate::id::{ProcessId, Time, MAX_PROCESSES};
use crate::json::{Json, JsonError};
use crate::scheduler::{Adversarial, Decision, RandomFair, ReplaySchedule, RoundRobin, Scheduler};
use crate::SimConfig;
use std::path::{Path, PathBuf};

/// The format tag every artifact carries, bumped on breaking changes.
pub const REPRO_FORMAT: &str = "wfd-repro-v1";

/// A named, buildable scheduling policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`RandomFair`] with its seed and λ-step percentage.
    RandomFair {
        /// PRNG seed.
        seed: u64,
        /// Probability (percent) of λ steps when messages are pending.
        lambda_pct: u32,
    },
    /// [`Adversarial`] with its tie-breaking seed.
    Adversarial {
        /// PRNG seed.
        seed: u64,
    },
    /// The exhaustive explorer — not an engine policy. Present so
    /// explore-sourced repros can state their provenance; replay goes
    /// through [`Replay`](crate::Replay).
    Exhaustive,
}

impl SchedulerSpec {
    /// Instantiate the policy.
    ///
    /// # Panics
    ///
    /// Panics for [`SchedulerSpec::Exhaustive`]: explore-sourced repros
    /// replay via the machine layer ([`Replay`](crate::Replay)), not the
    /// engine.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerSpec::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerSpec::RandomFair { seed, lambda_pct } => {
                Box::new(RandomFair::new(seed).with_lambda_pct(lambda_pct))
            }
            SchedulerSpec::Adversarial { seed } => Box::new(Adversarial::new(seed)),
            SchedulerSpec::Exhaustive => {
                panic!("explore-sourced repros replay via wfd_sim::Replay, not the engine")
            }
        }
    }

    /// A short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::RoundRobin => "round-robin",
            SchedulerSpec::RandomFair { .. } => "random-fair",
            SchedulerSpec::Adversarial { .. } => "adversarial",
            SchedulerSpec::Exhaustive => "exhaustive",
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("name".to_string(), Json::str(self.name()))];
        match *self {
            SchedulerSpec::RandomFair { seed, lambda_pct } => {
                fields.push(("seed".to_string(), Json::u64(seed)));
                fields.push(("lambda_pct".to_string(), Json::u64(lambda_pct as u64)));
            }
            SchedulerSpec::Adversarial { seed } => {
                fields.push(("seed".to_string(), Json::u64(seed)));
            }
            SchedulerSpec::RoundRobin | SchedulerSpec::Exhaustive => {}
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("scheduler.name missing")?;
        let seed = || {
            v.get("seed")
                .and_then(Json::as_u64)
                .ok_or("scheduler.seed missing")
        };
        match name {
            "round-robin" => Ok(SchedulerSpec::RoundRobin),
            "random-fair" => {
                let seed = seed()?;
                let pct = v
                    .get("lambda_pct")
                    .and_then(Json::as_u64)
                    .ok_or("scheduler.lambda_pct missing")?;
                let lambda_pct = u32::try_from(pct)
                    .ok()
                    .filter(|&p| p <= 100)
                    .ok_or_else(|| format!("scheduler.lambda_pct {pct} is outside 0..=100"))?;
                Ok(SchedulerSpec::RandomFair { seed, lambda_pct })
            }
            "adversarial" => Ok(SchedulerSpec::Adversarial { seed: seed()? }),
            "exhaustive" => Ok(SchedulerSpec::Exhaustive),
            other => Err(format!("unknown scheduler '{other}'")),
        }
    }
}

/// A named failure-detector oracle plus its numeric parameters.
///
/// The artifact does not embed oracle *state* — oracles are deterministic
/// functions of `(pattern, params)` — only what is needed to rebuild one.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct OracleSpec {
    /// Oracle family name (e.g. `"omega+sigma"`, `"none"`).
    pub name: String,
    /// Named numeric parameters (e.g. `stabilize_at`, `seed`).
    pub params: Vec<(String, u64)>,
}

impl OracleSpec {
    /// A spec with no parameters.
    pub fn new(name: &str) -> Self {
        OracleSpec {
            name: name.to_string(),
            params: Vec::new(),
        }
    }

    /// Builder-style: add a named parameter.
    pub fn with(mut self, key: &str, value: u64) -> Self {
        self.params.push((key.to_string(), value));
        self
    }

    /// Look up a parameter.
    pub fn param(&self, key: &str) -> Option<u64> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::str(&self.name)),
            (
                "params".to_string(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::u64(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("oracle.name missing")?
            .to_string();
        let params = match v.get("params") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("oracle.params.{k} is not a u64"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        Ok(OracleSpec { name, params })
    }
}

/// Which kind of run produced the artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReproSource {
    /// A recorded [`Sim`](crate::Sim) run (engine semantics).
    Fuzz,
    /// A counterexample branch of [`explore`](crate::explore()).
    Explore,
    /// An accepting lasso found by the liveness checker
    /// ([`check_liveness`](crate::liveness::check_liveness)).
    Liveness,
}

/// One scheduled operation invocation, payload rendered as a string (the
/// target protocol's harness knows how to parse it back).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproInvocation {
    /// Invoked process.
    pub pid: usize,
    /// Earliest time the invocation may be consumed.
    pub at: Time,
    /// The invocation payload (e.g. a proposal value), stringly typed.
    pub payload: String,
}

/// The decision log of the recorded run, in the vocabulary of its source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReproDecisions {
    /// Engine consultations ([`ReproSource::Fuzz`]): actor picks and
    /// message-id picks, in [`crate::RecordedSchedule`] order.
    Engine(Vec<Decision>),
    /// Explorer steps ([`ReproSource::Explore`]): `(actor, inbox index)`
    /// pairs, flat and oldest-first. This is the *materialized* form the
    /// explorer exports (internally it keeps decisions as shared-prefix
    /// chains); it is exactly what
    /// [`Replay::run`](crate::Replay::run) consumes.
    Explore(Vec<ExploreDecision>),
    /// A liveness lasso ([`ReproSource::Liveness`]): a finite `stem` from
    /// the initial configuration to a recurrent configuration, plus a
    /// non-empty `cycle` that returns to it — together denoting the
    /// infinite fair run `stem · cycleʷ`. Both halves use explorer
    /// decision vocabulary, so `stem ++ cycle` (and any number of further
    /// cycle repetitions) replays through
    /// [`Replay::run`](crate::Replay::run) — or, with the fairness bounds
    /// enforced, through [`Replay::run_fair`](crate::Replay::run_fair).
    Lasso {
        /// Decisions from the initial configuration to the loop head.
        stem: Vec<ExploreDecision>,
        /// Decisions around the loop, back to the same configuration.
        cycle: Vec<ExploreDecision>,
    },
}

impl ReproDecisions {
    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        match self {
            ReproDecisions::Engine(d) => d.len(),
            ReproDecisions::Explore(d) => d.len(),
            ReproDecisions::Lasso { stem, cycle } => stem.len() + cycle.len(),
        }
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The log with `[start, end)` removed — the shrinker's chunk-deletion
    /// primitive.
    pub fn without_range(&self, start: usize, end: usize) -> Self {
        fn cut<T: Clone>(d: &[T], start: usize, end: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(d.len().saturating_sub(end - start));
            out.extend_from_slice(&d[..start]);
            out.extend_from_slice(&d[end.min(d.len())..]);
            out
        }
        match self {
            ReproDecisions::Engine(d) => ReproDecisions::Engine(cut(d, start, end)),
            ReproDecisions::Explore(d) => ReproDecisions::Explore(cut(d, start, end)),
            // Piecewise over the concatenation `stem ++ cycle`: indices
            // below `stem.len()` cut the stem, the rest cut the cycle.
            ReproDecisions::Lasso { stem, cycle } => {
                let clamp = |d: &[ExploreDecision], lo: usize| {
                    let s = start.saturating_sub(lo).min(d.len());
                    let e = end.saturating_sub(lo).min(d.len());
                    cut(d, s, e)
                };
                ReproDecisions::Lasso {
                    stem: clamp(stem, 0),
                    cycle: clamp(cycle, stem.len()),
                }
            }
        }
    }

    /// The engine decision log, if this is a fuzz-sourced artifact.
    pub fn as_engine(&self) -> Option<&[Decision]> {
        match self {
            ReproDecisions::Engine(d) => Some(d),
            _ => None,
        }
    }

    /// The explorer decision list, if this is an explore-sourced artifact.
    pub fn as_explore(&self) -> Option<&[ExploreDecision]> {
        match self {
            ReproDecisions::Explore(d) => Some(d),
            _ => None,
        }
    }

    /// The `(stem, cycle)` halves, if this is a liveness lasso.
    pub fn as_lasso(&self) -> Option<(&[ExploreDecision], &[ExploreDecision])> {
        match self {
            ReproDecisions::Lasso { stem, cycle } => Some((stem, cycle)),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        match self {
            ReproDecisions::Engine(d) => Json::Arr(
                d.iter()
                    .map(|dec| match dec {
                        Decision::Actor(p) => {
                            Json::Obj(vec![("actor".to_string(), Json::usize(p.index()))])
                        }
                        Decision::Deliver(Some(id)) => {
                            Json::Obj(vec![("deliver".to_string(), Json::u64(*id))])
                        }
                        Decision::Deliver(None) => {
                            Json::Obj(vec![("deliver".to_string(), Json::Null)])
                        }
                    })
                    .collect(),
            ),
            ReproDecisions::Explore(d) => explore_steps_to_json(d),
            ReproDecisions::Lasso { stem, cycle } => Json::Obj(vec![
                ("stem".to_string(), explore_steps_to_json(stem)),
                ("cycle".to_string(), explore_steps_to_json(cycle)),
            ]),
        }
    }

    fn from_json(v: &Json, source: ReproSource) -> Result<Self, String> {
        match source {
            ReproSource::Fuzz => {
                let items = v.as_array().ok_or("decisions is not an array")?;
                let mut out = Vec::with_capacity(items.len());
                for d in items {
                    if let Some(actor) = d.get("actor") {
                        out.push(Decision::Actor(ProcessId(
                            actor.as_usize().ok_or("decision.actor is not an index")?,
                        )));
                    } else if let Some(deliver) = d.get("deliver") {
                        out.push(Decision::Deliver(if deliver.is_null() {
                            None
                        } else {
                            Some(deliver.as_u64().ok_or("decision.deliver is not a u64")?)
                        }));
                    } else {
                        return Err("engine decision without actor/deliver".to_string());
                    }
                }
                Ok(ReproDecisions::Engine(out))
            }
            ReproSource::Explore => Ok(ReproDecisions::Explore(explore_steps_from_json(v)?)),
            ReproSource::Liveness => Ok(ReproDecisions::Lasso {
                stem: explore_steps_from_json(v.get("stem").ok_or("decisions.stem missing")?)?,
                cycle: explore_steps_from_json(v.get("cycle").ok_or("decisions.cycle missing")?)?,
            }),
        }
    }
}

/// Encode explorer decisions as the `{"step": p, "msg": i|null}` array
/// shared by the explore and lasso variants.
fn explore_steps_to_json(d: &[ExploreDecision]) -> Json {
    Json::Arr(
        d.iter()
            .map(|(p, choice)| {
                Json::Obj(vec![
                    ("step".to_string(), Json::usize(p.index())),
                    (
                        "msg".to_string(),
                        match choice {
                            Some(i) => Json::usize(*i),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect(),
    )
}

fn explore_steps_from_json(v: &Json) -> Result<Vec<ExploreDecision>, String> {
    let items = v.as_array().ok_or("decisions is not an array")?;
    let mut out = Vec::with_capacity(items.len());
    for d in items {
        let p = d
            .get("step")
            .and_then(Json::as_usize)
            .ok_or("decision.step missing")?;
        let msg = match d.get("msg") {
            Some(v) if v.is_null() => None,
            Some(v) => Some(v.as_usize().ok_or("decision.msg is not an index")?),
            None => None,
        };
        out.push((ProcessId(p), msg));
    }
    Ok(out)
}

/// A deterministic, self-contained counterexample artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct Repro {
    /// Name of the target protocol (harness-interpreted).
    pub protocol: String,
    /// Name of the violated checker (harness-interpreted).
    pub checker: String,
    /// The checker's violation message at recording time.
    pub violation: String,
    /// System size.
    pub n: usize,
    /// Run horizon (steps) for fuzz runs, depth bound for explore runs.
    pub horizon: u64,
    /// Message-delay fairness bound (engine runs).
    pub max_delay: Time,
    /// Step-gap fairness bound (engine runs).
    pub max_step_gap: Time,
    /// Per-process crash time (`None` = correct) — the failure pattern.
    pub crashes: Vec<Option<Time>>,
    /// How to rebuild the detector oracle.
    pub oracle: OracleSpec,
    /// The policy the run was recorded under (provenance; replay uses the
    /// decision log).
    pub scheduler: SchedulerSpec,
    /// Scheduled operation invocations.
    pub invocations: Vec<ReproInvocation>,
    /// The recorded decision log.
    pub decisions: ReproDecisions,
    /// Which kind of run produced this artifact.
    pub source: ReproSource,
}

impl Repro {
    /// Rebuild the failure pattern.
    pub fn pattern(&self) -> FailurePattern {
        let mut f = FailurePattern::failure_free(self.n);
        for (i, c) in self.crashes.iter().enumerate() {
            if let Some(t) = c {
                f = f.with_crash(ProcessId(i), *t);
            }
        }
        f
    }

    /// Record a failure pattern into the artifact's crash vector.
    pub fn set_pattern(&mut self, pattern: &FailurePattern) {
        self.crashes = (0..pattern.n())
            .map(|i| pattern.crash_time(ProcessId(i)))
            .collect();
    }

    /// The engine configuration of the recorded run (full tracing; trace
    /// mode is not part of the artifact because it never affects the
    /// schedule).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::new(self.n)
            .with_horizon(self.horizon)
            .with_max_delay(self.max_delay.max(1))
            .with_max_step_gap(self.max_step_gap.max(1))
    }

    /// A replayer over the recorded engine decision log.
    ///
    /// # Panics
    ///
    /// Panics on explore-sourced artifacts (their decisions follow
    /// explorer semantics; use [`Replay::from_repro`](crate::Replay::from_repro)
    /// with [`Replay::run`](crate::Replay::run)).
    pub fn replay_schedule(&self) -> ReplaySchedule {
        match &self.decisions {
            ReproDecisions::Engine(d) => ReplaySchedule::new(d.clone()),
            ReproDecisions::Explore(_) => {
                panic!("explore-sourced repro: replay via wfd_sim::Replay")
            }
            ReproDecisions::Lasso { .. } => {
                panic!("liveness-sourced repro: replay via wfd_sim::Replay::run_fair")
            }
        }
    }

    /// Build an artifact from an [`explore`](crate::explore())
    /// counterexample. `max_depth` becomes the horizon.
    pub fn from_explore(
        protocol: &str,
        checker: &str,
        violation: &crate::explore::ExploreViolation,
        max_depth: usize,
        pattern: &FailurePattern,
        oracle: OracleSpec,
    ) -> Self {
        let mut repro = Repro {
            protocol: protocol.to_string(),
            checker: checker.to_string(),
            violation: violation.message.clone(),
            n: pattern.n(),
            horizon: max_depth as u64,
            max_delay: 0,
            max_step_gap: 0,
            crashes: Vec::new(),
            oracle,
            scheduler: SchedulerSpec::Exhaustive,
            invocations: Vec::new(),
            decisions: ReproDecisions::Explore(violation.decisions.clone()),
            source: ReproSource::Explore,
        };
        repro.set_pattern(pattern);
        repro
    }

    /// Build an artifact from a liveness lasso counterexample.
    ///
    /// The artifact stores the checker's fairness bounds in `max_delay` /
    /// `max_step_gap` and the stabilization time in `horizon`, so a
    /// replayer can rebuild the exact fair model the lasso was found in.
    #[allow(clippy::too_many_arguments)] // flat artifact constructor, one field each
    pub fn from_lasso(
        protocol: &str,
        property: &str,
        violation: &str,
        stem: Vec<ExploreDecision>,
        cycle: Vec<ExploreDecision>,
        t_stable: Time,
        max_delay: Time,
        max_step_gap: Time,
        pattern: &FailurePattern,
        oracle: OracleSpec,
    ) -> Self {
        let mut repro = Repro {
            protocol: protocol.to_string(),
            checker: property.to_string(),
            violation: violation.to_string(),
            n: pattern.n(),
            horizon: t_stable,
            max_delay,
            max_step_gap,
            crashes: Vec::new(),
            oracle,
            scheduler: SchedulerSpec::Exhaustive,
            invocations: Vec::new(),
            decisions: ReproDecisions::Lasso { stem, cycle },
            source: ReproSource::Liveness,
        };
        repro.set_pattern(pattern);
        repro
    }

    /// Serialize to pretty-enough JSON (one logical field per line for the
    /// scalar header, compact arrays).
    pub fn to_json(&self) -> String {
        let obj = Json::Obj(vec![
            ("format".to_string(), Json::str(REPRO_FORMAT)),
            (
                "source".to_string(),
                Json::str(match self.source {
                    ReproSource::Fuzz => "fuzz",
                    ReproSource::Explore => "explore",
                    ReproSource::Liveness => "liveness",
                }),
            ),
            ("protocol".to_string(), Json::str(&self.protocol)),
            ("checker".to_string(), Json::str(&self.checker)),
            ("violation".to_string(), Json::str(&self.violation)),
            ("n".to_string(), Json::usize(self.n)),
            ("horizon".to_string(), Json::u64(self.horizon)),
            ("max_delay".to_string(), Json::u64(self.max_delay)),
            ("max_step_gap".to_string(), Json::u64(self.max_step_gap)),
            (
                "crashes".to_string(),
                Json::Arr(
                    self.crashes
                        .iter()
                        .map(|c| match c {
                            Some(t) => Json::u64(*t),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
            ("oracle".to_string(), self.oracle.to_json()),
            ("scheduler".to_string(), self.scheduler.to_json()),
            (
                "invocations".to_string(),
                Json::Arr(
                    self.invocations
                        .iter()
                        .map(|inv| {
                            Json::Obj(vec![
                                ("pid".to_string(), Json::usize(inv.pid)),
                                ("t".to_string(), Json::u64(inv.at)),
                                ("payload".to_string(), Json::str(&inv.payload)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("decisions".to_string(), self.decisions.to_json()),
        ]);
        // One top-level field per line keeps the artifact diffable while
        // leaving the (long) decision array compact.
        let Json::Obj(fields) = &obj else {
            unreachable!()
        };
        let mut out = String::from("{\n");
        for (i, (k, v)) in fields.iter().enumerate() {
            out.push_str(&format!("  {}: {v}", crate::json::escape(k)));
            out.push_str(if i + 1 == fields.len() { "\n" } else { ",\n" });
        }
        out.push('}');
        out
    }

    /// Parse an artifact back from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        let format = v
            .get("format")
            .and_then(Json::as_str)
            .ok_or("format missing")?;
        if format != REPRO_FORMAT {
            return Err(format!("unsupported repro format '{format}'"));
        }
        let source = match v.get("source").and_then(Json::as_str) {
            Some("fuzz") => ReproSource::Fuzz,
            Some("explore") => ReproSource::Explore,
            Some("liveness") => ReproSource::Liveness,
            Some(other) => return Err(format!("bad source '{other}'")),
            None => return Err("source missing".to_string()),
        };
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("{key} missing"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("{key} missing"))
        };
        let crashes = v
            .get("crashes")
            .and_then(Json::as_array)
            .ok_or("crashes missing")?
            .iter()
            .map(|c| {
                if c.is_null() {
                    Ok(None)
                } else {
                    c.as_u64().map(Some).ok_or("crash time is not a u64")
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let invocations = match v.get("invocations").and_then(Json::as_array) {
            Some(items) => items
                .iter()
                .map(|inv| {
                    Ok(ReproInvocation {
                        pid: inv
                            .get("pid")
                            .and_then(Json::as_usize)
                            .ok_or("invocation.pid missing")?,
                        at: inv
                            .get("t")
                            .and_then(Json::as_u64)
                            .ok_or("invocation.t missing")?,
                        payload: inv
                            .get("payload")
                            .and_then(Json::as_str)
                            .ok_or("invocation.payload missing")?
                            .to_string(),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        let n = v.get("n").and_then(Json::as_usize).ok_or("n missing")?;
        if n > MAX_PROCESSES {
            return Err(format!("n = {n} exceeds MAX_PROCESSES = {MAX_PROCESSES}"));
        }
        if crashes.len() != n {
            return Err(format!("crashes has {} entries, n = {n}", crashes.len()));
        }
        Ok(Repro {
            protocol: str_field("protocol")?,
            checker: str_field("checker")?,
            violation: str_field("violation")?,
            n,
            horizon: u64_field("horizon")?,
            max_delay: u64_field("max_delay")?,
            max_step_gap: u64_field("max_step_gap")?,
            crashes,
            oracle: OracleSpec::from_json(v.get("oracle").ok_or("oracle missing")?)?,
            scheduler: SchedulerSpec::from_json(v.get("scheduler").ok_or("scheduler missing")?)?,
            invocations,
            decisions: ReproDecisions::from_json(
                v.get("decisions").ok_or("decisions missing")?,
                source,
            )?,
            source,
        })
    }

    /// A deterministic artifact file name:
    /// `repro-<protocol>-<content hash>.json`.
    pub fn file_name(&self) -> String {
        // FNV-1a over the serialized artifact: stable across runs, unique
        // enough to keep distinct counterexamples from clobbering each
        // other.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json().bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("repro-{}-{hash:016x}.json", self.protocol)
    }

    /// Write the artifact into `dir` (created if missing) under
    /// [`Repro::file_name`]; returns the full path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Load an artifact from a file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fuzz_repro() -> Repro {
        Repro {
            protocol: "consensus-omega-sigma".to_string(),
            checker: "agreement+validity".to_string(),
            violation: "agreement violated: [10, 20]".to_string(),
            n: 3,
            horizon: 500,
            max_delay: 12,
            max_step_gap: 12,
            crashes: vec![None, Some(17), None],
            oracle: OracleSpec::new("omega+sigma")
                .with("stabilize_at", 0)
                .with("seed", 9),
            scheduler: SchedulerSpec::RandomFair {
                seed: 42,
                lambda_pct: 25,
            },
            invocations: vec![
                ReproInvocation {
                    pid: 0,
                    at: 0,
                    payload: "10".to_string(),
                },
                ReproInvocation {
                    pid: 1,
                    at: 0,
                    payload: "20".to_string(),
                },
            ],
            decisions: ReproDecisions::Engine(vec![
                Decision::Actor(ProcessId(0)),
                Decision::Deliver(None),
                Decision::Actor(ProcessId(2)),
                Decision::Deliver(Some(5)),
            ]),
            source: ReproSource::Fuzz,
        }
    }

    #[test]
    fn fuzz_repro_round_trips_through_json() {
        let r = sample_fuzz_repro();
        let parsed = Repro::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn explore_repro_round_trips_through_json() {
        let pattern = FailurePattern::failure_free(2).with_crash(ProcessId(1), 3);
        let violation = crate::explore::ExploreViolation {
            message: "saw a 2".to_string(),
            decisions: vec![
                (ProcessId(0), None),
                (ProcessId(1), Some(0)),
                (ProcessId(1), None),
            ],
        };
        let r = Repro::from_explore(
            "tag",
            "no-2",
            &violation,
            8,
            &pattern,
            OracleSpec::new("none"),
        );
        assert_eq!(r.source, ReproSource::Explore);
        assert_eq!(r.scheduler, SchedulerSpec::Exhaustive);
        assert_eq!(r.pattern(), pattern);
        let parsed = Repro::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.decisions.as_explore().unwrap().len(), 3);
    }

    #[test]
    fn pattern_and_config_rebuild() {
        let r = sample_fuzz_repro();
        let p = r.pattern();
        assert_eq!(p.n(), 3);
        assert_eq!(p.crash_time(ProcessId(1)), Some(17));
        assert!(p.is_correct(ProcessId(0)));
        let cfg = r.sim_config();
        assert_eq!(cfg.n, 3);
        assert_eq!(cfg.horizon, 500);
        assert_eq!(cfg.max_delay, 12);
    }

    #[test]
    fn replay_schedule_matches_decisions() {
        let r = sample_fuzz_repro();
        let mut replay = r.replay_schedule();
        assert_eq!(replay.pick_actor(0, &[ProcessId(0), ProcessId(1)]), 0);
        assert_eq!(replay.divergences(), 0);
    }

    #[test]
    #[should_panic(expected = "replay via wfd_sim::Replay")]
    fn explore_repro_refuses_engine_replay() {
        let violation = crate::explore::ExploreViolation {
            message: "m".to_string(),
            decisions: vec![],
        };
        let r = Repro::from_explore(
            "t",
            "c",
            &violation,
            4,
            &FailurePattern::failure_free(2),
            OracleSpec::new("none"),
        );
        let _ = r.replay_schedule();
    }

    #[test]
    fn scheduler_specs_build_and_round_trip() {
        for spec in [
            SchedulerSpec::RoundRobin,
            SchedulerSpec::RandomFair {
                seed: 7,
                lambda_pct: 10,
            },
            SchedulerSpec::Adversarial { seed: 3 },
            SchedulerSpec::Exhaustive,
        ] {
            let parsed = SchedulerSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(parsed, spec);
            if spec != SchedulerSpec::Exhaustive {
                let mut s = spec.build();
                let idx = s.pick_actor(0, &[ProcessId(0), ProcessId(1)]);
                assert!(idx < 2);
            }
        }
    }

    #[test]
    fn decisions_without_range() {
        let d = ReproDecisions::Engine(vec![
            Decision::Actor(ProcessId(0)),
            Decision::Actor(ProcessId(1)),
            Decision::Actor(ProcessId(2)),
            Decision::Actor(ProcessId(3)),
        ]);
        let cut = d.without_range(1, 3);
        assert_eq!(
            cut.as_engine().unwrap(),
            &[Decision::Actor(ProcessId(0)), Decision::Actor(ProcessId(3))]
        );
        assert_eq!(d.without_range(2, 99).len(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn file_name_is_deterministic_and_distinct() {
        let a = sample_fuzz_repro();
        let mut b = sample_fuzz_repro();
        assert_eq!(a.file_name(), a.file_name());
        b.violation = "different".to_string();
        assert_ne!(a.file_name(), b.file_name());
        assert!(a.file_name().starts_with("repro-consensus-omega-sigma-"));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("wfd-repro-test");
        let r = sample_fuzz_repro();
        let path = r.save(&dir).unwrap();
        let loaded = Repro::load(&path).unwrap();
        assert_eq!(loaded, r);
        std::fs::remove_file(path).ok();
    }

    /// The sample artifact widened to `n` processes, the last one crashed.
    fn repro_with_n(n: usize) -> Repro {
        let mut r = sample_fuzz_repro();
        r.n = n;
        r.crashes = vec![None; n];
        r.crashes[n - 1] = Some(17);
        r
    }

    #[test]
    fn loads_artifacts_up_to_max_processes() {
        let r = repro_with_n(MAX_PROCESSES);
        let json = r.to_json();
        let parsed = Repro::from_json(&json).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), json);
        assert_eq!(parsed.pattern().faulty().len(), 1);
    }

    #[test]
    fn rejects_artifacts_past_max_processes() {
        let err = Repro::from_json(&repro_with_n(MAX_PROCESSES + 1).to_json()).unwrap_err();
        assert!(err.contains("MAX_PROCESSES = 64"), "{err}");
    }

    #[test]
    fn lambda_pct_loads_only_as_a_percentage() {
        let mut r = sample_fuzz_repro();
        r.scheduler = SchedulerSpec::RandomFair {
            seed: 42,
            lambda_pct: 100,
        };
        let json = r.to_json();
        let parsed = Repro::from_json(&json).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), json);
        // 4294967321 is 2^32 + 25: a truncating cast would load it as 25.
        for bad in ["101", "4294967321"] {
            let text = json.replace("\"lambda_pct\": 100", &format!("\"lambda_pct\": {bad}"));
            assert_ne!(text, json);
            let err = Repro::from_json(&text).unwrap_err();
            assert!(err.contains("scheduler.lambda_pct"), "{err}");
        }
    }

    #[test]
    fn rejects_malformed_artifacts() {
        assert!(Repro::from_json("{}").is_err());
        assert!(Repro::from_json("not json").is_err());
        let mut r = sample_fuzz_repro();
        r.crashes.pop();
        assert!(Repro::from_json(&r.to_json())
            .unwrap_err()
            .contains("entries"));
        let bad_format = sample_fuzz_repro()
            .to_json()
            .replace(REPRO_FORMAT, "wfd-repro-v999");
        assert!(Repro::from_json(&bad_format)
            .unwrap_err()
            .contains("unsupported"));
    }
}
