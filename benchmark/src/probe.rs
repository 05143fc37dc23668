//! The per-rep context every case runs against. Untraced, each helper is
//! a direct call into the library. Traced, each helper wraps the
//! processes and the detector in [`crate::timed`] wrappers, attaches an
//! [`Obs`] handle where the library takes one, and records a span around
//! the call. Spans nest rep → case → call; the high-frequency calls inside
//! a span are folded into it as counts and total nanoseconds.

use crate::timed::{self, Counts, Op, Timed, TimedOracle};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;
use wfd_sim::{
    check_liveness, explore, ExploreConfig, ExploreReport, FailurePattern, FdOracle,
    LivenessConfig, LivenessReport, Ltl, MetricsSnapshot, Obs, ProcessId, Protocol, RandomFair,
    Sim, SimConfig, Time, Trace,
};

/// One recorded span. `case` is shared by every span of one case.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub case: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Folded high-frequency calls and `Obs` deltas, non-zero only.
    pub counts: Vec<(String, u64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

struct Open {
    idx: usize,
    counts: Counts,
    obs: MetricsSnapshot,
}

/// Span recorder of a traced rep. Spans stay in memory until the worker
/// writes them out.
pub struct Tracer {
    epoch: Instant,
    obs: Obs,
    spans: Vec<Span>,
    stack: Vec<Open>,
    case: Option<u64>,
    next_case: u64,
    /// Per-layer quantities only the helpers see (model sizes, shrink
    /// candidates, liveness self time), summed over the rep.
    notes: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: String) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().map(|o| o.idx),
            case: self.case,
            start_ns: self.now_ns(),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.stack.push(Open {
            idx,
            counts: Counts::now(),
            obs: self.obs.snapshot().expect("traced runs keep obs on"),
        });
    }

    /// Close the innermost span; returns its duration and the wrapped
    /// calls made inside it.
    fn close(&mut self) -> (f64, Counts) {
        let open = self.stack.pop().expect("close matches an open span");
        let end_ns = self.now_ns();
        let calls = Counts::now().since(&open.counts);
        let obs = self.obs.snapshot().expect("traced runs keep obs on");
        let mut counts = Vec::new();
        for op in Op::ALL {
            counts.push((format!("{}_calls", op.name()), calls.calls(op)));
            counts.push((format!("{}_ns", op.name()), calls.nanos(op)));
        }
        counts.push(("protocol.render_bytes".to_string(), calls.render_bytes));
        for ((id, after), (_, before)) in obs.counters.iter().zip(&open.obs.counters) {
            counts.push((id.name().to_string(), after - before));
        }
        for (after, before) in obs.phases.iter().zip(&open.obs.phases) {
            counts.push((
                format!("{}_ns", after.id.name()),
                after.nanos - before.nanos,
            ));
        }
        counts.retain(|(_, v)| *v > 0);
        let span = &mut self.spans[open.idx];
        span.end_ns = end_ns;
        span.counts = counts;
        (span.secs(), calls)
    }
}

/// Everything a traced rep recorded.
pub struct Recording {
    pub spans: Vec<Span>,
    pub obs: MetricsSnapshot,
    pub calls: Counts,
    pub notes: BTreeMap<&'static str, f64>,
}

/// How one engine run is set up (see [`Probe::sim`]).
pub struct SimSpec<'a, I> {
    pub cfg: SimConfig,
    pub pattern: &'a FailurePattern,
    pub seed: u64,
    /// `(process, time, invocation)` triples, in nondecreasing time per
    /// process.
    pub invokes: Vec<(usize, Time, I)>,
}

pub struct Probe {
    tracer: Option<Tracer>,
    start_calls: Counts,
}

impl Probe {
    pub fn off() -> Probe {
        Probe {
            tracer: None,
            start_calls: Counts::default(),
        }
    }

    pub fn traced() -> Probe {
        Probe {
            tracer: Some(Tracer {
                epoch: Instant::now(),
                obs: Obs::on(),
                spans: Vec::new(),
                stack: Vec::new(),
                case: None,
                next_case: 0,
                notes: BTreeMap::new(),
            }),
            start_calls: Counts::now(),
        }
    }

    pub fn is_traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// The handle to pass where the library takes an [`Obs`].
    pub fn obs(&self) -> Obs {
        self.tracer
            .as_ref()
            .map_or_else(Obs::off, |t| t.obs.clone())
    }

    /// Open a span that is not a call: a rep, or a case (`case = true`
    /// gives it and every span under it a fresh case id).
    pub fn begin(&mut self, name: &str, case: bool) {
        if let Some(t) = &mut self.tracer {
            if case {
                t.case = Some(t.next_case);
                t.next_case += 1;
            }
            t.open(name.to_string());
        }
    }

    pub fn end(&mut self) {
        if let Some(t) = &mut self.tracer {
            t.close();
            if t.stack.last().is_none_or(|o| t.spans[o.idx].case.is_none()) {
                t.case = None;
            }
        }
    }

    /// Add to a per-layer quantity (traced only).
    pub fn note(&mut self, key: &'static str, value: f64) {
        if let Some(t) = &mut self.tracer {
            *t.notes.entry(key).or_default() += value;
        }
    }

    /// Run `f` inside a call span named `name`.
    pub fn call<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.call_counted(name, f).0
    }

    fn call_counted<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64, Counts) {
        match &mut self.tracer {
            None => (f(), 0.0, Counts::default()),
            Some(t) => {
                t.open(name.to_string());
                let out = f();
                let (secs, calls) = self.tracer.as_mut().expect("still traced").close();
                (out, secs, calls)
            }
        }
    }

    /// A spec checker over a finished run.
    pub fn check<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if self.is_traced() {
            self.call("check", || timed::spec(f))
        } else {
            f()
        }
    }

    /// [`explore`] on one thread.
    pub fn explore<P, D>(
        &mut self,
        cfg: ExploreConfig,
        make_procs: impl Fn() -> Vec<P>,
        invocations: Vec<Option<P::Inv>>,
        pattern: &FailurePattern,
        detector: D,
        safety: impl Fn(&[P], &[(ProcessId, P::Output)]) -> Result<(), String> + Sync,
    ) -> ExploreReport
    where
        P: Protocol + Clone + Debug + Send + Sync,
        P::Msg: Send + Sync,
        P::Output: Send + Sync,
        P::Inv: Send + Sync,
        P::Fd: Sync,
        D: FdOracle<Value = P::Fd>,
    {
        let cfg = cfg.with_threads(1);
        if !self.is_traced() {
            return explore(cfg, make_procs, invocations, pattern, detector, safety);
        }
        let cfg = cfg.with_obs(self.obs());
        self.call("explore", || {
            explore(
                cfg,
                || make_procs().into_iter().map(Timed).collect(),
                invocations,
                pattern,
                TimedOracle(detector),
                |procs: &[Timed<P>], outputs: &[(ProcessId, P::Output)]| {
                    timed::spec(|| safety(Timed::peel(procs), outputs))
                },
            )
        })
    }

    /// [`check_liveness`] on one thread.
    pub fn liveness<P, D>(
        &mut self,
        cfg: LivenessConfig,
        make_procs: impl Fn() -> Vec<P>,
        invocations: Vec<Option<P::Inv>>,
        pattern: &FailurePattern,
        detector: D,
        formula: &Ltl,
    ) -> Result<LivenessReport, String>
    where
        P: Protocol + Clone + Debug + PartialEq + Send + Sync,
        P::Msg: PartialEq + Send + Sync,
        P::Inv: PartialEq + Send + Sync,
        P::Output: Send + Sync,
        P::Fd: Send + Sync,
        D: FdOracle<Value = P::Fd>,
    {
        let cfg = cfg.with_threads(1);
        if !self.is_traced() {
            return check_liveness(cfg, make_procs, invocations, pattern, detector, formula);
        }
        let (result, secs, calls) = self.call_counted("check_liveness", || {
            check_liveness(
                cfg,
                || make_procs().into_iter().map(Timed).collect(),
                invocations,
                pattern,
                TimedOracle(detector),
                formula,
            )
        });
        self.note(
            "liveness.self_s",
            secs - calls.protocol_nanos() as f64 / 1e9,
        );
        if let Ok(r) = &result {
            self.note("liveness.graph_states", r.states as f64);
            self.note("liveness.graph_edges", r.edges as f64);
            self.note("liveness.product_states", r.product_states as f64);
            self.note("liveness.buchi_states", r.buchi_states as f64);
        }
        result
    }

    /// One seeded `RandomFair` engine run until `stop` holds or the
    /// horizon; returns the trace. `procs` receives the handle to pass to
    /// processes that take an [`Obs`].
    pub fn sim<P, D>(
        &mut self,
        spec: SimSpec<'_, P::Inv>,
        procs: impl FnOnce(&Obs) -> Vec<P>,
        detector: D,
        stop: impl Fn(&[P]) -> bool,
    ) -> Trace<P::Msg, P::Output>
    where
        P: Protocol,
        D: FdOracle<Value = P::Fd>,
    {
        let obs = self.obs();
        let procs = procs(&obs);
        let SimSpec {
            cfg,
            pattern,
            seed,
            invokes,
        } = spec;
        if !self.is_traced() {
            let mut sim = Sim::new(cfg, procs, pattern.clone(), detector, RandomFair::new(seed));
            for (p, t, inv) in invokes {
                sim.schedule_invoke(ProcessId(p), t, inv);
            }
            sim.run_until(|_, procs| stop(procs));
            return sim.into_parts().3;
        }
        let mut sim = Sim::new(
            cfg.with_obs(obs),
            procs.into_iter().map(Timed).collect(),
            pattern.clone(),
            TimedOracle(detector),
            RandomFair::new(seed),
        );
        for (p, t, inv) in invokes {
            sim.schedule_invoke(ProcessId(p), t, inv);
        }
        self.call("sim.run", || {
            sim.run_until(|_, procs| stop(Timed::peel(procs)));
        });
        sim.into_parts().3
    }

    /// Finish a traced rep (`None` for an untraced one).
    pub fn finish(self) -> Option<Recording> {
        let t = self.tracer?;
        assert!(t.stack.is_empty(), "every span closed");
        Some(Recording {
            spans: t.spans,
            obs: t.obs.snapshot().expect("traced runs keep obs on"),
            calls: Counts::now().since(&self.start_calls),
            notes: t.notes,
        })
    }
}
