//! Delegating wrappers that time and count the high-frequency calls a
//! traced run folds into its case spans: protocol handlers, state clones,
//! `Debug` renders (what the explorer's key phase hashes), permutations,
//! footprints, proposition evaluations, detector queries and safety
//! predicates or checkers.
//!
//! Every wrapper is pure delegation. [`Timed`] renders byte-identically to
//! the process it wraps and forwards every send and output in order, so
//! fingerprints, traversal order and verdicts are those of the unwrapped
//! run — the benchmark checks that on every traced case.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wfd_sim::{
    Ctx, FdOracle, Footprint, Permutation, ProcessId, PropView, Protocol, StepKind, Symmetry, Time,
};

/// One kind of wrapped call.
#[derive(Clone, Copy)]
pub enum Op {
    Handler,
    Clone,
    Render,
    Permute,
    Footprint,
    Prop,
    Query,
    Spec,
}

impl Op {
    pub const ALL: [Op; 8] = [
        Op::Handler,
        Op::Clone,
        Op::Render,
        Op::Permute,
        Op::Footprint,
        Op::Prop,
        Op::Query,
        Op::Spec,
    ];

    /// The per-layer metric prefix the op reports under.
    pub fn name(self) -> &'static str {
        match self {
            Op::Handler => "protocol.handler",
            Op::Clone => "protocol.clone",
            Op::Render => "protocol.render",
            Op::Permute => "protocol.permute",
            Op::Footprint => "protocol.footprint",
            Op::Prop => "protocol.prop",
            Op::Query => "oracle.query",
            Op::Spec => "spec",
        }
    }

    /// Whether the op is protocol code (what `liveness.self_s` subtracts).
    pub fn is_protocol(self) -> bool {
        !matches!(self, Op::Query | Op::Spec)
    }
}

const OPS: usize = Op::ALL.len();

// Statistics only: nothing reads them on a decision path, so relaxed
// ordering is enough.
static CALLS: [AtomicU64; OPS] = [const { AtomicU64::new(0) }; OPS];
static NANOS: [AtomicU64; OPS] = [const { AtomicU64::new(0) }; OPS];
static RENDER_BYTES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide call counters. Differences between two
/// snapshots give the calls made in between.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub calls: [u64; OPS],
    pub nanos: [u64; OPS],
    pub render_bytes: u64,
}

impl Counts {
    pub fn now() -> Counts {
        Counts {
            calls: std::array::from_fn(|i| CALLS[i].load(Ordering::Relaxed)),
            nanos: std::array::from_fn(|i| NANOS[i].load(Ordering::Relaxed)),
            render_bytes: RENDER_BYTES.load(Ordering::Relaxed),
        }
    }

    /// The calls counted since `earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            calls: std::array::from_fn(|i| self.calls[i] - earlier.calls[i]),
            nanos: std::array::from_fn(|i| self.nanos[i] - earlier.nanos[i]),
            render_bytes: self.render_bytes - earlier.render_bytes,
        }
    }

    pub fn calls(&self, op: Op) -> u64 {
        self.calls[op as usize]
    }

    pub fn nanos(&self, op: Op) -> u64 {
        self.nanos[op as usize]
    }

    /// Nanoseconds spent in protocol code.
    pub fn protocol_nanos(&self) -> u64 {
        Op::ALL
            .iter()
            .filter(|op| op.is_protocol())
            .map(|&op| self.nanos(op))
            .sum()
    }
}

/// Run `f`, counting one `op` call and its wall-clock time.
pub fn timed<R>(op: Op, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    let nanos = t0.elapsed().as_nanos() as u64;
    CALLS[op as usize].fetch_add(1, Ordering::Relaxed);
    NANOS[op as usize].fetch_add(nanos, Ordering::Relaxed);
    out
}

/// Time a safety predicate or a spec checker.
pub fn spec<R>(f: impl FnOnce() -> R) -> R {
    timed(Op::Spec, f)
}

/// A process automaton whose handlers, clones, renders, permutations,
/// footprints and propositions are timed and counted.
#[repr(transparent)]
pub struct Timed<P>(pub P);

impl<P> Timed<P> {
    /// View wrapped processes as the processes they wrap.
    pub fn peel(procs: &[Timed<P>]) -> &[P] {
        // SAFETY: `Timed<P>` is `repr(transparent)` over its only field,
        // so `[Timed<P>]` and `[P]` have the same size, alignment and
        // element layout, and the borrow keeps the lifetime of `procs`.
        unsafe { &*(procs as *const [Timed<P>] as *const [P]) }
    }
}

impl<P: Clone> Clone for Timed<P> {
    fn clone(&self) -> Self {
        Timed(timed(Op::Clone, || self.0.clone()))
    }
}

impl<P: PartialEq> PartialEq for Timed<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

/// Forwards to a formatter while counting the bytes written.
struct Counting<'a, 'b> {
    inner: &'a mut fmt::Formatter<'b>,
    bytes: u64,
}

impl fmt::Write for Counting<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes += s.len() as u64;
        self.inner.write_str(s)
    }
}

impl<P: fmt::Debug> fmt::Debug for Timed<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let alternate = f.alternate();
        let mut out = Counting { inner: f, bytes: 0 };
        let result = timed(Op::Render, || {
            if alternate {
                fmt::Write::write_fmt(&mut out, format_args!("{:#?}", self.0))
            } else {
                fmt::Write::write_fmt(&mut out, format_args!("{:?}", self.0))
            }
        });
        RENDER_BYTES.fetch_add(out.bytes, Ordering::Relaxed);
        result
    }
}

/// Run one inner handler on a detached context and drain its sends and
/// outputs, in order, into the outer one.
fn hosted<P: Protocol>(ctx: &mut Ctx<Timed<P>>, handler: impl FnOnce(&mut Ctx<P>)) {
    let mut inner = Ctx::<P>::detached(ctx.me(), ctx.n(), ctx.now(), ctx.fd().clone());
    timed(Op::Handler, || handler(&mut inner));
    let (sends, outputs) = inner.into_buffers();
    for (to, msg) in sends {
        ctx.send(to, msg);
    }
    for out in outputs {
        ctx.output(out);
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;
    type Inv = P::Inv;
    type Fd = P::Fd;

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        hosted(ctx, |c| self.0.on_start(c));
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: P::Msg) {
        hosted(ctx, |c| self.0.on_message(c, from, msg));
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        hosted(ctx, |c| self.0.on_tick(c));
    }

    fn on_invoke(&mut self, ctx: &mut Ctx<Self>, inv: P::Inv) {
        hosted(ctx, |c| self.0.on_invoke(c, inv));
    }

    fn footprint(&self, me: ProcessId, n: usize, step: StepKind<'_, Self>) -> Footprint {
        let step = match step {
            StepKind::Start { inv } => StepKind::Start { inv },
            StepKind::Tick => StepKind::Tick,
            StepKind::Deliver { from, msg } => StepKind::Deliver { from, msg },
        };
        timed(Op::Footprint, || self.0.footprint(me, n, step))
    }

    fn symmetry(n: usize) -> Symmetry {
        P::symmetry(n)
    }

    fn permute(&mut self, perm: &Permutation) {
        timed(Op::Permute, || self.0.permute(perm));
    }

    fn permute_msg(msg: &mut P::Msg, perm: &Permutation) {
        P::permute_msg(msg, perm);
    }

    fn permute_output(out: &mut P::Output, perm: &Permutation) {
        P::permute_output(out, perm);
    }

    fn props() -> &'static [&'static str] {
        P::props()
    }

    fn eval_prop(prop: usize, procs: &[Self], view: &PropView<'_>) -> bool {
        timed(Op::Prop, || P::eval_prop(prop, Timed::peel(procs), view))
    }
}

/// A detector whose queries are timed and counted.
pub struct TimedOracle<D>(pub D);

impl<D: FdOracle> FdOracle for TimedOracle<D> {
    type Value = D::Value;

    fn query(&mut self, p: ProcessId, t: Time) -> D::Value {
        timed(Op::Query, || self.0.query(p, t))
    }
}
