//! The process automaton abstraction: [`Protocol`] and its step context
//! [`Ctx`] — plus the reduction-facing declarations ([`Symmetry`],
//! [`Permutation`]) that let the bounded explorer prove states
//! equivalent without executing them.

use crate::id::{ProcessId, Time};
use std::fmt::Debug;

/// A footprint declaration, kept only so callers that still build one
/// compile. Nothing reads it: the explorer reduces by process symmetry
/// alone ([`Symmetry`]).
#[deprecated(
    since = "0.7.0",
    note = "inert: nothing reads footprints since sleep-set DPOR was removed; the \
            benchmark-only change (ROADMAP item 1) drops the last use and the next \
            change deletes this type"
)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint;

#[allow(deprecated)]
impl Footprint {
    /// An inert footprint.
    pub fn local() -> Self {
        Footprint
    }

    /// Returns `self` unchanged.
    pub fn sends_to(self, _p: ProcessId) -> Self {
        self
    }

    /// Returns `self` unchanged.
    pub fn sends_to_others(self, _n: usize, _me: ProcessId) -> Self {
        self
    }
}

/// The kind of step a [`Protocol::footprint`] declaration was asked
/// about. Kept only so callers that still match on it compile; neither
/// the explorer nor the engine builds one.
#[deprecated(
    since = "0.7.0",
    note = "inert: nothing builds step kinds since sleep-set DPOR was removed; the \
            benchmark-only change (ROADMAP item 1) drops the last use and the next \
            change deletes this type"
)]
#[derive(Debug)]
pub enum StepKind<'a, P: Protocol> {
    /// The process's first step: `on_start`, then `on_invoke` if an
    /// invocation is pending.
    Start {
        /// The pending invocation that will be delivered, if any.
        inv: Option<&'a P::Inv>,
    },
    /// A λ step (`on_tick`).
    Tick,
    /// Delivery of `msg` from `from` (`on_message`).
    Deliver {
        /// The sender recorded with the pending message.
        from: ProcessId,
        /// The message that would be delivered.
        msg: &'a P::Msg,
    },
}

/// A bijection on process ids, written as the image table: `map[i]` is
/// the id process `i` is renamed to. Built by [`Symmetry::permutations`];
/// applied to states by the explorer's symmetry canonicalization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    map: Vec<usize>,
}

impl Permutation {
    /// The identity on `n` processes.
    pub fn identity(n: usize) -> Self {
        Permutation {
            map: (0..n).collect(),
        }
    }

    /// Build from an image table (`map[i]` = image of process `i`). The
    /// table must be a bijection on `0..map.len()`.
    pub fn from_map(map: Vec<usize>) -> Self {
        let n = map.len();
        let mut seen = vec![false; n];
        for &img in &map {
            assert!(img < n && !seen[img], "not a bijection on 0..{n}: {map:?}");
            seen[img] = true;
        }
        Permutation { map }
    }

    /// The number of processes this permutation acts on.
    pub fn n(&self) -> usize {
        self.map.len()
    }

    /// The image of `p`.
    pub fn apply(&self, p: ProcessId) -> ProcessId {
        ProcessId(self.map[p.index()])
    }

    /// The preimage table: `inverse()[j]` is the process mapped *to* `j`.
    pub fn inverse_map(&self) -> Vec<usize> {
        let mut inv = vec![0; self.map.len()];
        for (i, &img) in self.map.iter().enumerate() {
            inv[img] = i;
        }
        inv
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &img)| i == img)
    }
}

/// The process-id symmetry group a protocol declares — the set of
/// renamings under which its behavior is *equivariant*: renaming the
/// processes of a reachable state by any group element yields a state
/// whose futures are the same renaming of the original's futures.
///
/// Declaring symmetry is a soundness claim. It holds when handler
/// behavior depends on ids only through the declared structure (e.g.
/// "reply to the sender" is fine under [`Symmetry::Full`]; "send to
/// `me + 1`" is equivariant only under [`Symmetry::Cyclic`]) and when
/// every embedded id in local state, messages and outputs is rewritten by
/// the [`Protocol::permute`]/[`Protocol::permute_msg`]/
/// [`Protocol::permute_output`] hooks. The explorer additionally
/// restricts the group to elements that preserve the failure pattern and
/// the initial invocation vector, so asymmetric *scenarios* never
/// inherit a symmetric protocol's full group.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Symmetry {
    /// No declared symmetry (the default): only the identity.
    #[default]
    Trivial,
    /// Rotations `p ↦ p + k (mod n)` — ring topologies.
    Cyclic,
    /// Every permutation of the `n` ids — fully id-agnostic protocols
    /// (broadcast + reply-to-sender structure, id-free payloads or
    /// payloads rewritten by the permute hooks).
    Full,
}

/// Enumerating [`Symmetry::Full`] costs `n!` candidate permutations per
/// keyed state; above this bound the explorer falls back to the cyclic
/// subgroup, which stays linear in `n`.
pub const FULL_SYMMETRY_MAX_N: usize = 6;

impl Symmetry {
    /// The group's elements on `n` processes, identity first, in a fixed
    /// deterministic order. [`Symmetry::Full`] falls back to the cyclic
    /// subgroup above [`FULL_SYMMETRY_MAX_N`] processes (factorial blowup).
    pub fn permutations(&self, n: usize) -> Vec<Permutation> {
        match self {
            Symmetry::Trivial => vec![Permutation::identity(n)],
            Symmetry::Cyclic => (0..n.max(1))
                .map(|k| Permutation {
                    map: (0..n).map(|i| (i + k) % n.max(1)).collect(),
                })
                .collect(),
            Symmetry::Full if n > FULL_SYMMETRY_MAX_N => Symmetry::Cyclic.permutations(n),
            Symmetry::Full => {
                // Lexicographic enumeration of all image tables, identity
                // first (the identity is lexicographically least).
                let mut out = Vec::new();
                let mut map: Vec<usize> = (0..n).collect();
                loop {
                    out.push(Permutation { map: map.clone() });
                    // Next lexicographic permutation, or stop.
                    let Some(i) = (0..n.saturating_sub(1))
                        .rev()
                        .find(|&i| map[i] < map[i + 1])
                    else {
                        break;
                    };
                    let j = (i + 1..n).rev().find(|&j| map[j] > map[i]).expect("succ");
                    map.swap(i, j);
                    map[i + 1..].reverse();
                }
                out
            }
        }
    }
}

/// A distributed algorithm, written as one automaton per process.
///
/// One value of the implementing type is instantiated per process; the
/// engine drives it through atomic steps exactly as in the paper's model:
/// in one step a process receives a message (or the empty message λ),
/// queries its failure detector, sends messages and changes state.
///
/// * [`on_start`](Protocol::on_start) runs as the process's first step.
/// * [`on_message`](Protocol::on_message) runs when the step delivers a
///   message.
/// * [`on_tick`](Protocol::on_tick) runs when the step delivers λ.
/// * [`on_invoke`](Protocol::on_invoke) runs when the harness injects an
///   operation invocation (e.g. `read`, `write(v)`, `propose(v)`) — this
///   models the application layer calling into the algorithm.
///
/// Handlers interact with the world exclusively through [`Ctx`], which makes
/// protocols trivially testable in isolation (see [`Ctx::detached`]).
///
/// # Handler contract
///
/// A handler's effect — the new local state, the sends in order and the
/// outputs — must be a function of `self`, the step (the delivered
/// `(from, msg)`, or the invocation) and [`Ctx::me`], [`Ctx::n`],
/// [`Ctx::now`] and [`Ctx::fd`]; no global state, interior mutability or
/// randomness. The explorer and the liveness checker rely on it: they
/// memoize each step by the actor's state key, the delivered message's
/// key and the step time, and replay the recorded effect's keys for an
/// equal step instead of rendering its result (see the
/// [explorer's performance model](mod@crate::explore#performance-model)). A
/// memoized effect that does not fit the successor's inboxes panics.
pub trait Protocol: Sized {
    /// Message type exchanged between processes.
    type Msg: Clone + Debug;
    /// Observable outputs (decisions, responses, emitted detector values).
    type Output: Clone + Debug;
    /// Operation invocations injected by the harness.
    type Inv: Clone + Debug;
    /// The failure detector value this protocol queries each step.
    ///
    /// `PartialEq` is required because symmetry reduction keeps a
    /// renaming only when the detector answers *structurally* equal
    /// values at the processes it swaps — a `Debug` rendering is not a
    /// sound proxy (distinct values may print alike).
    type Fd: Clone + Debug + PartialEq;

    /// First step of the process.
    fn on_start(&mut self, _ctx: &mut Ctx<Self>) {}

    /// A step in which message `msg` from `from` is received.
    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: Self::Msg);

    /// A step in which the empty message λ is received.
    fn on_tick(&mut self, _ctx: &mut Ctx<Self>) {}

    /// A step in which the application invokes an operation.
    fn on_invoke(&mut self, _ctx: &mut Ctx<Self>, _inv: Self::Inv) {}

    // -- Reduction declarations (all optional, defaults are sound) -------

    /// Inert: nothing calls it. Kept only so impls that still override it
    /// compile.
    #[deprecated(
        since = "0.7.0",
        note = "inert: nothing calls footprint since sleep-set DPOR was removed; the \
                benchmark-only change (ROADMAP item 1) drops the last impl and the next \
                change deletes this method"
    )]
    #[allow(deprecated)]
    fn footprint(&self, _me: ProcessId, _n: usize, _step: StepKind<'_, Self>) -> Footprint {
        Footprint::local()
    }

    /// The process-id symmetry group this protocol is equivariant under
    /// (see [`Symmetry`]). The default, [`Symmetry::Trivial`], disables
    /// symmetry canonicalization for the protocol. Declaring a larger
    /// group is a soundness claim about the handlers *and* about the
    /// permute hooks below rewriting every embedded id.
    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Trivial
    }

    /// Rewrite every process id embedded in this local state under
    /// `perm`. The default no-op is correct exactly when the state stores
    /// no ids; protocols declaring non-trivial [`Protocol::symmetry`]
    /// with id-bearing state must override it.
    fn permute(&mut self, _perm: &Permutation) {}

    /// Rewrite every process id embedded in a message payload under
    /// `perm` (the id the message is *addressed* with is handled by the
    /// explorer; this hook is for ids inside the payload).
    fn permute_msg(_msg: &mut Self::Msg, _perm: &Permutation) {}

    /// Rewrite every process id embedded in an output value under `perm`
    /// (the emitting process's id is handled by the explorer).
    fn permute_output(_out: &mut Self::Output, _perm: &Permutation) {}

    // -- Temporal-property declarations (optional) -----------------------

    /// Names of the atomic propositions this protocol exposes to the
    /// liveness checker (`wfd_sim::liveness`), in declaration order. LTL
    /// formulas refer to propositions by these names; the index of a name
    /// in this slice is the `prop` argument to
    /// [`eval_prop`](Protocol::eval_prop). At most 32 propositions may be
    /// declared. The default — no propositions — leaves the protocol
    /// checkable only against proposition-free formulas.
    fn props() -> &'static [&'static str] {
        &[]
    }

    /// Evaluate proposition `prop` (an index into
    /// [`props`](Protocol::props)) over a global configuration: the local
    /// state of every process plus the [`PropView`] of who is alive and
    /// who is correct. Propositions must be *state predicates* — pure
    /// functions of the arguments, with no history or hidden inputs — and,
    /// when the protocol declares a non-trivial [`Protocol::symmetry`],
    /// invariant under every permutation in that group (quantify over
    /// processes instead of naming one). The default answers `false` for
    /// every proposition, matching the empty [`props`](Protocol::props).
    fn eval_prop(_prop: usize, _procs: &[Self], _view: &PropView<'_>) -> bool {
        false
    }
}

/// The failure-pattern facts visible to an atomic proposition, alongside
/// the per-process protocol states (see [`Protocol::eval_prop`]).
///
/// Both slices are indexed by process id. `alive` describes the instant
/// the proposition is evaluated at; `correct` is the whole-run fact
/// (never crashes in the pattern under check). Propositions about
/// *eventual* behavior — "all correct processes decide", "the correct
/// processes agree on a leader" — quantify over `correct`; propositions
/// about the current instant quantify over `alive`.
#[derive(Debug, Clone, Copy)]
pub struct PropView<'a> {
    /// `alive[p]`: process `p` has not crashed yet at the evaluation
    /// instant.
    pub alive: &'a [bool],
    /// `correct[p]`: process `p` never crashes in the pattern under
    /// check.
    pub correct: &'a [bool],
}

/// Everything a process may consult or effect during one atomic step.
///
/// A `Ctx` is created by the engine for each step, pre-loaded with the
/// failure detector value sampled for that step, and drained afterwards.
#[derive(Debug)]
pub struct Ctx<P: Protocol> {
    me: ProcessId,
    n: usize,
    now: Time,
    fd: P::Fd,
    sends: Vec<(ProcessId, P::Msg)>,
    outputs: Vec<P::Output>,
}

/// A queue of `(destination, message)` pairs — the engine recycles one
/// such buffer across all steps of a run.
pub type SendBuf<P> = Vec<(ProcessId, <P as Protocol>::Msg)>;

impl<P: Protocol> Ctx<P> {
    /// Build a stand-alone context, e.g. for unit-testing a protocol
    /// handler. To host a protocol inside another protocol (the
    /// transformation algorithms run *n* inner instances), use
    /// [`Ctx::host`], which builds and drains the inner context itself.
    ///
    /// `now` is visible to the harness only; protocols must not use it to
    /// make decisions that the paper's model would disallow (processes
    /// cannot read the global clock), and none of the protocols in this
    /// workspace do.
    pub fn detached(me: ProcessId, n: usize, now: Time, fd: P::Fd) -> Self {
        Self::with_buffers(me, n, now, fd, Vec::new(), Vec::new())
    }

    /// Like [`Ctx::detached`], but reusing previously-allocated send and
    /// output buffers (which must be empty). The engine recycles one pair
    /// of buffers across all steps of a run, so the per-step delivery
    /// loop allocates nothing; recover the buffers with
    /// [`Ctx::into_buffers`].
    pub fn with_buffers(
        me: ProcessId,
        n: usize,
        now: Time,
        fd: P::Fd,
        sends: Vec<(ProcessId, P::Msg)>,
        outputs: Vec<P::Output>,
    ) -> Self {
        debug_assert!(
            sends.is_empty() && outputs.is_empty(),
            "buffers must be empty"
        );
        Ctx {
            me,
            n,
            now,
            fd,
            sends,
            outputs,
        }
    }

    /// Consume the context, returning `(sends, outputs)` with their
    /// queued contents (and their allocations, for recycling).
    pub fn into_buffers(self) -> (SendBuf<P>, Vec<P::Output>) {
        (self.sends, self.outputs)
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// System size `n = |Π|`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The global time of this step (harness-visible only; see
    /// [`Ctx::detached`]).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The failure detector value `d` seen in this step `⟨p, m, d⟩`.
    pub fn fd(&self) -> &P::Fd {
        &self.fd
    }

    /// Iterate over all process ids.
    pub fn processes(&self) -> impl DoubleEndedIterator<Item = ProcessId> + Clone {
        ProcessId::all(self.n)
    }

    /// Send `msg` to process `to` (messages to self are delivered through
    /// the network like any other).
    pub fn send(&mut self, to: ProcessId, msg: P::Msg) {
        self.sends.push((to, msg));
    }

    /// Send `msg` to every process, *including* the sender — the "send to
    /// all" of the paper's pseudocode. Fans out with `n − 1` clones (the
    /// last recipient takes the original by move).
    pub fn broadcast(&mut self, msg: P::Msg) {
        self.fan_out(msg, None);
    }

    /// Send `msg` to every process except the sender.
    pub fn broadcast_others(&mut self, msg: P::Msg) {
        self.fan_out(msg, Some(self.me));
    }

    /// Queue `msg` for every process except `skip`, cloning one time
    /// fewer than the recipient count.
    fn fan_out(&mut self, msg: P::Msg, skip: Option<ProcessId>) {
        let mut recipients = ProcessId::all(self.n).filter(|&q| Some(q) != skip);
        let Some(first) = recipients.next() else {
            return;
        };
        let mut carry = first;
        for q in recipients {
            self.sends.push((carry, msg.clone()));
            carry = q;
        }
        self.sends.push((carry, msg));
    }

    /// Emit an observable output (decision, operation response, detector
    /// sample, …). Outputs are recorded in the run trace.
    pub fn output(&mut self, out: P::Output) {
        self.outputs.push(out);
    }

    /// Drain the messages queued by the handler, in send order.
    pub fn take_sends(&mut self) -> Vec<(ProcessId, P::Msg)> {
        std::mem::take(&mut self.sends)
    }

    /// Drain the outputs emitted by the handler, in emission order.
    pub fn take_outputs(&mut self) -> Vec<P::Output> {
        std::mem::take(&mut self.outputs)
    }

    /// Run one step of a protocol `Q` hosted inside this one: `step` gets
    /// a context with this step's [`me`](Ctx::me), [`n`](Ctx::n) and
    /// [`now`](Ctx::now) and the detector value `fd`. Each message the
    /// inner step sends is queued here as `wrap(msg)`, in send order and
    /// after anything already queued; the inner outputs are returned in
    /// emission order and are *not* added to this context's outputs — the
    /// host decides what they mean.
    #[inline]
    pub fn host<Q: Protocol>(
        &mut self,
        fd: Q::Fd,
        mut wrap: impl FnMut(Q::Msg) -> P::Msg,
        step: impl FnOnce(&mut Ctx<Q>),
    ) -> Vec<Q::Output> {
        let mut inner = Ctx::<Q>::detached(self.me, self.n, self.now, fd);
        step(&mut inner);
        for (to, msg) in inner.sends {
            self.send(to, wrap(msg));
        }
        inner.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl Protocol for Echo {
        type Msg = u32;
        type Output = u32;
        type Inv = ();
        type Fd = ();

        fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: u32) {
            ctx.send(from, msg + 1);
            ctx.output(msg);
        }
    }

    #[test]
    fn detached_ctx_collects_sends_and_outputs() {
        let mut p = Echo;
        let mut ctx = Ctx::<Echo>::detached(ProcessId(0), 3, 7, ());
        p.on_message(&mut ctx, ProcessId(2), 41);
        assert_eq!(ctx.me(), ProcessId(0));
        assert_eq!(ctx.n(), 3);
        assert_eq!(ctx.now(), 7);
        assert_eq!(ctx.take_sends(), vec![(ProcessId(2), 42)]);
        assert_eq!(ctx.take_outputs(), vec![41]);
        // Draining twice yields nothing.
        assert!(ctx.take_sends().is_empty());
        assert!(ctx.take_outputs().is_empty());
    }

    /// A protocol hosted by [`Echo`]: it reports the context it ran in.
    struct Probe;

    impl Protocol for Probe {
        type Msg = u32;
        type Output = (ProcessId, usize, Time, char);
        type Inv = ();
        type Fd = char;

        fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: u32) {
            ctx.send(from, msg);
            ctx.output((ctx.me(), ctx.n(), ctx.now(), *ctx.fd()));
            ctx.send(ctx.me(), msg + 1);
            ctx.output((from, 0, 0, '.'));
        }
    }

    #[test]
    fn host_runs_the_inner_step_in_the_hosts_context() {
        let mut ctx = Ctx::<Echo>::detached(ProcessId(1), 4, 9, ());
        ctx.send(ProcessId(3), 7);
        ctx.output(8);
        let outs = ctx.host::<Probe>(
            'x',
            |m| 1000 + m,
            |ictx| Probe.on_message(ictx, ProcessId(2), 5),
        );
        assert_eq!(
            outs,
            vec![(ProcessId(1), 4, 9, 'x'), (ProcessId(2), 0, 0, '.')],
            "the inner step sees the host's me, n and now and the given fd; \
             its outputs come back in order"
        );
        assert_eq!(
            ctx.take_sends(),
            vec![
                (ProcessId(3), 7),
                (ProcessId(2), 1005),
                (ProcessId(1), 1006)
            ],
            "inner sends are wrapped, in order, after the host's own"
        );
        assert_eq!(ctx.take_outputs(), vec![8], "no inner output is emitted");
    }

    #[test]
    fn broadcast_includes_self_broadcast_others_does_not() {
        let mut ctx = Ctx::<Echo>::detached(ProcessId(1), 3, 0, ());
        ctx.broadcast(5);
        let sends = ctx.take_sends();
        assert_eq!(sends.len(), 3);
        assert!(sends.iter().any(|(to, _)| *to == ProcessId(1)));

        ctx.broadcast_others(6);
        let sends = ctx.take_sends();
        assert_eq!(sends.len(), 2);
        assert!(!sends.iter().any(|(to, _)| *to == ProcessId(1)));
    }

    #[test]
    fn processes_enumerates_system() {
        let ctx = Ctx::<Echo>::detached(ProcessId(0), 4, 0, ());
        assert_eq!(ctx.processes().count(), 4);
    }

    #[test]
    fn permutation_apply_inverse_identity() {
        let id = Permutation::identity(4);
        assert!(id.is_identity());
        assert_eq!(id.n(), 4);

        let p = Permutation::from_map(vec![2, 0, 1]);
        assert!(!p.is_identity());
        assert_eq!(p.apply(ProcessId(0)), ProcessId(2));
        assert_eq!(p.apply(ProcessId(2)), ProcessId(1));
        let inv = p.inverse_map();
        // inverse_map()[j] is the preimage of j: p.apply(inv[j]) == j.
        for (j, &pre) in inv.iter().enumerate() {
            assert_eq!(p.apply(ProcessId(pre)), ProcessId(j));
        }
    }

    #[test]
    #[should_panic(expected = "not a bijection")]
    fn permutation_rejects_non_bijections() {
        let _ = Permutation::from_map(vec![0, 0, 2]);
    }

    #[test]
    fn symmetry_groups_enumerate_identity_first() {
        let trivial = Symmetry::Trivial.permutations(3);
        assert_eq!(trivial.len(), 1);
        assert!(trivial[0].is_identity());

        let cyclic = Symmetry::Cyclic.permutations(4);
        assert_eq!(cyclic.len(), 4);
        assert!(cyclic[0].is_identity());
        assert_eq!(cyclic[1].apply(ProcessId(3)), ProcessId(0));

        let full = Symmetry::Full.permutations(3);
        assert_eq!(full.len(), 6);
        assert!(full[0].is_identity());
        // All elements distinct.
        for (i, a) in full.iter().enumerate() {
            for b in &full[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn full_symmetry_falls_back_to_cyclic_past_the_bound() {
        let n = FULL_SYMMETRY_MAX_N + 1;
        let full = Symmetry::Full.permutations(n);
        assert_eq!(full, Symmetry::Cyclic.permutations(n));
        assert_eq!(full.len(), n);
    }
}
