//! The pure transition-system layer every checker shares.
//!
//! The engine ([`Sim`](crate::Sim)), the bounded explorer
//! ([`explore`](crate::explore())), the liveness checker
//! ([`check_liveness`](crate::check_liveness())) and the replayers all
//! execute the *same* small-step semantics: a process takes an atomic
//! step `⟨p, m, d⟩` in which it receives one message (or λ), queries its
//! failure detector, sends messages and changes state. Historically each
//! consumer hand-rolled its own "apply one decision" loop; this module
//! factors that semantics out **once**, polestar-style, as a pure
//! [`Machine`]:
//!
//! * [`Machine`] — `transition(&State, &Action) -> StepResult<State>`
//!   plus an enabled-action enumeration. Pure: no `&mut self`, no hidden
//!   clocks, no I/O — which is what makes expansion shardable and the
//!   action space enumerable (state diagrams, Büchi products,
//!   independence relations all quantify over it).
//! * [`ProtocolMachine`] — the blanket implementation derived from any
//!   [`Protocol`]: crash/detector/inbox semantics in one place. Actions
//!   are [`ExploreDecision`]s; the enabled set follows the *explorer's*
//!   branching rule (λ only when the inbox is empty, so runs cannot
//!   stutter forever).
//! * [`FairMachine`] — the fairness wrapper the liveness checker
//!   composes on top (mirroring the `Checker<M: Machine>` layering of
//!   explicit-state model checkers): states carry step-gap counters and
//!   message ages, and the enabled set follows the *engine's* fair
//!   branching rule (an overdue actor or front message is forced; λ is
//!   always a policy option).
//! * [`Replay`] — the one replay entry point for recorded decision
//!   lists: explorer counterexamples ([`Replay::explore`]), liveness
//!   lassos ([`Replay::lasso`]) and [`Repro`](crate::Repro) artifacts
//!   ([`Replay::from_repro`]). The pre-0.7.0 free functions
//!   `replay_explore`/`replay_lasso` were shims over this type and have
//!   been removed.
//!
//! A step itself has one definition, the crate-internal `step_in_place`,
//! which applies a decision to a state the caller owns. The explorer
//! reaches it through `apply_step_into` (`State::copy_from` the parent
//! into a recycled successor, then step it); [`FairMachine::step_with`]
//! clones a node and steps the clone; and the liveness graph builder
//! calls `FairMachine::step_in_place` on a per-worker scratch node,
//! re-cloning before each step only the slots the previous step touched.
//!
//! The two enabled-set semantics differ deliberately. The explorer elides
//! λ when messages are pending (a receive-agnostic reduction that is
//! complete for safety up to the depth bound), while the fair machine
//! always offers λ alongside the policy-window deliveries (the engine's
//! scheduler could pick it, and liveness must quantify over every fair
//! schedule). Both are deterministic enumerations — process id ascending,
//! then inbox position — so every consumer sees children in the same
//! order at any thread count.

use crate::failure::FailurePattern;
use crate::id::{ProcessId, Time};
use crate::oracle::FdOracle;
use crate::protocol::{Ctx, Protocol, SendBuf};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Actions and results
// ---------------------------------------------------------------------------

/// One exploration step: which process acted, and which of its pending
/// messages it received (`None` ⇒ the first step of the process or a λ
/// step; `Some(i)` ⇒ the message at inbox position `i` at that moment).
pub type ExploreDecision = (ProcessId, Option<usize>);

/// The result of applying one action to a state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepResult<S> {
    /// The action was enabled; here is the successor state.
    Next(S),
    /// The action is not enabled in this state (the actor is crashed or
    /// out of range, or — for [`FairMachine`] — the decision is not
    /// fair-feasible). Replays skip disabled actions, which is what keeps
    /// shrunk decision lists well-defined.
    Disabled,
}

impl<S> StepResult<S> {
    /// The successor state, if the action was enabled.
    pub fn next(self) -> Option<S> {
        match self {
            StepResult::Next(s) => Some(s),
            StepResult::Disabled => None,
        }
    }
}

/// A pure transition system: enabled-action enumeration plus a pure
/// transition function. See the [module docs](self) for the two shipped
/// implementations and who consumes them.
pub trait Machine {
    /// The state type.
    type State;
    /// The action type.
    type Action;

    /// Append every action enabled in `state` to `out` (not cleared), in
    /// the machine's deterministic order.
    fn enabled_into(&self, state: &Self::State, out: &mut Vec<Self::Action>);

    /// Apply `action` to `state`. Pure: same inputs, same successor.
    fn transition(&self, state: &Self::State, action: &Self::Action) -> StepResult<Self::State>;

    /// The enabled actions of `state`, as an iterator (allocating
    /// convenience over [`Machine::enabled_into`]).
    fn enabled_actions(&self, state: &Self::State) -> std::vec::IntoIter<Self::Action> {
        let mut out = Vec::new();
        self.enabled_into(state, &mut out);
        out.into_iter()
    }
}

// ---------------------------------------------------------------------------
// Shared-prefix state representation
// ---------------------------------------------------------------------------

/// One link of the persistent decision list. Children share their entire
/// prefix with the parent state; only the head differs.
pub(crate) struct DecisionNode {
    pub(crate) decision: ExploreDecision,
    pub(crate) parent: Option<Arc<DecisionNode>>,
}

impl Drop for DecisionNode {
    // Unlink iteratively: a naive recursive drop of a depth-D chain
    // overflows the stack for the deep explorations this layer exists
    // to make cheap.
    fn drop(&mut self) {
        let mut link = self.parent.take();
        while let Some(node) = link {
            match Arc::try_unwrap(node) {
                Ok(mut n) => link = n.parent.take(),
                Err(_) => break, // still shared: someone else keeps it alive
            }
        }
    }
}

/// One link of the persistent output-history list.
pub(crate) struct OutputNode<P: Protocol> {
    pub(crate) output: (ProcessId, P::Output),
    pub(crate) parent: Option<Arc<OutputNode<P>>>,
}

impl<P: Protocol> Drop for OutputNode<P> {
    fn drop(&mut self) {
        let mut link = self.parent.take();
        while let Some(node) = link {
            match Arc::try_unwrap(node) {
                Ok(mut n) => link = n.parent.take(),
                Err(_) => break,
            }
        }
    }
}

/// Materialize a decision chain (stored newest-first) into the flat,
/// oldest-first vector that counterexamples and replays use.
pub(crate) fn materialize_decisions(link: &Option<Arc<DecisionNode>>) -> Vec<ExploreDecision> {
    let mut out = Vec::new();
    let mut cur = link.as_deref();
    while let Some(node) = cur {
        out.push(node.decision);
        cur = node.parent.as_deref();
    }
    out.reverse();
    out
}

/// Materialize an output chain into `into` (cleared first), oldest-first.
pub(crate) fn materialize_outputs<P: Protocol>(
    link: &Option<Arc<OutputNode<P>>>,
    len: usize,
    into: &mut Vec<(ProcessId, P::Output)>,
) {
    into.clear();
    into.reserve(len);
    let mut cur = link.as_deref();
    while let Some(node) = cur {
        into.push(node.output.clone());
        cur = node.parent.as_deref();
    }
    into.reverse();
    debug_assert_eq!(into.len(), len);
}

/// One configuration of the transition system: the protocol instances,
/// their inboxes, and the branch bookkeeping (decision and output
/// histories as shared-prefix chains). This is the state type of
/// [`ProtocolMachine`] — the explorer, the replayers and the diagram
/// walker all traverse values of this type.
///
/// Fields are crate-internal (the explorer mutates them in place on its
/// hot path); external consumers read states through the accessors.
pub struct State<P: Protocol> {
    pub(crate) procs: Vec<P>,
    pub(crate) inboxes: Vec<Vec<(ProcessId, P::Msg)>>,
    pub(crate) started: Vec<bool>,
    pub(crate) pending_inv: Vec<Option<P::Inv>>,
    pub(crate) outputs: Option<Arc<OutputNode<P>>>,
    pub(crate) outputs_len: usize,
    pub(crate) depth: usize,
    pub(crate) decisions: Option<Arc<DecisionNode>>,
}

impl<P: Protocol> State<P> {
    /// An empty shell, ready to be [`State::copy_from`]-ed into. Used as
    /// the free-list element when the explorer's arena runs dry.
    pub(crate) fn blank() -> Self {
        State {
            procs: Vec::new(),
            inboxes: Vec::new(),
            started: Vec::new(),
            pending_inv: Vec::new(),
            outputs: None,
            outputs_len: 0,
            depth: 0,
            decisions: None,
        }
    }

    /// Overwrite `self` with a copy of `src`, reusing every allocation
    /// `self` already owns (`clone_from` down to the per-inbox vectors).
    // wfd-lint: allow(d8-machine-purity, mutates only the scratch successor the explorer is filling in; the source state is a shared borrow)
    pub(crate) fn copy_from(&mut self, src: &State<P>)
    where
        P: Clone,
    {
        self.procs.clone_from(&src.procs);
        self.inboxes.clone_from(&src.inboxes);
        self.started.clone_from(&src.started);
        self.pending_inv.clone_from(&src.pending_inv);
        self.outputs.clone_from(&src.outputs);
        self.outputs_len = src.outputs_len;
        self.depth = src.depth;
        self.decisions.clone_from(&src.decisions);
    }

    /// The protocol instances, indexed by process.
    pub fn procs(&self) -> &[P] {
        &self.procs
    }

    /// Steps taken along this branch (the state's logical time).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether process `p` has taken its first step.
    pub fn is_started(&self, p: ProcessId) -> bool {
        self.started[p.index()]
    }

    /// Number of messages pending in `p`'s inbox.
    pub fn inbox_len(&self, p: ProcessId) -> usize {
        self.inboxes[p.index()].len()
    }

    /// The messages pending in `p`'s inbox, in arrival order, each with
    /// its sender.
    pub fn inbox(&self, p: ProcessId) -> &[(ProcessId, P::Msg)] {
        &self.inboxes[p.index()]
    }

    /// Materialize the branch's output history, oldest-first, into `into`
    /// (cleared first).
    pub fn collect_outputs(&self, into: &mut Vec<(ProcessId, P::Output)>) {
        materialize_outputs(&self.outputs, self.outputs_len, into);
    }

    /// Materialize the branch's decision list, oldest-first.
    pub fn collect_decisions(&self) -> Vec<ExploreDecision> {
        materialize_decisions(&self.decisions)
    }
}

/// The initial configuration: fresh processes, empty inboxes, one pending
/// invocation slot per process (consumed at the process's first step).
///
/// # Panics
///
/// Panics if the invocation vector's length differs from the process
/// count.
pub(crate) fn initial_state<P: Protocol>(
    procs: Vec<P>,
    invocations: Vec<Option<P::Inv>>,
) -> State<P> {
    let n = procs.len();
    assert_eq!(invocations.len(), n, "one invocation slot per process");
    State {
        procs,
        inboxes: vec![Vec::new(); n],
        started: vec![false; n],
        pending_inv: invocations,
        outputs: None,
        outputs_len: 0,
        depth: 0,
        decisions: None,
    }
}

// ---------------------------------------------------------------------------
// Step application — where a decision becomes Protocol callbacks
// ---------------------------------------------------------------------------

/// A scheduling decision resolved against a concrete configuration: the
/// four step kinds of the model, ready to dispatch. The engine resolves
/// its scheduler's picks into this (keeping `Invoke` as a separate step
/// kind); the machine layer folds pending invocations into `Start`.
pub(crate) enum ResolvedStep<P: Protocol> {
    /// The process's first step (`on_start`, then `on_invoke` if an
    /// invocation was pending and folded in).
    Start {
        /// The folded-in pending invocation, if any.
        inv: Option<P::Inv>,
    },
    /// A stand-alone invocation step (engine semantics only).
    Invoke(P::Inv),
    /// Delivery of one message.
    Deliver {
        /// The sender.
        from: ProcessId,
        /// The payload.
        msg: P::Msg,
    },
    /// A λ step (the empty message).
    Tick,
}

/// Route one resolved step to the protocol's callbacks. The engine, the
/// explorer, the liveness graph, replays and diagrams all funnel through
/// this single function. Two step executors call the handlers directly
/// instead: `wfd_extraction::Runner::step` (the Figure 3 simulations,
/// outside this crate) and the `explore_baseline` differential oracle,
/// which keeps its own copy of the step on purpose.
pub(crate) fn dispatch<P: Protocol>(proc: &mut P, ctx: &mut Ctx<P>, step: ResolvedStep<P>) {
    match step {
        ResolvedStep::Start { inv } => {
            proc.on_start(ctx);
            if let Some(inv) = inv {
                proc.on_invoke(ctx, inv);
            }
        }
        ResolvedStep::Invoke(inv) => proc.on_invoke(ctx, inv),
        ResolvedStep::Deliver { from, msg } => proc.on_message(ctx, from, msg),
        ResolvedStep::Tick => proc.on_tick(ctx),
    }
}

/// Everything a step needs besides the two states: shared between the
/// parallel expansion workers and the sequential replays.
pub(crate) struct StepEnv<'a> {
    pub(crate) pattern: &'a FailurePattern,
    pub(crate) n: usize,
}

/// Apply one step of `src` into `dst` (overwritten; allocations reused):
/// [`State::copy_from`], then [`step_in_place`]. The explorer's
/// expansion path.
// wfd-lint: allow(d8-machine-purity, dst is the fresh clone being built into the successor; src stays a shared borrow for the whole step)
pub(crate) fn apply_step_into<P>(
    env: &StepEnv<'_>,
    src: &State<P>,
    dst: &mut State<P>,
    p: ProcessId,
    fd: P::Fd,
    choice: Option<usize>,
    bufs: &mut (SendBuf<P>, Vec<P::Output>),
) where
    P: Protocol + Clone,
{
    dst.copy_from(src);
    step_in_place(env, dst, p, fd, choice, bufs);
}

/// Apply one step of process `p` to `state`, in place: the one
/// definition of a step. Callers that keep the source state copy it
/// first ([`apply_step_into`]) or step a scratch copy they own (the
/// liveness graph builder, through [`FairMachine::step_in_place`]).
///
/// `choice` follows the [`ExploreDecision`] convention: `None` for a first
/// step or λ, `Some(i)` for delivery of the message at inbox position `i`.
/// Out-of-range choices are clamped deterministically (oldest message), so
/// shrunk decision lists still define a unique run.
///
/// `fd` is the detector value for this step, sampled by the caller —
/// oracles are pure functions of `(p, t)` (the FdOracle contract), so
/// where the sample happens cannot change the step.
///
/// `bufs` is the recycled `Ctx` send/output buffer pair — one per worker,
/// so steady-state stepping allocates nothing.
// wfd-lint: allow(d8-machine-purity, dst is the fresh clone being built into the successor; src stays a shared borrow for the whole step)
pub(crate) fn step_in_place<P>(
    env: &StepEnv<'_>,
    state: &mut State<P>,
    p: ProcessId,
    fd: P::Fd,
    choice: Option<usize>,
    bufs: &mut (SendBuf<P>, Vec<P::Output>),
) where
    P: Protocol,
{
    let t = state.depth as Time;
    state.depth += 1;
    let mut ctx = Ctx::<P>::with_buffers(
        p,
        env.n,
        t,
        fd,
        std::mem::take(&mut bufs.0),
        std::mem::take(&mut bufs.1),
    );
    let idx = p.index();
    // Resolve the decision against the configuration, then dispatch it —
    // the resolution (start-folding, clamping, inbox removal) lives here;
    // the callback routing lives in [`dispatch`], shared with the engine.
    let decision;
    let step: ResolvedStep<P> = if !state.started[idx] {
        state.started[idx] = true;
        decision = (p, None);
        ResolvedStep::Start {
            inv: state.pending_inv[idx].take(),
        }
    } else {
        let inbox_len = state.inboxes[idx].len();
        match choice {
            Some(i) if inbox_len > 0 => {
                let i = i.min(inbox_len - 1);
                decision = (p, Some(i));
                let (from, msg) = state.inboxes[idx].remove(i);
                ResolvedStep::Deliver { from, msg }
            }
            _ => {
                decision = (p, None);
                ResolvedStep::Tick
            }
        }
    };
    dispatch(&mut state.procs[idx], &mut ctx, step);
    state.decisions = Some(Arc::new(DecisionNode {
        decision,
        parent: state.decisions.take(),
    }));
    let (mut sends, mut outs) = ctx.into_buffers();
    for (to, msg) in sends.drain(..) {
        if !env.pattern.is_crashed(to, t) {
            state.inboxes[to.index()].push((p, msg));
        }
    }
    for out in outs.drain(..) {
        state.outputs = Some(Arc::new(OutputNode {
            output: (p, out),
            parent: state.outputs.take(),
        }));
        state.outputs_len += 1;
    }
    bufs.0 = sends;
    bufs.1 = outs;
}

/// Append the decisions enabled at `state` under the *explorer's*
/// branching rule, in the canonical order every consumer shares: process
/// id ascending; per process, the single `None` decision when the process
/// has not started or its inbox is empty, else one `Some(i)` per pending
/// message (λ is elided while messages are pending — the explorer's
/// receive-agnostic reduction, complete for safety up to the depth
/// bound). Crashed processes contribute nothing.
pub(crate) fn enabled_decisions<P: Protocol>(
    state: &State<P>,
    pattern: &FailurePattern,
    n: usize,
    out: &mut Vec<ExploreDecision>,
) {
    let t = state.depth as Time;
    for p in ProcessId::all(n) {
        if pattern.is_crashed(p, t) {
            continue;
        }
        let idx = p.index();
        if !state.started[idx] || state.inboxes[idx].is_empty() {
            out.push((p, None));
        } else {
            for i in 0..state.inboxes[idx].len() {
                out.push((p, Some(i)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The blanket Protocol machine
// ---------------------------------------------------------------------------

/// Wrap a (mutable, but contractually pure-in-`(p, t)`) detector oracle
/// as the pure per-step sampling function the machines take. The
/// `RefCell` is sound here precisely because of the [`FdOracle`]
/// contract: the answer depends only on `(p, t)`, never on call order.
pub fn oracle_fn<D: FdOracle>(detector: D) -> impl Fn(ProcessId, Time) -> D::Value {
    let cell = RefCell::new(detector);
    move |p, t| cell.borrow_mut().query(p, t)
}

/// The blanket [`Machine`] derived from any [`Protocol`]: crash,
/// detector and inbox semantics factored out of the engine into the
/// machine layer once. States are [`State`]s, actions are
/// [`ExploreDecision`]s, and the enabled set follows the explorer's
/// branching rule (see [module docs](self)).
pub struct ProtocolMachine<'a, P: Protocol, F> {
    pattern: &'a FailurePattern,
    n: usize,
    fd: F,
    _protocol: PhantomData<fn() -> P>,
}

impl<'a, P, F> ProtocolMachine<'a, P, F>
where
    P: Protocol + Clone,
    F: Fn(ProcessId, Time) -> P::Fd,
{
    /// A machine over the given failure pattern; `fd(p, t)` supplies the
    /// detector value for a step of `p` at time `t` (see [`oracle_fn`]).
    pub fn new(pattern: &'a FailurePattern, fd: F) -> Self {
        ProtocolMachine {
            n: pattern.n(),
            pattern,
            fd,
            _protocol: PhantomData,
        }
    }

    /// The initial configuration (see [`State`]); `invocations[p]` is
    /// consumed at `p`'s first step.
    ///
    /// # Panics
    ///
    /// Panics if the invocation vector's length differs from the process
    /// count.
    pub fn initial(&self, procs: Vec<P>, invocations: Vec<Option<P::Inv>>) -> State<P> {
        initial_state(procs, invocations)
    }

    /// The failure pattern this machine runs under.
    pub fn pattern(&self) -> &FailurePattern {
        self.pattern
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl<P, F> Machine for ProtocolMachine<'_, P, F>
where
    P: Protocol + Clone,
    F: Fn(ProcessId, Time) -> P::Fd,
{
    type State = State<P>;
    type Action = ExploreDecision;

    fn enabled_into(&self, state: &State<P>, out: &mut Vec<ExploreDecision>) {
        enabled_decisions(state, self.pattern, self.n, out);
    }

    fn transition(&self, state: &State<P>, action: &ExploreDecision) -> StepResult<State<P>> {
        let &(p, choice) = action;
        if p.index() >= self.n || self.pattern.is_crashed(p, state.depth as Time) {
            return StepResult::Disabled;
        }
        let fd = (self.fd)(p, state.depth as Time);
        let env = StepEnv {
            pattern: self.pattern,
            n: self.n,
        };
        let mut dst = State::blank();
        let mut bufs: (SendBuf<P>, Vec<P::Output>) = (Vec::new(), Vec::new());
        apply_step_into(&env, state, &mut dst, p, fd, choice, &mut bufs);
        StepResult::Next(dst)
    }
}

// ---------------------------------------------------------------------------
// The fairness wrapper
// ---------------------------------------------------------------------------

/// A fair-graph node: the machine state plus the fairness bookkeeping
/// that makes bounded fairness structural. `state.outputs` and
/// `state.decisions` are always cleared (outputs grow without bound over
/// an infinite run and propositions are state predicates) and
/// `state.depth` is clamped at the stabilization time.
pub struct LiveNode<P: Protocol> {
    pub(crate) state: State<P>,
    /// Steps since each process last stepped (or since the run started,
    /// for processes that never stepped); `0` once crashed.
    pub(crate) since: Vec<Time>,
    /// Per-message ages, aligned with `state.inboxes`, saturated at
    /// `max_delay`; zeroed once the owner crashes.
    pub(crate) ages: Vec<Vec<Time>>,
}

impl<P: Protocol> LiveNode<P> {
    /// The underlying machine state.
    pub fn state(&self) -> &State<P> {
        &self.state
    }
}

pub(crate) fn clone_state<P: Protocol + Clone>(src: &State<P>) -> State<P> {
    let mut s = State::blank();
    s.copy_from(src);
    s
}

impl<P: Protocol + Clone> Clone for LiveNode<P> {
    fn clone(&self) -> Self {
        LiveNode {
            state: clone_state(&self.state),
            since: self.since.clone(),
            ages: self.ages.clone(),
        }
    }
}

/// Structural equality of fair-graph nodes (state, counters and ages
/// alike) — the identity the liveness graph's row equality stands for,
/// and what the cycle check of lasso replays compares.
pub(crate) fn node_eq<P>(a: &LiveNode<P>, b: &LiveNode<P>) -> bool
where
    P: Protocol + PartialEq,
    P::Msg: PartialEq,
    P::Inv: PartialEq,
{
    a.since == b.since && a.ages == b.ages && state_eq(&a.state, &b.state)
}

/// Structural equality of configurations, decision and output histories
/// aside — the state half of [`node_eq`], and a diagram node's identity.
pub(crate) fn state_eq<P>(a: &State<P>, b: &State<P>) -> bool
where
    P: Protocol + PartialEq,
    P::Msg: PartialEq,
    P::Inv: PartialEq,
{
    a.depth == b.depth
        && a.started == b.started
        && a.procs == b.procs
        && a.inboxes == b.inboxes
        && a.pending_inv == b.pending_inv
}

/// The fairness wrapper around the protocol semantics: states are
/// [`LiveNode`]s (machine state + step-gap counters + message ages), the
/// enabled set is the *fair* decision set mirroring the engine's
/// `choose_actor`/`choose_message` forcing rules, and transitions
/// maintain the fairness bookkeeping. The liveness checker builds its
/// fair state graph by exhaustively walking this machine; lasso replays
/// walk it one recorded decision at a time.
pub struct FairMachine<'a, P: Protocol, F> {
    pattern: &'a FailurePattern,
    n: usize,
    /// Fairness bound `G`: an alive process steps at least every `G`.
    max_step_gap: Time,
    /// Fairness bound `D`: delivery within `D` steps of sending.
    max_delay: Time,
    /// Graph time freezes here (crashes and the detector must be
    /// stationary past it — validated by the liveness checker).
    t_stable: Time,
    fd: F,
    _protocol: PhantomData<fn() -> P>,
}

impl<'a, P, F> FairMachine<'a, P, F>
where
    P: Protocol + Clone,
{
    /// A fair machine with the given fairness bounds and stabilization
    /// time; `fd(p, t)` supplies detector values (see [`oracle_fn`]).
    pub fn new(
        pattern: &'a FailurePattern,
        max_step_gap: Time,
        max_delay: Time,
        t_stable: Time,
        fd: F,
    ) -> Self {
        FairMachine {
            n: pattern.n(),
            pattern,
            max_step_gap,
            max_delay,
            t_stable,
            fd,
            _protocol: PhantomData,
        }
    }

    /// The initial fair-graph node.
    ///
    /// # Panics
    ///
    /// Panics if the invocation vector's length differs from the process
    /// count.
    pub fn initial(&self, procs: Vec<P>, invocations: Vec<Option<P::Inv>>) -> LiveNode<P> {
        let n = procs.len();
        LiveNode {
            state: initial_state(procs, invocations),
            since: vec![0; n],
            ages: vec![Vec::new(); n],
        }
    }

    /// Append the fair decisions available at `node`, in the engine's
    /// deterministic order: a forced overdue actor (most overdue, lowest
    /// id on ties) or every alive actor; per actor, a forced overdue
    /// front message or every policy-window delivery plus λ.
    pub fn enabled_fair(&self, node: &LiveNode<P>, out: &mut Vec<ExploreDecision>) {
        let t = node.state.depth as Time;
        let n = self.n;
        let alive: Vec<usize> = (0..n)
            .filter(|&q| !self.pattern.is_crashed(ProcessId(q), t))
            .collect();
        let mut forced: Option<usize> = None;
        for &q in &alive {
            if node.since[q] >= self.max_step_gap
                && forced.is_none_or(|f| node.since[q] > node.since[f])
            {
                forced = Some(q);
            }
        }
        let actors: Vec<usize> = match forced {
            Some(f) => vec![f],
            None => alive,
        };
        for q in actors {
            let p = ProcessId(q);
            if !node.state.started[q] {
                out.push((p, None));
                continue;
            }
            let inbox_len = node.state.inboxes[q].len();
            if inbox_len == 0 {
                out.push((p, None));
                continue;
            }
            // The inbox is FIFO (deliveries remove, sends append), so
            // index 0 is the oldest message: overdue ⇒ forced, exactly as
            // the engine.
            if node.ages[q][0] >= self.max_delay {
                out.push((p, Some(0)));
                continue;
            }
            for i in 0..inbox_len.min(crate::engine::POLICY_WINDOW) {
                out.push((p, Some(i)));
            }
            out.push((p, None)); // λ is always a policy option
        }
    }

    /// Apply one fair step with a caller-supplied detector value and
    /// reusable buffers, into a fresh node ([`Machine`]'s `transition`
    /// wraps this with the fair-feasibility check and the machine's own
    /// detector sampling): a clone of `node`, stepped by
    /// the crate-internal in-place fair step.
    pub fn step_with(
        &self,
        node: &LiveNode<P>,
        decision: ExploreDecision,
        fd: P::Fd,
        bufs: &mut (SendBuf<P>, Vec<P::Output>),
    ) -> LiveNode<P> {
        let mut next = node.clone();
        self.step_in_place(&mut next, decision, fd, bufs);
        next
    }

    /// Apply one fair step to `node` in place: the protocol step
    /// ([`step_in_place`]), then the fairness bookkeeping — the output
    /// and decision histories dropped, the depth clamped at the
    /// stabilization time, step-gap counters and message ages advanced.
    /// Returns the parent-inbox position of the message the step
    /// delivered (clamped as the step resolved it), if it delivered one.
    /// The liveness graph builder's hot path: it steps a scratch node
    /// whose untouched slots it never re-clones.
    // wfd-lint: allow(d8-machine-purity, dst is the fresh clone being built into the successor; src stays a shared borrow for the whole step)
    pub(crate) fn step_in_place(
        &self,
        node: &mut LiveNode<P>,
        decision: ExploreDecision,
        fd: P::Fd,
        bufs: &mut (SendBuf<P>, Vec<P::Output>),
    ) -> Option<usize> {
        let (p, choice) = decision;
        let idx = p.index();
        let inbox_len = node.state.inboxes[idx].len();
        let delivered = match choice {
            Some(i) if node.state.started[idx] && inbox_len > 0 => Some(i.min(inbox_len - 1)),
            _ => None,
        };
        let env = StepEnv {
            pattern: self.pattern,
            n: self.n,
        };
        step_in_place(&env, &mut node.state, p, fd, choice, bufs);
        // Outputs and decision chains grow without bound over an infinite
        // run; propositions are state predicates, so both are dropped
        // from the node identity.
        let state = &mut node.state;
        state.outputs = None;
        state.outputs_len = 0;
        state.decisions = None;
        state.depth = state.depth.min(self.t_stable as usize);
        let t_next = state.depth as Time;
        let since_bound = self.max_step_gap + self.n as Time;
        for (q, s) in node.since.iter_mut().enumerate() {
            *s = if self.pattern.is_crashed(ProcessId(q), t_next) {
                0
            } else if q == idx {
                1
            } else {
                *s + 1
            };
            // Under the forcing rule a counter provably stays below
            // G + n (see the liveness module docs); a violation here
            // means the decisions were not fairness-enumerated.
            assert!(*s < since_bound, "step-gap counter exceeded its fair bound");
        }
        for (q, a) in node.ages.iter_mut().enumerate() {
            if let Some(i) = delivered.filter(|_| q == idx) {
                a.remove(i);
            }
            let new_len = state.inboxes[q].len();
            debug_assert!(a.len() <= new_len, "ages desynced from inbox");
            a.resize(new_len, 0);
            if self.pattern.is_crashed(ProcessId(q), t_next) {
                // A crashed inbox is frozen and never forces anything;
                // zero ages keep the quotient canonical.
                a.fill(0);
            } else {
                for x in a.iter_mut() {
                    *x = (*x + 1).min(self.max_delay);
                }
            }
        }
        delivered
    }
}

impl<P, F> Machine for FairMachine<'_, P, F>
where
    P: Protocol + Clone,
    F: Fn(ProcessId, Time) -> P::Fd,
{
    type State = LiveNode<P>;
    type Action = ExploreDecision;

    fn enabled_into(&self, node: &LiveNode<P>, out: &mut Vec<ExploreDecision>) {
        self.enabled_fair(node, out);
    }

    /// Fair-feasibility is part of enabledness here: a decision outside
    /// the fair set is `Disabled` even when the raw protocol step would
    /// be possible — which is exactly the check lasso replays need.
    fn transition(&self, node: &LiveNode<P>, action: &ExploreDecision) -> StepResult<LiveNode<P>> {
        let mut fair = Vec::new();
        self.enabled_fair(node, &mut fair);
        if !fair.contains(action) {
            return StepResult::Disabled;
        }
        let t = node.state.depth as Time;
        let fd = (self.fd)(action.0, t);
        let mut bufs: (SendBuf<P>, Vec<P::Output>) = (Vec::new(), Vec::new());
        StepResult::Next(self.step_with(node, *action, fd, &mut bufs))
    }
}

// ---------------------------------------------------------------------------
// The unified replay entry point
// ---------------------------------------------------------------------------

/// How a recorded decision list is to be re-executed.
enum ReplayMode {
    /// A flat explorer decision list (a safety counterexample branch).
    Explore(Vec<ExploreDecision>),
    /// A liveness lasso: `stem · cycleʷ`.
    Lasso {
        stem: Vec<ExploreDecision>,
        cycle: Vec<ExploreDecision>,
    },
}

/// The one replay entry point for recorded machine runs, subsuming the
/// removed pre-0.7.0 free functions `replay_explore`/`replay_lasso` and
/// the fuzz campaign's explore-replay path.
///
/// * [`Replay::explore`] + [`Replay::run`] re-execute a safety
///   counterexample branch under [`ProtocolMachine`] semantics,
///   evaluating a safety predicate in every state.
/// * [`Replay::lasso`] + [`Replay::run_fair`] verify a liveness lasso
///   against the fair model under [`FairMachine`] semantics (every
///   decision fair-feasible, cycle returns to its head).
/// * [`Replay::from_repro`] builds the right mode from a
///   [`Repro`](crate::Repro) artifact (fuzz-sourced artifacts replay
///   through the engine's [`Repro::replay_schedule`](crate::Repro::replay_schedule)
///   instead and are rejected here).
///
/// ```
/// use wfd_sim::{Replay, FailurePattern, NoDetector, ProcessId};
/// # use wfd_sim::{Ctx, Protocol};
/// # #[derive(Clone, Debug)]
/// # struct Noop;
/// # impl Protocol for Noop {
/// #     type Msg = (); type Output = (); type Inv = (); type Fd = ();
/// #     fn on_message(&mut self, _: &mut Ctx<Self>, _: ProcessId, _: ()) {}
/// # }
/// let replay = Replay::explore(vec![(ProcessId(0), None)]);
/// let ok = replay.run(
///     || vec![Noop, Noop],
///     vec![None, None],
///     &FailurePattern::failure_free(2),
///     NoDetector,
///     |_procs, _outputs| Ok(()),
/// );
/// assert_eq!(ok, Ok(()));
/// ```
pub struct Replay {
    mode: ReplayMode,
}

impl Replay {
    /// A replay of a flat explorer decision list (the format of
    /// [`ExploreViolation::decisions`](crate::ExploreViolation) and of
    /// explore-sourced [`Repro`](crate::Repro) artifacts).
    pub fn explore(decisions: Vec<ExploreDecision>) -> Self {
        Replay {
            mode: ReplayMode::Explore(decisions),
        }
    }

    /// A replay of a liveness lasso: a finite `stem` from the initial
    /// configuration to a recurrent configuration plus a non-empty
    /// `cycle` that returns to it.
    pub fn lasso(stem: Vec<ExploreDecision>, cycle: Vec<ExploreDecision>) -> Self {
        Replay {
            mode: ReplayMode::Lasso { stem, cycle },
        }
    }

    /// Build the right replay mode from a [`Repro`](crate::Repro)
    /// artifact. Errors on fuzz-sourced artifacts — engine decision logs
    /// replay through [`Repro::replay_schedule`](crate::Repro::replay_schedule),
    /// not the machine layer.
    pub fn from_repro(repro: &crate::repro::Repro) -> Result<Self, String> {
        match &repro.decisions {
            crate::repro::ReproDecisions::Explore(d) => Ok(Replay::explore(d.clone())),
            crate::repro::ReproDecisions::Lasso { stem, cycle } => {
                Ok(Replay::lasso(stem.clone(), cycle.clone()))
            }
            crate::repro::ReproDecisions::Engine(_) => Err(
                "fuzz-sourced artifacts replay through the engine (Repro::replay_schedule), \
                 not the machine layer"
                    .to_string(),
            ),
        }
    }

    /// The recorded decisions, flattened oldest-first (`stem ++ cycle`
    /// for lassos).
    pub fn decisions(&self) -> Vec<ExploreDecision> {
        match &self.mode {
            ReplayMode::Explore(d) => d.clone(),
            ReplayMode::Lasso { stem, cycle } => stem.iter().chain(cycle.iter()).copied().collect(),
        }
    }

    /// Whether this is a lasso replay (requiring [`Replay::run_fair`]).
    pub fn is_lasso(&self) -> bool {
        matches!(self.mode, ReplayMode::Lasso { .. })
    }

    /// Re-execute an explore-mode decision list under
    /// [`ProtocolMachine`] semantics.
    ///
    /// Runs the single branch described by the decisions from the
    /// initial configuration, evaluating `safety` in the initial state
    /// and after every step, and returns the first violation (`Err`) or
    /// `Ok(())` if the branch completes safely. The replay is
    /// deterministic even for *mutated* decision lists (as produced by
    /// [`shrink`](crate::shrink())): steps by out-of-range or crashed
    /// processes are skipped and out-of-range message choices are
    /// clamped to the oldest message.
    ///
    /// Errors on lasso mode — lassos denote infinite *fair* runs and
    /// replay through [`Replay::run_fair`] with the fairness bounds.
    pub fn run<P, D>(
        &self,
        make_procs: impl Fn() -> Vec<P>,
        invocations: Vec<Option<P::Inv>>,
        pattern: &FailurePattern,
        detector: D,
        mut safety: impl FnMut(&[P], &[(ProcessId, P::Output)]) -> Result<(), String>,
    ) -> Result<(), String>
    where
        P: Protocol + Clone + std::fmt::Debug,
        D: FdOracle<Value = P::Fd>,
    {
        let ReplayMode::Explore(decisions) = &self.mode else {
            return Err(
                "this replay is a liveness lasso: use Replay::run_fair with the checker's \
                 fairness bounds"
                    .to_string(),
            );
        };
        let machine = ProtocolMachine::<P, _>::new(pattern, oracle_fn(detector));
        let mut cur = machine.initial(make_procs(), invocations);
        let mut outputs = Vec::new();
        cur.collect_outputs(&mut outputs);
        safety(&cur.procs, &outputs)?;
        for d in decisions {
            match machine.transition(&cur, d) {
                StepResult::Next(next) => cur = next,
                StepResult::Disabled => continue,
            }
            cur.collect_outputs(&mut outputs);
            safety(&cur.procs, &outputs)?;
        }
        Ok(())
    }

    /// Verify a lasso against the fair model under [`FairMachine`]
    /// semantics: every decision must be one the engine's fairness rules
    /// allow at its node, and the cycle must return the model to the
    /// structurally identical configuration (state, step-gap counters
    /// and message ages alike), so `stem · cycleʷ` really denotes a fair
    /// infinite run.
    ///
    /// Errors on explore mode — finite safety branches carry no fairness
    /// obligations and replay through [`Replay::run`].
    pub fn run_fair<P, D>(
        &self,
        cfg: &crate::liveness::LivenessConfig,
        make_procs: impl Fn() -> Vec<P>,
        invocations: Vec<Option<P::Inv>>,
        pattern: &FailurePattern,
        mut detector: D,
    ) -> Result<(), String>
    where
        P: Protocol + Clone + std::fmt::Debug + PartialEq,
        P::Msg: PartialEq,
        P::Inv: PartialEq,
        D: FdOracle<Value = P::Fd>,
    {
        let ReplayMode::Lasso { stem, cycle } = &self.mode else {
            return Err(
                "this replay is a finite explorer branch: use Replay::run with a safety \
                 predicate"
                    .to_string(),
            );
        };
        if cycle.is_empty() {
            return Err("a lasso needs a non-empty cycle".to_string());
        }
        let procs = make_procs();
        let n = procs.len();
        crate::liveness::validate::<P, D>(cfg, pattern, n, &mut detector)?;
        let machine = FairMachine::<P, _>::new(
            pattern,
            cfg.max_step_gap,
            cfg.max_delay,
            cfg.t_stable,
            oracle_fn(detector),
        );
        let mut node = machine.initial(procs, invocations);
        let mut head: Option<LiveNode<P>> = None;
        for (i, &dec) in stem.iter().chain(cycle.iter()).enumerate() {
            if i == stem.len() {
                head = Some(node.clone());
            }
            match machine.transition(&node, &dec) {
                StepResult::Next(next) => node = next,
                StepResult::Disabled => {
                    let (p, _) = dec;
                    return Err(format!(
                        "decision #{i} (process {p}) is not fair-feasible at its \
                         configuration — the artifact does not denote a fair run"
                    ));
                }
            }
        }
        let head = head.expect("a non-empty cycle visits the loop head");
        if !node_eq(&head, &node) {
            return Err(
                "cycle does not return to its starting configuration — the artifact \
                 does not denote an infinite run"
                    .to_string(),
            );
        }
        Ok(())
    }
}
