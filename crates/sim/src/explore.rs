//! Exhaustive schedule exploration — a bounded model checker for small
//! systems.
//!
//! Random schedules sample the paper's "for all runs" quantifier;
//! [`explore`] *enumerates* it, bounded: starting from the initial
//! configuration it branches over every choice the adversary has at each
//! step — which alive process acts, and which of its pending messages it
//! receives (λ only when its inbox is empty, so runs cannot stutter
//! forever) — and evaluates a safety predicate in every reachable state.
//!
//! The exploration is sound for safety bug-hunting (every explored
//! interleaving is an admissible prefix of a fair run) and exhaustive up
//! to the depth bound over message-delivery orders. Liveness is out of
//! scope by construction.
//!
//! A violation comes back as an [`ExploreViolation`] carrying the full
//! decision list `(actor, message choice)` of the counterexample branch;
//! [`Replay`](crate::Replay) re-executes such a list deterministically,
//! and [`crate::repro`] packages it as a portable artifact.
//!
//! The step semantics itself — how one decision becomes `Protocol`
//! callbacks, sends and outputs — is not defined here: the explorer
//! drives the shared [`crate::machine`] layer
//! ([`enabled_decisions`](crate::machine)/`apply_step_into`), the same
//! transition system the engine, the liveness checker and [`Replay`]
//! execute.
//!
//! [`Replay`]: crate::Replay
//!
//! ## Performance model
//!
//! The inner loop is built for throughput, SPIN-style:
//!
//! * **Fingerprinted dedup** — visited states are keyed by composing
//!   per-slot keys: each process state, each pending message and the
//!   output history is fingerprinted (128 bits, [`FingerprintHasher`])
//!   straight off its `Debug` rendering, each inbox is the fingerprint of
//!   its messages' fingerprints in order, and the slot fingerprints are
//!   folded in slot order; no rendering is ever stored. Keys are
//!   incremental and almost never rendered: every state carries its slot
//!   and message keys, a child inherits its parent's, and what the step
//!   produced (the actor's new state, the messages it sent) is keyed from
//!   a per-worker transition memo looked up by the actor, the step time,
//!   whether it had started, its process key and the delivered message's
//!   key. A delivery or an append recomposes an inbox key from message
//!   keys; only a memo miss renders (the actor's state and each sent
//!   message, once), and a step that emits re-renders the output history.
//!   The benchmark's paper protocols reach a few thousand distinct steps
//!   over hundreds of thousands of children. [`explore`] always keys
//!   with [`FingerprintHasher`]. [`ExactKeyHasher`] keeps length-framed
//!   renderings as a `String` key and exists to property-test that the
//!   fingerprint never changes a verdict; it, or any other
//!   [`StateHasher`], goes through [`explore_custom`].
//! * **Keyed before built** — most children are revisits, and a revisit
//!   needs only its key. When the transition memo holds a child's step
//!   and the step emitted nothing, the child's key is composed from its
//!   parent's keys and the memo row, and the child goes onto the frontier
//!   unbuilt: its parent (shared), its decision and its key, one entry in
//!   the stack position a built child would take. The revisit rule reads
//!   that key as it reads a built state's, so a child it drops is never
//!   cloned, stepped or recycled, and one it keeps is built by the worker
//!   that expands it. A parent stays alive while any of its deferred
//!   children waits on the frontier. Children stay eager under DPOR
//!   (each executed step's footprint is checked and slept on) and under a
//!   usable symmetry group (the canonicalizer renames built components).
//!   On the benchmark's `paper_safety` this skips about 70 % of the
//!   handler calls; the traversal, and so every report, is unchanged.
//! * **Shared-prefix states** — the per-branch decision and output
//!   histories are `Arc`-linked cons-lists sharing their prefix with the
//!   parent state, materialized into flat vectors only when the safety
//!   predicate, a violation report, or a replay needs them. Popped states
//!   are recycled through a free-list arena, so steady-state expansion
//!   performs no `Vec` growth.
//! * **Parallel frontier exploration** — states are processed in frontier
//!   batches fanned across [`crate::par::par_map_with`] workers
//!   (`WFD_EXPLORE_THREADS`, or [`ExploreConfig::with_threads`]) against
//!   a sharded seen-table. Batch size and traversal order are independent
//!   of the worker count, revisit pruning is resolved sequentially in
//!   batch order, and the reported counterexample is the
//!   lexicographically-least decision list among the batch's violations —
//!   so 1 thread and N threads produce identical reports (modulo the
//!   informational [`ExploreReport::threads_used`]).
//!
//! ## State-space reduction
//!
//! On top of the per-state machinery, two opt-in reductions shrink the
//! space itself — they prune *interleavings*, not soundness:
//!
//! * **Dynamic partial-order reduction** ([`ExploreConfig::with_dpor`]) —
//!   sleep sets over an explicit independence relation. Protocols declare
//!   per-step [`Footprint`]s (which inboxes a step may append to, whether
//!   it may output); two enabled steps of different processes are
//!   *independent* when their footprints are disjoint, neither both
//!   output, neither sends into the other's pending λ step, and the
//!   failure pattern and detector are stable across the two adjacent step
//!   times. Once a step has been explored from a state, equivalent
//!   interleavings that merely commute it with independent steps are
//!   skipped ([`ExploreReport::states_pruned_dpor`]). Sleep sets thread
//!   through the frontier entries, survive batching, and are stored in
//!   the seen-table: a revisit is pruned only when the recorded
//!   exploration covered at least as many steps (a depth- and sleep-aware
//!   cover check) — the naive "prune any revisit" composition of sleep
//!   sets with state caching is unsound, and a regression fixture keeps
//!   it that way. Declared footprints are validated against every
//!   executed step, so an under-declaration panics instead of silently
//!   pruning a reachable violation.
//! * **Process-symmetry canonicalization**
//!   ([`ExploreConfig::with_symmetry`]) — protocols declare a symmetry
//!   group ([`Symmetry`], with [`Permutation`] hooks for ids embedded in
//!   state, messages and outputs); a state is keyed by the least key of
//!   its renamings under the group (restricted to elements preserving
//!   the failure pattern and the invocation vector). The renamed keys
//!   are reorderings of per-slot keys memoized per worker
//!   ([`Canonicalizer`]), so no renamed state is ever built. Two states
//!   that are renamings of each other then dedup to one
//!   ([`ExploreReport::symmetry_canonical_hits`]). Decisions and
//!   violations always stay in *original* ids — only the dedup key is
//!   canonicalized — so counterexamples found under reduction replay
//!   through [`Replay`](crate::Replay) and [`crate::repro`] unchanged. Symmetry
//!   is sound only when the safety predicate is itself invariant under
//!   the declared group.
//!
//! Both reductions are deterministic and thread-count-invariant, and both
//! are differentially anchored against the unreduced explorer by the
//! 40-seed equivalence ladders in `tests/explore_dedup.rs`.
//!
//! ```
//! use wfd_sim::{explore, Ctx, ExploreConfig, FailurePattern, NoDetector,
//!               ProcessId, Protocol};
//!
//! #[derive(Clone, Debug)]
//! struct Flood;
//! impl Protocol for Flood {
//!     type Msg = ();
//!     type Output = ();
//!     type Inv = ();
//!     type Fd = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<Self>) { ctx.broadcast_others(()); }
//!     fn on_message(&mut self, _: &mut Ctx<Self>, _: ProcessId, _: ()) {}
//! }
//!
//! let report = explore(
//!     ExploreConfig::new(6),
//!     || vec![Flood, Flood],
//!     vec![None, None],
//!     &FailurePattern::failure_free(2),
//!     NoDetector,
//!     |_procs, _outputs| Ok(()),
//! );
//! assert!(report.violation.is_none());
//! assert!(report.states_visited > 2);
//! ```

use crate::failure::FailurePattern;
use crate::fingerprint::{debug_fp, debug_string, Fingerprint128};
use crate::id::{ProcessId, Time};
use crate::json::Json;
use crate::machine::{
    apply_step_into, enabled_decisions, initial_state, materialize_decisions, materialize_outputs,
    State, StepEnv,
};
use crate::obs::{CounterId, HistId, Obs, PhaseId};
use crate::oracle::FdOracle;
use crate::par::par_map_with;
use crate::protocol::{Footprint, Permutation, Protocol, SendBuf, StepKind, Symmetry};
use std::collections::hash_map::Entry;
use std::collections::HashMap; // wfd-lint: allow(d1-hash-collections, imported only for the sharded seen-table, which is keyed insert/lookup; nothing iterates it)
use std::fmt::Debug;
use std::hash::{Hash, Hasher as _};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering}; // wfd-lint: allow(d3-atomics, the halt flag is an expansion-skip hint only; the merge step resolves every batch deterministically regardless of timing)
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant; // wfd-lint: allow(d2-wall-clock, feeds obs phase timers only, a side table nothing on the decision path reads; proven by obs_invariance.rs)

/// Upper bound on seen-table shards (the historical fixed width).
const MAX_SHARD_COUNT: usize = 64;

/// How many seen-table shards an exploration with `threads` workers
/// uses; workers pick a shard from the fingerprint prefix, so concurrent
/// pre-reads rarely contend. A single worker gets a single shard — a
/// 1-CPU host has no contention to spread, and 64 mutex-wrapped maps are
/// pure overhead there — and each additional worker buys 8× its own
/// width, capped at the historical fixed width of 64. Sharding only
/// partitions the table; it never changes what is explored, so every
/// width produces the same [`ExploreReport`].
fn seen_shard_width(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        (threads * 8).next_power_of_two().min(MAX_SHARD_COUNT)
    }
}

/// Cap on the free-list arena (recycled `State` allocations).
const POOL_CAP: usize = 2048;

/// Default frontier batch size. Fixed — and in particular independent of
/// the worker count — because the batch boundaries are part of the
/// deterministic traversal order.
const DEFAULT_BATCH: usize = 256;

/// Bounds for an exploration.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum schedule depth (steps along one branch).
    pub max_depth: usize,
    /// Cap on state expansions (safety net for the caller).
    pub max_states: usize,
    /// Deduplicate states by structural fingerprint (collapses converging
    /// interleavings). A state is pruned only when it was already expanded
    /// at an equal-or-lower depth *with the same output history*, so dedup
    /// never hides a reachable violation within the depth bound.
    pub dedup: bool,
    /// Worker threads for frontier batches. `None` (the default) resolves
    /// `WFD_EXPLORE_THREADS`, falling back to the machine's available
    /// parallelism. Every value produces the same report, modulo the
    /// informational [`ExploreReport::threads_used`] field.
    pub threads: Option<usize>,
    /// Frontier batch size: how many pending states are deduplicated and
    /// expanded per round. Part of the deterministic traversal order (and
    /// therefore *not* derived from the thread count); `1` reproduces a
    /// plain depth-first search exactly.
    pub batch: usize,
    /// Sleep-set dynamic partial-order reduction (default: off). It
    /// requires honest [`Protocol::footprint`] declarations — the default
    /// opaque footprint is sound but prunes nothing. See the
    /// [module docs](self#state-space-reduction).
    pub dpor: bool,
    /// Process-symmetry canonicalization of dedup keys (default: off). It
    /// requires dedup and a group-invariant safety predicate. See the
    /// [module docs](self#state-space-reduction).
    pub symmetry: bool,
    /// Observability handle (default: [`Obs::off`], which costs nothing).
    /// Metrics never influence the traversal or the report.
    pub obs: Obs,
}

impl ExploreConfig {
    /// Defaults: the given depth, one million states, dedup on, automatic
    /// thread count, batch size 256, reductions off, metrics off.
    pub fn new(max_depth: usize) -> Self {
        ExploreConfig {
            max_depth,
            max_states: 1_000_000,
            dedup: true,
            threads: None,
            batch: DEFAULT_BATCH,
            dpor: false,
            symmetry: false,
            obs: Obs::off(),
        }
    }

    /// Override the state cap.
    pub fn with_max_states(mut self, cap: usize) -> Self {
        self.max_states = cap;
        self
    }

    /// Override deduplication (on by default).
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Pin the worker count (default: `WFD_EXPLORE_THREADS`, else all
    /// cores). The report is identical for every choice.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Override the frontier batch size (`1` ⇒ plain DFS order).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Enable sleep-set dynamic partial-order reduction (default: off).
    /// Prunes interleavings that merely commute independent steps, as
    /// proven by the protocol's declared [`Protocol::footprint`]s; with
    /// the default opaque footprints it is a sound no-op. The verdict is
    /// unchanged; the traversal-shaped counters legitimately shrink.
    pub fn with_dpor(mut self, dpor: bool) -> Self {
        self.dpor = dpor;
        self
    }

    /// Enable process-symmetry canonicalization of dedup keys (default:
    /// off). Effective only with dedup on and a non-trivial declared
    /// [`Protocol::symmetry`] group; **sound only when the safety
    /// predicate is invariant under that group** (restricted to elements
    /// preserving the failure pattern and invocation vector — the
    /// explorer enforces the restriction itself).
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Attach an observability handle (see [`crate::obs`]). Like the
    /// other builders this is an *explicit* choice and therefore beats
    /// the `WFD_METRICS` environment toggle — binaries that want env
    /// control resolve via [`crate::EnvOverrides::resolve_obs`] first.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

pub use crate::machine::ExploreDecision;

/// A safety violation found by [`explore`]: the predicate's message plus
/// the complete decision list of the branch that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreViolation {
    /// The safety predicate's error message.
    pub message: String,
    /// The counterexample branch, one `(actor, message choice)` per step,
    /// materialized from the explorer's shared-prefix chain into a flat
    /// vector. Replayable with [`Replay`](crate::Replay).
    pub decisions: Vec<ExploreDecision>,
}

/// Outcome of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// States expanded in full (post-dedup; a state revisited at a
    /// strictly lower depth is re-expanded and counted again). Revisits
    /// re-expanded only on a restricted decision subset — partial cache
    /// hits under the reductions — count in [`dedup_hits`] instead.
    ///
    /// [`dedup_hits`]: ExploreReport::dedup_hits
    pub states_visited: usize,
    /// Whether some branch hit the depth bound (the space is bigger than
    /// what was explored).
    pub depth_bounded: bool,
    /// Whether the exploration stopped early because `max_states` was
    /// reached (the space was truncated *independently* of the depth
    /// bound).
    pub states_capped: bool,
    /// The safety violation, if one was found: the lexicographically-least
    /// decision list among the violations of the first frontier batch that
    /// contained any (so the counterexample does not depend on the worker
    /// count).
    pub violation: Option<ExploreViolation>,
    /// Distinct keys committed to the dedup seen-table (0 with dedup off).
    pub dedup_entries: usize,
    /// States pruned as already-covered revisits (0 with dedup off).
    /// Under the reductions this also counts partial cache hits —
    /// revisits re-expanded only on the decisions the seen-table does
    /// not yet cover — and the individual child states a restriction
    /// skipped.
    pub dedup_hits: usize,
    /// High-water mark of the pending frontier, in entries: built states
    /// and children keyed but not yet built count alike, one entry per
    /// child.
    pub max_frontier_len: usize,
    /// Child states skipped by sleep-set partial-order reduction. 0
    /// unless [`ExploreConfig::dpor`] is on — and 0 with it on when the
    /// protocol declares only the opaque default footprint.
    pub states_pruned_dpor: usize,
    /// Keyed states whose canonical form used a non-identity permutation
    /// (a renaming of an already-seen state was collapsed onto it). 0
    /// unless [`ExploreConfig::symmetry`] found a usable group.
    pub symmetry_canonical_hits: usize,
    /// Whether a state-space reduction ([`ExploreConfig::dpor`] or
    /// [`ExploreConfig::symmetry`]) was requested for this run.
    pub reduction_enabled: bool,
    /// The resolved worker count. Informational: it is the one field that
    /// legitimately differs between otherwise identical reports.
    pub threads_used: usize,
}

impl ExploreReport {
    /// Whether two reports agree on every semantic field — everything
    /// except [`ExploreReport::threads_used`], which records how the work
    /// was scheduled rather than what was found. The parallel-determinism
    /// guarantee is exactly: reports from any two worker counts satisfy
    /// `same_semantics`.
    pub fn same_semantics(&self, other: &ExploreReport) -> bool {
        self.states_visited == other.states_visited
            && self.depth_bounded == other.depth_bounded
            && self.states_capped == other.states_capped
            && self.dedup_entries == other.dedup_entries
            && self.dedup_hits == other.dedup_hits
            && self.max_frontier_len == other.max_frontier_len
            && self.states_pruned_dpor == other.states_pruned_dpor
            && self.symmetry_canonical_hits == other.symmetry_canonical_hits
            && self.reduction_enabled == other.reduction_enabled
            && self.violation == other.violation
    }

    /// The report as a JSON object (decision lists in the same
    /// `{"step": pid, "msg": index|null}` shape as [`crate::repro`]
    /// artifacts) — used by experiment binaries to make capped or bounded
    /// runs diagnosable from their artifacts.
    pub fn to_json(&self) -> Json {
        let violation = match &self.violation {
            None => Json::Null,
            Some(v) => Json::Obj(vec![
                ("message".to_string(), Json::str(&v.message)),
                (
                    "decisions".to_string(),
                    Json::Arr(
                        v.decisions
                            .iter()
                            .map(|(p, c)| {
                                Json::Obj(vec![
                                    ("step".to_string(), Json::usize(p.index())),
                                    ("msg".to_string(), c.map_or(Json::Null, Json::usize)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        Json::Obj(vec![
            (
                "states_visited".to_string(),
                Json::usize(self.states_visited),
            ),
            ("depth_bounded".to_string(), Json::bool(self.depth_bounded)),
            ("states_capped".to_string(), Json::bool(self.states_capped)),
            ("dedup_entries".to_string(), Json::usize(self.dedup_entries)),
            ("dedup_hits".to_string(), Json::usize(self.dedup_hits)),
            (
                "max_frontier_len".to_string(),
                Json::usize(self.max_frontier_len),
            ),
            (
                "states_pruned_dpor".to_string(),
                Json::usize(self.states_pruned_dpor),
            ),
            (
                "symmetry_canonical_hits".to_string(),
                Json::usize(self.symmetry_canonical_hits),
            ),
            (
                "reduction_enabled".to_string(),
                Json::bool(self.reduction_enabled),
            ),
            ("threads_used".to_string(), Json::usize(self.threads_used)),
            ("violation".to_string(), violation),
        ])
    }
}

// ---------------------------------------------------------------------------
// State keys
// ---------------------------------------------------------------------------

/// How the explorer keys a state for deduplication: as a composition of
/// per-slot keys.
///
/// A state is `n` process slots plus an output history. Slot `i`
/// contributes the key of process `i`'s state, the key of its inbox and
/// a `u64` word of per-slot scalars; the output history contributes one
/// more key. An inbox's key is a [`seq`](StateHasher::seq) of message
/// keys: one [`slot`](StateHasher::slot) per pending `(sender, message)`
/// entry, in inbox order. The explorer's word is the `started` bit (`0`
/// or `1`); the liveness checker, which keys its fair-graph nodes
/// through the same composition, folds the slot's fairness counters into
/// it too. [`compose`](StateHasher::compose) folds the components, slot
/// by slot, into the state's key. Together they determine everything
/// the safety predicate and the expansion can observe (`pending_inv` is
/// determined by `started` plus the fixed initial invocation vector, so
/// it needs no key component).
///
/// The composition is what makes symmetry canonicalization cheap. A
/// process renaming moves whole slots and rewrites the ids inside each
/// component, so the key of a renamed state is the renamed components'
/// keys in the new slot order. The explorer memoizes, per worker, the
/// key of every process state, message and output history it has seen
/// under every element of the scenario's group (a renamed inbox's key is
/// the `seq` of its renamed messages' keys), and canonicalizes by
/// reordering those memoized keys ([`Canonicalizer`]); it never builds a
/// renamed state. A memo hit returns the images computed for an earlier
/// component with the same key, so it relies on the assumption every key
/// already makes: components with equal keys (for the shipped hashers,
/// equal `Debug` renderings) are equal.
///
/// The composition is also what lets the explorer key states
/// incrementally, almost without rendering. Every built explorer state
/// carries its slot keys and its pending messages' keys, and a child
/// inherits its parent's: a delivery drops the delivered message's key,
/// an append adds the sent message's, and every touched inbox recomposes
/// its `seq` from message keys. What the step itself produced (the
/// actor's new process key, the keys of the messages it sent) comes from
/// a per-worker transition memo looked up by everything that determines
/// it: the actor, the step time, whether the actor had started, its
/// process key and the delivered message's key. That lookup is sound
/// under the same assumption, because a [`Protocol`] handler's effect is
/// a function of its state, the step and `Ctx::{me, n, now, fd}`. Only a
/// memo miss renders (the actor's new state and each message it sent,
/// once), and the output history is re-keyed when a step emits. On a
/// memo hit for a step that emitted nothing, the child's key is composed
/// from the parent's keys and the memo row before the child is built,
/// and the child waits on the frontier as that key; it is built, and
/// its slot keys inherited, only if the revisit rule keeps it. The
/// composed key is the same as keying the child in full, so inheriting
/// keys changes no report.
///
/// Two implementations ship: [`FingerprintHasher`] (the default, 128-bit
/// fingerprints) and [`ExactKeyHasher`] (length-framed renderings;
/// collision-free over renderings but slow, used by equivalence tests to
/// prove the fingerprint never changes a verdict). [`key`] composes the
/// components in their own slot order, which is exactly the identity
/// candidate of a canonicalization.
///
/// [`key`]: StateHasher::key
pub trait StateHasher: Sync {
    /// The key of one state component: a process state, a message, an
    /// inbox, or the output history.
    ///
    /// `Sync` because slot keys travel with the explorer's states, which
    /// the parallel key and expansion phases read from every worker.
    type Slot: Eq + Hash + Clone + Send + Sync;

    /// The dedup key type. `Ord` so symmetry canonicalization can take
    /// the least key over the candidate permutations deterministically;
    /// `Sync` because a child keyed before it is built waits on the
    /// explorer's frontier as its key, which the parallel key phase reads
    /// from every worker.
    type Key: Eq + Ord + Hash + Clone + Send + Sync;

    /// Key one state component from its `Debug` rendering: a process
    /// state, one pending `(sender, message)` entry, or the output
    /// history.
    fn slot<T: Debug + ?Sized>(&self, component: &T) -> Self::Slot;

    /// Key a sequence of keys, in order: an inbox from its messages'
    /// keys. Must be injective over sequences (their length and order
    /// included) up to the slot type's collision rate, as
    /// [`compose`](StateHasher::compose) must be.
    fn seq<'s>(&self, items: impl Iterator<Item = &'s Self::Slot>) -> Self::Slot
    where
        Self::Slot: 's;

    /// Fold slot keys into a state key: one `(process, inbox, word)`
    /// triple per slot, in slot order, then the output history's key.
    /// The word is an arbitrary `u64` (see the trait docs for what the
    /// explorer and the liveness checker put there). Must be injective
    /// over its inputs up to the key type's collision rate — the
    /// seen-table trusts key equality.
    fn compose<'s>(
        &self,
        slots: impl Iterator<Item = (&'s Self::Slot, &'s Self::Slot, u64)>,
        outputs: &Self::Slot,
    ) -> Self::Key
    where
        Self::Slot: 's;

    /// Key the given explorer state components: key each process state,
    /// each message, each inbox as the [`seq`](StateHasher::seq) of its
    /// messages and the output history, then
    /// [`compose`](StateHasher::compose) them in slot order with each
    /// slot's `started` bit as its word.
    fn key<P: Protocol + Debug>(
        &self,
        procs: &[P],
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        started: &[bool],
        outputs: &[(ProcessId, P::Output)],
    ) -> Self::Key {
        SlotKeys::of(self, procs, inboxes, outputs).compose(self, &started_words(started))
    }

    /// Which of `shards` seen-table shards a key lives in. The default
    /// hashes the key; [`FingerprintHasher`] overrides it with the
    /// fingerprint's top bits.
    fn shard(key: &Self::Key, shards: usize) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % shards.max(1)
    }
}

/// The explorer's per-slot words: each slot's `started` bit.
fn started_words(started: &[bool]) -> Vec<u64> {
    started.iter().map(|&s| u64::from(s)).collect()
}

/// The keys of one state: its slot keys (the `n` process keys, then the
/// `n` inbox keys, then the output history's) and its pending messages'
/// keys, inbox by inbox, each inbox in order. A state's inboxes give the
/// length of each inbox's run of message keys, so the runs carry no
/// bounds of their own. Empty until the state is keyed.
#[derive(Debug, PartialEq)]
pub(crate) struct SlotKeys<S> {
    pub(crate) slots: Vec<S>,
    pub(crate) msgs: Vec<S>,
}

/// One step, as [`SlotKeys::inherit`] and the transition memo see it.
#[derive(Clone, Copy)]
pub(crate) struct Step {
    pub(crate) actor: ProcessId,
    /// The step's time: the parent's depth (the liveness checker's
    /// clamps at `t_stable`).
    pub(crate) t: Time,
    /// Whether the actor had started before the step; a first step runs
    /// `on_start`, then `on_invoke` with the run's fixed invocation.
    pub(crate) started: bool,
    /// The parent-inbox position of the message the step delivered (as
    /// the step clamped it), if it delivered one.
    pub(crate) delivered: Option<usize>,
}

impl<S> SlotKeys<S> {
    pub(crate) fn new() -> Self {
        SlotKeys {
            slots: Vec::new(),
            msgs: Vec::new(),
        }
    }

    /// Key every component where it stands. The incremental path in
    /// [`SlotKeys::inherit`] calls the same [`StateHasher::slot`] on the
    /// same component types and the same [`StateHasher::seq`] over the
    /// same message keys, so both paths agree key for key.
    pub(crate) fn of<H, P>(
        hasher: &H,
        procs: &[P],
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        outputs: &[(ProcessId, P::Output)],
    ) -> Self
    where
        H: StateHasher<Slot = S> + ?Sized,
        P: Protocol + Debug,
    {
        let mut keys = SlotKeys::new();
        keys.slots.extend(procs.iter().map(|p| hasher.slot(p)));
        for inbox in inboxes {
            let start = keys.msgs.len();
            keys.msgs
                .extend(inbox.iter().map(|entry| hasher.slot(entry)));
            keys.slots.push(hasher.seq(keys.msgs[start..].iter()));
        }
        keys.slots.push(hasher.slot(outputs));
        keys
    }

    fn n(&self) -> usize {
        self.slots.len() / 2
    }

    fn procs(&self) -> &[S] {
        &self.slots[..self.n()]
    }

    fn inboxes(&self) -> &[S] {
        &self.slots[self.n()..2 * self.n()]
    }

    fn outputs(&self) -> &S {
        self.slots.last().expect("keyed state")
    }

    /// The identity composition: every slot keyed where it stands, slot
    /// `i` with word `words[i]`.
    pub(crate) fn compose<H>(&self, hasher: &H, words: &[u64]) -> H::Key
    where
        H: StateHasher<Slot = S> + ?Sized,
    {
        hasher.compose(
            self.procs()
                .iter()
                .zip(self.inboxes())
                .zip(words)
                .map(|((p, i), &w)| (p, i, w)),
            self.outputs(),
        )
    }

    /// Become the keys of the state `step` produced (components `procs`
    /// and `inboxes`; `emitted` when it appended to the output history)
    /// from a state whose keys are `parent` (slot keys, message keys) and
    /// whose inboxes are `before`, without rendering on a memo hit.
    /// Returns whether `memo` held the step.
    ///
    /// The actor's process key and the keys of the messages the step
    /// appended come from `memo`; a miss renders them and records them,
    /// with `emitted`. Every inbox keeps its parent's message keys, less
    /// the delivered one for the actor's, plus the appended ones; an
    /// inbox the step delivered from or appended to recomposes its key
    /// with [`StateHasher::seq`], and every other slot key is inherited.
    /// The output key is inherited as is; a caller whose step emitted
    /// re-keys it.
    ///
    /// # Panics
    ///
    /// Panics if a memoized effect does not fit the step's inboxes or
    /// `emitted`: the handler's effect was not a function of what the
    /// memo is keyed by (see [`Protocol`]).
    #[allow(clippy::too_many_arguments)] // the step's inputs, each documented above
    pub(crate) fn inherit<H, P>(
        &mut self,
        hasher: &H,
        memo: &mut StepMemo<S>,
        parent: (&[S], &[S]),
        before: &[Vec<(ProcessId, P::Msg)>],
        procs: &[P],
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        emitted: bool,
        step: Step,
    ) -> bool
    where
        H: StateHasher<Slot = S> + ?Sized,
        P: Protocol + Debug,
        S: Eq + Hash + Clone,
    {
        let (parent_slots, parent_msgs) = parent;
        let (n, a) = (procs.len(), step.actor.index());
        let key = StepKey::new(step, parent, before);
        let (effect, hit) = memo.effect(key, || {
            let mut sent = Vec::new();
            for (j, (inbox, old)) in inboxes.iter().zip(before).enumerate() {
                let kept = old.len() - usize::from(j == a && step.delivered.is_some());
                sent.extend(inbox[kept..].iter().map(|entry| (j, hasher.slot(entry))));
            }
            StepEffect {
                proc: hasher.slot(&procs[a]),
                sent,
                emitted,
            }
        });
        assert_eq!(
            effect.emitted,
            emitted,
            "a memoized step of {} does not fit its successor's output history: a \
             handler's effect must be a function of its state, the step and \
             Ctx::{{me, n, now, fd}}",
            std::any::type_name::<P>(),
        );
        // Reuses the allocations a recycled key vector kept.
        self.slots.clear();
        self.slots.extend_from_slice(parent_slots);
        self.slots[a].clone_from(&effect.proc);
        self.msgs.clear();
        effect.for_each_inbox(parent_msgs, before, step, |j, kept, sent, touched| {
            let start = self.msgs.len();
            for run in kept {
                self.msgs.extend_from_slice(run);
            }
            self.msgs.extend(sent.iter().map(|(_, key)| key.clone()));
            assert_eq!(
                self.msgs.len() - start,
                inboxes[j].len(),
                "a memoized step of {} does not fit its successor's inbox {j}: a \
                 handler's effect must be a function of its state, the step and \
                 Ctx::{{me, n, now, fd}}",
                std::any::type_name::<P>(),
            );
            if touched {
                self.slots[n + j] = hasher.seq(self.msgs[start..].iter());
            }
        });
        hit
    }

    /// The key of the state `step` produces from a state whose keys are
    /// `self`, whose inboxes are `before` and whose `started` bits are
    /// `started`, composed from `memo`'s row for the step without
    /// building the state: the keys [`SlotKeys::inherit`] would give it,
    /// composed with the successor's `started` bits as words. `None` when
    /// `memo` does not hold the step, or when the step emitted, so that
    /// its output history would need re-keying. `inboxes` is scratch for
    /// the successor's inbox keys.
    pub(crate) fn compose_successor<H, M>(
        &self,
        hasher: &H,
        memo: &StepMemo<S>,
        before: &[Vec<M>],
        started: &[bool],
        step: Step,
        inboxes: &mut Vec<S>,
    ) -> Option<H::Key>
    where
        H: StateHasher<Slot = S> + ?Sized,
        S: Eq + Hash + Clone,
    {
        let key = StepKey::new(step, (&self.slots, &self.msgs), before);
        let effect = memo.rows.get(&key).filter(|effect| !effect.emitted)?;
        let a = step.actor.index();
        inboxes.clear();
        inboxes.extend_from_slice(self.inboxes());
        effect.for_each_inbox(
            &self.msgs,
            before,
            step,
            |j, [head, tail], sent, touched| {
                if touched {
                    let kept = head.iter().chain(tail);
                    inboxes[j] = hasher.seq(kept.chain(sent.iter().map(|(_, key)| key)));
                }
            },
        );
        let procs = self.procs().iter().enumerate();
        Some(hasher.compose(
            procs.zip(inboxes.iter()).map(|((j, proc), inbox)| {
                let proc = if j == a { &effect.proc } else { proc };
                (proc, inbox, u64::from(j == a || started[j]))
            }),
            self.outputs(),
        ))
    }
}

/// An explorer state with its keys. The two travel as one object
/// through the stack, the survivors, the child buffers and the
/// free-list, so a recycled state reuses its key allocations too. The
/// keys stay empty when dedup is off: nothing reads them then.
struct KeyedState<P: Protocol, S> {
    state: State<P>,
    keys: SlotKeys<S>,
}

impl<P, S> KeyedState<P, S>
where
    P: Protocol + Debug,
    S: Eq + Hash + Clone,
{
    fn blank() -> Self {
        KeyedState {
            state: State::blank(),
            keys: SlotKeys::new(),
        }
    }

    /// Key every slot from scratch (the root, and the debug-build check).
    fn full_keys<H>(&self, hasher: &H, outputs: &mut Vec<(ProcessId, P::Output)>) -> SlotKeys<S>
    where
        H: StateHasher<Slot = S>,
    {
        let state = &self.state;
        materialize_outputs(&state.outputs, state.outputs_len, outputs);
        SlotKeys::of(hasher, &state.procs, &state.inboxes, outputs)
    }

    /// Key this state, which `actor`'s step just produced from `parent`:
    /// inherit the parent's keys through the transition memo
    /// ([`SlotKeys::inherit`]), and re-key the output history when the
    /// step emitted. `started` is composed directly and `pending_inv` is
    /// not keyed, so neither has a slot. Returns whether the memo held
    /// the step.
    fn inherit_keys<H>(
        &mut self,
        hasher: &H,
        memo: &mut StepMemo<S>,
        parent: &KeyedState<P, S>,
        actor: ProcessId,
        outputs: &mut Vec<(ProcessId, P::Output)>,
    ) -> bool
    where
        H: StateHasher<Slot = S>,
    {
        let (state, before) = (&self.state, &parent.state);
        // The step's recorded decision carries the (clamped) inbox
        // position of the message it delivered, if it delivered one.
        let step = Step {
            actor,
            t: before.depth as Time,
            started: before.started[actor.index()],
            delivered: state.decisions.as_ref().and_then(|d| d.decision.1),
        };
        let emitted = state.outputs_len != before.outputs_len;
        let hit = self.keys.inherit(
            hasher,
            memo,
            (&parent.keys.slots, &parent.keys.msgs),
            &before.inboxes,
            &state.procs,
            &state.inboxes,
            emitted,
            step,
        );
        if emitted {
            materialize_outputs(&state.outputs, state.outputs_len, outputs);
            let n = state.procs.len();
            self.keys.slots[2 * n] = hasher.slot(outputs.as_slice());
        }
        hit
    }

    /// The key of this state's child by `decision`, composed from the
    /// transition memo without building the child, when the memo holds
    /// the step and the step emitted nothing (see
    /// [`SlotKeys::compose_successor`]). `inboxes` is scratch.
    fn child_key<H>(
        &self,
        hasher: &H,
        memo: &StepMemo<S>,
        (actor, choice): ExploreDecision,
        inboxes: &mut Vec<S>,
    ) -> Option<H::Key>
    where
        H: StateHasher<Slot = S>,
    {
        let state = &self.state;
        let a = actor.index();
        let started = state.started[a];
        let len = state.inboxes[a].len();
        let step = Step {
            actor,
            t: state.depth as Time,
            started,
            // Resolved as the step resolves it: a first step or an empty
            // inbox delivers nothing, and a position is clamped.
            delivered: choice
                .filter(|_| started && len > 0)
                .map(|i| i.min(len - 1)),
        };
        self.keys
            .compose_successor(hasher, memo, &state.inboxes, &state.started, step, inboxes)
    }

    /// Debug builds: the keys this state inherited must equal a full
    /// re-key.
    #[cfg(debug_assertions)]
    fn assert_keys_fresh<H>(&self, hasher: &H, outputs: &mut Vec<(ProcessId, P::Output)>)
    where
        H: StateHasher<Slot = S>,
    {
        assert!(
            self.full_keys(hasher, outputs) == self.keys,
            "inherited slot keys diverge from a full re-key at depth {} (decisions {:?})",
            self.state.depth,
            self.state.collect_decisions(),
        );
    }
}

/// The default [`StateHasher`]: each component is the 128-bit
/// fingerprint of its `Debug` rendering, computed streaming (no `String`
/// is allocated); an inbox is the fingerprint of its message
/// fingerprints in order, and the state key is the fingerprint of the
/// slot fingerprints and words in slot order, then the output history's.
/// Collisions are possible in principle (2⁻¹²⁸-ish); the
/// `explore_dedup` property suite continuously checks verdict
/// equivalence against [`ExactKeyHasher`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FingerprintHasher;

impl StateHasher for FingerprintHasher {
    type Slot = u128;
    type Key = u128;

    fn slot<T: Debug + ?Sized>(&self, component: &T) -> u128 {
        debug_fp(component)
    }

    fn seq<'s>(&self, items: impl Iterator<Item = &'s u128>) -> u128 {
        let mut w = Fingerprint128::new();
        for item in items {
            w.write_u128(*item);
        }
        w.finish()
    }

    fn compose<'s>(
        &self,
        slots: impl Iterator<Item = (&'s u128, &'s u128, u64)>,
        outputs: &u128,
    ) -> u128 {
        let mut w = Fingerprint128::new();
        for (proc, inbox, word) in slots {
            w.write_u128(*proc);
            w.write_u128(*inbox);
            w.write_u64(word);
        }
        w.write_u128(*outputs);
        w.finish()
    }

    fn shard(key: &u128, shards: usize) -> usize {
        ((key >> 96) as usize) % shards.max(1)
    }
}

/// Append `part` to `key` framed with its byte length (`len:part`).
fn framed(key: &mut String, part: &str) {
    key.push_str(&part.len().to_string());
    key.push(':');
    key.push_str(part);
}

/// The exact [`StateHasher`]: each component is its full `Debug`
/// rendering, an inbox is its messages' renderings framed with their
/// byte lengths (`len:rendering`) in order, and the state key frames
/// every slot key the same way, slot by slot with the word framed in
/// decimal, then the output history. The framing makes both injective
/// over renderings and words, so two states share a key exactly when
/// every component renders alike and every word is equal. Slow and
/// memory-hungry; selected by equivalence tests (and available to
/// callers that want certainty over speed) to cross-check
/// [`FingerprintHasher`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactKeyHasher;

impl StateHasher for ExactKeyHasher {
    type Slot = String;
    type Key = String;

    fn slot<T: Debug + ?Sized>(&self, component: &T) -> String {
        debug_string(component)
    }

    fn seq<'s>(&self, items: impl Iterator<Item = &'s String>) -> String {
        let mut key = String::new();
        for item in items {
            framed(&mut key, item);
        }
        key
    }

    fn compose<'s>(
        &self,
        slots: impl Iterator<Item = (&'s String, &'s String, u64)>,
        outputs: &String,
    ) -> String {
        let mut key = String::new();
        for (proc, inbox, word) in slots {
            framed(&mut key, proc);
            framed(&mut key, inbox);
            framed(&mut key, &word.to_string());
        }
        framed(&mut key, outputs);
        key
    }
}

// ---------------------------------------------------------------------------
// State-space reduction machinery: sleep sets, seen-covers, symmetry
// ---------------------------------------------------------------------------

/// Membership in a sorted sleep set.
fn sleep_contains(sleep: &[ExploreDecision], d: ExploreDecision) -> bool {
    sleep.binary_search(&d).is_ok()
}

/// `a ⊆ b` over sorted decision sets (merge scan).
fn sleep_subset(a: &[ExploreDecision], b: &[ExploreDecision]) -> bool {
    let mut b_iter = b.iter();
    'outer: for x in a {
        for y in b_iter.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// One recorded expansion of a seen key: the depth it ran from and the
/// enabled decisions it *slept* (skipped). A revisit is covered — safely
/// prunable — only by an entry that had at least as much remaining depth
/// budget (`depth ≤` the revisit's) and slept at most what the revisit
/// would sleep (`sleep ⊆` the revisit's): the recorded subtree then
/// contains every run the revisit could contribute. This is the
/// sleep-aware caching rule from Godefroid's state-space caching work:
/// pruning any revisit regardless of its sleep set is unsound in
/// general, because the earlier visit may have skipped exactly the
/// direction the revisit still needs. The entries of one key form a
/// small Pareto front: no entry dominates another. A revisit no single
/// entry covers is not necessarily re-expanded in full: the resolution
/// pass restricts it to the intersection of the valid entries' sleeps —
/// everything outside that intersection is covered by *some* entry (see
/// [`State::restrict`]).
struct SeenCover {
    depth: usize,
    sleep: Vec<ExploreDecision>,
}

/// Whether the recorded covers of a key cover a visit at `depth` that
/// would sleep `sleep`. Coverage only ever *grows* as entries are pushed,
/// which is what keeps the parallel pre-read sound: a pre-read prune
/// verdict can never be invalidated by the sequential resolution pass.
fn covered_by(covers: &[SeenCover], depth: usize, sleep: &[ExploreDecision]) -> bool {
    covers
        .iter()
        .any(|c| c.depth <= depth && sleep_subset(&c.sleep, sleep))
}

/// Record a kept (re-)expansion: push its cover and drop entries it
/// dominates. Without reductions every sleep is empty, so this degenerates
/// to the historical single min-depth entry per key.
fn push_cover(entry: &mut Vec<SeenCover>, depth: usize, sleep: Vec<ExploreDecision>) {
    entry.retain(|c| !(depth <= c.depth && sleep_subset(&sleep, &c.sleep)));
    entry.push(SeenCover { depth, sleep });
}

/// Dense cache of one detector value per `(process, time)` pair, filled
/// once per exploration: oracles are pure in `(p, t)`, so a value stays
/// valid for every later batch, and a child built batches after its
/// parent was expanded reads its step's value from here. Replaces a
/// `HashMap` keyed by `(usize, Time)`: the cache sits on
/// determinism-scoped code, and dense indexing leaves no iteration-order
/// question for wfd-lint to audit.
struct FdTable<F> {
    slots: Vec<Option<F>>,
    stride: usize,
}

impl<F> FdTable<F> {
    /// One slot per `(p, t)` with `p < n` and `t <= max_depth`.
    fn new(n: usize, max_depth: usize) -> Self {
        let stride = max_depth + 1;
        FdTable {
            slots: (0..n * stride).map(|_| None).collect(),
            stride,
        }
    }

    fn fill_with(&mut self, p: usize, t: Time, f: impl FnOnce() -> F) {
        let slot = &mut self.slots[p * self.stride + t as usize];
        if slot.is_none() {
            *slot = Some(f());
        }
    }

    fn get(&self, p: usize, t: Time) -> &F {
        self.slots[p * self.stride + t as usize]
            .as_ref()
            .expect("the oracle phase filled every alive (p, t) of every expanded depth")
    }
}

/// Dense per-batch map from a survivor depth to the DPOR stability
/// verdict at that depth (same touched-list clearing discipline as
/// [`FdTable`], same `HashMap`-replacement rationale).
struct DepthTable {
    slots: Vec<Option<bool>>,
    touched: Vec<usize>,
}

impl DepthTable {
    fn new(max_depth: usize) -> Self {
        DepthTable {
            slots: vec![None; max_depth + 1],
            touched: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for &i in &self.touched {
            self.slots[i] = None;
        }
        self.touched.clear();
    }

    fn contains(&self, t: Time) -> bool {
        self.slots[t as usize].is_some()
    }

    fn insert(&mut self, t: Time, v: bool) {
        let i = t as usize;
        if self.slots[i].is_none() {
            self.touched.push(i);
        }
        self.slots[i] = Some(v);
    }

    fn get(&self, t: Time) -> Option<bool> {
        self.slots[t as usize]
    }
}

/// Whether two enabled decisions at the same state are *independent* —
/// executing them in either order yields the same state, and neither
/// order hides the other's enabledness. Requires (checked by the caller)
/// that the failure pattern and detector are stable across the two
/// adjacent step times. `fa`/`fb` are the decisions' declared footprints;
/// `started` is the state's started vector.
fn independent(
    (p, ca): ExploreDecision,
    fa: &Footprint,
    (q, cb): ExploreDecision,
    fb: &Footprint,
    started: &[bool],
) -> bool {
    // A process's own steps always conflict (they share its local state
    // and inbox); two outputs conflict (the output history is ordered and
    // safety-visible); two sends to a common inbox conflict (the append
    // order is part of the state); a send into a process whose decision
    // is a λ step disables that step (λ requires an empty inbox) — start
    // steps are immune, they read no inbox.
    p != q
        && !(fa.may_output() && fb.may_output())
        && !fa.sends_intersect(fb)
        && !(fa.may_send_to(q) && cb.is_none() && started[q.index()])
        && !(fb.may_send_to(p) && ca.is_none() && started[p.index()])
}

/// The declared footprint of one enabled decision at `state`.
fn decision_footprint<P: Protocol>(state: &State<P>, d: ExploreDecision, n: usize) -> Footprint {
    let (p, choice) = d;
    let idx = p.index();
    if !state.started[idx] {
        let kind = StepKind::Start {
            inv: state.pending_inv[idx].as_ref(),
        };
        return state.procs[idx].footprint(p, n, kind);
    }
    let kind = match choice {
        Some(i) if !state.inboxes[idx].is_empty() => {
            let i = i.min(state.inboxes[idx].len() - 1);
            let (from, msg) = &state.inboxes[idx][i];
            StepKind::Deliver { from: *from, msg }
        }
        _ => StepKind::Tick,
    };
    state.procs[idx].footprint(p, n, kind)
}

/// A usable non-identity symmetry group element, with its inverse image
/// table cached for slot reordering (`inverse[j]` = the original slot
/// canonical slot `j` is filled from).
#[derive(Clone)]
pub(crate) struct SymPerm {
    pub(crate) perm: Permutation,
    pub(crate) inverse: Vec<usize>,
}

impl SymPerm {
    fn new(perm: Permutation) -> Self {
        let inverse = perm.inverse_map();
        SymPerm { perm, inverse }
    }
}

/// Restrict the protocol's declared symmetry group to the elements this
/// *scenario* cannot distinguish: preserving the failure pattern at every
/// step time, mapping invocation slots onto `Debug`-equal ones, and
/// seeing a structurally equal detector value at every alive `(p, t)`
/// (`P::Fd: PartialEq`; invocations only promise `Debug`). Asymmetric
/// scenarios thus never inherit a symmetric protocol's full group. The
/// identity is excluded — it is the implicit first candidate of every
/// canonicalization.
pub(crate) fn scenario_symmetry<P, D>(
    n: usize,
    max_depth: usize,
    pattern: &FailurePattern,
    invocations: &[Option<P::Inv>],
    detector: &mut D,
) -> Vec<SymPerm>
where
    P: Protocol,
    D: FdOracle<Value = P::Fd>,
{
    let declared: Symmetry = P::symmetry(n);
    let group = declared.permutations(n);
    if group.len() <= 1 {
        return Vec::new();
    }
    let inv_fps: Vec<u128> = invocations.iter().map(debug_fp).collect();
    // One detector sample per (p, t) — oracles are pure in (p, t), so
    // sampling here cannot perturb the exploration's own queries.
    let fd_samples: Vec<Vec<Option<P::Fd>>> = ProcessId::all(n)
        .map(|p| {
            (0..max_depth)
                .map(|t| {
                    let t = t as Time;
                    (!pattern.is_crashed(p, t)).then(|| detector.query(p, t))
                })
                .collect()
        })
        .collect();
    group
        .into_iter()
        .filter(|perm| !perm.is_identity())
        .filter(|perm| {
            ProcessId::all(n).all(|p| {
                let q = perm.apply(p);
                inv_fps[p.index()] == inv_fps[q.index()]
                    && (0..max_depth).all(|t| {
                        pattern.is_crashed(p, t as Time) == pattern.is_crashed(q, t as Time)
                            && fd_samples[p.index()][t] == fd_samples[q.index()][t]
                    })
            })
        })
        .map(SymPerm::new)
        .collect()
}

/// Rows per memo table above which a worker's table is dropped and
/// refilled: bounds the memos' memory on long explorations.
const MEMO_ROWS_CAP: usize = 1 << 15;

/// One component table of a [`Canonicalizer`] memo: for every component
/// key seen, a row of that component's keys after each group element,
/// in group order.
struct SlotMemo<S> {
    /// Component key → start of its row in `images`.
    rows: HashMap<S, usize>, // wfd-lint: allow(d1-hash-collections, keyed lookup/insert only; nothing iterates the memo)
    images: Vec<S>,
}

impl<S: Eq + Hash + Clone> SlotMemo<S> {
    fn new() -> Self {
        SlotMemo {
            rows: HashMap::new(), // wfd-lint: allow(d1-hash-collections, constructor for the memo excused above)
            images: Vec::new(),
        }
    }

    /// The start of `key`'s row, filled by `fill` on a miss.
    fn row(&mut self, key: &S, fill: impl FnOnce(&mut Vec<S>)) -> usize {
        if let Some(&start) = self.rows.get(key) {
            return start;
        }
        let start = self.images.len();
        fill(&mut self.images);
        self.rows.insert(key.clone(), start);
        start
    }

    /// Drop every row once the table is full. Called before a state's
    /// lookups, so no row start handed out for that state goes stale.
    fn trim(&mut self) {
        if self.rows.len() >= MEMO_ROWS_CAP {
            self.rows.clear();
            self.images.clear();
        }
    }
}

/// What determines a step's effect on a state's keys (see [`StepMemo`]).
#[derive(PartialEq, Eq, Hash)]
struct StepKey<S> {
    actor: usize,
    t: Time,
    started: bool,
    /// The actor's process key before the step.
    proc: S,
    /// The delivered `(sender, message)` entry's key, if the step
    /// delivered one.
    delivered: Option<S>,
}

impl<S: Clone> StepKey<S> {
    /// The memo key of `step` from a state whose keys are `parent` (slot
    /// keys, message keys) and whose inboxes are `before`.
    fn new<M>(step: Step, parent: (&[S], &[S]), before: &[Vec<M>]) -> Self {
        let (slots, msgs) = parent;
        let a = step.actor.index();
        let actor_run: usize = before[..a].iter().map(Vec::len).sum();
        StepKey {
            actor: a,
            t: step.t,
            started: step.started,
            proc: slots[a].clone(),
            delivered: step.delivered.map(|i| msgs[actor_run + i].clone()),
        }
    }
}

/// What a step did, in keys: the actor's new process key, and the keys
/// of the messages it appended, destination by destination (ascending),
/// each destination's in send order. Sends a crash dropped are not
/// among them. `emitted` records whether the step appended to the
/// output history, which the row does not key; the liveness checker,
/// whose fair-graph nodes keep no output history, always records
/// `false`.
struct StepEffect<S> {
    proc: S,
    sent: Vec<(usize, S)>,
    emitted: bool,
}

impl<S> StepEffect<S> {
    /// Walk the successor's inboxes in order, for a step from a state
    /// whose message keys are `parent_msgs` and whose inboxes are
    /// `before`. `f(j, kept, sent, touched)` gets inbox `j`'s parent
    /// message keys less the one the step delivered, as the runs before
    /// and after it; the keys of the messages this effect appended to
    /// it; and whether the step delivered from or appended to it.
    fn for_each_inbox<M>(
        &self,
        parent_msgs: &[S],
        before: &[Vec<M>],
        step: Step,
        mut f: impl FnMut(usize, [&[S]; 2], &[(usize, S)], bool),
    ) {
        let (mut old_start, mut sent_start) = (0, 0);
        for (j, old) in before.iter().enumerate() {
            let old_keys = &parent_msgs[old_start..old_start + old.len()];
            old_start += old.len();
            let sent_len = self.sent[sent_start..]
                .iter()
                .take_while(|(to, _)| *to == j)
                .count();
            let sent = &self.sent[sent_start..sent_start + sent_len];
            sent_start += sent_len;
            let removed = step.delivered.filter(|_| j == step.actor.index());
            let kept = match removed {
                Some(i) => [&old_keys[..i], &old_keys[i + 1..]],
                None => [old_keys, &[]],
            };
            f(j, kept, sent, removed.is_some() || !sent.is_empty());
        }
    }
}

/// A worker's transition memo: what each step it has keyed did to the
/// keys, looked up by everything that determines it — the actor, the
/// step time, whether the actor had started, the actor's process key and
/// the delivered message's key.
///
/// The lookup is sound under the [`StateHasher`] contract (components
/// with equal keys are equal) because a step's effect is a function of
/// exactly those. A handler reads only its state, the step (the
/// delivered entry; on a first step the pending invocation, which is
/// fixed per run) and `Ctx::{me, n, now, fd}` ([`Protocol`]); the
/// detector is pure in `(p, t)`; and which sends a crash drops depends
/// only on `t`. The explorer keeps one per worker next to its
/// [`Canonicalizer`], and the liveness checker one per worker chunk.
/// Bounded like the canonicalizer's memo: dropped once it holds
/// [`MEMO_ROWS_CAP`] rows.
pub(crate) struct StepMemo<S> {
    rows: HashMap<StepKey<S>, StepEffect<S>>, // wfd-lint: allow(d1-hash-collections, keyed lookup/insert only; nothing iterates the transition memo)
}

impl<S: Eq + Hash> StepMemo<S> {
    pub(crate) fn new() -> Self {
        StepMemo {
            rows: HashMap::new(), // wfd-lint: allow(d1-hash-collections, constructor for the transition memo excused above)
        }
    }

    /// The effect recorded for `key`, computed by `fill` on a miss, and
    /// whether it was a hit.
    fn effect(
        &mut self,
        key: StepKey<S>,
        fill: impl FnOnce() -> StepEffect<S>,
    ) -> (&StepEffect<S>, bool) {
        if self.rows.len() >= MEMO_ROWS_CAP {
            self.rows.clear();
        }
        match self.rows.entry(key) {
            Entry::Occupied(e) => (e.into_mut(), true),
            Entry::Vacant(v) => (v.insert(fill()), false),
        }
    }
}

/// The start of the row of the pending `(sender, message)` entry keyed
/// `key` in the message memo `msgs`; a miss renames the entry and keys
/// it once per element of `perms`.
fn message_row<H: StateHasher, P: Protocol>(
    msgs: &mut SlotMemo<H::Slot>,
    hasher: &H,
    perms: &[SymPerm],
    key: &H::Slot,
    (from, msg): &(ProcessId, P::Msg),
) -> usize {
    msgs.row(key, |row| {
        row.extend(perms.iter().map(|sp| {
            let mut msg = msg.clone();
            P::permute_msg(&mut msg, &sp.perm);
            hasher.slot(&(sp.perm.apply(*from), msg))
        }));
    })
}

/// Symmetry canonicalization of dedup keys from memoized per-slot keys.
///
/// The canonical key of a state is the least
/// [`compose`](StateHasher::compose) over the identity and every
/// element `π` of the group. Candidate `π` fills canonical slot `j` from
/// original slot `π⁻¹(j)`, with every embedded id rewritten forward
/// ([`Protocol::permute`], [`Protocol::permute_msg`],
/// [`Protocol::permute_output`], and inbox senders and output emitters
/// mapped through `π`). Slot words hold id-free scalars, so they move
/// with their slot unchanged. Inbox and output order are preserved —
/// appends are order-sensitive state.
///
/// A renamed state is never built. The key of a component after `π`
/// comes from a memo indexed by the component's own key: a process-state
/// or output-history miss clones that one component, renames it and
/// keys it once per group element; an inbox miss composes each group
/// element's image as the [`seq`](StateHasher::seq) of its messages'
/// images, which come from a per-message memo (a message miss renames
/// and keys that one entry). A hit reuses the row, which is sound as
/// long as components with equal keys are equal (see [`StateHasher`]).
/// Ties break toward the identity, then toward the earlier group
/// element, so the choice is deterministic; and since the key is a pure
/// function of the state, it does not depend on what the memo already
/// holds.
///
/// The explorer keeps one per worker across its whole run and feeds it
/// the keys its states carry; the liveness checker does the same for its
/// fair-graph nodes, and also takes the winning renaming's slot and
/// message keys from the memo rows. It is public so differential tests
/// can check it against [`StateHasher::key`] of materialized renamed
/// states.
pub struct Canonicalizer<'h, H: StateHasher, P> {
    hasher: &'h H,
    perms: Vec<SymPerm>,
    /// The current state's memo row starts, slot by slot, and its
    /// output history's.
    proc_rows: Vec<usize>,
    inbox_rows: Vec<usize>,
    out_row: usize,
    procs: SlotMemo<H::Slot>,
    inboxes: SlotMemo<H::Slot>,
    msgs: SlotMemo<H::Slot>,
    outputs: SlotMemo<H::Slot>,
    /// Scratch: one inbox's message row starts while its row is filled,
    /// and the original message keys while a renaming's are written.
    msg_rows: Vec<usize>,
    old_msgs: Vec<H::Slot>,
    _protocol: PhantomData<fn() -> P>,
}

impl<'h, H, P> Canonicalizer<'h, H, P>
where
    H: StateHasher,
    P: Protocol + Clone + Debug,
{
    /// A canonicalizer under `group`; identity elements are skipped (the
    /// identity is always the first candidate). An empty or trivial group
    /// makes [`Canonicalizer::key`] equal to [`StateHasher::key`].
    pub fn new(hasher: &'h H, group: &[Permutation]) -> Self {
        let perms = group
            .iter()
            .filter(|perm| !perm.is_identity())
            .cloned()
            .map(SymPerm::new)
            .collect();
        Self::with_perms(hasher, perms)
    }

    pub(crate) fn with_perms(hasher: &'h H, perms: Vec<SymPerm>) -> Self {
        Canonicalizer {
            hasher,
            perms,
            proc_rows: Vec::new(),
            inbox_rows: Vec::new(),
            out_row: 0,
            procs: SlotMemo::new(),
            inboxes: SlotMemo::new(),
            msgs: SlotMemo::new(),
            outputs: SlotMemo::new(),
            msg_rows: Vec::new(),
            old_msgs: Vec::new(),
            _protocol: PhantomData,
        }
    }

    /// The canonical key of the given explorer state components: key
    /// every component, then canonicalize from those keys with each
    /// slot's `started` bit as its word.
    pub fn key(
        &mut self,
        procs: &[P],
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        started: &[bool],
        outputs: &[(ProcessId, P::Output)],
    ) -> H::Key {
        let keys = SlotKeys::of(self.hasher, procs, inboxes, outputs);
        let words = started_words(started);
        self.canonical(procs, inboxes, &words, outputs, &keys).0
    }

    /// Memo rows held across the process, inbox, message and
    /// output-history tables (one per distinct component key since the
    /// last trim).
    pub fn memo_rows(&self) -> usize {
        self.procs.rows.len()
            + self.inboxes.rows.len()
            + self.msgs.rows.len()
            + self.outputs.rows.len()
    }

    /// Whether a non-identity group element is ever tried. Without one
    /// the canonical key is the identity composition, and `outputs` is
    /// never read.
    fn has_group(&self) -> bool {
        !self.perms.is_empty()
    }

    /// The canonical key of a state whose components carry the keys
    /// `keys` and the slot words `words`, plus the index of the group
    /// element that realized it (`None` when the identity is least). The
    /// components are read only on a memo miss, to rename them; `outputs`
    /// only on an output-memo miss, so a caller without a group (see
    /// [`has_group`](Canonicalizer::has_group)) may pass an empty slice.
    pub(crate) fn canonical(
        &mut self,
        procs: &[P],
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        words: &[u64],
        outputs: &[(ProcessId, P::Output)],
        keys: &SlotKeys<H::Slot>,
    ) -> (H::Key, Option<usize>) {
        let hasher = self.hasher;
        let mut best = keys.compose(hasher, words);
        if self.perms.is_empty() {
            return (best, None);
        }
        let perms = &self.perms;
        self.procs.trim();
        self.inboxes.trim();
        self.msgs.trim();
        self.outputs.trim();
        self.proc_rows.clear();
        for (proc, key) in procs.iter().zip(keys.procs()) {
            self.proc_rows.push(self.procs.row(key, |images| {
                images.extend(perms.iter().map(|sp| {
                    let mut renamed = proc.clone();
                    renamed.permute(&sp.perm);
                    hasher.slot(&renamed)
                }));
            }));
        }
        self.inbox_rows.clear();
        let mut start = 0;
        for (inbox, key) in inboxes.iter().zip(keys.inboxes()) {
            let msg_keys = &keys.msgs[start..start + inbox.len()];
            start += inbox.len();
            let (msgs, msg_rows) = (&mut self.msgs, &mut self.msg_rows);
            self.inbox_rows.push(self.inboxes.row(key, |images| {
                msg_rows.clear();
                for (entry, msg_key) in inbox.iter().zip(msg_keys) {
                    msg_rows.push(message_row::<H, P>(msgs, hasher, perms, msg_key, entry));
                }
                images.extend(
                    (0..perms.len())
                        .map(|g| hasher.seq(msg_rows.iter().map(|&r| &msgs.images[r + g]))),
                );
            }));
        }
        self.out_row = self.outputs.row(keys.outputs(), |images| {
            images.extend(perms.iter().map(|sp| {
                let renamed: Vec<(ProcessId, P::Output)> = outputs
                    .iter()
                    .map(|(p, out)| {
                        let mut out = out.clone();
                        P::permute_output(&mut out, &sp.perm);
                        (sp.perm.apply(*p), out)
                    })
                    .collect();
                hasher.slot(renamed.as_slice())
            }));
        });
        let mut best_perm = None;
        for (g, sp) in perms.iter().enumerate() {
            let key = hasher.compose(
                sp.inverse.iter().map(|&i| {
                    (
                        &self.procs.images[self.proc_rows[i] + g],
                        &self.inboxes.images[self.inbox_rows[i] + g],
                        words[i],
                    )
                }),
                &self.outputs.images[self.out_row + g],
            );
            if key < best {
                best = key;
                best_perm = Some(g);
            }
        }
        (best, best_perm)
    }

    /// Overwrite `keys` with the keys of the last
    /// [`canonical`](Canonicalizer::canonical) call's state, whose
    /// inboxes are `inboxes`, renamed by group element `g` (the index it
    /// returned): canonical slot `j` takes the images of original slot
    /// `π⁻¹(j)`, its process, inbox and output keys read off the rows
    /// that call filled, its message keys off the message memo (a miss
    /// renames and keys that one entry).
    pub(crate) fn renamed_keys(
        &mut self,
        g: usize,
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        keys: &mut SlotKeys<H::Slot>,
    ) {
        let (n, hasher, sp) = (self.proc_rows.len(), self.hasher, &self.perms[g]);
        let perms = &self.perms;
        std::mem::swap(&mut self.old_msgs, &mut keys.msgs);
        keys.msgs.clear();
        for (j, &i) in sp.inverse.iter().enumerate() {
            keys.slots[j].clone_from(&self.procs.images[self.proc_rows[i] + g]);
            keys.slots[n + j].clone_from(&self.inboxes.images[self.inbox_rows[i] + g]);
            let start: usize = inboxes[..i].iter().map(Vec::len).sum();
            for (entry, key) in inboxes[i].iter().zip(&self.old_msgs[start..]) {
                let row = message_row::<H, P>(&mut self.msgs, hasher, perms, key, entry);
                keys.msgs.push(self.msgs.images[row + g].clone());
            }
        }
        keys.slots[2 * n].clone_from(&self.outputs.images[self.out_row + g]);
    }
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// A built explorer state, shared between the frontier entry or
/// survivor that holds it and the deferred children that will be built
/// from it.
type Shared<P, S> = Arc<KeyedState<P, S>>;

/// A child keyed but not yet built: its parent, the decision that leads
/// to it, and its key, composed from the parent's keys and the
/// transition memo's row for the step without running the handler
/// ([`KeyedState::child_key`]). The revisit rule reads the key as it
/// reads a built state's; a child the rule drops is never built, and one
/// it keeps is built by the worker that expands it.
struct Deferred<P: Protocol, S, K> {
    parent: Shared<P, S>,
    decision: ExploreDecision,
    key: K,
}

/// One frontier entry: a built state, or a deferred child.
enum Frontier<P: Protocol, S, K> {
    Built(Shared<P, S>),
    Deferred(Deferred<P, S, K>),
}

impl<P: Protocol, S, K> Frontier<P, S, K> {
    fn depth(&self) -> usize {
        match self {
            Frontier::Built(node) => node.state.depth,
            Frontier::Deferred(child) => child.parent.state.depth + 1,
        }
    }

    /// Whether the revisit rule restricted this entry's expansion (a
    /// partial cache hit, see [`State::restrict`]). A deferred child
    /// never is: deferral needs DPOR off, and without it every cover is
    /// a full cover.
    fn is_restricted(&self) -> bool {
        matches!(self, Frontier::Built(node) if node.state.restrict.is_some())
    }

    /// The shared state this entry holds: its own, or its parent's.
    fn into_shared(self) -> Shared<P, S> {
        match self {
            Frontier::Built(node) => node,
            Frontier::Deferred(child) => child.parent,
        }
    }
}

/// Release a handle on a shared state. When no deferred child still
/// holds the state, return it to the arena (dropping its shared history
/// links so unshared chain segments are freed promptly; its slot keys
/// stay allocated for the next state to overwrite). Otherwise drop the
/// handle: the release of the last child's returns it.
fn recycle<P: Protocol, S>(mut s: Shared<P, S>, pool: &mut Vec<Shared<P, S>>) {
    if pool.len() >= POOL_CAP {
        return;
    }
    if let Some(unshared) = Arc::get_mut(&mut s) {
        let state = &mut unshared.state;
        state.outputs = None;
        state.decisions = None;
        state.sleep.clear();
        state.restrict = None;
        pool.push(s);
    }
}

/// One worker's slot of the free-list arena.
type WorkerStates<P, S> = Mutex<Vec<Shared<P, S>>>;

/// One worker's slot of the child buffers.
type WorkerEntries<P, S, K> = Mutex<Vec<Frontier<P, S, K>>>;

/// What an expansion worker steps children with: its slot of the
/// arena, its transition memo and its step buffers, reused across its
/// chunk.
struct Stepper<'m, P: Protocol, S> {
    free: Vec<Shared<P, S>>,
    memo: MutexGuard<'m, StepMemo<S>>,
    bufs: (SendBuf<P>, Vec<P::Output>),
    outputs: Vec<(ProcessId, P::Output)>,
}

impl<P, S> Stepper<'_, P, S>
where
    P: Protocol + Clone + Debug,
    S: Eq + Hash + Clone,
{
    /// Build `parent`'s child by `decision` into a state from the arena,
    /// stepped with the detector value `fd` (and checked against the
    /// `declared` footprint under DPOR), and key it from `parent`'s keys
    /// through the memo when a `hasher` is given (dedup on). Returns the
    /// child and whether the memo held its step. Debug builds re-key the
    /// child in full and compare.
    fn build<H: StateHasher<Slot = S>>(
        &mut self,
        hasher: Option<&H>,
        env: &StepEnv<'_>,
        fd: P::Fd,
        parent: &KeyedState<P, S>,
        (p, choice): ExploreDecision,
        declared: Option<&Footprint>,
    ) -> (Shared<P, S>, bool) {
        let mut dst = self
            .free
            .pop()
            .unwrap_or_else(|| Arc::new(KeyedState::blank()));
        let child = Arc::get_mut(&mut dst).expect("the arena holds unshared states");
        apply_step_into(
            env,
            &parent.state,
            &mut child.state,
            p,
            fd,
            choice,
            &mut self.bufs,
            declared,
        );
        let hit = hasher.is_some_and(|hasher| {
            let hit = child.inherit_keys(hasher, &mut self.memo, parent, p, &mut self.outputs);
            #[cfg(debug_assertions)]
            child.assert_keys_fresh(hasher, &mut self.outputs);
            hit
        });
        (dst, hit)
    }
}

/// A violation as collected inside a batch, pre-materialized.
struct FoundViolation {
    message: String,
    decisions: Vec<ExploreDecision>,
}

/// What one expansion chunk hands back to the merge step.
struct ChunkOut<P: Protocol, S, K> {
    children: Vec<Frontier<P, S, K>>,
    violations: Vec<FoundViolation>,
    depth_bounded: bool,
    /// Children skipped because their decision was asleep. Only merged
    /// from violation-free batches (a violating batch's expansion is
    /// racily short-circuited, so its count is not deterministic — and it
    /// never contributes children either).
    dpor_pruned: usize,
    /// Children skipped because their decision fell outside a partially
    /// covered revisit's [`State::restrict`] set — i.e. the seen-table
    /// already covers their subtree. Merged into `dedup_hits`, under the
    /// same violation-free-batch guard as `dpor_pruned`.
    restricted: usize,
}

/// Contiguous, near-even, in-order split of `0..len` into at most
/// `chunks` non-empty ranges.
pub(crate) fn chunk_ranges(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Exhaustively explore message-delivery interleavings. This is *the*
/// entry point: every knob lives on [`ExploreConfig`], and states are
/// keyed with [`FingerprintHasher`]. See [`explore_custom`] for the
/// traversal mechanics and for keying with another [`StateHasher`].
///
/// * `make_procs` builds the initial configuration (fresh per call).
/// * `invocations[p]` is consumed at `p`'s first step (with `on_start`).
/// * `detector` must be a pure function of `(p, t)` (as all oracles are);
///   the step's time is its depth.
/// * `safety` is evaluated in every reachable state over the protocol
///   states and all outputs emitted so far; returning `Err` stops the
///   exploration with a replayable counterexample.
pub fn explore<P, D>(
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
    explore_custom(
        cfg,
        FingerprintHasher,
        make_procs,
        invocations,
        pattern,
        detector,
        safety,
    )
}

/// [`explore`] keyed with the given [`StateHasher`]: [`ExactKeyHasher`]
/// for collision-free reference keys, or a user-defined one.
/// [`explore`] is this function with [`FingerprintHasher`].
///
/// Traversal: batched depth-first. Each round pops up to
/// [`ExploreConfig::batch`] entries off the frontier stack (`batch == 1`
/// is bit-for-bit the classic DFS), composes (and, under symmetry,
/// canonicalizes) the keys of its built states in parallel from the slot
/// keys each carries, takes each deferred child's key as composed at
/// generation, and pre-reads them against the sharded seen-table,
/// resolves the budget-aware revisit rule *sequentially in batch order*
/// (the rule is order-dependent), then samples the detector answers of
/// the survivors' depths sequentially (oracles are pure in `(p, t)`, so
/// each pair is queried once per exploration and the workers read the
/// answers from a lock-free table), then fans the survivors across the
/// workers for building, safety checking and expansion. A worker builds
/// each deferred survivor from its parent, then keys each child from its
/// parent's keys and its transition memo, which renders only on a miss
/// (the root alone is keyed in full; see [`StateHasher`]). A child whose
/// step the memo holds and which emitted nothing goes onto the stack
/// unbuilt, as its parent, its decision and its key, unless DPOR or a
/// usable symmetry group is on; every other child is built at once.
/// Children are merged back onto the stack in survivor order, and a batch
/// with violations reports the lexicographically-least decision list
/// among them — every step is either order-independent or resolved in a
/// fixed order, which is why the worker count cannot change the report.
pub fn explore_custom<H, P, D>(
    cfg: ExploreConfig,
    hasher: H,
    make_procs: impl Fn() -> Vec<P>,
    invocations: Vec<Option<P::Inv>>,
    pattern: &FailurePattern,
    mut detector: D,
    safety: impl Fn(&[P], &[(ProcessId, P::Output)]) -> Result<(), String> + Sync,
) -> ExploreReport
where
    H: StateHasher,
    P: Protocol + Clone + Debug + Send + Sync,
    P::Msg: Send + Sync,
    P::Output: Send + Sync,
    P::Inv: Send + Sync,
    P::Fd: Sync,
    D: FdOracle<Value = P::Fd>,
{
    let threads = cfg
        .threads
        .unwrap_or_else(crate::par::explore_threads)
        .max(1);
    let batch_cap = cfg.batch.max(1);
    // Metrics (side table only — nothing below reads them back, so the
    // traversal and the report are byte-identical with metrics on or
    // off). The clock is read once per *phase*, never per state, and
    // only when the handle is on.
    let obs = cfg.obs.clone();
    // wfd-lint: allow(d2-wall-clock, read once per phase for obs metrics only; never compared on the decision path)
    let t_start = obs.is_on().then(Instant::now);
    // Resolve the scenario's usable symmetry group before the invocation
    // vector is consumed by the initial state (the filter compares its
    // slots). Without dedup there is no key to canonicalize.
    let sym_perms: Vec<SymPerm> = if cfg.symmetry && cfg.dedup {
        scenario_symmetry::<P, D>(
            invocations.len(),
            cfg.max_depth,
            pattern,
            &invocations,
            &mut detector,
        )
    } else {
        Vec::new()
    };
    let mut root = KeyedState {
        state: initial_state(make_procs(), invocations),
        keys: SlotKeys::new(),
    };
    let n = root.state.procs.len();
    let env = StepEnv { pattern, n };
    // Slot keys exist for the dedup key only. The root is keyed in full;
    // every other state inherits its parent's keys when it is built.
    if cfg.dedup {
        root.keys = root.full_keys(&hasher, &mut Vec::new());
    }
    let keyed = cfg.dedup.then_some(&hasher);
    // Whether a child may wait on the frontier as its key, built only if
    // the revisit rule keeps it: when its key is the identity composition
    // of carried keys. DPOR checks each executed step's footprint and
    // sleeps on it, and the canonicalizer renames built components, so
    // both keep children eager.
    let defer = cfg.dedup && !cfg.dpor && sym_perms.is_empty();

    // Seen-table: state key → the Pareto front of recorded expansions
    // (depth, sleep set) — see [`SeenCover`]. A revisit is pruned only
    // when some recorded expansion had at least as much remaining depth
    // budget *and* slept no more than the revisit would; without
    // reductions this degenerates to the historical "lowest expanded
    // depth" rule. The key includes the output history: the safety
    // predicate reads outputs, so two branches that converge in
    // `(procs, inboxes, started)` but emitted different outputs are
    // *different* states to the checker.
    let shard_count = seen_shard_width(threads);
    let shards: Vec<Mutex<HashMap<H::Key, Vec<SeenCover>>>> = (0..shard_count) // wfd-lint: allow(d1-hash-collections, keyed insert/lookup only; the dedup_entries sum reads len(), never iterates entries)
        .map(|_| Mutex::new(HashMap::new())) // wfd-lint: allow(d1-hash-collections, constructor for the seen-table excused above)
        .collect();

    let mut stack: Vec<Frontier<P, H::Slot, H::Key>> = vec![Frontier::Built(Arc::new(root))];
    // Free-list arena and child buffers, one slot per worker, persistent
    // across batches. All hand-offs move `Vec` *headers* (O(1)), never
    // elements — shuffling states between a shared arena and per-chunk
    // lists element-wise costs more than the allocations it saves.
    let free_pools: Vec<WorkerStates<P, H::Slot>> =
        (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    let child_bufs: Vec<WorkerEntries<P, H::Slot, H::Key>> =
        (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    // One key canonicalizer per worker, its slot memo persistent across
    // batches. With no usable symmetry group it keys the identity only.
    let canonicalizers: Vec<Mutex<Canonicalizer<'_, H, P>>> = (0..threads)
        .map(|_| Mutex::new(Canonicalizer::with_perms(&hasher, sym_perms.clone())))
        .collect();
    // And one transition memo per worker, persistent likewise: it gives
    // each child the keys its step produced, so a hit renders nothing.
    let step_memos: Vec<Mutex<StepMemo<H::Slot>>> =
        (0..threads).map(|_| Mutex::new(StepMemo::new())).collect();
    let mut next_pool = 0usize;
    let mut survivors: Vec<Frontier<P, H::Slot, H::Key>> = Vec::new();
    // Filled once per `(p, t)` for the whole exploration: a deferred
    // child is built batches after its parent's values were sampled.
    let mut fd_cache: FdTable<P::Fd> = FdTable::new(n, cfg.max_depth);
    // Per-batch map: survivor depth `t` → whether the failure pattern and
    // the detector are stable across times `t` and `t + 1` (the
    // precondition for certifying independence at that depth).
    let mut dpor_stable = DepthTable::new(cfg.max_depth);

    let mut states_visited = 0usize;
    let mut depth_bounded = false;
    let mut states_capped = false;
    let mut dedup_hits = 0usize;
    let mut max_frontier_len = 0usize;
    let mut states_pruned_dpor = 0usize;
    let mut symmetry_canonical_hits = 0usize;
    let halt = AtomicBool::new(false); // wfd-lint: allow(d3-atomics, benign race: may only skip expansion work; violations and flags stay exact and the merge is deterministic)

    let found = loop {
        max_frontier_len = max_frontier_len.max(stack.len());
        if stack.is_empty() {
            break None;
        }
        if states_visited >= cfg.max_states {
            states_capped = true;
            break None;
        }

        // The batch is the top `take` entries of the stack; batch index
        // `j` is stack slot `len - 1 - j`, so batch order is pop order
        // and `batch == 1` reproduces the depth-first order exactly. The
        // entries are keyed *in place* — they move at most once, straight
        // into `survivors`.
        let take = batch_cap.min(stack.len());
        let top = stack.len();
        obs.add(CounterId::ExploreBatches, 1);
        obs.record(HistId::ExploreFrontierLen, stack.len() as u64);
        obs.record(HistId::ExploreBatchSize, take as u64);

        survivors.clear();
        let mut recycle_rr = |s: Shared<P, H::Slot>| {
            recycle(
                s,
                &mut free_pools[next_pool % threads]
                    .lock()
                    .expect("free pool poisoned"),
            );
            next_pool = next_pool.wrapping_add(1);
        };
        if cfg.dedup {
            // Key phase (parallel): compose (and canonicalize) every built
            // batch state's key from the slot keys it carries, take every
            // deferred child's key as it was composed at generation, and
            // pre-read them against the committed table. Committed depths
            // only ever decrease, so a pre-read prune verdict can never be
            // invalidated by the sequential pass below — pre-reads are a
            // pure early-out that moves lookup work into the parallel
            // section, so with one worker they are skipped outright (the
            // resolution pass below is authoritative either way).
            let pre_read = threads > 1;
            let ranges = chunk_ranges(take, threads);
            let key_phase = obs.phase(PhaseId::ExploreKey);
            let batch_keys = par_map_with(&ranges, threads, |slot, range| {
                let mut keys = Vec::with_capacity(range.len());
                let mut canon_sleeps = Vec::with_capacity(range.len());
                let mut arg_perms = Vec::with_capacity(range.len());
                let mut pre_pruned = Vec::with_capacity(range.len());
                let mut sym_hits = 0usize;
                let mut outputs = Vec::new();
                let mut words = Vec::new();
                let mut canon = canonicalizers[slot].lock().expect("canonicalizer poisoned");
                for j in range.clone() {
                    let entry = &stack[top - 1 - j];
                    let (key, canon_sleep, arg_perm) = match entry {
                        Frontier::Deferred(child) => (child.key.clone(), Vec::new(), None),
                        Frontier::Built(node) => {
                            let state = &node.state;
                            // Only an output-memo miss reads the history,
                            // and only a group can miss.
                            outputs.clear();
                            if canon.has_group() {
                                materialize_outputs(
                                    &state.outputs,
                                    state.outputs_len,
                                    &mut outputs,
                                );
                            }
                            words.clear();
                            words.extend(state.started.iter().map(|&s| u64::from(s)));
                            let (key, arg_perm) = canon.canonical(
                                &state.procs,
                                &state.inboxes,
                                &words,
                                &outputs,
                                &node.keys,
                            );
                            sym_hits += usize::from(arg_perm.is_some());
                            // The sleep set enters the seen-table in the
                            // *same* coordinates as the key: mapped through
                            // the canonicalizing permutation (inbox indices
                            // survive unchanged — permutation preserves
                            // inbox order).
                            let canon_sleep = match arg_perm {
                                None => state.sleep.clone(),
                                Some(pi) => {
                                    let perm = &sym_perms[pi].perm;
                                    let mut sl: Vec<ExploreDecision> = state
                                        .sleep
                                        .iter()
                                        .map(|&(p, c)| (perm.apply(p), c))
                                        .collect();
                                    sl.sort_unstable();
                                    sl
                                }
                            };
                            (key, canon_sleep, arg_perm)
                        }
                    };
                    let pruned = pre_read && {
                        let shard = shards[H::shard(&key, shard_count)]
                            .lock()
                            .expect("shard poisoned");
                        match shard.get(&key) {
                            Some(covers) => covered_by(covers, entry.depth(), &canon_sleep),
                            None => false,
                        }
                    };
                    keys.push(key);
                    canon_sleeps.push(canon_sleep);
                    arg_perms.push(arg_perm);
                    pre_pruned.push(pruned);
                }
                (keys, canon_sleeps, arg_perms, pre_pruned, sym_hits)
            });
            drop(key_phase);

            // Resolution phase (sequential, batch order): the revisit
            // rule is order-dependent *within* a batch, so it runs in the
            // one fixed order every thread count shares.
            let _revisit_phase = obs.phase(PhaseId::ExploreRevisit);
            for (keys, canon_sleeps, arg_perms, pre_pruned, sym_hits) in batch_keys {
                symmetry_canonical_hits += sym_hits;
                for (((key, canon_sleep), arg_perm), pre) in keys
                    .into_iter()
                    .zip(canon_sleeps)
                    .zip(arg_perms)
                    .zip(pre_pruned)
                {
                    let mut entry = stack.pop().expect("batch within stack");
                    let depth = entry.depth();
                    let mut restrict = None;
                    let keep = !pre && {
                        let mut shard = shards[H::shard(&key, shard_count)]
                            .lock()
                            .expect("shard poisoned");
                        match shard.entry(key) {
                            Entry::Occupied(mut e) => {
                                if covered_by(e.get(), depth, &canon_sleep) {
                                    false
                                } else {
                                    // Partial cover — restricted re-expansion
                                    // (Godefroid's state-space caching). Every
                                    // decision some *valid* cover (one with at
                                    // least as much remaining depth budget)
                                    // did not sleep already has an explored
                                    // subtree; only the intersection of the
                                    // valid covers' sleeps may still hide
                                    // unexplored runs. When that intersection
                                    // is asleep here too, the covers jointly
                                    // subsume this visit even though no single
                                    // one does — prune, after strengthening
                                    // the front with this visit's cover (its
                                    // claim is backed by the same union).
                                    // Otherwise keep the state, restricted to
                                    // the intersection mapped back from the
                                    // table's canonical coordinates into this
                                    // state's own ids (inbox positions
                                    // survive — permutations preserve inbox
                                    // order). `restrict` stays `None` exactly
                                    // when no cover is valid, or when DPOR is
                                    // off (all sleeps empty then, so any
                                    // valid cover is a full cover).
                                    let mut valid = e.get().iter().filter(|c| c.depth <= depth);
                                    let mandatory = valid.next().map(|first| {
                                        let mut m = first.sleep.clone();
                                        for c in valid {
                                            m.retain(|d| sleep_contains(&c.sleep, *d));
                                        }
                                        m
                                    });
                                    // The cover this visit records claims
                                    // only what is actually backed: with a
                                    // restriction, everything outside
                                    // `mandatory ∩ canon_sleep` is explored —
                                    // either expanded now (in `mandatory`,
                                    // awake) or by the cover union (outside
                                    // `mandatory`). Recording that smaller
                                    // sleep makes the front converge: repeat
                                    // revisits with fresh sleeps shrink the
                                    // recorded sleep toward the intersection
                                    // until full prunes take over.
                                    match mandatory {
                                        Some(m)
                                            if m.iter()
                                                .all(|d| sleep_contains(&canon_sleep, *d)) =>
                                        {
                                            push_cover(e.get_mut(), depth, m);
                                            false
                                        }
                                        Some(mut m) => {
                                            let cover_sleep: Vec<ExploreDecision> = m
                                                .iter()
                                                .copied()
                                                .filter(|d| sleep_contains(&canon_sleep, *d))
                                                .collect();
                                            if let Some(pi) = arg_perm {
                                                let inv = &sym_perms[pi].inverse;
                                                for (p, _) in m.iter_mut() {
                                                    *p = ProcessId(inv[p.index()]);
                                                }
                                                m.sort_unstable();
                                            }
                                            restrict = Some(m);
                                            push_cover(e.get_mut(), depth, cover_sleep);
                                            true
                                        }
                                        None => {
                                            push_cover(e.get_mut(), depth, canon_sleep);
                                            true
                                        }
                                    }
                                }
                            }
                            Entry::Vacant(v) => {
                                v.insert(vec![SeenCover {
                                    depth,
                                    sleep: canon_sleep,
                                }]);
                                true
                            }
                        }
                    };
                    if !keep {
                        dedup_hits += 1;
                        recycle_rr(entry.into_shared());
                        continue;
                    }
                    if restrict.is_some() {
                        let Frontier::Built(node) = &mut entry else {
                            unreachable!("a deferred child is never restricted")
                        };
                        Arc::get_mut(node)
                            .expect("an unexpanded state is unshared")
                            .state
                            .restrict = restrict;
                    }
                    survivors.push(entry);
                }
            }
        } else {
            survivors.extend(stack.drain(top - take..).rev());
        }

        // Enforce the state cap mid-batch, in batch order, so the set of
        // expanded states is identical at every thread count. Restricted
        // revisits (partial cache hits — see [`State::restrict`]) count
        // neither toward the cap nor toward `states_visited`: the state
        // itself was already visited in full; only its residual decisions
        // are expanded. They land in `dedup_hits` with the fully covered
        // revisits.
        let remaining = cfg.max_states - states_visited;
        let mut full_visits = 0usize;
        let mut cut = survivors.len();
        for (i, s) in survivors.iter().enumerate() {
            if !s.is_restricted() {
                if full_visits == remaining {
                    cut = i;
                    break;
                }
                full_visits += 1;
            }
        }
        if cut < survivors.len() {
            states_capped = true;
            for s in survivors.drain(cut..) {
                recycle_rr(s.into_shared());
            }
        }
        states_visited += full_visits;
        dedup_hits += survivors.len() - full_visits;
        if survivors.is_empty() {
            continue;
        }

        // Oracle phase (sequential): detector answers are pure functions
        // of `(p, t)` (the FdOracle contract), so one query per distinct
        // pair serves the whole exploration from a read-only table — the
        // expansion workers never contend on the detector.
        let oracle_phase = obs.phase(PhaseId::ExploreOracle);
        dpor_stable.clear();
        for entry in &survivors {
            let depth = entry.depth();
            obs.record(HistId::ExploreStateDepth, depth as u64);
            if depth >= cfg.max_depth {
                continue;
            }
            let t = depth as Time;
            for p in ProcessId::all(n) {
                if !pattern.is_crashed(p, t) {
                    fd_cache.fill_with(p.index(), t, || detector.query(p, t));
                }
            }
            if cfg.dpor && !dpor_stable.contains(t) {
                // Independence at depth `t` commutes a step between times
                // `t` and `t + 1`; that is only behavior-preserving when
                // no process's crash status changes and every alive
                // process sees the same detector value at both times.
                // The comparison is structural (`P::Fd: PartialEq`): a
                // `Debug`-fingerprint proxy would wrongly certify
                // independence for distinct values that print alike.
                let stable = ProcessId::all(n).all(|p| {
                    let crashed = pattern.is_crashed(p, t);
                    crashed == pattern.is_crashed(p, t + 1)
                        && (crashed || *fd_cache.get(p.index(), t) == detector.query(p, t + 1))
                });
                dpor_stable.insert(t, stable);
            }
        }
        drop(oracle_phase);

        // Expansion phase (parallel): build each deferred survivor,
        // safety-check and expand each survivor chunk, keying every child
        // from its parent's slot keys — before building it where the
        // memo allows, so that it waits on the frontier unbuilt; each
        // chunk draws from (and returns to) its own slot of the free-list
        // arena.
        let expand_phase = obs.phase(PhaseId::ExploreExpand);
        let ranges = chunk_ranges(survivors.len(), threads);
        let outs = par_map_with(&ranges, threads, |slot, range| {
            let mut stepper = Stepper {
                free: std::mem::take(&mut *free_pools[slot].lock().expect("pool poisoned")),
                memo: step_memos[slot].lock().expect("step memo poisoned"),
                bufs: (Vec::new(), Vec::new()),
                outputs: Vec::new(),
            };
            let mut out = ChunkOut {
                children: std::mem::take(
                    &mut *child_bufs[slot].lock().expect("child buf poisoned"),
                ),
                violations: Vec::new(),
                depth_bounded: false,
                dpor_pruned: 0,
                restricted: 0,
            };
            // Memo hits and misses, one per child keyed (a deferred child
            // at generation, where it hits), for the obs counters.
            let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
            let mut tally = |hit: bool| match (cfg.dedup, hit) {
                (false, _) => {}
                (true, true) => memo_hits += 1,
                (true, false) => memo_misses += 1,
            };
            let (mut deferred, mut deferred_built) = (0u64, 0u64);
            let mut inbox_keys = Vec::new();
            // The machine-layer enabled set of the current state, reused
            // across the chunk.
            let mut enabled: Vec<ExploreDecision> = Vec::new();
            // DPOR scratch, reused across the chunk's states: the sleeping
            // decisions' footprints and the decisions already executed at
            // the current state (with theirs).
            let mut sleep_fps: Vec<(ExploreDecision, Footprint)> = Vec::new();
            let mut executed: Vec<(ExploreDecision, Footprint)> = Vec::new();
            // A deferred survivor, built for its expansion; returned to the
            // arena once expanded, unless a child it deferred holds it.
            let mut built = None;
            for entry in &survivors[range.clone()] {
                if let Some(node) = built.take() {
                    recycle(node, &mut stepper.free);
                }
                let node = match entry {
                    Frontier::Built(node) => node,
                    Frontier::Deferred(child) => {
                        let (p, _) = child.decision;
                        let t = child.parent.state.depth as Time;
                        let (node, _) = stepper.build(
                            keyed,
                            &env,
                            fd_cache.get(p.index(), t).clone(),
                            &child.parent,
                            child.decision,
                            None,
                        );
                        // The key the child waited under must be the one
                        // its built state composes.
                        #[cfg(debug_assertions)]
                        assert!(
                            node.keys
                                .compose(&hasher, &started_words(&node.state.started))
                                == child.key,
                            "a deferred child's key diverges from its built state's at \
                             depth {} (decisions {:?})",
                            node.state.depth,
                            node.state.collect_decisions(),
                        );
                        deferred_built += 1;
                        &*built.insert(node)
                    }
                };
                let state = &node.state;
                // A restricted revisit's safety verdict is fixed by its
                // first visit — the key covers the procs and the output
                // history, and a violation there would have ended the
                // exploration — so only full visits are checked.
                if state.restrict.is_none() {
                    let outputs = &mut stepper.outputs;
                    materialize_outputs(&state.outputs, state.outputs_len, outputs);
                    if let Err(message) = safety(&state.procs, outputs) {
                        out.violations.push(FoundViolation {
                            message,
                            decisions: materialize_decisions(&state.decisions),
                        });
                        halt.store(true, Ordering::Relaxed); // wfd-lint: allow(d3-atomics, publishes the expansion-skip hint; relaxed is enough because no result depends on when it lands)
                        continue;
                    }
                }
                if state.depth >= cfg.max_depth {
                    out.depth_bounded = true;
                    continue;
                }
                // Any violation in this batch ends the exploration before
                // any of the batch's children reach the stack (see the
                // merge step), so *expansion* — and only expansion; flags
                // and violations above stay exact — may be skipped once
                // one is seen, even though which children get skipped is
                // timing-dependent.
                // wfd-lint: allow(d3-atomics, racy read only skips child expansion; the batch's violations are already recorded exactly)
                if halt.load(Ordering::Relaxed) {
                    continue;
                }
                let t = state.depth as Time;
                // The branching rule is the machine layer's enabled set —
                // the same enumeration, in the same order, that
                // `ProtocolMachine` exposes and the baseline explorer
                // walks.
                enabled.clear();
                enabled_decisions(state, pattern, n, &mut enabled);
                if cfg.dpor {
                    // Sleep-set expansion (Godefroid): skip sleeping
                    // decisions; a child's sleep is the still-independent
                    // part of the parent's sleep plus the earlier-executed
                    // independent decisions — certified only when the
                    // pattern and detector are stable at this depth.
                    let stable = dpor_stable.get(t).unwrap_or(false);
                    sleep_fps.clear();
                    sleep_fps.extend(
                        state
                            .sleep
                            .iter()
                            .map(|&d| (d, decision_footprint(state, d, n))),
                    );
                    executed.clear();
                    for &d in &enabled {
                        let (p, _) = d;
                        if sleep_contains(&state.sleep, d) {
                            out.dpor_pruned += 1;
                            continue;
                        }
                        if let Some(mandatory) = &state.restrict {
                            if !sleep_contains(mandatory, d) {
                                // Outside the restriction: an earlier
                                // visit's recorded expansion already
                                // covers this subtree (see the
                                // resolution pass). Skip it, and — when
                                // independence is certified at this
                                // depth — let later siblings' children
                                // sleep it, exactly as if it had been
                                // executed first.
                                out.restricted += 1;
                                if stable {
                                    sleep_fps.push((d, decision_footprint(state, d, n)));
                                }
                                continue;
                            }
                        }
                        let fp = decision_footprint(state, d, n);
                        let (mut dst, hit) = stepper.build(
                            keyed,
                            &env,
                            fd_cache.get(p.index(), t).clone(),
                            node,
                            d,
                            Some(&fp),
                        );
                        tally(hit);
                        if stable {
                            let sleep = &mut Arc::get_mut(&mut dst)
                                .expect("a fresh child is unshared")
                                .state
                                .sleep;
                            sleep.extend(
                                sleep_fps
                                    .iter()
                                    .chain(executed.iter())
                                    .filter(|(e, efp)| independent(*e, efp, d, &fp, &state.started))
                                    .map(|(e, _)| *e),
                            );
                            sleep.sort_unstable();
                        }
                        out.children.push(Frontier::Built(dst));
                        executed.push((d, fp));
                    }
                } else {
                    for &d in &enabled {
                        let deferred_key = defer
                            .then(|| node.child_key(&hasher, &stepper.memo, d, &mut inbox_keys))
                            .flatten();
                        if let Some(key) = deferred_key {
                            tally(true);
                            deferred += 1;
                            out.children.push(Frontier::Deferred(Deferred {
                                parent: Arc::clone(node),
                                decision: d,
                                key,
                            }));
                            continue;
                        }
                        let (p, _) = d;
                        let (dst, hit) = stepper.build(
                            keyed,
                            &env,
                            fd_cache.get(p.index(), t).clone(),
                            node,
                            d,
                            None,
                        );
                        tally(hit);
                        out.children.push(Frontier::Built(dst));
                    }
                }
            }
            if let Some(node) = built {
                recycle(node, &mut stepper.free);
            }
            obs.add(CounterId::ExploreStepMemoHits, memo_hits);
            obs.add(CounterId::ExploreStepMemoMisses, memo_misses);
            obs.add(CounterId::ExploreChildrenDeferred, deferred);
            obs.add(CounterId::ExploreDeferredBuilt, deferred_built);
            // Hand the (possibly drained) free list back — a Vec-header
            // move, not an element copy.
            *free_pools[slot].lock().expect("pool poisoned") = stepper.free;
            out
        });
        drop(expand_phase);
        let _merge_phase = obs.phase(PhaseId::ExploreMerge);

        // Merge (sequential, chunk order — so the stack layout, flags and
        // the chosen counterexample are independent of scheduling). Flags
        // and violations are exact at every thread count (the `halt`
        // early-out skips only expansion), so they merge first; a batch
        // with violations then ends the exploration *before* its children
        // touch the stack or the frontier high-water mark. Those children
        // would be discarded at the break anyway, and how many of them got
        // expanded is the one thing the racy `halt` flag makes
        // timing-dependent — merging them would leak that nondeterminism
        // into `max_frontier_len` and break the thread-count-invariant
        // report guarantee.
        let mut outs = outs;
        let mut violations: Vec<FoundViolation> = Vec::new();
        let mut batch_dpor_pruned = 0usize;
        let mut batch_restricted = 0usize;
        for out in &mut outs {
            depth_bounded |= out.depth_bounded;
            batch_dpor_pruned += out.dpor_pruned;
            batch_restricted += out.restricted;
            violations.append(&mut out.violations);
        }
        if let Some(best) = violations
            .into_iter()
            .min_by(|a, b| a.decisions.cmp(&b.decisions))
        {
            break Some(best);
        }
        // Committed only for violation-free batches: in a violating batch
        // the racy `halt` hint makes the prune counts (like the discarded
        // children) timing-dependent. Restricted-out children are
        // seen-table economies, so they land in `dedup_hits`.
        states_pruned_dpor += batch_dpor_pruned;
        dedup_hits += batch_restricted;
        for (slot, mut out) in outs.into_iter().enumerate() {
            stack.append(&mut out.children);
            // `append` left `children` empty but with its capacity — hand
            // it back so the next batch reuses the allocation.
            *child_bufs[slot].lock().expect("child buf poisoned") = out.children;
        }
        // A survivor's state stays shared while any of its deferred
        // children waits on the stack; the release of the last one
        // returns it to the arena.
        for s in survivors.drain(..) {
            recycle_rr(s.into_shared());
        }
        // No `max_frontier_len` update here: the loop top re-reads
        // `stack.len()` before anything can break, so the post-merge
        // length is always captured there.
        obs.heartbeat(|| {
            let secs = t_start
                .expect("heartbeat implies on")
                .elapsed()
                .as_secs_f64();
            let attempted = states_visited + dedup_hits;
            format!(
                "explore: {} states ({:.0}/s), dedup {:.1}% of {} keyed, frontier {} (hw {})",
                states_visited,
                states_visited as f64 / secs.max(1e-9),
                100.0 * dedup_hits as f64 / attempted.max(1) as f64,
                attempted,
                stack.len(),
                max_frontier_len,
            )
        });
    };

    let dedup_entries = shards
        .iter()
        .map(|s| s.lock().expect("shard poisoned").len())
        .sum();
    if obs.is_on() {
        obs.add(CounterId::ExploreRuns, 1);
        obs.add(CounterId::ExploreStatesVisited, states_visited as u64);
        obs.add(CounterId::ExploreDedupHits, dedup_hits as u64);
        obs.add(CounterId::ExploreDedupEntries, dedup_entries as u64);
        obs.add(CounterId::ExploreDporPruned, states_pruned_dpor as u64);
        obs.add(
            CounterId::ExploreSymmetryHits,
            symmetry_canonical_hits as u64,
        );
    }
    ExploreReport {
        states_visited,
        depth_bounded,
        states_capped,
        violation: found.map(|v| ExploreViolation {
            message: v.message,
            decisions: v.decisions,
        }),
        dedup_entries,
        dedup_hits,
        max_frontier_len,
        states_pruned_dpor,
        symmetry_canonical_hits,
        reduction_enabled: cfg.dpor || cfg.symmetry,
        threads_used: threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{DecisionNode, OutputNode, Replay};
    use crate::oracle::NoDetector;
    use crate::protocol::Ctx;
    use std::sync::Arc;

    /// Each process outputs every message payload it receives.
    #[derive(Clone, Debug)]
    struct Tag {
        sent: bool,
    }

    impl Protocol for Tag {
        type Msg = u8;
        type Output = u8;
        type Inv = u8;
        type Fd = ();

        fn on_invoke(&mut self, ctx: &mut Ctx<Self>, inv: u8) {
            if !self.sent {
                self.sent = true;
                ctx.broadcast_others(inv);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, msg: u8) {
            ctx.output(msg);
        }
    }

    fn two_taggers() -> Vec<Tag> {
        vec![Tag { sent: false }, Tag { sent: false }]
    }

    #[test]
    fn explores_all_delivery_orders() {
        let report = explore(
            ExploreConfig::new(8),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert!(report.violation.is_none());
        assert!(report.states_visited >= 6, "got {}", report.states_visited);
    }

    #[test]
    fn finds_a_planted_violation_with_counterexample() {
        // "Nobody ever outputs 2" is violated on the branch where p1's
        // broadcast is delivered.
        let report = explore(
            ExploreConfig::new(8),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, outputs| {
                if outputs.iter().any(|(_, o)| *o == 2) {
                    Err("saw a 2".into())
                } else {
                    Ok(())
                }
            },
        );
        let violation = report.violation.expect("must find the violation");
        assert_eq!(violation.message, "saw a 2");
        assert!(
            !violation.decisions.is_empty(),
            "counterexample decisions provided"
        );
        assert!(
            violation.decisions.iter().any(|(p, _)| *p == ProcessId(1)),
            "p1 must have acted"
        );
    }

    #[test]
    fn violations_replay_to_the_same_message() {
        let safety = |_: &[Tag], outputs: &[(ProcessId, u8)]| {
            if outputs.iter().any(|(_, o)| *o == 2) {
                Err("saw a 2".to_string())
            } else {
                Ok(())
            }
        };
        let pattern = FailurePattern::failure_free(2);
        let report = explore(
            ExploreConfig::new(8),
            two_taggers,
            vec![Some(1), Some(2)],
            &pattern,
            NoDetector,
            safety,
        );
        let violation = report.violation.expect("must find the violation");
        let replayed = Replay::explore(violation.decisions.clone()).run(
            two_taggers,
            vec![Some(1), Some(2)],
            &pattern,
            NoDetector,
            safety,
        );
        assert_eq!(replayed, Err(violation.message));
    }

    #[test]
    fn replay_of_safe_decision_list_is_ok() {
        // A single p0 step cannot produce any output.
        let pattern = FailurePattern::failure_free(2);
        let replayed = Replay::explore(vec![(ProcessId(0), None)]).run(
            two_taggers,
            vec![Some(1), Some(2)],
            &pattern,
            NoDetector,
            |_, outputs| {
                if outputs.is_empty() {
                    Ok(())
                } else {
                    Err("unexpected output".into())
                }
            },
        );
        assert_eq!(replayed, Ok(()));
    }

    #[test]
    fn replay_tolerates_mutated_decision_lists() {
        // Out-of-range pids, crashed actors and wild message indices must
        // not panic — they are skipped or clamped deterministically.
        let pattern = FailurePattern::failure_free(2).with_crash(ProcessId(1), 0);
        let decisions = vec![
            (ProcessId(7), None),
            (ProcessId(1), Some(3)), // crashed: skipped
            (ProcessId(0), None),
            (ProcessId(0), Some(42)), // empty inbox: λ
        ];
        let replayed = Replay::explore(decisions).run(
            two_taggers,
            vec![Some(1), Some(2)],
            &pattern,
            NoDetector,
            |_, _| Ok(()),
        );
        assert_eq!(replayed, Ok(()));
    }

    #[test]
    fn crashed_processes_do_not_branch() {
        let report = explore(
            ExploreConfig::new(6),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2).with_crash(ProcessId(1), 0),
            NoDetector,
            |_, outputs| {
                // p1 never starts, so nobody can ever receive its 2.
                if outputs.iter().any(|(_, o)| *o == 2) {
                    Err("impossible output".into())
                } else {
                    Ok(())
                }
            },
        );
        assert!(report.violation.is_none());
    }

    #[test]
    fn depth_bound_is_reported() {
        let report = explore(
            ExploreConfig::new(2),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert!(report.depth_bounded);
        assert!(!report.states_capped);
    }

    #[test]
    fn state_cap_is_reported_separately_from_depth_bound() {
        let report = explore(
            ExploreConfig::new(50).with_max_states(3),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert!(report.states_visited <= 3);
        assert!(report.states_capped, "hitting the cap must be reported");
        assert!(
            !report.depth_bounded,
            "3 expansions cannot reach depth 50 — the cap must not \
             masquerade as a depth bound"
        );
    }

    #[test]
    fn thread_count_is_invisible_to_the_report() {
        // Acceptance shape: identical reports for 1, 2 and 4 threads on
        // both a safe and a planted-violation workload — byte-identical
        // modulo the informational `threads_used` field.
        for plant in [false, true] {
            let run = |threads: usize| {
                explore(
                    ExploreConfig::new(8).with_threads(threads),
                    two_taggers,
                    vec![Some(1), Some(2)],
                    &FailurePattern::failure_free(2),
                    NoDetector,
                    move |_, outputs: &[(ProcessId, u8)]| {
                        if plant && outputs.iter().any(|(_, o)| *o == 2) {
                            Err("saw a 2".into())
                        } else {
                            Ok(())
                        }
                    },
                )
            };
            let normalized = |mut r: ExploreReport| {
                r.threads_used = 0;
                format!("{r:?}")
            };
            let one = run(1);
            assert_eq!(one.threads_used, 1);
            assert_eq!(one.violation.is_some(), plant);
            for threads in [2, 4] {
                let many = run(threads);
                assert_eq!(many.threads_used, threads);
                assert!(one.same_semantics(&many), "{one:?} vs {many:?}");
                assert_eq!(normalized(one.clone()), normalized(many));
            }
        }
    }

    #[test]
    fn fingerprint_and_exact_key_produce_identical_reports() {
        fn run<H: StateHasher>(hasher: H) -> ExploreReport {
            let cfg = ExploreConfig::new(8).with_threads(2);
            let safety = |_: &[Tag], outputs: &[(ProcessId, u8)]| {
                if outputs.iter().any(|(_, o)| *o == 2) {
                    Err("saw a 2".to_string())
                } else {
                    Ok(())
                }
            };
            let pattern = FailurePattern::failure_free(2);
            explore_custom(
                cfg,
                hasher,
                two_taggers,
                vec![Some(1), Some(2)],
                &pattern,
                NoDetector,
                safety,
            )
        }
        let fp = run(FingerprintHasher);
        let exact = run(ExactKeyHasher);
        assert!(fp.same_semantics(&exact), "{fp:?} vs {exact:?}");
    }

    #[test]
    fn observability_fields_are_populated() {
        let report = explore(
            ExploreConfig::new(8),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert!(report.dedup_entries > 0);
        assert!(report.dedup_entries <= report.states_visited);
        assert!(report.dedup_hits > 0, "delivery orders converge on Tag");
        assert!(report.max_frontier_len >= 1);
        assert!(report.threads_used >= 1);
        assert!(!report.reduction_enabled, "reductions are opt-in");
        let json = report.to_json();
        for field in [
            "states_visited",
            "dedup_entries",
            "dedup_hits",
            "max_frontier_len",
            "threads_used",
            "violation",
            "states_pruned_dpor",
            "symmetry_canonical_hits",
            "reduction_enabled",
        ] {
            assert!(json.get(field).is_some(), "missing {field}");
        }

        let off = explore(
            ExploreConfig::new(8).with_dedup(false),
            two_taggers,
            vec![Some(1), Some(2)],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
        assert_eq!(off.dedup_entries, 0);
        assert_eq!(off.dedup_hits, 0);
    }

    #[test]
    fn shared_prefix_chains_drop_iteratively() {
        // A depth-200k chain must unlink without recursing (one stack
        // frame per node would overflow long before that).
        let mut decisions: Option<Arc<DecisionNode>> = None;
        let mut outputs: Option<Arc<OutputNode<Tag>>> = None;
        for i in 0..200_000usize {
            decisions = Some(Arc::new(DecisionNode {
                decision: (ProcessId(i % 2), None),
                parent: decisions,
            }));
            outputs = Some(Arc::new(OutputNode {
                output: (ProcessId(i % 2), i as u8),
                parent: outputs,
            }));
        }
        drop(decisions);
        drop(outputs);
    }

    /// Regression fixture for the depth-budget dedup bug: p0 must receive
    /// p1's hello and then tick three times to emit the forbidden output.
    /// DFS reaches the post-hello state first via a depth-wasting branch
    /// (p1 tick-cycles with period 2 before p0 starts); the old dedup then
    /// suppressed the shallower revisit that still had budget to violate.
    #[derive(Clone, Debug, Default)]
    struct DepthBug {
        ready: bool,
        c0: u8,
        c1: u8,
    }

    impl Protocol for DepthBug {
        type Msg = ();
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            if ctx.me() == ProcessId(1) {
                ctx.send(ProcessId(0), ());
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {
            self.ready = true;
        }

        fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
            if ctx.me() == ProcessId(0) {
                if self.ready {
                    self.c0 += 1;
                    if self.c0 == 3 {
                        ctx.output(());
                    }
                }
            } else {
                self.c1 = (self.c1 + 1) % 2;
            }
        }
    }

    fn depth_bug_report(cfg: ExploreConfig) -> ExploreReport {
        explore(
            cfg,
            || vec![DepthBug::default(), DepthBug::default()],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, outputs| {
                if outputs.is_empty() {
                    Ok(())
                } else {
                    Err("forbidden output emitted".into())
                }
            },
        )
    }

    #[test]
    fn dedup_must_not_prune_shallower_revisits_with_remaining_budget() {
        // The violation needs depth 6 exactly; without dedup it is found.
        let no_dedup = depth_bug_report(ExploreConfig::new(6).with_dedup(false));
        assert!(
            no_dedup.violation.is_some(),
            "sanity: the violation is reachable within the depth bound"
        );
        // With dedup on, the first visit of the pre-violation state happens
        // at depth 4 (via p1's tick cycle); the depth-2 revisit must be
        // re-expanded, not pruned, or the violation is missed. Batch 1
        // pins the plain DFS visit order in which a weakened rule misses
        // it; the default batch checks the shipped traversal too.
        for cfg in [ExploreConfig::new(6).with_batch(1), ExploreConfig::new(6)] {
            let batch = cfg.batch;
            let dedup = depth_bug_report(cfg);
            assert!(
                dedup.violation.is_some(),
                "dedup pruned a shallower revisit that still had budget at batch \
                 {batch} (the documented exhaustive-up-to-depth guarantee is broken)"
            );
        }
    }

    /// Regression fixture for the outputs-omitted-from-key dedup bug: both
    /// delivery orders of p0's two messages converge to identical
    /// `(procs, inboxes, started)` but different output histories.
    #[derive(Clone, Debug)]
    struct EmitBug;

    impl Protocol for EmitBug {
        type Msg = u8;
        type Output = u8;
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            if ctx.me() == ProcessId(0) {
                ctx.send(ProcessId(1), 1);
                ctx.send(ProcessId(1), 2);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, msg: u8) {
            ctx.output(msg);
        }
    }

    fn emit_bug_safety(_: &[EmitBug], outputs: &[(ProcessId, u8)]) -> Result<(), String> {
        if outputs.len() == 2 && outputs[0].1 == 1 && outputs[1].1 == 2 {
            Err("delivered 1 before 2".to_string())
        } else {
            Ok(())
        }
    }

    #[test]
    fn dedup_key_must_distinguish_output_histories() {
        // DFS explores the "deliver 2 first" order first, so the branch
        // with output history [1, 2] is the one the old dedup merged away
        // before the predicate ever saw it.
        let report = explore(
            ExploreConfig::new(6),
            || vec![EmitBug, EmitBug],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            emit_bug_safety,
        );
        let violation = report
            .violation
            .expect("dedup merged two states with different output histories");
        assert_eq!(violation.message, "delivered 1 before 2");
        // Both orders sit at the same depth, so this is caught only by the
        // outputs component of the key — and the counterexample replays.
        let replayed = Replay::explore(violation.decisions.clone()).run(
            || vec![EmitBug, EmitBug],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            emit_bug_safety,
        );
        assert_eq!(replayed, Err(violation.message));
    }

    /// A deliberately output-blind key — the historical EmitBug dedup,
    /// expressed as a [`StateHasher`] to prove the fixture still bites on
    /// a weakened key and passes on the real fingerprint path.
    struct OutputBlindHasher;

    impl StateHasher for OutputBlindHasher {
        type Slot = String;
        type Key = String;

        fn slot<T: Debug + ?Sized>(&self, component: &T) -> String {
            ExactKeyHasher.slot(component)
        }

        fn seq<'s>(&self, items: impl Iterator<Item = &'s String>) -> String {
            ExactKeyHasher.seq(items)
        }

        fn compose<'s>(
            &self,
            slots: impl Iterator<Item = (&'s String, &'s String, u64)>,
            _outputs: &String,
        ) -> String {
            ExactKeyHasher.compose(slots, &String::new())
        }
    }

    #[test]
    fn output_blind_hasher_still_reproduces_the_historical_bug() {
        let report = explore_custom(
            ExploreConfig::new(6).with_batch(1),
            OutputBlindHasher,
            || vec![EmitBug, EmitBug],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            emit_bug_safety,
        );
        assert!(
            report.violation.is_none(),
            "the output-blind key unexpectedly found the violation — the \
             regression fixture no longer exercises the outputs key component"
        );
    }

    /// Handler calls of [`Forgetful`], across every exploration of it.
    // wfd-lint: allow(d3-atomics, the fixture breaks the Protocol contract on purpose: the count makes a handler's sends depend on how often it ran)
    static FORGETFUL_CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// Breaks the [`Protocol`] contract: every handler call sends the
    /// other process one message more than the call before it, so a step
    /// handled twice sends more the second time. Nothing is ever output.
    #[derive(Clone, Debug)]
    struct Forgetful;

    impl Forgetful {
        fn send_more(ctx: &mut Ctx<Self>) {
            let other = ProcessId(1 - ctx.me().index());
            for _ in 0..=FORGETFUL_CALLS.fetch_add(1, Ordering::Relaxed) {
                ctx.send(other, ());
            }
        }
    }

    impl Protocol for Forgetful {
        type Msg = ();
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            Self::send_more(ctx);
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {
            Self::send_more(ctx);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_handler_outside_the_contract_trips_the_memo_fit_check() {
        // Different interleavings reach the same step (actor, time,
        // process key, delivered message), so the memo serves it the
        // second time, and the child built for it sent more than the
        // recorded row. One thread, so the panic is the check's own.
        explore(
            ExploreConfig::new(4).with_threads(1),
            || vec![Forgetful, Forgetful],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
    }

    /// Invocation broadcasts to the others; deliveries are absorbed
    /// silently — so two deliveries at different processes are genuinely
    /// independent. Declares precise footprints and full symmetry.
    #[derive(Clone, Debug, Default)]
    struct Quiet {
        seen: Vec<u8>,
    }

    impl Protocol for Quiet {
        type Msg = u8;
        type Output = u8;
        type Inv = u8;
        type Fd = ();

        fn on_invoke(&mut self, ctx: &mut Ctx<Self>, inv: u8) {
            ctx.broadcast_others(inv);
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, msg: u8) {
            self.seen.push(msg);
        }

        fn footprint(&self, me: ProcessId, n: usize, step: StepKind<'_, Self>) -> Footprint {
            match step {
                StepKind::Start { inv: Some(_) } => Footprint::local().sends_to_others(n, me),
                StepKind::Start { inv: None } | StepKind::Tick | StepKind::Deliver { .. } => {
                    Footprint::local()
                }
            }
        }

        fn symmetry(_n: usize) -> Symmetry {
            Symmetry::Full
        }
    }

    fn quiet_explore(cfg: ExploreConfig, invs: Vec<Option<u8>>) -> ExploreReport {
        let n = invs.len();
        explore(
            cfg,
            move || (0..n).map(|_| Quiet::default()).collect(),
            invs,
            &FailurePattern::failure_free(n),
            NoDetector,
            |_, _| Ok(()),
        )
    }

    #[test]
    fn dpor_with_opaque_footprints_is_a_no_op() {
        // Tag keeps the default `Footprint::opaque`, so every step pair is
        // dependent and sleep sets never fill: same space, nothing pruned.
        let run = |dpor: bool| {
            explore(
                ExploreConfig::new(8).with_dpor(dpor),
                two_taggers,
                vec![Some(1), Some(2)],
                &FailurePattern::failure_free(2),
                NoDetector,
                |_, _| Ok(()),
            )
        };
        let base = run(false);
        let dpor = run(true);
        assert_eq!(dpor.states_pruned_dpor, 0);
        assert_eq!(dpor.states_visited, base.states_visited);
        assert_eq!(dpor.violation, base.violation);
        assert!(dpor.reduction_enabled);
    }

    #[test]
    fn trivial_symmetry_is_a_no_op() {
        // Tag keeps the default `Symmetry::Trivial`: only the identity is
        // ever tried, so canonicalization can never hit.
        let run = |sym: bool| {
            explore(
                ExploreConfig::new(8).with_symmetry(sym),
                two_taggers,
                vec![Some(1), Some(1)],
                &FailurePattern::failure_free(2),
                NoDetector,
                |_, _| Ok(()),
            )
        };
        let base = run(false);
        let sym = run(true);
        assert_eq!(sym.symmetry_canonical_hits, 0);
        assert_eq!(sym.states_visited, base.states_visited);
        assert!(sym.reduction_enabled);
    }

    #[test]
    fn precise_footprints_let_dpor_prune() {
        // Dedup off isolates the sleep sets' own effect: with it on, a
        // pruned interleaving can also *weaken* a cover (smaller sleep
        // sets cover fewer revisits), so raw interleavings — not the
        // dedup'd state count — are the honest measure here.
        let base = quiet_explore(
            ExploreConfig::new(10).with_dedup(false),
            vec![Some(1), Some(2)],
        );
        let dpor = quiet_explore(
            ExploreConfig::new(10).with_dedup(false).with_dpor(true),
            vec![Some(1), Some(2)],
        );
        assert!(dpor.states_pruned_dpor > 0, "{dpor:?}");
        assert!(dpor.states_visited < base.states_visited);
        assert_eq!(dpor.violation, base.violation);
    }

    #[test]
    fn symmetric_scenarios_canonicalize_asymmetric_ones_do_not() {
        // Equal invocations: swapping the two processes maps reachable
        // states onto each other, so canonicalization collapses mirrored
        // branches.
        let sym = quiet_explore(
            ExploreConfig::new(10).with_symmetry(true),
            vec![Some(7), Some(7)],
        );
        let base = quiet_explore(ExploreConfig::new(10), vec![Some(7), Some(7)]);
        assert!(sym.symmetry_canonical_hits > 0, "{sym:?}");
        assert!(sym.states_visited <= base.states_visited);
        assert_eq!(sym.violation, base.violation);

        // Distinct invocations: no non-identity permutation preserves the
        // invocation vector, so the protocol's Full group is cut down to
        // the identity and canonicalization never fires.
        let asym = quiet_explore(
            ExploreConfig::new(10).with_symmetry(true),
            vec![Some(1), Some(2)],
        );
        assert_eq!(asym.symmetry_canonical_hits, 0, "{asym:?}");
    }
}
