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
//!   output history is fingerprinted (128 bits) straight off its `Debug`
//!   rendering, each inbox is the fingerprint of its messages'
//!   fingerprints in order, and the slot fingerprints are folded in slot
//!   order; no rendering is ever stored. Keys are
//!   incremental and almost never rendered: every state carries its slot
//!   and message keys, a child inherits its parent's, and what the step
//!   produced (the actor's new state, the messages it sent) is keyed from
//!   the transition memo looked up by the actor, the step time,
//!   whether it had started, its process key and the delivered message's
//!   key. A delivery or an append recomposes an inbox key from message
//!   keys; only a memo miss renders (the actor's state and each sent
//!   message, once), and a step that emits re-renders the output history.
//!   The benchmark's paper protocols reach a few thousand distinct steps
//!   over hundreds of thousands of children. The seen-table trusts key
//!   equality; the equivalence ladders check it against the reference
//!   explorer, which confirms every fingerprint match with `==`.
//! * **Keyed before built** — most children are revisits, and a revisit
//!   needs only its key. When the transition memo holds a child's step
//!   and the step emitted nothing, the child's key is composed from its
//!   parent's keys and the memo row, and the child goes onto the frontier
//!   unbuilt: its parent (shared), its decision and its key, one entry in
//!   the stack position a built child would take. The revisit rule reads
//!   that key as it reads a built state's, so a child it drops is never
//!   cloned, stepped or recycled, and one it keeps is built when it is
//!   expanded. A parent stays alive while any of its deferred children
//!   waits on the frontier. Children stay eager under a usable
//!   symmetry group (the canonicalizer renames built components).
//!   On the benchmark's `paper_safety` this skips about 70 % of the
//!   handler calls; the traversal, and so every report, is unchanged.
//! * **Fingerprint-native tables** — a key is already a uniform 128-bit
//!   fingerprint, so every table filed under keys or dense ids (the
//!   seen-table, the transition and canonicalizer memos, and the
//!   liveness checker's chains and product index) hashes it with one
//!   rotate-xor-multiply fold per word (the crate's `FpHasher`), not
//!   with seeded SipHash. The seen-table stores 20-byte entries on
//!   std's SwissTable: the key as four `u32` words, compared on all 128
//!   bits, and the depth as a `u32` (a `u128` field would pad each
//!   entry to 32 bytes). A memo never grows past room for 32,768 rows:
//!   a full one is dropped and refilled instead.
//! * **Shared-prefix states** — the per-branch decision and output
//!   histories are `Arc`-linked cons-lists sharing their prefix with the
//!   parent state, materialized into flat vectors only when the safety
//!   predicate, a violation report, or a replay needs them. Popped states
//!   are recycled through a free-list arena, so steady-state expansion
//!   performs no `Vec` growth.
//! * **Batched frontier, one thread** — states are processed in frontier
//!   batches of [`ExploreConfig::batch`] entries: the batch's keys are
//!   composed first, the revisit rule is resolved in batch order, and the
//!   reported counterexample is the lexicographically-least decision list
//!   among the first violating batch's violations. One seen-table, one
//!   transition memo and one canonicalizer serve the whole exploration, so
//!   a step the memo learned anywhere keys every later child that repeats
//!   it.
//!
//! ## State-space reduction
//!
//! On top of the per-state machinery, one opt-in reduction shrinks the
//! space itself — it prunes *interleavings*, not soundness:
//!
//! * **Process-symmetry canonicalization**
//!   ([`ExploreConfig::with_symmetry`]) — protocols declare a symmetry
//!   group ([`Symmetry`], with [`Permutation`] hooks for ids embedded in
//!   state, messages and outputs); a state is keyed by the least key of
//!   its renamings under the group (restricted to elements preserving
//!   the failure pattern and the invocation vector). The renamed keys
//!   are reorderings of memoized per-slot keys ([`Canonicalizer`]), so
//!   no renamed state is ever built. Two states that are renamings of
//!   each other then dedup to one
//!   ([`ExploreReport::symmetry_canonical_hits`]). Decisions and
//!   violations always stay in *original* ids — only the dedup key is
//!   canonicalized — so counterexamples found under reduction replay
//!   through [`Replay`](crate::Replay) and [`crate::repro`] unchanged. Symmetry
//!   is sound only when the safety predicate is itself invariant under
//!   the declared group.
//!
//! The reduction is deterministic, and it is differentially anchored
//! against the unreduced explorer by the 40-seed equivalence ladders in
//! `tests/explore_dedup.rs`. There is no partial-order reduction: on the
//! paper's workloads sleep sets removed no visited state, and symmetry
//! does the reducing.
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
use crate::fingerprint::{compose, debug_fp, seq, FpBuild};
use crate::id::{ProcessId, Time};
use crate::json::Json;
use crate::machine::{
    apply_step_into, enabled_decisions, initial_state, materialize_decisions, materialize_outputs,
    State, StepEnv,
};
use crate::obs::{CounterId, HistId, Obs, PhaseId};
use crate::oracle::FdOracle;
use crate::protocol::{Permutation, Protocol, SendBuf, Symmetry};
use std::collections::hash_map::Entry;
use std::collections::HashMap; // wfd-lint: allow(d1-hash-collections, imported only for the seen-table and the memos, which are keyed insert/lookup; nothing iterates them)
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant; // wfd-lint: allow(d2-wall-clock, feeds obs phase timers only, a side table nothing on the decision path reads; proven by obs_invariance.rs)

/// A state key stored at 4-byte alignment: a `u128` field would align a
/// (key, depth) entry to 16 bytes and pad it to 32, while four words and
/// a `u32` depth take 20. Equality compares all 128 bits, and the key
/// hashes as the `u128` it holds.
#[derive(Clone, Copy, PartialEq, Eq)]
struct SeenKey([u32; 4]);

impl SeenKey {
    #[inline]
    fn new(key: u128) -> Self {
        SeenKey([
            key as u32,
            (key >> 32) as u32,
            (key >> 64) as u32,
            (key >> 96) as u32,
        ])
    }

    #[inline]
    fn get(self) -> u128 {
        let [a, b, c, d] = self.0.map(u128::from);
        a | b << 32 | c << 64 | d << 96
    }
}

impl Hash for SeenKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.get());
    }
}

/// The seen-table: every state key committed, with the lowest depth it
/// was expanded at, in 20-byte entries on std's table.
struct SeenTable {
    depths: HashMap<SeenKey, u32, FpBuild>, // wfd-lint: allow(d1-hash-collections, keyed insert/lookup only; dedup_entries reads len(), never iterates entries)
}

impl SeenTable {
    fn new() -> Self {
        SeenTable {
            depths: HashMap::default(), // wfd-lint: allow(d1-hash-collections, constructor for the seen-table excused above)
        }
    }

    /// The revisit rule: whether a state keyed `key` at `depth` is
    /// expanded. A new key is recorded and expanded. A revisit is
    /// pruned unless it is strictly shallower than the recorded depth,
    /// that is unless it has more depth budget left; a shallower one is
    /// expanded again and lowers the record.
    #[inline]
    fn visit(&mut self, key: u128, depth: usize) -> bool {
        let depth = seen_depth(depth);
        match self.depths.entry(SeenKey::new(key)) {
            Entry::Occupied(mut e) => {
                let seen = e.get_mut();
                let shallower = depth < *seen;
                if shallower {
                    *seen = depth;
                }
                shallower
            }
            Entry::Vacant(v) => {
                v.insert(depth);
                true
            }
        }
    }

    /// Distinct keys recorded.
    fn len(&self) -> usize {
        self.depths.len()
    }
}

/// A depth as the seen-table stores it.
#[inline]
fn seen_depth(depth: usize) -> u32 {
    u32::try_from(depth).unwrap_or_else(|_| {
        panic!("depth {depth} is past the seen-table's bound of u32::MAX (4294967295)")
    })
}

/// Cap on the free-list arena (recycled `State` allocations).
const POOL_CAP: usize = 2048;

/// Default frontier batch size. Fixed, because the batch boundaries are
/// part of the deterministic traversal order.
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
    /// Frontier batch size: how many pending states are deduplicated and
    /// expanded per round. Part of the deterministic traversal order; `1`
    /// reproduces a plain depth-first search exactly.
    pub batch: usize,
    /// Process-symmetry canonicalization of dedup keys (default: off). It
    /// requires dedup and a group-invariant safety predicate. See the
    /// [module docs](self#state-space-reduction).
    pub symmetry: bool,
    /// Observability handle (default: [`Obs::off`], which costs nothing).
    /// Metrics never influence the traversal or the report.
    pub obs: Obs,
}

impl ExploreConfig {
    /// Defaults: the given depth, one million states, dedup on, batch
    /// size 256, symmetry off, metrics off.
    pub fn new(max_depth: usize) -> Self {
        ExploreConfig {
            max_depth,
            max_states: 1_000_000,
            dedup: true,
            batch: DEFAULT_BATCH,
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

    /// Inert: returns `self` unchanged, whatever the argument. The
    /// explorer runs on one thread; kept only so callers that still pin
    /// a worker count compile.
    #[deprecated(
        since = "0.7.0",
        note = "inert: the explorer is sequential; the benchmark-only change (ROADMAP \
                item 1) drops the last call and the next change deletes this method"
    )]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Override the frontier batch size (`1` ⇒ plain DFS order).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Inert: returns `self` unchanged, whatever the argument. Kept only
    /// so callers that still ask for the removed sleep-set reduction
    /// compile.
    #[deprecated(
        since = "0.7.0",
        note = "inert: sleep-set DPOR was removed; the benchmark-only change (ROADMAP \
                item 1) drops the last call and the next change deletes this method"
    )]
    pub fn with_dpor(self, _dpor: bool) -> Self {
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreReport {
    /// States expanded (post-dedup; a state revisited at a strictly lower
    /// depth is re-expanded and counted again).
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
    /// contained any. At batch 1 that is the first violation in
    /// depth-first pop order.
    pub violation: Option<ExploreViolation>,
    /// Distinct keys committed to the dedup seen-table (0 with dedup off).
    pub dedup_entries: usize,
    /// Revisits pruned because the seen-table already holds their key at
    /// an equal or lower depth (0 with dedup off). Under symmetry a
    /// renaming of a seen state is a revisit too.
    pub dedup_hits: usize,
    /// High-water mark of the pending frontier, in entries: built states
    /// and children keyed but not yet built count alike, one entry per
    /// child.
    pub max_frontier_len: usize,
    /// Keyed states whose canonical form used a non-identity permutation
    /// (a renaming of an already-seen state was collapsed onto it). 0
    /// unless [`ExploreConfig::symmetry`] found a usable group.
    pub symmetry_canonical_hits: usize,
    /// Whether the state-space reduction ([`ExploreConfig::symmetry`])
    /// was requested for this run.
    pub reduction_enabled: bool,
}

impl ExploreReport {
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
                "symmetry_canonical_hits".to_string(),
                Json::usize(self.symmetry_canonical_hits),
            ),
            (
                "reduction_enabled".to_string(),
                Json::bool(self.reduction_enabled),
            ),
            ("violation".to_string(), violation),
        ])
    }
}

// ---------------------------------------------------------------------------
// State keys
// ---------------------------------------------------------------------------

/// The explorer's per-slot words: each slot's `started` bit.
fn started_words(started: &[bool]) -> Vec<u64> {
    started.iter().map(|&s| u64::from(s)).collect()
}

/// The keys of one state: its slot keys (the `n` process keys, then the
/// `n` inbox keys, then the output history's) and its pending messages'
/// keys, inbox by inbox, each inbox in order. A state's inboxes give the
/// length of each inbox's run of message keys, so the runs carry no
/// bounds of their own. Empty until the state is keyed.
///
/// A state is `n` process slots plus an output history, and its dedup
/// key is a composition of per-slot keys. Slot `i` contributes the key
/// of process `i`'s state, the key of its inbox and a `u64` word of
/// per-slot scalars; the output history contributes one more key. Every
/// component key is the 128-bit [`debug_fp`] of the component's `Debug`
/// rendering, and an inbox's key is the [`seq`] of its message keys: one
/// per pending `(sender, message)` entry, in inbox order. The explorer's
/// word is the `started` bit (`0` or `1`); the liveness checker, which
/// keys its fair-graph nodes through the same composition, folds the
/// slot's fairness counters into it too. [`compose`] folds the
/// components, slot by slot, into the state's key. Together they
/// determine everything the safety predicate and the expansion can
/// observe (`pending_inv` is determined by `started` plus the fixed
/// initial invocation vector, so it needs no key component).
///
/// Two shortcuts rest on the assumption every key makes, that
/// components with equal keys (equal renderings) are equal: symmetry
/// canonicalization reorders memoized component keys ([`Canonicalizer`]),
/// and incremental keying replays a step's recorded effect for an equal
/// step ([`SlotKeys::inherit`], [`StepMemo`]). An inherited key equals
/// keying the state in full ([`SlotKeys::of`], then
/// [`SlotKeys::compose`]), so neither changes a report.
#[derive(Debug, PartialEq)]
pub(crate) struct SlotKeys {
    pub(crate) slots: Vec<u128>,
    pub(crate) msgs: Vec<u128>,
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

impl SlotKeys {
    #[inline]
    pub(crate) fn new() -> Self {
        SlotKeys {
            slots: Vec::new(),
            msgs: Vec::new(),
        }
    }

    /// Key every component where it stands. The incremental path in
    /// [`SlotKeys::inherit`] calls the same [`debug_fp`] on the same
    /// component types and the same [`seq`] over the same message keys,
    /// so both paths agree key for key.
    pub(crate) fn of<P: Protocol + Debug>(
        procs: &[P],
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        outputs: &[(ProcessId, P::Output)],
    ) -> Self {
        let mut keys = SlotKeys::new();
        keys.slots.extend(procs.iter().map(debug_fp));
        for inbox in inboxes {
            let start = keys.msgs.len();
            keys.msgs.extend(inbox.iter().map(debug_fp));
            keys.slots.push(seq(keys.msgs[start..].iter()));
        }
        keys.slots.push(debug_fp(outputs));
        keys
    }

    #[inline]
    fn n(&self) -> usize {
        self.slots.len() / 2
    }

    #[inline]
    fn procs(&self) -> &[u128] {
        &self.slots[..self.n()]
    }

    #[inline]
    fn inboxes(&self) -> &[u128] {
        &self.slots[self.n()..2 * self.n()]
    }

    #[inline]
    fn outputs(&self) -> &u128 {
        self.slots.last().expect("keyed state")
    }

    /// The identity composition: every slot keyed where it stands, slot
    /// `i` with word `words[i]`.
    #[inline]
    pub(crate) fn compose(&self, words: &[u64]) -> u128 {
        compose(
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
    /// with [`seq`], and every other slot key is inherited. The output
    /// key is inherited as is; a caller whose step emitted re-keys it.
    ///
    /// # Panics
    ///
    /// Panics if a memoized effect does not fit the step's inboxes or
    /// `emitted`: the handler's effect was not a function of what the
    /// memo is keyed by (see [`Protocol`]).
    #[allow(clippy::too_many_arguments)] // the step's inputs, each documented above
    pub(crate) fn inherit<P: Protocol + Debug>(
        &mut self,
        memo: &mut StepMemo,
        parent: (&[u128], &[u128]),
        before: &[Vec<(ProcessId, P::Msg)>],
        procs: &[P],
        inboxes: &[Vec<(ProcessId, P::Msg)>],
        emitted: bool,
        step: Step,
    ) -> bool {
        let (parent_slots, parent_msgs) = parent;
        let (n, a) = (procs.len(), step.actor.index());
        let key = StepKey::new(step, parent, before);
        let (effect, hit) = memo.effect(key, || {
            let mut sent = Vec::new();
            for (j, (inbox, old)) in inboxes.iter().zip(before).enumerate() {
                let kept = old.len() - usize::from(j == a && step.delivered.is_some());
                sent.extend(inbox[kept..].iter().map(|entry| (j, debug_fp(entry))));
            }
            StepEffect {
                proc: debug_fp(&procs[a]),
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
        self.slots[a] = effect.proc;
        self.msgs.clear();
        effect.for_each_inbox(parent_msgs, before, step, |j, kept, sent, touched| {
            let start = self.msgs.len();
            for run in kept {
                self.msgs.extend_from_slice(run);
            }
            self.msgs.extend(sent.iter().map(|&(_, key)| key));
            assert_eq!(
                self.msgs.len() - start,
                inboxes[j].len(),
                "a memoized step of {} does not fit its successor's inbox {j}: a \
                 handler's effect must be a function of its state, the step and \
                 Ctx::{{me, n, now, fd}}",
                std::any::type_name::<P>(),
            );
            if touched {
                self.slots[n + j] = seq(self.msgs[start..].iter());
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
    pub(crate) fn compose_successor<M>(
        &self,
        memo: &StepMemo,
        before: &[Vec<M>],
        started: &[bool],
        step: Step,
        inboxes: &mut Vec<u128>,
    ) -> Option<u128> {
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
                    inboxes[j] = seq(kept.chain(sent.iter().map(|(_, key)| key)));
                }
            },
        );
        let procs = self.procs().iter().enumerate();
        Some(compose(
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
struct KeyedState<P: Protocol> {
    state: State<P>,
    keys: SlotKeys,
}

impl<P: Protocol + Debug> KeyedState<P> {
    fn blank() -> Self {
        KeyedState {
            state: State::blank(),
            keys: SlotKeys::new(),
        }
    }

    /// Key every slot from scratch (the root, and the debug-build check).
    fn full_keys(&self, outputs: &mut Vec<(ProcessId, P::Output)>) -> SlotKeys {
        let state = &self.state;
        materialize_outputs(&state.outputs, state.outputs_len, outputs);
        SlotKeys::of(&state.procs, &state.inboxes, outputs)
    }

    /// Key this state, which `actor`'s step just produced from `parent`:
    /// inherit the parent's keys through the transition memo
    /// ([`SlotKeys::inherit`]), and re-key the output history when the
    /// step emitted. `started` is composed directly and `pending_inv` is
    /// not keyed, so neither has a slot. Returns whether the memo held
    /// the step.
    fn inherit_keys(
        &mut self,
        memo: &mut StepMemo,
        parent: &KeyedState<P>,
        actor: ProcessId,
        outputs: &mut Vec<(ProcessId, P::Output)>,
    ) -> bool {
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
            self.keys.slots[2 * n] = debug_fp(outputs.as_slice());
        }
        hit
    }

    /// The key of this state's child by `decision`, composed from the
    /// transition memo without building the child, when the memo holds
    /// the step and the step emitted nothing (see
    /// [`SlotKeys::compose_successor`]). `inboxes` is scratch.
    fn child_key(
        &self,
        memo: &StepMemo,
        (actor, choice): ExploreDecision,
        inboxes: &mut Vec<u128>,
    ) -> Option<u128> {
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
            .compose_successor(memo, &state.inboxes, &state.started, step, inboxes)
    }

    /// Debug builds: the keys this state inherited must equal a full
    /// re-key.
    #[cfg(debug_assertions)]
    fn assert_keys_fresh(&self, outputs: &mut Vec<(ProcessId, P::Output)>) {
        assert!(
            self.full_keys(outputs) == self.keys,
            "inherited slot keys diverge from a full re-key at depth {} (decisions {:?})",
            self.state.depth,
            self.state.collect_decisions(),
        );
    }
}

// ---------------------------------------------------------------------------
// State-space reduction machinery: symmetry
// ---------------------------------------------------------------------------

/// Dense cache of one detector value per `(process, time)` pair, filled
/// once per exploration: oracles are pure in `(p, t)`, so a value stays
/// valid for every later batch, and a child built batches after its
/// parent was expanded reads its step's value from here. Replaces a
/// `HashMap` keyed by `(usize, Time)`: the cache sits on
/// determinism-scoped code, and dense indexing leaves no iteration-order
/// question for wfd-lint to audit.
pub(crate) struct FdTable<F> {
    slots: Vec<Option<F>>,
    stride: usize,
}

impl<F> FdTable<F> {
    /// One slot per `(p, t)` with `p < n` and `t <= max_depth`.
    pub(crate) fn new(n: usize, max_depth: usize) -> Self {
        let stride = max_depth + 1;
        FdTable {
            slots: (0..n * stride).map(|_| None).collect(),
            stride,
        }
    }

    /// Sample `(p, t)` from `detector`, unless the table already holds it
    /// or `p` is crashed at `t`.
    pub(crate) fn fill<D: FdOracle<Value = F>>(
        &mut self,
        pattern: &FailurePattern,
        detector: &mut D,
        p: ProcessId,
        t: Time,
    ) {
        let slot = &mut self.slots[p.index() * self.stride + t as usize];
        if slot.is_none() && !pattern.is_crashed(p, t) {
            *slot = Some(detector.query(p, t));
        }
    }

    /// The value sampled at `(p, t)`, if any.
    fn sampled(&self, p: usize, t: Time) -> Option<&F> {
        self.slots[p * self.stride + t as usize].as_ref()
    }

    pub(crate) fn get(&self, p: usize, t: Time) -> &F {
        self.sampled(p, t)
            .expect("the table holds every alive (p, t) a step reads")
    }
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
/// renaming the detector equivariantly, `fd(π(p), t) == π(fd(p, t))` at
/// every alive `(p, t)`, where `π(v)` is `v` renamed by
/// [`Protocol::permute_fd`] (`P::Fd: PartialEq`; invocations only
/// promise `Debug`). Asymmetric scenarios thus never inherit a
/// symmetric protocol's full group, and a detector that names processes
/// (a leader, a quorum) keeps only the renamings that move its answers
/// along with the processes. The identity is excluded — it is the
/// implicit first candidate of every canonicalization. Detector values
/// are sampled into the caller's `fd`.
pub(crate) fn scenario_symmetry<P, D>(
    n: usize,
    max_depth: usize,
    pattern: &FailurePattern,
    invocations: &[Option<P::Inv>],
    detector: &mut D,
    fd: &mut FdTable<P::Fd>,
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
    // One detector sample per alive (p, t) — oracles are pure in (p, t),
    // so sampling here cannot perturb the values the steps read.
    for p in ProcessId::all(n) {
        for t in 0..max_depth {
            fd.fill(pattern, detector, p, t as Time);
        }
    }
    group
        .into_iter()
        .filter(|perm| !perm.is_identity())
        .filter(|perm| {
            ProcessId::all(n).all(|p| {
                let q = perm.apply(p);
                inv_fps[p.index()] == inv_fps[q.index()]
                    && (0..max_depth).all(|t| {
                        let t = t as Time;
                        let renamed = fd.sampled(p.index(), t).map(|v| {
                            let mut v = v.clone();
                            P::permute_fd(&mut v, perm);
                            v
                        });
                        pattern.is_crashed(p, t) == pattern.is_crashed(q, t)
                            && fd.sampled(q.index(), t) == renamed.as_ref()
                    })
            })
        })
        .map(SymPerm::new)
        .collect()
}

/// The most rows a memo table may have room for: a table that
/// would grow past it drops its rows and is refilled instead, which
/// bounds the memos' memory on long explorations.
const MEMO_ROWS_CAP: usize = 1 << 15;

/// Whether a memo table holding `len` rows with room for `capacity` must
/// drop them before `more` inserts: the inserts would grow it, and
/// growing doubles the room, past [`MEMO_ROWS_CAP`]. A dropped table
/// keeps its room, so a capped memo never reallocates.
#[inline]
fn memo_full(len: usize, capacity: usize, more: usize) -> bool {
    len + more > capacity && capacity * 2 > MEMO_ROWS_CAP
}

/// One component table of a [`Canonicalizer`] memo: for every component
/// key seen, a row of that component's keys after each group element,
/// in group order.
struct SlotMemo {
    /// Component key → start of its row in `images`.
    rows: HashMap<u128, usize, FpBuild>, // wfd-lint: allow(d1-hash-collections, keyed lookup/insert only; nothing iterates the memo)
    images: Vec<u128>,
}

impl SlotMemo {
    #[inline]
    fn new() -> Self {
        SlotMemo {
            rows: HashMap::default(), // wfd-lint: allow(d1-hash-collections, constructor for the memo excused above)
            images: Vec::new(),
        }
    }

    /// The start of `key`'s row, filled by `fill` on a miss.
    fn row(&mut self, key: u128, fill: impl FnOnce(&mut Vec<u128>)) -> usize {
        if let Some(&start) = self.rows.get(&key) {
            return start;
        }
        let start = self.images.len();
        fill(&mut self.images);
        self.rows.insert(key, start);
        start
    }

    /// Drop every row if `more` new ones could outgrow the cap (see
    /// [`memo_full`]). Called before a state's lookups with the most rows
    /// they can add, so no row start handed out for that state goes
    /// stale.
    #[inline]
    fn trim(&mut self, more: usize) {
        if memo_full(self.rows.len(), self.rows.capacity(), more) {
            self.rows.clear();
            self.images.clear();
        }
    }
}

/// What determines a step's effect on a state's keys (see [`StepMemo`]).
#[derive(PartialEq, Eq, Hash)]
struct StepKey {
    actor: usize,
    t: Time,
    started: bool,
    /// The actor's process key before the step.
    proc: u128,
    /// The delivered `(sender, message)` entry's key, if the step
    /// delivered one.
    delivered: Option<u128>,
}

impl StepKey {
    /// The memo key of `step` from a state whose keys are `parent` (slot
    /// keys, message keys) and whose inboxes are `before`.
    fn new<M>(step: Step, parent: (&[u128], &[u128]), before: &[Vec<M>]) -> Self {
        let (slots, msgs) = parent;
        let a = step.actor.index();
        let actor_run: usize = before[..a].iter().map(Vec::len).sum();
        StepKey {
            actor: a,
            t: step.t,
            started: step.started,
            proc: slots[a],
            delivered: step.delivered.map(|i| msgs[actor_run + i]),
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
struct StepEffect {
    proc: u128,
    sent: Vec<(usize, u128)>,
    emitted: bool,
}

impl StepEffect {
    /// Walk the successor's inboxes in order, for a step from a state
    /// whose message keys are `parent_msgs` and whose inboxes are
    /// `before`. `f(j, kept, sent, touched)` gets inbox `j`'s parent
    /// message keys less the one the step delivered, as the runs before
    /// and after it; the keys of the messages this effect appended to
    /// it; and whether the step delivered from or appended to it.
    fn for_each_inbox<M>(
        &self,
        parent_msgs: &[u128],
        before: &[Vec<M>],
        step: Step,
        mut f: impl FnMut(usize, [&[u128]; 2], &[(usize, u128)], bool),
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

/// The transition memo: what each step it has keyed did to the
/// keys, looked up by everything that determines it — the actor, the
/// step time, whether the actor had started, the actor's process key and
/// the delivered message's key.
///
/// The lookup is sound under the [`SlotKeys`] contract (components
/// with equal keys are equal) because a step's effect is a function of
/// exactly those. A handler reads only its state, the step (the
/// delivered entry; on a first step the pending invocation, which is
/// fixed per run) and `Ctx::{me, n, now, fd}` ([`Protocol`]); the
/// detector is pure in `(p, t)`; and which sends a crash drops depends
/// only on `t`. The explorer keeps one next to its [`Canonicalizer`]
/// for the whole exploration, and so does the liveness checker. Bounded
/// like the canonicalizer's memo: dropped rather than grown past
/// room for [`MEMO_ROWS_CAP`] rows.
pub(crate) struct StepMemo {
    rows: HashMap<StepKey, StepEffect, FpBuild>, // wfd-lint: allow(d1-hash-collections, keyed lookup/insert only; nothing iterates the transition memo)
}

impl StepMemo {
    #[inline]
    pub(crate) fn new() -> Self {
        StepMemo {
            rows: HashMap::default(), // wfd-lint: allow(d1-hash-collections, constructor for the transition memo excused above)
        }
    }

    /// The effect recorded for `key`, computed by `fill` on a miss, and
    /// whether it was a hit.
    fn effect(&mut self, key: StepKey, fill: impl FnOnce() -> StepEffect) -> (&StepEffect, bool) {
        if memo_full(self.rows.len(), self.rows.capacity(), 1) {
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
fn message_row<P: Protocol>(
    msgs: &mut SlotMemo,
    perms: &[SymPerm],
    key: u128,
    (from, msg): &(ProcessId, P::Msg),
) -> usize {
    msgs.row(key, |row| {
        row.extend(perms.iter().map(|sp| {
            let mut msg = msg.clone();
            P::permute_msg(&mut msg, &sp.perm);
            debug_fp(&(sp.perm.apply(*from), msg))
        }));
    })
}

/// Symmetry canonicalization of dedup keys from memoized per-slot keys.
///
/// The canonical key of a state is the least composition of its slot
/// keys over the identity and every element `π` of the group. Candidate
/// `π` fills canonical slot `j` from original slot `π⁻¹(j)`, with every
/// embedded id rewritten forward
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
/// element's image as the fingerprint of its messages' images in order,
/// which come from a per-message memo (a message miss renames and keys
/// that one entry). A hit reuses the row, which is sound as long as
/// components with equal keys (equal `Debug` renderings) are equal.
/// Ties break toward the identity, then toward the earlier group
/// element, so the choice is deterministic; and since the key is a pure
/// function of the state, it does not depend on what the memo already
/// holds.
///
/// The explorer keeps one across its whole run and feeds it
/// the keys its states carry; the liveness checker does the same for its
/// fair-graph nodes, and also takes the winning renaming's slot and
/// message keys from the memo rows. It is public so differential tests
/// can check it against the unreduced keys of materialized renamed
/// states (a canonicalizer without a group keys exactly those).
pub struct Canonicalizer<P> {
    perms: Vec<SymPerm>,
    /// The current state's memo row starts, slot by slot, and its
    /// output history's.
    proc_rows: Vec<usize>,
    inbox_rows: Vec<usize>,
    out_row: usize,
    procs: SlotMemo,
    inboxes: SlotMemo,
    msgs: SlotMemo,
    outputs: SlotMemo,
    /// Scratch: one inbox's message row starts while its row is filled,
    /// and the original message keys while a renaming's are written.
    msg_rows: Vec<usize>,
    old_msgs: Vec<u128>,
    _protocol: PhantomData<fn() -> P>,
}

impl<P: Protocol + Clone + Debug> Canonicalizer<P> {
    /// A canonicalizer under `group`; identity elements are skipped (the
    /// identity is always the first candidate). An empty or trivial group
    /// makes [`Canonicalizer::key`] the unreduced key: every component's
    /// key composed in its own slot order.
    pub fn new(group: &[Permutation]) -> Self {
        let perms = group
            .iter()
            .filter(|perm| !perm.is_identity())
            .cloned()
            .map(SymPerm::new)
            .collect();
        Self::with_perms(perms)
    }

    pub(crate) fn with_perms(perms: Vec<SymPerm>) -> Self {
        Canonicalizer {
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
    ) -> u128 {
        let keys = SlotKeys::of(procs, inboxes, outputs);
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
        keys: &SlotKeys,
    ) -> (u128, Option<usize>) {
        let mut best = keys.compose(words);
        if self.perms.is_empty() {
            return (best, None);
        }
        let perms = &self.perms;
        self.procs.trim(procs.len());
        self.inboxes.trim(inboxes.len());
        self.msgs.trim(keys.msgs.len());
        self.outputs.trim(1);
        self.proc_rows.clear();
        for (proc, &key) in procs.iter().zip(keys.procs()) {
            self.proc_rows.push(self.procs.row(key, |images| {
                images.extend(perms.iter().map(|sp| {
                    let mut renamed = proc.clone();
                    renamed.permute(&sp.perm);
                    debug_fp(&renamed)
                }));
            }));
        }
        self.inbox_rows.clear();
        let mut start = 0;
        for (inbox, &key) in inboxes.iter().zip(keys.inboxes()) {
            let msg_keys = &keys.msgs[start..start + inbox.len()];
            start += inbox.len();
            let (msgs, msg_rows) = (&mut self.msgs, &mut self.msg_rows);
            self.inbox_rows.push(self.inboxes.row(key, |images| {
                msg_rows.clear();
                for (entry, &msg_key) in inbox.iter().zip(msg_keys) {
                    msg_rows.push(message_row::<P>(msgs, perms, msg_key, entry));
                }
                images.extend(
                    (0..perms.len()).map(|g| seq(msg_rows.iter().map(|&r| &msgs.images[r + g]))),
                );
            }));
        }
        self.out_row = self.outputs.row(*keys.outputs(), |images| {
            images.extend(perms.iter().map(|sp| {
                let renamed: Vec<(ProcessId, P::Output)> = outputs
                    .iter()
                    .map(|(p, out)| {
                        let mut out = out.clone();
                        P::permute_output(&mut out, &sp.perm);
                        (sp.perm.apply(*p), out)
                    })
                    .collect();
                debug_fp(renamed.as_slice())
            }));
        });
        let mut best_perm = None;
        for (g, sp) in perms.iter().enumerate() {
            let key = compose(
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
        keys: &mut SlotKeys,
    ) {
        let (n, sp) = (self.proc_rows.len(), &self.perms[g]);
        let perms = &self.perms;
        std::mem::swap(&mut self.old_msgs, &mut keys.msgs);
        keys.msgs.clear();
        for (j, &i) in sp.inverse.iter().enumerate() {
            keys.slots[j] = self.procs.images[self.proc_rows[i] + g];
            keys.slots[n + j] = self.inboxes.images[self.inbox_rows[i] + g];
            let start: usize = inboxes[..i].iter().map(Vec::len).sum();
            for (entry, &key) in inboxes[i].iter().zip(&self.old_msgs[start..]) {
                let row = message_row::<P>(&mut self.msgs, perms, key, entry);
                keys.msgs.push(self.msgs.images[row + g]);
            }
        }
        keys.slots[2 * n] = self.outputs.images[self.out_row + g];
    }
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// A built explorer state, shared between the frontier entry or
/// survivor that holds it and the deferred children that will be built
/// from it.
type Shared<P> = Arc<KeyedState<P>>;

/// A child keyed but not yet built: its parent, the decision that leads
/// to it, and its key, composed from the parent's keys and the
/// transition memo's row for the step without running the handler
/// ([`KeyedState::child_key`]). The revisit rule reads the key as it
/// reads a built state's; a child the rule drops is never built, and one
/// it keeps is built when it is expanded.
struct Deferred<P: Protocol> {
    parent: Shared<P>,
    decision: ExploreDecision,
    key: u128,
}

/// One frontier entry: a built state, or a deferred child.
enum Frontier<P: Protocol> {
    Built(Shared<P>),
    Deferred(Deferred<P>),
}

impl<P: Protocol> Frontier<P> {
    fn depth(&self) -> usize {
        match self {
            Frontier::Built(node) => node.state.depth,
            Frontier::Deferred(child) => child.parent.state.depth + 1,
        }
    }

    /// The shared state this entry holds: its own, or its parent's.
    fn into_shared(self) -> Shared<P> {
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
fn recycle<P: Protocol>(mut s: Shared<P>, pool: &mut Vec<Shared<P>>) {
    if pool.len() >= POOL_CAP {
        return;
    }
    if let Some(unshared) = Arc::get_mut(&mut s) {
        let state = &mut unshared.state;
        state.outputs = None;
        state.decisions = None;
        pool.push(s);
    }
}

/// What the exploration steps children with: the free-list arena, the
/// transition memo, the step buffers and an output-history scratch, kept
/// for the whole exploration.
struct Stepper<P: Protocol> {
    free: Vec<Shared<P>>,
    memo: StepMemo,
    bufs: (SendBuf<P>, Vec<P::Output>),
    outputs: Vec<(ProcessId, P::Output)>,
}

impl<P: Protocol + Clone + Debug> Stepper<P> {
    /// Build `parent`'s child by `decision` into a state from the arena,
    /// stepped with the detector value `fd`, and key it from `parent`'s
    /// keys through the memo when `keyed` (dedup on). Returns the child
    /// and whether the memo held its step. Debug builds re-key the child
    /// in full and compare.
    fn build(
        &mut self,
        keyed: bool,
        env: &StepEnv<'_>,
        fd: P::Fd,
        parent: &KeyedState<P>,
        (p, choice): ExploreDecision,
    ) -> (Shared<P>, bool) {
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
        );
        let hit = keyed && {
            let hit = child.inherit_keys(&mut self.memo, parent, p, &mut self.outputs);
            #[cfg(debug_assertions)]
            child.assert_keys_fresh(&mut self.outputs);
            hit
        };
        (dst, hit)
    }
}

/// A violation as collected inside a batch, pre-materialized.
struct FoundViolation {
    message: String,
    decisions: Vec<ExploreDecision>,
}

/// Exhaustively explore message-delivery interleavings. This is *the*
/// entry point: every knob lives on [`ExploreConfig`], and states are
/// keyed with 128-bit fingerprints (see the
/// [performance model](self#performance-model)).
///
/// * `make_procs` builds the initial configuration (fresh per call).
/// * `invocations[p]` is consumed at `p`'s first step (with `on_start`).
/// * `detector` must be a pure function of `(p, t)` (as all oracles are);
///   the step's time is its depth.
/// * `safety` is evaluated in every reachable state over the protocol
///   states and all outputs emitted so far; returning `Err` stops the
///   exploration with a replayable counterexample.
///
/// Traversal: batched depth-first, on one thread. Each round pops up to
/// [`ExploreConfig::batch`] entries off the frontier stack (`batch == 1`
/// is bit-for-bit the classic DFS), composes (and, under symmetry,
/// canonicalizes) the keys of its built states from the slot keys each
/// carries, takes each deferred child's key as composed at generation,
/// and resolves the budget-aware revisit rule in batch order (the rule
/// is order-dependent). It then samples the detector answers of the
/// survivors' depths (oracles are pure in `(p, t)`, so each pair is
/// queried once per exploration), builds each deferred survivor from its
/// parent, safety-checks every survivor and expands it. Each child is
/// keyed from its parent's keys and the transition memo, which renders
/// only on a miss (the root alone is keyed in full). A child whose step
/// the memo holds and which emitted nothing goes onto the stack unbuilt,
/// as its parent, its decision and its key, unless a usable symmetry
/// group is on; every other child is built at once. Children go onto the
/// stack in survivor order, and a batch with violations reports the
/// lexicographically-least decision list among them.
pub fn explore<P, D>(
    cfg: ExploreConfig,
    make_procs: impl Fn() -> Vec<P>,
    invocations: Vec<Option<P::Inv>>,
    pattern: &FailurePattern,
    mut detector: D,
    safety: impl Fn(&[P], &[(ProcessId, P::Output)]) -> Result<(), String>,
) -> ExploreReport
where
    P: Protocol + Clone + Debug,
    D: FdOracle<Value = P::Fd>,
{
    let batch_cap = cfg.batch.max(1);
    // Metrics (side table only — nothing below reads them back, so the
    // traversal and the report are byte-identical with metrics on or
    // off). The clock is read once per *phase*, never per state, and
    // only when the handle is on.
    let obs = cfg.obs.clone();
    // wfd-lint: allow(d2-wall-clock, read once per phase for obs metrics only; never compared on the decision path)
    let t_start = obs.is_on().then(Instant::now);
    // Filled once per `(p, t)` for the whole exploration: a deferred
    // child is built batches after its parent's values were sampled.
    let mut fd_cache: FdTable<P::Fd> = FdTable::new(invocations.len(), cfg.max_depth);
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
            &mut fd_cache,
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
        root.keys = root.full_keys(&mut Vec::new());
    }
    // Whether a child may wait on the frontier as its key, built only if
    // the revisit rule keeps it: when its key is the identity composition
    // of carried keys. The canonicalizer renames built components, so a
    // usable symmetry group keeps children eager.
    let defer = cfg.dedup && sym_perms.is_empty();

    // Seen-table: state key → the lowest depth it was expanded at. It
    // applies the revisit rule (`SeenTable::visit`): a revisit is pruned
    // only when that expansion had at least as much remaining depth
    // budget (recorded depth ≤ the revisit's); a shallower revisit is
    // re-expanded and lowers the record. The key includes the output
    // history: the safety predicate reads outputs, so two branches that
    // converge in `(procs, inboxes, started)` but emitted different
    // outputs are *different* states to the checker.
    let mut seen = SeenTable::new();
    let mut stack: Vec<Frontier<P>> = vec![Frontier::Built(Arc::new(root))];
    // The key canonicalizer, its slot memo kept across batches. With no
    // usable symmetry group it keys the identity only.
    let mut canon = Canonicalizer::with_perms(sym_perms);
    // The free-list arena and the transition memo, kept across batches:
    // the memo gives each child the keys its step produced, so a hit
    // renders nothing.
    let mut stepper = Stepper {
        free: Vec::new(),
        memo: StepMemo::new(),
        bufs: (Vec::new(), Vec::new()),
        outputs: Vec::new(),
    };
    let mut survivors: Vec<Frontier<P>> = Vec::new();
    let mut batch_keys: Vec<u128> = Vec::new();
    // Scratch: a built state's slot words while it is keyed, a deferred
    // child's inbox keys, and the machine-layer enabled set of the state
    // being expanded.
    let mut words = Vec::new();
    let mut inbox_keys = Vec::new();
    let mut enabled: Vec<ExploreDecision> = Vec::new();

    let mut states_visited = 0usize;
    let mut depth_bounded = false;
    let mut states_capped = false;
    let mut dedup_hits = 0usize;
    let mut max_frontier_len = 0usize;
    let mut symmetry_canonical_hits = 0usize;

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
        if cfg.dedup {
            // Key phase: compose (and canonicalize) every built batch
            // state's key from the slot keys it carries, and take every
            // deferred child's key as it was composed at generation.
            let key_phase = obs.phase(PhaseId::ExploreKey);
            batch_keys.clear();
            for entry in stack[top - take..].iter().rev() {
                let key = match entry {
                    Frontier::Deferred(child) => child.key,
                    Frontier::Built(node) => {
                        let state = &node.state;
                        // Only an output-memo miss reads the history, and
                        // only a group can miss.
                        let outputs = &mut stepper.outputs;
                        outputs.clear();
                        if canon.has_group() {
                            materialize_outputs(&state.outputs, state.outputs_len, outputs);
                        }
                        words.clear();
                        words.extend(state.started.iter().map(|&s| u64::from(s)));
                        let (key, arg_perm) = canon.canonical(
                            &state.procs,
                            &state.inboxes,
                            &words,
                            outputs,
                            &node.keys,
                        );
                        symmetry_canonical_hits += usize::from(arg_perm.is_some());
                        key
                    }
                };
                batch_keys.push(key);
            }
            drop(key_phase);

            // Resolution phase, in batch order: the revisit rule is
            // order-dependent *within* a batch.
            let _revisit_phase = obs.phase(PhaseId::ExploreRevisit);
            for &key in &batch_keys {
                let entry = stack.pop().expect("batch within stack");
                if seen.visit(key, entry.depth()) {
                    survivors.push(entry);
                } else {
                    dedup_hits += 1;
                    recycle(entry.into_shared(), &mut stepper.free);
                }
            }
        } else {
            survivors.extend(stack.drain(top - take..).rev());
        }

        // Enforce the state cap mid-batch, in batch order.
        let remaining = cfg.max_states - states_visited;
        if survivors.len() > remaining {
            states_capped = true;
            for s in survivors.drain(remaining..) {
                recycle(s.into_shared(), &mut stepper.free);
            }
        }
        states_visited += survivors.len();
        if survivors.is_empty() {
            continue;
        }

        // Oracle phase: detector answers are pure functions of `(p, t)`
        // (the FdOracle contract), so one query per distinct pair serves
        // the whole exploration from the table.
        let oracle_phase = obs.phase(PhaseId::ExploreOracle);
        for entry in &survivors {
            let depth = entry.depth();
            obs.record(HistId::ExploreStateDepth, depth as u64);
            if depth >= cfg.max_depth {
                continue;
            }
            for p in ProcessId::all(n) {
                fd_cache.fill(pattern, &mut detector, p, depth as Time);
            }
        }
        drop(oracle_phase);

        // Expansion phase: build each deferred survivor, then safety-check
        // and expand every survivor, keying each child from its parent's
        // slot keys — before building it where the memo allows, so that
        // it waits on the frontier unbuilt. Children go straight onto the
        // stack: a batch with a violation ends the exploration before the
        // stack is read again.
        let expand_phase = obs.phase(PhaseId::ExploreExpand);
        let mut violations: Vec<FoundViolation> = Vec::new();
        // Memo hits and misses, one per child keyed (a deferred child at
        // generation, where it hits), for the obs counters.
        let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
        let mut tally = |hit: bool| match (cfg.dedup, hit) {
            (false, _) => {}
            (true, true) => memo_hits += 1,
            (true, false) => memo_misses += 1,
        };
        let (mut deferred, mut deferred_built) = (0u64, 0u64);
        // A deferred survivor, built for its expansion; returned to the
        // arena once expanded, unless a child it deferred holds it.
        let mut built = None;
        for entry in &survivors {
            if let Some(node) = built.take() {
                recycle(node, &mut stepper.free);
            }
            let node = match entry {
                Frontier::Built(node) => node,
                Frontier::Deferred(child) => {
                    let (p, _) = child.decision;
                    let t = child.parent.state.depth as Time;
                    let (node, _) = stepper.build(
                        cfg.dedup,
                        &env,
                        fd_cache.get(p.index(), t).clone(),
                        &child.parent,
                        child.decision,
                    );
                    // The key the child waited under must be the one its
                    // built state composes.
                    #[cfg(debug_assertions)]
                    assert!(
                        node.keys.compose(&started_words(&node.state.started)) == child.key,
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
            let outputs = &mut stepper.outputs;
            materialize_outputs(&state.outputs, state.outputs_len, outputs);
            if let Err(message) = safety(&state.procs, outputs) {
                violations.push(FoundViolation {
                    message,
                    decisions: materialize_decisions(&state.decisions),
                });
                continue;
            }
            if state.depth >= cfg.max_depth {
                depth_bounded = true;
                continue;
            }
            // A violation in this batch ends the exploration, so once one
            // is found the rest of the batch is only checked, never
            // expanded.
            if !violations.is_empty() {
                continue;
            }
            let t = state.depth as Time;
            // The branching rule is the machine layer's enabled set — the
            // same enumeration, in the same order, that `ProtocolMachine`
            // exposes and the baseline explorer walks.
            enabled.clear();
            enabled_decisions(state, pattern, n, &mut enabled);
            for &d in &enabled {
                let deferred_key = defer
                    .then(|| node.child_key(&stepper.memo, d, &mut inbox_keys))
                    .flatten();
                if let Some(key) = deferred_key {
                    tally(true);
                    deferred += 1;
                    stack.push(Frontier::Deferred(Deferred {
                        parent: Arc::clone(node),
                        decision: d,
                        key,
                    }));
                    continue;
                }
                let (p, _) = d;
                let (dst, hit) =
                    stepper.build(cfg.dedup, &env, fd_cache.get(p.index(), t).clone(), node, d);
                tally(hit);
                stack.push(Frontier::Built(dst));
            }
        }
        if let Some(node) = built {
            recycle(node, &mut stepper.free);
        }
        obs.add(CounterId::ExploreStepMemoHits, memo_hits);
        obs.add(CounterId::ExploreStepMemoMisses, memo_misses);
        obs.add(CounterId::ExploreChildrenDeferred, deferred);
        obs.add(CounterId::ExploreDeferredBuilt, deferred_built);
        drop(expand_phase);

        // Merge phase: a batch with violations reports the least decision
        // list among them and ends the exploration before its children
        // count towards the frontier high-water mark. Otherwise the
        // survivors are released: a survivor's state stays shared while
        // any of its deferred children waits on the stack, and the release
        // of the last one returns it to the arena.
        let _merge_phase = obs.phase(PhaseId::ExploreMerge);
        if let Some(best) = violations
            .into_iter()
            .min_by(|a, b| a.decisions.cmp(&b.decisions))
        {
            break Some(best);
        }
        for s in survivors.drain(..) {
            recycle(s.into_shared(), &mut stepper.free);
        }
        // No `max_frontier_len` update here: the loop top re-reads
        // `stack.len()` before anything can break, so the post-batch
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

    let dedup_entries = seen.len();
    if obs.is_on() {
        obs.add(CounterId::ExploreRuns, 1);
        obs.add(CounterId::ExploreStatesVisited, states_visited as u64);
        obs.add(CounterId::ExploreDedupHits, dedup_hits as u64);
        obs.add(CounterId::ExploreDedupEntries, dedup_entries as u64);
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
        symmetry_canonical_hits,
        reduction_enabled: cfg.symmetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_baseline::explore_baseline;
    use crate::machine::{oracle_fn, DecisionNode, Machine, OutputNode, ProtocolMachine, Replay};
    use crate::oracle::NoDetector;
    use crate::protocol::Ctx;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Each process outputs every message payload it receives.
    #[derive(Clone, Debug, PartialEq)]
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

    /// Each process outputs once, on its first step.
    #[derive(Clone, Debug)]
    struct Announce;

    impl Protocol for Announce {
        type Msg = ();
        type Output = ();
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            ctx.output(());
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Self>, _from: ProcessId, _msg: ()) {}
    }

    /// The reported counterexample is the least decision list of the
    /// first violating batch, not the first violation in pop order. Both
    /// first steps violate, and they share the root's child batch, where
    /// p1's child is popped first; at batch 1 nothing else is in its
    /// batch, so the DFS pop order decides.
    #[test]
    fn a_batch_reports_its_least_violation() {
        let run = |cfg: ExploreConfig| {
            explore(
                cfg,
                || vec![Announce, Announce],
                vec![None, None],
                &FailurePattern::failure_free(2),
                NoDetector,
                |_, outputs| match outputs.first() {
                    Some((p, ())) => Err(format!("{p} output")),
                    None => Ok(()),
                },
            )
            .violation
            .expect("every first step outputs")
            .decisions
        };
        assert_eq!(run(ExploreConfig::new(4)), vec![(ProcessId(0), None)]);
        assert_eq!(
            run(ExploreConfig::new(4).with_batch(1)),
            vec![(ProcessId(1), None)]
        );
    }

    #[test]
    fn fingerprinted_explorer_matches_the_structural_baseline() {
        let safety = |_: &[Tag], outputs: &[(ProcessId, u8)]| {
            if outputs.iter().any(|(_, o)| *o == 2) {
                Err("saw a 2".to_string())
            } else {
                Ok(())
            }
        };
        let pattern = FailurePattern::failure_free(2);
        let inv = vec![Some(1), Some(2)];
        let fp = explore(
            ExploreConfig::new(8).with_batch(1),
            two_taggers,
            inv.clone(),
            &pattern,
            NoDetector,
            safety,
        );
        let exact = explore_baseline(
            ExploreConfig::new(8),
            two_taggers,
            inv,
            &pattern,
            NoDetector,
            safety,
        );
        assert_eq!(fp, exact);
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
        assert!(!report.reduction_enabled, "reductions are opt-in");
        let json = report.to_json();
        for field in [
            "states_visited",
            "dedup_entries",
            "dedup_hits",
            "max_frontier_len",
            "violation",
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
    #[derive(Clone, Debug, PartialEq)]
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

    /// The fixture still bites: its two delivery orders reach states
    /// equal in everything but the output history, so a key that
    /// ignored outputs would merge them and miss the violation.
    #[test]
    fn emit_bug_orders_differ_only_in_outputs() {
        let pattern = FailurePattern::failure_free(2);
        let machine = ProtocolMachine::new(&pattern, oracle_fn(NoDetector));
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        // Both starts, then p1 delivers the message at `first` and the
        // one left.
        let run = |first: usize| {
            let mut state = machine.initial(vec![EmitBug, EmitBug], vec![None, None]);
            for d in [(p0, None), (p1, None), (p1, Some(first)), (p1, Some(0))] {
                state = machine.transition(&state, &d).next().expect("enabled");
            }
            let mut outputs = Vec::new();
            state.collect_outputs(&mut outputs);
            (state, outputs)
        };
        let ((a, a_out), (b, b_out)) = (run(0), run(1));
        assert!(a.procs == b.procs && a.inboxes == b.inboxes && a.started == b.started);
        assert!(emit_bug_safety(&a.procs, &a_out).is_err());
        assert!(emit_bug_safety(&b.procs, &b_out).is_ok());
        assert_eq!(
            (a_out, b_out),
            (vec![(p1, 1), (p1, 2)], vec![(p1, 2), (p1, 1)])
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
            for _ in 0..=FORGETFUL_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed) {
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
        // recorded row.
        explore(
            ExploreConfig::new(4),
            || vec![Forgetful, Forgetful],
            vec![None, None],
            &FailurePattern::failure_free(2),
            NoDetector,
            |_, _| Ok(()),
        );
    }

    /// Invocation broadcasts to the others; deliveries are absorbed
    /// silently. Declares full symmetry.
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

    /// The seen-table against a `BTreeMap` model of the revisit rule:
    /// an absent key is recorded and kept, a strictly shallower revisit
    /// lowers the record and is kept, an equal or deeper one is pruned.
    /// Random keys, revisits and depths run the table through several
    /// doublings; crafted keys would be confused by a table that folded
    /// the two halves (`lo ^ hi`) or compared only one of them. At the
    /// end every key's revisit at its recorded depth must be pruned.
    #[test]
    fn seen_table_matches_a_btreemap_model() {
        let (lo, hi) = (0x0123_4567_89ab_cdef_u128, 0xfedc_ba98_7654_3210_u128);
        let crafted = [
            0,
            u128::MAX,
            lo | hi << 64,
            hi | lo << 64,
            lo | 1 << 64,
            lo | 2 << 64,
        ];
        let mut rng = SimRng::new(31);
        let mut table = SeenTable::new();
        let mut model: BTreeMap<u128, usize> = BTreeMap::new();
        let mut keys = Vec::new();
        let (mut capacity, mut doublings) = (table.depths.capacity(), 0);
        let random_key =
            |rng: &mut SimRng| u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        for i in 0..20_000 {
            // The crafted keys first, each deeper than the one before, so
            // a table that confused two of them would prune the second.
            let (key, depth) = match crafted.get(i) {
                Some(&key) => (key, i),
                None if rng.chance(40) => (random_key(&mut rng), rng.pick(41)),
                None => (keys[rng.pick(keys.len())], rng.pick(41)),
            };
            keys.push(key);
            let keep = model.get(&key).is_none_or(|&seen| depth < seen);
            if keep {
                model.insert(key, depth);
            }
            assert_eq!(
                table.visit(key, depth),
                keep,
                "visit #{i}: {key:#x} at {depth}"
            );
            if table.depths.capacity() > capacity {
                capacity = table.depths.capacity();
                doublings += 1;
            }
        }
        for (&key, &depth) in &model {
            assert!(!table.visit(key, depth), "{key:#x} at {depth}");
        }
        assert_eq!(table.len(), model.len());
        assert!(doublings >= 3, "{doublings} doublings");
    }

    #[test]
    #[should_panic(expected = "u32::MAX")]
    fn seen_table_refuses_a_depth_past_its_bound() {
        SeenTable::new().visit(1, u32::MAX as usize + 1);
    }

    /// A memo drops its rows rather than grow past room for
    /// [`MEMO_ROWS_CAP`] rows: dropping keeps the buckets, so a table
    /// that doubled past the cap would keep twice the buckets it fills.
    #[test]
    fn memos_stop_growing_at_their_cap() {
        let mut steps = StepMemo::new();
        let mut slots = SlotMemo::new();
        let (mut most_steps, mut most_slots) = (0, 0);
        for i in 0..3 * MEMO_ROWS_CAP {
            let key = StepKey {
                actor: 0,
                t: i as Time,
                started: true,
                proc: i as u128,
                delivered: None,
            };
            let effect = || StepEffect {
                proc: 0,
                sent: Vec::new(),
                emitted: false,
            };
            assert!(!steps.effect(key, effect).1, "row {i} is new");
            slots.trim(1);
            slots.row(i as u128, |images| images.push(0));
            most_steps = most_steps.max(steps.rows.len());
            most_slots = most_slots.max(slots.rows.len());
        }
        for (memo, capacity, most) in [
            ("step", steps.rows.capacity(), most_steps),
            ("slot", slots.rows.capacity(), most_slots),
        ] {
            assert!(capacity <= MEMO_ROWS_CAP, "{memo} memo room {capacity}");
            assert!(most > MEMO_ROWS_CAP / 2, "{memo} memo held at most {most}");
        }
    }
}
