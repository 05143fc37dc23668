//! Differential test of the explorer's symmetry canonicalizer.
//!
//! [`Canonicalizer`] never builds a renamed state: it reorders memoized
//! per-slot keys. This suite builds the renamed states anyway — with its
//! own forward renaming, independent of the canonicalizer's inverse
//! tables — and checks, on reachable states of two protocol families,
//! that
//!
//! 1. the canonical key equals the least unreduced key (a canonicalizer
//!    without a group) over the group's materialized renamings (identity
//!    included), and
//! 2. the canonical key is constant across each state's orbit.
//!
//! The families are the 40-seed `Mixer` family of `explore_dedup.rs`
//! (id-free, so renaming only moves slots) and a join-quorum protocol
//! whose process state, messages and outputs all embed process ids, so
//! every `permute` hook really rewrites. One canonicalizer serves a whole
//! family, so most component lookups are memo hits on rows filled by
//! earlier states — a stale or misindexed row breaks property 1.

use std::fmt::Debug;
use wfd_sim::explore::Canonicalizer;
use wfd_sim::{
    oracle_fn, Ctx, FailurePattern, Machine, NoDetector, Permutation, ProcessId, ProcessSet,
    Protocol, ProtocolMachine, SimRng, State, Symmetry,
};

/// `explore_dedup.rs`'s seed-parameterized toy protocol: bursts of
/// tagged broadcasts, tags mixed into an accumulator and output, some
/// relayed on. Fully id-agnostic.
#[derive(Clone, Debug)]
struct Mixer {
    burst: u64,
    mult: u64,
    acc: u64,
    relays_left: u64,
}

impl Mixer {
    fn family(seed: u64) -> Self {
        Mixer {
            burst: 1 + seed % 3,
            mult: 3 + seed % 5,
            acc: seed % 7,
            relays_left: seed % 2,
        }
    }
}

impl Protocol for Mixer {
    type Msg = u64;
    type Output = u64;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        for tag in 0..self.burst {
            ctx.broadcast_others(tag);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, tag: u64) {
        self.acc = self.acc.wrapping_mul(self.mult).wrapping_add(tag);
        ctx.output(self.acc);
        if self.relays_left > 0 && tag > 0 {
            self.relays_left -= 1;
            ctx.broadcast_others(tag - 1);
        }
    }

    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }
}

fn rename_set(set: &ProcessSet, perm: &Permutation) -> ProcessSet {
    let mut out = ProcessSet::new();
    for p in set.iter() {
        out.insert(perm.apply(p));
    }
    out
}

/// The join-quorum shape of `MajoritySigma` (`wfd-detectors`): each
/// round collects acks into a process set and adopts the first majority
/// as its quorum, which it outputs. Acks name the acknowledging process
/// in their payload.
#[derive(Clone, Debug, PartialEq)]
struct Quorum {
    round: u64,
    acks: ProcessSet,
    quorum: ProcessSet,
}

impl Quorum {
    fn fleet(n: usize) -> Vec<Quorum> {
        (0..n)
            .map(|_| Quorum {
                round: 0,
                acks: ProcessSet::new(),
                quorum: ProcessSet::full(n),
            })
            .collect()
    }
}

#[derive(Clone, Debug)]
enum QuorumMsg {
    Join(u64),
    Ack(u64, ProcessId),
}

impl Protocol for Quorum {
    type Msg = QuorumMsg;
    type Output = ProcessSet;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        self.round = 1;
        ctx.broadcast(QuorumMsg::Join(1));
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: QuorumMsg) {
        match msg {
            QuorumMsg::Join(k) => ctx.send(from, QuorumMsg::Ack(k, ctx.me())),
            QuorumMsg::Ack(k, who) if k == self.round => {
                self.acks.insert(who);
                if self.acks.len() * 2 > ctx.n() && self.quorum != self.acks {
                    self.quorum = self.acks;
                    ctx.output(self.quorum);
                }
            }
            QuorumMsg::Ack(..) => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self>) {
        if self.round < 2 && self.quorum == self.acks {
            self.round += 1;
            self.acks = ProcessSet::new();
            ctx.broadcast(QuorumMsg::Join(self.round));
        }
    }

    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }

    fn permute(&mut self, perm: &Permutation) {
        self.acks = rename_set(&self.acks, perm);
        self.quorum = rename_set(&self.quorum, perm);
    }

    fn permute_msg(msg: &mut QuorumMsg, perm: &Permutation) {
        if let QuorumMsg::Ack(_, who) = msg {
            *who = perm.apply(*who);
        }
    }

    fn permute_output(out: &mut ProcessSet, perm: &Permutation) {
        *out = rename_set(out, perm);
    }
}

/// One state's key components, materialized.
struct Parts<P: Protocol> {
    procs: Vec<P>,
    inboxes: Vec<Vec<(ProcessId, P::Msg)>>,
    started: Vec<bool>,
    outputs: Vec<(ProcessId, P::Output)>,
}

impl<P: Protocol + Clone + Debug> Parts<P> {
    fn of(state: &State<P>) -> Self {
        let n = state.procs().len();
        let mut outputs = Vec::new();
        state.collect_outputs(&mut outputs);
        Parts {
            procs: state.procs().to_vec(),
            inboxes: ProcessId::all(n).map(|p| state.inbox(p).to_vec()).collect(),
            started: ProcessId::all(n).map(|p| state.is_started(p)).collect(),
            outputs,
        }
    }

    /// The state renamed through `perm`, built forward: process `i`'s
    /// slot moves to `perm(i)` and every embedded id is rewritten.
    fn renamed(&self, perm: &Permutation) -> Self {
        let n = self.procs.len();
        let mut procs: Vec<Option<P>> = vec![None; n];
        let mut inboxes = vec![Vec::new(); n];
        let mut started = vec![false; n];
        for i in ProcessId::all(n) {
            let j = perm.apply(i).index();
            let mut proc = self.procs[i.index()].clone();
            proc.permute(perm);
            procs[j] = Some(proc);
            inboxes[j] = self.inboxes[i.index()]
                .iter()
                .map(|(from, msg)| {
                    let mut msg = msg.clone();
                    P::permute_msg(&mut msg, perm);
                    (perm.apply(*from), msg)
                })
                .collect();
            started[j] = self.started[i.index()];
        }
        let outputs = self
            .outputs
            .iter()
            .map(|(p, out)| {
                let mut out = out.clone();
                P::permute_output(&mut out, perm);
                (perm.apply(*p), out)
            })
            .collect();
        Parts {
            procs: procs
                .into_iter()
                .map(|p| p.expect("a permutation fills every slot"))
                .collect(),
            inboxes,
            started,
            outputs,
        }
    }

    /// The unreduced key: what a canonicalizer without a group gives.
    fn key(&self) -> u128 {
        self.canonical(&mut Canonicalizer::new(&[]))
    }

    /// The least key over the materialized renamings under `group`.
    fn least_key(&self, group: &[Permutation]) -> u128 {
        group
            .iter()
            .map(|perm| self.renamed(perm).key())
            .min()
            .expect("non-empty group")
    }

    fn canonical(&self, canon: &mut Canonicalizer<P>) -> u128 {
        canon.key(&self.procs, &self.inboxes, &self.started, &self.outputs)
    }
}

/// The states along `walks` seeded random walks of `len` steps from the
/// initial configuration, failure-free. Walks share prefixes and revisit
/// states, which is what feeds the memo hits.
fn walk_states<P: Protocol<Fd = ()> + Clone + Debug>(
    procs: Vec<P>,
    walks: usize,
    len: usize,
    seed: u64,
) -> Vec<Parts<P>> {
    let n = procs.len();
    let pattern = FailurePattern::failure_free(n);
    let machine = ProtocolMachine::new(&pattern, oracle_fn(NoDetector));
    let mut rng = SimRng::new(seed);
    let mut out = Vec::new();
    for _ in 0..walks {
        let mut state = machine.initial(procs.clone(), vec![None; n]);
        for _ in 0..len {
            out.push(Parts::of(&state));
            let actions: Vec<_> = machine.enabled_actions(&state).collect();
            let pick = rng.gen_range(actions.len() as u64) as usize;
            state = machine
                .transition(&state, &actions[pick])
                .next()
                .expect("enabled actions are enabled");
        }
        out.push(Parts::of(&state));
    }
    out
}

/// Properties 1 and 2 over `states`, with one canonicalizer (and so one
/// memo) for the whole list. Returns how many states were keyed without
/// adding a memo row, i.e. entirely from rows earlier states filled.
fn check_family<P: Protocol + Clone + Debug>(states: &[Parts<P>], label: &str) -> usize {
    let n = states[0].procs.len();
    let group = P::symmetry(n).permutations(n);
    assert!(group.len() > 1, "{label}: the group must be non-trivial");
    let mut canon = Canonicalizer::new(&group);
    let mut all_hits = 0;
    for (i, state) in states.iter().enumerate() {
        let rows = canon.memo_rows();
        let canonical = state.canonical(&mut canon);
        all_hits += usize::from(canon.memo_rows() == rows);
        assert_eq!(
            canonical,
            state.least_key(&group),
            "{label}, state {i}: memoized canonical key differs from the least materialized key"
        );
        for perm in &group {
            assert_eq!(
                state.renamed(perm).canonical(&mut canon),
                canonical,
                "{label}, state {i}: canonical key not constant on the orbit of {perm:?}"
            );
        }
    }
    all_hits
}

#[test]
fn memoized_keys_match_materialized_renamings_on_the_seed_family() {
    for seed in 0..40 {
        for n in [2, 3] {
            let procs = (0..n).map(|_| Mixer::family(seed)).collect();
            let states = walk_states(procs, 12, 4 + seed as usize % 4, seed);
            let label = format!("mixer seed {seed}, n = {n}");
            let hits = check_family(&states, &label);
            assert!(hits > 0, "{label}: the memo never served a whole state");
        }
    }
}

#[test]
fn memoized_keys_match_materialized_renamings_when_permute_rewrites_ids() {
    for n in [2, 3] {
        let states = walk_states(Quorum::fleet(n), 60, 14, n as u64);
        let label = format!("quorum n = {n}");
        let hits = check_family(&states, &label);
        assert!(hits > 0, "{label}: the memo never served a whole state");
    }
    // The walks must reach states whose ids really get rewritten: acks
    // naming a process in flight, and a partial quorum in the output
    // history.
    let states = walk_states(Quorum::fleet(3), 60, 14, 3);
    assert!(states.iter().any(|s| s
        .inboxes
        .iter()
        .flatten()
        .any(|(_, m)| matches!(m, QuorumMsg::Ack(..)))));
    assert!(states
        .iter()
        .any(|s| s.outputs.iter().any(|(_, q)| q.len() == 2)));
}

#[test]
fn a_trivial_group_keys_exactly_like_no_group() {
    // The unreduced key and the identity candidate are one composition.
    let states = walk_states(Quorum::fleet(3), 20, 14, 7);
    let mut fp = Canonicalizer::new(&[Permutation::identity(3)]);
    for state in &states {
        assert_eq!(state.canonical(&mut fp), state.key());
    }
    assert_eq!(fp.memo_rows(), 0, "the identity needs no memo");
}

/// Key `a`, then `b`, on one canonicalizer: `b` is keyed partly from the
/// rows `a` filled, and must agree with a cold canonicalizer and with
/// the materialized renamings.
fn miss_then_hit(a: &Parts<Quorum>, b: &Parts<Quorum>) {
    let group = Symmetry::Full.permutations(3);
    let mut warm = Canonicalizer::new(&group);
    assert_eq!(a.canonical(&mut warm), a.least_key(&group));
    let after_a = warm.memo_rows();
    let warm_b = b.canonical(&mut warm);
    let warm_added = warm.memo_rows() - after_a;

    let mut cold = Canonicalizer::new(&group);
    let cold_b = b.canonical(&mut cold);
    assert!(
        warm_added < cold.memo_rows(),
        "the second state must hit rows the first one filled"
    );
    assert_eq!(warm_b, cold_b, "memo hits changed the key");
    assert_eq!(warm_b, b.least_key(&group));
}

#[test]
fn memo_rows_filled_by_one_state_serve_the_next() {
    // A row recorded for the wrong component or group element shows up
    // as a key mismatch on the second state.
    let states = walk_states(Quorum::fleet(3), 20, 14, 11);
    let (a, b) = states
        .iter()
        .enumerate()
        .flat_map(|(i, a)| states[i + 1..].iter().map(move |b| (a, b)))
        .find(|(a, b)| {
            let shares = (0..3).any(|i| (0..3).any(|j| a.procs[i] == b.procs[j]));
            let ids_inside = b.procs.iter().any(|p| p.acks.len() == 2);
            shares && ids_inside && a.key() != b.key()
        })
        .expect("two distinct states sharing a process state");
    miss_then_hit(a, b);
}
