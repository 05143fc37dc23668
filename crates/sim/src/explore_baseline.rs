//! The pre-optimization explorer, kept as the differential-testing
//! oracle.
//!
//! This is the explorer's original inner loop: sequential depth-first
//! search, a full `State` clone (including the O(depth) decision and
//! output vectors) per branch, a per-(state, process) `choices` vector,
//! and a single seen-table keyed from scratch at every state. The table
//! is exact: it stores each state, files it under a fingerprint and
//! confirms every match with `==` on the process states, inboxes,
//! `started` bits and output history, so neither a collision nor a lossy
//! `Debug` can merge two of its states.
//!
//! Not public API: it exists so tests (`explore_dedup`, `machine_equiv`,
//! `incremental_keys`, `step_memo`) can differentially check
//! [`crate::explore()`] against an independent implementation. It is
//! `#[doc(hidden)]`.

use crate::explore::{ExploreConfig, ExploreDecision, ExploreReport, ExploreViolation};
use crate::failure::FailurePattern;
use crate::fingerprint::debug_fp;
use crate::id::{ProcessId, Time};
use crate::liveness::Chains;
use crate::oracle::FdOracle;
use crate::protocol::{Ctx, Protocol};
use std::fmt::Debug;

#[derive(Clone)]
struct State<P: Protocol> {
    procs: Vec<P>,
    inboxes: Vec<Vec<(ProcessId, P::Msg)>>,
    started: Vec<bool>,
    pending_inv: Vec<Option<P::Inv>>,
    outputs: Vec<(ProcessId, P::Output)>,
    depth: usize,
    decisions: Vec<ExploreDecision>,
}

fn apply_step<P, D>(
    state: &State<P>,
    p: ProcessId,
    choice: Option<usize>,
    pattern: &FailurePattern,
    detector: &mut D,
    n: usize,
) -> State<P>
where
    P: Protocol + Clone,
    D: FdOracle<Value = P::Fd>,
{
    let t = state.depth as Time;
    let mut next = state.clone();
    next.depth += 1;
    let fd = detector.query(p, t);
    let mut ctx = Ctx::<P>::detached(p, n, t, fd);
    if !next.started[p.index()] {
        next.started[p.index()] = true;
        next.decisions.push((p, None));
        next.procs[p.index()].on_start(&mut ctx);
        if let Some(inv) = next.pending_inv[p.index()].take() {
            next.procs[p.index()].on_invoke(&mut ctx, inv);
        }
    } else {
        let inbox_len = next.inboxes[p.index()].len();
        match choice {
            Some(i) if inbox_len > 0 => {
                let i = i.min(inbox_len - 1);
                next.decisions.push((p, Some(i)));
                let (from, msg) = next.inboxes[p.index()].remove(i);
                next.procs[p.index()].on_message(&mut ctx, from, msg);
            }
            _ => {
                next.decisions.push((p, None));
                next.procs[p.index()].on_tick(&mut ctx);
            }
        }
    }
    for (to, msg) in ctx.take_sends() {
        if !pattern.is_crashed(to, t) {
            next.inboxes[to.index()].push((p, msg));
        }
    }
    for out in ctx.take_outputs() {
        next.outputs.push((p, out));
    }
    next
}

fn initial_state<P: Protocol>(procs: Vec<P>, invocations: Vec<Option<P::Inv>>) -> State<P> {
    let n = procs.len();
    assert_eq!(invocations.len(), n, "one invocation slot per process");
    State {
        procs,
        inboxes: vec![Vec::new(); n],
        started: vec![false; n],
        pending_inv: invocations,
        outputs: Vec::new(),
        depth: 0,
        decisions: Vec::new(),
    }
}

/// The original exploration loop — sequential DFS with full-clone
/// branching — with the exact seen-table described in the module docs.
/// Only [`ExploreConfig::max_depth`], [`ExploreConfig::max_states`] and
/// [`ExploreConfig::dedup`] are honored (the loop predates the other
/// knobs); the report's observability counters are filled in so it can be
/// compared against [`crate::explore()`] with
/// [`ExploreReport::same_semantics`].
pub fn explore_baseline<P, D>(
    cfg: ExploreConfig,
    make_procs: impl Fn() -> Vec<P>,
    invocations: Vec<Option<P::Inv>>,
    pattern: &FailurePattern,
    mut detector: D,
    mut safety: impl FnMut(&[P], &[(ProcessId, P::Output)]) -> Result<(), String>,
) -> ExploreReport
where
    P: Protocol + Clone + Debug + PartialEq,
    P::Msg: PartialEq,
    P::Output: PartialEq,
    D: FdOracle<Value = P::Fd>,
{
    let root = initial_state(make_procs(), invocations);
    let n = root.procs.len();

    // Every state seen, at the lowest depth it was expanded at.
    let mut seen: Vec<State<P>> = Vec::new();
    let mut chains = Chains::new();
    let mut stack = vec![root];
    let mut states_visited = 0usize;
    let mut depth_bounded = false;
    let mut states_capped = false;
    let mut dedup_hits = 0usize;
    let mut max_frontier_len = 0usize;

    let violation = loop {
        max_frontier_len = max_frontier_len.max(stack.len());
        let Some(state) = stack.pop() else { break None };
        if states_visited >= cfg.max_states {
            states_capped = true;
            break None;
        }
        if cfg.dedup {
            let key = debug_fp(&(&state.procs, &state.inboxes, &state.started, &state.outputs));
            let same = |s: &State<P>| {
                (&s.procs, &s.inboxes, &s.started, &s.outputs)
                    == (&state.procs, &state.inboxes, &state.started, &state.outputs)
            };
            match chains.find(key as u64, |id| same(&seen[id as usize])) {
                Some(id) if seen[id as usize].depth <= state.depth => {
                    dedup_hits += 1;
                    continue;
                }
                Some(id) => seen[id as usize].depth = state.depth,
                None => {
                    chains.push(key as u64);
                    seen.push(state.clone());
                }
            }
        }
        states_visited += 1;

        if let Err(message) = safety(&state.procs, &state.outputs) {
            break Some(ExploreViolation {
                message,
                decisions: state.decisions,
            });
        }
        if state.depth >= cfg.max_depth {
            depth_bounded = true;
            continue;
        }

        let t = state.depth as Time;
        for p in ProcessId::all(n) {
            if pattern.is_crashed(p, t) {
                continue;
            }
            let choices: Vec<Option<usize>> =
                if !state.started[p.index()] || state.inboxes[p.index()].is_empty() {
                    vec![None]
                } else {
                    (0..state.inboxes[p.index()].len()).map(Some).collect()
                };
            for choice in choices {
                stack.push(apply_step(&state, p, choice, pattern, &mut detector, n));
            }
        }
    };

    ExploreReport {
        states_visited,
        depth_bounded,
        states_capped,
        violation,
        dedup_entries: seen.len(),
        dedup_hits,
        max_frontier_len,
        symmetry_canonical_hits: 0,
        reduction_enabled: false,
        threads_used: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::oracle::NoDetector;

    /// Relays a hop-counted token; outputs every payload received.
    #[derive(Clone, Debug, PartialEq)]
    struct Relay;

    impl Protocol for Relay {
        type Msg = u8;
        type Output = u8;
        type Inv = u8;
        type Fd = ();

        fn on_invoke(&mut self, ctx: &mut Ctx<Self>, hops: u8) {
            ctx.broadcast_others(hops);
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, hops: u8) {
            ctx.output(hops);
            if hops > 0 {
                ctx.broadcast_others(hops - 1);
            }
        }
    }

    /// The optimized explorer at batch 1, single-thread, must reproduce
    /// the historical loop and its exact seen-table *exactly* — the
    /// differential anchor that ties the new code to the original
    /// semantics.
    #[test]
    fn optimized_explorer_matches_the_baseline_bit_for_bit() {
        for (plant, depth) in [(false, 7), (true, 7), (false, 5)] {
            let safety = move |_: &[Relay], outputs: &[(ProcessId, u8)]| {
                if plant && outputs.iter().filter(|(_, h)| *h == 0).count() >= 2 {
                    Err("two zero-hop deliveries".to_string())
                } else {
                    Ok(())
                }
            };
            let mk = || vec![Relay, Relay];
            let inv = vec![Some(2), None];
            let pattern = FailurePattern::failure_free(2);
            let old = explore_baseline(
                ExploreConfig::new(depth),
                mk,
                inv.clone(),
                &pattern,
                NoDetector,
                safety,
            );
            let new = explore(
                ExploreConfig::new(depth).with_threads(1).with_batch(1),
                mk,
                inv,
                &pattern,
                NoDetector,
                safety,
            );
            assert!(
                old.same_semantics(&new),
                "plant={plant} depth={depth}: {old:?} vs {new:?}"
            );
        }
    }
}
