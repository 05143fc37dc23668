//! Differential test of the transition memo behind incremental keys.
//!
//! The explorer and the liveness checker key a child without rendering
//! it: the actor's new process key and the keys of the messages it sent
//! come from a memo looked up by the actor, the step time,
//! whether the actor had started, its process key and the delivered
//! message's key. The fixture's handlers depend on each of those, and
//! on the clock and the detector through `Ctx`:
//!
//! * a first step leaves the local state alone and sends one or two
//!   clock-and-detector-stamped messages to the next process, so a start
//!   and a later λ step of the same process state at the same time
//!   differ only in `started`;
//! * a delivery mixes the detector value into the accumulator, outputs
//!   it for even tags, and (budget permitting) re-sends an odd tag to
//!   itself or replies to the sender with a clock-stamped even tag;
//! * some seeds crash a process, so sends to it are dropped from then
//!   on, and the detector value changes with time.
//!
//! `explore_baseline` identifies every state from scratch, by its stored
//! components compared with `==`, so at batch 1 the explorer must
//! reproduce it field for field; under symmetry it must keep the
//! verdict.
//! The liveness checker, with time frozen at `t_stable`, must keep the
//! unreduced graphs recorded below (dedup there is structural, so its
//! unreduced graph does not depend on the key function at all) and the
//! unreduced verdict under symmetry. A memo keyed on too little hands a
//! child another step's keys: that either trips the memo's own fit
//! check or merges or splits states, which these comparisons see even in
//! release builds, where the debug-build full re-key check is compiled
//! out.

use wfd_sim::explore_baseline::explore_baseline;
use wfd_sim::{
    check_liveness, explore, Ctx, ExploreConfig, ExploreReport, FailurePattern, FnDetector,
    LivenessConfig, LivenessReport, Ltl, ProcessId, PropView, Protocol, Symmetry, Time,
};

const N: usize = 3;

/// The fixture protocol (see the module docs). Every process of a run
/// shares one configuration, so the cyclic group acts on the fleet.
#[derive(Clone, Debug, PartialEq)]
struct Stamp {
    /// Whether a first step sends twice to the next process.
    twice: bool,
    acc: u8,
    budget: u8,
    ticks: u8,
}

impl Stamp {
    fn fleet(seed: u64) -> Vec<Stamp> {
        (0..N)
            .map(|_| Stamp {
                twice: seed.is_multiple_of(2),
                acc: (seed % 5) as u8,
                budget: 1 + (seed / 2 % 2) as u8,
                ticks: 0,
            })
            .collect()
    }

    fn next(me: ProcessId, n: usize) -> ProcessId {
        ProcessId((me.index() + 1) % n)
    }

    fn outputs(tag: u8) -> bool {
        tag.is_multiple_of(2)
    }
}

impl Protocol for Stamp {
    type Msg = u8;
    type Output = u8;
    type Inv = ();
    type Fd = u8;

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        let stamp = (ctx.now() as u8 + *ctx.fd()) % 4;
        let next = Self::next(ctx.me(), ctx.n());
        ctx.send(next, stamp);
        if self.twice {
            ctx.send(next, stamp + 1);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, tag: u8) {
        self.acc = (self.acc + tag + *ctx.fd()) % 8;
        if Self::outputs(tag) {
            ctx.output(self.acc);
        }
        if self.budget > 0 {
            self.budget -= 1;
            if Self::outputs(tag) {
                ctx.send(from, (tag + ctx.now() as u8) % 4 * 2);
            } else {
                ctx.send(ctx.me(), tag + 1);
            }
        }
    }

    fn on_tick(&mut self, _ctx: &mut Ctx<Self>) {
        self.ticks = (self.ticks + 1) % 2;
    }

    // Sends go to the next process, the sender or the process itself,
    // and neither state nor payloads hold ids: rotations commute.
    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Cyclic
    }

    fn props() -> &'static [&'static str] {
        &["spent"]
    }

    fn eval_prop(_prop: usize, procs: &[Self], view: &PropView<'_>) -> bool {
        procs
            .iter()
            .zip(view.correct)
            .all(|(p, &correct)| !correct || p.budget == 0)
    }
}

/// A detector whose value depends on the time only (so rotations keep
/// it) and stops changing at `settle`.
fn detector(settle: Time) -> FnDetector<u8, impl FnMut(ProcessId, Time) -> u8> {
    FnDetector::new(move |_p, t: Time| (t.min(settle) % 3) as u8)
}

/// Two seeds in three crash the last process at a seed-dependent time,
/// so later sends to it are dropped.
fn family_pattern(seed: u64) -> FailurePattern {
    let pattern = FailurePattern::failure_free(N);
    match seed % 3 {
        0 => pattern,
        _ => pattern.with_crash(ProcessId(N - 1), 1 + (seed % 3) as Time),
    }
}

fn family_cfg() -> ExploreConfig {
    ExploreConfig::new(6).with_max_states(200_000)
}

/// A seed-dependent bar on the outputs: some seeds break it.
fn family_safety(seed: u64) -> impl Fn(&[Stamp], &[(ProcessId, u8)]) -> Result<(), String> {
    let bar = 4 + (seed % 4) as u8;
    move |_procs, outputs| match outputs.iter().find(|(_, acc)| *acc > bar) {
        Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
        None => Ok(()),
    }
}

/// The detector settles past the explorer's depth on odd seeds.
fn settle(seed: u64) -> Time {
    if seed % 2 == 1 {
        100
    } else {
        2
    }
}

fn run(seed: u64, cfg: ExploreConfig) -> ExploreReport {
    explore(
        cfg,
        move || Stamp::fleet(seed),
        vec![None; N],
        &family_pattern(seed),
        detector(settle(seed)),
        family_safety(seed),
    )
}

fn baseline(seed: u64) -> ExploreReport {
    explore_baseline(
        family_cfg(),
        move || Stamp::fleet(seed),
        vec![None; N],
        &family_pattern(seed),
        detector(settle(seed)),
        family_safety(seed),
    )
}

const SEEDS: u64 = 24;

/// One seed of the full re-key ladder: the explorer at batch 1 against
/// the structural baseline. Returns the baseline's report.
fn check_against_baseline(seed: u64) -> ExploreReport {
    let base = baseline(seed);
    assert!(!base.states_capped, "seed {seed}: state cap hit");
    assert_eq!(
        run(seed, family_cfg().with_batch(1)),
        base,
        "seed {seed}, batch 1: memoized keys diverged from the full re-key"
    );
    base
}

#[test]
fn memoized_children_reproduce_the_full_rekey_baseline() {
    let (mut violating, mut clean) = (0, 0);
    for seed in 0..SEEDS {
        match check_against_baseline(seed).violation {
            Some(_) => violating += 1,
            None => clean += 1,
        }
    }
    // Only meaningful if both outcomes occur.
    assert!(violating >= 4, "sweep too tame: {violating}");
    assert!(clean >= 4, "sweep too strict: {clean}");
}

/// One seed of the reduced ladder: symmetry keeps the baseline's
/// verdict. Returns the reduced report.
fn check_reduced(seed: u64, base: &ExploreReport) -> ExploreReport {
    let one = run(seed, family_cfg().with_symmetry(true));
    assert_eq!(
        one.violation.is_some(),
        base.violation.is_some(),
        "seed {seed}: reduction changed the verdict\n{one:?}\nvs\n{base:?}"
    );
    one
}

#[test]
fn memoized_children_keep_the_reduced_verdict() {
    let mut sym_hits = 0;
    for seed in 0..SEEDS {
        let base = baseline(seed);
        sym_hits += check_reduced(seed, &base).symmetry_canonical_hits;
    }
    assert!(sym_hits > 0, "symmetry never canonicalized anything");
}

/// One liveness scenario: fairness bounds `G = D = gap` and time frozen
/// at `t_stable = 3`, after the crash and after the detector settles.
fn liveness(seed: u64, symmetry: bool) -> LivenessReport {
    let (gap, t_stable) = (2 + seed % 2, 3);
    check_liveness(
        LivenessConfig::new(gap, gap, t_stable)
            .with_max_inbox(6)
            .with_symmetry(symmetry),
        move || Stamp::fleet(seed),
        vec![None; N],
        &family_pattern(seed),
        detector(2),
        &Ltl::prop("spent").eventually(),
    )
    .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

/// `(seed, verdict, states, edges, product states)` of the unreduced
/// graphs, recorded by a debug build, which checks every carried key
/// against a full re-key as it builds the graph.
const UNREDUCED: [(u64, &str, usize, usize, usize); 6] = [
    (0, "holds", 400, 428, 102),
    (1, "violated", 952, 1725, 203),
    (2, "violated", 217, 245, 20),
    (3, "violated", 3421, 4090, 28),
    (4, "violated", 195, 226, 40),
    (5, "violated", 1538, 2721, 233),
];

#[test]
fn memoized_liveness_nodes_keep_the_graph_under_frozen_time() {
    let mut shrunk = 0;
    for (seed, verdict, states, edges, product) in UNREDUCED {
        let one = liveness(seed, false);
        let got = (
            one.verdict.as_str(),
            one.states,
            one.edges,
            one.product_states,
        );
        assert_eq!(
            got,
            (verdict, states, edges, product),
            "seed {seed}: unreduced graph moved"
        );
        assert!(!one.truncated, "seed {seed}: truncated");
        let sym = liveness(seed, true);
        assert_eq!(
            sym.verdict, one.verdict,
            "seed {seed}: symmetry changed the verdict"
        );
        shrunk += usize::from(sym.states < one.states);
    }
    assert!(shrunk > 0, "symmetry never shrank a graph");
}
