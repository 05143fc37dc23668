//! Differential test of the explorer's incremental slot keys.
//!
//! The explorer never keys a state in full after the root: each child
//! inherits its parent's slot keys and re-keys only the slots its step
//! touched. `explore_baseline` identifies every state from scratch, by
//! its stored components compared with `==`, so on a protocol family
//! whose steps hit every re-key case the two must agree:
//!
//! * at batch 1 on one thread (classic depth-first order) the reports
//!   are identical, field for field;
//! * at the default batch, at 1 and 2 worker threads, they agree on the
//!   verdict, and on sweeps that found no violation also on the flags
//!   and `dedup_entries` (a violation stops each traversal at an
//!   order-shaped point);
//! * under symmetry the verdict still matches.
//!
//! A slot left stale by a missed re-key merges distinct states, so it
//! shows up here as a smaller `dedup_entries` or a lost violation even
//! in release builds, where the explorer's own debug-build cross-check
//! (every keyed state re-keyed in full) is compiled out.

use wfd_sim::explore_baseline::explore_baseline;
use wfd_sim::{
    explore, Ctx, ExploreConfig, ExploreReport, FailurePattern, NoDetector, ProcessId, Protocol,
    Symmetry, Time,
};

/// A seed-parameterized protocol whose steps cover every slot a step can
/// touch:
///
/// * a delivery of an odd tag re-sends to the actor itself, which leaves
///   the actor's inbox length unchanged;
/// * a "wide" process starts with a broadcast that includes itself;
/// * replies to a crashed sender are dropped (see [`family_pattern`]);
/// * deliveries of even tags output the accumulator;
/// * a λ step only advances a local counter.
#[derive(Clone, Debug, PartialEq)]
struct Echo {
    wide: bool,
    mult: u8,
    acc: u8,
    budget: u8,
    ticks: u8,
}

const N: usize = 3;

impl Echo {
    fn fleet(seed: u64) -> Vec<Echo> {
        (0..N)
            .map(|i| Echo {
                wide: (seed >> i) & 1 == 1,
                mult: 1 + (seed % 3) as u8,
                acc: (seed % 5) as u8,
                budget: 1 + (seed % 2) as u8,
                ticks: 0,
            })
            .collect()
    }

    fn outputs(tag: u8) -> bool {
        tag.is_multiple_of(2)
    }

    fn resends_to_self(tag: u8) -> bool {
        !Self::outputs(tag)
    }
}

impl Protocol for Echo {
    type Msg = u8;
    type Output = u8;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        if self.wide {
            ctx.broadcast(1);
        } else {
            ctx.broadcast_others(2);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, tag: u8) {
        self.acc = (self.acc + tag * self.mult) % 16;
        if Self::outputs(tag) {
            ctx.output(self.acc);
        }
        if self.budget > 0 {
            self.budget -= 1;
            let to = if Self::resends_to_self(tag) {
                ctx.me()
            } else {
                from
            };
            ctx.send(to, tag + 1);
        }
    }

    fn on_tick(&mut self, _ctx: &mut Ctx<Self>) {
        self.ticks = (self.ticks + 1) % 3;
    }

    // Id-agnostic: no process ids in local state, messages or outputs,
    // and every send is relative (self, sender, or everyone).
    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }
}

/// Every third seed crashes the last process early, so replies to it
/// are dropped.
fn family_pattern(seed: u64) -> FailurePattern {
    let pattern = FailurePattern::failure_free(N);
    if seed.is_multiple_of(3) {
        pattern.with_crash(ProcessId(N - 1), 2 + (seed % 4) as Time)
    } else {
        pattern
    }
}

fn family_cfg() -> ExploreConfig {
    ExploreConfig::new(5).with_max_states(200_000)
}

/// A seed-dependent bar on the output accumulator: some seeds break it.
fn family_safety(seed: u64) -> impl Fn(&[Echo], &[(ProcessId, u8)]) -> Result<(), String> + Sync {
    let bar = 9 + (seed % 7) as u8;
    move |_procs, outputs| match outputs.iter().find(|(_, acc)| *acc > bar) {
        Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
        None => Ok(()),
    }
}

fn run(seed: u64, cfg: ExploreConfig) -> ExploreReport {
    explore(
        cfg,
        move || Echo::fleet(seed),
        vec![None; N],
        &family_pattern(seed),
        NoDetector,
        family_safety(seed),
    )
}

fn baseline(seed: u64) -> ExploreReport {
    explore_baseline(
        family_cfg(),
        move || Echo::fleet(seed),
        vec![None; N],
        &family_pattern(seed),
        NoDetector,
        family_safety(seed),
    )
}

/// The report as JSON with the informational `threads_used` zeroed.
fn normalized(r: &ExploreReport) -> String {
    let mut r = r.clone();
    r.threads_used = 0;
    r.to_json().to_string()
}

/// One seed of the full re-key ladder: the explorer against the
/// structural baseline. Returns the explorer's single-thread report.
fn check_against_baseline(seed: u64) -> ExploreReport {
    let base = baseline(seed);
    assert!(!base.states_capped, "seed {seed}: state cap hit");
    let cfg = family_cfg();
    let dfs = run(seed, cfg.clone().with_threads(1).with_batch(1));
    assert_eq!(
        normalized(&dfs),
        normalized(&base),
        "seed {seed}, batch 1: incremental keys diverged from the full re-key"
    );
    let one = run(seed, cfg.clone().with_threads(1));
    let two = run(seed, cfg.with_threads(2));
    assert_eq!(
        normalized(&one),
        normalized(&two),
        "seed {seed}: report depends on the thread count"
    );
    assert_eq!(
        one.violation.is_some(),
        base.violation.is_some(),
        "seed {seed}: verdict changed\n{one:?}\nvs\n{base:?}"
    );
    if base.violation.is_none() {
        assert!(
            one.depth_bounded == base.depth_bounded
                && one.states_capped == base.states_capped
                && one.dedup_entries == base.dedup_entries,
            "seed {seed}: distinct states diverged\n{one:?}\nvs\n{base:?}"
        );
    }
    one
}

#[test]
fn inherited_keys_reproduce_the_full_rekey_baseline() {
    let (mut violating, mut clean) = (0, 0);
    for seed in 0..40 {
        match check_against_baseline(seed).violation {
            Some(_) => violating += 1,
            None => clean += 1,
        }
    }
    // Only meaningful if both outcomes occur.
    assert!(violating >= 5, "sweep too tame: {violating}");
    assert!(clean >= 5, "sweep too strict: {clean}");
}

/// One seed of the reduced ladder: symmetry keeps the baseline's
/// verdict at 1 and 2 threads. Returns the single-thread report.
fn check_reduced(seed: u64, base: &ExploreReport) -> ExploreReport {
    let cfg = family_cfg().with_symmetry(true);
    let one = run(seed, cfg.clone().with_threads(1));
    let two = run(seed, cfg.with_threads(2));
    assert_eq!(
        one.violation.is_some(),
        base.violation.is_some(),
        "seed {seed}: reduction changed the verdict\n{one:?}\nvs\n{base:?}"
    );
    assert_eq!(
        normalized(&one),
        normalized(&two),
        "seed {seed}: reduced report depends on the thread count"
    );
    one
}

#[test]
fn inherited_keys_keep_the_reduced_verdict() {
    let mut sym_hits = 0;
    for seed in 0..40 {
        let base = baseline(seed);
        sym_hits += check_reduced(seed, &base).symmetry_canonical_hits;
    }
    assert!(sym_hits > 0, "symmetry never canonicalized anything");
}
