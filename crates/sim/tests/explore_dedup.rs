//! Seeded property sweep: neither state deduplication, the dedup key
//! representation, nor the worker count may change the explorer's verdict.
//!
//! Three equivalence ladders over a 40-seed family of randomized
//! protocols:
//!
//! 1. **Key representation is invisible** — at batch 1 on one thread the
//!    fingerprinted explorer and the structural `explore_baseline` (which
//!    stores its states and confirms every match with `==`) traverse the
//!    identical state graph, so their reports must agree on *every*
//!    semantic field (strict [`ExploreReport::same_semantics`]). This is
//!    the collision check for the 128-bit fingerprint.
//! 2. **Dedup is invisible to the verdict** — fingerprint-dedup and
//!    dedup-off agree on whether a violation exists and on the
//!    states-capped flag. (With batched traversal the
//!    *specific* counterexample may differ between dedup on/off: dedup
//!    changes which states share the first violating batch, and the
//!    report picks the lexicographically-least violation of that batch.
//!    At `batch == 1` — classic DFS — even the message is identical, and
//!    a dedicated ladder asserts exactly that.)
//! 3. **Thread count is invisible, period** — reports at 1, 2, and 4
//!    workers are byte-identical modulo the informational `threads_used`.
//! 4. **Symmetry is invisible to the verdict** — symmetry
//!    canonicalization agrees with the unreduced explorer on whether a
//!    violation exists, at every worker count, and reduced
//!    counterexamples still replay. On a three-process `S_n`-symmetric
//!    relay mesh it must also visit strictly fewer states.
//!
//! This is also the regression net for the two historical dedup bugs
//! (pruning shallower revisits with remaining budget; merging states that
//! differed only in output history — both would break ladder 2).

use wfd_sim::explore_baseline::explore_baseline;
use wfd_sim::{
    explore, Ctx, ExploreConfig, ExploreReport, FailurePattern, NoDetector, OracleSpec, ProcessId,
    Protocol, RandomFair, Replay, Repro, Sim, SimConfig, Symmetry, Time,
};

/// A seed-parameterized toy protocol: on start, broadcast a burst of
/// tagged messages; on receipt, mix the tag into an accumulator, output
/// it, and (budget permitting) re-send a decremented tag. The reachable
/// tree's shape and outputs vary with every parameter.
#[derive(Clone, Debug, PartialEq)]
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

    // Mixer is fully id-agnostic: broadcast-to-others topology, id-free
    // payloads, no pids in local state, messages or outputs (so the
    // permute hooks stay the default no-ops).
    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Fingerprint,
    Baseline,
    DedupOff,
}

fn family_pattern(seed: u64) -> FailurePattern {
    if seed.is_multiple_of(4) {
        FailurePattern::failure_free(2).with_crash(ProcessId(1), (seed % 5) as Time)
    } else {
        FailurePattern::failure_free(2)
    }
}

fn family_cfg(seed: u64) -> ExploreConfig {
    ExploreConfig::new(4 + (seed as usize % 4)).with_max_states(500_000)
}

fn run_family(seed: u64, mode: Mode, cfg: ExploreConfig) -> ExploreReport {
    let pattern = family_pattern(seed);
    // A seed-dependent safety bar some families break and others respect.
    let bar = 20 + (seed % 30);
    let make = move || (0..2).map(|_| Mixer::family(seed)).collect::<Vec<_>>();
    let safety = move |_procs: &[Mixer], outputs: &[(ProcessId, u64)]| match outputs
        .iter()
        .find(|(_, acc)| *acc > bar)
    {
        Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
        None => Ok(()),
    };
    match mode {
        Mode::Baseline => {
            explore_baseline(cfg, make, vec![None, None], &pattern, NoDetector, safety)
        }
        Mode::Fingerprint => explore(cfg, make, vec![None, None], &pattern, NoDetector, safety),
        Mode::DedupOff => explore(
            cfg.with_dedup(false),
            make,
            vec![None, None],
            &pattern,
            NoDetector,
            safety,
        ),
    }
}

#[test]
fn key_representation_and_dedup_never_change_the_verdict() {
    let mut violating_families = 0;
    let mut clean_families = 0;
    for seed in 0..40 {
        let fp = run_family(seed, Mode::Fingerprint, family_cfg(seed));
        let dfs = run_family(
            seed,
            Mode::Fingerprint,
            family_cfg(seed).with_batch(1).with_threads(1),
        );
        let exact = run_family(seed, Mode::Baseline, family_cfg(seed));
        let brute = run_family(seed, Mode::DedupOff, family_cfg(seed));
        assert!(
            !fp.states_capped && !brute.states_capped,
            "seed {seed}: state cap hit"
        );

        // Ladder 1 (strict): the fingerprint must be a drop-in for exact
        // structural identity — identical traversal, counts, flags,
        // counterexample.
        assert!(
            dfs.same_semantics(&exact),
            "seed {seed}: fingerprint diverged from structural identity\n{dfs:?}\nvs\n{exact:?}"
        );

        // Ladder 2: dedup on/off agree on the verdict and flags.
        assert_eq!(
            fp.violation.is_some(),
            brute.violation.is_some(),
            "seed {seed}: dedup changed the verdict\n{fp:?}\nvs\n{brute:?}"
        );
        // Dedup may *clear* the depth-bounded flag (a deep revisit that
        // would have hit the bound is pruned because its subtree was
        // already covered in full from a shallower visit), but it can
        // never introduce a bound-hit brute force does not see.
        assert!(
            !fp.depth_bounded || brute.depth_bounded,
            "seed {seed}: dedup invented a depth-bound hit"
        );

        match fp.violation {
            Some(_) => violating_families += 1,
            None => clean_families += 1,
        }
    }
    // The sweep is only meaningful if it actually exercises both outcomes.
    assert!(
        violating_families >= 5,
        "sweep too tame: {violating_families}"
    );
    assert!(clean_families >= 5, "sweep too strict: {clean_families}");
}

/// At `batch == 1` the traversal is the classic depth-first search, and
/// the PR 2 guarantee holds verbatim: sound dedup only prunes subtrees
/// already explored violation-free with at least as much remaining depth
/// budget, so even the *first* violation found is identical, message and
/// all.
#[test]
fn at_batch_one_dedup_preserves_the_exact_counterexample() {
    for seed in 0..40 {
        let dfs = |mode| run_family(seed, mode, family_cfg(seed).with_batch(1).with_threads(1));
        let with_dedup = dfs(Mode::Fingerprint);
        let without = dfs(Mode::DedupOff);
        assert_eq!(
            with_dedup.violation.map(|v| v.message),
            without.violation.map(|v| v.message),
            "seed {seed}: dedup changed the DFS counterexample"
        );
    }
}

/// Reports at 1, 2 and 4 worker threads must be byte-identical modulo the
/// informational `threads_used` field — across the whole seeded family,
/// violating and clean alike.
#[test]
fn thread_count_never_changes_the_report() {
    for seed in 0..40 {
        let one = run_family(seed, Mode::Fingerprint, family_cfg(seed).with_threads(1));
        for threads in [2, 4] {
            let many = run_family(
                seed,
                Mode::Fingerprint,
                family_cfg(seed).with_threads(threads),
            );
            assert_eq!(many.threads_used, threads);
            assert!(
                one.same_semantics(&many),
                "seed {seed}, {threads} threads: report diverged\n{one:?}\nvs\n{many:?}"
            );
            let normalize = |r: &ExploreReport| {
                let mut r = r.clone();
                r.threads_used = 0;
                format!("{r:?}")
            };
            assert_eq!(normalize(&one), normalize(&many), "seed {seed}");
        }
    }
}

/// Ladder 4 (symmetry): symmetry canonicalization must agree with the
/// unreduced explorer on the *verdict* for every seed — safe families
/// stay safe, violating families stay violating — and the reduced run
/// must itself be byte-identical across 1, 2 and 4 worker threads.
/// (Counts legitimately differ between reduced and unreduced runs: that
/// is the point of the reduction.)
#[test]
fn reductions_never_change_the_verdict() {
    let mut violating_families = 0;
    let mut clean_families = 0;
    let mut symmetry_hit_somewhere = false;
    for seed in 0..40 {
        let base = run_family(seed, Mode::Fingerprint, family_cfg(seed));
        match base.violation {
            Some(_) => violating_families += 1,
            None => clean_families += 1,
        }
        let one = run_family(
            seed,
            Mode::Fingerprint,
            family_cfg(seed).with_threads(1).with_symmetry(true),
        );
        assert_eq!(
            one.violation.is_some(),
            base.violation.is_some(),
            "seed {seed}: symmetry changed the verdict\n{one:?}\nvs\n{base:?}"
        );
        assert!(one.reduction_enabled);
        symmetry_hit_somewhere |= one.symmetry_canonical_hits > 0;
        for threads in [2, 4] {
            let many = run_family(
                seed,
                Mode::Fingerprint,
                family_cfg(seed).with_threads(threads).with_symmetry(true),
            );
            assert!(
                one.same_semantics(&many),
                "seed {seed}, {threads} threads: reduced report diverged\n{one:?}\nvs\n{many:?}"
            );
            let normalize = |r: &ExploreReport| {
                let mut r = r.clone();
                r.threads_used = 0;
                format!("{r:?}")
            };
            assert_eq!(normalize(&one), normalize(&many), "seed {seed}");
        }
    }
    // The sweep is only meaningful if it exercises both outcomes and the
    // reduction.
    assert!(
        violating_families >= 5,
        "sweep too tame: {violating_families}"
    );
    assert!(clean_families >= 5, "sweep too strict: {clean_families}");
    assert!(
        symmetry_hit_somewhere,
        "symmetry never canonicalized anything"
    );
}

/// The `S_n`-symmetric token-relay mesh: every process pings every other
/// on start; each receipt mixes the tag into `acc` and, while its reply
/// budget lasts, bounces a re-tagged token back to the sender; λ steps
/// advance a local phase. Identical initial states, reply-to-sender
/// routing and id-free payloads admit the full symmetry group, so the
/// reduction has real work to do.
#[derive(Clone, Debug, PartialEq)]
struct Relay {
    acc: u8,
    phase: u8,
    replies: u8,
}

const REPLY_BUDGET: u8 = 2;

impl Protocol for Relay {
    type Msg = u8;
    type Output = u8;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        ctx.broadcast_others(1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, tag: u8) {
        self.acc = (self.acc.wrapping_mul(5).wrapping_add(tag)) % 64;
        if self.replies < REPLY_BUDGET {
            self.replies += 1;
            ctx.send(from, (tag + 1) % 8);
        }
    }

    fn on_tick(&mut self, _ctx: &mut Ctx<Self>) {
        self.phase = (self.phase + 1) % 3;
    }

    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }
}

/// On the three-process relay mesh, symmetry keeps the verdict and the
/// bound flags, and visits strictly fewer states than the unreduced run.
#[test]
fn reductions_strictly_shrink_the_symmetric_relay_mesh() {
    let run = |symmetry: bool| {
        let relay = Relay {
            acc: 1,
            phase: 0,
            replies: 0,
        };
        explore(
            ExploreConfig::new(8).with_symmetry(symmetry),
            || vec![relay.clone(); 3],
            vec![None; 3],
            &FailurePattern::failure_free(3),
            NoDetector,
            |_, _| Ok(()),
        )
    };
    let base = run(false);
    assert!(
        base.violation.is_none() && !base.states_capped,
        "the mesh must be clean and uncapped: {base:?}"
    );
    let reduced = run(true);
    assert!(
        reduced.reduction_enabled
            && reduced.violation == base.violation
            && reduced.depth_bounded == base.depth_bounded
            && reduced.states_capped == base.states_capped,
        "symmetry changed the verdict\n{reduced:?}\nvs\n{base:?}"
    );
    assert!(
        reduced.states_visited < base.states_visited,
        "symmetry must visit strictly fewer states: {} vs {}",
        reduced.states_visited,
        base.states_visited
    );
}

/// The relay mesh with a `footprint` that panics: the deprecated DPOR
/// names are inert. `with_dpor(true)` changes no report, at 1 and 4
/// threads, and neither the explorer nor a debug-build engine run ever
/// calls `Protocol::footprint`.
#[test]
#[allow(deprecated)]
fn deprecated_dpor_shims_are_inert() {
    #[derive(Clone, Debug, PartialEq)]
    struct Tripwire {
        acc: u8,
        replies: u8,
    }

    impl Protocol for Tripwire {
        type Msg = u8;
        type Output = u8;
        type Inv = ();
        type Fd = ();

        fn on_start(&mut self, ctx: &mut Ctx<Self>) {
            ctx.broadcast_others(1);
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, tag: u8) {
            self.acc = (self.acc.wrapping_mul(5).wrapping_add(tag)) % 64;
            ctx.output(self.acc);
            if self.replies < REPLY_BUDGET {
                self.replies += 1;
                ctx.send(from, (tag + 1) % 8);
            }
        }

        fn footprint(
            &self,
            _me: ProcessId,
            _n: usize,
            _step: wfd_sim::StepKind<'_, Self>,
        ) -> wfd_sim::Footprint {
            panic!("Protocol::footprint is inert and must never be called")
        }

        fn symmetry(_n: usize) -> Symmetry {
            Symmetry::Full
        }
    }

    let fleet = || vec![Tripwire { acc: 1, replies: 0 }; 3];
    let report = |dpor: Option<bool>, threads: usize| {
        let cfg = ExploreConfig::new(7)
            .with_threads(threads)
            .with_symmetry(true);
        let cfg = match dpor {
            Some(dpor) => cfg.with_dpor(dpor),
            None => cfg,
        };
        let mut report = explore(
            cfg,
            fleet,
            vec![None; 3],
            &FailurePattern::failure_free(3),
            NoDetector,
            |_, _| Ok(()),
        );
        report.threads_used = 0;
        format!("{report:?}")
    };
    let plain = report(None, 1);
    for threads in [1, 4] {
        assert_eq!(report(Some(true), threads), plain, "{threads} threads");
        assert_eq!(report(None, threads), plain, "{threads} threads");
    }

    let mut sim = Sim::new(
        SimConfig::new(3).with_horizon(200),
        fleet(),
        FailurePattern::failure_free(3),
        NoDetector,
        RandomFair::new(1),
    );
    sim.run();
    let stats = sim.stats();
    assert!(
        stats.messages_delivered > 0 && stats.outputs > 0,
        "{stats:?}"
    );
}

/// Counterexamples found under full reduction must replay outside the
/// reduced search: decisions and violations stay in *original* process
/// ids (only the dedup key is canonicalized), so [`Replay::run`]
/// reproduces the exact message.
#[test]
fn reduced_violations_replay() {
    let mut replayed_some = false;
    for seed in 0..40 {
        let report = run_family(
            seed,
            Mode::Fingerprint,
            family_cfg(seed).with_symmetry(true),
        );
        let Some(violation) = report.violation else {
            continue;
        };
        let pattern = family_pattern(seed);
        let bar = 20 + (seed % 30);
        let checker = |_procs: &[Mixer], outputs: &[(ProcessId, u64)]| match outputs
            .iter()
            .find(|(_, acc)| *acc > bar)
        {
            Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
            None => Ok(()),
        };
        let replayed = Replay::explore(violation.decisions.clone()).run(
            move || (0..2).map(|_| Mixer::family(seed)).collect::<Vec<_>>(),
            vec![None, None],
            &pattern,
            NoDetector,
            checker,
        );
        assert_eq!(
            replayed,
            Err(violation.message.clone()),
            "seed {seed}: reduced counterexample did not replay"
        );
        replayed_some = true;
    }
    assert!(replayed_some, "no violating family to replay");
}

/// A counterexample found under full reduction survives the portable
/// repro artifact: package → JSON → parse → replay the recovered
/// decision list to the identical violation message.
#[test]
fn reduced_violations_round_trip_through_repro() {
    let mut round_tripped = false;
    for seed in 0..40 {
        let report = run_family(
            seed,
            Mode::Fingerprint,
            family_cfg(seed).with_symmetry(true),
        );
        let Some(violation) = report.violation else {
            continue;
        };
        let pattern = family_pattern(seed);
        let repro = Repro::from_explore(
            "mixer",
            "accumulator-bound",
            &violation,
            family_cfg(seed).max_depth,
            &pattern,
            OracleSpec::new("none"),
        );
        let parsed = Repro::from_json(&repro.to_json()).expect("repro JSON parses back");
        assert_eq!(parsed.pattern(), pattern, "seed {seed}: pattern survived");
        let bar = 20 + (seed % 30);
        let replayed = Replay::from_repro(&parsed)
            .expect("explore-sourced repro builds a machine replay")
            .run(
                move || (0..2).map(|_| Mixer::family(seed)).collect::<Vec<_>>(),
                vec![None, None],
                &pattern,
                NoDetector,
                |_procs: &[Mixer], outputs: &[(ProcessId, u64)]| match outputs
                    .iter()
                    .find(|(_, acc)| *acc > bar)
                {
                    Some((p, acc)) => Err(format!("{p} accumulated {acc} > {bar}")),
                    None => Ok(()),
                },
            );
        assert_eq!(
            replayed,
            Err(violation.message),
            "seed {seed}: repro round-trip lost the counterexample"
        );
        round_tripped = true;
        break; // one violating family suffices for the round-trip
    }
    assert!(round_tripped, "no violating family to round-trip");
}

/// Dedup on a clean family may only *reduce* the states expanded, never
/// miss any verdict-relevant ones — sanity-check the count relation too.
#[test]
fn dedup_only_shrinks_the_search() {
    for seed in [1, 2, 3, 5, 6] {
        let count = |mode| {
            run_family(seed, mode, ExploreConfig::new(6).with_max_states(500_000)).states_visited
        };
        assert!(
            count(Mode::Fingerprint) <= count(Mode::DedupOff),
            "seed {seed}"
        );
    }
}
