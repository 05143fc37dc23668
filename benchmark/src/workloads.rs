//! The five workloads. Each is a list of cases built from the seed at
//! set-up time; a rep runs every case once and rebuilds each case's
//! processes, detectors and predicates, because users pay for that on
//! every check.
//!
//! Every case checks its verdict and returns a signature: a rendering of
//! what it found (report, model sizes, checker statistics) that must be
//! identical on every rep and between traced and untraced runs.

use crate::probe::{Probe, SimSpec};
use std::fmt::Debug;
use wfd_consensus::{check_consensus, ConsensusOutput, OmegaSigmaConsensus};
use wfd_detectors::check::{check_fs, check_psi, check_sigma, PsiPhase};
use wfd_detectors::history::history_from_outputs;
use wfd_detectors::impls::{HeartbeatOmega, TimeoutFs};
use wfd_detectors::oracles::{FsOracle, OmegaOracle, PairOracle, PsiMode, PsiOracle, SigmaOracle};
use wfd_detectors::{PsiValue, Signal};
use wfd_extraction::{OmegaSigmaQcFamily, PsiExtraction, PsiQcFamily};
use wfd_nbac::fs_from_nbac::FsFromNbac;
use wfd_nbac::{check_nbac, Decision, NbacFromQc, QcFromNbac, Vote};
use wfd_quittable::{check_qc, PsiQc, QcDecision};
use wfd_registers::abd::{op_history_from_trace, AbdOp, AbdOutput, AbdResp};
use wfd_registers::sigma_extraction::{initial_e_value, EValue, SigmaExtraction};
use wfd_registers::spec::Value;
use wfd_registers::{
    check_linearizable, AbdRegister, OpHistory, OpRecord, QuorumRule, RegOp, RegResp,
};
use wfd_sim::liveness::fixtures::PingPong;
use wfd_sim::{
    shrink, Ctx, ExploreConfig, ExploreReport, FailurePattern, Footprint, LivenessConfig,
    LivenessReport, LivenessVerdict, Ltl, NoDetector, OracleSpec, ProcessId, ProcessSet, Protocol,
    Replay, Repro, SimConfig, SimRng, StepKind, Symmetry, Time, Trace,
};

/// The workloads, in run order. Why each was chosen is recorded in
/// `BENCHMARK.json` and the README.
pub const WORKLOADS: &[&str] = &[
    "relay_mesh",
    "relay_mesh_reduced",
    "paper_safety",
    "paper_liveness",
    "paper_runs",
];

/// How big each case is: `Full` for measurements, `Smoke` for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// What one case found.
pub struct Outcome {
    /// `Err` on a wrong verdict, a truncated model or a failed
    /// cross-check.
    pub verdict: Result<(), String>,
    pub signature: String,
}

type CaseFn = Box<dyn Fn(&mut Probe) -> Outcome>;

pub struct Case {
    pub name: &'static str,
    pub run: CaseFn,
}

fn case(name: &'static str, run: impl Fn(&mut Probe) -> Outcome + 'static) -> Case {
    Case {
        name,
        run: Box::new(run),
    }
}

/// Build a workload's cases from the seed.
pub fn setup(workload: &str, seed: u64, size: Size) -> Result<Vec<Case>, String> {
    match workload {
        "relay_mesh" => Ok(relay_mesh(seed, size, false)),
        "relay_mesh_reduced" => Ok(relay_mesh(seed, size, true)),
        "paper_safety" => Ok(paper_safety(seed, size)),
        "paper_liveness" => Ok(paper_liveness(seed, size)),
        "paper_runs" => Ok(paper_runs(seed, size)),
        other => Err(format!(
            "unknown workload '{other}' (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// `count` (at most 8) distinct three-digit values in increasing order,
/// so every seed yields the same relative order and the same rendering
/// width — and with them the same state space and key bytes.
fn increasing(rng: &mut SimRng, count: usize) -> Vec<u64> {
    assert!(count <= 8, "values stay below 1000");
    let mut v = 100 + rng.gen_range(100);
    (0..count)
        .map(|_| {
            v += 1 + rng.gen_range(100);
            v
        })
        .collect()
}

/// Caps far above every case's model, so a capped report means the
/// model grew, not that the cap was tuned to it.
const MAX_STATES: usize = 5_000_000;
const MAX_LIVE_STATES: usize = 1_000_000;

/// A complete, violation-free exploration.
fn explored(r: ExploreReport) -> Outcome {
    let verdict = if let Some(v) = &r.violation {
        Err(format!("unexpected violation: {}", v.message))
    } else if r.states_capped {
        Err("state cap hit: not every interleaving was covered".to_string())
    } else {
        Ok(())
    };
    Outcome {
        verdict,
        signature: format!("{r:?}"),
    }
}

fn liveness_signature(r: &LivenessReport) -> String {
    format!(
        "{} states={} edges={} product={} buchi={} truncated={} lasso={:?}",
        r.verdict.as_str(),
        r.states,
        r.edges,
        r.product_states,
        r.buchi_states,
        r.truncated,
        r.lasso
    )
}

/// A liveness verdict that must hold over every fair run.
fn holds(result: Result<LivenessReport, String>) -> Outcome {
    match result {
        Err(e) => Outcome {
            verdict: Err(e.clone()),
            signature: e,
        },
        Ok(r) => Outcome {
            verdict: if r.verdict == LivenessVerdict::Holds {
                Ok(())
            } else {
                Err(format!(
                    "expected holds, got {} ({})",
                    r.verdict.as_str(),
                    r.reason.as_deref().unwrap_or("no reason")
                ))
            },
            signature: liveness_signature(&r),
        },
    }
}

// ---------------------------------------------------------------------------
// relay_mesh, relay_mesh_reduced
// ---------------------------------------------------------------------------

/// The A4 token-relay mesh: every process pings every other on start;
/// each receipt mixes the tag into `acc` and, while reply budget lasts,
/// bounces a re-tagged token back to the sender. `S_n`-symmetric with
/// exact footprints, so both reductions apply.
#[derive(Clone, Debug, PartialEq)]
struct Relay {
    acc: u8,
    phase: u8,
    replies: u8,
}

const REPLY_BUDGET: u8 = 2;
const RELAY_N: usize = 3;

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

    fn footprint(&self, me: ProcessId, n: usize, step: StepKind<'_, Self>) -> Footprint {
        match step {
            StepKind::Start { .. } => Footprint::local().sends_to_others(n, me),
            StepKind::Deliver { from, .. } if self.replies < REPLY_BUDGET => {
                Footprint::local().sends_to(from)
            }
            _ => Footprint::local(),
        }
    }

    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }
}

fn relay_mesh(seed: u64, size: Size, reduced: bool) -> Vec<Case> {
    // Two digits, so every seed renders keys of the same width.
    let acc = 10 + SimRng::new(seed).gen_range(54) as u8;
    let depth = match reduced {
        false => size.pick(13, 7),
        true => size.pick(16, 8),
    };
    let pattern = FailurePattern::failure_free(RELAY_N);
    vec![case("relay_mesh", move |probe| {
        let cfg = ExploreConfig::new(depth)
            .with_max_states(MAX_STATES)
            .with_dpor(reduced)
            .with_symmetry(reduced);
        let fleet = || {
            (0..RELAY_N)
                .map(|_| Relay {
                    acc,
                    phase: 0,
                    replies: 0,
                })
                .collect()
        };
        explored(probe.explore(
            cfg,
            fleet,
            vec![None; RELAY_N],
            &pattern,
            NoDetector,
            |_, _| Ok(()),
        ))
    })]
}

// ---------------------------------------------------------------------------
// paper_safety
// ---------------------------------------------------------------------------

/// The register history the outputs so far describe, with emission
/// indices as times.
fn abd_history(outputs: &[(ProcessId, AbdOutput<Value>)]) -> OpHistory {
    let mut h = OpHistory::new(0);
    for (i, (_, out)) in outputs.iter().enumerate() {
        match out {
            AbdOutput::Invoked { id, op } => h.ops.push(OpRecord {
                id: *id,
                op: match op {
                    AbdOp::Read => RegOp::Read,
                    AbdOp::Write(v) => RegOp::Write(*v),
                },
                invoked_at: i as u64,
                response: None,
                participants: ProcessSet::new(),
            }),
            AbdOutput::Completed { id, resp, .. } => {
                if let Some(rec) = h.ops.iter_mut().find(|r| r.id == *id) {
                    rec.response = Some((
                        i as u64,
                        match resp {
                            AbdResp::ReadOk(v) => RegResp::ReadOk(*v),
                            AbdResp::WriteOk => RegResp::WriteOk,
                        },
                    ));
                }
            }
        }
    }
    h
}

fn consensus_fleet(n: usize) -> Vec<OmegaSigmaConsensus<u64>> {
    (0..n).map(|_| OmegaSigmaConsensus::new()).collect()
}

fn omega_sigma(
    pattern: &FailurePattern,
    stabilize: Time,
    seed: u64,
) -> PairOracle<OmegaOracle, SigmaOracle> {
    PairOracle::new(
        OmegaOracle::new(pattern, stabilize, seed),
        SigmaOracle::new(pattern, stabilize, seed),
    )
}

fn paper_safety(seed: u64, size: Size) -> Vec<Case> {
    let mut rng = SimRng::new(seed);
    let written = 100 + rng.gen_range(900);
    let proposals = increasing(&mut rng, 4);
    let qc_proposals = increasing(&mut rng, 3);
    let planted = increasing(&mut rng, 2);

    let abd_depth = size.pick(9, 6);
    let abd_pattern = FailurePattern::failure_free(3);
    let abd = case("abd_linearizable", move |probe| {
        let (n, pattern) = (3, &abd_pattern);
        explored(probe.explore(
            ExploreConfig::new(abd_depth).with_max_states(MAX_STATES),
            || {
                (0..n)
                    .map(|_| AbdRegister::new(QuorumRule::Detector, 0u64))
                    .collect()
            },
            vec![
                Some(AbdOp::Write(written)),
                Some(AbdOp::Read),
                Some(AbdOp::Read),
            ],
            pattern,
            SigmaOracle::new(pattern, 0, seed),
            |_, outputs| {
                check_linearizable(&abd_history(outputs))
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            },
        ))
    });

    let consensus_depth = size.pick(28, 12);
    let consensus_pattern = FailurePattern::failure_free(proposals.len());
    let consensus = case("consensus_agreement", move |probe| {
        let (n, pattern) = (proposals.len(), &consensus_pattern);
        explored(probe.explore(
            ExploreConfig::new(consensus_depth).with_max_states(MAX_STATES),
            || consensus_fleet(n),
            proposals.iter().copied().map(Some).collect(),
            pattern,
            omega_sigma(pattern, 0, seed),
            |_, outputs| {
                let decided: Vec<u64> = outputs
                    .iter()
                    .map(|(_, ConsensusOutput::Decided(v))| *v)
                    .collect();
                if decided.windows(2).any(|w| w[0] != w[1]) {
                    return Err(format!("agreement violated: {decided:?}"));
                }
                if decided.iter().any(|v| !proposals.contains(v)) {
                    return Err(format!("validity violated: {decided:?}"));
                }
                Ok(())
            },
        ))
    });

    let qc_depth = size.pick(50, 14);
    let qc_pattern = FailurePattern::failure_free(qc_proposals.len());
    let qc = case("psi_qc_never_quits", move |probe| {
        let (n, pattern) = (qc_proposals.len(), &qc_pattern);
        explored(probe.explore(
            ExploreConfig::new(qc_depth).with_max_states(MAX_STATES),
            || (0..n).map(|_| PsiQc::<u64>::new()).collect(),
            qc_proposals.iter().copied().map(Some).collect(),
            pattern,
            PsiOracle::new(pattern, PsiMode::OmegaSigma, 0, 0, seed),
            |_, outputs| {
                let mut seen: Option<&QcDecision<u64>> = None;
                for (_, ConsensusOutput::Decided(d)) in outputs {
                    if *d == QcDecision::Quit {
                        return Err("quit without failure".into());
                    }
                    if seen.is_some_and(|prev| prev != d) {
                        return Err(format!("disagreement: {seen:?} vs {d:?}"));
                    }
                    seen = Some(d);
                }
                Ok(())
            },
        ))
    });

    let planted_depth = size.pick(14, 10);
    let planted_pattern = FailurePattern::failure_free(planted.len());
    let planted = case("planted_no_decision", move |probe| {
        planted_violation(probe, &planted, &planted_pattern, planted_depth, seed)
    });
    vec![abd, consensus, qc, planted]
}

/// "Nobody ever decides" is false for live consensus, so the explorer
/// must find a counterexample, which must survive the `Repro` JSON
/// round-trip and replay to the same message.
fn planted_violation(
    probe: &mut Probe,
    proposals: &[u64],
    pattern: &FailurePattern,
    depth: usize,
    seed: u64,
) -> Outcome {
    let n = proposals.len();
    let invocations = || proposals.iter().copied().map(Some).collect::<Vec<_>>();
    let nobody_decides = |_: &[OmegaSigmaConsensus<u64>],
                          outputs: &[(ProcessId, ConsensusOutput<u64>)]|
     -> Result<(), String> {
        match outputs.first() {
            Some((p, ConsensusOutput::Decided(v))) => Err(format!("{p} decided {v}")),
            None => Ok(()),
        }
    };
    let report = probe.explore(
        ExploreConfig::new(depth).with_max_states(MAX_STATES),
        || consensus_fleet(n),
        invocations(),
        pattern,
        omega_sigma(pattern, 0, seed),
        nobody_decides,
    );
    let signature = format!("{report:?}");
    let fail = |msg: String| Outcome {
        verdict: Err(msg),
        signature: signature.clone(),
    };
    let Some(violation) = &report.violation else {
        return fail("the planted violation was not found".to_string());
    };
    let repro = Repro::from_explore(
        "consensus-omega-sigma",
        "planted:no-decision",
        violation,
        depth,
        pattern,
        OracleSpec::new("omega+sigma")
            .with("stabilize_at", 0)
            .with("seed", seed),
    );
    let parsed = probe.call("json", || Repro::from_json(&repro.to_json()));
    if parsed.as_ref() != Ok(&repro) {
        return fail("the counterexample failed its JSON round-trip".to_string());
    }
    let replayed = probe.call("replay", || {
        Replay::from_repro(&repro).and_then(|replay| {
            match replay.run(
                || consensus_fleet(n),
                invocations(),
                &repro.pattern(),
                omega_sigma(pattern, 0, seed),
                nobody_decides,
            ) {
                Err(message) => Ok(message),
                Ok(()) => Err("the replay completed without the violation".to_string()),
            }
        })
    });
    match replayed {
        Ok(message) if message == violation.message => Outcome {
            verdict: Ok(()),
            signature,
        },
        Ok(message) => fail(format!(
            "replay reproduced '{message}', not '{}'",
            violation.message
        )),
        Err(e) => fail(e),
    }
}

// ---------------------------------------------------------------------------
// paper_liveness
// ---------------------------------------------------------------------------

/// The fairness bounds `G = D` of every liveness case.
const FAIR: Time = 3;

fn live_cfg() -> LivenessConfig {
    LivenessConfig::new(FAIR, FAIR, 0).with_max_states(MAX_LIVE_STATES)
}

fn paper_liveness(seed: u64, size: Size) -> Vec<Case> {
    let mut rng = SimRng::new(seed);
    let proposals = increasing(&mut rng, size.pick(5, 3));
    let ff = FailurePattern::failure_free;
    let first_crashed = |n: usize| ff(n).with_crash(ProcessId(0), 0);
    let last_crashed = |n: usize| ff(n).with_crash(ProcessId(n - 1), 0);
    let majority_crashed =
        |n: usize| (1..=n / 2 + 1).fold(ff(n), |f, p| f.with_crash(ProcessId(p), 0));
    // Heartbeat and FS timeouts above the worst-case staleness between
    // two beats under G and D, so failure-free models are suspicion-free.
    let timeout = 4 * FAIR + 2;
    let stabilization = Ltl::prop("leader-agreed").always().eventually();

    let omega = |name, pattern: FailurePattern, goal: Ltl| {
        case(name, move |probe| {
            let n = pattern.n();
            holds(probe.liveness(
                live_cfg(),
                || (0..n).map(|_| HeartbeatOmega::new(n, timeout)).collect(),
                vec![None; n],
                &pattern,
                NoDetector,
                &goal,
            ))
        })
    };
    let fs = |name, pattern: FailurePattern, goal: Ltl, symmetry| {
        case(name, move |probe| {
            let n = pattern.n();
            holds(probe.liveness(
                live_cfg().with_symmetry(symmetry),
                || (0..n).map(|_| TimeoutFs::new(n, timeout)).collect(),
                vec![None; n],
                &pattern,
                NoDetector,
                &goal,
            ))
        })
    };
    let termination = {
        let pattern = majority_crashed(proposals.len());
        let goal = Ltl::prop("all-decided").eventually();
        case("consensus_termination_majority_crash", move |probe| {
            let n = pattern.n();
            holds(probe.liveness(
                live_cfg(),
                || consensus_fleet(n),
                proposals.iter().copied().map(Some).collect(),
                &pattern,
                omega_sigma(&pattern, 0, seed),
                &goal,
            ))
        })
    };
    let livelock_n = size.pick(4, 3);
    let livelock = {
        let pattern = ff(livelock_n);
        let goal = Ltl::prop("decided").eventually();
        case("planted_livelock", move |probe| {
            planted_livelock(probe, &pattern, &goal)
        })
    };
    let never_decides = {
        let pattern = ff(livelock_n);
        let goal = Ltl::prop("decided").not().always();
        case("livelock_never_decides", move |probe| {
            let n = pattern.n();
            holds(probe.liveness(
                live_cfg(),
                || PingPong::fleet(n),
                vec![None; n],
                &pattern,
                NoDetector,
                &goal,
            ))
        })
    };
    vec![
        omega(
            "omega_stabilize_ff",
            ff(size.pick(3, 2)),
            stabilization.clone(),
        ),
        omega(
            "omega_stabilize_leader_crashed",
            first_crashed(size.pick(4, 2)),
            stabilization,
        ),
        fs(
            "fs_accuracy_symmetric",
            ff(size.pick(4, 2)),
            Ltl::prop("some-correct-red").not().always(),
            true,
        ),
        fs(
            "fs_completeness_crash",
            last_crashed(size.pick(3, 2)),
            Ltl::prop("all-correct-red").eventually(),
            false,
        ),
        termination,
        livelock,
        never_decides,
    ]
}

/// The planted livelock must violate `F "decided"`; its lasso must survive
/// the `Repro` JSON round-trip, replay as a fair run, and never grow under
/// the shrinker.
fn planted_livelock(probe: &mut Probe, pattern: &FailurePattern, goal: &Ltl) -> Outcome {
    let n = pattern.n();
    let report = match probe.liveness(
        live_cfg(),
        || PingPong::fleet(n),
        vec![None; n],
        pattern,
        NoDetector,
        goal,
    ) {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                verdict: Err(e.clone()),
                signature: e,
            }
        }
    };
    let signature = liveness_signature(&report);
    let fail = |msg: &str| Outcome {
        verdict: Err(msg.to_string()),
        signature: signature.clone(),
    };
    let Some(lasso) = report.lasso.clone() else {
        return fail("expected a violating lasso");
    };
    let repro = Repro::from_lasso(
        "fixtures::PingPong",
        &goal.to_string(),
        "no process ever decides on this fair cycle",
        lasso.stem,
        lasso.cycle,
        0,
        FAIR,
        FAIR,
        pattern,
        OracleSpec::new("none"),
    );
    let parsed = probe.call("json", || Repro::from_json(&repro.to_json()));
    if parsed.as_ref() != Ok(&repro) {
        return fail("the lasso failed its JSON round-trip");
    }
    let replays = |r: &Repro| -> Result<(), String> {
        let replay = Replay::from_repro(r)?;
        replay.run_fair(
            &live_cfg(),
            || PingPong::fleet(n),
            vec![None; n],
            pattern,
            NoDetector,
        )
    };
    if let Err(e) = probe.call("replay", || replays(&repro)) {
        return fail(&format!("the lasso failed to replay: {e}"));
    }
    let shrunk = probe.call("shrink", || {
        shrink(&repro, |candidate| {
            replays(candidate)
                .ok()
                .map(|()| "still a fair non-deciding cycle".to_string())
        })
    });
    probe.note("artifact.shrink_candidates", shrunk.attempts as f64);
    if report.verdict != LivenessVerdict::Violated {
        return fail("expected violated");
    }
    if shrunk.repro.decisions.len() > repro.decisions.len() {
        return fail("the shrinker grew the lasso");
    }
    Outcome {
        verdict: Ok(()),
        signature: format!(
            "{signature} shrunk {} -> {}",
            repro.decisions.len(),
            shrunk.repro.decisions.len()
        ),
    }
}

// ---------------------------------------------------------------------------
// paper_runs
// ---------------------------------------------------------------------------

fn run_signature<M: Clone + Debug, O: Clone + Debug>(
    trace: &Trace<M, O>,
    stats: &impl Debug,
) -> String {
    format!(
        "events={} delivered={} {stats:?}",
        trace.len(),
        trace.messages_delivered()
    )
}

/// A checker result as a case outcome.
fn checked<S: Debug, E: std::fmt::Display>(
    signature: String,
    result: Result<S, E>,
    expect: impl FnOnce(&S) -> Result<(), String>,
) -> Outcome {
    Outcome {
        verdict: match &result {
            Ok(stats) => expect(stats),
            Err(e) => Err(format!("spec violated: {e}")),
        },
        signature,
    }
}

/// One engine run's inputs: failure pattern, scheduler and oracle seed,
/// and horizon.
struct RunInput {
    pattern: FailurePattern,
    seed: u64,
    horizon: u64,
}

impl RunInput {
    fn spec<I>(&self, invokes: Vec<(usize, Time, I)>) -> SimSpec<'_, I> {
        SimSpec {
            cfg: SimConfig::new(self.pattern.n()).with_horizon(self.horizon),
            pattern: &self.pattern,
            seed: self.seed,
            invokes,
        }
    }

    /// Oracle stabilization shortly after the last crash.
    fn stabilize(&self) -> Time {
        self.pattern.last_crash_time().unwrap_or(0) + 100
    }
}

fn paper_runs(seed: u64, size: Size) -> Vec<Case> {
    let n = 3;
    let mut rng = SimRng::new(seed);
    let first = 50 + rng.gen_range(150);
    let second = first + 50 + rng.gen_range(150);
    let majority_crash =
        FailurePattern::with_crashes(n, &[(ProcessId(0), first), (ProcessId(1), second)]);
    let late = 300 + rng.gen_range(400);
    let proposals = increasing(&mut rng, n);
    let horizon = size.pick(40_000, 4_000);
    let mut input = |pattern: FailurePattern| RunInput {
        pattern,
        seed: rng.next_u64(),
        horizon,
    };
    let ff = FailurePattern::failure_free(n);
    // Figure 3 runs keep fixed schedules: their cost swings between 0.6 s
    // and 2 s with the scheduler seed, which would swamp a code change in
    // a comparison across seeds. These two seeds cost about the median.
    let fig3 = |seed| RunInput {
        pattern: ff.clone(),
        seed,
        horizon,
    };
    let mut cases = Vec::new();

    let r = input(majority_crash.clone());
    cases.push(case("thm1_abd_majority_crash", move |probe| {
        let stab = r.stabilize();
        let spacing = (stab / 2).max(50);
        let invokes = (0..n)
            .flat_map(|p| {
                (0..4u64).flat_map(move |k| {
                    let t = k * spacing;
                    [
                        (p, t, AbdOp::Write((p as u64 + 1) * 1_000 + k)),
                        (p, t + spacing / 2, AbdOp::Read),
                    ]
                })
            })
            .collect();
        let trace = probe.sim(
            r.spec(invokes),
            |_| {
                (0..n)
                    .map(|_| AbdRegister::new(QuorumRule::Detector, 0u64))
                    .collect()
            },
            SigmaOracle::new(&r.pattern, stab, r.seed).with_jitter(stab / 2 + 1),
            |_| false,
        );
        let result = probe.check(|| {
            let h = op_history_from_trace(&trace, 0);
            check_linearizable(&h).map(|_| h.completed().count())
        });
        checked(run_signature(&trace, &result), result, |completed| {
            (*completed > 0)
                .then_some(())
                .ok_or_else(|| "no operation completed".to_string())
        })
    }));

    let r = input(FailurePattern::with_crashes(n, &[(ProcessId(2), late)]));
    cases.push(case("fig1_sigma_extraction", move |probe| {
        let stab = r.stabilize();
        let trace = probe.sim(
            r.spec(Vec::new()),
            |_| {
                (0..n)
                    .map(|_| {
                        let regs = (0..n)
                            .map(|_| AbdRegister::new(QuorumRule::Detector, initial_e_value(n)))
                            .collect::<Vec<AbdRegister<EValue>>>();
                        SigmaExtraction::new(n, regs)
                    })
                    .collect()
            },
            SigmaOracle::new(&r.pattern, stab, r.seed).with_jitter(stab / 2 + 1),
            |_| false,
        );
        let result = probe.check(|| {
            check_sigma(
                &history_from_outputs(&trace, |q: &ProcessSet| Some(q.clone())),
                &r.pattern,
            )
        });
        checked(run_signature(&trace, &result), result, |stats| {
            (stats.samples > n)
                .then_some(())
                .ok_or_else(|| "no quorum beyond the initial one was extracted".to_string())
        })
    }));

    let r = input(majority_crash);
    let props = proposals.clone();
    cases.push(case("omega_sigma_consensus", move |probe| {
        let stab = r.stabilize();
        let jitter = stab / 2 + 1;
        let trace = probe.sim(
            r.spec(props.iter().enumerate().map(|(p, &v)| (p, 0, v)).collect()),
            |_| consensus_fleet(n),
            PairOracle::new(
                OmegaOracle::new(&r.pattern, stab, r.seed).with_jitter(jitter),
                SigmaOracle::new(&r.pattern, stab, r.seed).with_jitter(jitter),
            ),
            until_correct_decide(&r.pattern, |p: &OmegaSigmaConsensus<u64>| {
                p.decision().is_some()
            }),
        );
        let slots: Vec<Option<u64>> = props.iter().copied().map(Some).collect();
        let result = probe.check(|| check_consensus(&trace, &slots, &r.pattern));
        checked(run_signature(&trace, &result), result, |stats| {
            stats
                .decision
                .map(|_| ())
                .ok_or_else(|| "no decision".to_string())
        })
    }));

    let r = fig3(1);
    cases.push(case("fig3_consensus_to_omega_sigma", move |probe| {
        let trace = probe.sim(
            r.spec(Vec::new()),
            |obs| {
                (0..n)
                    .map(|_| {
                        PsiExtraction::new(OmegaSigmaQcFamily)
                            .with_eval_interval(48)
                            .with_obs(obs.clone())
                    })
                    .collect()
            },
            omega_sigma(&r.pattern, r.stabilize(), r.seed),
            |_| false,
        );
        let result = probe.check(|| {
            check_psi(
                &history_from_outputs(&trace, |v: &PsiValue| Some(v.clone())),
                &r.pattern,
            )
        });
        checked(run_signature(&trace, &result), result, |stats| {
            settled(stats.phase, PsiPhase::OmegaSigma)
        })
    }));

    let r = fig3(13);
    cases.push(case("fig3_qc_to_psi", move |probe| {
        let trace = probe.sim(
            r.spec(Vec::new()),
            |obs| {
                (0..n)
                    .map(|_| {
                        PsiExtraction::new(PsiQcFamily)
                            .with_eval_interval(48)
                            .with_obs(obs.clone())
                    })
                    .collect()
            },
            PsiOracle::new(&r.pattern, PsiMode::OmegaSigma, r.stabilize(), 20, r.seed),
            |_| false,
        );
        let result = probe.check(|| {
            check_psi(
                &history_from_outputs(&trace, |v: &PsiValue| Some(v.clone())),
                &r.pattern,
            )
        });
        checked(run_signature(&trace, &result), result, |stats| {
            settled(stats.phase, PsiPhase::OmegaSigma)
        })
    }));

    let r = input(ff.clone());
    let props = proposals.clone();
    cases.push(case("fig2_psi_qc", move |probe| {
        let trace = probe.sim(
            r.spec(props.iter().enumerate().map(|(p, &v)| (p, 0, v)).collect()),
            |_| (0..n).map(|_| PsiQc::<u64>::new()).collect(),
            PsiOracle::new(&r.pattern, PsiMode::OmegaSigma, r.stabilize(), 30, r.seed),
            until_correct_decide(&r.pattern, |p: &PsiQc<u64>| p.decision().is_some()),
        );
        let slots: Vec<Option<u64>> = props.iter().copied().map(Some).collect();
        let result = probe.check(|| check_qc(&trace, &slots, &r.pattern));
        checked(
            run_signature(&trace, &result),
            result,
            |stats| match stats.decision {
                Some(QcDecision::Value(_)) => Ok(()),
                ref other => Err(format!("expected a proposed value, got {other:?}")),
            },
        )
    }));

    let r = input(ff.clone());
    cases.push(case("fig4_nbac", move |probe| {
        let trace = probe.sim(
            r.spec((0..n).map(|p| (p, 0, Vote::Yes)).collect()),
            |_| {
                (0..n)
                    .map(|_| NbacFromQc::new(n, PsiQc::<u8>::new()))
                    .collect()
            },
            PairOracle::new(
                FsOracle::new(&r.pattern, 30, r.seed),
                PsiOracle::new(&r.pattern, PsiMode::OmegaSigma, r.stabilize(), 30, r.seed),
            ),
            until_correct_decide(&r.pattern, |p: &NbacFromQc<PsiQc<u8>>| {
                p.decision().is_some()
            }),
        );
        let result = probe.check(|| check_nbac(&trace, &r.pattern));
        checked(
            run_signature(&trace, &result),
            result,
            |stats| match stats.decision {
                Some(Decision::Commit) => Ok(()),
                other => Err(format!("expected commit, got {other:?}")),
            },
        )
    }));

    let r = input(ff);
    let bits: Vec<Option<u8>> = proposals.iter().map(|&v| Some((v % 2) as u8)).collect();
    cases.push(case("fig5_qc_from_nbac", move |probe| {
        let invokes = bits
            .iter()
            .enumerate()
            .filter_map(|(p, v)| v.map(|v| (p, 0, v)))
            .collect();
        let trace = probe.sim(
            r.spec(invokes),
            |_| {
                (0..n)
                    .map(|_| QcFromNbac::new(n, NbacFromQc::new(n, PsiQc::<u8>::new())))
                    .collect()
            },
            PairOracle::new(
                FsOracle::new(&r.pattern, 30, r.seed),
                PsiOracle::new(&r.pattern, PsiMode::OmegaSigma, r.stabilize(), 30, r.seed),
            ),
            until_correct_decide(&r.pattern, |p: &QcFromNbac<NbacFromQc<PsiQc<u8>>>| {
                p.decision().is_some()
            }),
        );
        let result = probe.check(|| check_qc(&trace, &bits, &r.pattern));
        checked(run_signature(&trace, &result), result, |stats| {
            stats
                .decision
                .as_ref()
                .map(|_| ())
                .ok_or_else(|| "no decision".to_string())
        })
    }));

    let r = input(FailurePattern::with_crashes(n, &[(ProcessId(1), late)]));
    cases.push(case("fs_from_nbac", move |probe| {
        let trace = probe.sim(
            r.spec(Vec::new()),
            |_| {
                (0..n)
                    .map(|_| FsFromNbac::new(move || NbacFromQc::new(n, PsiQc::<u8>::new())))
                    .collect()
            },
            PairOracle::new(
                FsOracle::new(&r.pattern, 30, r.seed),
                PsiOracle::new(&r.pattern, PsiMode::OmegaSigma, 60, 30, r.seed),
            ),
            |_| false,
        );
        let result = probe.check(|| {
            check_fs(
                &history_from_outputs(&trace, |s: &Signal| Some(*s)),
                &r.pattern,
            )
        });
        checked(
            run_signature(&trace, &result),
            result,
            |stats| match stats.first_red {
                Some(t) if t >= late => Ok(()),
                Some(t) => Err(format!("red at {t}, before the crash at {late}")),
                None => Err("the crash never surfaced as red".to_string()),
            },
        )
    }));
    cases
}

/// Stop once every correct process has decided.
fn until_correct_decide<P>(
    pattern: &FailurePattern,
    decided: impl Fn(&P) -> bool,
) -> impl Fn(&[P]) -> bool {
    let correct = pattern.correct();
    move |procs| {
        procs
            .iter()
            .enumerate()
            .all(|(i, p)| !correct.contains(ProcessId(i)) || decided(p))
    }
}

fn settled(phase: PsiPhase, expected: PsiPhase) -> Result<(), String> {
    if phase == expected {
        Ok(())
    } else {
        Err(format!(
            "Figure 3 settled in {phase:?}, expected {expected:?}"
        ))
    }
}
