//! Golden explorer reports of the benchmark's six explorations.
//!
//! The setups are the `relay_mesh`, `relay_mesh_reduced` and
//! `paper_safety` workloads' cases at seed 1, full size, with the
//! workload's seed-to-proposal draws:
//!
//! * `relay_mesh`: the token-relay mesh, n = 3, unreduced, depth 13;
//! * `relay_mesh_reduced`: the same mesh under symmetry, depth 16 (the
//!   workload's `with_dpor` call is an inert shim);
//! * `abd_linearizable`: Σ-ABD, n = 3, one write and two reads, depth 9;
//! * `consensus_agreement`: (Ω, Σ) consensus, n = 4, depth 28;
//! * `psi_qc_never_quits`: Figure 2's Ψ-QC, n = 3, depth 50;
//! * `planted_no_decision`: (Ω, Σ) consensus, n = 2, depth 14, against
//!   "nobody ever decides", which must fail with a counterexample.
//!
//! Each golden line is the full `{:?}` of one [`ExploreReport`]: states
//! visited, dedup entries and hits, batches' high-water frontier, the
//! symmetry counter and the violation with its decision list. Any
//! change to the traversal order, the revisit rule or the keys shows up
//! here. A change that only makes the explorer faster or smaller must
//! leave the file byte-identical.
//!
//! Debug builds re-key every explored state from scratch, which makes one
//! pass take minutes, so the test runs in release only. Regenerate with
//! `WFD_UPDATE_GOLDEN=1 cargo test --release --test explore_paper_reports`
//! only for a deliberate change to what the explorer visits.

use std::path::Path;
use weakest_failure_detectors::consensus::{ConsensusOutput, OmegaSigmaConsensus};
use weakest_failure_detectors::detectors::oracles::{
    OmegaOracle, PairOracle, PsiMode, PsiOracle, SigmaOracle,
};
use weakest_failure_detectors::quittable::{PsiQc, QcDecision};
use weakest_failure_detectors::registers::abd::{AbdOp, AbdOutput, AbdResp};
use weakest_failure_detectors::registers::{
    check_linearizable, AbdRegister, OpHistory, OpRecord, QuorumRule, RegOp, RegResp,
};
use weakest_failure_detectors::sim::{
    explore, Ctx, ExploreConfig, ExploreReport, FailurePattern, NoDetector, ProcessId, ProcessSet,
    Protocol, SimRng, Symmetry, Time,
};

const SEED: u64 = 1;

/// The workloads' state cap, far above every model.
const MAX_STATES: usize = 5_000_000;

fn cfg(depth: usize) -> ExploreConfig {
    ExploreConfig::new(depth).with_max_states(MAX_STATES)
}

/// One golden line.
fn line(name: &str, report: ExploreReport) -> String {
    format!("{name}: {report:?}\n")
}

/// `count` distinct three-digit values in increasing order, drawn as the
/// workloads draw their proposals.
fn increasing(rng: &mut SimRng, count: usize) -> Vec<u64> {
    let mut v = 100 + rng.gen_range(100);
    (0..count)
        .map(|_| {
            v += 1 + rng.gen_range(100);
            v
        })
        .collect()
}

/// The benchmark's token-relay mesh: every process pings every other on
/// start; each receipt mixes the tag into `acc` and, while reply budget
/// lasts, bounces a re-tagged token back to the sender.
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

    fn symmetry(_n: usize) -> Symmetry {
        Symmetry::Full
    }
}

fn relay_mesh(reduced: bool) -> String {
    let acc = 10 + SimRng::new(SEED).gen_range(54) as u8;
    let depth = if reduced { 16 } else { 13 };
    let report = explore(
        cfg(depth).with_symmetry(reduced),
        || {
            (0..RELAY_N)
                .map(|_| Relay {
                    acc,
                    phase: 0,
                    replies: 0,
                })
                .collect()
        },
        vec![None; RELAY_N],
        &FailurePattern::failure_free(RELAY_N),
        NoDetector,
        |_, _| Ok(()),
    );
    let name = if reduced {
        "relay_mesh_reduced"
    } else {
        "relay_mesh"
    };
    line(name, report)
}

/// The register history the outputs so far describe, with emission
/// indices as times.
fn abd_history(outputs: &[(ProcessId, AbdOutput<u64>)]) -> OpHistory {
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

fn abd(written: u64) -> String {
    let n = 3;
    let pattern = FailurePattern::failure_free(n);
    let report = explore(
        cfg(9),
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
        &pattern,
        SigmaOracle::new(&pattern, 0, SEED),
        |_, outputs| {
            check_linearizable(&abd_history(outputs))
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
    );
    line("abd_linearizable", report)
}

fn consensus_fleet(n: usize) -> Vec<OmegaSigmaConsensus<u64>> {
    (0..n).map(|_| OmegaSigmaConsensus::new()).collect()
}

fn omega_sigma(pattern: &FailurePattern, stabilize: Time) -> PairOracle<OmegaOracle, SigmaOracle> {
    PairOracle::new(
        OmegaOracle::new(pattern, stabilize, SEED),
        SigmaOracle::new(pattern, stabilize, SEED),
    )
}

fn consensus(proposals: &[u64]) -> String {
    let n = proposals.len();
    let pattern = FailurePattern::failure_free(n);
    let report = explore(
        cfg(28),
        || consensus_fleet(n),
        proposals.iter().copied().map(Some).collect(),
        &pattern,
        omega_sigma(&pattern, 0),
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
    );
    line("consensus_agreement", report)
}

fn psi_qc(proposals: &[u64]) -> String {
    let n = proposals.len();
    let pattern = FailurePattern::failure_free(n);
    let report = explore(
        cfg(50),
        || (0..n).map(|_| PsiQc::<u64>::new()).collect(),
        proposals.iter().copied().map(Some).collect(),
        &pattern,
        PsiOracle::new(&pattern, PsiMode::OmegaSigma, 0, 0, SEED),
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
    );
    line("psi_qc_never_quits", report)
}

fn planted_no_decision(proposals: &[u64]) -> String {
    let n = proposals.len();
    let pattern = FailurePattern::failure_free(n);
    let report = explore(
        cfg(14),
        || consensus_fleet(n),
        proposals.iter().copied().map(Some).collect(),
        &pattern,
        omega_sigma(&pattern, 0),
        |_, outputs| match outputs.first() {
            Some((p, ConsensusOutput::Decided(v))) => Err(format!("{p} decided {v}")),
            None => Ok(()),
        },
    );
    assert!(report.violation.is_some(), "the planted violation was lost");
    line("planted_no_decision", report)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds re-key every explored state from scratch, so one pass takes minutes; run with --release"
)]
fn paper_explorations_match_the_golden_file() {
    let mut rng = SimRng::new(SEED);
    let written = 100 + rng.gen_range(900);
    let proposals = increasing(&mut rng, 4);
    let qc_proposals = increasing(&mut rng, 3);
    let planted = increasing(&mut rng, 2);
    let body = [
        relay_mesh(false),
        relay_mesh(true),
        abd(written),
        consensus(&proposals),
        psi_qc(&qc_proposals),
        planted_no_decision(&planted),
    ]
    .concat();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/explore_paper_reports.txt");
    if std::env::var_os("WFD_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &body).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (regenerate with WFD_UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(body, expected, "the benchmark's explorer reports drifted");
}
