//! The explorer and the liveness checker run on one thread, so a
//! protocol needs neither `Send` nor `Sync`: this one keeps its state,
//! its messages and its outputs behind `Rc`, and goes through both
//! engines.

use std::rc::Rc;
use wfd_sim::{
    check_liveness, explore, Ctx, ExploreConfig, FailurePattern, LivenessConfig, LivenessVerdict,
    Ltl, NoDetector, ProcessId, PropView, Protocol,
};

/// Greets every other process once, on start, and counts the greetings
/// it hears, outputting the running count. The count lives behind an
/// `Rc`, which is neither `Send` nor `Sync`.
#[derive(Clone, Debug, PartialEq)]
struct Greeter {
    heard: Rc<u8>,
}

impl Protocol for Greeter {
    type Msg = Rc<u8>;
    type Output = Rc<u8>;
    type Inv = ();
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Ctx<Self>) {
        ctx.broadcast_others(Rc::new(1));
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self>, _from: ProcessId, msg: Rc<u8>) {
        self.heard = Rc::new(*self.heard + *msg);
        ctx.output(Rc::clone(&self.heard));
    }

    fn props() -> &'static [&'static str] {
        &["all-greeted"]
    }

    fn eval_prop(_prop: usize, procs: &[Self], view: &PropView<'_>) -> bool {
        let others = procs.len() as u8 - 1;
        procs
            .iter()
            .zip(view.correct)
            .all(|(p, &c)| !c || *p.heard == others)
    }
}

const N: usize = 3;

fn fleet() -> Vec<Greeter> {
    (0..N).map(|_| Greeter { heard: Rc::new(0) }).collect()
}

#[test]
fn an_rc_protocol_is_explored() {
    let report = explore(
        ExploreConfig::new(12),
        fleet,
        vec![None; N],
        &FailurePattern::failure_free(N),
        NoDetector,
        |_, outputs: &[(ProcessId, Rc<u8>)]| match outputs.iter().find(|(_, h)| **h >= N as u8) {
            Some((p, h)) => Err(format!("{p} heard {h} greetings")),
            None => Ok(()),
        },
    );
    assert!(report.violation.is_none(), "{report:?}");
    assert!(
        report.states_visited > 1 && report.dedup_hits > 0,
        "{report:?}"
    );
}

#[test]
fn an_rc_protocol_is_checked_for_liveness() {
    let report = check_liveness(
        LivenessConfig::new(2, 2, 0),
        fleet,
        vec![None; N],
        &FailurePattern::failure_free(N),
        NoDetector,
        &Ltl::prop("all-greeted").eventually(),
    )
    .expect("valid scenario");
    assert_eq!(report.verdict, LivenessVerdict::Holds, "{report:?}");
    assert!(report.states > 1);
}
