//! A deterministic in-memory executor for simulated runs of a protocol.
//!
//! Figure 3 simulates runs of the QC algorithm `A` that *could have
//! occurred* with the recorded failure detector samples. The [`Runner`]
//! applies one step per sample — the sampled process receives its oldest
//! pending message (or λ), sees the sampled detector value, and its sends
//! go to in-memory inboxes. Everything is a pure function of the step
//! sequence, so two extractors feeding the same samples reconstruct
//! byte-identical runs — the convergence the CHT limit-forest argument
//! needs.
//!
//! A runner is the configuration its steps reached and nothing more: it
//! records no schedule (callers that need one, like
//! [`crate::forest::evaluate_tree`], keep their own), and it is `Clone`.
//! Figure 3 line 25's configurations `C` — one per prefix of a critical
//! schedule — are therefore clones of one runner advanced a step at a
//! time along that schedule, not replays from the initial configuration.

use std::collections::VecDeque;
use std::fmt::Debug;
use wfd_sim::{Ctx, ProcessId, Protocol, Time};

/// A deterministic simulated execution of `n` instances of protocol `P`.
/// Cloning it forks the execution: the clone and the original continue
/// independently from the same configuration.
#[derive(Clone, Debug)]
pub struct Runner<P: Protocol> {
    procs: Vec<P>,
    started: Vec<bool>,
    pending_inv: Vec<Option<P::Inv>>,
    inboxes: Vec<VecDeque<(ProcessId, P::Msg)>>,
    outputs: Vec<(ProcessId, P::Output)>,
    /// Steps executed so far; also the simulated clock.
    clock: Time,
}

impl<P: Protocol> Runner<P> {
    /// Create a simulation with per-process protocol instances and the
    /// invocation each process performs at its first step (its QC
    /// proposal).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors disagree in length.
    pub fn new(procs: Vec<P>, invocations: Vec<Option<P::Inv>>) -> Self {
        assert_eq!(
            procs.len(),
            invocations.len(),
            "one invocation slot per process"
        );
        let n = procs.len();
        Runner {
            procs,
            started: vec![false; n],
            pending_inv: invocations,
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            outputs: Vec::new(),
            clock: 0,
        }
    }

    /// Number of simulated processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Execute one step of `q` with detector value `fd`: first step runs
    /// `on_start` + the pending invocation; later steps deliver the
    /// oldest pending message, or λ if the inbox is empty.
    pub fn step(&mut self, q: ProcessId, fd: P::Fd) {
        let i = q.index();
        let mut ctx = Ctx::<P>::detached(q, self.procs.len(), self.clock, fd);
        self.clock += 1;
        if !self.started[i] {
            self.started[i] = true;
            self.procs[i].on_start(&mut ctx);
            if let Some(inv) = self.pending_inv[i].take() {
                self.procs[i].on_invoke(&mut ctx, inv);
            }
        } else if let Some((from, msg)) = self.inboxes[i].pop_front() {
            self.procs[i].on_message(&mut ctx, from, msg);
        } else {
            self.procs[i].on_tick(&mut ctx);
        }
        for (to, msg) in ctx.take_sends() {
            self.inboxes[to.index()].push_back((q, msg));
        }
        for out in ctx.take_outputs() {
            self.outputs.push((q, out));
        }
    }

    /// All outputs emitted so far, in emission order.
    pub fn outputs(&self) -> &[(ProcessId, P::Output)] {
        &self.outputs
    }

    /// Steps executed.
    pub fn len(&self) -> usize {
        self.clock as usize
    }

    /// Whether no steps have been executed.
    pub fn is_empty(&self) -> bool {
        self.clock == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts messages; replies to each ping with a pong to the sender.
    #[derive(Clone, Debug, Default)]
    struct Echo {
        got: u32,
    }

    impl Protocol for Echo {
        type Msg = &'static str;
        type Output = u32;
        type Inv = &'static str;
        type Fd = u8;

        fn on_invoke(&mut self, ctx: &mut Ctx<Self>, _inv: &'static str) {
            ctx.broadcast_others("ping");
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self>, from: ProcessId, msg: &'static str) {
            self.got += 1;
            ctx.output(self.got);
            if msg == "ping" {
                ctx.send(from, "pong");
            }
        }
    }

    fn fresh(n: usize) -> (Vec<Echo>, Vec<Option<&'static str>>) {
        (
            (0..n).map(|_| Echo::default()).collect(),
            (0..n).map(|_| Some("go")).collect(),
        )
    }

    #[test]
    fn first_step_runs_start_and_invocation() {
        let (procs, invs) = fresh(2);
        let mut r = Runner::new(procs, invs);
        r.step(ProcessId(0), 0);
        // p0 broadcast a ping to p1.
        r.step(ProcessId(1), 0); // p1's first step: start + invoke (ping to p0)
        r.step(ProcessId(1), 0); // delivers p0's ping, pongs back
        assert_eq!(r.outputs(), &[(ProcessId(1), 1)]);
        r.step(ProcessId(0), 0); // delivers p1's ping
        r.step(ProcessId(0), 0); // delivers p1's pong
        assert_eq!(r.outputs().len(), 3);
    }

    #[test]
    fn lambda_step_when_inbox_empty() {
        let (procs, invs) = fresh(1);
        let mut r = Runner::new(procs, invs);
        r.step(ProcessId(0), 0);
        r.step(ProcessId(0), 0); // nothing pending: λ
        assert_eq!(r.outputs().len(), 0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn determinism_same_schedule_same_outputs() {
        let schedule: Vec<(ProcessId, u8)> = vec![
            (ProcessId(0), 1),
            (ProcessId(1), 2),
            (ProcessId(1), 3),
            (ProcessId(0), 4),
            (ProcessId(0), 5),
        ];
        let run = || {
            let (procs, invs) = fresh(2);
            let mut r = Runner::new(procs, invs);
            for (q, fd) in &schedule {
                r.step(*q, *fd);
            }
            r.outputs().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clone_forks_an_execution() {
        let (procs, invs) = fresh(2);
        let mut r = Runner::new(procs, invs);
        for _ in 0..3 {
            r.step(ProcessId(0), 7);
            r.step(ProcessId(1), 7);
        }
        let mut fork = r.clone();
        let tail = [(ProcessId(0), 8), (ProcessId(0), 9), (ProcessId(1), 8)];
        for (q, fd) in tail {
            fork.step(q, fd);
        }
        // The original is untouched by the fork's steps...
        assert_eq!(r.len(), 6);
        // ...and stepping it the same way reaches the same configuration.
        for (q, fd) in tail {
            r.step(q, fd);
        }
        assert_eq!(r.outputs(), fork.outputs());
        assert_eq!(format!("{r:?}"), format!("{fork:?}"));
    }

    #[test]
    #[should_panic(expected = "one invocation slot per process")]
    fn mismatched_invocations_rejected() {
        let (procs, _) = fresh(2);
        let _ = Runner::new(procs, vec![Some("go")]);
    }
}
