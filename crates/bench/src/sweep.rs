//! Deterministic parallel sweep engine.
//!
//! Every claim in the paper is a "for all runs" statement, so experiment
//! confidence scales with how many (failure-pattern × seed × scheduler)
//! runs we can afford. This module fans a grid of run specifications
//! across all cores with plain `std::thread` scoped workers — no external
//! runtime — while keeping the results **byte-identical to a sequential
//! sweep**:
//!
//! * each run is a pure function of its own spec (the simulator is
//!   deterministic given pattern + seed + scheduler), and
//! * results are written into their grid slot, so output order is the
//!   grid order regardless of which worker finishes first.
//!
//! Thread count: `WFD_SWEEP_THREADS`, else `RAYON_NUM_THREADS` (honoured
//! for muscle-memory compatibility), else the machine's available
//! parallelism. Set either to `1` to force a sequential sweep.

// The fan-out primitive itself lives in `wfd_sim::par`, and this sweep
// is its only caller (the explorer and the liveness checker run on one
// thread); re-export it so sweep callers keep their one-stop import.
pub use wfd_sim::par::par_map_with;

use wfd_sim::obs::{CounterId, Obs, PhaseId};
use wfd_sim::EnvOverrides;

/// The worker count a parallel sweep will use (resolved through
/// [`EnvOverrides`], the one home of `WFD_*` reads).
pub fn num_threads() -> usize {
    EnvOverrides::from_env().resolve_sweep_threads(None)
}

/// [`par_map_with`] at the default [`num_threads`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, num_threads(), f)
}

/// A sweep over an ordered grid of run specifications.
///
/// ```
/// use wfd_bench::sweep::Sweep;
/// let rows = Sweep::over((0..10u64).collect::<Vec<_>>())
///     .run_parallel(|seed| format!("run-{seed}"));
/// assert_eq!(rows[3], "run-3");
/// ```
#[derive(Debug)]
pub struct Sweep<T> {
    specs: Vec<T>,
    obs: Obs,
}

impl<T: Sync> Sweep<T> {
    /// A sweep over `specs`, in the given (grid) order.
    pub fn over(specs: Vec<T>) -> Self {
        Sweep {
            specs,
            obs: Obs::off(),
        }
    }

    /// Attach an observability handle (see [`wfd_sim::obs`]): each run is
    /// counted ([`CounterId::SweepRuns`]) and timed ([`PhaseId::SweepRun`],
    /// worker wall-clock summed across workers). Results are unaffected.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The grid, in order.
    pub fn specs(&self) -> &[T] {
        &self.specs
    }

    /// Number of runs in the grid.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Run the grid across all cores; results come back in grid order.
    pub fn run_parallel<R: Send>(&self, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        par_map(&self.specs, |_, t| {
            let _span = self.obs.phase(PhaseId::SweepRun);
            let r = f(t);
            self.obs.add(CounterId::SweepRuns, 1);
            r
        })
    }

    /// Run the grid on the calling thread, in grid order (the reference
    /// execution parallel sweeps must reproduce byte-for-byte).
    pub fn run_sequential<R>(&self, mut f: impl FnMut(&T) -> R) -> Vec<R> {
        self.specs
            .iter()
            .map(|t| {
                let _span = self.obs.phase(PhaseId::SweepRun);
                let r = f(t);
                self.obs.add(CounterId::SweepRuns, 1);
                r
            })
            .collect()
    }
}

/// The full cross product `a × b` in row-major order — the canonical way
/// to build two-axis sweep grids.
pub fn grid2<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            out.push((x.clone(), y.clone()));
        }
    }
    out
}

/// The full cross product `a × b × c` in row-major order.
pub fn grid3<A: Clone, B: Clone, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    let mut out = Vec::with_capacity(a.len() * b.len() * c.len());
    for x in a {
        for y in b {
            for z in c {
                out.push((x.clone(), y.clone(), z.clone()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 7, 32] {
            let out = par_map_with(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let sweep = Sweep::over((0..100u64).collect::<Vec<_>>());
        let work = |&seed: &u64| {
            // A deterministic but seed-dependent computation.
            let mut acc = seed;
            for _ in 0..1_000 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let seq = sweep.run_sequential(work);
        let par = sweep.run_parallel(work);
        assert_eq!(seq, par);
    }

    #[test]
    fn grids_are_row_major() {
        assert_eq!(
            grid2(&[1, 2], &["a", "b"]),
            vec![(1, "a"), (1, "b"), (2, "a"), (2, "b")]
        );
        assert_eq!(grid3(&[1], &[2, 3], &[4]), vec![(1, 2, 4), (1, 3, 4)]);
    }

    #[test]
    fn empty_and_len() {
        let s: Sweep<u8> = Sweep::over(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.run_parallel(|x| *x), Vec::<u8>::new());
    }

    #[test]
    fn threads_floor_is_one() {
        assert!(num_threads() >= 1);
    }
}
