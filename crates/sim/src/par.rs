//! Deterministic fan-out primitive of the benchmark sweep engine.
//!
//! [`par_map_with`] is the one concurrency building block in the
//! workspace: apply a pure function to every item of a slice across a
//! fixed worker count, collecting results **in item order** regardless of
//! which worker finishes first. Plain `std::thread::scope` workers, no
//! external runtime. `wfd_bench::sweep`, whose runs are independent, is
//! its only caller and re-exports it (the sweep engine was its original
//! home). The explorer and the liveness checker run on one thread.
//!
//! Determinism contract: the produced vector depends only on `items` and
//! `f`, never on `threads` — callers are free to scale the worker count
//! to the machine without changing any result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Apply `f` to every item, fanning across `threads` workers; the result
/// vector is in item order regardless of completion order.
///
/// With `threads <= 1` (or fewer than two items) the map runs inline on
/// the calling thread — the reference execution the parallel path must
/// reproduce byte-for-byte.
pub fn par_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                *slots[i].lock().expect("slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_with_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 7, 32] {
            let out = par_map_with(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }
}
