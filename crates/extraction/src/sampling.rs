//! Failure detector samples and the per-process sample store — the
//! executable counterpart of the CHT DAG `G_p`.
//!
//! Each sample records *which process* saw *which detector value* at
//! *which global time*. The store keeps samples sorted by `(time,
//! process)`; paths through the CHT DAG are concretised as time-ordered
//! subsequences. Because every sample is flooded in one atomic step over
//! reliable links, the stores of correct processes converge to the same
//! limit sequence — which is what makes the simulated forests of
//! different extractors agree eventually.

use std::collections::BTreeMap;
use std::fmt::Debug;
use wfd_sim::{ProcessId, Time};

/// One failure detector sample: `H(q, t) = val`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample<V> {
    /// The process that took the sample.
    pub q: ProcessId,
    /// When it was taken (global clock).
    pub t: Time,
    /// The sampled detector value.
    pub val: V,
}

/// A time-ordered, deduplicated collection of samples.
#[derive(Clone, Debug, Default)]
pub struct SampleStore<V> {
    samples: BTreeMap<(Time, ProcessId), V>,
}

impl<V: Clone + Debug> SampleStore<V> {
    /// An empty store.
    pub fn new() -> Self {
        SampleStore {
            samples: BTreeMap::new(),
        }
    }

    /// Insert a sample; duplicates (same process and time) are ignored.
    pub fn insert(&mut self, s: Sample<V>) {
        self.samples.entry((s.t, s.q)).or_insert(s.val);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The newest sample time, if any.
    pub fn max_time(&self) -> Option<Time> {
        self.samples.keys().next_back().map(|(t, _)| *t)
    }

    /// All samples in `(time, process)` order.
    pub fn iter(&self) -> impl Iterator<Item = Sample<V>> + '_ {
        self.samples.iter().map(|(&(t, q), val)| Sample {
            q,
            t,
            val: val.clone(),
        })
    }

    /// Samples strictly newer than `watermark`, in order — the "fresh
    /// samples" of Figure 3 lines 27–30.
    pub fn window_after(&self, watermark: Time) -> impl Iterator<Item = Sample<V>> + '_ {
        self.samples
            .range((watermark.saturating_add(1), ProcessId(0))..)
            .map(|(&(t, q), val)| Sample {
                q,
                t,
                val: val.clone(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q: usize, t: Time, val: u32) -> Sample<u32> {
        Sample {
            q: ProcessId(q),
            t,
            val,
        }
    }

    #[test]
    fn insert_orders_by_time_then_process() {
        let mut store = SampleStore::new();
        store.insert(s(1, 5, 15));
        store.insert(s(0, 2, 2));
        store.insert(s(2, 5, 25));
        let order: Vec<(Time, usize)> = store.iter().map(|x| (x.t, x.q.index())).collect();
        assert_eq!(order, vec![(2, 0), (5, 1), (5, 2)]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.max_time(), Some(5));
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut store = SampleStore::new();
        store.insert(s(0, 1, 7));
        store.insert(s(0, 1, 99));
        assert_eq!(store.len(), 1);
        assert_eq!(store.iter().next().unwrap().val, 7);
    }

    #[test]
    fn window_after_is_strict() {
        let mut store = SampleStore::new();
        for t in 0..10 {
            store.insert(s(0, t, t as u32));
        }
        let w: Vec<Time> = store.window_after(4).map(|x| x.t).collect();
        assert_eq!(w, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn empty_store() {
        let store: SampleStore<u32> = SampleStore::new();
        assert!(store.is_empty());
        assert_eq!(store.max_time(), None);
        assert_eq!(store.window_after(0).count(), 0);
    }
}
