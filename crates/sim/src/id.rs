//! Process identifiers, the global clock, and sets of processes.

use std::cmp::Ordering;
use std::fmt;

/// The discrete global clock of the model.
///
/// The clock exists "for presentational convenience" only (it indexes
/// failure patterns and detector histories); processes can never read it.
pub type Time = u64;

/// Identifier of one of the `n` processes `p0 .. p{n-1}` of the system `Π`.
///
/// Process ids are dense indices, which lets per-process state live in plain
/// vectors throughout the workspace.
///
/// ```
/// use wfd_sim::ProcessId;
/// let p = ProcessId(2);
/// assert_eq!(p.to_string(), "p2");
/// assert_eq!(p.index(), 2);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The dense index of this process in `0..n`.
    pub fn index(self) -> usize {
        self.0
    }

    /// Iterate over all process ids of a system of size `n`.
    ///
    /// ```
    /// use wfd_sim::ProcessId;
    /// let ids: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(ids, vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
    /// ```
    pub fn all(n: usize) -> impl DoubleEndedIterator<Item = ProcessId> + Clone {
        (0..n).map(ProcessId)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

/// The most processes a [`ProcessSet`] can hold: ids `p0 ..= p63`.
///
/// A set is one 64-bit word. Every system in this workspace is far
/// smaller, and [`Repro`](crate::Repro) artifacts with more processes
/// are rejected when they load.
pub const MAX_PROCESSES: usize = 64;

/// An ordered set of processes — quorums, participant sets, correct sets.
///
/// `ProcessSet` is the value type of the quorum failure detector Σ and is
/// used pervasively by the extraction algorithms, so it carries the set
/// operations the paper's proofs rely on (intersection tests, subset tests).
///
/// ```
/// use wfd_sim::{ProcessId, ProcessSet};
/// let a: ProcessSet = [0, 1].into_iter().map(ProcessId).collect();
/// let b: ProcessSet = [1, 2].into_iter().map(ProcessId).collect();
/// assert!(a.intersects(&b));
/// assert!(!a.is_subset(&b));
/// assert_eq!(a.to_string(), "{p0, p1}");
/// ```
///
/// # Representation and capacity
///
/// The set is one `u64` word whose bit `i` is `ProcessId(i)`, so it is
/// `Copy` and cloning a Σ value, a quorum or a message that carries one
/// allocates nothing. It holds ids below [`MAX_PROCESSES`]:
/// [`insert`](Self::insert), [`singleton`](Self::singleton),
/// [`full`](Self::full), `collect` and `extend` panic on a larger id,
/// while [`contains`](Self::contains) and [`remove`](Self::remove) return
/// `false` for one.
///
/// # Order and `Debug`
///
/// Sets compare as their sorted member lists do, lexicographically
/// (`{p0, p5} < {p1}`, and a prefix is smaller), not as their words. This
/// is the order the set had as a `BTreeSet<ProcessId>`, and collections of
/// sets, such as Figure 1's `BTreeSet<ProcessSet>`, iterate and render in
/// it. `Debug` is written by hand to print what the `BTreeSet` derive
/// printed, `ProcessSet({ProcessId(0), ProcessId(2)})`, in both the `{:?}`
/// and `{:#?}` forms: the explorer and the liveness checker key their
/// slots by these renderings, so other text would change their keys.
///
/// ```
/// use wfd_sim::{ProcessId, ProcessSet};
/// let low: ProcessSet = [0, 5].into_iter().map(ProcessId).collect();
/// let high = ProcessSet::singleton(ProcessId(1));
/// assert!(low < high);
/// assert_eq!(format!("{low:?}"), "ProcessSet({ProcessId(0), ProcessId(5)})");
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Default)]
pub struct ProcessSet(u64);

/// The word bit of `p`, panicking past the capacity.
fn bit(p: ProcessId) -> u64 {
    assert!(
        p.0 < MAX_PROCESSES,
        "{p} does not fit in a ProcessSet, which holds ids below MAX_PROCESSES = {MAX_PROCESSES}"
    );
    1 << p.0
}

impl ProcessSet {
    /// The empty set.
    pub fn new() -> Self {
        ProcessSet(0)
    }

    /// The full system `Π = {p0, …, p{n-1}}`.
    pub fn full(n: usize) -> Self {
        ProcessId::all(n).collect()
    }

    /// A singleton set.
    pub fn singleton(p: ProcessId) -> Self {
        ProcessSet(bit(p))
    }

    /// Insert a process; returns `true` if it was not already present.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let b = bit(p);
        let fresh = self.0 & b == 0;
        self.0 |= b;
        fresh
    }

    /// Remove a process; returns `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let present = self.contains(p);
        if present {
            self.0 &= !(1 << p.0);
        }
        present
    }

    /// Whether `p` belongs to the set.
    pub fn contains(&self, p: ProcessId) -> bool {
        p.0 < MAX_PROCESSES && self.0 & (1 << p.0) != 0
    }

    /// Number of processes in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Whether the two sets share at least one process — the heart of Σ's
    /// *intersection* property.
    pub fn intersects(&self, other: &ProcessSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether `self ⊆ other` — used by Σ's *completeness* property
    /// (`quorum ⊆ correct(F)`).
    pub fn is_subset(&self, other: &ProcessSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Set union.
    pub fn union(&self, other: &ProcessSet) -> ProcessSet {
        ProcessSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & other.0)
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & !other.0)
    }

    /// Iterate over members in increasing id order.
    pub fn iter(&self) -> ProcessSetIter {
        ProcessSetIter(self.0)
    }

    /// The smallest member, if any — a convenient deterministic
    /// representative (e.g. for leader extraction).
    pub fn first(&self) -> Option<ProcessId> {
        self.iter().next()
    }
}

impl Ord for ProcessSet {
    /// The lexicographic order of the sorted member lists. Below the lowest
    /// bit `b` where the words differ the lists agree; the set holding `b`
    /// lists it next, so it is the smaller one exactly when the other set
    /// goes on with a member above `b` (and the larger one when the other
    /// set ends there, being its prefix).
    fn cmp(&self, other: &Self) -> Ordering {
        let diff = self.0 ^ other.0;
        if diff == 0 {
            return Ordering::Equal;
        }
        let low = diff & diff.wrapping_neg();
        let above = !(low | (low - 1));
        let self_holds = self.0 & low != 0;
        let lacker = if self_holds { other.0 } else { self.0 };
        if self_holds == (lacker & above != 0) {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }
}

impl PartialOrd for ProcessSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Members(ProcessSet);
        impl fmt::Debug for Members {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0).finish()
            }
        }
        f.debug_tuple("ProcessSet").field(&Members(*self)).finish()
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcessSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

/// The members of a [`ProcessSet`] in increasing id order: each step pops
/// the lowest remaining bit.
#[derive(Clone, Debug)]
pub struct ProcessSetIter(u64);

impl Iterator for ProcessSetIter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        if self.0 == 0 {
            return None;
        }
        let p = ProcessId(self.0.trailing_zeros() as usize);
        self.0 &= self.0 - 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ProcessSetIter {}

impl std::iter::FusedIterator for ProcessSetIter {}

impl IntoIterator for &ProcessSet {
    type Item = ProcessId;
    type IntoIter = ProcessSetIter;

    fn into_iter(self) -> ProcessSetIter {
        self.iter()
    }
}

impl IntoIterator for ProcessSet {
    type Item = ProcessId;
    type IntoIter = ProcessSetIter;

    fn into_iter(self) -> ProcessSetIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> ProcessSet {
        ids.iter().copied().map(ProcessId).collect()
    }

    #[test]
    fn process_id_display_and_order() {
        assert_eq!(ProcessId(0).to_string(), "p0");
        assert!(ProcessId(0) < ProcessId(1));
        assert_eq!(ProcessId::from(7).index(), 7);
    }

    #[test]
    fn all_enumerates_in_order() {
        assert_eq!(ProcessId::all(0).count(), 0);
        let v: Vec<_> = ProcessId::all(4).map(|p| p.index()).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn full_set_has_n_members() {
        let s = ProcessSet::full(5);
        assert_eq!(s.len(), 5);
        assert!(ProcessId::all(5).all(|p| s.contains(p)));
    }

    #[test]
    fn intersects_is_symmetric_and_correct() {
        let a = set(&[0, 1]);
        let b = set(&[1, 2]);
        let c = set(&[3, 4]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!ProcessSet::new().intersects(&a));
        assert!(!ProcessSet::new().intersects(&ProcessSet::new()));
    }

    #[test]
    fn subset_union_intersection_difference() {
        let a = set(&[0, 1]);
        let b = set(&[0, 1, 2]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert_eq!(a.union(&b), b);
        assert_eq!(a.intersection(&b), a);
        assert_eq!(b.difference(&a), set(&[2]));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcessSet::new();
        assert!(s.insert(ProcessId(3)));
        assert!(!s.insert(ProcessId(3)));
        assert!(s.contains(ProcessId(3)));
        assert!(s.remove(ProcessId(3)));
        assert!(!s.remove(ProcessId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn first_is_deterministic_representative() {
        assert_eq!(set(&[4, 2, 7]).first(), Some(ProcessId(2)));
        assert_eq!(ProcessSet::new().first(), None);
    }

    #[test]
    fn display_formats_sorted() {
        assert_eq!(set(&[2, 0]).to_string(), "{p0, p2}");
        assert_eq!(ProcessSet::new().to_string(), "{}");
    }

    #[test]
    fn iteration_round_trips() {
        let s = set(&[1, 3]);
        let t: ProcessSet = (&s).into_iter().collect();
        assert_eq!(s, t);
        let u: ProcessSet = s.into_iter().collect();
        assert_eq!(s, u);
    }

    /// The set as it was before it became one word. Its derived `Ord` and
    /// `Debug` are the order and the text the word must keep.
    mod old {
        use super::ProcessId;
        use std::collections::BTreeSet;

        #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
        pub struct ProcessSet(pub BTreeSet<ProcessId>);
    }

    /// Every subset of {p0, …, p5}, plus sets at the top of the word.
    fn reference_inputs() -> Vec<Vec<usize>> {
        let mut inputs: Vec<Vec<usize>> = (0..64)
            .map(|mask: usize| (0..6).filter(|i| mask >> i & 1 == 1).collect())
            .collect();
        inputs.extend([vec![63], vec![0, 63], vec![62, 63]]);
        inputs
    }

    fn reference(ids: &[usize]) -> old::ProcessSet {
        old::ProcessSet(ids.iter().copied().map(ProcessId).collect())
    }

    fn members(s: ProcessSet) -> Vec<ProcessId> {
        s.iter().collect()
    }

    fn listed<'a>(it: impl Iterator<Item = &'a ProcessId>) -> Vec<ProcessId> {
        it.copied().collect()
    }

    #[test]
    fn matches_the_btree_set_reference() {
        let sets: Vec<(ProcessSet, old::ProcessSet)> = reference_inputs()
            .iter()
            .map(|ids| (set(ids), reference(ids)))
            .collect();
        for (s, r) in &sets {
            let list = listed(r.0.iter());
            assert_eq!(format!("{s:?}"), format!("{r:?}"));
            assert_eq!(format!("{s:#?}"), format!("{r:#?}"));
            let shown: Vec<String> = list.iter().map(ProcessId::to_string).collect();
            assert_eq!(s.to_string(), format!("{{{}}}", shown.join(", ")));
            assert_eq!(s.first(), list.first().copied());
            assert_eq!(s.len(), list.len());
            let mut it = s.iter();
            for left in (0..=list.len()).rev() {
                assert_eq!(it.size_hint(), (left, Some(left)));
                assert_eq!(it.next(), list.get(list.len() - left).copied());
            }
            for (t, q) in &sets {
                assert_eq!(s.cmp(t), r.cmp(q), "{s} vs {t}");
                assert_eq!(s.partial_cmp(t), r.partial_cmp(q), "{s} vs {t}");
                assert_eq!(s == t, r == q, "{s} vs {t}");
                assert_eq!(s.is_subset(t), r.0.is_subset(&q.0), "{s} vs {t}");
                assert_eq!(s.intersects(t), !r.0.is_disjoint(&q.0), "{s} vs {t}");
                assert_eq!(members(s.union(t)), listed(r.0.union(&q.0)));
                assert_eq!(members(s.intersection(t)), listed(r.0.intersection(&q.0)));
                assert_eq!(members(s.difference(t)), listed(r.0.difference(&q.0)));
            }
        }
    }

    #[test]
    fn insert_and_remove_report_membership_like_the_reference() {
        for ids in reference_inputs() {
            for p in [0, 3, 5, 6, 62, 63].map(ProcessId) {
                let (mut s, mut r) = (set(&ids), reference(&ids));
                assert_eq!(s.insert(p), r.0.insert(p));
                assert_eq!(s.insert(p), r.0.insert(p));
                assert_eq!(format!("{s:?}"), format!("{r:?}"));
                assert_eq!(s.remove(p), r.0.remove(&p));
                assert_eq!(s.remove(p), r.0.remove(&p));
                assert_eq!(format!("{s:?}"), format!("{r:?}"));
                let (mut s, mut r) = (set(&ids), reference(&ids));
                assert_eq!(s.remove(p), r.0.remove(&p));
                assert_eq!(format!("{s:?}"), format!("{r:?}"));
            }
        }
    }

    #[test]
    fn ids_past_capacity_are_never_members() {
        let mut s = ProcessSet::full(MAX_PROCESSES);
        assert_eq!(s.len(), MAX_PROCESSES);
        assert!(s.contains(ProcessId(63)));
        assert!(!s.contains(ProcessId(64)));
        assert!(!s.remove(ProcessId(64)));
        assert!(!s.contains(ProcessId(usize::MAX)));
        assert_eq!(s.len(), MAX_PROCESSES);
    }

    #[test]
    #[should_panic(expected = "MAX_PROCESSES = 64")]
    fn insert_past_capacity_panics() {
        ProcessSet::new().insert(ProcessId(64));
    }

    #[test]
    #[should_panic(expected = "MAX_PROCESSES = 64")]
    fn full_past_capacity_panics() {
        ProcessSet::full(MAX_PROCESSES + 1);
    }
}
