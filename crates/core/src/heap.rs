//! The bounded candidate buffer: the paper's "sorted buffer of k current
//! nearest neighbors", realized as a max-heap keyed by distance.

use crate::options::Neighbor;
use nnq_geom::Rect;
use nnq_rtree::RecordId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A max-heap entry ordered by squared distance (largest on top).
struct HeapItem<const D: usize>(Neighbor<D>);

impl<const D: usize> PartialEq for HeapItem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.0.dist_sq == other.0.dist_sq
    }
}
impl<const D: usize> Eq for HeapItem<D> {}
impl<const D: usize> PartialOrd for HeapItem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for HeapItem<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.dist_sq.total_cmp(&other.0.dist_sq)
    }
}

/// Most candidates a heap reserves room for up front. A `k` far beyond the
/// data would otherwise allocate for answers that cannot exist; a heap
/// that does fill past this grows as candidates arrive.
const MAX_PREALLOC: usize = 1 << 10;

/// The slots a heap of `k` candidates reserves: `k` and the one a push
/// holds before the pop that trims it, capped before the `+ 1` so that
/// `usize::MAX` does not overflow.
pub(crate) fn prealloc(k: usize) -> usize {
    k.min(MAX_PREALLOC) + 1
}

/// A bounded max-heap holding the k nearest candidates seen so far.
///
/// [`KnnHeap::bound_sq`] — the squared distance of the k-th (worst)
/// candidate, or `+∞` until the heap is full — is the pruning distance the
/// branch-and-bound search compares `MINDIST` values against.
pub struct KnnHeap<const D: usize> {
    k: usize,
    heap: BinaryHeap<HeapItem<D>>,
}

impl<const D: usize> KnnHeap<D> {
    /// Creates a buffer for `k` candidates.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        Self {
            k,
            heap: BinaryHeap::with_capacity(prealloc(k)),
        }
    }

    /// The configured k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Clears the heap and re-arms it for a new query with the given `k`,
    /// keeping the existing storage allocation (the reusable-cursor path).
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "k must be at least 1");
        self.k = k;
        self.heap.clear();
        self.heap.reserve(prealloc(k));
    }

    /// Number of candidates currently held (at most k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current pruning bound: squared distance of the k-th candidate,
    /// or `+∞` while fewer than k candidates are known.
    #[inline]
    pub fn bound_sq(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |i| i.0.dist_sq)
        }
    }

    /// Offers a candidate; it is kept only if it improves the result set.
    /// Returns `true` if the candidate was accepted.
    pub fn offer(&mut self, record: RecordId, mbr: Rect<D>, dist_sq: f64) -> bool {
        if dist_sq >= self.bound_sq() {
            return false;
        }
        self.heap.push(HeapItem(Neighbor {
            record,
            mbr,
            dist_sq,
        }));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
        true
    }

    /// Consumes the heap, returning neighbors sorted by increasing
    /// distance (ties broken by record id for determinism).
    pub fn into_sorted(self) -> Vec<Neighbor<D>> {
        let mut v: Vec<Neighbor<D>> = self.heap.into_iter().map(|i| i.0).collect();
        sort_neighbors(&mut v);
        v
    }

    /// Drains the heap into a sorted result vector (same order as
    /// [`KnnHeap::into_sorted`]) while keeping the heap's storage for the
    /// next [`KnnHeap::reset`].
    pub fn drain_sorted(&mut self) -> Vec<Neighbor<D>> {
        let mut v: Vec<Neighbor<D>> = self.heap.drain().map(|i| i.0).collect();
        sort_neighbors(&mut v);
        v
    }
}

fn sort_neighbors<const D: usize>(v: &mut [Neighbor<D>]) {
    v.sort_by(|a, b| {
        a.dist_sq
            .total_cmp(&b.dist_sq)
            .then_with(|| a.record.cmp(&b.record))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnq_geom::Point;

    fn r(x: f64) -> Rect<2> {
        Rect::from_point(Point::new([x, 0.0]))
    }

    #[test]
    fn bound_is_infinite_until_full() {
        let mut h = KnnHeap::<2>::new(3);
        assert_eq!(h.bound_sq(), f64::INFINITY);
        h.offer(RecordId(0), r(0.0), 5.0);
        h.offer(RecordId(1), r(1.0), 2.0);
        assert_eq!(h.bound_sq(), f64::INFINITY);
        h.offer(RecordId(2), r(2.0), 9.0);
        assert_eq!(h.bound_sq(), 9.0);
    }

    #[test]
    fn keeps_only_the_k_nearest() {
        let mut h = KnnHeap::<2>::new(2);
        for (i, d) in [7.0, 3.0, 5.0, 1.0, 9.0].into_iter().enumerate() {
            h.offer(RecordId(i as u64), r(d), d);
        }
        let out = h.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].dist_sq, 1.0);
        assert_eq!(out[1].dist_sq, 3.0);
    }

    #[test]
    fn rejects_candidates_no_better_than_bound() {
        let mut h = KnnHeap::<2>::new(1);
        assert!(h.offer(RecordId(0), r(0.0), 4.0));
        assert!(!h.offer(RecordId(1), r(1.0), 4.0)); // ties do not replace
        assert!(!h.offer(RecordId(2), r(2.0), 6.0));
        assert!(h.offer(RecordId(3), r(3.0), 1.0));
        let out = h.into_sorted();
        assert_eq!(out[0].record, RecordId(3));
    }

    #[test]
    fn bound_shrinks_monotonically_once_full() {
        let mut h = KnnHeap::<2>::new(2);
        h.offer(RecordId(0), r(0.0), 10.0);
        h.offer(RecordId(1), r(1.0), 8.0);
        let mut prev = h.bound_sq();
        for (i, d) in [6.0, 7.0, 2.0, 3.0].into_iter().enumerate() {
            h.offer(RecordId(2 + i as u64), r(d), d);
            let now = h.bound_sq();
            assert!(now <= prev, "bound grew from {prev} to {now}");
            prev = now;
        }
        assert_eq!(prev, 3.0);
    }

    #[test]
    fn sorted_output_breaks_ties_by_record() {
        let mut h = KnnHeap::<2>::new(3);
        h.offer(RecordId(5), r(0.0), 1.0);
        h.offer(RecordId(2), r(0.0), 1.0);
        h.offer(RecordId(9), r(0.0), 0.5);
        let out = h.into_sorted();
        assert_eq!(
            out.iter().map(|n| n.record).collect::<Vec<_>>(),
            vec![RecordId(9), RecordId(2), RecordId(5)]
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_is_rejected() {
        KnnHeap::<2>::new(0);
    }

    #[test]
    fn reset_and_drain_reuse_the_buffer_across_queries() {
        let mut h = KnnHeap::<2>::new(2);
        h.offer(RecordId(0), r(1.0), 1.0);
        h.offer(RecordId(1), r(2.0), 2.0);
        let first = h.drain_sorted();
        assert_eq!(first.len(), 2);
        assert!(h.is_empty());
        h.reset(1);
        assert_eq!(h.k(), 1);
        assert_eq!(h.bound_sq(), f64::INFINITY);
        h.offer(RecordId(7), r(3.0), 3.0);
        h.offer(RecordId(8), r(4.0), 4.0); // rejected: worse than the k=1 bound
        let second = h.drain_sorted();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].record, RecordId(7));
    }
}
