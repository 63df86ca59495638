//! The bounded candidate buffer: the paper's "sorted buffer of k current
//! nearest neighbors", realized as a max-heap keyed by distance, and
//! [`sort_hits`], the one ordering of every nearest-first hit list the crate
//! returns.

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
        sort_hits(&mut v);
        v
    }

    /// Drains the heap into a sorted result vector (same order as
    /// [`KnnHeap::into_sorted`]) while keeping the heap's storage for the
    /// next [`KnnHeap::reset`].
    pub fn drain_sorted(&mut self) -> Vec<Neighbor<D>> {
        let mut v: Vec<Neighbor<D>> = self.heap.drain().map(|i| i.0).collect();
        sort_hits(&mut v);
        v
    }
}

/// Orders a hit list by increasing distance (`f64::total_cmp`), then by
/// record id, keeping hits equal in both in their given order — exactly
/// the permutation of a stable sort by that pair, ties, `-0.0` and NaN
/// included. Every nearest-first hit list the crate returns is ordered by
/// this one function: a kNN heap's drain, a radius query's hits and a
/// scatter-gather merge of them.
///
/// The list is not sorted by moving its `Neighbor`s: it sorts compact
/// `(distance key, record, index)` triples — the index makes each one
/// distinct, so an unstable sort of them is the stable permutation — and
/// then gathers the hits in that order.
pub(crate) fn sort_hits<const D: usize>(hits: &mut Vec<Neighbor<D>>) {
    let mut keys: Vec<(u64, u64, usize)> = hits
        .iter()
        .enumerate()
        .map(|(i, h)| (total_order_key(h.dist_sq), h.record.0, i))
        .collect();
    keys.sort_unstable();
    let sorted = keys.iter().map(|&(_, _, i)| hits[i]).collect();
    *hits = sorted;
}

/// An unsigned key whose order is `f64::total_cmp`'s: a negative value
/// (sign bit set) has all its bits flipped, a positive one only its sign.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
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

/// [`sort_hits`] is a stable sort by `(distance by f64::total_cmp, record)`,
/// checked directly and on every path whose hit list it orders, on lists
/// of a few to a thousand hits, with tied distances, one record id
/// repeated under different MBRs (only stability tells those apart),
/// `-0.0` beside `+0.0`, and NaN distances (a refiner may return them and
/// `KnnHeap::offer` accepts them).
#[cfg(test)]
mod hit_order {
    use super::*;
    use crate::{scatter_radius, within_radius, FnRefiner, NnOptions};
    use nnq_geom::Point;
    use nnq_rtree::{Forest, MemRTree, RTreeConfig};
    use std::sync::Mutex;

    /// The ordering every hit list had before `sort_hits`: a stable sort.
    fn reference(hits: &[Neighbor<2>]) -> Vec<Neighbor<2>> {
        let mut v = hits.to_vec();
        v.sort_by(|a, b| {
            a.dist_sq
                .total_cmp(&b.dist_sq)
                .then_with(|| a.record.cmp(&b.record))
        });
        v
    }

    /// A hit by its bits: record, distance and MBR.
    fn bits(n: &Neighbor<2>) -> (u64, u64, [u64; 4]) {
        let (lo, hi) = (n.mbr.lo(), n.mbr.hi());
        let mbr = [lo[0], lo[1], hi[0], hi[1]].map(f64::to_bits);
        (n.record.0, n.dist_sq.to_bits(), mbr)
    }

    fn assert_order(got: &[Neighbor<2>], want: &[Neighbor<2>], what: &str) {
        let got: Vec<_> = got.iter().map(bits).collect();
        let want: Vec<_> = want.iter().map(bits).collect();
        assert_eq!(got, want, "{what}");
    }

    /// The `i`-th of a run of hits: few distinct distances and records, so
    /// that whole groups tie, each hit with an MBR of its own.
    fn hit(i: usize, distances: &[f64]) -> Neighbor<2> {
        let x = i as f64;
        Neighbor {
            record: RecordId((i * 7 % 5) as u64),
            mbr: Rect::new(Point::new([x, 0.0]), Point::new([x, 1.0])),
            dist_sq: distances[i * 7 % distances.len()],
        }
    }

    /// Distances as a refiner may return them: ties, both zeros, NaNs of
    /// either sign and the infinities.
    const DISTANCES: [f64; 9] = [
        1.0,
        -0.0,
        0.0,
        f64::NAN,
        2.5,
        -f64::NAN,
        1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    const SIZES: [usize; 9] = [0, 1, 2, 17, 31, 32, 33, 100, 1_000];

    #[test]
    fn sort_hits_is_a_stable_sort() {
        for n in SIZES {
            let hits: Vec<_> = (0..n).map(|i| hit(i, &DISTANCES)).collect();
            let mut got = hits.clone();
            sort_hits(&mut got);
            assert_order(&got, &reference(&hits), &format!("{n} hits"));
        }
    }

    #[test]
    fn drain_sorted_orders_the_heap_as_a_stable_sort() {
        for n in SIZES {
            for k in [1, 4, 32, 33, 2_000] {
                let mut h = KnnHeap::<2>::new(k);
                for i in 0..n {
                    let n = hit(i, &DISTANCES);
                    h.offer(n.record, n.mbr, n.dist_sq);
                }
                // Draining hands the hits out in the heap's storage order.
                let held: Vec<_> = h.heap.iter().map(|i| i.0).collect();
                assert_order(
                    &h.drain_sorted(),
                    &reference(&held),
                    &format!("{n} offers, k={k}"),
                );
            }
        }
    }

    /// A tree of `n` points on a line, record ids repeating every 5, and a
    /// refiner that logs each object it is asked for, in call order, and
    /// gives it a distance from [`DISTANCES`] with the NaNs (which no
    /// radius admits) left out.
    fn line(n: usize, x0: f64) -> MemRTree<2> {
        let tree = MemRTree::with_config(RTreeConfig::default(), 8);
        for i in 0..n {
            let p = Point::new([x0 + i as f64, 0.0]);
            tree.insert(&Rect::from_point(p), RecordId((i % 5) as u64))
                .unwrap();
        }
        tree
    }

    type Log = Mutex<Vec<Neighbor<2>>>;

    fn logging(log: &Log) -> FnRefiner<impl Fn(RecordId, &Rect<2>, &Point<2>) -> f64 + Sync + '_> {
        const FINITE: [f64; 6] = [1.0, -0.0, 0.0, 2.5, 1.0, 0.5];
        FnRefiner::new(move |record, mbr: &Rect<2>, _: &Point<2>| {
            let dist_sq = FINITE[mbr.lo()[0] as usize * 5 % FINITE.len()];
            let hit = Neighbor {
                record,
                mbr: *mbr,
                dist_sq,
            };
            log.lock().unwrap().push(hit);
            dist_sq
        })
    }

    #[test]
    fn within_radius_orders_its_hits_as_a_stable_sort() {
        for n in [3, 20, 40, 600] {
            let tree = line(n, 0.0);
            let log = Log::default();
            let (got, _) =
                within_radius(&tree, &Point::new([0.0, 0.0]), 1e9, &logging(&log)).unwrap();
            let refined = log.into_inner().unwrap();
            assert_eq!(got.len(), n);
            assert_order(&got, &reference(&refined), &format!("{n} points"));
        }
    }

    #[test]
    fn scatter_radius_over_four_trees_orders_its_hits_as_a_stable_sort() {
        for n in [2, 10, 150] {
            let trees: Vec<_> = (0..4).map(|t| line(n, 1_000.0 * t as f64)).collect();
            let q = Point::new([1_500.0, 0.0]);
            let log = Log::default();
            let (got, stats) = scatter_radius(
                Forest::new(&trees),
                &q,
                1e9,
                NnOptions::default(),
                &logging(&log),
                1,
            )
            .unwrap();
            assert_eq!(stats.partitions_visited, 4);
            // One worker refines the trees one after another, so the log
            // holds every hit in the order the merge receives them.
            let refined = log.into_inner().unwrap();
            assert_eq!(got.len(), 4 * n);
            assert_order(&got, &reference(&refined), &format!("4 × {n} points"));
            let log = Log::default();
            let (two_workers, _) = scatter_radius(
                Forest::new(&trees),
                &q,
                1e9,
                NnOptions::default(),
                &logging(&log),
                2,
            )
            .unwrap();
            assert_order(&two_workers, &got, &format!("4 × {n} points, two workers"));
        }
    }
}
