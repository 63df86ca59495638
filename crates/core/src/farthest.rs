//! k-farthest-neighbor search.
//!
//! The mirror image of the paper's problem, pruned by the mirror-image
//! bound: `MAXDIST(P, R)` (distance to the farthest corner) upper-bounds
//! the distance to any object inside `R`, so a subtree whose `MAXDIST`
//! does not exceed the current k-th *farthest* candidate can be skipped.
//! A best-first traversal in decreasing `MAXDIST` order visits only the
//! promising fringe of the tree.
//!
//! Exact for point and rectangle objects (the object is its MBR); for
//! refined objects (e.g. segments) the ranking uses the refiner's exact
//! distance while `MAXDIST` stays a valid upper bound because every object
//! lies inside its MBR.

use crate::options::{KernelMode, Neighbor, SearchStats};
use crate::refine::Refiner;
use crate::Result;
use nnq_geom::{maxdist_sq, maxdist_sq_batch, Point};
use nnq_rtree::{RecordId, TreeAccess};
use nnq_storage::PageId;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct Key(f64);
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A bounded *min*-heap over the k farthest candidates: the root is the
/// k-th farthest (weakest) candidate, i.e. the pruning bound.
struct FarHeap<const D: usize> {
    k: usize,
    heap: BinaryHeap<std::cmp::Reverse<(Key, RecordId, usize)>>,
    entries: Vec<Neighbor<D>>,
}

impl<const D: usize> FarHeap<D> {
    fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(crate::heap::prealloc(k)),
            entries: Vec::new(),
        }
    }

    /// Squared distance of the k-th farthest candidate (`-∞` until full —
    /// everything is accepted while the heap has room).
    fn bound_sq(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::NEG_INFINITY
        } else {
            self.heap
                .peek()
                .map_or(f64::NEG_INFINITY, |std::cmp::Reverse((Key(d), _, _))| *d)
        }
    }

    fn offer(&mut self, n: Neighbor<D>) {
        if n.dist_sq <= self.bound_sq() {
            return;
        }
        let slot = self.entries.len();
        self.entries.push(n);
        self.heap
            .push(std::cmp::Reverse((Key(n.dist_sq), n.record, slot)));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    fn into_sorted(self) -> Vec<Neighbor<D>> {
        let mut kept: Vec<Neighbor<D>> = self
            .heap
            .into_iter()
            .map(|std::cmp::Reverse((_, _, slot))| self.entries[slot])
            .collect();
        kept.sort_by(|a, b| {
            b.dist_sq
                .total_cmp(&a.dist_sq)
                .then_with(|| a.record.cmp(&b.record))
        });
        kept
    }
}

/// Finds the `k` objects **farthest** from `q`, sorted by decreasing
/// distance.
pub fn farthest_knn<const D: usize, T: TreeAccess<D> + ?Sized, R: Refiner<D>>(
    tree: &T,
    q: &Point<D>,
    k: usize,
    refiner: &R,
) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
    farthest_knn_with(tree, q, k, refiner, KernelMode::default())
}

/// [`farthest_knn`] with an explicit distance-kernel mode. Both modes
/// produce bit-identical results and statistics.
pub fn farthest_knn_with<const D: usize, T: TreeAccess<D> + ?Sized, R: Refiner<D>>(
    tree: &T,
    q: &Point<D>,
    k: usize,
    refiner: &R,
    kernel: KernelMode,
) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
    assert!(k > 0, "k must be at least 1");
    let batch = kernel == KernelMode::Batch;
    let mut maxdists: Vec<f64> = Vec::new();
    let mut far = FarHeap::new(k);
    let mut stats = SearchStats::default();
    // Max-heap on MAXDIST: most promising (farthest-reaching) node first.
    let mut queue: BinaryHeap<(Key, PageId)> = BinaryHeap::new();
    if let Some(root) = tree.access_root() {
        queue.push((Key(f64::INFINITY), root));
    }
    while let Some((Key(bound), page)) = queue.pop() {
        if bound <= far.bound_sq() {
            break; // no remaining node can reach beyond the k-th farthest
        }
        let node = tree.access_node(page)?;
        stats.nodes_visited += 1;
        if batch {
            maxdist_sq_batch(q, node.soa(), &mut maxdists);
        }
        if node.is_leaf() {
            stats.leaves_visited += 1;
            for (j, e) in node.entries().iter().enumerate() {
                let d = if batch {
                    maxdists[j]
                } else {
                    maxdist_sq(q, &e.mbr)
                };
                if d <= far.bound_sq() {
                    stats.pruned_upward += 1;
                    continue;
                }
                let exact = refiner.dist_sq(e.record(), &e.mbr, q);
                stats.dist_computations += 1;
                far.offer(Neighbor {
                    record: e.record(),
                    mbr: e.mbr,
                    dist_sq: exact,
                });
            }
        } else {
            for (j, e) in node.entries().iter().enumerate() {
                let d = if batch {
                    maxdists[j]
                } else {
                    maxdist_sq(q, &e.mbr)
                };
                if d > far.bound_sq() {
                    queue.push((Key(d), e.child()));
                } else {
                    stats.pruned_upward += 1;
                }
            }
        }
    }
    Ok((far.into_sorted(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::MbrRefiner;
    use nnq_geom::Rect;
    use nnq_rtree::MemRTree;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_setup(n: usize, seed: u64) -> (MemRTree<2>, Vec<Point<2>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = MemRTree::new();
        let mut pts = Vec::new();
        for i in 0..n {
            let p = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            tree.insert(&Rect::from_point(p), RecordId(i as u64))
                .unwrap();
            pts.push(p);
        }
        (tree, pts)
    }

    #[test]
    fn matches_brute_force() {
        let (tree, pts) = random_setup(2_000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..25 {
            let q = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            for k in [1usize, 5, 13] {
                let (got, _) = farthest_knn(&tree, &q, k, &MbrRefiner).unwrap();
                let mut want: Vec<f64> = pts.iter().map(|p| q.dist_sq(p)).collect();
                want.sort_by(|a, b| b.total_cmp(a));
                let gd: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
                assert_eq!(gd, want[..k].to_vec());
            }
        }
    }

    #[test]
    fn results_sorted_decreasing() {
        let (tree, _) = random_setup(500, 5);
        let (got, _) = farthest_knn(&tree, &Point::new([50.0, 50.0]), 20, &MbrRefiner).unwrap();
        for w in got.windows(2) {
            assert!(w[0].dist_sq >= w[1].dist_sq);
        }
    }

    #[test]
    fn pruning_avoids_full_traversal() {
        let (tree, _) = random_setup(50_000, 7);
        let total = tree.stats().unwrap().nodes;
        // Query at a corner: the farthest points are in the opposite
        // corner, and most of the tree is prunable.
        let (_, stats) = farthest_knn(&tree, &Point::new([0.0, 0.0]), 3, &MbrRefiner).unwrap();
        assert!(
            stats.nodes_visited * 5 < total,
            "visited {} of {total}",
            stats.nodes_visited
        );
    }

    #[test]
    fn k_exceeding_size_returns_everything() {
        let (tree, pts) = random_setup(50, 9);
        let (got, _) = farthest_knn(&tree, &Point::new([0.0, 0.0]), 100, &MbrRefiner).unwrap();
        assert_eq!(got.len(), pts.len());
    }

    #[test]
    fn empty_tree() {
        let tree = MemRTree::<2>::new();
        let (got, _) = farthest_knn(&tree, &Point::new([0.0, 0.0]), 3, &MbrRefiner).unwrap();
        assert!(got.is_empty());
    }
}
