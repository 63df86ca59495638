//! Best-first k-nearest-neighbor search (Hjaltason & Samet).
//!
//! **Not part of RKV'95** — included as the I/O-optimal comparator for
//! experiment E8. A single global priority queue holds tree nodes keyed by
//! `MINDIST`; nodes are expanded in globally nondecreasing distance order,
//! so no node whose `MINDIST` exceeds the final k-th neighbor distance is
//! ever read.

use crate::heap::KnnHeap;
use crate::options::{KernelMode, Neighbor, SearchStats};
use crate::refine::Refiner;
use crate::Result;
use nnq_geom::{mindist_sq, mindist_sq_batch, Point};
use nnq_rtree::TreeAccess;
use nnq_storage::PageId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct QueueKey(f64);
impl Eq for QueueKey {}
impl PartialOrd for QueueKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Finds the `k` objects nearest to `q` with a global best-first traversal.
///
/// Returns the neighbors (sorted by increasing distance) and the usual work
/// counters; `abl_entries` and the pruning counters remain zero because the
/// algorithm has no ABL.
pub fn best_first_knn<const D: usize, T: TreeAccess<D> + ?Sized, R: Refiner<D>>(
    tree: &T,
    q: &Point<D>,
    k: usize,
    refiner: &R,
) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
    best_first_knn_with(tree, q, k, refiner, KernelMode::default())
}

/// [`best_first_knn`] with an explicit distance-kernel mode. Both modes
/// produce bit-identical results and statistics.
pub fn best_first_knn_with<const D: usize, T: TreeAccess<D> + ?Sized, R: Refiner<D>>(
    tree: &T,
    q: &Point<D>,
    k: usize,
    refiner: &R,
    kernel: KernelMode,
) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
    assert!(k > 0, "k must be at least 1");
    let batch = kernel == KernelMode::Batch;
    let mut mindists: Vec<f64> = Vec::new();
    let mut heap = KnnHeap::new(k);
    let mut stats = SearchStats::default();
    let mut queue: BinaryHeap<Reverse<(QueueKey, PageId)>> = BinaryHeap::new();
    if let Some(root) = tree.access_root() {
        queue.push(Reverse((QueueKey(0.0), root)));
    }
    while let Some(Reverse((QueueKey(dist), page))) = queue.pop() {
        if dist >= heap.bound_sq() {
            break; // every remaining node is at least this far
        }
        let node = tree.access_node(page)?;
        stats.nodes_visited += 1;
        if batch {
            mindist_sq_batch(q, node.soa(), &mut mindists);
        }
        if node.is_leaf() {
            stats.leaves_visited += 1;
            for (j, e) in node.entries().iter().enumerate() {
                let filter = if batch {
                    mindists[j]
                } else {
                    mindist_sq(q, &e.mbr)
                };
                if filter >= heap.bound_sq() {
                    continue;
                }
                let exact = refiner.dist_sq(e.record(), &e.mbr, q);
                stats.dist_computations += 1;
                heap.offer(e.record(), e.mbr, exact);
            }
        } else {
            for (j, e) in node.entries().iter().enumerate() {
                let d = if batch {
                    mindists[j]
                } else {
                    mindist_sq(q, &e.mbr)
                };
                if d < heap.bound_sq() {
                    queue.push(Reverse((QueueKey(d), e.child())));
                }
            }
        }
    }
    Ok((heap.into_sorted(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::MbrRefiner;
    use crate::NnSearch;
    use nnq_geom::Rect;
    use nnq_rtree::{RTree, RTreeConfig, RecordId};
    use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_tree(n: usize, seed: u64) -> RTree<2> {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 8192));
        let tree = RTree::<2>::create(pool, RTreeConfig::for_testing(8)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let p = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            tree.insert(&Rect::from_point(p), RecordId(i as u64))
                .unwrap();
        }
        tree
    }

    #[test]
    fn agrees_with_branch_and_bound() {
        let tree = random_tree(2000, 3);
        let nn = NnSearch::new(&tree);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            let q = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            for k in [1usize, 5, 17] {
                let a = nn.query(&q, k).unwrap();
                let (b, _) = best_first_knn(&tree, &q, k, &MbrRefiner).unwrap();
                let da: Vec<f64> = a.iter().map(|n| n.dist_sq).collect();
                let db: Vec<f64> = b.iter().map(|n| n.dist_sq).collect();
                assert_eq!(da, db);
            }
        }
    }

    #[test]
    fn best_first_never_visits_more_nodes_than_dfs() {
        // I/O-optimality relative to the depth-first search (E8's claim).
        let tree = random_tree(4000, 9);
        let nn = NnSearch::new(&tree);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..20 {
            let q = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            let (_, dfs) = nn.query_with_stats(&q, 10).unwrap();
            let (_, bf) = best_first_knn(&tree, &q, 10, &MbrRefiner).unwrap();
            assert!(
                bf.nodes_visited <= dfs.nodes_visited,
                "best-first {} > DFS {}",
                bf.nodes_visited,
                dfs.nodes_visited
            );
        }
    }

    #[test]
    fn empty_tree() {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 16));
        let tree = RTree::<2>::create(pool, RTreeConfig::default()).unwrap();
        let (out, stats) = best_first_knn(&tree, &Point::new([0.0, 0.0]), 3, &MbrRefiner).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.nodes_visited, 0);
    }
}
