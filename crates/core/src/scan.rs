//! Sequential-scan baselines.
//!
//! The motivating comparison of the paper (experiment E6): finding nearest
//! neighbors without an index means touching every object. Two variants
//! are provided — one that scans the tree's leaf level (paying the same
//! page accesses a real system would), and one over a caller-side slice
//! (the pure-CPU baseline).

use crate::heap::KnnHeap;
use crate::options::{Neighbor, SearchStats};
use crate::refine::Refiner;
use crate::Result;
use nnq_geom::{Point, Rect};
use nnq_rtree::{RecordId, TreeAccess};

/// k nearest neighbors by scanning every data entry of the tree (reads
/// every node, like a full-table scan would).
pub fn linear_scan_knn<const D: usize, T: TreeAccess<D> + ?Sized, R: Refiner<D>>(
    tree: &T,
    q: &Point<D>,
    k: usize,
    refiner: &R,
) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
    assert!(k > 0, "k must be at least 1");
    let mut heap = KnnHeap::new(k);
    let mut stats = SearchStats::default();
    let Some(root) = tree.access_root() else {
        return Ok((Vec::new(), stats));
    };
    let mut stack = vec![root];
    while let Some(page) = stack.pop() {
        let node = tree.access_node(page)?;
        stats.nodes_visited += 1;
        if node.is_leaf() {
            stats.leaves_visited += 1;
            for e in node.entries() {
                let exact = refiner.dist_sq(e.record(), &e.mbr, q);
                stats.dist_computations += 1;
                heap.offer(e.record(), e.mbr, exact);
            }
        } else {
            for e in node.entries() {
                stack.push(e.child());
            }
        }
    }
    Ok((heap.drain_sorted(), stats))
}

/// k nearest neighbors over an in-memory slice of `(mbr, record)` items —
/// the index-free ground truth used by tests.
pub fn scan_items_knn<const D: usize, R: Refiner<D>>(
    items: &[(Rect<D>, RecordId)],
    q: &Point<D>,
    k: usize,
    refiner: &R,
) -> Vec<Neighbor<D>> {
    assert!(k > 0, "k must be at least 1");
    let mut heap = KnnHeap::new(k);
    for (mbr, rid) in items {
        heap.offer(*rid, *mbr, refiner.dist_sq(*rid, mbr, q));
    }
    heap.drain_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::MbrRefiner;
    use nnq_rtree::{RTree, RTreeConfig};
    use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
    use std::sync::Arc;

    #[test]
    fn scan_matches_slice_ground_truth() {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1024));
        let tree = RTree::<2>::create(pool, RTreeConfig::for_testing(8)).unwrap();
        let items: Vec<(Rect<2>, RecordId)> = (0..300u64)
            .map(|i| {
                let p = Point::new([(i % 17) as f64, (i % 23) as f64]);
                (Rect::from_point(p), RecordId(i))
            })
            .collect();
        for (r, id) in &items {
            tree.insert(r, *id).unwrap();
        }
        let q = Point::new([8.5, 11.5]);
        let (a, stats) = linear_scan_knn(&tree, &q, 5, &MbrRefiner).unwrap();
        let b = scan_items_knn(&items, &q, 5, &MbrRefiner);
        // Ties at the k-th distance may resolve to different records
        // depending on visit order; the distance multiset is what must
        // agree.
        let da: Vec<f64> = a.iter().map(|n| n.dist_sq).collect();
        let db: Vec<f64> = b.iter().map(|n| n.dist_sq).collect();
        assert_eq!(da, db);
        assert_eq!(stats.dist_computations, 300);
        // The scan reads the whole tree.
        assert_eq!(stats.nodes_visited, tree.stats().unwrap().nodes);
    }

    #[test]
    fn scan_of_empty_tree() {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 16));
        let tree = RTree::<2>::create(pool, RTreeConfig::default()).unwrap();
        let (out, _) = linear_scan_knn(&tree, &Point::new([0.0, 0.0]), 4, &MbrRefiner).unwrap();
        assert!(out.is_empty());
        assert!(scan_items_knn::<2, _>(&[], &Point::new([0.0, 0.0]), 4, &MbrRefiner).is_empty());
    }
}
