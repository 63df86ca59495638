//! Distance-range ("within radius") queries.
//!
//! A natural companion of kNN search on the same metric machinery: report
//! every object within a given distance of the query point. The traversal
//! descends only into subtrees whose `MINDIST` is within the radius — the
//! same optimistic bound the kNN search prunes with, used here as an
//! absolute cutoff.

use crate::heap::sort_hits;
use crate::options::{KernelMode, Neighbor, SearchStats};
use crate::refine::Refiner;
use crate::Result;
use nnq_geom::Point;
use nnq_rtree::TreeAccess;

/// Returns every object whose exact distance from `q` is at most `radius`
/// (linear units, not squared), sorted by increasing distance and then
/// record id (`heap.rs`'s `sort_hits`), along with the traversal counters.
pub fn within_radius<const D: usize, T: TreeAccess<D> + ?Sized, R: Refiner<D>>(
    tree: &T,
    q: &Point<D>,
    radius: f64,
    refiner: &R,
) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
    within_radius_with(tree, q, radius, refiner, KernelMode::default())
}

/// [`within_radius`] with an explicit distance-kernel mode. Both modes
/// produce bit-identical results and statistics.
pub fn within_radius_with<const D: usize, T: TreeAccess<D> + ?Sized, R: Refiner<D>>(
    tree: &T,
    q: &Point<D>,
    radius: f64,
    refiner: &R,
    kernel: KernelMode,
) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
    assert!(radius >= 0.0, "radius must be nonnegative");
    let radius_sq = radius * radius;
    let mut mindists: Vec<f64> = Vec::new();
    let mut out = Vec::new();
    let mut stats = SearchStats::default();
    let Some(root) = tree.access_root() else {
        return Ok((out, stats));
    };
    let mut stack = vec![root];
    while let Some(page) = stack.pop() {
        let node = tree.access_node(page)?;
        stats.nodes_visited += 1;
        kernel.mindists(q, &node, &mut mindists);
        if node.is_leaf() {
            stats.leaves_visited += 1;
            for (e, &filter) in node.entries().iter().zip(&mindists) {
                if filter > radius_sq {
                    stats.pruned_upward += 1;
                    continue;
                }
                let exact = refiner.dist_sq(e.record(), &e.mbr, q);
                stats.dist_computations += 1;
                if exact <= radius_sq {
                    out.push(Neighbor {
                        record: e.record(),
                        mbr: e.mbr,
                        dist_sq: exact,
                    });
                }
            }
        } else {
            for (e, &d) in node.entries().iter().zip(&mindists) {
                if d <= radius_sq {
                    stack.push(e.child());
                } else {
                    stats.pruned_upward += 1;
                }
            }
        }
    }
    sort_hits(&mut out);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::MbrRefiner;
    use nnq_geom::Rect;
    use nnq_rtree::{RTree, RTreeConfig, RecordId};
    use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
    use std::sync::Arc;

    fn grid_tree(n_side: u64) -> RTree<2> {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 4096));
        let tree = RTree::<2>::create(pool, RTreeConfig::for_testing(6)).unwrap();
        for x in 0..n_side {
            for y in 0..n_side {
                let p = Point::new([x as f64, y as f64]);
                tree.insert(&Rect::from_point(p), RecordId(x * n_side + y))
                    .unwrap();
            }
        }
        tree
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let tree = grid_tree(20);
        let q = Point::new([7.3, 11.8]);
        for radius in [0.0, 0.5, 1.7, 3.0, 50.0] {
            let (got, _) = within_radius(&tree, &q, radius, &MbrRefiner).unwrap();
            let want: usize = (0..20)
                .flat_map(|x| (0..20).map(move |y| (x, y)))
                .filter(|&(x, y)| {
                    let dx = x as f64 - q[0];
                    let dy = y as f64 - q[1];
                    (dx * dx + dy * dy).sqrt() <= radius
                })
                .count();
            assert_eq!(got.len(), want, "radius {radius}");
            // Sorted, and every hit within the radius.
            for w in got.windows(2) {
                assert!(w[0].dist_sq <= w[1].dist_sq);
            }
            for n in &got {
                assert!(n.dist_sq.sqrt() <= radius + 1e-12);
            }
        }
    }

    #[test]
    fn radius_pruning_skips_far_subtrees() {
        let tree = grid_tree(30);
        let total = tree.stats().unwrap().nodes;
        let (_, stats) = within_radius(&tree, &Point::new([2.0, 2.0]), 2.0, &MbrRefiner).unwrap();
        assert!(
            stats.nodes_visited * 3 < total,
            "visited {} of {total}",
            stats.nodes_visited
        );
    }

    #[test]
    fn zero_radius_finds_exact_matches_only() {
        let tree = grid_tree(5);
        let (got, _) = within_radius(&tree, &Point::new([2.0, 3.0]), 0.0, &MbrRefiner).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dist_sq, 0.0);
        let (got, _) = within_radius(&tree, &Point::new([2.5, 3.0]), 0.0, &MbrRefiner).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn empty_tree_yields_empty() {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 16));
        let tree = RTree::<2>::create(pool, RTreeConfig::default()).unwrap();
        let (got, stats) =
            within_radius(&tree, &Point::new([0.0, 0.0]), 100.0, &MbrRefiner).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats.nodes_visited, 0);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_radius_panics() {
        let tree = grid_tree(2);
        let _ = within_radius(&tree, &Point::new([0.0, 0.0]), -1.0, &MbrRefiner);
    }
}
