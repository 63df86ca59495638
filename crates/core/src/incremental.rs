//! Incremental nearest-neighbor iteration ("distance browsing").
//!
//! **Not part of RKV'95** — a later-literature extension (Hjaltason &
//! Samet) included for experiment E8 and for applications that do not know
//! k in advance. A single priority queue mixes tree nodes and objects;
//! popping in globally nondecreasing distance order yields neighbors one
//! at a time, lazily reading only the nodes that are actually needed.

use crate::options::{KernelMode, Neighbor, NnOptions, SearchStats};
use crate::refine::Refiner;
use nnq_geom::{mindist_sq, mindist_sq_batch, Point, Rect};
use nnq_rtree::{RTree, RecordId, TreeAccess};
use nnq_storage::PageId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

enum Item<const D: usize> {
    Node(PageId),
    /// An object known only by its filter (MBR) distance.
    Filtered(RecordId, Rect<D>),
    /// An object with its exact distance computed.
    Exact(RecordId, Rect<D>),
}

struct Keyed<const D: usize> {
    dist: f64,
    /// Tie-break so exact objects pop before nodes/filtered items at the
    /// same distance (guarantees progress on zero-distance ties).
    rank: u8,
    item: Item<D>,
}

impl<const D: usize> PartialEq for Keyed<D> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.rank == other.rank
    }
}
impl<const D: usize> Eq for Keyed<D> {}
impl<const D: usize> PartialOrd for Keyed<D> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for Keyed<D> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.rank.cmp(&other.rank))
    }
}

/// An iterator yielding the objects of an R-tree in nondecreasing distance
/// from a query point.
///
/// ```
/// use nnq_core::{IncrementalNn, MbrRefiner};
/// use nnq_rtree::{RTree, RTreeConfig, RecordId};
/// use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
/// use nnq_geom::{Point, Rect};
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 64));
/// let mut tree = RTree::<2>::create(pool, RTreeConfig::default()).unwrap();
/// for i in 0..10u64 {
///     tree.insert(&Rect::from_point(Point::new([i as f64, 0.0])), RecordId(i)).unwrap();
/// }
/// let mut iter = IncrementalNn::new(&tree, Point::new([3.2, 0.0]), MbrRefiner);
/// let first = iter.next().unwrap().unwrap();
/// assert_eq!(first.record, RecordId(3));
/// // Keep pulling as long as you like; distances never decrease.
/// let second = iter.next().unwrap().unwrap();
/// assert_eq!(second.record, RecordId(4));
/// ```
pub struct IncrementalNn<'t, const D: usize, R, T: TreeAccess<D> + ?Sized = RTree<D>> {
    tree: &'t T,
    q: Point<D>,
    refiner: R,
    queue: BinaryHeap<Reverse<Keyed<D>>>,
    stats: SearchStats,
    kernel: KernelMode,
    /// Scratch for the batched per-node `MINDIST` pass, reused across the
    /// whole iteration.
    mindists: Vec<f64>,
}

impl<'t, const D: usize, R: Refiner<D>, T: TreeAccess<D> + ?Sized> IncrementalNn<'t, D, R, T> {
    /// Starts a distance-browsing iteration from `q`.
    pub fn new(tree: &'t T, q: Point<D>, refiner: R) -> Self {
        Self::with_options(tree, q, refiner, NnOptions::default())
    }

    /// [`IncrementalNn::new`] honoring the kernel field of `opts`; both
    /// kernel modes produce bit-identical neighbors and statistics. The
    /// pruning toggles and the prefetch policy do not apply: distance
    /// browsing has no ABL, and a lone traversal issues no hints.
    pub fn with_options(tree: &'t T, q: Point<D>, refiner: R, opts: NnOptions) -> Self {
        let mut queue = BinaryHeap::new();
        if let Some(root) = tree.access_root() {
            queue.push(Reverse(Keyed {
                dist: 0.0,
                rank: 2,
                item: Item::Node(root),
            }));
        }
        Self {
            tree,
            q,
            refiner,
            queue,
            stats: SearchStats::default(),
            kernel: opts.kernel,
            mindists: Vec::new(),
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }
}

impl<const D: usize, R: Refiner<D>, T: TreeAccess<D> + ?Sized> Iterator
    for IncrementalNn<'_, D, R, T>
{
    type Item = crate::Result<Neighbor<D>>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(Reverse(Keyed { dist, item, .. })) = self.queue.pop() {
            match item {
                Item::Exact(record, mbr) => {
                    return Some(Ok(Neighbor {
                        record,
                        mbr,
                        dist_sq: dist,
                    }));
                }
                Item::Filtered(record, mbr) => {
                    let exact = self.refiner.dist_sq(record, &mbr, &self.q);
                    self.stats.dist_computations += 1;
                    self.queue.push(Reverse(Keyed {
                        dist: exact,
                        rank: 0,
                        item: Item::Exact(record, mbr),
                    }));
                }
                Item::Node(page) => {
                    let node = match self.tree.access_node(page) {
                        Ok(n) => n,
                        Err(e) => return Some(Err(e)),
                    };
                    self.stats.nodes_visited += 1;
                    let batch = self.kernel == KernelMode::Batch;
                    if batch {
                        mindist_sq_batch(&self.q, node.soa(), &mut self.mindists);
                    }
                    if node.is_leaf() {
                        self.stats.leaves_visited += 1;
                        for (j, e) in node.entries().iter().enumerate() {
                            self.queue.push(Reverse(Keyed {
                                dist: if batch {
                                    self.mindists[j]
                                } else {
                                    mindist_sq(&self.q, &e.mbr)
                                },
                                rank: 1,
                                item: Item::Filtered(e.record(), e.mbr),
                            }));
                        }
                    } else {
                        for (j, e) in node.entries().iter().enumerate() {
                            self.queue.push(Reverse(Keyed {
                                dist: if batch {
                                    self.mindists[j]
                                } else {
                                    mindist_sq(&self.q, &e.mbr)
                                },
                                rank: 2,
                                item: Item::Node(e.child()),
                            }));
                        }
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::MbrRefiner;
    use crate::NnSearch;
    use nnq_rtree::RTreeConfig;
    use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_tree(n: usize, seed: u64) -> RTree<2> {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 8192));
        let tree = RTree::<2>::create(pool, RTreeConfig::for_testing(8)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let p = Point::new([rng.random_range(0.0..50.0), rng.random_range(0.0..50.0)]);
            tree.insert(&Rect::from_point(p), RecordId(i as u64))
                .unwrap();
        }
        tree
    }

    #[test]
    fn yields_all_objects_in_nondecreasing_order() {
        let tree = random_tree(500, 6);
        let q = Point::new([25.0, 25.0]);
        let all: Vec<Neighbor<2>> = IncrementalNn::new(&tree, q, MbrRefiner)
            .collect::<crate::Result<_>>()
            .unwrap();
        assert_eq!(all.len(), 500);
        for w in all.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq);
        }
    }

    #[test]
    fn prefix_equals_knn_query() {
        let tree = random_tree(800, 7);
        let nn = NnSearch::new(&tree);
        let q = Point::new([10.0, 40.0]);
        let knn = nn.query(&q, 12).unwrap();
        let inc: Vec<Neighbor<2>> = IncrementalNn::new(&tree, q, MbrRefiner)
            .take(12)
            .collect::<crate::Result<_>>()
            .unwrap();
        let a: Vec<f64> = knn.iter().map(|n| n.dist_sq).collect();
        let b: Vec<f64> = inc.iter().map(|n| n.dist_sq).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn lazy_iteration_reads_few_nodes() {
        let tree = random_tree(5000, 8);
        let total_nodes = tree.stats().unwrap().nodes;
        let mut iter = IncrementalNn::new(&tree, Point::new([25.0, 25.0]), MbrRefiner);
        let _first = iter.next().unwrap().unwrap();
        assert!(
            iter.stats().nodes_visited * 10 < total_nodes,
            "read {} of {} nodes for one neighbor",
            iter.stats().nodes_visited,
            total_nodes
        );
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 16));
        let tree = RTree::<2>::create(pool, RTreeConfig::default()).unwrap();
        let mut iter = IncrementalNn::new(&tree, Point::new([0.0, 0.0]), MbrRefiner);
        assert!(iter.next().is_none());
    }
}
