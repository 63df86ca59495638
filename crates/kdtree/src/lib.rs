//! A bucketed kd-tree with the Friedman–Bentley–Finkel (FBF)
//! nearest-neighbor search.
//!
//! RKV'95's branch-and-bound R-tree search is explicitly an adaptation of
//! the FBF algorithm for kd-trees (*An Algorithm for Finding Best Matches
//! in Logarithmic Expected Time*, TOMS 1977). This crate implements the
//! original as a comparison baseline for the benchmark suite:
//!
//! * **Build**: recursive median split on the dimension of widest spread,
//!   stopping at buckets of `bucket_size` points (FBF's optimized
//!   kd-tree);
//! * **Search**: depth-first descent into the half containing the query,
//!   then the *bounds-overlap-ball* test to decide whether the other half
//!   can contain a closer point — the exact analogue of R-tree `MINDIST`
//!   pruning (the paper's strategy 3).
//!
//! Unlike the R-tree, a kd-tree indexes **points only** and lives in
//! memory; that asymmetry is the reason the paper needed a disk-oriented
//! generalization in the first place.
//!
//! # Example
//!
//! ```
//! use nnq_kdtree::KdTree;
//! use nnq_geom::Point;
//! use nnq_rtree::RecordId;
//!
//! let pts: Vec<(Point<2>, RecordId)> = (0..100u64)
//!     .map(|i| (Point::new([i as f64, 0.0]), RecordId(i)))
//!     .collect();
//! let tree = KdTree::build(pts, 8);
//! let (nn, _) = tree.knn(&Point::new([41.7, 0.0]), 2);
//! assert_eq!(nn[0].record, RecordId(42));
//! assert_eq!(nn[1].record, RecordId(41));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nnq_core::{KnnHeap, Neighbor, SearchStats};
use nnq_geom::{mindist_sq, Point, Rect};
use nnq_rtree::RecordId;

enum Node<const D: usize> {
    Internal {
        /// Splitting dimension.
        dim: usize,
        /// Points with `coord <= split` go left.
        split: f64,
        left: usize,
        right: usize,
        /// Tight bounds of the subtree (for mindist pruning).
        bounds: Rect<D>,
    },
    Leaf {
        /// Range into the reordered point array.
        start: usize,
        end: usize,
        bounds: Rect<D>,
    },
}

/// A static, bucketed kd-tree over `(point, record)` pairs.
pub struct KdTree<const D: usize> {
    nodes: Vec<Node<D>>,
    points: Vec<(Point<D>, RecordId)>,
    root: Option<usize>,
}

impl<const D: usize> KdTree<D> {
    /// Builds a tree by recursive median split; leaves hold at most
    /// `bucket_size` points.
    ///
    /// # Panics
    /// Panics if `bucket_size` is zero or any coordinate is non-finite.
    pub fn build(mut items: Vec<(Point<D>, RecordId)>, bucket_size: usize) -> Self {
        assert!(bucket_size > 0, "bucket size must be at least 1");
        assert!(
            items.iter().all(|(p, _)| p.is_finite()),
            "kd-tree points must be finite"
        );
        let n = items.len();
        let mut tree = Self {
            nodes: Vec::with_capacity(2 * n / bucket_size.max(1) + 1),
            points: Vec::new(),
            root: None,
        };
        if n > 0 {
            let root = tree.build_rec(&mut items, 0, bucket_size);
            tree.points = items;
            tree.root = Some(root);
        }
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of tree nodes (internal + leaf buckets).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Recursively partitions `items` (a subslice starting at `offset` in
    /// the final point array) and returns the subtree's node index.
    ///
    /// Median splitting reorders `items` in place; the recursion consumes
    /// the left half before the right, so the final array is exactly the
    /// in-order concatenation of the leaves and `(offset, offset + len)`
    /// indexes each leaf's points.
    fn build_rec(
        &mut self,
        items: &mut [(Point<D>, RecordId)],
        offset: usize,
        bucket_size: usize,
    ) -> usize {
        let bounds = bounds_of(items);
        if items.len() <= bucket_size {
            let idx = self.nodes.len();
            self.nodes.push(Node::Leaf {
                start: offset,
                end: offset + items.len(),
                bounds,
            });
            return idx;
        }
        // Widest-spread dimension (FBF's spread heuristic).
        let mut dim = 0;
        let mut widest = f64::NEG_INFINITY;
        for d in 0..D {
            let w = bounds.extent(d);
            if w > widest {
                widest = w;
                dim = d;
            }
        }
        let mid = items.len() / 2;
        items.select_nth_unstable_by(mid, |a, b| a.0[dim].total_cmp(&b.0[dim]));
        let split = items[mid].0[dim];
        let (left_items, right_items) = items.split_at_mut(mid);
        let left = self.build_rec(left_items, offset, bucket_size);
        let right = self.build_rec(right_items, offset + mid, bucket_size);
        let idx = self.nodes.len();
        self.nodes.push(Node::Internal {
            dim,
            split,
            left,
            right,
            bounds,
        });
        idx
    }

    /// Finds the `k` points nearest to `q`, returning them sorted by
    /// increasing distance along with traversal counters
    /// (`nodes_visited` counts internal nodes and leaf buckets).
    pub fn knn(&self, q: &Point<D>, k: usize) -> (Vec<Neighbor<D>>, SearchStats) {
        assert!(k > 0, "k must be at least 1");
        let mut heap = KnnHeap::new(k);
        let mut stats = SearchStats::default();
        if let Some(root) = self.root {
            self.search(root, q, &mut heap, &mut stats);
        }
        (heap.drain_sorted(), stats)
    }

    fn search(&self, node: usize, q: &Point<D>, heap: &mut KnnHeap<D>, stats: &mut SearchStats) {
        stats.nodes_visited += 1;
        match &self.nodes[node] {
            Node::Leaf { start, end, .. } => {
                stats.leaves_visited += 1;
                for (p, rid) in &self.points[*start..*end] {
                    let d = q.dist_sq(p);
                    stats.dist_computations += 1;
                    heap.offer(*rid, Rect::from_point(*p), d);
                }
            }
            Node::Internal {
                dim,
                split,
                left,
                right,
                ..
            } => {
                // Descend into the query's side first (FBF).
                let (near, far) = if q[*dim] <= *split {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.search(near, q, heap, stats);
                // Bounds-overlap-ball: visit the far side only if its
                // bounds can contain a closer point.
                let far_bounds = self.node_bounds(far);
                if mindist_sq(q, far_bounds) < heap.bound_sq() {
                    self.search(far, q, heap, stats);
                } else {
                    stats.pruned_upward += 1;
                }
            }
        }
    }

    fn node_bounds(&self, node: usize) -> &Rect<D> {
        match &self.nodes[node] {
            Node::Leaf { bounds, .. } | Node::Internal { bounds, .. } => bounds,
        }
    }

    /// Returns every `(point, record)` whose point lies inside `window`
    /// (boundaries inclusive), visiting only subtrees whose bounds
    /// intersect it.
    pub fn range(&self, window: &Rect<D>) -> Vec<(Point<D>, RecordId)> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.range_rec(root, window, &mut out);
        }
        out
    }

    fn range_rec(&self, node: usize, window: &Rect<D>, out: &mut Vec<(Point<D>, RecordId)>) {
        match &self.nodes[node] {
            Node::Leaf { start, end, bounds } => {
                if !bounds.intersects(window) {
                    return;
                }
                for (p, rid) in &self.points[*start..*end] {
                    if window.contains_point(p) {
                        out.push((*p, *rid));
                    }
                }
            }
            Node::Internal {
                left,
                right,
                bounds,
                ..
            } => {
                if !bounds.intersects(window) {
                    return;
                }
                self.range_rec(*left, window, out);
                self.range_rec(*right, window, out);
            }
        }
    }
}

fn bounds_of<const D: usize>(items: &[(Point<D>, RecordId)]) -> Rect<D> {
    let mut r = Rect::empty();
    for (p, _) in items {
        r.union_in_place(&Rect::from_point(*p));
    }
    r
}
