//! Nearest-neighbor queries over R-trees — the primary contribution of
//! Roussopoulos, Kelley, and Vincent, *Nearest Neighbor Queries*,
//! SIGMOD 1995.
//!
//! The paper introduces a **branch-and-bound, ordered depth-first**
//! traversal of an R-tree that finds the k objects nearest to a query
//! point while visiting only a small fraction of the index:
//!
//! 1. At each visited internal node, the child entries form an **Active
//!    Branch List (ABL)**, sorted by either `MINDIST` (optimistic) or
//!    `MINMAXDIST` (pessimistic) — the paper's central experimental
//!    comparison, reproduced by experiment E2.
//! 2. Three **pruning strategies** discard branches that cannot contain a
//!    better neighbor (all three individually togglable here, for the E3
//!    ablation):
//!    * *downward pruning* (S1): an entry whose `MINDIST` exceeds the k-th
//!      smallest `MINMAXDIST` bound seen so far cannot contribute;
//!    * *object pruning* (S2): an object farther than some `MINMAXDIST`
//!      bound cannot be among the k nearest;
//!    * *upward pruning* (S3): an entry whose `MINDIST` is no less than the
//!      distance to the current k-th candidate cannot improve the result.
//! 3. The k candidates live in a bounded max-heap ([`KnnHeap`]), exactly
//!    the paper's "sorted buffer of k current nearest neighbors".
//!
//! The crate also implements the comparison algorithms used by the
//! benchmark suite — these are *not* part of RKV'95 and are labeled as
//! such:
//!
//! * [`linear_scan_knn`] — the sequential-scan baseline;
//! * [`best_first_knn`] — the global-priority-queue algorithm of
//!   Hjaltason & Samet, which is I/O-optimal and serves as the lower
//!   bound in experiment E8;
//! * [`IncrementalNn`] — distance browsing: an iterator yielding neighbors
//!   in nondecreasing distance order.
//!
//! Each query family has one public entry, and each takes its options as
//! one [`NnOptions`] — `best_first_knn(tree, q, k, opts, refiner)`,
//! `IncrementalNn::new(tree, q, opts, refiner)`,
//! `intersection_join(left, right, opts)` — so the distance kernel
//! ([`KernelMode`]) is chosen by `opts.kernel` everywhere.
//!
//! Objects may be points, rectangles, or anything with a rectangular
//! filter bound: exact distances are supplied by a [`Refiner`]
//! (filter-refine, as the paper does for map segments).
//!
//! # Example
//!
//! ```
//! use nnq_core::NnSearch;
//! use nnq_rtree::{RTree, RTreeConfig, RecordId};
//! use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
//! use nnq_geom::{Point, Rect};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 256));
//! let mut tree = RTree::<2>::create(pool, RTreeConfig::default()).unwrap();
//! for i in 0..100u64 {
//!     tree.insert(&Rect::from_point(Point::new([i as f64, 0.0])), RecordId(i)).unwrap();
//! }
//! let nn = NnSearch::new(&tree);
//! let found = nn.query(&Point::new([42.3, 0.0]), 3).unwrap();
//! assert_eq!(found[0].record, RecordId(42));
//! assert_eq!(found[1].record, RecordId(43));
//! assert_eq!(found[2].record, RecordId(41));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod best_first;
mod branch_bound;
mod explain;
mod heap;
mod incremental;
mod join;
mod options;
mod parallel;
mod radius;
mod refine;
mod result_cache;
mod scan;
mod scatter;
mod spatial_join;
#[cfg(test)]
mod stalling;

pub use best_first::best_first_knn;
pub use branch_bound::NnSearch;
pub use explain::{Decision, Trace, TraceEvent};
pub use heap::KnnHeap;
pub use incremental::IncrementalNn;
pub use join::{knn_join, JoinOrder};
pub use options::{AblOrdering, KernelMode, Neighbor, NnOptions, PrefetchPolicy, SearchStats};
pub use parallel::{
    par_knn_batch, par_knn_batch_stats, par_mixed_batch_dedup, BatchQuery, BatchStats,
};
pub use radius::{within_radius, within_radius_with};
pub use refine::{FnRefiner, MbrRefiner, Refiner};
pub use result_cache::{CachedAnswer, ResultCache};
pub use scan::{linear_scan_knn, scan_items_knn};
pub use scatter::{
    forest_batch, forest_batch_dedup, partitioned_knn, partitioned_knn_batch, scatter_knn,
    scatter_radius, PartitionedStats,
};
pub use spatial_join::{intersection_join, JoinStats};

/// Result alias shared with the index layer.
pub type Result<T> = nnq_rtree::Result<T>;

/// Error alias shared with the index layer.
pub type Error = nnq_rtree::RTreeError;
