//! Geometric primitives and distance metrics for nearest-neighbor search
//! over R-trees, following Roussopoulos, Kelley, and Vincent, *Nearest
//! Neighbor Queries*, SIGMOD 1995 (RKV'95).
//!
//! The crate provides:
//!
//! * [`Point`] and [`Rect`] — fixed-dimension, `f64`-coordinate primitives
//!   with the rectangle algebra an R-tree needs (union, intersection, area,
//!   margin, overlap);
//! * the paper's point-to-rectangle metrics [`mindist_sq`] and
//!   [`minmaxdist_sq`] (squared forms; use [`Dist`] helpers for
//!   square-rooted values);
//! * [`SoaRects`] and the batched kernels ([`mindist_sq_batch`],
//!   [`minmaxdist_sq_batch`], [`intersects_batch`]) —
//!   one auto-vectorizable pass per node's entry array, bit-identical to
//!   the scalar metrics (see the kernel module docs for the contract);
//! * [`Segment`] — 2-D line segments with exact point-to-segment distance,
//!   used by map workloads where indexed objects are road segments;
//! * [`hilbert_index`] / [`zorder_index`] space-filling-curve keys used by
//!   packed (bulk-loaded) R-trees.
//!
//! All distance computations are carried out on squared Euclidean distances
//! to avoid `sqrt` in hot paths; ordering is preserved because `sqrt` is
//! monotone.
//!
//! # Example
//!
//! ```
//! use nnq_geom::{Point, Rect, mindist_sq, minmaxdist_sq};
//!
//! let p = Point::new([0.0, 0.0]);
//! let r = Rect::new(Point::new([1.0, 1.0]), Point::new([3.0, 2.0]));
//! // MINDIST: squared distance to the nearest corner (1,1).
//! assert_eq!(mindist_sq(&p, &r), 2.0);
//! // MINMAXDIST upper-bounds the distance to the nearest object inside `r`.
//! assert!(minmaxdist_sq(&p, &r) >= mindist_sq(&p, &r));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curve;
mod kernels;
mod metrics;
mod point;
mod rect;
mod segment;

pub use curve::{hilbert_index, hilbert_key, zorder_index, HILBERT_ORDER};
pub use kernels::{intersects_batch, mindist_sq_batch, minmaxdist_sq_batch, SoaRects};
pub use metrics::{mindist_sq, minmaxdist_sq, Dist};
pub use point::Point;
pub use rect::Rect;
pub use segment::Segment;

/// Convenience alias for the 2-dimensional point used by map workloads.
pub type Point2 = Point<2>;
/// Convenience alias for the 2-dimensional rectangle used by map workloads.
pub type Rect2 = Rect<2>;
