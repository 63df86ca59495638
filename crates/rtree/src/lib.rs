//! A disk-based R-tree, the index substrate of RKV'95.
//!
//! The paper's nearest-neighbor algorithm searches a classical R-tree
//! [Guttman, SIGMOD 1984] stored on fixed-size disk pages. This crate
//! implements that index from scratch on top of the `nnq-storage` buffer
//! pool:
//!
//! * **Dynamic insertion** with a choice of node-split algorithms:
//!   Guttman's linear and quadratic splits (the quadratic split is the
//!   paper-era default) and the R\*-tree split with forced reinsertion
//!   [Beckmann et al., SIGMOD 1990].
//! * **Deletion** with Guttman's condense-tree and orphan reinsertion.
//! * **Bulk loading** ("packed" R-trees — pioneered by Roussopoulos's
//!   group): sort-tile-recursive (STR) and Hilbert-curve packing.
//! * **Window, point, and scan queries**, plus the raw node-navigation API
//!   ([`RTree::read_node`]) that the branch-and-bound nearest-neighbor
//!   search in `nnq-core` drives.
//! * **Validation** ([`RTree::validate`]) of every structural invariant and
//!   [`TreeStats`] describing the built tree.
//!
//! One tree node occupies exactly one disk page; with the default 4 KiB
//! pages and 2-D rectangles the fanout is 102. Trees persist across
//! process restarts when built on a [`nnq_storage::FileDisk`].
//!
//! # Example
//!
//! ```
//! use nnq_rtree::{RTree, RTreeConfig, RecordId};
//! use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
//! use nnq_geom::{Point, Rect};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 256));
//! let mut tree = RTree::<2>::create(pool, RTreeConfig::default()).unwrap();
//! for i in 0..1000u64 {
//!     let p = Point::new([i as f64, (i * 7 % 1000) as f64]);
//!     tree.insert(&Rect::from_point(p), RecordId(i)).unwrap();
//! }
//! assert_eq!(tree.len(), 1000);
//! let hits = tree
//!     .window(&Rect::new(Point::new([0.0, 0.0]), Point::new([10.0, 1000.0])))
//!     .unwrap();
//! assert_eq!(hits.len(), 11); // x = 0..=10
//! tree.validate().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bulk;
mod codec;
mod config;
mod entry;
mod iter;
mod partition;
mod split;
mod store;
mod tree;
mod validate;

pub use bulk::BulkMethod;
pub use codec::{node_capacity, Meta, RawNode};
pub use config::{RTreeConfig, SplitStrategy};
pub use entry::{Entry, RecordId};
pub use iter::WindowIter;
pub use partition::{snapshot_all, Forest, PartitionManifest, PartitionedTree};
pub use store::{MemStore, NodeStore, PagedStore};
pub use tree::{MemRTree, NodeView, RTree, Snapshot, TreeAccess};
pub use validate::TreeStats;

/// Errors produced by R-tree operations.
///
/// Storage failures are passed through; structural problems discovered
/// while decoding pages or validating the tree get their own variants.
#[derive(Debug)]
pub enum RTreeError {
    /// An error from the storage layer.
    Storage(nnq_storage::StorageError),
    /// A page did not contain a well-formed node.
    BadNode {
        /// The page that failed to decode.
        page: nnq_storage::PageId,
        /// What was wrong.
        reason: String,
    },
    /// `validate()` found a violated invariant.
    Invalid(String),
    /// A delete did not find the requested entry.
    NotFound,
}

impl std::fmt::Display for RTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RTreeError::Storage(e) => write!(f, "storage: {e}"),
            RTreeError::BadNode { page, reason } => {
                write!(f, "bad node on {page}: {reason}")
            }
            RTreeError::Invalid(msg) => write!(f, "invalid tree: {msg}"),
            RTreeError::NotFound => write!(f, "entry not found"),
        }
    }
}

impl std::error::Error for RTreeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RTreeError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nnq_storage::StorageError> for RTreeError {
    fn from(e: nnq_storage::StorageError) -> Self {
        RTreeError::Storage(e)
    }
}

/// Convenience alias for R-tree results.
pub type Result<T> = std::result::Result<T, RTreeError>;
