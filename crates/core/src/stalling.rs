//! A test tree whose pages are never loaded in time: the traversal tests
//! (`branch_bound.rs`) and the scatter-gather item tests (`scatter.rs`)
//! suspend queries on it.

use crate::Result;
use nnq_geom::Rect;
use nnq_rtree::{NodeView, RTree, TreeAccess};
use nnq_storage::PageId;
use std::cell::Cell;

/// A tree whose non-blocking read says "not yet" `stalls` times before
/// every node it hands out (`usize::MAX`: always), and whose reads fail
/// outright once `fail_after` nodes have been handed out.
pub(crate) struct Stalling<'t> {
    tree: &'t RTree<2>,
    stalls: usize,
    pub(crate) fail_after: usize,
    /// Consecutive "not yet"s since the last node handed out.
    stalled: Cell<usize>,
    pub(crate) handed_out: Cell<usize>,
    pub(crate) not_yets: Cell<usize>,
}

impl<'t> Stalling<'t> {
    pub(crate) fn new(tree: &'t RTree<2>, stalls: usize) -> Self {
        Self {
            tree,
            stalls,
            fail_after: usize::MAX,
            stalled: Default::default(),
            handed_out: Default::default(),
            not_yets: Default::default(),
        }
    }
}

impl TreeAccess<2> for Stalling<'_> {
    fn access_root(&self) -> Option<PageId> {
        self.tree.access_root()
    }
    fn access_node(&self, page: PageId) -> Result<NodeView<2>> {
        if self.handed_out.get() >= self.fail_after {
            return Err(nnq_rtree::RTreeError::NotFound);
        }
        self.stalled.set(0);
        self.handed_out.set(self.handed_out.get() + 1);
        self.tree.access_node(page)
    }
    fn try_access_node(&self, page: PageId) -> Result<Option<NodeView<2>>> {
        if self.stalled.get() < self.stalls {
            self.stalled.set(self.stalled.get() + 1);
            self.not_yets.set(self.not_yets.get() + 1);
            return Ok(None);
        }
        self.access_node(page).map(Some)
    }
    fn num_records(&self) -> u64 {
        self.tree.num_records()
    }
    fn bounds(&self) -> Rect<2> {
        self.tree.bounds()
    }
}
