//! Structural validation and tree statistics.

use crate::entry::entries_mbr;
use crate::store::NodeStore;
use crate::tree::{RTree, TreeAccess};
use crate::{RTreeError, Result};
use nnq_geom::Rect;
use nnq_storage::PageId;

/// Statistics describing a built tree, as gathered by [`RTree::stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TreeStats {
    /// Tree height in levels.
    pub height: u32,
    /// Total number of nodes (pages).
    pub nodes: u64,
    /// Number of leaf nodes.
    pub leaves: u64,
    /// Number of data entries.
    pub data_entries: u64,
    /// Node count per level, index 0 = leaves.
    pub nodes_per_level: Vec<u64>,
    /// Mean node fill (entries / capacity) over all nodes.
    pub avg_fill: f64,
    /// Sum of node-MBR areas per level (a standard index-quality measure:
    /// lower means better clustering).
    pub area_per_level: Vec<f64>,
    /// Sum of pairwise overlap areas between sibling MBRs at each level of
    /// internal nodes (index 0 = children of the root's level... i.e. the
    /// level the overlapping entries *point to*). Lower is better.
    pub overlap_per_level: Vec<f64>,
}

impl<const D: usize, S: NodeStore<D>> RTree<D, S> {
    /// Checks every structural invariant of the tree:
    ///
    /// 1. all leaves are at level 0 and the root is at `height - 1`;
    /// 2. each internal entry's MBR is the *tight* union of its child's
    ///    entries (tightness is what makes MINMAXDIST a valid upper bound);
    /// 3. node sizes are within capacity, and — for `strict_fill` — at
    ///    least the configured minimum for non-root nodes;
    /// 4. child levels decrease by exactly one;
    /// 5. the recorded entry count matches the actual number of leaf
    ///    entries;
    /// 6. the bound in the committed meta ([`TreeAccess::bounds`]) is the
    ///    root node's MBR ([`Rect::empty`] when the tree is empty).
    ///
    /// Bulk-loaded (packed) trees may legitimately contain trailing nodes
    /// below the dynamic minimum fill, so [`RTree::validate`] uses the
    /// lenient mode; dynamic-only tests can call
    /// [`RTree::validate_strict`].
    pub fn validate_with(&self, strict_fill: bool) -> Result<()> {
        if self.height() == 0 {
            if self.root().is_valid() || !self.is_empty() || self.bounds() != Rect::empty() {
                return Err(RTreeError::Invalid(
                    "empty tree must have no root, zero count and an empty bound".into(),
                ));
            }
            return Ok(());
        }
        let root = self.read_node(self.root())?;
        if self.bounds() != root.mbr() {
            return Err(RTreeError::Invalid(format!(
                "meta bound {:?} is not the root MBR {:?}",
                self.bounds(),
                root.mbr()
            )));
        }
        if u32::from(root.level()) != self.height() - 1 {
            return Err(RTreeError::Invalid(format!(
                "root level {} does not match height {}",
                root.level(),
                self.height()
            )));
        }
        let mut data_entries = 0u64;
        self.validate_node(self.root(), None, true, strict_fill, &mut data_entries)?;
        if data_entries != self.len() {
            return Err(RTreeError::Invalid(format!(
                "meta count {} but found {} data entries",
                self.len(),
                data_entries
            )));
        }
        Ok(())
    }

    /// Lenient validation (see [`RTree::validate_with`]).
    pub fn validate(&self) -> Result<()> {
        self.validate_with(false)
    }

    /// Strict validation including minimum-fill checks (dynamic trees only).
    pub fn validate_strict(&self) -> Result<()> {
        self.validate_with(true)
    }

    fn validate_node(
        &self,
        page: PageId,
        expected_mbr: Option<Rect<D>>,
        is_root: bool,
        strict_fill: bool,
        data_entries: &mut u64,
    ) -> Result<()> {
        let node = self.read_node(page)?;
        let fail = |msg: String| Err(RTreeError::Invalid(format!("{page}: {msg}")));

        if node.entries().is_empty() && !(is_root && node.is_leaf()) {
            return fail("empty non-root node".into());
        }
        if node.entries().len() > self.max_entries() {
            return fail(format!(
                "{} entries exceeds capacity {}",
                node.entries().len(),
                self.max_entries()
            ));
        }
        if strict_fill && !is_root && node.entries().len() < self.min_entries() {
            return fail(format!(
                "{} entries below minimum {}",
                node.entries().len(),
                self.min_entries()
            ));
        }
        if is_root && !node.is_leaf() && node.entries().len() < 2 {
            return fail("internal root with fewer than 2 children".into());
        }
        // Tightness: the parent's recorded MBR must equal our exact union.
        let mbr = entries_mbr(node.entries());
        if let Some(expected) = expected_mbr {
            if expected != mbr {
                return fail(format!(
                    "parent MBR {expected:?} is not the tight union {mbr:?}"
                ));
            }
        }
        for e in node.entries() {
            if !e.mbr.is_valid() {
                return fail(format!("invalid entry MBR {:?}", e.mbr));
            }
        }
        if node.is_leaf() {
            *data_entries += node.entries().len() as u64;
            return Ok(());
        }
        for e in node.entries() {
            let child = self.read_node(e.child())?;
            if child.level() + 1 != node.level() {
                return fail(format!(
                    "child {} at level {} under node at level {}",
                    e.child(),
                    child.level(),
                    node.level()
                ));
            }
            self.validate_node(e.child(), Some(e.mbr), false, strict_fill, data_entries)?;
        }
        Ok(())
    }

    /// Gathers [`TreeStats`] by walking the whole tree.
    pub fn stats(&self) -> Result<TreeStats> {
        let mut s = TreeStats {
            height: self.height(),
            ..TreeStats::default()
        };
        if self.height() == 0 {
            return Ok(s);
        }
        s.nodes_per_level = vec![0; self.height() as usize];
        s.area_per_level = vec![0.0; self.height() as usize];
        s.overlap_per_level = vec![0.0; self.height() as usize];
        let mut fill_sum = 0.0;
        let mut stack = vec![self.root()];
        while let Some(page) = stack.pop() {
            let node = self.read_node(page)?;
            s.nodes += 1;
            s.nodes_per_level[node.level() as usize] += 1;
            s.area_per_level[node.level() as usize] += node.mbr().area();
            fill_sum += node.entries().len() as f64 / self.max_entries() as f64;
            if node.is_leaf() {
                s.leaves += 1;
                s.data_entries += node.entries().len() as u64;
            } else {
                for (i, e) in node.entries().iter().enumerate() {
                    for o in &node.entries()[i + 1..] {
                        s.overlap_per_level[(node.level() - 1) as usize] +=
                            e.mbr.overlap_area(&o.mbr);
                    }
                    stack.push(e.child());
                }
            }
        }
        s.avg_fill = fill_sum / s.nodes as f64;
        Ok(s)
    }
}
