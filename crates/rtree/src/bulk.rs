//! Bulk loading ("packed" R-trees).
//!
//! Packed R-trees — introduced by Roussopoulos and Leifker, and the
//! construction RKV's group used for static datasets — build the index
//! bottom-up from a sorted sequence of rectangles instead of inserting one
//! at a time. Two orderings are provided:
//!
//! * **STR** (sort-tile-recursive): sort by x-center, cut into vertical
//!   slabs, sort each slab by y-center, pack runs into leaves. Produces
//!   near-square leaves with minimal overlap. (2-D only; higher dimensions
//!   fall back to Hilbert packing.)
//! * **Hilbert packing**: sort rectangle centers along a Hilbert curve and
//!   pack sequentially. Slightly worse leaf quality, much simpler, any
//!   dimension whose first two coordinates dominate.
//!
//! Upper levels are packed by the same ordering applied to the node MBRs,
//! recursively, until a single root remains. Both tree backends support
//! bulk loading ([`RTree::bulk_load`] for paged trees,
//! [`MemRTree::bulk`] for in-memory ones).

use crate::config::RTreeConfig;
use crate::entry::{entries_mbr, Entry, RecordId};
use crate::store::{MemStore, NodeStore, PagedStore};
use crate::tree::{MemRTree, RTree};
use crate::Result;
use nnq_geom::{hilbert_key, Rect};
use nnq_storage::BufferPool;
use std::sync::Arc;

/// Bulk-load orderings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BulkMethod {
    /// Sort-tile-recursive packing (2-D; other dimensions use Hilbert).
    Str,
    /// Hilbert-curve packing.
    Hilbert,
    /// Low-x packing: sort by the rectangles' low x-coordinate only — the
    /// original packed R-tree of Roussopoulos & Leifker (1985), i.e. the
    /// static construction of the RKV group itself. Simple and historically
    /// faithful; produces tall thin leaves, so query quality trails STR and
    /// Hilbert on 2-D data (experiment E7 quantifies this).
    LowX,
}

impl<const D: usize> RTree<D, PagedStore<D>> {
    /// Builds a packed paged tree from `items` in one bottom-up pass.
    ///
    /// Nodes are filled to `fill` of capacity (clamped to `[0.5, 1.0]`;
    /// packed trees traditionally use 1.0). The resulting tree satisfies
    /// all invariants checked by [`RTree::validate`]; trailing nodes may
    /// hold fewer than the dynamic minimum number of entries.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        config: RTreeConfig,
        items: Vec<(Rect<D>, RecordId)>,
        method: BulkMethod,
        fill: f64,
    ) -> Result<Self> {
        let store = PagedStore::create(pool)?;
        let tree = RTree::empty_on(store, config);
        pack_into(&tree, items, method, fill)?;
        Ok(tree)
    }
}

impl<const D: usize> MemRTree<D> {
    /// Builds a packed in-memory tree from `items`.
    pub fn bulk(
        items: Vec<(Rect<D>, RecordId)>,
        method: BulkMethod,
        config: RTreeConfig,
        fanout: usize,
    ) -> Result<Self> {
        let store = MemStore::new(fanout);
        let tree = RTree::empty_on(store, config);
        pack_into(&tree, items, method, 1.0)?;
        Ok(tree)
    }
}

/// The shared bottom-up packing pass.
fn pack_into<const D: usize, S: NodeStore<D>>(
    tree: &RTree<D, S>,
    items: Vec<(Rect<D>, RecordId)>,
    method: BulkMethod,
    fill: f64,
) -> Result<()> {
    if items.is_empty() {
        // Still persist the (empty) metadata so paged trees reopen cleanly.
        return tree.set_meta_after_bulk(nnq_storage::PageId::INVALID, 0, 0, Rect::empty());
    }
    for (mbr, _) in &items {
        assert!(mbr.is_valid(), "cannot index an invalid rectangle");
    }
    let per_node = ((tree.max_entries() as f64 * fill.clamp(0.5, 1.0)).floor() as usize)
        .clamp(2, tree.max_entries());
    let count = items.len() as u64;

    let mut entries: Vec<Entry<D>> = items
        .into_iter()
        .map(|(mbr, rid)| Entry::for_record(mbr, rid))
        .collect();

    let mut level: u16 = 0;
    loop {
        order_entries(&mut entries, method);
        // Pack runs of `per_node` entries into nodes at this level.
        let mut parents: Vec<Entry<D>> = Vec::with_capacity(entries.len() / per_node + 1);
        for chunk in entries.chunks(per_node) {
            let page = tree.store().alloc(level, chunk)?;
            parents.push(Entry::for_child(entries_mbr(chunk), page));
        }
        if parents.len() == 1 {
            let (root, height) = (parents[0].child(), u32::from(level) + 1);
            return tree.set_meta_after_bulk(root, height, count, parents[0].mbr);
        }
        entries = parents;
        level += 1;
    }
}

/// Orders entries for packing: STR tiling in 2-D, Hilbert otherwise.
fn order_entries<const D: usize>(entries: &mut [Entry<D>], method: BulkMethod) {
    match method {
        BulkMethod::Str if D == 2 => str_order(entries),
        BulkMethod::LowX => {
            entries.sort_by(|a, b| a.mbr.lo()[0].total_cmp(&b.mbr.lo()[0]));
        }
        _ => hilbert_order(entries),
    }
}

fn str_order<const D: usize>(entries: &mut [Entry<D>]) {
    // Sort by x-center, slice into ceil(sqrt(n_chunks)) vertical slabs of
    // equal entry count, then sort each slab by y-center. Chunked packing
    // by the caller then tiles the plane.
    let n = entries.len();
    entries.sort_by(|a, b| a.mbr.center()[0].total_cmp(&b.mbr.center()[0]));
    let slabs = (n as f64).sqrt().ceil() as usize;
    let per_slab = n.div_ceil(slabs);
    for slab in entries.chunks_mut(per_slab.max(1)) {
        slab.sort_by(|a, b| a.mbr.center()[1].total_cmp(&b.mbr.center()[1]));
    }
}

fn hilbert_order<const D: usize>(entries: &mut [Entry<D>]) {
    // Normalize centers into the Hilbert grid using the dataset bounds of
    // the first two dimensions — the same keying `partition.rs` uses for
    // Hilbert-range splitting (`nnq_geom::hilbert_key`).
    let bounds = entries_mbr(entries);
    let mut keyed: Vec<(u64, Entry<D>)> = entries
        .iter()
        .map(|e| (hilbert_key(&e.mbr.center(), &bounds), *e))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    for (slot, (_, e)) in entries.iter_mut().zip(keyed) {
        *slot = e;
    }
}
