//! Node storage backends.
//!
//! The R-tree algorithms (insert, delete, split, bulk load, queries) are
//! written once against the [`NodeStore`] trait; two backends implement it:
//!
//! * [`PagedStore`] — one node per fixed-size disk page on an
//!   `nnq-storage` buffer pool. This is the configuration the paper
//!   measures (every node read is a page access). The decoded node lives
//!   in the pool frame that holds its page, so a page is decoded once per
//!   load or write, and the pool alone decides what stays resident.
//! * [`MemStore`] — an arena of heap-allocated nodes with a configurable
//!   fanout. No page accounting, maximum speed; the "rstar-style"
//!   in-memory index for applications that don't need persistence.
//!
//! `read` hands out `Arc<RawNode<D>>` in both backends, so navigating a
//! tree shares decoded nodes instead of copying entry arrays: the paged
//! backend serves repeat reads from the frame, and the in-memory backend
//! clones an `Arc` straight out of the arena.

use crate::codec::{decode_meta, decode_node, encode_meta, encode_node, Meta, RawNode};
use crate::entry::Entry;
use crate::{RTreeError, Result};
use nnq_storage::{BufferPool, CacheStats, PageId, PageReadGuard};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Storage backend for R-tree nodes and the tree's metadata.
///
/// Node handles are [`PageId`]s in every backend (the in-memory backend
/// uses dense arena indices wrapped in `PageId`), so navigation types like
/// [`crate::NodeView`] are backend-independent.
pub trait NodeStore<const D: usize> {
    /// Maximum entries a node may hold in this backend.
    fn node_capacity(&self) -> usize;

    /// Reads the node stored under `id`.
    ///
    /// The returned node is shared: backends may hand the same `Arc` to
    /// many readers, so the contents must be treated as an immutable
    /// snapshot (mutation goes through [`NodeStore::write`]).
    fn read(&self, id: PageId) -> Result<Arc<RawNode<D>>>;

    /// [`NodeStore::read`] for a caller that has other work while a device
    /// read runs: `Ok(None)` means the node's page is not loaded yet — a
    /// background read of it is running or now queued — and nothing was
    /// counted; call again (or call `read`, which waits). The default is
    /// the blocking `read`, so backends without background I/O never
    /// answer "not yet".
    fn try_read(&self, id: PageId) -> Result<Option<Arc<RawNode<D>>>> {
        self.read(id).map(Some)
    }

    /// Overwrites the node stored under `id`.
    fn write(&self, id: PageId, level: u16, entries: &[Entry<D>]) -> Result<()>;

    /// Allocates a new node and returns its handle.
    fn alloc(&self, level: u16, entries: &[Entry<D>]) -> Result<PageId>;

    /// Frees the node under `id`.
    fn free(&self, id: PageId) -> Result<()>;

    /// Persists the tree metadata.
    fn write_meta(&self, meta: &Meta<D>) -> Result<()>;

    /// Atomically publishes a new tree state built copy-on-write: `meta`
    /// is the new root/height/count and `shadow` lists the freshly
    /// allocated pages the new state introduces. Backends with a journal
    /// append the shadow images and the new meta image as one WAL commit
    /// group, make the group durable per their group-commit policy, and
    /// only then install the meta page — so a crash at any point either
    /// replays the whole commit or none of it. The default (no journal)
    /// just writes the metadata.
    fn publish(&self, meta: &Meta<D>, _shadow: &[PageId]) -> Result<()> {
        self.write_meta(meta)
    }

    /// Background readers that serve this backend's hints (`0` where
    /// there is no prefetcher). `nnq-core` interleaves a batch only over
    /// a backend that has some.
    fn prefetch_workers(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// PagedStore
// ---------------------------------------------------------------------------

/// Disk-page-backed node storage (one node per page, meta on its own
/// page).
///
/// Every `read` performs a buffer-pool `fetch` — the paper's page access,
/// counted and stamped for recency by the pool — and then takes the
/// decoded node from the fetched frame, decoding the page only if no
/// reader has decoded it since it last changed.
pub struct PagedStore<const D: usize> {
    pool: Arc<BufferPool>,
    meta_page: PageId,
    /// Node reads, and those of them that decoded the page.
    node_reads: AtomicU64,
    decodes: AtomicU64,
    /// Commit-group ids for WAL publication, unique per store.
    txn_counter: AtomicU64,
    /// Group-commit window in microseconds (`0` = sync every commit).
    group_commit_us: AtomicU64,
}

impl<const D: usize> PagedStore<D> {
    /// Default group-commit window in microseconds: commits within a
    /// millisecond of the last WAL sync share its durability point. `0`
    /// would sync the journal on every commit.
    pub const DEFAULT_GROUP_COMMIT_US: u64 = 1_000;

    fn with_meta_page(pool: Arc<BufferPool>, meta_page: PageId) -> Self {
        Self {
            pool,
            meta_page,
            node_reads: AtomicU64::new(0),
            decodes: AtomicU64::new(0),
            txn_counter: AtomicU64::new(0),
            group_commit_us: AtomicU64::new(Self::DEFAULT_GROUP_COMMIT_US),
        }
    }

    /// Creates a store, allocating a fresh meta page.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let (meta_page, guard) = pool.new_page()?;
        drop(guard);
        Ok(Self::with_meta_page(pool, meta_page))
    }

    /// Opens a store whose meta page is `meta_page`, returning the decoded
    /// metadata alongside.
    pub fn open(pool: Arc<BufferPool>, meta_page: PageId) -> Result<(Self, Meta<D>)> {
        let meta = {
            let guard = pool.fetch(meta_page)?;
            decode_meta(meta_page, &guard)?
        };
        Ok((Self::with_meta_page(pool, meta_page), meta))
    }

    /// Sets the group-commit window: a publish syncs the WAL only if at
    /// least this many microseconds passed since the last sync (`0` syncs
    /// every commit). No effect on pools without a WAL.
    pub fn set_group_commit_us(&self, us: u64) {
        self.group_commit_us.store(us, Ordering::Relaxed);
    }

    /// The current group-commit window in microseconds.
    pub fn group_commit_us(&self) -> u64 {
        self.group_commit_us.load(Ordering::Relaxed)
    }

    /// The buffer pool under this store.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The page holding the tree metadata.
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    /// How node reads were served: `hits` took the node their frame held,
    /// `misses` decoded the page (the other counters stay 0). The pool
    /// counts the page accesses (the paper's cost metric); this counts how
    /// many of them were also spared a decode.
    pub fn cache_stats(&self) -> CacheStats {
        let misses = self.decodes.load(Ordering::Relaxed);
        let reads = self.node_reads.load(Ordering::Relaxed);
        CacheStats {
            hits: reads.saturating_sub(misses), // a read counts before it decodes
            misses,
            ..CacheStats::default()
        }
    }

    /// Drops every decoded node the pool's frames hold and keeps the pages
    /// (counters are kept), so the next read of each node decodes. Useful
    /// for measuring the decode.
    pub fn clear_node_cache(&self) {
        self.pool.clear_decoded();
    }

    /// The decoded node of the fetched page `id`: the one its frame holds,
    /// or decoded from the page and left in the frame.
    fn node_of(&self, id: PageId, page: &PageReadGuard<'_>) -> Result<Arc<RawNode<D>>> {
        self.node_reads.fetch_add(1, Ordering::Relaxed);
        page.decoded(|bytes| {
            self.decodes.fetch_add(1, Ordering::Relaxed);
            decode_node(id, bytes)
        })
    }
}

impl<const D: usize> NodeStore<D> for PagedStore<D> {
    fn node_capacity(&self) -> usize {
        crate::codec::node_capacity(self.pool.page_size(), D)
    }

    fn read(&self, id: PageId) -> Result<Arc<RawNode<D>>> {
        // Every read is a counted page access, whether or not the frame
        // already holds the decoded node.
        let guard = self.pool.fetch(id)?;
        self.node_of(id, &guard)
    }

    fn try_read(&self, id: PageId) -> Result<Option<Arc<RawNode<D>>>> {
        match self.pool.try_fetch(id)? {
            Some(guard) => self.node_of(id, &guard).map(Some),
            None => Ok(None),
        }
    }

    fn write(&self, id: PageId, level: u16, entries: &[Entry<D>]) -> Result<()> {
        let mut guard = self.pool.fetch_write(id)?;
        encode_node(&mut guard, level, entries);
        Ok(())
    }

    fn alloc(&self, level: u16, entries: &[Entry<D>]) -> Result<PageId> {
        let (page, mut guard) = self.pool.new_page()?;
        encode_node(&mut guard, level, entries);
        Ok(page)
    }

    fn free(&self, id: PageId) -> Result<()> {
        Ok(self.pool.delete_page(id)?)
    }

    fn write_meta(&self, meta: &Meta<D>) -> Result<()> {
        let mut guard = self.pool.fetch_write(self.meta_page)?;
        encode_meta(&mut guard, meta);
        Ok(())
    }

    fn publish(&self, meta: &Meta<D>, shadow: &[PageId]) -> Result<()> {
        if let Some(wal) = self.pool.wal() {
            // One commit group: every shadow page image, then the new
            // meta image, sealed by the commit record. Replay applies the
            // group only if the commit record made it to the log, so a
            // crash mid-publish rolls back to the previous root.
            let txn = self.txn_counter.fetch_add(1, Ordering::Relaxed) + 1;
            for &page in shadow {
                let image = self.pool.page_image(page)?;
                wal.append_txn_image(txn, page, &image)?;
            }
            let mut meta_image = vec![0u8; self.pool.page_size()];
            encode_meta(&mut meta_image, meta);
            wal.append_txn_image(txn, self.meta_page, &meta_image)?;
            wal.append_commit(txn)?;
            // Durability point, batched across the commit window: commits
            // landing inside the window become durable with the next sync
            // (or an explicit checkpoint).
            let window =
                std::time::Duration::from_micros(self.group_commit_us.load(Ordering::Relaxed));
            wal.group_sync(window)?;
        }
        // The in-pool root swap: a single meta-page write.
        self.write_meta(meta)
    }

    fn prefetch_workers(&self) -> usize {
        self.pool.prefetch_workers()
    }
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// Heap-arena node storage for the in-memory tree.
///
/// Slots hold `Arc<RawNode>` directly, so `read` is an `Arc` clone —
/// no entry copying on any read path.
pub struct MemStore<const D: usize> {
    capacity: usize,
    nodes: RwLock<MemArena<D>>,
}

struct MemArena<const D: usize> {
    slots: Vec<Option<Arc<RawNode<D>>>>,
    free: Vec<usize>,
}

impl<const D: usize> MemStore<D> {
    /// Default fanout of in-memory nodes: cache-line-friendly but still
    /// shallow trees.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates an empty store with the given node fanout.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 4, "node fanout must be at least 4");
        Self {
            capacity,
            nodes: RwLock::new(MemArena {
                slots: Vec::new(),
                free: Vec::new(),
            }),
        }
    }

    /// Number of live nodes.
    pub fn live_nodes(&self) -> usize {
        let arena = self.nodes.read();
        arena.slots.iter().filter(|s| s.is_some()).count()
    }
}

impl<const D: usize> Default for MemStore<D> {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl<const D: usize> NodeStore<D> for MemStore<D> {
    fn node_capacity(&self) -> usize {
        self.capacity
    }

    fn read(&self, id: PageId) -> Result<Arc<RawNode<D>>> {
        let arena = self.nodes.read();
        arena
            .slots
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .cloned()
            .ok_or(RTreeError::BadNode {
                page: id,
                reason: "no such in-memory node".into(),
            })
    }

    fn write(&self, id: PageId, level: u16, entries: &[Entry<D>]) -> Result<()> {
        let mut arena = self.nodes.write();
        let slot = arena
            .slots
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(RTreeError::BadNode {
                page: id,
                reason: "no such in-memory node".into(),
            })?;
        // Readers may still hold the old Arc; publish a fresh node rather
        // than mutating the shared one.
        *slot = Arc::new(RawNode::new(level, entries.to_vec()));
        Ok(())
    }

    fn alloc(&self, level: u16, entries: &[Entry<D>]) -> Result<PageId> {
        let mut arena = self.nodes.write();
        let node = Arc::new(RawNode::new(level, entries.to_vec()));
        let idx = if let Some(idx) = arena.free.pop() {
            arena.slots[idx] = Some(node);
            idx
        } else {
            arena.slots.push(Some(node));
            arena.slots.len() - 1
        };
        Ok(PageId(idx as u64))
    }

    fn free(&self, id: PageId) -> Result<()> {
        let mut arena = self.nodes.write();
        let slot = arena
            .slots
            .get_mut(id.0 as usize)
            .ok_or(RTreeError::BadNode {
                page: id,
                reason: "no such in-memory node".into(),
            })?;
        if slot.take().is_none() {
            return Err(RTreeError::BadNode {
                page: id,
                reason: "double free of in-memory node".into(),
            });
        }
        arena.free.push(id.0 as usize);
        Ok(())
    }

    fn write_meta(&self, _meta: &Meta<D>) -> Result<()> {
        Ok(()) // in-memory trees keep their meta in the RTree struct only
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::RecordId;
    use nnq_geom::{Point, Rect};
    use nnq_storage::{BufferPool, FaultDisk, MemDisk, Wal, PAGE_SIZE};

    fn entry(i: u64) -> Entry<2> {
        Entry::for_record(Rect::from_point(Point::new([i as f64, 0.0])), RecordId(i))
    }

    #[test]
    fn mem_store_round_trips_nodes() {
        let store = MemStore::<2>::new(8);
        let id = store.alloc(1, &[entry(1), entry(2)]).unwrap();
        let raw = NodeStore::read(&store, id).unwrap();
        assert_eq!(raw.level, 1);
        assert_eq!(raw.entries.len(), 2);
        store.write(id, 0, &[entry(9)]).unwrap();
        let raw = NodeStore::read(&store, id).unwrap();
        assert_eq!(raw.level, 0);
        assert_eq!(raw.entries[0].record(), RecordId(9));
    }

    #[test]
    fn mem_store_read_is_shared_not_copied() {
        let store = MemStore::<2>::new(8);
        let id = store.alloc(0, &[entry(1)]).unwrap();
        let a = NodeStore::read(&store, id).unwrap();
        let b = NodeStore::read(&store, id).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A write publishes a fresh node; old readers keep their snapshot.
        store.write(id, 0, &[entry(2)]).unwrap();
        let c = NodeStore::read(&store, id).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.entries[0].record(), RecordId(1));
        assert_eq!(c.entries[0].record(), RecordId(2));
    }

    #[test]
    fn mem_store_frees_and_reuses_slots() {
        let store = MemStore::<2>::new(8);
        let a = store.alloc(0, &[entry(1)]).unwrap();
        let _b = store.alloc(0, &[entry(2)]).unwrap();
        assert_eq!(store.live_nodes(), 2);
        store.free(a).unwrap();
        assert_eq!(store.live_nodes(), 1);
        assert!(NodeStore::read(&store, a).is_err());
        assert!(store.free(a).is_err()); // double free
        let c = store.alloc(0, &[entry(3)]).unwrap();
        assert_eq!(c, a); // slot reuse
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_fanout_rejected() {
        MemStore::<2>::new(3);
    }

    fn paged(frames: usize) -> PagedStore<2> {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), frames));
        PagedStore::create(pool).unwrap()
    }

    #[test]
    fn paged_store_cache_hits_and_pool_accounting() {
        let store = paged(8);
        let id = store.alloc(0, &[entry(1), entry(2)]).unwrap();
        let before = store.pool().stats();

        let a = NodeStore::read(&store, id).unwrap();
        let b = NodeStore::read(&store, id).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat read must share the decode");

        let cs = store.cache_stats();
        assert_eq!(cs.misses, 1);
        assert_eq!(cs.hits, 1);
        assert!((cs.hit_rate() - 0.5).abs() < 1e-12);

        // The pool still saw every logical read — the decoded node must
        // not change the paper's page-access accounting.
        let after = store.pool().stats();
        assert_eq!(after.logical_reads - before.logical_reads, 2);
    }

    #[test]
    fn paged_store_write_and_free_invalidate() {
        let store = paged(8);
        let id = store.alloc(0, &[entry(1)]).unwrap();
        let a = NodeStore::read(&store, id).unwrap();
        store.write(id, 0, &[entry(7)]).unwrap();
        let b = NodeStore::read(&store, id).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.entries[0].record(), RecordId(7));
        assert_eq!(store.cache_stats().misses, 2, "the write forces a decode");

        store.free(id).unwrap();
        assert!(NodeStore::read(&store, id).is_err(), "a freed node is gone");
    }

    #[test]
    fn paged_store_cache_eviction_is_bounded() {
        // Three frames: the meta page and two nodes. A node evicted from
        // the pool loses its decoded node with its frame.
        let store = paged(3);
        let ids: Vec<_> = (0..4)
            .map(|i| store.alloc(0, &[entry(i)]).unwrap())
            .collect();
        for &id in &ids {
            NodeStore::read(&store, id).unwrap();
        }
        assert_eq!(store.cache_stats().misses, 4);
        assert!(store.pool().stats().evictions >= 2);
        // The most recent read is still resident, decoded.
        NodeStore::read(&store, ids[3]).unwrap();
        assert_eq!(store.cache_stats().hits, 1);
        // The first was evicted and decodes again.
        let raw = NodeStore::read(&store, ids[0]).unwrap();
        assert_eq!(raw.entries[0].record(), RecordId(0));
        assert_eq!(store.cache_stats().misses, 5);
    }

    #[test]
    fn node_cache_invalidation_leaves_no_residue() {
        // Hammer read/write cycles: every read after a write decodes the
        // new bytes, and the last written payload is what a read sees.
        let store = paged(8);
        let id = store.alloc(0, &[entry(0)]).unwrap();
        for i in 0..10_000u64 {
            NodeStore::read(&store, id).unwrap(); // decode into the frame
            store.write(id, 0, &[entry(i)]).unwrap(); // drop it
        }
        let cs = store.cache_stats();
        assert_eq!((cs.hits, cs.misses), (0, 10_000));
        let raw = NodeStore::read(&store, id).unwrap();
        assert_eq!(raw.entries[0].record(), RecordId(9_999));
    }

    /// The node `store` reads under `id` is the one its page's bytes
    /// decode to now.
    fn assert_fresh(store: &PagedStore<2>, id: PageId) {
        let read = NodeStore::read(store, id).unwrap();
        let image = store.pool().page_image(id).unwrap();
        let fresh: RawNode<2> = decode_node(id, &image).unwrap();
        assert_eq!(read.level, fresh.level, "{id}");
        assert_eq!(read.entries, fresh.entries, "{id}");
    }

    #[test]
    fn frame_slot_every_page_change_reads_a_fresh_decode() {
        // Write, free and alloc of a recycled id, through the store.
        let store = paged(8);
        let a = store.alloc(0, &[entry(1)]).unwrap();
        assert_fresh(&store, a);
        store.write(a, 1, &[entry(2), entry(3)]).unwrap();
        assert_fresh(&store, a);
        store.free(a).unwrap();
        assert!(NodeStore::read(&store, a).is_err());
        let c = store.alloc(0, &[entry(4)]).unwrap();
        assert_eq!(c, a, "the device recycles the freed id");
        assert_fresh(&store, c);
        let raw = NodeStore::read(&store, c).unwrap();
        assert_eq!(raw.entries[0].record(), RecordId(4));

        // Eviction, and a failed load, into a frame that held another
        // node: with one frame every load reuses it.
        let disk = Arc::new(FaultDisk::new(MemDisk::new(PAGE_SIZE)));
        let pool = Arc::new(BufferPool::new(Box::new(Arc::clone(&disk)), 1));
        let store = PagedStore::<2>::create(pool).unwrap();
        let a = store.alloc(0, &[entry(10)]).unwrap();
        let b = store.alloc(0, &[entry(20)]).unwrap();
        for id in [a, b, a, b] {
            assert_fresh(&store, id);
        }
        disk.fail_read(1);
        assert!(NodeStore::read(&store, a).is_err(), "the injected fault");
        assert_fresh(&store, a);
        assert_fresh(&store, b);
        assert_eq!(store.cache_stats().hits, 0, "every read loaded its frame");

        // Reopen after WAL replay: a pool over the replayed device reads
        // the committed bytes, not the ones the device held before.
        let wal_path =
            std::env::temp_dir().join(format!("nnq-frame-slot-{}.wal", std::process::id()));
        let disk = Arc::new(MemDisk::new(PAGE_SIZE));
        let (meta_page, a) = {
            let wal = Wal::create(&wal_path).unwrap();
            let pool = Arc::new(BufferPool::with_wal(Box::new(Arc::clone(&disk)), 8, wal));
            let store = PagedStore::<2>::create(pool).unwrap();
            let a = store.alloc(0, &[entry(1)]).unwrap();
            store.pool().checkpoint().unwrap();
            NodeStore::read(&store, a).unwrap();
            store.write(a, 0, &[entry(2)]).unwrap();
            let meta = Meta::empty(crate::RTreeConfig::default());
            store.publish(&meta, &[a]).unwrap();
            store.pool().wal().unwrap().sync().unwrap();
            // Dropped without a flush: the device still holds entry 1.
            (store.meta_page(), a)
        };
        let wal = Wal::open(&wal_path).unwrap();
        wal.replay(disk.as_ref()).unwrap();
        let pool = Arc::new(BufferPool::with_wal(Box::new(Arc::clone(&disk)), 8, wal));
        let (store, _) = PagedStore::<2>::open(pool, meta_page).unwrap();
        assert_fresh(&store, a);
        let raw = NodeStore::read(&store, a).unwrap();
        assert_eq!(raw.entries[0].record(), RecordId(2));
        std::fs::remove_file(&wal_path).ok();
    }
}
