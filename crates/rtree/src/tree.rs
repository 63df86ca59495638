//! The R-tree proper: creation, insertion, deletion, queries.
//!
//! [`RTree`] is generic over its [`NodeStore`] backend: the default
//! [`PagedStore`] keeps one node per disk page (the paper's setting);
//! [`MemRTree`] is the same tree over a heap arena. All mutation and query
//! logic is written once against the store trait.
//!
//! # Copy-on-write updates
//!
//! Mutations never overwrite a published page. Each `insert`/`delete`
//! runs as a transaction that builds its modified subtree in freshly
//! allocated pages (path copying: the touched leaf, every ancestor up to
//! the root, and any split siblings), then commits by publishing the new
//! root in a single atomic meta swap ([`NodeStore::publish`] journals the
//! shadow pages and new meta as one WAL commit group on paged backends).
//! Readers holding a [`Snapshot`] keep traversing the old root: every
//! page it references is immutable until the snapshot is dropped.
//! Replaced pages are *retired* into an epoch-tagged limbo list and freed
//! only when no snapshot pinned at or before the retiring epoch remains —
//! so page reclamation (and with it the end of a page's decoded node) is
//! keyed to publication, never to a traversal in progress.

use crate::codec::{Meta, RawNode};
use crate::config::{RTreeConfig, SplitStrategy};
use crate::entry::{entries_mbr, Entry, RecordId};
use crate::split::{split_entries, take_reinsert_victims};
use crate::store::{MemStore, NodeStore, PagedStore};
use crate::{RTreeError, Result};
use nnq_geom::{Point, Rect, SoaRects};
use nnq_storage::{BufferPool, PageId};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared view of a decoded R-tree node, as returned by
/// [`RTree::read_node`].
///
/// This is the navigation surface the nearest-neighbor search in
/// `nnq-core` drives: it exposes the node's level and its `(MBR, pointer)`
/// entries without leaking any storage detail. The node data is
/// `Arc`-backed — cloning a view is two pointer-sized copies, and repeat
/// reads of a cached page share one decoded allocation instead of copying
/// the entry array per visit.
///
/// A view is an immutable snapshot: a concurrent (or later) write to the
/// same page publishes a fresh node and never mutates data behind an
/// outstanding view.
#[derive(Clone, Debug)]
pub struct NodeView<const D: usize> {
    page: PageId,
    node: Arc<RawNode<D>>,
}

impl<const D: usize> NodeView<D> {
    pub(crate) fn new(page: PageId, node: Arc<RawNode<D>>) -> Self {
        Self { page, node }
    }

    /// The node's handle (a disk page for paged trees, an arena slot for
    /// in-memory trees).
    #[inline]
    pub fn page(&self) -> PageId {
        self.page
    }

    /// Node level: 0 for leaves, `height - 1` for the root.
    #[inline]
    pub fn level(&self) -> u16 {
        self.node.level
    }

    /// Whether this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.node.level == 0
    }

    /// The node's entries.
    #[inline]
    pub fn entries(&self) -> &[Entry<D>] {
        &self.node.entries
    }

    /// The struct-of-arrays view of the entry MBRs (same order as
    /// [`NodeView::entries`]), built once per decode and cached with the
    /// node — the input the `nnq-geom` batch kernels consume.
    #[inline]
    pub fn soa(&self) -> &SoaRects<D> {
        self.node.soa()
    }

    /// The tight bounding rectangle of this node's entries.
    pub fn mbr(&self) -> Rect<D> {
        entries_mbr(&self.node.entries)
    }
}

/// Read-only navigation over any R-tree backend.
///
/// The nearest-neighbor algorithms in `nnq-core` are generic over this
/// trait, so they run unchanged on paged and in-memory trees.
pub trait TreeAccess<const D: usize> {
    /// The root node's handle, or `None` for an empty tree.
    fn access_root(&self) -> Option<PageId>;

    /// Reads the node under `page`.
    fn access_node(&self, page: PageId) -> Result<NodeView<D>>;

    /// [`TreeAccess::access_node`] for a caller that has other work while
    /// a device read runs: `Ok(None)` means the node's page is not loaded
    /// yet — the backend is reading it, or has now queued it for a
    /// background read — and no page access was counted; every visited
    /// node still counts exactly one, on the call that returns it. The
    /// default is the blocking `access_node`: in-memory trees (and any
    /// backend without background I/O) never answer "not yet".
    fn try_access_node(&self, page: PageId) -> Result<Option<NodeView<D>>> {
        self.access_node(page).map(Some)
    }

    /// Number of data entries in the tree.
    fn num_records(&self) -> u64;

    /// The root's MBR as last committed ([`Rect::empty`] for an empty
    /// tree): it contains everything the tree holds, so the scatter-gather
    /// search in `nnq-core` schedules and prunes whole trees by it. Read
    /// from the committed meta; no page is read.
    fn bounds(&self) -> Rect<D>;

    /// Background readers that serve this access path's hints (`0` where
    /// there is no prefetcher). See [`NodeStore::prefetch_workers`].
    fn prefetch_workers(&self) -> usize {
        0
    }
}

impl<const D: usize, S: NodeStore<D>> TreeAccess<D> for RTree<D, S> {
    fn access_root(&self) -> Option<PageId> {
        let root = self.meta.read().root;
        root.is_valid().then_some(root)
    }

    fn access_node(&self, page: PageId) -> Result<NodeView<D>> {
        self.read_node(page)
    }

    fn try_access_node(&self, page: PageId) -> Result<Option<NodeView<D>>> {
        self.try_read_node(page)
    }

    fn num_records(&self) -> u64 {
        self.len()
    }

    fn bounds(&self) -> Rect<D> {
        self.meta.read().bounds
    }

    fn prefetch_workers(&self) -> usize {
        self.store.prefetch_workers()
    }
}

// ---------------------------------------------------------------------------
// Epoch-based deferred reclamation
// ---------------------------------------------------------------------------

/// Epoch bookkeeping for deferred page reclamation.
///
/// Snapshots pin the epoch current at their creation. A commit retires
/// its replaced pages tagged with the epoch current at publication, then
/// advances the epoch — so any snapshot that could still reach those
/// pages holds a pin at or before the tag. A batch is freed once the
/// minimum pinned epoch moves past its tag (or no pins remain).
#[derive(Default)]
struct Epochs {
    inner: Mutex<EpochState>,
}

#[derive(Default)]
struct EpochState {
    current: u64,
    /// Live snapshot pins per epoch.
    pins: BTreeMap<u64, usize>,
    /// Retired page batches, tagged with their retirement epoch.
    limbo: VecDeque<(u64, Vec<PageId>)>,
}

impl Epochs {
    fn pin(&self) -> u64 {
        let mut st = self.inner.lock();
        let epoch = st.current;
        *st.pins.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// Drops one pin on `epoch`; returns pages that became reclaimable.
    fn unpin(&self, epoch: u64) -> Vec<PageId> {
        let mut st = self.inner.lock();
        if let Some(n) = st.pins.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                st.pins.remove(&epoch);
            }
        }
        Self::drain_reclaimable(&mut st)
    }

    /// Tags `pages` with the current epoch, advances the epoch, and
    /// returns every limbo page no live pin can still reach.
    fn retire(&self, pages: Vec<PageId>) -> Vec<PageId> {
        let mut st = self.inner.lock();
        if !pages.is_empty() {
            let tag = st.current;
            st.limbo.push_back((tag, pages));
        }
        st.current += 1;
        Self::drain_reclaimable(&mut st)
    }

    fn drain_reclaimable(st: &mut EpochState) -> Vec<PageId> {
        let min_pinned = st.pins.keys().next().copied().unwrap_or(u64::MAX);
        let mut out = Vec::new();
        while let Some((tag, _)) = st.limbo.front() {
            if *tag < min_pinned {
                out.extend(st.limbo.pop_front().expect("front exists").1);
            } else {
                break;
            }
        }
        out
    }
}

/// A consistent read view of the tree, valid across concurrent mutations.
///
/// A snapshot pins the reclamation epoch and copies the tree's committed
/// metadata at creation: every page reachable from its root stays
/// allocated and byte-identical until the snapshot is dropped, no matter
/// how many inserts and deletes commit in the meantime. It implements
/// [`TreeAccess`], so every query algorithm in `nnq-core` runs against a
/// snapshot unchanged.
///
/// Concurrent readers racing a mutator **must** hold a snapshot; querying
/// the tree reference directly is only safe while no mutation is running
/// (a commit may reclaim pages an unpinned traversal still wants).
pub struct Snapshot<'t, const D: usize, S: NodeStore<D> = PagedStore<D>> {
    tree: &'t RTree<D, S>,
    meta: Meta<D>,
    epoch: u64,
    version: u64,
}

impl<const D: usize, S: NodeStore<D>> Snapshot<'_, D, S> {
    /// Number of data entries visible in this snapshot.
    pub fn len(&self) -> u64 {
        self.meta.count
    }

    /// Whether the snapshot sees an empty tree.
    pub fn is_empty(&self) -> bool {
        self.meta.count == 0
    }

    /// The snapshot's root handle ([`PageId::INVALID`] when empty).
    pub fn root(&self) -> PageId {
        self.meta.root
    }

    /// Tree height as of the snapshot.
    pub fn height(&self) -> u32 {
        self.meta.height
    }

    /// The commit version this snapshot was taken at (see
    /// [`RTree::version`]). Two snapshots with equal versions see the
    /// same committed root, so any deterministic query computes the same
    /// answer against either — the keying contract the snapshot-versioned
    /// result cache builds on.
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl<const D: usize, S: NodeStore<D>> TreeAccess<D> for Snapshot<'_, D, S> {
    fn access_root(&self) -> Option<PageId> {
        self.meta.root.is_valid().then_some(self.meta.root)
    }

    fn access_node(&self, page: PageId) -> Result<NodeView<D>> {
        self.tree.read_node(page)
    }

    fn try_access_node(&self, page: PageId) -> Result<Option<NodeView<D>>> {
        self.tree.try_read_node(page)
    }

    fn num_records(&self) -> u64 {
        self.meta.count
    }

    fn bounds(&self) -> Rect<D> {
        self.meta.bounds
    }

    fn prefetch_workers(&self) -> usize {
        self.tree.store.prefetch_workers()
    }
}

impl<const D: usize, S: NodeStore<D>> Drop for Snapshot<'_, D, S> {
    fn drop(&mut self) {
        for page in self.tree.epochs.unpin(self.epoch) {
            // Failing to free leaks the page but corrupts nothing; a drop
            // handler has nowhere to report it.
            let _ = self.tree.store.free(page);
        }
    }
}

// ---------------------------------------------------------------------------
// The tree
// ---------------------------------------------------------------------------

/// A dynamic R-tree over `D`-dimensional rectangles.
///
/// See the crate docs for an overview and example. All operations take
/// `&self`: queries read the committed snapshot, and mutations are
/// serialized by an internal writer lock (single-writer, many-readers —
/// the discipline of the original systems, but with copy-on-write
/// publication so the readers never block). Readers that race a mutator
/// must hold a [`Snapshot`] (see [`RTree::snapshot`]).
pub struct RTree<const D: usize, S = PagedStore<D>> {
    store: S,
    /// The committed tree state; swapped atomically at commit.
    meta: RwLock<Meta<D>>,
    /// The tree configuration (immutable after construction; also carried
    /// inside `meta` for persistence).
    config: RTreeConfig,
    /// Serializes mutators. Readers never take this.
    writer: Mutex<()>,
    /// Deferred reclamation of pages replaced by commits.
    epochs: Epochs,
    /// Monotonic commit version, bumped at every meta publication (commit,
    /// bulk load, clear). Read and written only while holding `meta`'s
    /// lock, so a `(meta, version)` pair observed under the read lock is
    /// always consistent. Not persisted: versions restart at 1 per open,
    /// which is exactly right — cross-process result reuse would need a
    /// durable lineage this tree does not claim.
    version: AtomicU64,
    max_entries: usize,
    min_entries: usize,
}

/// An in-memory R-tree: identical algorithms, heap-arena storage, no page
/// accounting. Use it when the index is rebuilt per process and speed
/// matters more than persistence.
///
/// ```
/// use nnq_rtree::{MemRTree, RecordId};
/// use nnq_geom::{Point, Rect};
///
/// let tree = MemRTree::<2>::new();
/// for i in 0..100u64 {
///     tree.insert(&Rect::from_point(Point::new([i as f64, 0.0])), RecordId(i)).unwrap();
/// }
/// assert_eq!(tree.len(), 100);
/// tree.validate().unwrap();
/// ```
pub type MemRTree<const D: usize> = RTree<D, MemStore<D>>;

impl<const D: usize> RTree<D, PagedStore<D>> {
    /// Creates an empty paged tree, allocating its meta page on `pool`'s
    /// device.
    pub fn create(pool: Arc<BufferPool>, config: RTreeConfig) -> Result<Self> {
        let store = PagedStore::create(pool)?;
        let capacity = <PagedStore<D> as NodeStore<D>>::node_capacity(&store);
        let max_entries = config.effective_max(capacity);
        let min_entries = config.min_entries(max_entries);
        let meta = Meta::empty(config);
        NodeStore::<D>::write_meta(&store, &meta)?;
        Ok(Self {
            store,
            meta: RwLock::new(meta),
            config,
            writer: Mutex::new(()),
            epochs: Epochs::default(),
            version: AtomicU64::new(1),
            max_entries,
            min_entries,
        })
    }

    /// Opens an existing paged tree whose meta page is `meta_page`.
    pub fn open(pool: Arc<BufferPool>, meta_page: PageId) -> Result<Self> {
        let (store, meta) = PagedStore::open(pool, meta_page)?;
        let capacity = <PagedStore<D> as NodeStore<D>>::node_capacity(&store);
        let max_entries = meta.config.effective_max(capacity);
        let min_entries = meta.config.min_entries(max_entries);
        let config = meta.config;
        Ok(Self {
            store,
            meta: RwLock::new(meta),
            config,
            writer: Mutex::new(()),
            epochs: Epochs::default(),
            version: AtomicU64::new(1),
            max_entries,
            min_entries,
        })
    }

    /// The page id of the tree's meta page (pass to [`RTree::open`]).
    pub fn meta_page(&self) -> PageId {
        self.store.meta_page()
    }

    /// The buffer pool this tree lives on.
    pub fn pool(&self) -> &Arc<BufferPool> {
        self.store.pool()
    }

    /// Sets the WAL group-commit window in microseconds (`0` syncs the
    /// journal on every commit). See [`PagedStore::set_group_commit_us`].
    pub fn set_group_commit_us(&self, us: u64) {
        self.store.set_group_commit_us(us);
    }
}

impl<const D: usize> MemRTree<D> {
    /// Creates an empty in-memory tree with the default configuration and
    /// fanout ([`MemStore::DEFAULT_CAPACITY`]).
    pub fn new() -> Self {
        Self::with_config(RTreeConfig::default(), MemStore::<D>::DEFAULT_CAPACITY)
    }

    /// Creates an empty in-memory tree with an explicit configuration and
    /// node fanout.
    pub fn with_config(config: RTreeConfig, fanout: usize) -> Self {
        Self::empty_on(MemStore::new(fanout), config)
    }
}

impl<const D: usize> Default for MemRTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

/// A copy-on-write transaction: the private working state of one mutation.
///
/// `root`/`height`/`count`/`bounds` are the transaction's view of the
/// tree (`bounds` is the root's MBR, set wherever the root node is
/// rewritten); nothing becomes visible to readers until [`RTree::commit`]
/// publishes them. `fresh` pages were allocated by this transaction — they
/// are invisible to readers, so the transaction may rewrite them in place
/// (one copy per page per transaction, not per touch). `retired` pages
/// belong to the committed tree and are handed to the epoch limbo at
/// commit (or simply kept, on abort).
struct Txn<const D: usize> {
    root: PageId,
    height: u32,
    count: u64,
    bounds: Rect<D>,
    fresh: HashSet<PageId>,
    retired: Vec<PageId>,
}

impl<const D: usize, S: NodeStore<D>> RTree<D, S> {
    // -- introspection -------------------------------------------------------

    /// The tree's configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Number of data entries in the tree.
    pub fn len(&self) -> u64 {
        self.meta.read().count
    }

    /// Whether the tree holds no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height in levels (0 for an empty tree, 1 for a root-only leaf).
    pub fn height(&self) -> u32 {
        self.meta.read().height
    }

    /// The root handle, or [`PageId::INVALID`] when empty.
    pub fn root(&self) -> PageId {
        self.meta.read().root
    }

    /// Maximum entries per node.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Minimum entries per non-root node.
    pub fn min_entries(&self) -> usize {
        self.min_entries
    }

    /// The storage backend (advanced use).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Takes a consistent read view of the current committed state. Pages
    /// reachable from it stay live until the snapshot drops; see
    /// [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot<'_, D, S> {
        // Pin before reading the meta: a commit that publishes after the
        // pin retires its pages at an epoch >= ours, so they stay live.
        let epoch = self.epochs.pin();
        // Version is read under the same lock that guards the meta swap,
        // so the (meta, version) pair is consistent: a racing commit is
        // observed either entirely (new root, new version) or not at all.
        let guard = self.meta.read();
        let meta = *guard;
        let version = self.version.load(Ordering::Acquire);
        drop(guard);
        Snapshot {
            tree: self,
            meta,
            epoch,
            version,
        }
    }

    /// Monotonic commit version: bumped by every meta publication
    /// (insert/delete commit, bulk load, clear), starting at 1 per
    /// process-open of the tree. Equal versions imply an identical
    /// committed root, so a `(query, version)` pair keys a memoized
    /// answer that a root swap structurally invalidates — no scan needed.
    pub fn version(&self) -> u64 {
        let _guard = self.meta.read();
        self.version.load(Ordering::Acquire)
    }

    // -- node I/O ------------------------------------------------------------

    /// Reads the node under `page`, returning a shared [`NodeView`].
    ///
    /// On a paged tree every call counts as one logical page access in the
    /// pool's statistics — exactly the paper's cost unit — whether or not
    /// the page's frame already held the decoded node.
    pub fn read_node(&self, page: PageId) -> Result<NodeView<D>> {
        Ok(NodeView::new(page, self.store.read(page)?))
    }

    fn try_read_node(&self, page: PageId) -> Result<Option<NodeView<D>>> {
        let node = self.store.try_read(page)?;
        Ok(node.map(|node| NodeView::new(page, node)))
    }

    fn make_meta(&self, root: PageId, height: u32, count: u64, bounds: Rect<D>) -> Meta<D> {
        Meta {
            dims: D as u16,
            root,
            height,
            count,
            bounds,
            config: self.config,
        }
    }

    /// Installs the root pointer, height, entry count and root MBR after a
    /// bulk load (see `bulk.rs`).
    pub(crate) fn set_meta_after_bulk(
        &self,
        root: PageId,
        height: u32,
        count: u64,
        bounds: Rect<D>,
    ) -> Result<()> {
        let meta = self.make_meta(root, height, count, bounds);
        self.store.write_meta(&meta)?;
        let mut guard = self.meta.write();
        *guard = meta;
        self.version.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Constructs an empty tree over an existing store (bulk-load entry
    /// point).
    pub(crate) fn empty_on(store: S, config: RTreeConfig) -> Self {
        let capacity = store.node_capacity();
        let max_entries = config.effective_max(capacity);
        let min_entries = config.min_entries(max_entries);
        Self {
            store,
            meta: RwLock::new(Meta::empty(config)),
            config,
            writer: Mutex::new(()),
            epochs: Epochs::default(),
            version: AtomicU64::new(1),
            max_entries,
            min_entries,
        }
    }

    // -- copy-on-write transaction machinery ---------------------------------

    fn begin(&self) -> Txn<D> {
        let meta = self.meta.read();
        Txn {
            root: meta.root,
            height: meta.height,
            count: meta.count,
            bounds: meta.bounds,
            fresh: HashSet::new(),
            retired: Vec::new(),
        }
    }

    /// Publishes the transaction: journals + installs the new meta
    /// (readers switch roots here), then retires replaced pages into the
    /// epoch limbo, freeing whatever no snapshot can still reach.
    fn commit(&self, mut txn: Txn<D>) -> Result<()> {
        let meta = self.make_meta(txn.root, txn.height, txn.count, txn.bounds);
        let mut shadow: Vec<PageId> = txn.fresh.iter().copied().collect();
        shadow.sort_unstable(); // deterministic journal order
        if let Err(e) = self.store.publish(&meta, &shadow) {
            self.rollback(&mut txn);
            return Err(e);
        }
        {
            // Swap the meta and bump the version under one write-lock
            // critical section: snapshot() pairs them under the read lock.
            let mut guard = self.meta.write();
            *guard = meta;
            self.version.fetch_add(1, Ordering::Release);
        }
        for page in self.epochs.retire(std::mem::take(&mut txn.retired)) {
            self.store.free(page)?;
        }
        Ok(())
    }

    /// Releases a failed transaction's fresh pages; retired pages stay
    /// live (they are still referenced by the committed tree).
    fn rollback(&self, txn: &mut Txn<D>) {
        for page in txn.fresh.drain() {
            let _ = self.store.free(page);
        }
    }

    /// Writes `entries` for the node currently stored at `page`,
    /// copy-on-write: a page this transaction allocated is rewritten in
    /// place (readers cannot see it yet); a committed page is left
    /// untouched — the new contents go to a fresh page and the old one is
    /// retired. Returns the page id now holding the node.
    fn cow_write(
        &self,
        txn: &mut Txn<D>,
        page: PageId,
        level: u16,
        entries: &[Entry<D>],
    ) -> Result<PageId> {
        if txn.fresh.contains(&page) {
            self.store.write(page, level, entries)?;
            Ok(page)
        } else {
            let fresh = self.store.alloc(level, entries)?;
            txn.fresh.insert(fresh);
            txn.retired.push(page);
            Ok(fresh)
        }
    }

    /// Allocates a brand-new node owned by this transaction.
    fn cow_alloc(&self, txn: &mut Txn<D>, level: u16, entries: &[Entry<D>]) -> Result<PageId> {
        let page = self.store.alloc(level, entries)?;
        txn.fresh.insert(page);
        Ok(page)
    }

    /// Discards the node at `page`: immediately if this transaction
    /// allocated it, else deferred to the commit's retirement batch.
    fn cow_free(&self, txn: &mut Txn<D>, page: PageId) -> Result<()> {
        if txn.fresh.remove(&page) {
            self.store.free(page)
        } else {
            txn.retired.push(page);
            Ok(())
        }
    }

    /// Rewrites the ancestors along `path` (deepest last) after the node
    /// at the path's end moved from `old_child` to `new_child` with MBR
    /// `child_mbr`: each parent entry gets the child's new id and a tight
    /// MBR, and the parent itself is republished copy-on-write — so the
    /// whole ancestor chain (up to and including the root) is path-copied
    /// bottom-up. Stops early when neither the child id nor its MBR
    /// changed at some level (possible once pages are transaction-fresh
    /// and rewritten in place).
    fn replace_in_path(
        &self,
        txn: &mut Txn<D>,
        path: &[(PageId, usize)],
        mut old_child: PageId,
        mut new_child: PageId,
        mut child_mbr: Rect<D>,
    ) -> Result<()> {
        for &(page, idx) in path.iter().rev() {
            let node = self.read_node(page)?;
            let mut entries = node.entries().to_vec();
            debug_assert_eq!(entries[idx].child(), old_child, "stale path");
            if new_child == old_child && entries[idx].mbr == child_mbr {
                return Ok(()); // nothing changed at this level or above
            }
            entries[idx] = Entry::for_child(child_mbr, new_child);
            let new_page = self.cow_write(txn, page, node.level(), &entries)?;
            old_child = page;
            new_child = new_page;
            child_mbr = entries_mbr(&entries);
        }
        // Every level changed up to the root, whose MBR is now `child_mbr`.
        if txn.root == old_child {
            txn.root = new_child;
        }
        txn.bounds = child_mbr;
        Ok(())
    }

    /// Copy-on-write `clear`: publish an empty meta, retire every page of
    /// the old tree (see [`RTree::clear`] in `iter.rs` for the public
    /// docs).
    pub(crate) fn clear_cow(&self) -> Result<()> {
        let _writer = self.writer.lock();
        let root = self.root();
        if !root.is_valid() {
            return Ok(());
        }
        let mut stack = vec![root];
        let mut pages = Vec::new();
        while let Some(page) = stack.pop() {
            let node = self.read_node(page)?;
            if !node.is_leaf() {
                for e in node.entries() {
                    stack.push(e.child());
                }
            }
            pages.push(page);
        }
        let meta = Meta::empty(self.config);
        self.store.publish(&meta, &[])?;
        {
            let mut guard = self.meta.write();
            *guard = meta;
            self.version.fetch_add(1, Ordering::Release);
        }
        for page in self.epochs.retire(pages) {
            self.store.free(page)?;
        }
        Ok(())
    }

    // -- insertion -----------------------------------------------------------

    /// Inserts a record with the given bounding rectangle.
    ///
    /// Both `insert` and [`RTree::delete`] take the rectangle by
    /// reference: `Rect<D>` is `Copy`, but the uniform `&Rect<D>` surface
    /// lets call sites iterate `&items` without copying out per call and
    /// keeps the two halves of the mutation API symmetric.
    ///
    /// Runs as one copy-on-write transaction: concurrent [`Snapshot`]
    /// readers see the tree either entirely without or entirely with the
    /// new record, never an intermediate state.
    ///
    /// # Panics
    /// Panics if `mbr` is not a valid finite rectangle.
    pub fn insert(&self, mbr: &Rect<D>, rid: RecordId) -> Result<()> {
        assert!(mbr.is_valid(), "cannot index an invalid rectangle");
        let _writer = self.writer.lock();
        let mut txn = self.begin();
        match self.insert_txn(&mut txn, Entry::for_record(*mbr, rid)) {
            Ok(()) => self.commit(txn),
            Err(e) => {
                self.rollback(&mut txn);
                Err(e)
            }
        }
    }

    /// Inserts a batch of records as **one** copy-on-write transaction.
    ///
    /// Structurally equivalent to calling [`RTree::insert`] per item in
    /// order, but the whole batch shares a single shadow-page set and a
    /// single WAL publish: pages copied for an early item are
    /// transaction-fresh for later items and rewritten in place, so an
    /// ingest of `n` clustered points pays one path copy per touched page
    /// instead of one per record. Readers see the batch atomically —
    /// either none of it or all of it.
    ///
    /// # Panics
    /// Panics if any rectangle is invalid; no item is inserted in that
    /// case.
    pub fn insert_many(&self, items: &[(Rect<D>, RecordId)]) -> Result<()> {
        for (mbr, _) in items {
            assert!(mbr.is_valid(), "cannot index an invalid rectangle");
        }
        if items.is_empty() {
            return Ok(());
        }
        let _writer = self.writer.lock();
        let mut txn = self.begin();
        for (mbr, rid) in items {
            if let Err(e) = self.insert_txn(&mut txn, Entry::for_record(*mbr, *rid)) {
                self.rollback(&mut txn);
                return Err(e);
            }
        }
        self.commit(txn)
    }

    fn insert_txn(&self, txn: &mut Txn<D>, entry: Entry<D>) -> Result<()> {
        if txn.height == 0 {
            txn.root = self.cow_alloc(txn, 0, &[entry])?;
            txn.height = 1;
            txn.count = 1;
            txn.bounds = entry.mbr;
            return Ok(());
        }
        let mut reinserted = HashSet::new();
        self.insert_at(txn, entry, 0, &mut reinserted)?;
        txn.count += 1;
        Ok(())
    }

    /// Inserts `entry` into a node at `target_level`, splitting or
    /// (for R\*) force-reinserting on overflow. All node writes are
    /// copy-on-write against `txn`.
    fn insert_at(
        &self,
        txn: &mut Txn<D>,
        entry: Entry<D>,
        target_level: u16,
        reinserted: &mut HashSet<u16>,
    ) -> Result<()> {
        let root_level = (txn.height - 1) as u16;
        debug_assert!(target_level <= root_level);

        // Descend from the root to a node at target_level, remembering the
        // path of (page, chosen child index).
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut page = txn.root;
        let mut node = self.read_node(page)?;
        while node.level() > target_level {
            let idx = self.choose_subtree(&node, &entry.mbr);
            path.push((page, idx));
            page = node.entries()[idx].child();
            node = self.read_node(page)?;
        }

        let mut level = node.level();
        let mut entries = node.entries().to_vec();
        entries.push(entry);

        loop {
            if entries.len() <= self.max_entries {
                let new_page = self.cow_write(txn, page, level, &entries)?;
                return self.replace_in_path(txn, &path, page, new_page, entries_mbr(&entries));
            }

            // Overflow. R* first tries forced reinsertion, once per level
            // per top-level insert, and never at the root.
            let is_root = path.is_empty();
            if self.config.split == SplitStrategy::RStar && !is_root && !reinserted.contains(&level)
            {
                reinserted.insert(level);
                let p = self.config.reinsert_count(self.max_entries);
                let victims = take_reinsert_victims(&mut entries, p);
                let new_page = self.cow_write(txn, page, level, &entries)?;
                self.replace_in_path(txn, &path, page, new_page, entries_mbr(&entries))?;
                for v in victims {
                    self.insert_at(txn, v, level, reinserted)?;
                }
                return Ok(());
            }

            // Split: the left half replaces the node copy-on-write, the
            // right half is a brand-new transaction-owned page.
            let (left, right) = split_entries(self.config.split, entries, self.min_entries);
            let left_page = self.cow_write(txn, page, level, &left)?;
            let right_page = self.cow_alloc(txn, level, &right)?;
            let left_mbr = entries_mbr(&left);
            let right_mbr = entries_mbr(&right);

            match path.pop() {
                None => {
                    // Root split: grow the tree by one level.
                    txn.root = self.cow_alloc(
                        txn,
                        level + 1,
                        &[
                            Entry::for_child(left_mbr, left_page),
                            Entry::for_child(right_mbr, right_page),
                        ],
                    )?;
                    txn.height += 1;
                    txn.bounds = left_mbr.union(&right_mbr);
                    return Ok(());
                }
                Some((parent_page, idx)) => {
                    let parent = self.read_node(parent_page)?;
                    let mut parent_entries = parent.entries().to_vec();
                    parent_entries[idx] = Entry::for_child(left_mbr, left_page);
                    parent_entries.push(Entry::for_child(right_mbr, right_page));
                    page = parent_page;
                    level = parent.level();
                    entries = parent_entries;
                }
            }
        }
    }

    /// Picks the child of `node` to descend into for an entry with MBR `mbr`.
    fn choose_subtree(&self, node: &NodeView<D>, mbr: &Rect<D>) -> usize {
        debug_assert!(!node.is_leaf());
        let rstar_leaf_parent = self.config.split == SplitStrategy::RStar && node.level() == 1;
        if rstar_leaf_parent {
            // R* rule for nodes pointing at leaves: minimum *overlap*
            // enlargement, ties by area enlargement then area.
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for (i, e) in node.entries().iter().enumerate() {
                let enlarged = e.mbr.union(mbr);
                let mut overlap_now = 0.0;
                let mut overlap_then = 0.0;
                for (j, o) in node.entries().iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    overlap_now += e.mbr.overlap_area(&o.mbr);
                    overlap_then += enlarged.overlap_area(&o.mbr);
                }
                let key = (
                    overlap_then - overlap_now,
                    e.mbr.enlargement(mbr),
                    e.mbr.area(),
                );
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        } else {
            // Guttman's rule: minimum area enlargement, ties by area.
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, e) in node.entries().iter().enumerate() {
                let key = (e.mbr.enlargement(mbr), e.mbr.area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        }
    }

    // -- deletion ------------------------------------------------------------

    /// Removes the entry with exactly this bounding rectangle and record id.
    ///
    /// Runs as one copy-on-write transaction (see [`RTree::insert`]).
    /// Returns [`RTreeError::NotFound`] if no such entry exists.
    pub fn delete(&self, mbr: &Rect<D>, rid: RecordId) -> Result<()> {
        let _writer = self.writer.lock();
        let mut txn = self.begin();
        match self.delete_txn(&mut txn, mbr, rid) {
            Ok(()) => self.commit(txn),
            Err(e) => {
                self.rollback(&mut txn);
                Err(e)
            }
        }
    }

    fn delete_txn(&self, txn: &mut Txn<D>, mbr: &Rect<D>, rid: RecordId) -> Result<()> {
        if txn.height == 0 {
            return Err(RTreeError::NotFound);
        }
        // Find the leaf containing the entry, with the root-to-leaf path.
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let leaf = self
            .find_leaf(txn.root, mbr, rid, &mut path)?
            .ok_or(RTreeError::NotFound)?;

        let node = self.read_node(leaf)?;
        let mut entries = node.entries().to_vec();
        let pos = entries
            .iter()
            .position(|e| e.mbr == *mbr && e.record() == rid)
            .expect("find_leaf returned a leaf without the entry");
        entries.remove(pos);
        txn.count -= 1;

        // CondenseTree: walk up, dissolving underfull nodes.
        let mut orphans: Vec<(u16, Vec<Entry<D>>)> = Vec::new();
        let mut page = leaf;
        let mut level = 0u16;
        loop {
            let is_root = path.is_empty();
            if is_root {
                let new_page = self.cow_write(txn, page, level, &entries)?;
                txn.root = new_page;
                txn.bounds = entries_mbr(&entries);
                break;
            }
            if entries.len() < self.min_entries {
                // Dissolve this node; its entries get reinserted later.
                let (parent_page, idx) = path.pop().expect("non-root has a parent");
                if !entries.is_empty() {
                    orphans.push((level, std::mem::take(&mut entries)));
                }
                self.cow_free(txn, page)?;
                let parent = self.read_node(parent_page)?;
                let mut parent_entries = parent.entries().to_vec();
                parent_entries.remove(idx);
                page = parent_page;
                level = parent.level();
                entries = parent_entries;
            } else {
                let new_page = self.cow_write(txn, page, level, &entries)?;
                self.replace_in_path(txn, &path, page, new_page, entries_mbr(&entries))?;
                break;
            }
        }

        // Shrink the root while it is an internal node with a single child
        // (whose MBR is the root's).
        loop {
            let root = self.read_node(txn.root)?;
            if !root.is_leaf() && root.entries().len() == 1 {
                let child = root.entries()[0].child();
                self.cow_free(txn, txn.root)?;
                txn.root = child;
                txn.height -= 1;
            } else if root.is_leaf() && root.entries().is_empty() {
                self.cow_free(txn, txn.root)?;
                txn.root = PageId::INVALID;
                txn.height = 0;
                txn.bounds = Rect::empty();
                break;
            } else {
                break;
            }
        }

        // Reinsert orphans, highest levels first so their target levels
        // still exist.
        orphans.sort_by_key(|(level, _)| std::cmp::Reverse(*level));
        for (orphan_level, orphan_entries) in orphans {
            for e in orphan_entries {
                self.reinsert_orphan(txn, e, orphan_level)?;
            }
        }
        Ok(())
    }

    /// Reinserts an entry orphaned by CondenseTree at `level`. If the tree
    /// has shrunk below that level, the orphan's subtree is dismantled and
    /// its data entries inserted individually.
    fn reinsert_orphan(&self, txn: &mut Txn<D>, entry: Entry<D>, level: u16) -> Result<()> {
        if txn.height == 0 {
            txn.bounds = entry.mbr;
            if level == 0 {
                txn.root = self.cow_alloc(txn, 0, &[entry])?;
                txn.height = 1;
                return Ok(());
            }
            // Orphaned subtree becomes the new root.
            txn.root = entry.child();
            txn.height = u32::from(level);
            return Ok(());
        }
        let root_level = (txn.height - 1) as u16;
        if level <= root_level {
            let mut reinserted = HashSet::new();
            return self.insert_at(txn, entry, level, &mut reinserted);
        }
        // Pathological: the orphan is taller than the current tree.
        // Dismantle it into data entries.
        let mut data = Vec::new();
        self.collect_and_free(txn, entry.child(), &mut data)?;
        for e in data {
            let mut reinserted = HashSet::new();
            self.insert_at(txn, e, 0, &mut reinserted)?;
        }
        Ok(())
    }

    /// Collects all data entries beneath `page`, discarding the visited
    /// nodes (copy-on-write: committed pages are retired, fresh ones
    /// freed).
    fn collect_and_free(
        &self,
        txn: &mut Txn<D>,
        page: PageId,
        out: &mut Vec<Entry<D>>,
    ) -> Result<()> {
        let node = self.read_node(page)?;
        if node.is_leaf() {
            out.extend_from_slice(node.entries());
        } else {
            for e in node.entries().to_vec() {
                self.collect_and_free(txn, e.child(), out)?;
            }
        }
        self.cow_free(txn, page)
    }

    /// Depth-first search for the leaf holding `(mbr, rid)`; fills `path`
    /// with (page, child index) pairs from the root to the leaf's parent.
    fn find_leaf(
        &self,
        page: PageId,
        mbr: &Rect<D>,
        rid: RecordId,
        path: &mut Vec<(PageId, usize)>,
    ) -> Result<Option<PageId>> {
        let node = self.read_node(page)?;
        if node.is_leaf() {
            if node
                .entries()
                .iter()
                .any(|e| e.mbr == *mbr && e.record() == rid)
            {
                return Ok(Some(page));
            }
            return Ok(None);
        }
        for (idx, e) in node.entries().iter().enumerate() {
            if e.mbr.contains_rect(mbr) {
                path.push((page, idx));
                if let Some(leaf) = self.find_leaf(e.child(), mbr, rid, path)? {
                    return Ok(Some(leaf));
                }
                path.pop();
            }
        }
        Ok(None)
    }

    // -- queries -------------------------------------------------------------

    /// Returns all `(mbr, record)` pairs whose MBR intersects `window`.
    pub fn window(&self, window: &Rect<D>) -> Result<Vec<(Rect<D>, RecordId)>> {
        let mut out = Vec::new();
        let root = self.root();
        if !root.is_valid() {
            return Ok(out);
        }
        let mut stack = vec![root];
        while let Some(page) = stack.pop() {
            let node = self.read_node(page)?;
            if node.is_leaf() {
                for e in node.entries() {
                    if e.mbr.intersects(window) {
                        out.push((e.mbr, e.record()));
                    }
                }
            } else {
                for e in node.entries() {
                    if e.mbr.intersects(window) {
                        stack.push(e.child());
                    }
                }
            }
        }
        Ok(out)
    }

    /// Returns all `(mbr, record)` pairs whose MBR contains the point.
    pub fn point_query(&self, p: &Point<D>) -> Result<Vec<(Rect<D>, RecordId)>> {
        self.window(&Rect::from_point(*p))
    }

    /// Returns every data entry in the tree (in unspecified order).
    pub fn scan(&self) -> Result<Vec<(Rect<D>, RecordId)>> {
        self.window(&Rect::from_sorted(
            Point::new([f64::NEG_INFINITY; D]),
            Point::new([f64::INFINITY; D]),
        ))
    }
}

impl<const D: usize, S: NodeStore<D>> std::fmt::Debug for RTree<D, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let meta = *self.meta.read();
        f.debug_struct("RTree")
            .field("dims", &D)
            .field("count", &meta.count)
            .field("height", &meta.height)
            .field("max_entries", &self.max_entries)
            .field("split", &self.config.split)
            .finish()
    }
}
