//! A fixed-capacity buffer pool with LRU eviction and pin/unpin semantics,
//! optionally sharded for concurrent readers, with an optional background
//! prefetch pipeline.
//!
//! The pool is split into `S` sub-pools ("shards", `S` a power of two),
//! each with its own mutex, frame table, free list, and LRU clock. A page
//! lives in the shard selected by the low bits of its [`PageId`], so two
//! threads fetching pages in different shards never touch the same lock.
//! `S = 1` (the default) keeps the classic pool's bookkeeping — one global
//! LRU order, one mutex, and for any single-threaded access sequence the
//! same [`PoolStats`] and victim order — but not its stall: the mutex
//! covers the frame table only, never a device read.
//!
//! # In-flight loads
//!
//! A miss — a demand fetch's or a prefetch worker's, there is one load
//! routine — picks its victim, maps the page to the frame, pins it, and
//! takes the frame's write latch under the shard mutex, then *releases the
//! mutex* for the device read. Hits, and misses on other pages, go on
//! meanwhile. A concurrent fetch of the loading page finds the mapping,
//! counts a hit, pins, and waits on the frame latch until the bytes are
//! in: N racing fetches of one cold page cost one device read. While it
//! loads, the frame is pinned, so LRU cannot evict it and
//! [`BufferPool::delete_page`] reports it pinned. If the read fails the
//! loader gets the device's error, every fetch that waited on the latch
//! gets an error too (never the frame's stale bytes), and the frame is
//! unmapped and returns to the free list with its last unpin.
//!
//! [`BufferPool::try_fetch`] is the fetch of a caller that would rather do
//! something else than wait: a loaded page is pinned and counted exactly as
//! by `fetch`; a page whose load is in flight, or an absent page that the
//! prefetch queue accepts, is "not yet", with nothing counted and nothing
//! held. The batch executor in `nnq-core` suspends the query there and runs
//! another.
//!
//! Accounting invariant: every fetch that returns a page increments
//! exactly one shard's `logical_reads` cell, so the aggregate [`PoolStats`] — and therefore
//! the paper's "pages accessed" figure — is identical for every shard
//! count. Eviction order (and hence `physical_reads` under a *finite*
//! buffer) is per-shard LRU, which only coincides with global LRU at
//! `S = 1`; experiments that reproduce the paper's buffering curves use a
//! single shard.
//!
//! # Prefetch
//!
//! [`BufferPool::prefetch`] enqueues a page id to a small pool of
//! background I/O workers (started with [`BufferPool::start_prefetch`]).
//! Hints are deduplicated against resident, queued, and in-flight pages
//! and dropped when the bounded queue is full; a worker fills its frame by
//! the load protocol above, counting the frame `prefetched` where a demand
//! miss counts a `physical_read`.
//!
//! The one hint the traversals in `nnq-core` issue is a **certain** one:
//! `try_fetch` queues the absent page its caller is suspended on — the
//! next page that query reads — and counts it `issued` only when the queue
//! takes it (otherwise the caller reads the page itself, as a demand miss).
//! They issue no speculative hint: a page a query *may* visit, such as a
//! sibling in its branch list, is pruned as often as not. `prefetch` takes
//! any other hint through the same queue, workers and counters.
//!
//! Prefetch accounting is kept strictly separate from [`PoolStats`] in
//! [`PrefetchStats`]: issuing or completing a hint never moves
//! `logical_reads`, so the paper's page-access figures are bit-identical
//! with prefetch on or off. After [`BufferPool::prefetch_quiesce`] plus
//! [`BufferPool::clear_cache`], `useful + wasted + dropped == issued`.

use crate::wal::Wal;
use crate::{DiskManager, DiskStats, PageId, Result, StorageError};
use parking_lot::{ArcRwLockReadGuard, ArcRwLockWriteGuard, Mutex, MutexGuard, RawRwLock, RwLock};
use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// A frame's latched contents.
#[derive(Default)]
struct FrameBody {
    /// One page of bytes — or none: before the first install, and after a
    /// load whose device read failed, which empties the buffer before it
    /// releases the latch so that the fetchers that pinned the frame
    /// meanwhile find no page to serve. An install sets the length.
    bytes: Vec<u8>,
    /// What a reader made of `bytes` ([`PageReadGuard::decoded`]).
    decoded: OnceLock<Arc<dyn Any + Send + Sync>>,
}

type FrameData = Arc<RwLock<FrameBody>>;
type ReadGuardInner = ArcRwLockReadGuard<RawRwLock, FrameBody>;
type WriteGuardInner = ArcRwLockWriteGuard<RawRwLock, FrameBody>;

/// Takes a frame's write latch and drops its decoded value: every change
/// of a frame's bytes, and every mapping of a page to it, latches here.
/// (Eviction and `delete_page` only unmap a frame; they must not wait for
/// a latch that a flush may hold through a device write.)
fn latch_write(data: &FrameData) -> WriteGuardInner {
    let mut guard = RwLock::write_arc(data);
    guard.decoded.take();
    guard
}

/// What a fetch of `id` that finds the frame emptied by a failed load
/// reports: it waited out, or arrived just after, another fetch's read.
#[cold]
fn load_failed(id: PageId) -> StorageError {
    StorageError::Io(std::io::Error::other(format!(
        "a concurrent load of {id} failed"
    )))
}

/// Access counters maintained by a [`BufferPool`].
///
/// * `logical_reads` is the paper's **"pages accessed"** figure: every page
///   the algorithm touches, whether or not it was cached.
/// * `physical_reads` (misses) is the **disk I/O** figure under a finite
///   buffer, the quantity RKV'95's buffering experiments vary. It counts
///   *demand* device reads — the ones a fetch waited for itself. A page a
///   prefetch worker read and a fetch then claimed is a hit here and a
///   `useful` in [`PrefetchStats`]; device reads per logical read is
///   `(physical_reads + useful) / logical_reads`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total page fetches (read or write intent).
    pub logical_reads: u64,
    /// Fetches satisfied from the cache.
    pub hits: u64,
    /// Fetches that had to read from the device.
    pub physical_reads: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back to the device on eviction or flush.
    pub writebacks: u64,
}

impl PoolStats {
    /// Cache hit rate in `[0, 1]`.
    ///
    /// An untouched pool (`logical_reads == 0`) reports `0.0`, not NaN:
    /// callers format this directly into reports, and "no fetches" renders
    /// most honestly as a 0% hit rate. [`CacheStats::hit_rate`]
    /// follows the same convention.
    pub fn hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            self.hits as f64 / self.logical_reads as f64
        }
    }

    /// Fraction of fetches that had to read the device themselves — the
    /// **demand** miss rate — in `[0, 1]` (`0.0` for an untouched pool,
    /// same convention as [`PoolStats::hit_rate`]). Working prefetch
    /// lowers it without the pool getting any warmer: device reads per
    /// logical read are `(physical_reads + PrefetchStats::useful) /
    /// logical_reads`.
    pub fn miss_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            self.physical_reads as f64 / self.logical_reads as f64
        }
    }

    /// Adds `other` counter-wise — how per-shard stats sum to the pool
    /// aggregate, and how a partitioned tree's per-partition pools sum to
    /// one dataset-wide figure.
    pub fn accumulate(&mut self, other: PoolStats) {
        self.logical_reads += other.logical_reads;
        self.hits += other.hits;
        self.physical_reads += other.physical_reads;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
    }
}

/// Counters of `nnq-core`'s result cache, or, `hits` and `misses` only,
/// of the decoded nodes `nnq-rtree` keeps in pool frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes served from a valid entry.
    pub hits: u64,
    /// Probes with no entry for the key.
    pub misses: u64,
    /// Probes whose entry was recorded at another version.
    pub stale: u64,
    /// Entries stored, in-place refreshes included.
    pub inserts: u64,
    /// Entries dropped by the CLOCK hand.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
}

impl CacheStats {
    /// Fraction of probes served from the cache, stale probes counted as
    /// non-hits; `0.0` when nothing was probed (the convention of
    /// [`PoolStats::hit_rate`]).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters of the asynchronous prefetch pipeline.
///
/// Kept strictly separate from [`PoolStats`]: prefetch activity never moves
/// `logical_reads`, the paper's "pages accessed" figure. Every issued hint
/// is eventually classified exactly once:
///
/// * `useful` — the frame a prefetch loaded was later claimed by a demand
///   fetch (which counts as a pool *hit*).
/// * `wasted` — the frame was evicted, cleared, or deleted before any
///   demand fetch touched it (the device read bought nothing).
/// * `dropped` — the hint never performed a device read: deduplicated
///   against a resident/queued/in-flight page, bounced off a full queue,
///   cancelled, or failed.
///
/// So after the queue drains and the cache is cleared,
/// `useful + wasted + dropped == issued`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Hints passed to [`BufferPool::prefetch`] while a prefetcher was
    /// running.
    pub issued: u64,
    /// Prefetched frames later claimed by a demand fetch.
    pub useful: u64,
    /// Prefetched frames evicted/cleared/deleted untouched.
    pub wasted: u64,
    /// Hints that never reached the device (dedup, full queue, cancel).
    pub dropped: u64,
}

impl PrefetchStats {
    /// Fraction of issued hints that turned into demand hits, in `[0, 1]`
    /// (`0.0` when nothing was issued).
    pub fn useful_rate(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.useful as f64 / self.issued as f64
        }
    }
}

#[derive(Default)]
struct StatCells {
    logical_reads: AtomicU64,
    hits: AtomicU64,
    physical_reads: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.writebacks.store(0, Ordering::Relaxed);
    }
}

struct Frame {
    page: PageId,
    data: FrameData,
    dirty: bool,
    pins: u32,
    /// Recency stamp for LRU: larger = more recently used.
    tick: u64,
    /// Loaded by a prefetch and not yet claimed by a demand fetch. The
    /// first demand hit clears the flag and counts `prefetch_useful`;
    /// eviction/clear/delete of a flagged frame counts `prefetch_wasted`.
    prefetched: bool,
}

struct Inner {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    free: Vec<usize>,
    tick: u64,
}

impl Inner {
    /// Maps `id` to the free frame `frame_idx`, pinned once and stamped
    /// most-recently-used; returns its data cell.
    fn install(
        &mut self,
        frame_idx: usize,
        id: PageId,
        dirty: bool,
        prefetched: bool,
    ) -> FrameData {
        self.map.insert(id, frame_idx);
        self.tick += 1;
        let f = &mut self.frames[frame_idx];
        f.page = id;
        f.dirty = dirty;
        f.pins = 1;
        f.tick = self.tick;
        f.prefetched = prefetched;
        Arc::clone(&f.data)
    }
}

/// One sub-pool: its own latch, frame table, free list, LRU clock, and
/// stat cells. Pages are assigned to shards by `page_id & shard_mask`.
struct Shard {
    inner: Mutex<Inner>,
    stats: StatCells,
}

impl Shard {
    fn new(frames: usize) -> Self {
        let frames = (0..frames)
            .map(|_| Frame {
                page: PageId::INVALID,
                data: Arc::default(),
                dirty: false,
                pins: 0,
                tick: 0,
                prefetched: false,
            })
            .collect::<Vec<_>>();
        let capacity = frames.len();
        Self {
            inner: Mutex::new(Inner {
                frames,
                map: HashMap::with_capacity(capacity),
                free: (0..capacity).rev().collect(),
                tick: 0,
            }),
            stats: StatCells::default(),
        }
    }
}

/// What became of a hint offered to the prefetch queue.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hinted {
    /// It entered the queue.
    Queued,
    /// The page was already queued or being read.
    Pending,
    /// The queue is full or shutting down.
    Refused,
}

/// Queue shared between [`BufferPool::prefetch`] and the background I/O
/// workers. Uses `std::sync` primitives because the queue pairs a mutex
/// with a condition variable.
struct PrefetchState {
    queue: VecDeque<PageId>,
    queued: HashSet<PageId>,
    in_flight: HashSet<PageId>,
    cap: usize,
    shutdown: bool,
}

struct PrefetchShared {
    state: std::sync::Mutex<PrefetchState>,
    cvar: std::sync::Condvar,
    /// Set once a prefetcher is started; the hot paths early-out on it.
    active: AtomicBool,
    issued: AtomicU64,
    useful: AtomicU64,
    wasted: AtomicU64,
    dropped: AtomicU64,
}

impl PrefetchShared {
    fn new() -> Self {
        Self {
            state: std::sync::Mutex::new(PrefetchState {
                queue: VecDeque::new(),
                queued: HashSet::new(),
                in_flight: HashSet::new(),
                cap: 0,
                shutdown: false,
            }),
            cvar: std::sync::Condvar::new(),
            active: AtomicBool::new(false),
            issued: AtomicU64::new(0),
            useful: AtomicU64::new(0),
            wasted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> PrefetchStats {
        PrefetchStats {
            issued: self.issued.load(Ordering::Relaxed),
            useful: self.useful.load(Ordering::Relaxed),
            wasted: self.wasted.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.issued.store(0, Ordering::Relaxed);
        self.useful.store(0, Ordering::Relaxed);
        self.wasted.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// The shareable interior of a [`BufferPool`]: everything except the
/// worker join handles, so background prefetch threads can hold an `Arc`
/// of it without the pool becoming self-referential.
struct PoolCore {
    disk: Box<dyn DiskManager>,
    shards: Vec<Shard>,
    shard_mask: u64,
    capacity: usize,
    wal: Option<Wal>,
    prefetch: PrefetchShared,
}

/// A page cache over a [`DiskManager`].
///
/// * Fixed number of frames, chosen at construction, split across one or
///   more shards; LRU eviction among unpinned frames of the page's shard.
/// * [`BufferPool::fetch`] / [`BufferPool::fetch_write`] return RAII guards
///   that pin the page (pinned pages are never evicted) and latch its
///   contents for shared or exclusive access.
/// * All methods take `&self`; the pool is internally synchronized and can
///   be shared across threads. With `shards > 1`
///   ([`BufferPool::with_shards`]) concurrent fetches of pages in
///   different shards do not contend on any lock.
/// * [`BufferPool::start_prefetch`] attaches background I/O workers that
///   service [`BufferPool::prefetch`] hints without touching the demand
///   counters.
///
/// Callers must not fetch a page while holding a *write* guard on that same
/// page from the same thread (the per-frame latch is not reentrant).
pub struct BufferPool {
    core: Arc<PoolCore>,
    workers: Vec<JoinHandle<()>>,
}

impl BufferPool {
    /// Creates a single-shard pool with `capacity` frames over `disk`
    /// (one global LRU order — the paper's buffering model).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(disk: Box<dyn DiskManager>, capacity: usize) -> Self {
        Self::with_shards(disk, capacity, 1)
    }

    /// Creates a pool with `capacity` frames split across `shards`
    /// sub-pools. `shards` is rounded up to a power of two and clamped so
    /// every shard owns at least one frame.
    ///
    /// Aggregate `logical_reads` is identical for every shard count;
    /// eviction (and so `physical_reads` under a finite buffer) is
    /// per-shard LRU. Size `capacity ≫ shards` for sensible behavior.
    ///
    /// # Panics
    /// Panics if `capacity` or `shards` is zero.
    pub fn with_shards(disk: Box<dyn DiskManager>, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(shards > 0, "buffer pool needs at least one shard");
        let mut shards = shards.next_power_of_two();
        while shards > capacity {
            shards /= 2; // stay a power of two, every shard gets ≥ 1 frame
        }
        let base = capacity / shards;
        let rem = capacity % shards;
        let shard_vec = (0..shards)
            .map(|i| Shard::new(base + usize::from(i < rem)))
            .collect::<Vec<_>>();
        Self {
            core: Arc::new(PoolCore {
                disk,
                shard_mask: (shards - 1) as u64,
                shards: shard_vec,
                capacity,
                wal: None,
                prefetch: PrefetchShared::new(),
            }),
            workers: Vec::new(),
        }
    }

    /// Shard count sized for a thread hint: the next power of two at or
    /// above `threads` (so each worker of a `threads`-wide batch tends to
    /// land on its own latch).
    pub fn shards_for_threads(threads: usize) -> usize {
        threads.max(1).next_power_of_two()
    }

    /// Creates a pool whose page write-backs are journaled to `wal`
    /// first, enabling crash-safe checkpointing (see [`Wal`] and
    /// [`BufferPool::checkpoint`]).
    ///
    /// Recovery protocol for the caller on startup: open the device, open
    /// the WAL, call [`Wal::replay`] on the device, then build the pool
    /// with both.
    pub fn with_wal(disk: Box<dyn DiskManager>, capacity: usize, wal: Wal) -> Self {
        let mut pool = Self::new(disk, capacity);
        Arc::get_mut(&mut pool.core)
            .expect("pool not yet shared")
            .wal = Some(wal);
        pool
    }

    /// Starts `workers` background prefetch threads servicing a bounded
    /// queue of `queue_cap` hints. Must be called before the pool is
    /// shared (it takes `&mut self`); calling it more than once adds
    /// workers to the same queue. A zero worker count or queue capacity
    /// leaves the prefetcher off.
    pub fn start_prefetch(&mut self, workers: usize, queue_cap: usize) {
        if workers == 0 || queue_cap == 0 {
            return;
        }
        {
            let mut st = self.core.prefetch.state.lock().unwrap();
            st.cap = queue_cap;
            st.shutdown = false;
        }
        self.core.prefetch.active.store(true, Ordering::Relaxed);
        let first = self.workers.len();
        for i in first..first + workers {
            let core = Arc::clone(&self.core);
            let handle = std::thread::Builder::new()
                .name(format!("nnq-prefetch-{i}"))
                .spawn(move || prefetch_worker(core))
                .expect("failed to spawn prefetch worker");
            self.workers.push(handle);
        }
    }

    /// Whether a prefetcher is attached and running.
    pub fn prefetch_active(&self) -> bool {
        self.core.prefetch.active.load(Ordering::Relaxed)
    }

    /// Hints that `id` will likely be fetched soon. Non-blocking: the page
    /// is queued for a background read and the hint is dropped if it is
    /// already resident, queued, in flight, or the queue is full. A no-op
    /// (not even counted) unless [`BufferPool::start_prefetch`] ran.
    ///
    /// Never touches [`PoolStats`]: the demand-path `logical_reads` /
    /// `physical_reads` accounting is identical with prefetch on or off.
    pub fn prefetch(&self, id: PageId) {
        self.core.prefetch_enqueue(id);
    }

    /// Snapshot of the prefetch counters.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.core.prefetch.snapshot()
    }

    /// Blocks until the prefetch queue is empty and no read is in flight.
    /// Used by experiments before reading counters, so every issued hint
    /// has been classified (or is resident awaiting `useful`/`wasted`
    /// classification by [`BufferPool::clear_cache`]).
    pub fn prefetch_quiesce(&self) {
        self.core.quiesce_prefetch();
    }

    /// Number of background prefetch threads serving the queue (0 when no
    /// prefetcher is attached).
    pub fn prefetch_workers(&self) -> usize {
        self.workers.len()
    }

    /// Journals a page image before it is written back to the device
    /// (no-op without a WAL).
    fn log_writeback(&self, page: PageId, image: &[u8]) -> Result<()> {
        self.core.log_writeback(page, image)
    }

    /// The journal this pool appends write-backs to, if any. The
    /// copy-on-write publish path drives its commit groups through this
    /// handle so tree commits and pool write-backs share one log.
    pub fn wal(&self) -> Option<&Wal> {
        self.core.wal.as_ref()
    }

    /// Copies the current contents of `id` without touching the pool's
    /// logical/physical read counters: served from the resident frame when
    /// one exists, read straight from the device otherwise. This is the
    /// side door the publish path uses to capture shadow-page images for
    /// the journal — capturing an image is not a page access in the
    /// paper's accounting.
    pub fn page_image(&self, id: PageId) -> Result<Vec<u8>> {
        let shard_idx = (id.0 & self.core.shard_mask) as usize;
        let resident = {
            let mut inner = self.core.shards[shard_idx].inner.lock();
            if let Some(&frame_idx) = inner.map.get(&id) {
                // Pin so the frame cannot be evicted or repurposed while
                // we copy outside the shard lock.
                inner.frames[frame_idx].pins += 1;
                Some((frame_idx, Arc::clone(&inner.frames[frame_idx].data)))
            } else {
                None
            }
        };
        if let Some((frame_idx, data)) = resident {
            let image = data.read().bytes.clone();
            self.core.unpin(shard_idx, frame_idx);
            return if image.is_empty() {
                Err(load_failed(id))
            } else {
                Ok(image)
            };
        }
        let mut image = vec![0u8; self.core.disk.page_size()];
        self.core.disk.read_page(id, &mut image)?;
        Ok(image)
    }

    /// Crash-consistent checkpoint: journals and writes back every dirty
    /// page, syncs the device, then truncates the journal. After a
    /// successful checkpoint the device alone holds the state of record;
    /// after a crash at any point, [`Wal::replay`] restores it.
    pub fn checkpoint(&self) -> Result<()> {
        self.flush_all()?;
        if let Some(wal) = &self.core.wal {
            wal.sync()?;
            // Device is durably up to date (flush_all syncs); the journal
            // has served its purpose.
            wal.reset()?;
        }
        Ok(())
    }

    /// The page size of the underlying device.
    pub fn page_size(&self) -> usize {
        self.core.disk.page_size()
    }

    /// The total number of frames across all shards.
    pub fn capacity(&self) -> usize {
        self.core.capacity
    }

    /// The number of shards (a power of two; `1` for the default pool).
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// Aggregate access counters: the per-shard atomics summed. With one
    /// shard this is exactly the classic pool's counters; with many, the
    /// sum is still one increment per fetch, so `logical_reads` is
    /// shard-count-independent.
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for shard in &self.core.shards {
            total.accumulate(shard.stats.snapshot());
        }
        total
    }

    /// Per-shard counter snapshots, indexed by shard. Summing them equals
    /// [`BufferPool::stats`].
    pub fn shard_stats(&self) -> Vec<PoolStats> {
        self.core
            .shards
            .iter()
            .map(|s| s.stats.snapshot())
            .collect()
    }

    /// Counters of the underlying device.
    pub fn disk_stats(&self) -> DiskStats {
        self.core.disk.stats()
    }

    /// Number of live pages on the underlying device.
    pub fn live_pages(&self) -> u64 {
        self.core.disk.live_pages()
    }

    /// Resets pool, prefetch, and device counters (used between experiment
    /// phases). For the prefetch-classification invariant to hold across a
    /// reset, quiesce and clear the cache first so no frame still carries
    /// an unclassified prefetch.
    pub fn reset_stats(&self) {
        for shard in &self.core.shards {
            shard.stats.reset();
        }
        self.core.prefetch.reset();
        self.core.disk.reset_stats();
    }

    /// Drops every unpinned clean frame from the cache (writes back dirty
    /// ones first), so the next fetches are cold. Used by experiments that
    /// measure cold-cache I/O.
    ///
    /// Queued prefetch hints are cancelled (counted `dropped`) and
    /// in-flight reads drained first; prefetched frames that were never
    /// claimed by a demand fetch are counted `wasted` as they go.
    pub fn clear_cache(&self) -> Result<()> {
        self.core.drain_prefetch();
        for shard in &self.core.shards {
            let mut inner = shard.inner.lock();
            let mut idx = 0;
            while idx < inner.frames.len() {
                let (page, dirty, pins) = {
                    let f = &inner.frames[idx];
                    (f.page, f.dirty, f.pins)
                };
                if page.is_valid() && pins == 0 {
                    if dirty {
                        let data = Arc::clone(&inner.frames[idx].data);
                        let body = data.read();
                        self.log_writeback(page, &body.bytes)?;
                        self.core.disk.write_page(page, &body.bytes)?;
                        shard.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                    }
                    inner.map.remove(&page);
                    let f = &mut inner.frames[idx];
                    if f.prefetched {
                        f.prefetched = false;
                        self.core.prefetch.wasted.fetch_add(1, Ordering::Relaxed);
                    }
                    f.page = PageId::INVALID;
                    f.dirty = false;
                    inner.free.push(idx);
                }
                idx += 1;
            }
        }
        Ok(())
    }

    /// Drops the decoded value ([`PageReadGuard::decoded`]) of every
    /// resident page and keeps the pages, for measuring the decode. The
    /// calling thread must hold no guard of this pool.
    pub fn clear_decoded(&self) {
        for shard in &self.core.shards {
            // Latched off the shard lock, which a failed load takes while
            // it holds its frame's latch.
            let inner = shard.inner.lock();
            let mapped = inner.frames.iter().filter(|f| f.page.is_valid());
            let frames: Vec<_> = mapped.map(|f| Arc::clone(&f.data)).collect();
            drop(inner);
            frames.iter().for_each(|data| drop(latch_write(data)));
        }
    }

    /// Fetches a page for shared (read) access.
    #[inline]
    pub fn fetch(&self, id: PageId) -> Result<PageReadGuard<'_>> {
        let (shard_idx, frame_idx, data) = self.core.pin_frame(id, false)?;
        self.read_guard(id, shard_idx, frame_idx, RwLock::read_arc(&data))
    }

    /// Wraps the latched, pinned frame of `id` as a guard, unless a failed
    /// load left it empty.
    fn read_guard(
        &self,
        id: PageId,
        shard: usize,
        frame: usize,
        guard: ReadGuardInner,
    ) -> Result<PageReadGuard<'_>> {
        let guard = PageReadGuard {
            pool: self,
            shard,
            frame,
            guard,
        };
        if guard.is_empty() {
            return Err(load_failed(id)); // dropping the guard unpins
        }
        Ok(guard)
    }

    /// [`BufferPool::fetch`] for a caller that has something else to do
    /// while a device read runs: `Ok(None)` means "not yet", and **counts
    /// nothing** — the page's one logical read is counted by the call that
    /// returns it, this one or a later `fetch`.
    ///
    /// * Page loaded: pinned and returned exactly as `fetch` would (one
    ///   logical read, one hit, `useful` if a prefetch brought it in), under
    ///   the same single shard-lock acquisition.
    /// * Page mapped but its load still in the device (or a writer holding
    ///   its latch): not yet.
    /// * Page absent: queued for a background read as a **certain** hint —
    ///   the caller will come back for exactly this page — and not yet. A
    ///   repeat call while the page is queued or being read issues nothing
    ///   new. With no background reader to take it (no prefetcher or queue
    ///   full) this is `fetch`: a counted, blocking
    ///   demand load.
    ///
    /// Nothing is held across a "not yet": no pin, no latch. A page evicted
    /// again before the caller returns simply takes the absent path again,
    /// and a background read that failed leaves the page absent (the
    /// failed hint counted `dropped`).
    pub fn try_fetch(&self, id: PageId) -> Result<Option<PageReadGuard<'_>>> {
        if !id.is_valid() {
            return Err(StorageError::InvalidPage(id));
        }
        let shard_idx = (id.0 & self.core.shard_mask) as usize;
        let shard = &self.core.shards[shard_idx];
        let mut inner = shard.inner.lock();
        if let Some(&frame_idx) = inner.map.get(&id) {
            // A load in flight holds the frame's write latch from before
            // the page is mapped until its bytes are in.
            let Some(guard) = RwLock::try_read_arc(&inner.frames[frame_idx].data) else {
                return Ok(None);
            };
            shard.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
            self.core.claim(shard, &mut inner, frame_idx, false);
            drop(inner);
            return self.read_guard(id, shard_idx, frame_idx, guard).map(Some);
        }
        drop(inner);
        if self.core.request_load(id) {
            return Ok(None);
        }
        self.fetch(id).map(Some)
    }

    /// Fetches a page for exclusive (write) access and marks it dirty.
    #[inline]
    pub fn fetch_write(&self, id: PageId) -> Result<PageWriteGuard<'_>> {
        let (shard_idx, frame_idx, data) = self.core.pin_frame(id, true)?;
        let guard = PageWriteGuard {
            pool: self,
            shard: shard_idx,
            frame: frame_idx,
            guard: latch_write(&data),
        };
        if guard.is_empty() {
            return Err(load_failed(id));
        }
        Ok(guard)
    }

    /// Allocates a fresh zeroed page on the device and returns it pinned for
    /// writing.
    pub fn new_page(&self) -> Result<(PageId, PageWriteGuard<'_>)> {
        let id = self.core.disk.allocate()?;
        // The device can re-issue a freed id; make sure no stale hint for
        // it is queued or being read before mapping the fresh page.
        self.core.cancel_prefetch(id);
        let shard_idx = (id.0 & self.core.shard_mask) as usize;
        let shard = &self.core.shards[shard_idx];
        // The page is zeroed on the device; cache it without a device read.
        let mut inner = shard.inner.lock();
        let frame_idx = match self.core.acquire_frame(shard, &mut inner) {
            Ok(frame_idx) => frame_idx,
            Err(e) => {
                drop(inner);
                // Nothing holds the fresh id: free it, or the device leaks it.
                let _ = self.core.disk.deallocate(id);
                return Err(e);
            }
        };
        let data = inner.install(frame_idx, id, true, false);
        drop(inner);
        let mut guard = latch_write(&data);
        guard.bytes.clear();
        guard.bytes.resize(self.core.disk.page_size(), 0);
        Ok((
            id,
            PageWriteGuard {
                pool: self,
                shard: shard_idx,
                frame: frame_idx,
                guard,
            },
        ))
    }

    /// Deletes a page: removes it from the cache and frees it on the device.
    ///
    /// A queued prefetch of the page is cancelled and an in-flight one
    /// drained first, so a background read cannot resurrect the freed page
    /// into a frame. Fails with [`StorageError::PoolExhausted`] if the
    /// page is currently pinned by a demand guard or a demand load in
    /// flight.
    pub fn delete_page(&self, id: PageId) -> Result<()> {
        self.core.cancel_prefetch(id);
        let shard = self.core.shard_of(id);
        let mut inner = shard.inner.lock();
        if let Some(&frame_idx) = inner.map.get(&id) {
            if inner.frames[frame_idx].pins > 0 {
                return Err(StorageError::PoolExhausted {
                    frames: inner.frames.len(),
                });
            }
            inner.map.remove(&id);
            let f = &mut inner.frames[frame_idx];
            if f.prefetched {
                f.prefetched = false;
                self.core.prefetch.wasted.fetch_add(1, Ordering::Relaxed);
            }
            f.page = PageId::INVALID;
            f.dirty = false;
            inner.free.push(frame_idx);
        }
        drop(inner);
        self.core.disk.deallocate(id)
    }

    /// Writes all dirty frames back to the device and syncs it.
    ///
    /// The dirty frames are listed under the shard lock and written
    /// without it, so a reader dropping a tree snapshot may
    /// [`delete_page`](Self::delete_page) a listed page in between. Such
    /// a page has nothing left to persist: its frame is skipped, not
    /// written (the frame may hold another page by then) and not an error.
    pub fn flush_all(&self) -> Result<()> {
        for shard in &self.core.shards {
            let inner = shard.inner.lock();
            // Collect the dirty frames first so the device I/O happens
            // off the shard lock; frames stay resident, become clean.
            let mut to_write = Vec::new();
            for (frame_idx, f) in inner.frames.iter().enumerate() {
                if f.page.is_valid() && f.dirty {
                    to_write.push((frame_idx, f.page, Arc::clone(&f.data)));
                }
            }
            drop(inner);
            let still_here =
                |frame_idx, page| shard.inner.lock().map.get(&page) == Some(&frame_idx);
            for (frame_idx, page, data) in to_write {
                if !still_here(frame_idx, page) {
                    continue;
                }
                // The latch is released before the shard lock is taken
                // again: a loader waits for this latch *under* that lock.
                let written = {
                    let body = data.read();
                    self.log_writeback(page, &body.bytes)?;
                    self.core.disk.write_page(page, &body.bytes)
                };
                match written {
                    // Freed between the probe and the write.
                    Err(StorageError::InvalidPage(_)) if !still_here(frame_idx, page) => continue,
                    res => res?,
                }
                shard.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            let mut inner = shard.inner.lock();
            for f in &mut inner.frames {
                if f.page.is_valid() {
                    f.dirty = false;
                }
            }
        }
        self.core.disk.sync()
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.core.prefetch.active.store(false, Ordering::Relaxed);
        {
            let mut st = self.core.prefetch.state.lock().unwrap();
            st.shutdown = true;
            st.queue.clear();
            st.queued.clear();
        }
        self.core.prefetch.cvar.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Background prefetch worker: pops hints off the shared queue and loads
/// them into frames until shutdown.
fn prefetch_worker(core: Arc<PoolCore>) {
    loop {
        let id = {
            let mut st = core.prefetch.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    st.queued.remove(&id);
                    st.in_flight.insert(id);
                    break id;
                }
                st = core.prefetch.cvar.wait(st).unwrap();
            }
        };
        core.prefetch_read(id);
        let mut st = core.prefetch.state.lock().unwrap();
        st.in_flight.remove(&id);
        drop(st);
        // Wake cancel/drain/quiesce waiters (and idle workers).
        core.prefetch.cvar.notify_all();
    }
}

impl PoolCore {
    #[inline]
    fn shard_of(&self, id: PageId) -> &Shard {
        &self.shards[(id.0 & self.shard_mask) as usize]
    }

    fn log_writeback(&self, page: PageId, image: &[u8]) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.append(page, image)?;
        }
        Ok(())
    }

    // -- demand path -------------------------------------------------------

    /// Pins the frame holding `id` in its shard, loading it from the device
    /// on a miss. Returns the shard index, frame index, and its data cell.
    /// The caller latches the cell next and must check it is not empty: on
    /// a hit the frame may still be loading (or have failed to).
    fn pin_frame(&self, id: PageId, write_intent: bool) -> Result<(usize, usize, FrameData)> {
        if !id.is_valid() {
            return Err(StorageError::InvalidPage(id));
        }
        let shard_idx = (id.0 & self.shard_mask) as usize;
        let shard = &self.shards[shard_idx];
        let mut inner = shard.inner.lock();

        if let Some(&frame_idx) = inner.map.get(&id) {
            shard.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
            // If another thread (demand or prefetch) is still loading this
            // frame it holds the write latch, and the caller's latch
            // acquisition waits there, not on the shard, for the bytes.
            let data = self.claim(shard, &mut inner, frame_idx, write_intent);
            return Ok((shard_idx, frame_idx, data));
        }

        // A miss counts once it holds a frame: a fetch refused for lack of
        // one read nothing.
        let frame_idx = self.acquire_frame(shard, &mut inner)?;
        shard.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
        shard.stats.physical_reads.fetch_add(1, Ordering::Relaxed);
        let data = self.load(shard_idx, inner, frame_idx, id, write_intent, false)?;
        Ok((shard_idx, frame_idx, data))
    }

    /// The hit half of a fetch, under the shard lock: counts the hit, pins
    /// the mapped frame `frame_idx` and stamps it most-recently-used.
    fn claim(
        &self,
        shard: &Shard,
        inner: &mut Inner,
        frame_idx: usize,
        write_intent: bool,
    ) -> FrameData {
        shard.stats.hits.fetch_add(1, Ordering::Relaxed);
        inner.tick += 1;
        let tick = inner.tick;
        let f = &mut inner.frames[frame_idx];
        if f.prefetched {
            // First demand claim of a prefetched frame: the hint paid off.
            f.prefetched = false;
            self.prefetch.useful.fetch_add(1, Ordering::Relaxed);
        }
        f.pins += 1;
        f.tick = tick;
        if write_intent {
            f.dirty = true;
        }
        Arc::clone(&f.data)
    }

    /// The one page-load protocol (module docs, "In-flight loads"), shared
    /// by demand misses and prefetch workers, which differ only in what
    /// they counted before calling. Takes the shard lock and a free frame;
    /// returns with the lock dropped, the latch released, and the caller
    /// owning the frame's one pin — or, if the read failed, with the frame
    /// emptied, unmapped, and that pin dropped.
    fn load(
        &self,
        shard_idx: usize,
        mut inner: MutexGuard<'_, Inner>,
        frame_idx: usize,
        id: PageId,
        dirty: bool,
        prefetched: bool,
    ) -> Result<FrameData> {
        let data = inner.install(frame_idx, id, dirty, prefetched);
        let mut buf = latch_write(&data);
        drop(inner);
        buf.bytes.resize(self.disk.page_size(), 0);
        let read = self.disk.read_page(id, &mut buf.bytes);
        if read.is_err() {
            // Empty the frame and unmap it before the latch is released:
            // whoever latches next finds no page, whoever fetches next
            // misses cleanly.
            buf.bytes.clear();
            let mut inner = self.shards[shard_idx].inner.lock();
            inner.map.remove(&id);
            let f = &mut inner.frames[frame_idx];
            if f.prefetched {
                // No demand fetch claimed the hint; it bought no read.
                f.prefetched = false;
                self.prefetch.dropped.fetch_add(1, Ordering::Relaxed);
            }
            f.page = PageId::INVALID;
            f.dirty = false;
            drop(inner);
            self.unpin(shard_idx, frame_idx);
        }
        read.map(|()| data)
    }

    /// Gets a free frame in `shard`, evicting its least-recently-used
    /// unpinned frame if necessary. The returned frame is unmapped and
    /// unpinned.
    fn acquire_frame(&self, shard: &Shard, inner: &mut Inner) -> Result<usize> {
        if let Some(idx) = inner.free.pop() {
            return Ok(idx);
        }
        // LRU scan over unpinned frames.
        let victim = inner
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.pins == 0 && f.page.is_valid())
            .min_by_key(|(_, f)| f.tick)
            .map(|(i, _)| i)
            .ok_or(StorageError::PoolExhausted {
                frames: inner.frames.len(),
            })?;
        let (page, dirty) = {
            let f = &inner.frames[victim];
            (f.page, f.dirty)
        };
        if dirty {
            let data = Arc::clone(&inner.frames[victim].data);
            let body = data.read();
            self.log_writeback(page, &body.bytes)?;
            self.disk.write_page(page, &body.bytes)?;
            shard.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        inner.map.remove(&page);
        let f = &mut inner.frames[victim];
        if f.prefetched {
            // Evicted before any demand fetch touched it: the device read
            // bought nothing.
            f.prefetched = false;
            self.prefetch.wasted.fetch_add(1, Ordering::Relaxed);
        }
        f.page = PageId::INVALID;
        f.dirty = false;
        shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(victim)
    }

    fn unpin(&self, shard_idx: usize, frame_idx: usize) {
        let mut inner = self.shards[shard_idx].inner.lock();
        let f = &mut inner.frames[frame_idx];
        debug_assert!(f.pins > 0, "unpin of unpinned frame");
        f.pins -= 1;
        if f.pins == 0 && !f.page.is_valid() {
            // The frame was unmapped while pinned (a failed load raced
            // with other fetchers of its page); the last unpin reclaims it.
            inner.free.push(frame_idx);
        }
    }

    // -- prefetch path -----------------------------------------------------

    /// Foreground half of a speculative prefetch: classify-or-enqueue,
    /// never blocking on I/O.
    fn prefetch_enqueue(&self, id: PageId) {
        if !self.prefetch.active.load(Ordering::Relaxed) {
            return;
        }
        self.prefetch.issued.fetch_add(1, Ordering::Relaxed);
        // Dedup against resident pages. Advisory only — the worker
        // re-checks under the shard lock before reading.
        let wanted = id.is_valid() && !self.shard_of(id).inner.lock().map.contains_key(&id);
        if !wanted || self.enqueue_hint(id, false) != Hinted::Queued {
            self.prefetch.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Foreground half of a **certain** hint — [`BufferPool::try_fetch`]
    /// found `id` absent and its caller will come back for it. Whether a
    /// background read of the page is now queued or running; `false` means
    /// the caller must read it itself. Only a hint that entered the queue
    /// counts `issued`.
    fn request_load(&self, id: PageId) -> bool {
        self.prefetch.active.load(Ordering::Relaxed)
            && self.enqueue_hint(id, true) != Hinted::Refused
    }

    /// Puts `id` on the prefetch queue unless it is already queued or being
    /// read, or the queue is full. `count_issued` counts an accepted hint
    /// before a worker can see it (speculative hints were counted on
    /// arrival).
    fn enqueue_hint(&self, id: PageId, count_issued: bool) -> Hinted {
        let mut st = self.prefetch.state.lock().unwrap();
        if st.queued.contains(&id) || st.in_flight.contains(&id) {
            return Hinted::Pending;
        }
        if st.shutdown || st.queue.len() >= st.cap {
            return Hinted::Refused;
        }
        if count_issued {
            self.prefetch.issued.fetch_add(1, Ordering::Relaxed);
        }
        st.queue.push_back(id);
        st.queued.insert(id);
        drop(st);
        self.prefetch.cvar.notify_all();
        Hinted::Queued
    }

    /// Background half of a prefetch: [`PoolCore::load`] `id` into a frame
    /// flagged `prefetched`, without touching the demand-path counters.
    fn prefetch_read(&self, id: PageId) {
        let shard_idx = (id.0 & self.shard_mask) as usize;
        let shard = &self.shards[shard_idx];
        let mut inner = shard.inner.lock();
        // Already resident (demand-fetched since the hint was queued), or
        // no frame to be had (every one pinned, or the victim's write-back
        // failed): give up on the hint rather than stall the worker.
        let frame_idx = if inner.map.contains_key(&id) {
            None
        } else {
            self.acquire_frame(shard, &mut inner).ok()
        };
        let Some(frame_idx) = frame_idx else {
            self.prefetch.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // A failed read (unreachable for hints derived from live tree
        // nodes) is counted `dropped` by the loader.
        let loaded = self.load(shard_idx, inner, frame_idx, id, false, true);
        if loaded.is_ok() {
            self.unpin(shard_idx, frame_idx);
        }
    }

    /// Removes any queued prefetch of `id` and waits out an in-flight one,
    /// so the caller can free or re-allocate the page without a background
    /// read racing the operation.
    fn cancel_prefetch(&self, id: PageId) {
        if !self.prefetch.active.load(Ordering::Relaxed) {
            return;
        }
        let mut st = self.prefetch.state.lock().unwrap();
        if st.queued.remove(&id) {
            st.queue.retain(|&p| p != id);
            self.prefetch.dropped.fetch_add(1, Ordering::Relaxed);
        }
        while st.in_flight.contains(&id) {
            st = self.prefetch.cvar.wait(st).unwrap();
        }
    }

    /// Cancels every queued hint (counted `dropped`) and waits for all
    /// in-flight reads to finish.
    fn drain_prefetch(&self) {
        if !self.prefetch.active.load(Ordering::Relaxed) {
            return;
        }
        let mut st = self.prefetch.state.lock().unwrap();
        let n = st.queue.len() as u64;
        if n > 0 {
            self.prefetch.dropped.fetch_add(n, Ordering::Relaxed);
            st.queue.clear();
            st.queued.clear();
        }
        while !st.in_flight.is_empty() {
            st = self.prefetch.cvar.wait(st).unwrap();
        }
    }

    /// Waits until the queue is empty and nothing is in flight, without
    /// cancelling anything.
    fn quiesce_prefetch(&self) {
        if !self.prefetch.active.load(Ordering::Relaxed) {
            return;
        }
        let mut st = self.prefetch.state.lock().unwrap();
        while !st.queue.is_empty() || !st.in_flight.is_empty() {
            st = self.prefetch.cvar.wait(st).unwrap();
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity())
            .field("shards", &self.shard_count())
            .field("page_size", &self.page_size())
            .field("stats", &self.stats())
            .field("prefetch", &self.prefetch_stats())
            .finish()
    }
}

/// RAII shared-access guard over a cached page. Pins the page for its
/// lifetime; dereferences to the page bytes.
pub struct PageReadGuard<'a> {
    pool: &'a BufferPool,
    shard: usize,
    frame: usize,
    guard: ReadGuardInner,
}

impl Deref for PageReadGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.guard.bytes
    }
}

impl PageReadGuard<'_> {
    /// What `decode` makes of this page: the first reader since the bytes
    /// last changed decodes and leaves the value in the frame (of racing
    /// readers, the first to finish), and later readers share it. A reader
    /// of another type than the stored one decodes without storing.
    pub fn decoded<T: Any + Send + Sync, E>(
        &self,
        decode: impl FnOnce(&[u8]) -> std::result::Result<T, E>,
    ) -> std::result::Result<Arc<T>, E> {
        if let Some(Ok(value)) = self.guard.decoded.get().map(|v| Arc::clone(v).downcast()) {
            return Ok(value);
        }
        let value = Arc::new(decode(&self.guard.bytes)?);
        let _ = self.guard.decoded.set(value.clone());
        Ok(value)
    }
}

impl Drop for PageReadGuard<'_> {
    fn drop(&mut self) {
        self.pool.core.unpin(self.shard, self.frame);
    }
}

/// RAII exclusive-access guard over a cached page. Pins the page and marks
/// it dirty for its lifetime; dereferences to the mutable page bytes.
pub struct PageWriteGuard<'a> {
    pool: &'a BufferPool,
    shard: usize,
    frame: usize,
    guard: WriteGuardInner,
}

impl Deref for PageWriteGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.guard.bytes
    }
}

impl DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.guard.bytes
    }
}

impl Drop for PageWriteGuard<'_> {
    fn drop(&mut self) {
        self.pool.core.unpin(self.shard, self.frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultDisk, LatencyDisk, LatencyProfile, MemDisk};

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Box::new(MemDisk::new(128)), frames)
    }

    fn sharded(frames: usize, shards: usize) -> BufferPool {
        BufferPool::with_shards(Box::new(MemDisk::new(128)), frames, shards)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let p = pool(4);
        let (id, mut w) = p.new_page().unwrap();
        w[0] = 42;
        w[127] = 7;
        drop(w);
        let r = p.fetch(id).unwrap();
        assert_eq!(r[0], 42);
        assert_eq!(r[127], 7);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let p = pool(4);
        let (id, w) = p.new_page().unwrap();
        drop(w);
        p.reset_stats();
        let _ = p.fetch(id).unwrap(); // hit: still cached
        let s = p.stats();
        assert_eq!(s.logical_reads, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.physical_reads, 0);
        assert_eq!(s.hit_rate(), 1.0);
    }

    #[test]
    fn hit_rate_of_untouched_pool_is_zero() {
        // No fetches must report 0.0 (not NaN) — stats formatters divide
        // by logical_reads and print the rate unconditionally.
        let p = pool(4);
        let s = p.stats();
        assert_eq!(s.logical_reads, 0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);

        // Same after a reset wipes earlier activity.
        let (id, w) = p.new_page().unwrap();
        drop(w);
        let _ = p.fetch(id).unwrap();
        p.reset_stats();
        assert_eq!(p.stats().hit_rate(), 0.0);
    }

    #[test]
    fn eviction_is_lru_and_writes_back_dirty_pages() {
        let p = pool(2);
        let (a, mut wa) = p.new_page().unwrap();
        wa[0] = 1;
        drop(wa);
        let (b, mut wb) = p.new_page().unwrap();
        wb[0] = 2;
        drop(wb);
        // Touch `a` so `b` is the LRU victim.
        drop(p.fetch(a).unwrap());
        let (c, mut wc) = p.new_page().unwrap(); // evicts b
        wc[0] = 3;
        drop(wc);
        let s = p.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.writebacks, 1); // b was dirty
                                     // All three pages still readable with correct contents.
        assert_eq!(p.fetch(a).unwrap()[0], 1);
        assert_eq!(p.fetch(b).unwrap()[0], 2);
        assert_eq!(p.fetch(c).unwrap()[0], 3);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let p = pool(2);
        let (a, wa) = p.new_page().unwrap();
        drop(wa);
        let (_b, wb) = p.new_page().unwrap();
        // `c` evicts `a`; then both frames are pinned, and neither a third
        // page nor `a` can enter the pool.
        let (_c, wc) = p.new_page().unwrap();
        let (stats, live) = (p.stats(), p.live_pages());
        let err = p.new_page();
        assert!(matches!(err, Err(StorageError::PoolExhausted { .. })));
        assert!(matches!(
            p.fetch(a),
            Err(StorageError::PoolExhausted { .. })
        ));
        // A refusal reads nothing and leaves no device page allocated.
        assert_eq!(p.stats(), stats);
        assert_eq!(p.live_pages(), live);
        drop(wb);
        drop(wc);
        // Now there is room again.
        assert!(p.new_page().is_ok());
        assert!(p.fetch(a).is_ok());
    }

    #[test]
    fn multiple_read_pins_share_a_frame() {
        let p = pool(2);
        let (id, w) = p.new_page().unwrap();
        drop(w);
        let r1 = p.fetch(id).unwrap();
        let r2 = p.fetch(id).unwrap();
        assert_eq!(&r1[..], &r2[..]);
        drop(r1);
        drop(r2);
    }

    #[test]
    fn delete_page_removes_from_cache_and_disk() {
        let p = pool(2);
        let (id, w) = p.new_page().unwrap();
        drop(w);
        p.delete_page(id).unwrap();
        assert!(p.fetch(id).is_err());
        assert_eq!(p.live_pages(), 0);
    }

    #[test]
    fn delete_of_pinned_page_fails() {
        let p = pool(2);
        let (id, w) = p.new_page().unwrap();
        assert!(p.delete_page(id).is_err());
        drop(w);
        assert!(p.delete_page(id).is_ok());
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let p = pool(4);
        let (id, mut w) = p.new_page().unwrap();
        w[5] = 99;
        drop(w);
        p.flush_all().unwrap();
        // Drop from cache and re-read from the device.
        p.clear_cache().unwrap();
        let r = p.fetch(id).unwrap();
        assert_eq!(r[5], 99);
        let s = p.stats();
        assert!(s.physical_reads >= 1);
    }

    #[test]
    fn clear_cache_makes_fetches_cold() {
        let p = pool(8);
        let (id, w) = p.new_page().unwrap();
        drop(w);
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        drop(p.fetch(id).unwrap());
        assert_eq!(p.stats().physical_reads, 1);
        drop(p.fetch(id).unwrap());
        assert_eq!(p.stats().physical_reads, 1); // second is a hit
    }

    #[test]
    fn fetch_invalid_page_fails_cleanly() {
        let p = pool(2);
        assert!(p.fetch(PageId::INVALID).is_err());
        assert!(p.fetch(PageId(12345)).is_err());
        // Failed miss must not leak the frame.
        for _ in 0..10 {
            assert!(p.fetch(PageId(12345)).is_err());
        }
        assert!(p.new_page().is_ok());
    }

    #[test]
    fn stats_reset_clears_everything() {
        let p = pool(2);
        let (id, w) = p.new_page().unwrap();
        drop(w);
        drop(p.fetch(id).unwrap());
        p.reset_stats();
        assert_eq!(p.stats(), PoolStats::default());
        assert_eq!(p.disk_stats(), DiskStats::default());
        assert_eq!(p.prefetch_stats(), PrefetchStats::default());
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let p = Arc::new(BufferPool::new(Box::new(MemDisk::new(128)), 16));
        let mut ids = Vec::new();
        for i in 0..8u8 {
            let (id, mut w) = p.new_page().unwrap();
            w[0] = i;
            ids.push(id);
            drop(w);
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let p = Arc::clone(&p);
                let ids = ids.clone();
                std::thread::spawn(move || {
                    for round in 0..200 {
                        let id = ids[(t + round) % ids.len()];
                        let g = p.fetch(id).unwrap();
                        let v = g[0];
                        assert!((v as usize) < 8);
                        drop(g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    // -- sharded pools -----------------------------------------------------

    #[test]
    fn shard_count_is_pow2_and_clamped() {
        assert_eq!(sharded(64, 1).shard_count(), 1);
        assert_eq!(sharded(64, 3).shard_count(), 4);
        assert_eq!(sharded(64, 8).shard_count(), 8);
        // More shards than frames: clamped so each shard has ≥ 1 frame.
        assert_eq!(sharded(2, 8).shard_count(), 2);
        assert_eq!(sharded(3, 8).shard_count(), 2);
    }

    #[test]
    fn sharded_capacity_is_preserved() {
        for (frames, shards) in [(64, 4), (65, 4), (7, 8), (100, 16)] {
            let p = sharded(frames, shards);
            assert_eq!(p.capacity(), frames, "frames={frames} shards={shards}");
        }
    }

    #[test]
    fn shards_for_threads_rounds_up() {
        assert_eq!(BufferPool::shards_for_threads(0), 1);
        assert_eq!(BufferPool::shards_for_threads(1), 1);
        assert_eq!(BufferPool::shards_for_threads(3), 4);
        assert_eq!(BufferPool::shards_for_threads(8), 8);
    }

    #[test]
    fn sharded_roundtrip_and_aggregate_stats() {
        let p = sharded(32, 4);
        let mut ids = Vec::new();
        for i in 0..16u8 {
            let (id, mut w) = p.new_page().unwrap();
            w[0] = i;
            ids.push(id);
            drop(w);
        }
        p.reset_stats();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.fetch(id).unwrap()[0], i as u8);
        }
        let total = p.stats();
        assert_eq!(total.logical_reads, 16);
        assert_eq!(total.hits, 16);
        // Per-shard counters sum to the aggregate.
        let per_shard = p.shard_stats();
        assert_eq!(per_shard.len(), 4);
        let mut summed = PoolStats::default();
        for s in per_shard {
            summed.accumulate(s);
        }
        assert_eq!(summed, total);
    }

    #[test]
    fn logical_reads_identical_across_shard_counts() {
        // The same fetch sequence produces the same aggregate
        // logical_reads for every shard count — the paper's "pages
        // accessed" cannot depend on the latch layout.
        let mut per_config = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            let p = sharded(16, shards);
            let mut ids = Vec::new();
            for _ in 0..12 {
                let (id, w) = p.new_page().unwrap();
                ids.push(id);
                drop(w);
            }
            p.reset_stats();
            for round in 0..5 {
                for &id in ids.iter().skip(round % 3) {
                    drop(p.fetch(id).unwrap());
                }
            }
            per_config.push(p.stats().logical_reads);
        }
        assert!(
            per_config.windows(2).all(|w| w[0] == w[1]),
            "{per_config:?}"
        );
    }

    #[test]
    fn sharded_flush_clear_and_delete() {
        let p = sharded(16, 4);
        let mut ids = Vec::new();
        for i in 0..8u8 {
            let (id, mut w) = p.new_page().unwrap();
            w[0] = i + 1;
            ids.push(id);
            drop(w);
        }
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.fetch(id).unwrap()[0], i as u8 + 1);
        }
        assert_eq!(p.stats().physical_reads, 8); // all cold
        p.delete_page(ids[0]).unwrap();
        assert!(p.fetch(ids[0]).is_err());
    }

    #[test]
    fn sharded_concurrent_fetches() {
        use std::sync::Arc;
        let p = Arc::new(sharded(64, 8));
        let mut ids = Vec::new();
        for i in 0..32u8 {
            let (id, mut w) = p.new_page().unwrap();
            w[0] = i;
            ids.push(id);
            drop(w);
        }
        std::thread::scope(|scope| {
            for t in 0..8 {
                let p = Arc::clone(&p);
                let ids = ids.clone();
                scope.spawn(move || {
                    for round in 0..500 {
                        let i = (t * 7 + round) % ids.len();
                        let g = p.fetch(ids[i]).unwrap();
                        assert_eq!(g[0] as usize, i);
                    }
                });
            }
        });
        assert_eq!(p.stats().logical_reads, 8 * 500);
    }

    // -- prefetch ----------------------------------------------------------

    /// A pool with a running prefetcher over a zero-latency MemDisk.
    fn prefetch_pool(frames: usize) -> BufferPool {
        let mut p = BufferPool::new(Box::new(MemDisk::new(128)), frames);
        p.start_prefetch(2, 16);
        p
    }

    /// Creates `n` flushed pages (payload = index + 1) and clears the
    /// cache, so every page is cold on the device.
    fn cold_pages(p: &BufferPool, n: u8) -> Vec<PageId> {
        let mut ids = Vec::new();
        for i in 0..n {
            let (id, mut w) = p.new_page().unwrap();
            w[0] = i + 1;
            ids.push(id);
            drop(w);
        }
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        ids
    }

    #[test]
    fn prefetch_without_prefetcher_is_a_silent_noop() {
        let p = pool(4);
        let ids = cold_pages(&p, 2);
        p.prefetch(ids[0]);
        p.prefetch_quiesce();
        assert_eq!(p.prefetch_stats(), PrefetchStats::default());
        assert_eq!(p.stats(), PoolStats::default());
        // The page is still cold.
        drop(p.fetch(ids[0]).unwrap());
        assert_eq!(p.stats().physical_reads, 1);
    }

    #[test]
    fn prefetch_loads_page_without_touching_demand_counters() {
        let p = prefetch_pool(8);
        let ids = cold_pages(&p, 3);
        p.prefetch(ids[0]);
        p.prefetch_quiesce();
        // The background read moved no demand counter.
        assert_eq!(p.stats(), PoolStats::default());
        let pf = p.prefetch_stats();
        assert_eq!(pf.issued, 1);
        assert_eq!(pf.useful + pf.wasted + pf.dropped, 0); // unclassified: resident
                                                           // Demand fetch now hits and classifies the frame useful.
        let g = p.fetch(ids[0]).unwrap();
        assert_eq!(g[0], 1);
        drop(g);
        let s = p.stats();
        assert_eq!(s.logical_reads, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.physical_reads, 0);
        let pf = p.prefetch_stats();
        assert_eq!(pf.useful, 1);
        assert_eq!(pf.useful + pf.wasted + pf.dropped, pf.issued);
        assert_eq!(pf.useful_rate(), 1.0);
    }

    #[test]
    fn prefetch_dedups_resident_queued_and_invalid() {
        let p = prefetch_pool(8);
        let ids = cold_pages(&p, 2);
        // Resident page: dropped.
        drop(p.fetch(ids[0]).unwrap());
        p.prefetch(ids[0]);
        // Invalid id: dropped.
        p.prefetch(PageId::INVALID);
        p.prefetch_quiesce();
        let pf = p.prefetch_stats();
        assert_eq!(pf.issued, 2);
        assert_eq!(pf.dropped, 2);
        assert_eq!(pf.useful, 0);
        assert_eq!(pf.wasted, 0);
    }

    #[test]
    fn clear_cache_classifies_unclaimed_prefetches_as_wasted() {
        let p = prefetch_pool(8);
        let ids = cold_pages(&p, 4);
        for &id in &ids {
            p.prefetch(id);
        }
        p.prefetch_quiesce();
        p.clear_cache().unwrap();
        let pf = p.prefetch_stats();
        assert_eq!(pf.issued, 4);
        assert_eq!(pf.useful + pf.wasted + pf.dropped, pf.issued);
        // Nothing demand-fetched them, so none were useful.
        assert_eq!(pf.useful, 0);
        assert!(pf.wasted > 0);
        // Demand counters never moved.
        assert_eq!(p.stats(), PoolStats::default());
    }

    #[test]
    fn eviction_of_prefetched_frame_counts_wasted() {
        // 2 frames: prefetch two pages, then demand-fetch two others so
        // the prefetched frames get evicted untouched.
        let p = prefetch_pool(2);
        let ids = cold_pages(&p, 4);
        p.prefetch(ids[0]);
        p.prefetch(ids[1]);
        p.prefetch_quiesce();
        drop(p.fetch(ids[2]).unwrap());
        drop(p.fetch(ids[3]).unwrap());
        p.prefetch_quiesce();
        p.clear_cache().unwrap();
        let pf = p.prefetch_stats();
        assert_eq!(pf.issued, 2);
        assert_eq!(pf.useful, 0);
        assert_eq!(pf.useful + pf.wasted + pf.dropped, pf.issued);
        // The demand fetches were honest cold misses.
        let s = p.stats();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.physical_reads, 2);
    }

    #[test]
    fn queue_overflow_drops_hints() {
        // One worker, tiny queue, slow device: most hints must bounce.
        let disk = LatencyDisk::new(MemDisk::new(128), LatencyProfile::symmetric_us(500));
        let mut p = BufferPool::new(Box::new(disk), 64);
        p.start_prefetch(1, 2);
        let ids = cold_pages(&p, 32);
        for &id in &ids {
            p.prefetch(id);
        }
        p.prefetch_quiesce();
        p.clear_cache().unwrap();
        let pf = p.prefetch_stats();
        assert_eq!(pf.issued, 32);
        assert!(pf.dropped > 0, "{pf:?}");
        assert_eq!(pf.useful + pf.wasted + pf.dropped, pf.issued);
    }

    #[test]
    fn delete_while_prefetching_does_not_resurrect_the_page() {
        // Regression test: a freed page must not reappear in a frame via a
        // background read that was queued or in flight when it was freed.
        let disk = LatencyDisk::new(MemDisk::new(128), LatencyProfile::symmetric_us(200));
        let mut p = BufferPool::new(Box::new(disk), 8);
        p.start_prefetch(2, 16);
        for round in 0..20 {
            let ids = cold_pages(&p, 3);
            let victim = ids[round % ids.len()];
            for &id in &ids {
                p.prefetch(id);
            }
            // Delete while hints are queued/in flight.
            p.delete_page(victim).unwrap();
            p.prefetch_quiesce();
            assert!(
                p.fetch(victim).is_err(),
                "freed page served from cache (round {round})"
            );
            // Survivors are intact, and the pool still works end to end.
            for &id in ids.iter().filter(|&&id| id != victim) {
                let g = p.fetch(id).unwrap();
                assert!(g[0] >= 1);
                drop(g);
            }
            for &id in ids.iter().filter(|&&id| id != victim) {
                p.delete_page(id).unwrap();
            }
        }
        p.prefetch_quiesce();
        p.clear_cache().unwrap();
        let pf = p.prefetch_stats();
        assert_eq!(pf.useful + pf.wasted + pf.dropped, pf.issued, "{pf:?}");
        assert_eq!(p.live_pages(), 0);
        // Allocation still hands out clean pages afterwards.
        let (_, mut w) = p.new_page().unwrap();
        assert!(w.iter().all(|&b| b == 0));
        w[0] = 1;
    }

    #[test]
    fn concurrent_demand_and_prefetch_agree() {
        use std::sync::Arc;
        let disk = LatencyDisk::new(MemDisk::new(128), LatencyProfile::symmetric_us(50));
        let mut p = BufferPool::new(Box::new(disk), 16);
        p.start_prefetch(2, 32);
        let p = Arc::new(p);
        let ids = cold_pages(&p, 12);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let p = Arc::clone(&p);
                let ids = ids.clone();
                scope.spawn(move || {
                    for round in 0..100 {
                        let i = (t * 5 + round) % ids.len();
                        p.prefetch(ids[(i + 1) % ids.len()]);
                        let g = p.fetch(ids[i]).unwrap();
                        assert_eq!(g[0] as usize, i + 1, "wrong bytes for page {i}");
                    }
                });
            }
        });
        p.prefetch_quiesce();
        p.clear_cache().unwrap();
        let pf = p.prefetch_stats();
        assert_eq!(pf.useful + pf.wasted + pf.dropped, pf.issued, "{pf:?}");
        assert_eq!(p.stats().logical_reads, 4 * 100);
    }

    #[test]
    fn logical_reads_identical_with_and_without_prefetch() {
        // The same fetch sequence, one pool hinting ahead, one not: the
        // paper's page-access counter must not move by a single unit.
        let run = |use_prefetch: bool| -> (u64, PoolStats) {
            let mut p = BufferPool::new(Box::new(MemDisk::new(128)), 4);
            if use_prefetch {
                p.start_prefetch(2, 16);
            }
            let ids = cold_pages(&p, 12);
            for round in 0..6 {
                for (i, &id) in ids.iter().enumerate().skip(round % 2) {
                    if use_prefetch {
                        for &next in ids.iter().skip(i + 1).take(3) {
                            p.prefetch(next);
                        }
                    }
                    drop(p.fetch(id).unwrap());
                }
            }
            p.prefetch_quiesce();
            (p.stats().logical_reads, p.stats())
        };
        let (without, _) = run(false);
        let (with, _) = run(true);
        assert_eq!(without, with);
    }
    // -- the load protocol under concurrency -------------------------------
    //
    // No wall clock decides any of these: interleavings are forced by a
    // gate inside the device, and the only timeout turns a hang into a
    // failure.

    const HANG: std::time::Duration = std::time::Duration::from_secs(10);

    /// Spins (yielding) until `cond` holds; panics instead of hanging.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !cond() {
            assert!(start.elapsed() < HANG, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[derive(Default)]
    struct GateState {
        closed: bool,
        /// Reads that arrived since the gate was closed.
        arrived: usize,
        /// Reads parked in the gate right now.
        parked: usize,
    }

    /// A device whose `read_page` parks while the gate is closed, so a test
    /// can hold loads inside the device and observe what else proceeds.
    struct GateDisk<T: DiskManager> {
        inner: T,
        state: std::sync::Mutex<GateState>,
        cvar: std::sync::Condvar,
    }

    impl<T: DiskManager> GateDisk<T> {
        fn new(inner: T) -> Arc<Self> {
            Arc::new(Self {
                inner,
                state: Default::default(),
                cvar: Default::default(),
            })
        }

        fn close(&self) {
            *self.state.lock().unwrap() = GateState {
                closed: true,
                ..Default::default()
            };
        }

        fn open(&self) {
            self.state.lock().unwrap().closed = false;
            self.cvar.notify_all();
        }

        /// Blocks until `n` reads have arrived at the closed gate.
        fn wait_arrived(&self, n: usize) {
            let st = self.state.lock().unwrap();
            let (st, timeout) = self
                .cvar
                .wait_timeout_while(st, HANG, |st| st.arrived < n)
                .unwrap();
            assert!(
                !timeout.timed_out(),
                "only {} of {n} reads reached the device",
                st.arrived
            );
        }

        fn parked(&self) -> usize {
            self.state.lock().unwrap().parked
        }
    }

    impl<T: DiskManager> DiskManager for GateDisk<T> {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            let mut st = self.state.lock().unwrap();
            if st.closed {
                st.arrived += 1;
                st.parked += 1;
                self.cvar.notify_all();
                let (mut st, timeout) = self
                    .cvar
                    .wait_timeout_while(st, HANG, |st| st.closed)
                    .unwrap();
                st.parked -= 1;
                if timeout.timed_out() {
                    return Err(std::io::Error::other("gate never opened").into());
                }
            }
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
            self.inner.write_page(id, buf)
        }
        fn allocate(&self) -> Result<PageId> {
            self.inner.allocate()
        }
        fn deallocate(&self, id: PageId) -> Result<()> {
            self.inner.deallocate(id)
        }
        fn live_pages(&self) -> u64 {
            self.inner.live_pages()
        }
        fn stats(&self) -> DiskStats {
            self.inner.stats()
        }
        fn reset_stats(&self) {
            self.inner.reset_stats()
        }
        fn ensure_allocated(&self, id: PageId) -> Result<()> {
            self.inner.ensure_allocated(id)
        }
    }

    /// Who performs the load under test.
    #[derive(Clone, Copy, Debug)]
    enum Loader {
        Demand,
        Prefetch,
    }

    /// A **1-shard** pool over a gated device holding `n` cold pages, with
    /// a prefetch worker when the loader is one.
    fn gated_pool<T: DiskManager + 'static>(
        disk: &Arc<GateDisk<T>>,
        loader: Loader,
        n: u8,
    ) -> (BufferPool, Vec<PageId>) {
        let mut p = BufferPool::new(Box::new(Arc::clone(disk)), 8);
        if matches!(loader, Loader::Prefetch) {
            p.start_prefetch(1, 8);
        }
        let ids = cold_pages(&p, n);
        (p, ids)
    }

    /// Starts a load of `id` by `loader` and returns once it is parked in
    /// the (closed) gate as the `nth` arrival. A demand load runs on a
    /// scoped thread, which checks the bytes it gets when the gate opens.
    fn park_load<'s, T: DiskManager>(
        scope: &'s std::thread::Scope<'s, '_>,
        p: &'s BufferPool,
        disk: &GateDisk<T>,
        loader: Loader,
        id: PageId,
        payload: u8,
        nth: usize,
    ) {
        match loader {
            Loader::Demand => {
                scope.spawn(move || assert_eq!(p.fetch(id).unwrap()[0], payload));
            }
            Loader::Prefetch => p.prefetch(id),
        }
        disk.wait_arrived(nth);
    }

    fn assert_no_pins_or_lost_frames(p: &BufferPool) {
        assert_only_loaders_pin(p, 0);
    }

    /// No frame is lost, and nothing is pinned but the frames of the
    /// `loading` loads parked in the device (one pin each).
    fn assert_only_loaders_pin(p: &BufferPool, loading: u32) {
        let mut pins = 0;
        for shard in &p.core.shards {
            let inner = shard.inner.lock();
            assert_eq!(inner.free.len() + inner.map.len(), inner.frames.len());
            pins += inner.frames.iter().map(|f| f.pins).sum::<u32>();
        }
        assert_eq!(pins, loading, "leaked pin");
    }

    fn misses_on_different_pages_overlap_in_the_device(loader: Loader) {
        let disk = GateDisk::new(MemDisk::new(128));
        let (p, ids) = gated_pool(&disk, loader, 2);
        disk.close();
        std::thread::scope(|scope| {
            park_load(scope, &p, &disk, loader, ids[0], 1, 1);
            // A second miss, on the same (only) shard, reaches the device
            // while the first is still inside it.
            park_load(scope, &p, &disk, Loader::Demand, ids[1], 2, 2);
            assert_eq!(disk.parked(), 2);
            disk.open();
        });
        p.prefetch_quiesce();
        assert_eq!(p.disk_stats().reads, 2);
        assert_no_pins_or_lost_frames(&p);
    }

    fn hit_completes_while_a_miss_is_in_the_device(loader: Loader) {
        let disk = GateDisk::new(MemDisk::new(128));
        let (p, ids) = gated_pool(&disk, loader, 2);
        drop(p.fetch(ids[0]).unwrap()); // resident
        disk.close();
        std::thread::scope(|scope| {
            park_load(scope, &p, &disk, loader, ids[1], 2, 1);
            assert_eq!(p.fetch(ids[0]).unwrap()[0], 1);
            // The hit did not wait for the load: it is still in the device.
            assert_eq!(disk.parked(), 1);
            disk.open();
        });
        p.prefetch_quiesce();
        assert_eq!(p.stats().hits, 1);
        assert_no_pins_or_lost_frames(&p);
    }

    fn racing_fetches_of_one_cold_page_cost_one_read(loader: Loader) {
        const N: u64 = 4;
        let disk = GateDisk::new(MemDisk::new(128));
        let (p, ids) = gated_pool(&disk, loader, 2);
        disk.close();
        // Fetches that find the load in flight: all N beside a prefetch,
        // all but the loader itself beside a demand miss.
        let waiters = match loader {
            Loader::Demand => N - 1,
            Loader::Prefetch => N,
        };
        std::thread::scope(|scope| {
            park_load(scope, &p, &disk, loader, ids[0], 1, 1);
            for _ in 0..waiters {
                scope.spawn(|| assert_eq!(p.fetch(ids[0]).unwrap()[0], 1));
            }
            // Every waiter has pinned the loading frame (a hit each) and
            // none went to the device.
            wait_until("waiters to pin", || p.stats().hits == waiters);
            assert_eq!(disk.parked(), 1);
            disk.open();
        });
        p.prefetch_quiesce();
        let s = p.stats();
        assert_eq!(s.logical_reads, N);
        assert_eq!(s.hits, waiters);
        assert_eq!(s.physical_reads, N - waiters);
        assert_eq!(p.disk_stats().reads, 1);
        assert_no_pins_or_lost_frames(&p);
    }

    #[test]
    fn demand_misses_on_different_pages_overlap_in_the_device() {
        misses_on_different_pages_overlap_in_the_device(Loader::Demand);
    }

    #[test]
    fn hit_completes_while_a_demand_miss_is_in_the_device() {
        hit_completes_while_a_miss_is_in_the_device(Loader::Demand);
    }

    #[test]
    fn racing_fetches_of_one_cold_page_share_the_demand_load() {
        racing_fetches_of_one_cold_page_cost_one_read(Loader::Demand);
    }

    #[test]
    fn demand_miss_overlaps_a_prefetch_load_in_the_device() {
        misses_on_different_pages_overlap_in_the_device(Loader::Prefetch);
    }

    #[test]
    fn hit_completes_while_a_prefetch_load_is_in_the_device() {
        hit_completes_while_a_miss_is_in_the_device(Loader::Prefetch);
    }

    #[test]
    fn racing_fetches_of_one_cold_page_share_the_prefetch_load() {
        racing_fetches_of_one_cold_page_cost_one_read(Loader::Prefetch);
        // (the one hint was claimed: counted once, as useful)
    }

    // -- the non-blocking fetch --------------------------------------------

    #[test]
    fn try_fetch_with_no_background_reader_is_a_counted_demand_load() {
        let p = pool(4);
        let ids = cold_pages(&p, 2);
        assert_eq!(
            p.try_fetch(ids[0]).unwrap().expect("loaded by the call")[0],
            1
        );
        let s = p.stats();
        assert_eq!((s.logical_reads, s.hits, s.physical_reads), (1, 0, 1));
        // Resident now: the same call is a plain hit.
        assert_eq!(p.try_fetch(ids[0]).unwrap().expect("resident")[0], 1);
        let s = p.stats();
        assert_eq!((s.logical_reads, s.hits, s.physical_reads), (2, 1, 1));
        assert_eq!(p.prefetch_stats(), PrefetchStats::default());
        assert!(p.try_fetch(PageId::INVALID).is_err());
        assert_no_pins_or_lost_frames(&p);
    }

    #[test]
    fn try_fetch_counts_nothing_until_it_returns_the_page() {
        let disk = GateDisk::new(MemDisk::new(128));
        let (p, ids) = gated_pool(&disk, Loader::Prefetch, 2);
        disk.close();
        // Absent: queued as a certain hint, not yet.
        assert!(p.try_fetch(ids[0]).unwrap().is_none());
        disk.wait_arrived(1);
        // Mapped, load in the device: not yet, and no second hint.
        assert!(p.try_fetch(ids[0]).unwrap().is_none());
        // Absent behind it in the queue (the one worker is busy): queued
        // once, however often the caller comes back.
        assert!(p.try_fetch(ids[1]).unwrap().is_none());
        assert!(p.try_fetch(ids[1]).unwrap().is_none());
        assert_eq!(
            p.stats(),
            PoolStats::default(),
            "a 'not yet' counts nothing"
        );
        let pf = p.prefetch_stats();
        assert_eq!((pf.issued, pf.useful, pf.wasted, pf.dropped), (2, 0, 0, 0));
        assert_only_loaders_pin(&p, 1);

        disk.open();
        p.prefetch_quiesce();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.try_fetch(id).unwrap().expect("loaded")[0], i as u8 + 1);
        }
        // The claim: one logical read, one hit, one useful — per page.
        let s = p.stats();
        assert_eq!((s.logical_reads, s.hits, s.physical_reads), (2, 2, 0));
        let pf = p.prefetch_stats();
        assert_eq!((pf.issued, pf.useful, pf.wasted, pf.dropped), (2, 2, 0, 0));
        assert_eq!(p.disk_stats().reads, 2);
        assert_no_pins_or_lost_frames(&p);
    }

    #[test]
    fn try_fetch_reads_the_page_itself_when_the_queue_is_full() {
        let disk = GateDisk::new(MemDisk::new(128));
        let mut p = BufferPool::new(Box::new(Arc::clone(&disk)), 8);
        p.start_prefetch(1, 1);
        let ids = cold_pages(&p, 3);
        disk.close();
        assert!(p.try_fetch(ids[0]).unwrap().is_none());
        disk.wait_arrived(1); // the worker took it: the queue is empty again
        assert!(p.try_fetch(ids[1]).unwrap().is_none()); // fills the queue
        std::thread::scope(|scope| {
            // No room for a third hint: a blocking demand load instead.
            scope.spawn(|| assert_eq!(p.try_fetch(ids[2]).unwrap().expect("read")[0], 3));
            disk.wait_arrived(2);
            let s = p.stats();
            assert_eq!((s.logical_reads, s.hits, s.physical_reads), (1, 0, 1));
            assert_eq!(p.prefetch_stats().issued, 2, "a refused hint is not issued");
            disk.open();
        });
        p.prefetch_quiesce();
        p.clear_cache().unwrap();
        let pf = p.prefetch_stats();
        assert_eq!((pf.issued, pf.useful, pf.wasted, pf.dropped), (2, 0, 2, 0));
        assert_no_pins_or_lost_frames(&p);
    }

    // -- failed loads ------------------------------------------------------

    #[test]
    fn failed_load_returns_the_error_and_the_pool_keeps_serving() {
        let disk = Arc::new(FaultDisk::new(MemDisk::new(128)));
        let p = BufferPool::new(Box::new(Arc::clone(&disk)), 2);
        let ids = cold_pages(&p, 3);
        disk.fail_read(2);
        assert_eq!(p.fetch(ids[0]).unwrap()[0], 1);
        assert!(matches!(p.fetch(ids[1]), Err(StorageError::Io(_))));
        assert!(matches!(p.page_image(ids[1]), Ok(image) if image[0] == 2));
        // The failed frame was reclaimed: both frames still cycle.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.fetch(id).unwrap()[0], i as u8 + 1);
        }
        let s = p.stats();
        assert_eq!(s.logical_reads, 5);
        assert_eq!(s.physical_reads, 4); // ids[0] was still resident
        assert_no_pins_or_lost_frames(&p);
    }

    /// A fetch that pinned the frame while its load was in the device gets
    /// an error when the load fails — not the frame's stale bytes.
    fn fetch_racing_a_failed_load_gets_an_error(loader: Loader) {
        let fault = Arc::new(FaultDisk::new(MemDisk::new(128)));
        let disk = GateDisk::new(Arc::clone(&fault));
        let (p, ids) = gated_pool(&disk, loader, 2);
        disk.close();
        fault.fail_read(1);
        std::thread::scope(|scope| {
            let loading = match loader {
                Loader::Demand => Some(scope.spawn(|| p.fetch(ids[0]).map(|g| g[0]))),
                Loader::Prefetch => {
                    p.prefetch(ids[0]);
                    None
                }
            };
            disk.wait_arrived(1);
            let waiting = scope.spawn(|| p.fetch_write(ids[0]).map(|g| g[0]));
            wait_until("the waiter to pin", || p.stats().hits == 1);
            // A side-door copy waits on the same latch and fails the same.
            let image = scope.spawn(|| p.page_image(ids[0]));
            // (the loader's pin, the waiter's, the copier's)
            wait_until("the copier to pin", || {
                let inner = p.core.shards[0].inner.lock();
                inner.frames.iter().any(|f| f.pins == 3)
            });
            disk.open();
            if let Some(loading) = loading {
                let err = loading.join().unwrap().unwrap_err();
                assert!(err.to_string().contains("injected fault"), "{err}");
            }
            let err = waiting.join().unwrap().unwrap_err();
            assert!(err.to_string().contains("concurrent load"), "{err}");
            assert!(image.join().unwrap().is_err());
        });
        p.prefetch_quiesce();
        assert_no_pins_or_lost_frames(&p);
        // The page was never mapped for good: the next fetch reloads it.
        assert_eq!(p.fetch(ids[0]).unwrap()[0], 1);
        assert_eq!(p.fetch(ids[1]).unwrap()[0], 2);
        assert_eq!(p.disk_stats().reads, 2); // the failed read never reached MemDisk
        p.clear_cache().unwrap();
        let pf = p.prefetch_stats();
        assert_eq!(pf.useful + pf.wasted + pf.dropped, pf.issued, "{pf:?}");
        assert_no_pins_or_lost_frames(&p);
    }

    #[test]
    fn fetch_racing_a_failed_demand_load_gets_an_error() {
        fetch_racing_a_failed_load_gets_an_error(Loader::Demand);
    }

    #[test]
    fn fetch_racing_a_failed_prefetch_load_gets_an_error() {
        fetch_racing_a_failed_load_gets_an_error(Loader::Prefetch);
    }

    /// The first byte of page `id` as a frame-held decoded value, and
    /// whether this read ran the decode.
    fn first_byte(p: &BufferPool, id: PageId) -> (Arc<u8>, bool) {
        let mut ran = false;
        let value = p
            .fetch(id)
            .unwrap()
            .decoded(|bytes| {
                ran = true;
                Ok::<_, ()>(bytes[0])
            })
            .unwrap();
        (value, ran)
    }

    fn write_first_byte(p: &BufferPool, id: PageId, byte: u8) {
        p.fetch_write(id).unwrap()[0] = byte;
    }

    #[test]
    fn frame_slot_is_shared_until_the_page_changes() {
        let p = pool(4);
        let (a, mut w) = p.new_page().unwrap();
        w[0] = 1;
        drop(w);
        let failed = p.fetch(a).unwrap().decoded(|_| Err::<u8, _>("bad"));
        assert_eq!(failed, Err("bad"), "a failed decode stores nothing");
        let (one, ran) = first_byte(&p, a);
        assert_eq!((*one, ran), (1, true));
        let (again, ran) = first_byte(&p, a);
        assert!(Arc::ptr_eq(&one, &again) && !ran, "a second read shares it");

        // Another type decodes without storing, and leaves the stored
        // value alone.
        let wide = p
            .fetch(a)
            .unwrap()
            .decoded(|b| Ok::<_, ()>(u16::from(b[0]) + 256));
        assert_eq!(wide, Ok(Arc::new(257)));
        assert!(!first_byte(&p, a).1);

        write_first_byte(&p, a, 2);
        assert_eq!(first_byte(&p, a), (Arc::new(2), true), "a write drops it");
        p.delete_page(a).unwrap();
        let (b, mut w) = p.new_page().unwrap();
        assert_eq!(b, a, "the device recycles the freed id");
        w[0] = 3;
        drop(w);
        assert_eq!(first_byte(&p, b), (Arc::new(3), true), "a new page decodes");
    }

    #[test]
    fn frame_slot_is_dropped_with_its_frame() {
        // One frame: every load evicts the other page and reuses it.
        let disk = Arc::new(FaultDisk::new(MemDisk::new(128)));
        let p = BufferPool::new(Box::new(Arc::clone(&disk)), 1);
        let mut ids = Vec::new();
        for byte in [1, 2] {
            let (id, mut w) = p.new_page().unwrap();
            w[0] = byte;
            ids.push(id);
        }
        let [a, b] = ids[..] else { unreachable!() };
        for (id, byte) in [(a, 1), (b, 2), (a, 1)] {
            assert_eq!(first_byte(&p, id), (Arc::new(byte), true), "{id}");
        }
        disk.fail_read(1);
        assert!(p.fetch(b).is_err(), "the injected fault");
        assert_eq!(
            first_byte(&p, a),
            (Arc::new(1), true),
            "{a} after a failed load"
        );
        assert_eq!(
            p.stats().evictions,
            5,
            "every load but the last reused the frame"
        );
    }

    #[test]
    fn frame_slot_clear_decoded_keeps_the_bytes() {
        let p = pool(4);
        let (a, mut w) = p.new_page().unwrap();
        w[0] = 7;
        drop(w);
        first_byte(&p, a);
        p.reset_stats();
        p.clear_decoded();
        assert_eq!(first_byte(&p, a), (Arc::new(7), true));
        assert_eq!(first_byte(&p, a), (Arc::new(7), false));
        let s = p.stats();
        assert_eq!((s.hits, s.physical_reads), (2, 0), "no device read");
    }
}
