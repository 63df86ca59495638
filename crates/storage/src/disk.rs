//! Disk managers: the raw page devices underneath the buffer pool.

use crate::{PageId, Result, StorageError};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Physical I/O counters maintained by every disk manager.
///
/// These count *device* operations, i.e. buffer-pool misses and write-backs,
/// not logical page requests (see `PoolStats` for those).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of pages read from the device.
    pub reads: u64,
    /// Number of pages written to the device.
    pub writes: u64,
    /// Number of pages allocated over the device's lifetime.
    pub allocations: u64,
    /// Number of pages deallocated over the device's lifetime.
    pub deallocations: u64,
}

/// A fixed-page-size block device.
///
/// Implementations must be internally synchronized (`&self` methods), so a
/// single device can sit under a shared [`crate::BufferPool`].
pub trait DiskManager: Send + Sync {
    /// The page size in bytes. Constant over the device's lifetime.
    fn page_size(&self) -> usize;

    /// Reads page `id` into `buf` (`buf.len()` must equal
    /// [`DiskManager::page_size`]).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Writes `buf` to page `id` (`buf.len()` must equal the page size).
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()>;

    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&self) -> Result<PageId>;

    /// Returns page `id` to the free list. Reading a deallocated page is an
    /// error until it is re-allocated.
    fn deallocate(&self, id: PageId) -> Result<()>;

    /// Number of currently live (allocated, not freed) pages.
    fn live_pages(&self) -> u64;

    /// Physical I/O counters.
    fn stats(&self) -> DiskStats;

    /// Resets the physical I/O counters to zero.
    fn reset_stats(&self);

    /// Flushes device buffers (no-op for in-memory devices).
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Makes page `id` addressable (allocated, zeroed if new), growing the
    /// device if needed. Used by WAL recovery to re-materialize pages that
    /// were allocated after the last durable device state.
    fn ensure_allocated(&self, id: PageId) -> Result<()>;
}

/// Delegation impl so a single device can sit under several pools over its
/// lifetime (e.g. the buffer-size sweep of experiment E5 reopens the same
/// in-memory disk with pools of different capacities).
impl<T: DiskManager + ?Sized> DiskManager for std::sync::Arc<T> {
    fn page_size(&self) -> usize {
        (**self).page_size()
    }
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        (**self).read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        (**self).write_page(id, buf)
    }
    fn allocate(&self) -> Result<PageId> {
        (**self).allocate()
    }
    fn deallocate(&self, id: PageId) -> Result<()> {
        (**self).deallocate(id)
    }
    fn live_pages(&self) -> u64 {
        (**self).live_pages()
    }
    fn stats(&self) -> DiskStats {
        (**self).stats()
    }
    fn reset_stats(&self) {
        (**self).reset_stats()
    }
    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
    fn ensure_allocated(&self, id: PageId) -> Result<()> {
        (**self).ensure_allocated(id)
    }
}

#[derive(Default)]
struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
    deallocations: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            deallocations: self.deallocations.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.allocations.store(0, Ordering::Relaxed);
        self.deallocations.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// MemDisk
// ---------------------------------------------------------------------------

struct MemInner {
    /// `None` marks a deallocated slot awaiting reuse.
    pages: Vec<Option<Box<[u8]>>>,
    free: Vec<u64>,
}

/// An in-memory simulated disk.
///
/// This is the device used by all experiments: it makes page accesses
/// observable and perfectly reproducible without actual I/O latency. An
/// optional capacity limit supports disk-full fault-injection tests.
pub struct MemDisk {
    page_size: usize,
    capacity: Option<u64>,
    inner: Mutex<MemInner>,
    counters: Counters,
}

impl MemDisk {
    /// Creates an unbounded in-memory disk with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size too small to be useful");
        Self {
            page_size,
            capacity: None,
            inner: Mutex::new(MemInner {
                pages: Vec::new(),
                free: Vec::new(),
            }),
            counters: Counters::default(),
        }
    }

    /// Creates an in-memory disk that refuses to grow beyond
    /// `capacity_pages` live pages ([`StorageError::DiskFull`]).
    pub fn with_capacity(page_size: usize, capacity_pages: u64) -> Self {
        let mut d = Self::new(page_size);
        d.capacity = Some(capacity_pages);
        d
    }

    fn check_buf(&self, len: usize) -> Result<()> {
        if len != self.page_size {
            return Err(StorageError::BadPageSize {
                expected: self.page_size,
                got: len,
            });
        }
        Ok(())
    }
}

impl DiskManager for MemDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.check_buf(buf.len())?;
        let inner = self.inner.lock();
        let slot = inner
            .pages
            .get(id.0 as usize)
            .and_then(|p| p.as_deref())
            .ok_or(StorageError::InvalidPage(id))?;
        buf.copy_from_slice(slot);
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.check_buf(buf.len())?;
        let mut inner = self.inner.lock();
        let slot = inner
            .pages
            .get_mut(id.0 as usize)
            .and_then(|p| p.as_deref_mut())
            .ok_or(StorageError::InvalidPage(id))?;
        slot.copy_from_slice(buf);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut inner = self.inner.lock();
        let live = inner.pages.iter().filter(|p| p.is_some()).count() as u64;
        if let Some(cap) = self.capacity {
            if live >= cap {
                return Err(StorageError::DiskFull { capacity: cap });
            }
        }
        let zeroed = vec![0u8; self.page_size].into_boxed_slice();
        let id = if let Some(slot) = inner.free.pop() {
            inner.pages[slot as usize] = Some(zeroed);
            PageId(slot)
        } else {
            inner.pages.push(Some(zeroed));
            PageId(inner.pages.len() as u64 - 1)
        };
        self.counters.allocations.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    fn deallocate(&self, id: PageId) -> Result<()> {
        let mut inner = self.inner.lock();
        let slot = inner
            .pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::InvalidPage(id))?;
        if slot.is_none() {
            return Err(StorageError::InvalidPage(id));
        }
        *slot = None;
        inner.free.push(id.0);
        self.counters.deallocations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn live_pages(&self) -> u64 {
        let inner = self.inner.lock();
        inner.pages.iter().filter(|p| p.is_some()).count() as u64
    }

    fn stats(&self) -> DiskStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }

    fn ensure_allocated(&self, id: PageId) -> Result<()> {
        if !id.is_valid() {
            return Err(StorageError::InvalidPage(id));
        }
        let mut inner = self.inner.lock();
        while inner.pages.len() <= id.0 as usize {
            let slot = inner.pages.len() as u64;
            inner.pages.push(None);
            inner.free.push(slot);
        }
        if inner.pages[id.0 as usize].is_none() {
            if let Some(cap) = self.capacity {
                let live = inner.pages.iter().filter(|p| p.is_some()).count() as u64;
                if live >= cap {
                    return Err(StorageError::DiskFull { capacity: cap });
                }
            }
            inner.pages[id.0 as usize] = Some(vec![0u8; self.page_size].into_boxed_slice());
            inner.free.retain(|&s| s != id.0);
            self.counters.allocations.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FileDisk
// ---------------------------------------------------------------------------

struct FileInner {
    num_pages: u64,
    free: Vec<u64>,
}

/// A file-backed disk using positioned reads and writes.
///
/// Layout: page `i` occupies bytes `[i * page_size, (i+1) * page_size)`.
/// The free list is kept in memory only; on reopen all pages up to the file
/// length are considered live (higher layers that need persistence of
/// free-space metadata store it in their own meta page).
pub struct FileDisk {
    file: File,
    page_size: usize,
    inner: Mutex<FileInner>,
    counters: Counters,
}

impl FileDisk {
    /// Creates a new file (truncating any existing one) as an empty disk.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self> {
        assert!(page_size >= 64, "page size too small to be useful");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            page_size,
            inner: Mutex::new(FileInner {
                num_pages: 0,
                free: Vec::new(),
            }),
            counters: Counters::default(),
        })
    }

    /// Opens an existing disk file. The page count is derived from the file
    /// length, which must be a multiple of `page_size`.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(StorageError::Corrupt {
                page: PageId::INVALID,
                reason: format!("file length {len} is not a multiple of page size {page_size}"),
            });
        }
        Ok(Self {
            file,
            page_size,
            inner: Mutex::new(FileInner {
                num_pages: len / page_size as u64,
                free: Vec::new(),
            }),
            counters: Counters::default(),
        })
    }

    fn offset(&self, id: PageId) -> u64 {
        id.0 * self.page_size as u64
    }

    fn check_id(&self, id: PageId) -> Result<()> {
        let inner = self.inner.lock();
        if !id.is_valid() || id.0 >= inner.num_pages || inner.free.contains(&id.0) {
            return Err(StorageError::InvalidPage(id));
        }
        Ok(())
    }
}

impl DiskManager for FileDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(StorageError::BadPageSize {
                expected: self.page_size,
                got: buf.len(),
            });
        }
        self.check_id(id)?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, self.offset(id))?;
        }
        #[cfg(not(unix))]
        {
            compile_error!("FileDisk currently requires a Unix platform");
        }
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.page_size {
            return Err(StorageError::BadPageSize {
                expected: self.page_size,
                got: buf.len(),
            });
        }
        self.check_id(id)?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, self.offset(id))?;
        }
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut inner = self.inner.lock();
        let id = if let Some(slot) = inner.free.pop() {
            // Deliberately do NOT zero a recycled slot on the device: the
            // transaction that freed it may not be WAL-durable yet, and
            // recovery must still find the old bytes if that free is
            // rolled back by a crash. Newly extended pages below are
            // zero-filled by `set_len`; callers (the buffer pool) zero
            // fresh pages in memory themselves, so a recycled slot's
            // stale bytes are never observable through the pool.
            PageId(slot)
        } else {
            let id = PageId(inner.num_pages);
            inner.num_pages += 1;
            self.file.set_len(inner.num_pages * self.page_size as u64)?;
            id
        };
        self.counters.allocations.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    fn deallocate(&self, id: PageId) -> Result<()> {
        let mut inner = self.inner.lock();
        if !id.is_valid() || id.0 >= inner.num_pages || inner.free.contains(&id.0) {
            return Err(StorageError::InvalidPage(id));
        }
        inner.free.push(id.0);
        self.counters.deallocations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn live_pages(&self) -> u64 {
        let inner = self.inner.lock();
        inner.num_pages - inner.free.len() as u64
    }

    fn stats(&self) -> DiskStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn ensure_allocated(&self, id: PageId) -> Result<()> {
        if !id.is_valid() {
            return Err(StorageError::InvalidPage(id));
        }
        let mut inner = self.inner.lock();
        if id.0 >= inner.num_pages {
            inner.num_pages = id.0 + 1;
            self.file.set_len(inner.num_pages * self.page_size as u64)?;
        }
        inner.free.retain(|&s| s != id.0);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// LatencyDisk
// ---------------------------------------------------------------------------

/// Latency profile for a [`LatencyDisk`]: per-operation service times plus a
/// discount for sequential reads.
///
/// The discount models the seek-vs-transfer split of a spinning disk (the
/// hardware RKV'95 costs queries against): a read whose page id immediately
/// follows the previous read's id skips the "seek" and pays only
/// `sequential_discount` of the nominal read latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyProfile {
    /// Service time of a random page read.
    pub read: std::time::Duration,
    /// Service time of a page write.
    pub write: std::time::Duration,
    /// Fraction of `read` charged when the read is sequential (previous
    /// read was page `id - 1`). Clamped to `[0, 1]`.
    pub sequential_discount: f64,
}

impl LatencyProfile {
    /// A profile charging `us` microseconds for both reads and writes,
    /// with sequential reads at a quarter of that.
    pub fn symmetric_us(us: u64) -> Self {
        Self {
            read: std::time::Duration::from_micros(us),
            write: std::time::Duration::from_micros(us),
            sequential_discount: 0.25,
        }
    }

    /// Replaces the sequential-read discount factor.
    pub fn with_sequential_discount(mut self, discount: f64) -> Self {
        self.sequential_discount = discount.clamp(0.0, 1.0);
        self
    }
}

/// A [`DiskManager`] decorator that injects configurable service-time
/// latency into reads and writes, so I/O-overlap optimizations are
/// measurable on the otherwise-instant [`MemDisk`].
///
/// Latencies are runtime-adjustable ([`LatencyDisk::set_latency`]): build
/// the index at zero latency, then dial the device up for the query phase.
/// Keep a handle via the `Arc<T>: DiskManager` delegation impl:
///
/// ```
/// use nnq_storage::{BufferPool, DiskManager, LatencyDisk, LatencyProfile, MemDisk, PAGE_SIZE};
/// use std::sync::Arc;
///
/// let disk = Arc::new(LatencyDisk::new(MemDisk::new(PAGE_SIZE), LatencyProfile::symmetric_us(0)));
/// let pool = BufferPool::new(Box::new(Arc::clone(&disk)), 64);
/// // ... build ...
/// disk.set_latency(LatencyProfile::symmetric_us(200));
/// ```
///
/// Timing uses `thread::sleep` for latencies of 20 µs and above (yielding
/// the core, which matters on small hosts) and a spin-wait below that
/// (sleep granularity would swamp the target). Stats, allocation, and page
/// contents delegate unchanged to the inner device.
pub struct LatencyDisk<T: DiskManager> {
    inner: T,
    read_nanos: AtomicU64,
    write_nanos: AtomicU64,
    /// Discount in parts-per-million, stored atomically alongside the
    /// latencies so `set_latency` needs no lock.
    seq_discount_ppm: AtomicU64,
    /// Page id of the most recent read, for the sequential discount.
    last_read: AtomicU64,
    /// Total nanoseconds of latency injected (reads + writes).
    injected_nanos: AtomicU64,
}

impl<T: DiskManager> LatencyDisk<T> {
    /// Wraps `inner`, charging latencies per `profile`.
    pub fn new(inner: T, profile: LatencyProfile) -> Self {
        let d = Self {
            inner,
            read_nanos: AtomicU64::new(0),
            write_nanos: AtomicU64::new(0),
            seq_discount_ppm: AtomicU64::new(0),
            last_read: AtomicU64::new(u64::MAX),
            injected_nanos: AtomicU64::new(0),
        };
        d.set_latency(profile);
        d
    }

    /// Replaces the latency profile (takes effect on the next operation).
    pub fn set_latency(&self, profile: LatencyProfile) {
        self.read_nanos
            .store(profile.read.as_nanos() as u64, Ordering::Relaxed);
        self.write_nanos
            .store(profile.write.as_nanos() as u64, Ordering::Relaxed);
        let ppm = (profile.sequential_discount.clamp(0.0, 1.0) * 1_000_000.0) as u64;
        self.seq_discount_ppm.store(ppm, Ordering::Relaxed);
    }

    /// Total latency injected so far (reads + writes).
    pub fn injected(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.injected_nanos.load(Ordering::Relaxed))
    }

    /// The wrapped device.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn inject(&self, nanos: u64) {
        if nanos == 0 {
            return;
        }
        self.injected_nanos.fetch_add(nanos, Ordering::Relaxed);
        // Sleep yields the core (essential when prefetch workers share a
        // small host with the query thread); spin only when the target is
        // finer than sleep granularity.
        if nanos >= 20_000 {
            std::thread::sleep(std::time::Duration::from_nanos(nanos));
        } else {
            let deadline = std::time::Instant::now() + std::time::Duration::from_nanos(nanos);
            while std::time::Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
    }

    fn read_cost(&self, id: PageId) -> u64 {
        let nominal = self.read_nanos.load(Ordering::Relaxed);
        let prev = self.last_read.swap(id.0, Ordering::Relaxed);
        if prev != u64::MAX && id.0 == prev.wrapping_add(1) {
            let ppm = self.seq_discount_ppm.load(Ordering::Relaxed);
            nominal.saturating_mul(ppm) / 1_000_000
        } else {
            nominal
        }
    }
}

impl<T: DiskManager> DiskManager for LatencyDisk<T> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.inject(self.read_cost(id));
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.inject(self.write_nanos.load(Ordering::Relaxed));
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

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn ensure_allocated(&self, id: PageId) -> Result<()> {
        self.inner.ensure_allocated(id)
    }
}

// ---------------------------------------------------------------------------
// TornDisk
// ---------------------------------------------------------------------------

/// What a [`TornDisk`] does to device writes once its budget is spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TornMode {
    /// Drop the write entirely: the page keeps its previous contents, as
    /// if the write never reached the platter.
    Drop,
    /// Tear the write: only the first half of the buffer lands; the rest
    /// of the page keeps its previous contents (a classic torn page).
    Tear,
}

/// A [`DiskManager`] decorator that silently loses or tears page writes
/// after a configurable number of them — the crash-injection companion to
/// [`LatencyDisk`].
///
/// Arm it with [`TornDisk::arm`]: the next `n` writes pass through, then
/// every later `write_page` fails *silently* (returns `Ok`) in the chosen
/// [`TornMode`]. That models a machine losing power with writes still in
/// the device queue: the writer believes they landed. Reads, allocation,
/// stats, and sync delegate unchanged, so recovery code sees exactly the
/// device a crash would have left behind. Keep a handle via the
/// `Arc<T>: DiskManager` delegation impl, like `LatencyDisk`.
pub struct TornDisk<T: DiskManager> {
    inner: T,
    /// Writes remaining before the failure mode engages; `u64::MAX`
    /// means disarmed (all writes pass through).
    budget: AtomicU64,
    /// 0 = [`TornMode::Drop`], 1 = [`TornMode::Tear`].
    mode: AtomicU64,
    dropped: AtomicU64,
    torn: AtomicU64,
}

impl<T: DiskManager> TornDisk<T> {
    /// Wraps `inner`, initially disarmed (a transparent passthrough).
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            budget: AtomicU64::new(u64::MAX),
            mode: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            torn: AtomicU64::new(0),
        }
    }

    /// Lets the next `after_writes` page writes through, then applies
    /// `mode` to every write after that (until re-armed or disarmed).
    pub fn arm(&self, after_writes: u64, mode: TornMode) {
        self.mode.store(
            match mode {
                TornMode::Drop => 0,
                TornMode::Tear => 1,
            },
            Ordering::Relaxed,
        );
        self.budget.store(after_writes, Ordering::Relaxed);
    }

    /// Returns to transparent passthrough.
    pub fn disarm(&self) {
        self.budget.store(u64::MAX, Ordering::Relaxed);
    }

    /// Number of writes dropped entirely so far.
    pub fn dropped_writes(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of writes torn in half so far.
    pub fn torn_writes(&self) -> u64 {
        self.torn.load(Ordering::Relaxed)
    }

    /// The wrapped device.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Consumes one unit of write budget; `true` means the write still
    /// passes through intact.
    fn consume(&self) -> bool {
        loop {
            let b = self.budget.load(Ordering::Relaxed);
            if b == u64::MAX {
                return true; // disarmed
            }
            if b == 0 {
                return false;
            }
            if self
                .budget
                .compare_exchange(b, b - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }
}

impl<T: DiskManager> DiskManager for TornDisk<T> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        if self.consume() {
            return self.inner.write_page(id, buf);
        }
        match self.mode.load(Ordering::Relaxed) {
            0 => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                Ok(()) // silently lost
            }
            _ => {
                // Tear: first half new bytes, second half whatever the
                // device already held (zeros if it held nothing readable).
                let mut torn = vec![0u8; buf.len()];
                let _ = self.inner.read_page(id, &mut torn);
                let half = buf.len() / 2;
                torn[..half].copy_from_slice(&buf[..half]);
                self.torn.fetch_add(1, Ordering::Relaxed);
                self.inner.write_page(id, &torn)
            }
        }
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

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn ensure_allocated(&self, id: PageId) -> Result<()> {
        self.inner.ensure_allocated(id)
    }
}

// ---------------------------------------------------------------------------
// FaultDisk
// ---------------------------------------------------------------------------

/// A [`DiskManager`] decorator that fails one chosen `read_page` with an
/// I/O error — the error-injection sibling of [`LatencyDisk`] and
/// [`TornDisk`]. The read that fails is whichever reaches the device as
/// the k-th, a query's own demand load or a prefetch worker's background
/// one; everything else delegates unchanged. Reads are the only fault the
/// pool's load protocol and the traversals above it need; writes and syncs
/// follow with their callers. Keep a handle via the `Arc<T>: DiskManager`
/// delegation impl, like `LatencyDisk`.
pub struct FaultDisk<T: DiskManager> {
    inner: T,
    /// Reads left until one fails; 0 means disarmed.
    reads_to_fault: AtomicU64,
}

impl<T: DiskManager> FaultDisk<T> {
    /// Wraps `inner`, initially disarmed (a transparent passthrough).
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            reads_to_fault: AtomicU64::new(0),
        }
    }

    /// Makes the `k`-th `read_page` from now (1-based) return an error;
    /// reads before and after it pass through. `0` disarms.
    pub fn fail_read(&self, k: u64) {
        self.reads_to_fault.store(k, Ordering::Relaxed);
    }
}

impl<T: DiskManager> DiskManager for FaultDisk<T> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let before = self
            .reads_to_fault
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        if before == Ok(1) {
            return Err(std::io::Error::other(format!("injected fault reading {id}")).into());
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

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn ensure_allocated(&self, id: PageId) -> Result<()> {
        self.inner.ensure_allocated(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &dyn DiskManager) {
        let ps = disk.page_size();
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        assert_ne!(a, b);

        let mut buf = vec![0xABu8; ps];
        buf[0] = 1;
        disk.write_page(a, &buf).unwrap();
        let mut out = vec![0u8; ps];
        disk.read_page(a, &mut out).unwrap();
        assert_eq!(buf, out);

        // Fresh pages read back as zeroes.
        disk.read_page(b, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));

        assert_eq!(disk.live_pages(), 2);
        disk.deallocate(a).unwrap();
        assert_eq!(disk.live_pages(), 1);
        assert!(disk.read_page(a, &mut out).is_err());

        // Reallocation reuses the slot. The recycled page's contents are
        // unspecified (FileDisk keeps the stale bytes for crash safety;
        // MemDisk hands back zeroes) — callers initialize fresh pages
        // themselves, so only assert it is readable again.
        let c = disk.allocate().unwrap();
        assert_eq!(c, a);
        disk.read_page(c, &mut out).unwrap();
    }

    #[test]
    fn memdisk_roundtrip() {
        roundtrip(&MemDisk::new(256));
    }

    #[test]
    fn filedisk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("nnq-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.db");
        roundtrip(&FileDisk::create(&path, 256).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memdisk_counts_io() {
        let d = MemDisk::new(128);
        let id = d.allocate().unwrap();
        let buf = vec![0u8; 128];
        let mut out = vec![0u8; 128];
        d.write_page(id, &buf).unwrap();
        d.write_page(id, &buf).unwrap();
        d.read_page(id, &mut out).unwrap();
        let s = d.stats();
        assert_eq!(s.allocations, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        d.reset_stats();
        assert_eq!(d.stats(), DiskStats::default());
    }

    #[test]
    fn memdisk_capacity_limit() {
        let d = MemDisk::with_capacity(128, 2);
        let a = d.allocate().unwrap();
        let _b = d.allocate().unwrap();
        assert!(matches!(
            d.allocate(),
            Err(StorageError::DiskFull { capacity: 2 })
        ));
        // Freeing makes room again.
        d.deallocate(a).unwrap();
        assert!(d.allocate().is_ok());
    }

    #[test]
    fn bad_buffer_size_is_rejected() {
        let d = MemDisk::new(128);
        let id = d.allocate().unwrap();
        let mut small = vec![0u8; 64];
        assert!(matches!(
            d.read_page(id, &mut small),
            Err(StorageError::BadPageSize {
                expected: 128,
                got: 64
            })
        ));
        assert!(d.write_page(id, &small).is_err());
    }

    #[test]
    fn invalid_page_access_is_rejected() {
        let d = MemDisk::new(128);
        let mut buf = vec![0u8; 128];
        assert!(d.read_page(PageId(0), &mut buf).is_err());
        assert!(d.write_page(PageId(7), &buf).is_err());
        assert!(d.deallocate(PageId(7)).is_err());
        let id = d.allocate().unwrap();
        d.deallocate(id).unwrap();
        // Double free is an error.
        assert!(d.deallocate(id).is_err());
    }

    #[test]
    fn filedisk_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("nnq-disk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist.db");
        let payload = {
            let d = FileDisk::create(&path, 256).unwrap();
            let id = d.allocate().unwrap();
            assert_eq!(id, PageId(0));
            let buf: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
            d.write_page(id, &buf).unwrap();
            d.sync().unwrap();
            buf
        };
        let d = FileDisk::open(&path, 256).unwrap();
        assert_eq!(d.live_pages(), 1);
        let mut out = vec![0u8; 256];
        d.read_page(PageId(0), &mut out).unwrap();
        assert_eq!(out, payload);
        std::fs::remove_file(&path).ok();
    }

    // -- LatencyDisk -------------------------------------------------------

    #[test]
    fn latency_disk_delegates_contents_and_stats() {
        let d = LatencyDisk::new(MemDisk::new(128), LatencyProfile::symmetric_us(0));
        roundtrip(&d);
        // Counters come from the inner device, unchanged.
        assert_eq!(d.stats(), d.inner().stats());
        assert!(d.stats().reads >= 1);
        d.reset_stats();
        assert_eq!(d.stats(), DiskStats::default());
    }

    #[test]
    fn latency_disk_injects_read_and_write_latency() {
        let d = LatencyDisk::new(MemDisk::new(128), LatencyProfile::symmetric_us(100));
        let a = d.allocate().unwrap();
        let buf = vec![0u8; 128];
        let mut out = vec![0u8; 128];
        d.write_page(a, &buf).unwrap();
        d.read_page(a, &mut out).unwrap();
        d.read_page(a, &mut out).unwrap(); // same id again: random, full price
                                           // 1 write + 2 non-sequential reads at 100 µs nominal each.
        assert_eq!(d.injected(), std::time::Duration::from_micros(300));
    }

    #[test]
    fn latency_disk_discounts_sequential_reads() {
        let profile = LatencyProfile::symmetric_us(100).with_sequential_discount(0.25);
        let d = LatencyDisk::new(MemDisk::new(128), profile);
        let a = d.allocate().unwrap();
        let b = d.allocate().unwrap();
        assert_eq!(b.0, a.0 + 1);
        let mut out = vec![0u8; 128];
        d.read_page(a, &mut out).unwrap(); // random: 100 µs
        d.read_page(b, &mut out).unwrap(); // sequential: 25 µs
        d.read_page(a, &mut out).unwrap(); // backward jump: 100 µs
        assert_eq!(d.injected(), std::time::Duration::from_micros(225));
    }

    #[test]
    fn latency_disk_profile_is_runtime_adjustable() {
        let d = LatencyDisk::new(MemDisk::new(128), LatencyProfile::symmetric_us(500));
        let a = d.allocate().unwrap();
        d.set_latency(LatencyProfile::symmetric_us(0));
        let mut out = vec![0u8; 128];
        d.read_page(a, &mut out).unwrap();
        d.write_page(a, &out).unwrap();
        assert_eq!(d.injected(), std::time::Duration::ZERO);
    }

    // -- TornDisk ----------------------------------------------------------

    #[test]
    fn torn_disk_is_transparent_until_armed() {
        let d = TornDisk::new(MemDisk::new(64));
        let a = d.allocate().unwrap();
        d.write_page(a, &[1u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        d.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
        assert_eq!(d.dropped_writes() + d.torn_writes(), 0);
    }

    #[test]
    fn torn_disk_drops_writes_after_budget() {
        let d = TornDisk::new(MemDisk::new(64));
        let a = d.allocate().unwrap();
        let b = d.allocate().unwrap();
        d.arm(1, TornMode::Drop);
        d.write_page(a, &[1u8; 64]).unwrap(); // within budget: lands
        d.write_page(b, &[2u8; 64]).unwrap(); // silently lost
        let mut buf = [0u8; 64];
        d.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
        d.read_page(b, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64], "dropped write must not land");
        assert_eq!(d.dropped_writes(), 1);
        // Disarming restores the passthrough.
        d.disarm();
        d.write_page(b, &[3u8; 64]).unwrap();
        d.read_page(b, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64]);
    }

    #[test]
    fn torn_disk_tears_writes_in_half() {
        let d = TornDisk::new(MemDisk::new(64));
        let a = d.allocate().unwrap();
        d.write_page(a, &[0xAAu8; 64]).unwrap();
        d.arm(0, TornMode::Tear);
        d.write_page(a, &[0xBBu8; 64]).unwrap();
        let mut buf = [0u8; 64];
        d.read_page(a, &mut buf).unwrap();
        assert_eq!(&buf[..32], &[0xBBu8; 32], "first half is the new write");
        assert_eq!(&buf[32..], &[0xAAu8; 32], "second half is the old page");
        assert_eq!(d.torn_writes(), 1);
    }

    #[test]
    fn fault_disk_fails_exactly_the_kth_read() {
        let disk = FaultDisk::new(MemDisk::new(64));
        let id = disk.allocate().unwrap();
        let mut buf = vec![0u8; 64];
        disk.read_page(id, &mut buf).unwrap(); // disarmed
        disk.fail_read(2);
        disk.read_page(id, &mut buf).unwrap();
        assert!(matches!(
            disk.read_page(id, &mut buf),
            Err(StorageError::Io(_))
        ));
        disk.read_page(id, &mut buf).unwrap(); // one fault, then passthrough
    }

    #[test]
    fn filedisk_open_rejects_ragged_file() {
        let dir = std::env::temp_dir().join(format!("nnq-disk3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.db");
        std::fs::write(&path, vec![0u8; 300]).unwrap();
        assert!(matches!(
            FileDisk::open(&path, 256),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
