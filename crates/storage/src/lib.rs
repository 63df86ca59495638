//! Paged storage substrate for the `nnq` spatial index.
//!
//! RKV'95 evaluates its nearest-neighbor algorithm by counting **disk page
//! accesses**, the canonical cost metric of 1990s database research. To
//! reproduce those measurements faithfully this crate provides a small but
//! complete paged storage stack:
//!
//! * [`DiskManager`] — the raw page device. Two implementations:
//!   [`MemDisk`] (an in-memory simulated disk with physical-I/O counters and
//!   an optional capacity limit for disk-full fault injection) and
//!   [`FileDisk`] (a real file, positioned reads/writes).
//! * [`BufferPool`] — a fixed-capacity page cache with LRU eviction,
//!   pin/unpin semantics, dirty tracking, and detailed [`PoolStats`]. The
//!   paper's "pages accessed" is [`PoolStats::logical_reads`]; with a finite
//!   pool, cold-cache behaviour is visible in
//!   [`PoolStats::physical_reads`]. A frame also keeps what a reader
//!   decoded from its page ([`PageReadGuard::decoded`]) until the page
//!   changes; [`CacheStats`] counts how node reads found it, and is also
//!   the counter set of `nnq-core`'s result cache.
//!
//! Pages are fixed-size byte arrays; interpreting their contents is the
//! caller's job (the `nnq-rtree` crate stores one R-tree node per page).
//!
//! # Example
//!
//! ```
//! use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
//!
//! let pool = BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 64);
//! let (id, mut guard) = pool.new_page().unwrap();
//! guard[0..4].copy_from_slice(&1234u32.to_le_bytes());
//! drop(guard);
//!
//! let guard = pool.fetch(id).unwrap();
//! assert_eq!(u32::from_le_bytes(guard[0..4].try_into().unwrap()), 1234);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod error;
mod heap;
mod pool;
mod wal;

pub use disk::{
    DiskManager, DiskStats, FaultDisk, FileDisk, LatencyDisk, LatencyProfile, MemDisk, TornDisk,
    TornMode,
};
pub use error::{Result, StorageError};
pub use heap::{HeapFile, HeapRecordId};
pub use pool::{BufferPool, CacheStats, PageReadGuard, PageWriteGuard, PoolStats, PrefetchStats};
pub use wal::Wal;

/// The default page size in bytes (4 KiB, the classical database page).
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a disk page.
///
/// Page ids are dense `u64`s handed out by [`DiskManager::allocate`];
/// [`PageId::INVALID`] is a sentinel that never refers to a real page (used
/// e.g. for "no child" slots in serialized tree nodes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel value that never names a real page.
    pub const INVALID: PageId = PageId(u64::MAX);

    /// Whether this id is a real page id (not the sentinel).
    #[inline]
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_valid() {
            write!(f, "page#{}", self.0)
        } else {
            write!(f, "page#invalid")
        }
    }
}
