//! Property tests: the buffer pool over a device must behave exactly like
//! a plain map of page contents, under any operation interleaving and any
//! pool size.

use nnq_storage::{BufferPool, DiskManager, MemDisk, PageId, PoolStats};
use proptest::prelude::*;
use std::collections::HashMap;

const PAGE: usize = 128;

/// Reference model of a single-shard pool: textbook LRU over `cap` frames
/// with dirty tracking, counting what [`PoolStats`] counts. Guards are
/// dropped at once in the traces below, so nothing is ever pinned.
struct LruModel {
    cap: usize,
    clock: u64,
    /// Resident page → (last use, dirty).
    resident: HashMap<PageId, (u64, bool)>,
    stats: PoolStats,
}

impl LruModel {
    /// Brings `id` in (evicting the least recently used page of a full
    /// pool) or touches it; returns whether it was resident.
    fn touch(&mut self, id: PageId, dirty: bool) -> bool {
        self.clock += 1;
        if let Some(slot) = self.resident.get_mut(&id) {
            *slot = (self.clock, slot.1 || dirty);
            return true;
        }
        if self.resident.len() == self.cap {
            let (&victim, &(_, was_dirty)) = self.resident.iter().min_by_key(|(_, v)| v.0).unwrap();
            self.resident.remove(&victim);
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(was_dirty);
        }
        self.resident.insert(id, (self.clock, dirty));
        false
    }

    fn fetch(&mut self, id: PageId, write: bool) {
        self.stats.logical_reads += 1;
        if self.touch(id, write) {
            self.stats.hits += 1;
        } else {
            self.stats.physical_reads += 1;
        }
    }
}

#[derive(Clone, Debug)]
enum TraceOp {
    Fetch(usize),
    FetchWrite(usize),
    New,
    Delete(usize),
    Prefetch(usize),
}

fn trace_strategy() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        4 => (0usize..64).prop_map(TraceOp::Fetch),
        2 => (0usize..64).prop_map(TraceOp::FetchWrite),
        2 => Just(TraceOp::New),
        1 => (0usize..64).prop_map(TraceOp::Delete),
        2 => (0usize..64).prop_map(TraceOp::Prefetch),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    New(u8),
    Write { slot: usize, byte: u8 },
    Read { slot: usize },
    Delete { slot: usize },
    FlushAll,
    ClearCache,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u8>().prop_map(Op::New),
        3 => (0usize..64, any::<u8>()).prop_map(|(slot, byte)| Op::Write { slot, byte }),
        3 => (0usize..64).prop_map(|slot| Op::Read { slot }),
        1 => (0usize..64).prop_map(|slot| Op::Delete { slot }),
        1 => Just(Op::FlushAll),
        1 => Just(Op::ClearCache),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn pool_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        frames in 1usize..12,
    ) {
        let pool = BufferPool::new(Box::new(MemDisk::new(PAGE)), frames);
        // Model: live pages and their first byte.
        let mut model: Vec<PageId> = Vec::new();
        let mut contents: HashMap<PageId, u8> = HashMap::new();
        for op in ops {
            match op {
                Op::New(byte) => {
                    let (id, mut guard) = pool.new_page().unwrap();
                    guard[0] = byte;
                    drop(guard);
                    model.push(id);
                    contents.insert(id, byte);
                }
                Op::Write { slot, byte } => {
                    if !model.is_empty() {
                        let id = model[slot % model.len()];
                        let mut guard = pool.fetch_write(id).unwrap();
                        guard[0] = byte;
                        drop(guard);
                        contents.insert(id, byte);
                    }
                }
                Op::Read { slot } => {
                    if !model.is_empty() {
                        let id = model[slot % model.len()];
                        let guard = pool.fetch(id).unwrap();
                        prop_assert_eq!(guard[0], contents[&id], "read of {}", id);
                    }
                }
                Op::Delete { slot } => {
                    if !model.is_empty() {
                        let id = model.swap_remove(slot % model.len());
                        pool.delete_page(id).unwrap();
                        contents.remove(&id);
                        prop_assert!(pool.fetch(id).is_err());
                    }
                }
                Op::FlushAll => pool.flush_all().unwrap(),
                Op::ClearCache => pool.clear_cache().unwrap(),
            }
            prop_assert_eq!(pool.live_pages(), model.len() as u64);
        }
        // Final sweep: every live page readable with the right contents.
        for id in &model {
            let guard = pool.fetch(*id).unwrap();
            prop_assert_eq!(guard[0], contents[id]);
        }
        // Accounting sanity.
        let s = pool.stats();
        prop_assert!(s.hits + s.physical_reads <= s.logical_reads + s.hits);
        prop_assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
    }

    /// The accounting identity the paper's finite-buffer curves rest on:
    /// for any single-threaded trace, a one-shard pool reports exactly the
    /// reference LRU's counters after every step and holds exactly its
    /// resident set (so it chose the same victims) — whoever loaded the
    /// page, a demand miss or a prefetch worker.
    #[test]
    fn single_shard_pool_is_the_reference_lru(
        ops in proptest::collection::vec(trace_strategy(), 1..200),
        frames in 1usize..10,
    ) {
        let mut pool = BufferPool::new(Box::new(MemDisk::new(PAGE)), frames);
        pool.start_prefetch(1, 4);
        let mut model = LruModel {
            cap: frames,
            clock: 0,
            resident: HashMap::new(),
            stats: PoolStats::default(),
        };
        let mut live: Vec<PageId> = Vec::new();
        for op in ops {
            match op {
                TraceOp::New => {
                    let (id, guard) = pool.new_page().unwrap();
                    drop(guard);
                    model.touch(id, true);
                    live.push(id);
                }
                _ if live.is_empty() => continue,
                TraceOp::Fetch(slot) => {
                    let id = live[slot % live.len()];
                    drop(pool.fetch(id).unwrap());
                    model.fetch(id, false);
                }
                TraceOp::FetchWrite(slot) => {
                    let id = live[slot % live.len()];
                    drop(pool.fetch_write(id).unwrap());
                    model.fetch(id, true);
                }
                TraceOp::Delete(slot) => {
                    let id = live.swap_remove(slot % live.len());
                    pool.delete_page(id).unwrap();
                    model.resident.remove(&id);
                }
                TraceOp::Prefetch(slot) => {
                    if pool.prefetch_active() {
                        let id = live[slot % live.len()];
                        pool.prefetch(id);
                        pool.prefetch_quiesce();
                        // A hint for a resident page is dropped untouched.
                        if !model.resident.contains_key(&id) {
                            model.touch(id, false);
                        }
                    }
                }
            }
            prop_assert_eq!(pool.stats(), model.stats);
            // `page_image` copies a resident frame without touching the
            // pool's counters or recency and reads the device otherwise,
            // which makes it a residency probe.
            for &id in &live {
                let reads = pool.disk_stats().reads;
                pool.page_image(id).unwrap();
                let resident = pool.disk_stats().reads == reads;
                prop_assert_eq!(resident, model.resident.contains_key(&id), "{}", id);
            }
        }
    }

    #[test]
    fn eviction_never_loses_data(
        writes in proptest::collection::vec(any::<u8>(), 1..80),
        frames in 1usize..4,
    ) {
        // A pool far smaller than the working set must still round-trip
        // every page through eviction and reload.
        let pool = BufferPool::new(Box::new(MemDisk::new(PAGE)), frames);
        let mut ids = Vec::new();
        for (i, byte) in writes.iter().enumerate() {
            let (id, mut guard) = pool.new_page().unwrap();
            guard[0] = *byte;
            guard[PAGE - 1] = i as u8;
            drop(guard);
            ids.push(id);
        }
        for (i, (id, byte)) in ids.iter().zip(&writes).enumerate() {
            let guard = pool.fetch(*id).unwrap();
            prop_assert_eq!(guard[0], *byte);
            prop_assert_eq!(guard[PAGE - 1], i as u8);
        }
        // With a tiny pool there must have been evictions and writebacks.
        if writes.len() > frames {
            let s = pool.stats();
            prop_assert!(s.evictions > 0);
            prop_assert!(s.writebacks > 0);
        }
    }

    #[test]
    fn disk_allocation_reuses_freed_slots(
        n_alloc in 1usize..40,
        free_mask in any::<u64>(),
    ) {
        let disk = MemDisk::new(PAGE);
        let mut live = Vec::new();
        for _ in 0..n_alloc {
            live.push(disk.allocate().unwrap());
        }
        let mut freed = 0u64;
        for (i, id) in live.clone().into_iter().enumerate() {
            if free_mask & (1 << (i % 64)) != 0 {
                disk.deallocate(id).unwrap();
                freed += 1;
            }
        }
        prop_assert_eq!(disk.live_pages(), n_alloc as u64 - freed);
        // Reallocating `freed` pages must not grow the address space
        // beyond the original high-water mark.
        for _ in 0..freed {
            let id = disk.allocate().unwrap();
            prop_assert!(id.0 < n_alloc as u64, "allocated beyond high water: {id}");
        }
    }
}
