//! Snapshot-versioned query-result cache.
//!
//! Memoizes complete kNN / radius answers keyed by the pair **(canonical
//! query bytes, tree commit version)**. The version half of the key is
//! what makes the cache exactly correct while a copy-on-write writer
//! ingests underneath: every commit bumps the tree's monotonic
//! [`version`](nnq_rtree::RTree::version), so an entry recorded against
//! an older root simply never matches again — stale answers become
//! *unreachable* by construction, with no invalidation scan and no TTL
//! heuristics. (Stale probes are counted, and the slot is reclaimed by
//! the very insert that refreshes the query under the new version.)
//!
//! A hit replays the recorded answer **including its
//! [`SearchStats`]** — the traversal counters, and with them
//! `logical_reads` (the paper's "pages accessed"), that the original
//! execution observed. Queries are deterministic functions of
//! `(root, query)`, so the replayed frame is byte-identical to what a
//! fresh execution against the same snapshot would produce: the repo's
//! bit-identity contract extends to cache hits by construction, not by
//! luck. Accounting semantics of a hit: the response *reports* the cost
//! the answer had when it was computed; the backend performs no reads,
//! so pool counters advance only on misses.
//!
//! The cache belongs to the thread that runs the batches (the server's
//! batcher), so it is one CLOCK ring behind a `RefCell`: no lock, no
//! atomic, and the type is `!Sync`, so the compiler refuses to share it
//! between threads.
//!
//! * **Second chance.** A hit sets its slot's reference bit. An insert
//!   that needs room sweeps the hand, clearing set bits and evicting the
//!   first slot whose bit is already clear; a new or refreshed entry
//!   arrives with its bit set. A stale probe leaves the bit as it is, so
//!   an unreferenced stale entry is the next victim.
//! * **Lazy growth.** The slot `Vec` grows one slot per new key up to the
//!   capacity; nothing is allocated up front, so any capacity is safe.
//! * **Byte ceiling.** Each entry weighs its key bytes plus
//!   `hits.len() × size_of::<Neighbor<D>>()`. After an insert the same
//!   hand evicts until the total is at most `MAX_CACHED_BYTES` (64 MiB); an
//!   answer heavier than the ceiling on its own is not cached.

use crate::options::{Neighbor, SearchStats};
use crate::parallel::BatchQuery;
use nnq_storage::CacheStats;
use std::cell::RefCell;
use std::collections::HashMap;

/// Most bytes the cached answers may weigh together (see the module
/// docs for the weight). The entry count bounds the cache first: the
/// default 1 024 answers weigh about 4 MiB on `perf`'s serve streams, so
/// the ceiling binds only on unusually heavy answers.
const MAX_CACHED_BYTES: usize = 64 << 20;

impl<const D: usize> BatchQuery<D> {
    /// Canonical byte encoding of the query alone — no request id, no
    /// connection identity — so identical queries from different clients
    /// (or different ids on one connection) produce identical cache keys.
    /// `f64` parameters are encoded as raw bits, making the key exact:
    /// two queries differing by one ulp get different keys and are never
    /// merged.
    pub fn canonical_key(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + 8 * D);
        match self {
            BatchQuery::Knn { q, k } => {
                out.push(0u8);
                out.extend_from_slice(&(*k as u64).to_le_bytes());
                for c in q.coords() {
                    out.extend_from_slice(&c.to_bits().to_le_bytes());
                }
            }
            BatchQuery::Radius { q, radius } => {
                out.push(1u8);
                out.extend_from_slice(&radius.to_bits().to_le_bytes());
                for c in q.coords() {
                    out.extend_from_slice(&c.to_bits().to_le_bytes());
                }
            }
        }
        out
    }
}

/// One memoized answer: the neighbors and the [`SearchStats`] the
/// original execution recorded. Replaying both is what keeps a cache hit
/// byte-identical on the wire, `logical_reads` included.
#[derive(Clone, Debug, Default)]
pub struct CachedAnswer<const D: usize> {
    /// The query's result set, in result order.
    pub hits: Vec<Neighbor<D>>,
    /// The traversal counters of the execution that produced `hits`.
    pub stats: SearchStats,
}

/// Map from `(canonical query bytes, commit version)` to a memoized
/// [`CachedAnswer`]. See the module docs for the correctness argument
/// and the ring; see [`ResultCache::lookup`]/[`insert`](Self::insert)
/// for the probe/fill protocol.
pub struct ResultCache<const D: usize>(RefCell<Ring<D>>);

struct Ring<const D: usize> {
    /// Most entries (`0` disables the cache).
    capacity: usize,
    /// Most bytes ([`MAX_CACHED_BYTES`] outside unit tests).
    max_bytes: usize,
    /// key → index into `slots`; mapped iff that slot holds the key.
    map: HashMap<Box<[u8]>, usize>,
    /// At most `capacity` long; `None` is an empty slot.
    slots: Vec<Option<Slot<D>>>,
    /// Empty slots left by evictions for bytes.
    free: Vec<usize>,
    /// The CLOCK hand: next slot to inspect for eviction.
    hand: usize,
    /// Total weight of the cached entries.
    bytes: usize,
    stats: CacheStats,
}

struct Slot<const D: usize> {
    key: Box<[u8]>,
    version: u64,
    answer: CachedAnswer<D>,
    /// Second-chance bit: set by a hit or a store, cleared by the hand.
    referenced: bool,
}

/// An entry's weight against the byte ceiling.
fn weight<const D: usize>(key: &[u8], answer: &CachedAnswer<D>) -> usize {
    key.len() + answer.hits.len() * std::mem::size_of::<Neighbor<D>>()
}

impl<const D: usize> ResultCache<D> {
    /// A cache holding at most `capacity` answers (`0` disables it: every
    /// probe misses, every insert is dropped) and at most 64 MiB of them
    /// (see the module docs).
    pub fn new(capacity: usize) -> Self {
        Self::with_ceiling(capacity, MAX_CACHED_BYTES)
    }

    fn with_ceiling(capacity: usize, max_bytes: usize) -> Self {
        Self(RefCell::new(Ring {
            capacity,
            max_bytes,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            bytes: 0,
            stats: CacheStats::default(),
        }))
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.0.borrow().capacity > 0
    }

    /// Probes for `key` at `version`. A same-version entry is a hit; a
    /// different-version entry is counted `stale` and treated as a miss
    /// (the commit that moved the version made it unreachable); no entry
    /// is a plain miss.
    pub fn lookup(&self, key: &[u8], version: u64) -> Option<CachedAnswer<D>> {
        let ring = &mut *self.0.borrow_mut();
        let Some(&idx) = ring.map.get(key) else {
            ring.stats.misses += 1;
            return None;
        };
        let slot = ring.slots[idx]
            .as_mut()
            .expect("mapped slot holds an entry");
        if slot.version != version {
            ring.stats.stale += 1;
            return None;
        }
        slot.referenced = true;
        ring.stats.hits += 1;
        Some(slot.answer.clone())
    }

    /// Memoizes `answer` for `key` as computed at `version`. An existing
    /// entry for the same query (any version) is refreshed in place;
    /// otherwise the entry takes an empty slot, a new one, or the CLOCK
    /// victim's. Then the hand evicts until the bytes fit the ceiling.
    pub fn insert(&self, key: &[u8], version: u64, answer: CachedAnswer<D>) {
        let ring = &mut *self.0.borrow_mut();
        let w = weight(key, &answer);
        if ring.capacity == 0 || w > ring.max_bytes {
            return;
        }
        let (idx, key) = match ring.map.get(key) {
            Some(&idx) => {
                let old = ring.slots[idx].take().expect("mapped slot holds an entry");
                ring.bytes -= weight(&old.key, &old.answer);
                (idx, old.key)
            }
            None => {
                let idx = ring.vacant_slot();
                let key: Box<[u8]> = key.into();
                ring.map.insert(key.clone(), idx);
                (idx, key)
            }
        };
        ring.slots[idx] = Some(Slot {
            key,
            version,
            answer,
            referenced: true,
        });
        ring.bytes += w;
        ring.stats.inserts += 1;
        while ring.bytes > ring.max_bytes {
            let idx = ring.evict();
            ring.free.push(idx);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let ring = self.0.borrow();
        CacheStats {
            len: ring.map.len(),
            ..ring.stats
        }
    }
}

impl<const D: usize> Ring<D> {
    /// An empty slot for a new key: one left by a byte eviction, a new one
    /// while the ring is shorter than the capacity, or the CLOCK victim's.
    fn vacant_slot(&mut self) -> usize {
        if let Some(idx) = self.free.pop() {
            idx
        } else if self.slots.len() < self.capacity {
            self.slots.push(None);
            self.slots.len() - 1
        } else {
            self.evict()
        }
    }

    /// Sweeps the hand to the first occupied slot whose reference bit is
    /// already clear, clearing set bits as it passes, and empties it.
    /// Terminates within two sweeps: after one full pass every bit is
    /// clear. At least one slot must be occupied.
    fn evict(&mut self) -> usize {
        loop {
            let idx = self.hand;
            self.hand = (idx + 1) % self.slots.len();
            let Some(slot) = &mut self.slots[idx] else {
                continue;
            };
            if std::mem::take(&mut slot.referenced) {
                continue;
            }
            let slot = self.slots[idx].take().expect("occupied");
            self.map.remove(&slot.key);
            self.bytes -= weight(&slot.key, &slot.answer);
            self.stats.evictions += 1;
            return idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnq_geom::{Point, Rect};
    use nnq_rtree::RecordId;

    fn answer(n: u64) -> CachedAnswer<2> {
        CachedAnswer {
            hits: vec![Neighbor {
                record: RecordId(n),
                mbr: Rect::from_point(Point::new([n as f64, 0.0])),
                dist_sq: n as f64,
            }],
            stats: SearchStats {
                nodes_visited: n,
                ..SearchStats::default()
            },
        }
    }

    #[test]
    fn canonical_key_excludes_nothing_that_matters() {
        let a = BatchQuery::<2>::Knn {
            q: Point::new([1.0, 2.0]),
            k: 5,
        };
        let b = BatchQuery::<2>::Knn {
            q: Point::new([1.0, 2.0]),
            k: 5,
        };
        assert_eq!(a.canonical_key(), b.canonical_key());
        // k matters.
        let c = BatchQuery::<2>::Knn {
            q: Point::new([1.0, 2.0]),
            k: 6,
        };
        assert_ne!(a.canonical_key(), c.canonical_key());
        // One-ulp coordinate difference matters.
        let d = BatchQuery::<2>::Knn {
            q: Point::new([f64::from_bits(1.0f64.to_bits() + 1), 2.0]),
            k: 5,
        };
        assert_ne!(a.canonical_key(), d.canonical_key());
        // A kNN and a radius query never share a key, even with
        // bit-equal parameter payloads (k=1 vs radius with bits 1).
        let e = BatchQuery::<2>::Knn {
            q: Point::new([1.0, 2.0]),
            k: 1,
        };
        let f = BatchQuery::<2>::Radius {
            q: Point::new([1.0, 2.0]),
            radius: f64::from_bits(1),
        };
        assert_ne!(e.canonical_key(), f.canonical_key());
    }

    #[test]
    fn hit_replays_the_exact_answer() {
        let cache = ResultCache::<2>::new(64);
        let q = BatchQuery::<2>::Knn {
            q: Point::new([3.0, 4.0]),
            k: 2,
        };
        let key = q.canonical_key();
        assert!(cache.lookup(&key, 7).is_none());
        cache.insert(&key, 7, answer(42));
        let got = cache.lookup(&key, 7).expect("hit");
        assert_eq!(got.hits[0].record, RecordId(42));
        assert_eq!(got.stats.nodes_visited, 42);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stale, s.inserts), (1, 1, 0, 1));
        assert_eq!(s.len, 1);
    }

    #[test]
    fn version_bump_makes_entries_unreachable() {
        let cache = ResultCache::<2>::new(64);
        let key = BatchQuery::<2>::Radius {
            q: Point::new([0.0, 0.0]),
            radius: 5.0,
        }
        .canonical_key();
        cache.insert(&key, 1, answer(1));
        assert!(cache.lookup(&key, 1).is_some());
        // The writer committed: version moved. The old entry must never
        // be served again.
        assert!(cache.lookup(&key, 2).is_none());
        assert_eq!(cache.stats().stale, 1);
        // Refreshing under the new version reclaims the same slot.
        cache.insert(&key, 2, answer(2));
        assert_eq!(cache.lookup(&key, 2).expect("hit").stats.nodes_visited, 2);
        assert!(cache.lookup(&key, 1).is_none(), "old version gone for good");
        assert_eq!(cache.stats().len, 1, "refresh reuses the slot");
    }

    #[test]
    fn capacity_zero_disables() {
        let cache = ResultCache::<2>::new(0);
        assert!(!cache.is_enabled());
        let key = b"anything".to_vec();
        cache.insert(&key, 1, answer(1));
        assert!(cache.lookup(&key, 1).is_none());
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().inserts, 0);
    }

    #[test]
    fn clock_evicts_past_capacity() {
        let cache = ResultCache::<2>::new(8);
        let keys: Vec<Vec<u8>> = (0..16u64)
            .map(|i| {
                BatchQuery::<2>::Knn {
                    q: Point::new([i as f64, 0.0]),
                    k: 1,
                }
                .canonical_key()
            })
            .collect();
        for (i, key) in keys.iter().enumerate() {
            cache.insert(key, 1, answer(i as u64));
        }
        let s = cache.stats();
        assert!(s.len <= 8);
        assert!(s.evictions >= 8, "over-filling a ring of 8 evicts");
    }

    fn radius_key(r: u64) -> Vec<u8> {
        BatchQuery::<2>::Radius {
            q: Point::new([0.0, 0.0]),
            radius: r as f64,
        }
        .canonical_key()
    }

    /// The ring's bookkeeping: within both bounds, the map mirrors the
    /// slots, `free` lists exactly the empty ones, and the byte total is
    /// the entries' weight.
    fn assert_invariants<const D: usize>(cache: &ResultCache<D>) {
        let ring = cache.0.borrow();
        assert!(ring.slots.len() <= ring.capacity);
        assert!(ring.bytes <= ring.max_bytes, "{} bytes", ring.bytes);
        let mut bytes = 0;
        for (idx, slot) in ring.slots.iter().enumerate() {
            match slot {
                Some(s) => {
                    assert_eq!(ring.map.get(&s.key), Some(&idx), "slot {idx} unmapped");
                    bytes += weight(&s.key, &s.answer);
                }
                None => assert!(ring.free.contains(&idx), "empty slot {idx} not free"),
            }
        }
        assert_eq!(ring.map.len() + ring.free.len(), ring.slots.len());
        assert_eq!(ring.bytes, bytes);
    }

    #[test]
    fn huge_capacity_allocates_nothing_up_front() {
        // The ring grows with its entries, so a capacity near the address
        // space costs nothing until answers arrive.
        let cache = ResultCache::<2>::new(usize::MAX);
        for r in 0..4 {
            cache.insert(&radius_key(r), 1, answer(r));
        }
        for r in 0..4 {
            let got = cache.lookup(&radius_key(r), 1).expect("hit");
            assert_eq!(got.stats.nodes_visited, r);
        }
        assert_eq!(cache.0.borrow().slots.len(), 4, "one slot per key");
        assert_invariants(&cache);
    }

    #[test]
    fn stale_probe_leaves_the_reference_bit_clear() {
        // Three slots. After a fourth insert the hand has cleared every bit
        // and evicted `a`: slots [d (set), b, c], hand on b. A stale probe
        // on b must leave its bit clear, so the next insert evicts b; a hit
        // on b sets it, and the hand passes on to c.
        let run = |probe_b_valid: bool| {
            let cache = ResultCache::<2>::new(3);
            for r in 0..4 {
                cache.insert(&radius_key(r), 1, answer(r));
            }
            assert!(cache.lookup(&radius_key(0), 1).is_none());
            let version = if probe_b_valid { 1 } else { 2 };
            let probe = cache.lookup(&radius_key(1), version);
            cache.insert(&radius_key(4), 1, answer(4));
            let b = cache.lookup(&radius_key(1), 1).is_some();
            let c = cache.lookup(&radius_key(2), 1).is_some();
            (probe.map(|a| a.stats.nodes_visited), b, c, cache.stats())
        };
        let (probe, b, c, stats) = run(false);
        assert_eq!(probe, None);
        assert_eq!((b, c), (false, true), "the stale entry is the next victim");
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.evictions, 2);
        let (probe, b, c, _) = run(true);
        assert_eq!(probe, Some(1));
        assert_eq!((b, c), (true, false), "a hit buys a second chance");
    }

    #[test]
    fn byte_ceiling_bounds_a_burst_of_large_answers() {
        // Radius answers of 1..=400 hits (up to ~19 KiB) into a cache of
        // 64 answers but 64 KiB: the bytes bind long before the count.
        let size = |r: u64| (r as usize * 37) % 400 + 1;
        let wide = |r: u64| CachedAnswer::<2> {
            hits: (0..size(r) as u64)
                .map(|i| Neighbor {
                    record: RecordId(r * 1000 + i),
                    mbr: Rect::from_point(Point::new([i as f64, 0.0])),
                    dist_sq: i as f64,
                })
                .collect(),
            stats: SearchStats {
                nodes_visited: r,
                ..SearchStats::default()
            },
        };
        let ceiling = 64 << 10;
        let cache = ResultCache::<2>::with_ceiling(64, ceiling);
        for r in 0..120 {
            cache.insert(&radius_key(r), 1, wide(r));
            assert_invariants(&cache);
            // Every probe hits the exact answer or misses.
            for p in 0..=r {
                if let Some(got) = cache.lookup(&radius_key(p), 1) {
                    assert_eq!(got.stats.nodes_visited, p);
                    let records = got.hits.iter().map(|h| h.record.0);
                    assert!(
                        records.eq(p * 1000..p * 1000 + size(p) as u64),
                        "answer {p}"
                    );
                }
            }
        }
        let s = cache.stats();
        assert!(s.evictions > 0 && s.len < 64, "the bytes bound: {s:?}");
        // An answer heavier than the ceiling alone is not cached, and
        // evicts nothing.
        let heavy = CachedAnswer::<2> {
            hits: wide(0)
                .hits
                .repeat(ceiling / std::mem::size_of::<Neighbor<2>>() + 1),
            stats: SearchStats::default(),
        };
        cache.insert(&radius_key(1000), 1, heavy);
        assert!(cache.lookup(&radius_key(1000), 1).is_none());
        assert_eq!(cache.stats().evictions, s.evictions);
        assert_invariants(&cache);
    }
}
