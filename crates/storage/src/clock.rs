//! The lock-striped CLOCK cache under `nnq-core`'s query-result cache
//! (canonical query bytes → versioned answer).
//!
//! * **Stripes.** The cache is split into `S` stripes (`S` a power of
//!   two: the machine's parallelism rounded up, clamped to 64 and halved
//!   until every stripe owns at least one slot). A key lives in the stripe
//!   the low bits of its hash select, so readers of different stripes
//!   never touch the same lock.
//! * **Second chance.** Each stripe is a ring of slots swept by a CLOCK
//!   hand. A hit takes only the stripe's *read* lock and sets the slot's
//!   atomic reference bit; an insert sweeps the hand, clearing set bits
//!   and evicting the first slot whose bit is already clear. A fresh
//!   entry arrives with its bit set, so it survives one full sweep.
//! * **Validity.** [`ClockCache::get`] takes a predicate over the cached
//!   value. An entry that fails it is a *stale* probe: counted on its
//!   own, not served, and its reference bit is left clear, so it is the
//!   next victim unless an insert refreshes it in place.
//! * **Fixed capacity.** The capacity, the stripe count and the ring
//!   lengths are set at construction: stripe `i` of `S` owns
//!   `capacity / S` slots, plus one if `i < capacity % S`. The map always
//!   mirrors the ring — a key is mapped iff its slot holds it — so removal
//!   leaves no residue. Capacity 0 disables the cache: every probe misses
//!   and inserts and removals do nothing.
//!
//! The cache never reads pages, so what it holds cannot change a page
//! count: the result cache replays the recorded accounting on a hit.
//! Counters are atomics outside the locks so concurrent readers do not
//! serialize on stats.

use parking_lot::RwLock;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What [`ClockCache::get`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Probe<V> {
    /// A valid entry; the value is a clone of the cached one.
    Hit(V),
    /// An entry the validity predicate rejected.
    Stale,
    /// No entry for the key.
    Miss,
}

/// Counters of a [`ClockCache`] ([`ClockCache::stats`]), or, `hits` and
/// `misses` only, of the decoded nodes `nnq-rtree` keeps in pool frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes served from a valid entry.
    pub hits: u64,
    /// Probes with no entry for the key.
    pub misses: u64,
    /// Probes whose entry failed the validity predicate.
    pub stale: u64,
    /// Entries stored, in-place refreshes included.
    pub inserts: u64,
    /// Entries dropped by the CLOCK hand.
    pub evictions: u64,
    /// Entries dropped by [`ClockCache::remove`].
    pub invalidations: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum entries the cache will hold (`0` disables it).
    pub capacity: usize,
    /// Number of lock stripes the cache is split across.
    pub stripes: usize,
}

impl CacheStats {
    /// Fraction of probes served from the cache, stale probes counted as
    /// non-hits; `0.0` when nothing was probed (the convention of
    /// [`crate::PoolStats::hit_rate`]).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A lock-striped, CLOCK-evicted map from `K` to `V` (see the module
/// docs). Values are handed out by clone, so `V` is typically an `Arc` or
/// a small record.
pub struct ClockCache<K, V> {
    /// Total slots across stripes.
    capacity: usize,
    stripe_mask: u64,
    stripes: Vec<RwLock<Ring<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

struct Ring<K, V> {
    /// key → index into `slots`; mapped iff that slot holds the key.
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// The CLOCK hand: next slot to inspect for eviction.
    hand: usize,
}

struct Slot<K, V> {
    entry: Option<(K, V)>,
    /// Second-chance bit; set on a hit under the stripe's *read* lock
    /// (hence atomic), cleared by the sweeping hand.
    referenced: AtomicBool,
}

impl<K, V> Slot<K, V> {
    fn empty() -> Self {
        Self {
            entry: None,
            referenced: AtomicBool::new(false),
        }
    }
}

/// Power-of-two stripe count for a cache of `capacity` entries.
fn stripe_count_for(capacity: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut stripes = hw.next_power_of_two().min(64);
    while stripes > capacity.max(1) {
        stripes /= 2;
    }
    stripes
}

impl<K: Hash + Eq, V> ClockCache<K, V> {
    /// A cache of `capacity` entries (`0` disables it).
    pub fn new(capacity: usize) -> Self {
        Self::with_stripes(capacity, stripe_count_for(capacity))
    }

    fn with_stripes(capacity: usize, stripes: usize) -> Self {
        // Every stripe of an enabled cache owns at least one slot.
        debug_assert!(stripes.is_power_of_two() && (capacity == 0 || stripes <= capacity));
        Self {
            capacity,
            stripe_mask: (stripes - 1) as u64,
            stripes: (0..stripes)
                .map(|i| {
                    let len = capacity / stripes + usize::from(i < capacity % stripes);
                    RwLock::new(Ring {
                        map: HashMap::new(),
                        slots: (0..len).map(|_| Slot::empty()).collect(),
                        hand: 0,
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The stripe of `key`: the low bits of its `DefaultHasher` hash
    /// (`Borrow` requires `K` and `Q` to hash alike).
    #[inline]
    fn stripe<Q: Hash + ?Sized>(&self, key: &Q) -> &RwLock<Ring<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.stripes[(h.finish() & self.stripe_mask) as usize]
    }

    /// Probes for `key`. An entry whose value satisfies `valid` is a hit
    /// (its reference bit is set); one that does not is stale (counted,
    /// bit untouched); no entry is a miss.
    pub fn get<Q>(&self, key: &Q, valid: impl FnOnce(&V) -> bool) -> Probe<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        if !self.is_enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Probe::Miss;
        }
        let ring = self.stripe(key).read();
        let probe = match ring.map.get(key) {
            None => Probe::Miss,
            Some(&idx) => {
                let slot = &ring.slots[idx];
                let (_, value) = slot.entry.as_ref().expect("mapped slot holds an entry");
                if valid(value) {
                    slot.referenced.store(true, Ordering::Relaxed);
                    Probe::Hit(value.clone())
                } else {
                    Probe::Stale
                }
            }
        };
        drop(ring);
        let counter = match probe {
            Probe::Hit(_) => &self.hits,
            Probe::Stale => &self.stale,
            Probe::Miss => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        probe
    }

    /// Caches `value` under `key`. An existing entry for the key is
    /// refreshed in place; otherwise the stripe's CLOCK hand picks a slot:
    /// the first empty one, or the first occupied one whose reference bit
    /// is already clear (evicting it), clearing bits as it passes.
    pub fn insert<Q>(&self, key: &Q, value: V)
    where
        K: Borrow<Q> + Clone,
        Q: Hash + Eq + ToOwned + ?Sized,
        Q::Owned: Into<K>,
    {
        if !self.is_enabled() {
            return;
        }
        let mut guard = self.stripe(key).write();
        let Ring { map, slots, hand } = &mut *guard;
        if let Some(&idx) = map.get(key) {
            let slot = &mut slots[idx];
            slot.entry.as_mut().expect("mapped slot holds an entry").1 = value;
            *slot.referenced.get_mut() = true;
            self.inserts.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let n = slots.len();
        // Terminates within two sweeps: after one full pass every bit is
        // clear.
        let idx = loop {
            let idx = *hand;
            *hand = (idx + 1) % n;
            let slot = &mut slots[idx];
            if slot.entry.is_none() {
                break idx;
            }
            if std::mem::take(slot.referenced.get_mut()) {
                continue;
            }
            let (old, _) = slot.entry.take().expect("occupied");
            map.remove::<K>(&old);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            break idx;
        };
        let key: K = key.to_owned().into();
        let slot = &mut slots[idx];
        slot.entry = Some((key.clone(), value));
        *slot.referenced.get_mut() = true;
        map.insert(key, idx);
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops `key`'s entry, emptying its slot in place (counted as an
    /// invalidation).
    pub fn remove<Q>(&self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.stripe(key).write();
        if let Some(idx) = ring.map.remove(key) {
            ring.slots[idx] = Slot::empty();
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            let mut ring = stripe.write();
            ring.map.clear();
            ring.slots.iter_mut().for_each(|slot| *slot = Slot::empty());
            ring.hand = 0;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            len: self.stripes.iter().map(|s| s.read().map.len()).sum(),
            capacity: self.capacity,
            stripes: self.stripes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageId;
    use std::fmt::Debug;

    fn ring_len<K, V>(cache: &ClockCache<K, V>) -> usize {
        cache.stripes.iter().map(|s| s.read().slots.len()).sum()
    }

    /// Length within capacity, rings summing to capacity, and the map
    /// mirroring the rings exactly.
    fn assert_invariants<K: Hash + Eq + Debug, V>(cache: &ClockCache<K, V>) {
        let stats = cache.stats();
        assert!(stats.len <= stats.capacity, "{stats:?}");
        assert_eq!(ring_len(cache), stats.capacity);
        for stripe in &cache.stripes {
            let ring = stripe.read();
            for (key, &idx) in &ring.map {
                let held = ring.slots[idx].entry.as_ref().map(|(k, _)| k);
                assert_eq!(held, Some(key), "mapped slot holds another key");
            }
            let occupied = ring.slots.iter().filter(|s| s.entry.is_some()).count();
            assert_eq!(ring.map.len(), occupied, "an occupied slot is unmapped");
        }
    }

    #[test]
    fn hammer_keeps_the_rings_and_the_map_in_step() {
        // Four threads race probes, inserts and removals on a small cache.
        // Every hit must hand back its own key's value, and the structure
        // must be whole afterwards.
        let cache = ClockCache::<PageId, u64>::new(16);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        let key = PageId((i * 7919 + t * 104_729) % 64);
                        match i % 10 {
                            0..=5 => {
                                if let Probe::Hit(v) = cache.get(&key, |_| true) {
                                    assert_eq!(v, key.0 * 3);
                                }
                            }
                            6 | 7 => cache.insert(&key, key.0 * 3),
                            _ => cache.remove(&key),
                        }
                    }
                });
            }
        });
        assert_invariants(&cache);
        // Still a working cache.
        for k in 0..64 {
            cache.insert(&PageId(k), k * 3);
        }
        assert_invariants(&cache);
        assert!(cache.stats().len > 0);
    }

    #[test]
    fn stale_probe_leaves_the_reference_bit_clear() {
        // One stripe of three slots. After a fourth insert the hand has
        // cleared every bit and evicted `a`: slots [d (set), b, c], hand on
        // b. A stale probe on b must leave its bit clear, so the next insert
        // evicts b; a hit on b sets it, and the hand passes on to c.
        let run = |probe_b_valid: bool| {
            let cache = ClockCache::<PageId, u64>::with_stripes(3, 1);
            for k in 0..4 {
                cache.insert(&PageId(k), k);
            }
            assert_eq!(cache.get(&PageId(0), |_| true), Probe::Miss);
            let probe = cache.get(&PageId(1), |_| probe_b_valid);
            cache.insert(&PageId(4), 4);
            let b = cache.get(&PageId(1), |_| true) != Probe::Miss;
            let c = cache.get(&PageId(2), |_| true) != Probe::Miss;
            (probe, b, c, cache.stats())
        };
        let (probe, b, c, stats) = run(false);
        assert_eq!(probe, Probe::Stale);
        assert_eq!((b, c), (false, true), "the stale entry is the next victim");
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.evictions, 2);
        let (probe, b, c, _) = run(true);
        assert_eq!(probe, Probe::Hit(1));
        assert_eq!((b, c), (true, false), "a hit buys a second chance");
    }

    #[test]
    fn stripes_cover_every_capacity_at_construction() {
        for cap in [0usize, 1, 2, 3, 7, 64] {
            let cache = ClockCache::<PageId, u64>::new(cap);
            let stripes = cache.stats().stripes;
            assert!(stripes >= 1 && stripes.is_power_of_two());
            assert_eq!(ring_len(&cache), cap, "capacity {cap}");
            for k in 0..2 * cap as u64 + 1 {
                cache.insert(&PageId(k), k);
            }
            assert_invariants(&cache);
            assert_eq!(cache.is_enabled(), cap > 0);
        }
    }

    #[test]
    fn removal_churn_leaves_no_residue() {
        // Insert/remove cycles empty the slot in place: the ring keeps its
        // length and the map never outgrows it.
        let cache = ClockCache::<PageId, u64>::new(8);
        for i in 0..10_000u64 {
            cache.insert(&PageId(0), i);
            cache.remove(&PageId(0));
            if i % 256 == 0 {
                assert_invariants(&cache);
                assert_eq!(ring_len(&cache), 8, "ring grew");
            }
        }
        assert_eq!(ring_len(&cache), 8, "ring grew after churn");
        assert_eq!(cache.stats().invalidations, 10_000);
        assert_eq!(cache.stats().len, 0);
    }
}
