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
//! The container is `nnq_storage::ClockCache` (lock-striped CLOCK rings),
//! with the version check as its validity predicate and a hash of the key
//! bytes as the stripe choice.

use crate::options::{Neighbor, SearchStats};
use crate::parallel::BatchQuery;
use nnq_storage::{CacheStats, ClockCache, Probe};

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
/// [`CachedAnswer`]. See the module docs for the correctness argument;
/// see [`ResultCache::lookup`]/[`insert`](Self::insert) for the
/// probe/fill protocol.
pub struct ResultCache<const D: usize>(ClockCache<Box<[u8]>, (u64, CachedAnswer<D>)>);

impl<const D: usize> ResultCache<D> {
    /// A cache holding at most `capacity` answers (`0` disables it: every
    /// probe misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        Self(ClockCache::new(capacity))
    }

    /// Whether the cache can hold anything at all right now.
    pub fn is_enabled(&self) -> bool {
        self.0.is_enabled()
    }

    /// Probes for `key` at `version`. A same-version entry is a hit; a
    /// different-version entry is counted `stale` and treated as a miss
    /// (the commit that moved the version made it unreachable); no entry
    /// is a plain miss.
    pub fn lookup(&self, key: &[u8], version: u64) -> Option<CachedAnswer<D>> {
        match self.0.get(key, |(v, _)| *v == version) {
            Probe::Hit((_, answer)) => Some(answer),
            Probe::Stale | Probe::Miss => None,
        }
    }

    /// Memoizes `answer` for `key` as computed at `version`. An existing
    /// entry for the same query (any version) is refreshed in place.
    pub fn insert(&self, key: &[u8], version: u64, answer: CachedAnswer<D>) {
        self.0.insert(key, (version, answer));
    }

    /// Drops every memoized answer (counters are kept).
    pub fn clear(&self) {
        self.0.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
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
}
