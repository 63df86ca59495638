//! Forests, and the Hilbert-range partitioned multi-tree.
//!
//! Every query path in `nnq-core` runs on a [`Forest`]: trees, and one
//! bound per tree that contains everything the tree holds. The
//! scatter-gather search orders and prunes the trees by MINDIST to their
//! bounds. An unpartitioned tree is a forest of one whose bound is the
//! whole space ([`whole_space`]); a [`PartitionedTree`] is the forest of
//! its partitions, bounded by their manifest MBRs.
//!
//! A [`PartitionedTree`] splits a dataset into `P` independent R-trees by
//! Hilbert key range: every item is keyed by [`nnq_geom::hilbert_key`]
//! over the *dataset* bounds, the keyed items are sorted, and the sorted
//! sequence is cut into `P` equal-count chunks. Because consecutive
//! Hilbert keys are spatially adjacent, each chunk — and therefore each
//! partition's tree — covers a compact region of space, which is what
//! makes MINDIST-to-partition-MBR pruning effective (see the scatter-gather
//! search in `nnq-core`).
//!
//! Each partition is a complete, self-contained [`RTree`] on its **own**
//! [`BufferPool`] (own frame budget, own decoded-node cache, own
//! prefetcher). The only shared state is the [`PartitionManifest`]: the
//! dataset bounds the keys were computed in plus, per partition, its
//! observed key range, entry count, and MBR. The manifest is tiny and
//! text-encoded ([`PartitionManifest::encode`]) with `f64` coordinates
//! stored as raw bit patterns, so a round trip through disk is exact.
//!
//! This is the in-process rehearsal of a scale-out deployment: each
//! partition could live on its own machine, with the manifest as the
//! router's only global knowledge.

use crate::bulk::BulkMethod;
use crate::config::RTreeConfig;
use crate::entry::RecordId;
use crate::store::{NodeStore, PagedStore};
use crate::tree::{RTree, Snapshot, TreeAccess};
use crate::{RTreeError, Result};
use nnq_geom::{hilbert_key, Point, Rect};
use nnq_storage::{BufferPool, MemDisk, PoolStats, PAGE_SIZE};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-partition metadata recorded in the [`PartitionManifest`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionMeta<const D: usize> {
    /// Smallest Hilbert key observed in this partition (0 when empty).
    pub key_lo: u64,
    /// Largest Hilbert key observed in this partition (0 when empty).
    pub key_hi: u64,
    /// Number of data entries in this partition.
    pub count: u64,
    /// Tight MBR of the partition's entries ([`Rect::empty`] when empty).
    pub mbr: Rect<D>,
}

/// The global metadata of a partitioned tree: the dataset bounds the
/// Hilbert keys were computed in, plus one [`PartitionMeta`] per
/// partition, in key order.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionManifest<const D: usize> {
    /// Dataset bounds used to normalize centers into the Hilbert grid.
    pub bounds: Rect<D>,
    /// Per-partition metadata, ordered by key range.
    pub parts: Vec<PartitionMeta<D>>,
}

const MANIFEST_HEADER: &str = "nnq-partition-manifest v1";

fn rect_bits<const D: usize>(r: &Rect<D>, out: &mut String) {
    use std::fmt::Write;
    for i in 0..D {
        let _ = write!(out, " {}", r.lo()[i].to_bits());
    }
    for i in 0..D {
        let _ = write!(out, " {}", r.hi()[i].to_bits());
    }
}

fn parse_rect<const D: usize>(tokens: &mut std::str::SplitWhitespace<'_>) -> Result<Rect<D>> {
    let mut lo = [0.0f64; D];
    let mut hi = [0.0f64; D];
    for slot in lo.iter_mut().chain(hi.iter_mut()) {
        *slot = f64::from_bits(parse_u64(tokens)?);
    }
    // A manifest rectangle is either a tight union of valid MBRs (ordered
    // corners) or `Rect::empty()` (inverted infinite corners, which
    // `Rect::new` would flip); restore the canonical empty value directly.
    if (0..D).any(|i| lo[i] > hi[i]) {
        return Ok(Rect::empty());
    }
    Ok(Rect::new(
        nnq_geom::Point::new(lo),
        nnq_geom::Point::new(hi),
    ))
}

fn parse_u64(tokens: &mut std::str::SplitWhitespace<'_>) -> Result<u64> {
    tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| RTreeError::Invalid("manifest: truncated or non-numeric token".into()))
}

impl<const D: usize> PartitionManifest<D> {
    /// Total entry count across all partitions.
    pub fn total_count(&self) -> u64 {
        self.parts.iter().map(|p| p.count).sum()
    }

    /// Serializes the manifest to its text form. Coordinates are written
    /// as `f64::to_bits` integers, so [`PartitionManifest::decode`]
    /// reconstructs them bit-exactly (including infinities in the empty
    /// rectangle).
    pub fn encode(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{MANIFEST_HEADER}");
        let _ = writeln!(out, "dims {D}");
        let _ = writeln!(out, "partitions {}", self.parts.len());
        let mut line = String::from("bounds");
        rect_bits(&self.bounds, &mut line);
        let _ = writeln!(out, "{line}");
        for p in &self.parts {
            let mut line = format!("part {} {} {}", p.key_lo, p.key_hi, p.count);
            rect_bits(&p.mbr, &mut line);
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Parses a manifest previously produced by
    /// [`PartitionManifest::encode`].
    pub fn decode(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        let bad = |msg: &str| RTreeError::Invalid(format!("manifest: {msg}"));
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(bad("missing or unknown header"));
        }
        let dims_line = lines.next().ok_or_else(|| bad("missing dims line"))?;
        let dims: usize = dims_line
            .strip_prefix("dims ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed dims line"))?;
        if dims != D {
            return Err(bad(&format!(
                "dimension mismatch: file has {dims}, caller wants {D}"
            )));
        }
        let count_line = lines.next().ok_or_else(|| bad("missing partitions line"))?;
        let count: usize = count_line
            .strip_prefix("partitions ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed partitions line"))?;
        let bounds_line = lines.next().ok_or_else(|| bad("missing bounds line"))?;
        let mut tokens = bounds_line
            .strip_prefix("bounds")
            .ok_or_else(|| bad("malformed bounds line"))?
            .split_whitespace();
        let bounds = parse_rect::<D>(&mut tokens)?;
        let mut parts = Vec::with_capacity(count);
        for _ in 0..count {
            let line = lines.next().ok_or_else(|| bad("truncated part list"))?;
            let mut tokens = line
                .strip_prefix("part")
                .ok_or_else(|| bad("malformed part line"))?
                .split_whitespace();
            let key_lo = parse_u64(&mut tokens)?;
            let key_hi = parse_u64(&mut tokens)?;
            let n = parse_u64(&mut tokens)?;
            let mbr = parse_rect::<D>(&mut tokens)?;
            parts.push(PartitionMeta {
                key_lo,
                key_hi,
                count: n,
                mbr,
            });
        }
        Ok(Self { bounds, parts })
    }
}

/// Splits `items` into `partitions` equal-count chunks by Hilbert key
/// range and returns the chunks with their [`PartitionManifest`].
///
/// Items are keyed by [`hilbert_key`] over the union of all item MBRs —
/// the *same* keying the Hilbert bulk loader uses — and stably sorted by
/// key. The sorted sequence is cut into `partitions` contiguous chunks
/// whose sizes differ by at most one (the first `n % partitions` chunks
/// take the extra item). With `partitions == 1` the single chunk is the
/// whole dataset in Hilbert order, so a tree bulk-loaded from it is
/// structurally identical to a Hilbert bulk load of the original items.
///
/// # Panics
/// Panics if `partitions == 0` or any MBR is invalid.
pub fn hilbert_split<const D: usize>(
    items: Vec<(Rect<D>, RecordId)>,
    partitions: usize,
) -> (Vec<Vec<(Rect<D>, RecordId)>>, PartitionManifest<D>) {
    assert!(partitions > 0, "need at least one partition");
    let mut bounds = Rect::empty();
    for (mbr, _) in &items {
        assert!(mbr.is_valid(), "cannot partition an invalid rectangle");
        bounds.union_in_place(mbr);
    }
    let mut keyed: Vec<(u64, (Rect<D>, RecordId))> = items
        .into_iter()
        .map(|item| (hilbert_key(&item.0.center(), &bounds), item))
        .collect();
    // Stable sort by key: ties keep input order, mirroring the bulk
    // loader's `sort_by_key`, which is what makes P=1 structure-identical
    // to a plain Hilbert bulk load.
    keyed.sort_by_key(|(k, _)| *k);

    let n = keyed.len();
    let base = n / partitions;
    let extra = n % partitions;
    let mut chunks = Vec::with_capacity(partitions);
    let mut parts = Vec::with_capacity(partitions);
    let mut it = keyed.into_iter();
    for i in 0..partitions {
        let take = base + usize::from(i < extra);
        let mut chunk = Vec::with_capacity(take);
        let (mut key_lo, mut key_hi) = (u64::MAX, 0u64);
        let mut mbr = Rect::empty();
        for (key, item) in it.by_ref().take(take) {
            key_lo = key_lo.min(key);
            key_hi = key_hi.max(key);
            mbr.union_in_place(&item.0);
            chunk.push(item);
        }
        if chunk.is_empty() {
            (key_lo, key_hi) = (0, 0);
        }
        parts.push(PartitionMeta {
            key_lo,
            key_hi,
            count: chunk.len() as u64,
            mbr,
        });
        chunks.push(chunk);
    }
    (chunks, PartitionManifest { bounds, parts })
}

/// The bound of an unpartitioned tree: the whole space. It contains the
/// tree whatever is written to it, and its MINDIST to any point is 0, so
/// the search (whose first round runs at bound `+∞`) never prunes by it.
pub const fn whole_space<const D: usize>() -> Rect<D> {
    Rect::from_sorted(
        Point::new([f64::NEG_INFINITY; D]),
        Point::new([f64::INFINITY; D]),
    )
}

/// Trees, and one bound per tree: what every query path runs on (module
/// docs).
pub struct Forest<'a, const D: usize, T> {
    trees: &'a [T],
    bounds: &'a [Rect<D>],
}

impl<'a, const D: usize, T> Forest<'a, D, T> {
    /// The forest of `trees`, tree `i` bounded by `bounds[i]`, which must
    /// contain everything the tree holds ([`Rect::empty`] for an empty
    /// partition, [`whole_space`] for a tree that takes writes).
    ///
    /// # Panics
    /// Panics if `trees` and `bounds` have different lengths.
    pub fn new(trees: &'a [T], bounds: &'a [Rect<D>]) -> Self {
        assert_eq!(trees.len(), bounds.len(), "one bound per tree");
        Self { trees, bounds }
    }

    /// `tree` unpartitioned: a forest of one, bounded by [`whole_space`].
    pub fn of_one(tree: &'a T) -> Self {
        Self::new(std::slice::from_ref(tree), const { &[whole_space()] })
    }

    /// The trees.
    pub fn trees(&self) -> &'a [T] {
        self.trees
    }

    /// Each tree's bound, in tree order.
    pub fn bounds(&self) -> &'a [Rect<D>] {
        self.bounds
    }
}

impl<const D: usize> Forest<'_, D, RTree<D, PagedStore<D>>> {
    /// Total number of data entries across the trees.
    pub fn len(&self) -> u64 {
        self.trees.iter().map(RTree::len).sum()
    }

    /// Whether every tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffer-pool statistics summed over the trees' pools; the summed
    /// `logical_reads` is the dataset-wide "pages accessed" figure.
    pub fn pool_stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for tree in self.trees {
            total.accumulate(tree.pool().stats());
        }
        total
    }

    /// Resets statistics on every tree's pool.
    pub fn reset_stats(&self) {
        for tree in self.trees {
            tree.pool().reset_stats();
        }
    }

    /// Drops every tree's cached frames and decoded nodes (cold-cache
    /// measurement setup).
    pub fn clear_caches(&self) -> Result<()> {
        for tree in self.trees {
            tree.pool().clear_cache()?;
            tree.store().clear_node_cache();
        }
        Ok(())
    }
}

// A forest only borrows, so it copies whatever its trees are.
impl<const D: usize, T> Clone for Forest<'_, D, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<const D: usize, T> Copy for Forest<'_, D, T> {}

/// Pins a snapshot of every tree at one composed version: reads the summed
/// [`RTree::version`], pins each tree, and retries if the pinned versions
/// do not add up to it. Versions only grow, so equal sums mean no tree
/// committed between its version read and its pin: after the last read
/// and before the first pin, every tree stood at its pinned version. A
/// commit bumps one tree's version by one, so the sum grows with every
/// commit anywhere in the forest: the snapshots' summed version names one
/// committed state, and keys what is computed on them.
pub fn snapshot_all<const D: usize, S: NodeStore<D>>(
    trees: &[RTree<D, S>],
) -> Vec<Snapshot<'_, D, S>> {
    loop {
        let version: u64 = trees.iter().map(RTree::version).sum();
        let snaps: Vec<_> = trees.iter().map(RTree::snapshot).collect();
        if snaps.iter().map(Snapshot::version).sum::<u64>() == version {
            return snaps;
        }
    }
}

/// Redistributes a decoded-node cache budget of `total` nodes across
/// `trees`, proportionally to each tree's pool miss rate (lifetime, per
/// the current counters) with an equal-share floor of `floor` nodes so no
/// tree is starved: the worst-missing trees get the most decode headroom.
/// With no reads anywhere the budget falls back to an even split; one tree
/// gets all of it. Returns the installed per-tree capacities.
///
/// Accounting-neutral: only [`TreeAccess::set_cache_capacity`] is
/// touched, which never changes page-access counters.
pub fn rebalance_cache_budget<const D: usize, T: TreeAccess<D>>(
    trees: &[T],
    total: usize,
    floor: usize,
) -> Vec<usize> {
    let p = trees.len();
    if p == 0 {
        return Vec::new();
    }
    let floor = floor.min(total / p);
    let spread = total - floor * p;
    let miss: Vec<f64> = trees
        .iter()
        .map(|t| {
            let s = t.backend_signals();
            s.physical_reads as f64 / s.logical_reads.max(1) as f64
        })
        .collect();
    let sum: f64 = miss.iter().sum();
    let caps: Vec<usize> = if sum <= 0.0 {
        // Nothing measured (or perfectly warm everywhere): even split.
        let base = total / p;
        let rem = total % p;
        (0..p).map(|i| base + usize::from(i < rem)).collect()
    } else {
        let mut caps: Vec<usize> = miss
            .iter()
            .map(|m| floor + ((m / sum) * spread as f64) as usize)
            .collect();
        // Hand rounding leftovers to the worst misser so the budget is
        // fully spent.
        let spent: usize = caps.iter().sum();
        let worst = miss
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("p > 0");
        caps[worst] += total - spent;
        caps
    };
    for (tree, &cap) in trees.iter().zip(&caps) {
        tree.set_cache_capacity(cap);
    }
    caps
}

/// A dataset split into `P` independent R-trees by Hilbert key range.
///
/// See the module docs for the construction. Queries go through the
/// scatter-gather search in `nnq-core` (`partitioned_knn` /
/// `scatter_radius`) over its [`forest`](PartitionedTree::forest),
/// which orders and prunes partitions by MINDIST to their manifest MBRs.
pub struct PartitionedTree<const D: usize> {
    parts: Vec<RTree<D, PagedStore<D>>>,
    manifest: PartitionManifest<D>,
    /// The manifest MBRs, in partition order: the forest's bounds.
    bounds: Vec<Rect<D>>,
}

impl<const D: usize> PartitionedTree<D> {
    /// Bulk-loads a partitioned tree, one partition per pool in `pools`,
    /// using up to `build_threads` threads to build partitions in
    /// parallel (work is claimed from a shared cursor; the result is
    /// independent of the thread count because each partition's build is
    /// self-contained on its own pool).
    ///
    /// # Panics
    /// Panics if `pools` is empty or any MBR is invalid.
    pub fn bulk_load_on(
        pools: Vec<Arc<BufferPool>>,
        config: RTreeConfig,
        items: Vec<(Rect<D>, RecordId)>,
        method: BulkMethod,
        fill: f64,
        build_threads: usize,
    ) -> Result<Self> {
        let p = pools.len();
        assert!(p > 0, "need at least one partition pool");
        let (chunks, manifest) = hilbert_split(items, p);
        let threads = build_threads.clamp(1, p);
        // Each slot holds one partition's build input; workers claim
        // slots through the cursor and leave the built tree (or error)
        // in the matching result slot.
        type BuildSlot<const D: usize> = Mutex<Option<(Arc<BufferPool>, Vec<(Rect<D>, RecordId)>)>>;
        let slots: Vec<BuildSlot<D>> = pools
            .into_iter()
            .zip(chunks)
            .map(|pair| Mutex::new(Some(pair)))
            .collect();
        let results: Vec<Mutex<Option<Result<RTree<D, PagedStore<D>>>>>> =
            (0..p).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= p {
                        break;
                    }
                    let (pool, chunk) = slots[i].lock().take().expect("slot claimed once");
                    *results[i].lock() = Some(RTree::bulk_load(pool, config, chunk, method, fill));
                });
            }
        });
        let mut parts = Vec::with_capacity(p);
        for slot in results {
            parts.push(slot.into_inner().expect("worker filled every slot")?);
        }
        Self::from_parts(parts, manifest)
    }

    /// Bulk-loads a partitioned tree on fresh in-memory pools of
    /// `pool_frames` frames each — the test/bench constructor.
    pub fn bulk_load_in_memory(
        items: Vec<(Rect<D>, RecordId)>,
        partitions: usize,
        config: RTreeConfig,
        method: BulkMethod,
        fill: f64,
        pool_frames: usize,
        build_threads: usize,
    ) -> Result<Self> {
        let pools = (0..partitions)
            .map(|_| {
                Arc::new(BufferPool::new(
                    Box::new(MemDisk::new(PAGE_SIZE)),
                    pool_frames,
                ))
            })
            .collect();
        Self::bulk_load_on(pools, config, items, method, fill, build_threads)
    }

    /// Assembles a partitioned tree from already-built partitions (the
    /// reopen path: partitions opened from their own files plus a decoded
    /// manifest). Validates that the manifest and trees agree.
    pub fn from_parts(
        parts: Vec<RTree<D, PagedStore<D>>>,
        manifest: PartitionManifest<D>,
    ) -> Result<Self> {
        if parts.len() != manifest.parts.len() {
            return Err(RTreeError::Invalid(format!(
                "manifest lists {} partitions but {} trees were supplied",
                manifest.parts.len(),
                parts.len()
            )));
        }
        for (i, (tree, meta)) in parts.iter().zip(&manifest.parts).enumerate() {
            if tree.len() != meta.count {
                return Err(RTreeError::Invalid(format!(
                    "partition {i}: manifest says {} entries, tree has {}",
                    meta.count,
                    tree.len()
                )));
            }
        }
        let bounds = manifest.parts.iter().map(|p| p.mbr).collect();
        Ok(Self {
            parts,
            manifest,
            bounds,
        })
    }

    /// The partition trees, in manifest (key-range) order.
    pub fn partitions(&self) -> &[RTree<D, PagedStore<D>>] {
        &self.parts
    }

    /// The partitions as a forest, bounded by their manifest MBRs.
    pub fn forest(&self) -> Forest<'_, D, RTree<D, PagedStore<D>>> {
        Forest::new(&self.parts, &self.bounds)
    }

    /// Every partition's snapshot, pinned at one composed version
    /// ([`snapshot_all`]).
    pub fn snapshot(&self) -> Vec<Snapshot<'_, D>> {
        snapshot_all(&self.parts)
    }

    /// The global manifest.
    pub fn manifest(&self) -> &PartitionManifest<D> {
        &self.manifest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnq_storage::PageId;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn points(n: usize, seed: u64) -> Vec<(Rect<2>, RecordId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let p = Point::new([rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)]);
                (Rect::from_point(p), RecordId(i as u64))
            })
            .collect()
    }

    /// Collects `(page-relative structure)` of a tree as (level, entries)
    /// in BFS order, for structural comparison.
    fn structure<const D: usize>(
        tree: &RTree<D, PagedStore<D>>,
    ) -> Vec<(u16, Vec<crate::entry::Entry<D>>)> {
        let mut out = Vec::new();
        let Some(root) = tree.access_root() else {
            return out;
        };
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(page) = queue.pop_front() {
            let node = tree.read_node(page).unwrap();
            if !node.is_leaf() {
                for e in node.entries() {
                    queue.push_back(e.child());
                }
            }
            out.push((node.level(), node.entries().to_vec()));
        }
        out
    }

    #[test]
    fn split_balances_counts_and_orders_keys() {
        let items = points(1003, 7);
        let (chunks, manifest) = hilbert_split(items.clone(), 4);
        assert_eq!(chunks.len(), 4);
        let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1003);
        assert!(sizes.iter().all(|&s| s == 250 || s == 251));
        // Key ranges are disjoint and ascending across partitions.
        for w in manifest.parts.windows(2) {
            assert!(w[0].key_hi <= w[1].key_lo);
        }
        // Every item survives exactly once.
        let mut ids: Vec<u64> = chunks.iter().flatten().map(|(_, rid)| rid.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1003).collect::<Vec<_>>());
        assert_eq!(manifest.total_count(), 1003);
        // Manifest MBRs cover their chunks tightly.
        for (chunk, meta) in chunks.iter().zip(&manifest.parts) {
            let mut mbr = Rect::empty();
            for (r, _) in chunk {
                mbr.union_in_place(r);
            }
            assert_eq!(mbr, meta.mbr);
            assert_eq!(meta.count as usize, chunk.len());
        }
    }

    #[test]
    fn split_with_more_partitions_than_items_leaves_empty_tails() {
        let items = points(3, 1);
        let (chunks, manifest) = hilbert_split(items, 8);
        assert_eq!(chunks.len(), 8);
        assert!(chunks[..3].iter().all(|c| c.len() == 1));
        assert!(chunks[3..].iter().all(Vec::is_empty));
        for meta in &manifest.parts[3..] {
            assert_eq!((meta.key_lo, meta.key_hi, meta.count), (0, 0, 0));
            assert!(meta.mbr.is_empty());
        }
    }

    #[test]
    fn manifest_roundtrips_bit_exactly() {
        let (_, manifest) = hilbert_split(points(257, 11), 5);
        let decoded = PartitionManifest::<2>::decode(&manifest.encode()).unwrap();
        assert_eq!(decoded, manifest);
        // Including empty partitions with infinite empty-rect coordinates.
        let (_, manifest) = hilbert_split(points(2, 3), 4);
        let decoded = PartitionManifest::<2>::decode(&manifest.encode()).unwrap();
        assert_eq!(decoded, manifest);
    }

    #[test]
    fn manifest_decode_rejects_garbage() {
        assert!(PartitionManifest::<2>::decode("not a manifest").is_err());
        let (_, manifest) = hilbert_split(points(10, 5), 2);
        let text = manifest.encode();
        // Wrong dimension.
        assert!(PartitionManifest::<3>::decode(&text).is_err());
        // Truncated part list.
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(PartitionManifest::<2>::decode(&truncated).is_err());
    }

    #[test]
    fn single_partition_matches_plain_hilbert_bulk_load() {
        let items = points(2000, 23);
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 4096));
        let single = RTree::<2>::bulk_load(
            pool,
            RTreeConfig::default(),
            items.clone(),
            BulkMethod::Hilbert,
            1.0,
        )
        .unwrap();
        let part = PartitionedTree::bulk_load_in_memory(
            items,
            1,
            RTreeConfig::default(),
            BulkMethod::Hilbert,
            1.0,
            4096,
            1,
        )
        .unwrap();
        assert_eq!(part.partitions().len(), 1);
        assert_eq!(structure(&single), structure(&part.partitions()[0]));
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        let items = points(3000, 31);
        let seq = PartitionedTree::bulk_load_in_memory(
            items.clone(),
            4,
            RTreeConfig::default(),
            BulkMethod::Hilbert,
            1.0,
            4096,
            1,
        )
        .unwrap();
        let par = PartitionedTree::bulk_load_in_memory(
            items,
            4,
            RTreeConfig::default(),
            BulkMethod::Hilbert,
            1.0,
            4096,
            4,
        )
        .unwrap();
        assert_eq!(seq.manifest(), par.manifest());
        for (a, b) in seq.partitions().iter().zip(par.partitions()) {
            assert_eq!(structure(a), structure(b));
            a.validate().unwrap();
        }
        assert_eq!(seq.forest().len(), 3000);
    }

    #[test]
    fn from_parts_validates_counts() {
        let items = points(100, 41);
        let (chunks, manifest) = hilbert_split(items, 2);
        let mut trees = Vec::new();
        for chunk in chunks {
            let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1024));
            trees.push(
                RTree::<2>::bulk_load(
                    pool,
                    RTreeConfig::default(),
                    chunk,
                    BulkMethod::Hilbert,
                    1.0,
                )
                .unwrap(),
            );
        }
        // Mismatched lengths rejected.
        let one = trees.pop().unwrap();
        assert!(PartitionedTree::from_parts(vec![one], manifest.clone()).is_err());
        // Mismatched counts rejected.
        let mut bad = manifest.clone();
        bad.parts.truncate(1);
        bad.parts[0].count += 1;
        assert!(PartitionedTree::from_parts(trees, bad).is_err());
    }

    #[test]
    fn empty_dataset_builds_empty_partitions() {
        let part = PartitionedTree::<2>::bulk_load_in_memory(
            Vec::new(),
            4,
            RTreeConfig::default(),
            BulkMethod::Hilbert,
            1.0,
            64,
            2,
        )
        .unwrap();
        assert!(part.forest().is_empty());
        assert_eq!(part.partitions().len(), 4);
        for tree in part.partitions() {
            assert_eq!(tree.root(), PageId::INVALID);
        }
    }

    #[test]
    fn cache_budget_rebalance_spends_total_and_favors_missers() {
        let part = PartitionedTree::bulk_load_in_memory(
            points(2000, 31),
            4,
            RTreeConfig::default(),
            BulkMethod::Hilbert,
            1.0,
            4096,
            1,
        )
        .unwrap();

        // No reads yet: even split, budget fully spent.
        let caps = rebalance_cache_budget(part.partitions(), 1000, 64);
        assert_eq!(caps.len(), 4);
        assert_eq!(caps.iter().sum::<usize>(), 1000);
        assert!(caps.iter().all(|&c| c == 250));
        for (tree, &cap) in part.partitions().iter().zip(&caps) {
            assert_eq!(tree.store().cache_stats().capacity, cap);
        }

        // Heat up partition 0 (warm: all hits after first pass) and leave
        // partition 3 cold-missing by clearing its frames between reads.
        part.forest().reset_stats();
        let p0 = &part.partitions()[0];
        let r0 = p0.access_root().unwrap();
        for _ in 0..64 {
            p0.read_node(r0).unwrap();
        }
        let p3 = &part.partitions()[3];
        let r3 = p3.access_root().unwrap();
        for _ in 0..64 {
            p3.pool().clear_cache().unwrap();
            p3.read_node(r3).unwrap();
        }
        let caps = rebalance_cache_budget(part.partitions(), 1000, 64);
        assert_eq!(caps.iter().sum::<usize>(), 1000);
        assert!(caps.iter().all(|&c| c >= 64), "floor violated: {caps:?}");
        assert!(
            caps[3] > caps[0],
            "worst misser must get the biggest share: {caps:?}"
        );

        // Per-partition signals expose the same counters the budget used.
        let signals: Vec<_> = part
            .partitions()
            .iter()
            .map(|t| t.backend_signals())
            .collect();
        assert_eq!(signals.len(), 4);
        assert!(signals[3].physical_reads > signals[0].physical_reads);
        assert_eq!(signals[3].cache_capacity, caps[3]);

        // One tree gets the whole budget, whatever it missed.
        assert_eq!(
            rebalance_cache_budget(&part.partitions()[3..], 700, 64),
            [700]
        );
    }

    #[test]
    fn a_forest_snapshot_pins_one_composed_version() {
        let part = PartitionedTree::bulk_load_in_memory(
            points(400, 43),
            4,
            RTreeConfig::default(),
            BulkMethod::Hilbert,
            1.0,
            256,
            1,
        )
        .unwrap();
        let before = part.snapshot();
        let composed = |snaps: &[Snapshot<'_, 2>]| snaps.iter().map(Snapshot::version).sum::<u64>();
        assert_eq!(
            composed(&before),
            part.partitions().iter().map(RTree::version).sum()
        );
        let p = Point::new([1.0, 1.0]);
        part.partitions()[2]
            .insert(&Rect::from_point(p), RecordId(9_999))
            .unwrap();
        let after = part.snapshot();
        assert_eq!(composed(&after), composed(&before) + 1);
        assert_eq!(before[2].len() + 1, after[2].len());
        assert_eq!(
            part.forest().bounds(),
            part.manifest()
                .parts
                .iter()
                .map(|m| m.mbr)
                .collect::<Vec<_>>()
        );

        // A forest of one is bounded by the whole space: MINDIST 0 from
        // anywhere, and it contains whatever is written later.
        let one = Forest::<2, _>::of_one(&part.partitions()[0]);
        assert_eq!(one.trees().len(), 1);
        let bound = one.bounds()[0];
        assert_eq!(bound, whole_space());
        for q in [[0.0, 0.0], [-1e300, 7.0], [f64::MAX, f64::MIN]] {
            assert_eq!(nnq_geom::mindist_sq(&Point::new(q), &bound), 0.0);
        }
    }
}
