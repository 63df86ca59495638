//! The Hilbert-range partitioned multi-tree.
//!
//! Every query path in `nnq-core` runs on a slice of trees. Each tree
//! carries its own bound: its committed meta holds its root's MBR
//! ([`TreeAccess::bounds`](crate::TreeAccess::bounds)), which contains
//! everything the tree holds whatever is written to it. The scatter-gather
//! search orders and prunes the trees by MINDIST to those bounds. An
//! unpartitioned tree is a slice of one; a [`PartitionedTree`] is the
//! slice of its partitions.
//!
//! A [`PartitionedTree`] splits a dataset into `P` independent R-trees by
//! Hilbert key range: every item is keyed by [`nnq_geom::hilbert_key`]
//! over the *dataset* bounds, the keyed items are sorted, and the sorted
//! sequence is cut into `P` equal-count chunks. Because consecutive
//! Hilbert keys are spatially adjacent, each chunk — and therefore each
//! partition's tree — covers a compact region of space, which is what
//! makes pruning by partition bound effective (see the scatter-gather
//! search in `nnq-core`). The split only places the loaded data: a later
//! write may go to any partition, wherever its point lies, and that
//! partition's bound grows to hold it.
//!
//! Each partition is a complete, self-contained [`RTree`] on its **own**
//! [`BufferPool`] (own frame budget, whose frames hold their decoded
//! nodes, own prefetcher). Each tree's committed meta is the truth about
//! its entries and its bound, whatever has been written to it since the
//! build; how the partitions are laid out in files is the caller's
//! business.
//!
//! This is the in-process rehearsal of a scale-out deployment: each
//! partition could live on its own machine.

use crate::bulk::BulkMethod;
use crate::config::RTreeConfig;
use crate::entry::RecordId;
use crate::store::{NodeStore, PagedStore};
use crate::tree::{RTree, Snapshot};
use crate::Result;
use nnq_geom::{hilbert_key, Rect};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use std::sync::Arc;

/// Splits `items` into `partitions` equal-count chunks by Hilbert key
/// range.
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
pub(crate) fn hilbert_split<const D: usize>(
    items: Vec<(Rect<D>, RecordId)>,
    partitions: usize,
) -> Vec<Vec<(Rect<D>, RecordId)>> {
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

    let (base, extra) = (keyed.len() / partitions, keyed.len() % partitions);
    let mut it = keyed.into_iter().map(|(_, item)| item);
    (0..partitions)
        .map(|i| it.by_ref().take(base + usize::from(i < extra)).collect())
        .collect()
}

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

/// A dataset split into `P` independent R-trees by Hilbert key range.
///
/// See the module docs for the construction. Queries go through the
/// scatter-gather search in `nnq-core` (`scatter_knn` / `scatter_radius`)
/// over its [`partitions`](PartitionedTree::partitions), which orders and
/// prunes them by MINDIST to their bounds.
pub struct PartitionedTree<const D: usize> {
    parts: Vec<RTree<D, PagedStore<D>>>,
}

impl<const D: usize> PartitionedTree<D> {
    /// Bulk-loads a partitioned tree, one partition per pool in `pools`,
    /// using up to `build_threads` threads to build partitions in
    /// parallel (the result is independent of the thread count because
    /// each partition's build is self-contained on its own pool).
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
        let threads = build_threads.clamp(1, p);
        // Worker `t` builds partitions `i ≡ t (mod threads)`, in order. The
        // chunks are equal-count, so the workers are as evenly loaded as
        // a shared cursor would leave them.
        let mut jobs: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, job) in pools.into_iter().zip(hilbert_split(items, p)).enumerate() {
            jobs[i % threads].push(job);
        }
        let built: Vec<Vec<Result<RTree<D, PagedStore<D>>>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = jobs
                .into_iter()
                .map(|jobs| {
                    scope.spawn(move || {
                        jobs.into_iter()
                            .map(|(pool, chunk)| {
                                RTree::bulk_load(pool, config, chunk, method, fill)
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| {
                    w.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        // A fresh vector, not a worker's buffer reused in place by
        // `collect`: keeping that allocation alive raised the peak RSS of
        // the 1M-point `batch_cold` set-up by 38 MiB.
        let mut built: Vec<_> = built.into_iter().map(Vec::into_iter).collect();
        let mut parts = Vec::with_capacity(p);
        for i in 0..p {
            parts.push(built[i % threads].next().expect("one tree per partition")?);
        }
        Ok(Self { parts })
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

    /// The partition trees, in key-range order.
    pub fn partitions(&self) -> &[RTree<D, PagedStore<D>>] {
        &self.parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeAccess;
    use nnq_geom::Point;
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

    fn build(items: Vec<(Rect<2>, RecordId)>, partitions: usize) -> PartitionedTree<2> {
        let (config, method) = (RTreeConfig::default(), BulkMethod::Hilbert);
        PartitionedTree::bulk_load_in_memory(items, partitions, config, method, 1.0, 4096, 1)
            .unwrap()
    }

    fn mbr_of(chunk: &[(Rect<2>, RecordId)]) -> Rect<2> {
        let mut mbr = Rect::empty();
        for (r, _) in chunk {
            mbr.union_in_place(r);
        }
        mbr
    }

    #[test]
    fn split_balances_counts_and_orders_keys() {
        let items = points(1003, 7);
        let chunks = hilbert_split(items.clone(), 4);
        assert_eq!(chunks.len(), 4);
        let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1003);
        assert!(sizes.iter().all(|&s| s == 250 || s == 251));
        // Key ranges are disjoint and ascending across partitions.
        let bounds = mbr_of(&items);
        let key_range = |chunk: &[(Rect<2>, RecordId)]| {
            let keys = chunk.iter().map(|(r, _)| hilbert_key(&r.center(), &bounds));
            (keys.clone().min().unwrap(), keys.max().unwrap())
        };
        for w in chunks.windows(2) {
            assert!(key_range(&w[0]).1 <= key_range(&w[1]).0);
        }
        // Every item survives exactly once.
        let mut ids: Vec<u64> = chunks.iter().flatten().map(|(_, rid)| rid.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1003).collect::<Vec<_>>());
        // Each partition bounds itself by exactly its chunk's MBR and holds
        // its entries.
        let tree = build(items, 4);
        for (chunk, part) in chunks.iter().zip(tree.partitions()) {
            assert_eq!(part.bounds(), mbr_of(chunk));
            assert_eq!(part.len() as usize, chunk.len());
        }
    }

    #[test]
    fn split_with_more_partitions_than_items_leaves_empty_tails() {
        let items = points(3, 1);
        let chunks = hilbert_split(items.clone(), 8);
        assert_eq!(chunks.len(), 8);
        assert!(chunks[..3].iter().all(|c| c.len() == 1));
        assert!(chunks[3..].iter().all(Vec::is_empty));
        let tree = build(items, 8);
        for part in &tree.partitions()[3..] {
            assert_eq!(part.len(), 0);
            assert!(part.bounds().is_empty());
        }
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
        assert_eq!(seq.partitions().len(), par.partitions().len());
        for (a, b) in seq.partitions().iter().zip(par.partitions()) {
            assert_eq!(structure(a), structure(b));
            a.validate().unwrap();
        }
        assert_eq!(par.partitions().iter().map(RTree::len).sum::<u64>(), 3000);
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
        assert_eq!(part.partitions().len(), 4);
        for tree in part.partitions() {
            assert_eq!(tree.len(), 0);
            assert_eq!(tree.root(), PageId::INVALID);
        }
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
        let before = snapshot_all(part.partitions());
        let composed = |snaps: &[Snapshot<'_, 2>]| snaps.iter().map(Snapshot::version).sum::<u64>();
        assert_eq!(
            composed(&before),
            part.partitions().iter().map(RTree::version).sum()
        );
        let p = Point::new([1.0, 1.0]);
        part.partitions()[2]
            .insert(&Rect::from_point(p), RecordId(9_999))
            .unwrap();
        let after = snapshot_all(part.partitions());
        assert_eq!(composed(&after), composed(&before) + 1);
        assert_eq!(before[2].len() + 1, after[2].len());
        // Each snapshot's bound is its own version's: only the later one
        // holds the new point, as the tree itself now does.
        assert!(!before[2].bounds().contains_point(&p));
        assert!(after[2].bounds().contains_point(&p));
        assert_eq!(after[2].bounds(), part.partitions()[2].bounds());
        let roots = |snaps: &[Snapshot<'_, 2>]| -> Vec<Rect<2>> {
            let nodes = snaps.iter().map(|s| s.access_node(s.root()).unwrap());
            nodes.map(|node| node.mbr()).collect()
        };
        let bounds = |snaps: &[Snapshot<'_, 2>]| -> Vec<Rect<2>> {
            snaps.iter().map(TreeAccess::bounds).collect()
        };
        assert_eq!(bounds(&before), roots(&before));
        assert_eq!(bounds(&after), roots(&after));
    }
}
