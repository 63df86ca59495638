//! Interleaved batch traversals (DESIGN.md §"Batch executor"): where the
//! backend reads pages in the background and the batch's prefetch policy is
//! `Adaptive`, a worker keeps several kNN traversals in flight and switches
//! at the page that is not loaded, hinting that page; a query run outside a
//! batch hints nothing. None of that may show in the output — hits,
//! per-query `SearchStats` and summed `logical_reads` equal a sequential
//! loop's — the prefetch counters must still balance, a suspended query must
//! hold nothing in the pool, and a failed read, background or the worker's
//! own, must end the batch cleanly and leave the tree serving. The same
//! holds for the partitioned engine, whose kNN items are whole
//! scatter-gather queries (DESIGN.md §"Partitioned trees"): there the
//! reference is a loop of `scatter_knn` / `scatter_radius` calls,
//! per-query `PartitionedStats` included, and at P = 1 the single tree. A
//! single tree runs on the same executor, as a forest of one.

use nnq_core::{
    forest_batch, forest_batch_dedup, scatter_knn, scatter_radius, within_radius, BatchQuery,
    BatchStats, IncrementalNn, JoinOrder, MbrRefiner, Neighbor, NnOptions, NnSearch,
    PartitionedStats, PrefetchPolicy, Refiner, SearchStats,
};
use nnq_geom::Point;
use nnq_rtree::{BulkMethod, PartitionedTree, RTree, RTreeConfig, TreeAccess};
use nnq_storage::{
    BufferPool, DiskManager, FaultDisk, LatencyDisk, LatencyProfile, MemDisk, PageId, PoolStats,
    PrefetchStats, PAGE_SIZE,
};
use nnq_workloads::{default_bounds, points_to_items, uniform_points, uniform_queries};
use std::sync::Arc;

const N_POINTS: usize = 20_000;
const K: usize = 6;

type Answer = (Vec<Neighbor<2>>, SearchStats);

/// Bulk-loads the test tree onto `disk` through a throwaway pool; returns
/// its meta page and its size in pages.
fn build<T: DiskManager + 'static>(disk: &Arc<T>) -> (PageId, usize) {
    let pool = Arc::new(BufferPool::new(Box::new(Arc::clone(disk)), 1 << 12));
    let items = points_to_items(&uniform_points(N_POINTS, &default_bounds(), 81));
    let tree = RTree::<2>::bulk_load(
        Arc::clone(&pool),
        RTreeConfig::default(),
        items,
        BulkMethod::Hilbert,
        1.0,
    )
    .unwrap();
    pool.flush_all().unwrap();
    (tree.meta_page(), pool.live_pages() as usize)
}

/// Opens the tree on a cold one-shard pool of `frames` with
/// `prefetch_workers` background readers (none when 0).
fn open<T: DiskManager + 'static>(
    disk: &Arc<T>,
    meta: PageId,
    frames: usize,
    prefetch_workers: usize,
) -> RTree<2> {
    let mut pool = BufferPool::new(Box::new(Arc::clone(disk)), frames);
    pool.start_prefetch(prefetch_workers, 64);
    let tree = RTree::<2>::open(Arc::new(pool), meta).unwrap();
    tree.pool().clear_cache().unwrap();
    tree.pool().reset_stats();
    tree
}

fn mixed(queries: &[Point<2>]) -> Vec<BatchQuery<2>> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if i % 4 == 3 {
                BatchQuery::Radius {
                    q: *q,
                    radius: 600.0 + 300.0 * (i % 5) as f64,
                }
            } else {
                BatchQuery::Knn {
                    q: *q,
                    k: 1 + i % 7,
                }
            }
        })
        .collect()
}

/// The sequential loop every batch must equal: one query after the other,
/// no prefetch, on `tree`. Returns the answers and the pool's
/// `logical_reads` for the pass.
fn sequential<T: TreeAccess<2>>(
    tree: &T,
    pool: &BufferPool,
    reqs: &[BatchQuery<2>],
) -> (Vec<Answer>, u64) {
    let before = pool.stats().logical_reads;
    let search = NnSearch::new(tree);
    let answers = reqs
        .iter()
        .map(|req| match *req {
            BatchQuery::Knn { q, k } => search.query_refined(&q, k, &MbrRefiner).unwrap(),
            BatchQuery::Radius { q, radius } => {
                within_radius(tree, &q, radius, &MbrRefiner).unwrap()
            }
        })
        .collect();
    (answers, pool.stats().logical_reads - before)
}

fn knn_requests(queries: &[Point<2>]) -> Vec<BatchQuery<2>> {
    queries
        .iter()
        .map(|q| BatchQuery::Knn { q: *q, k: K })
        .collect()
}

/// A batch of `reqs` over `tree` as a forest of one: the answers with
/// their search counters, and the run's stats.
fn batch_on<T: TreeAccess<2> + Sync, R: Refiner<2> + Sync>(
    tree: &T,
    reqs: &[BatchQuery<2>],
    opts: NnOptions,
    refiner: &R,
    threads: usize,
    order: JoinOrder,
) -> nnq_core::Result<(Vec<Answer>, BatchStats)> {
    let trees = std::slice::from_ref(tree);
    let (answers, bstats) = forest_batch(trees, reqs, opts, refiner, threads, order, None)?;
    let answers = answers.into_iter().map(|(hits, s)| (hits, s.search));
    Ok((answers.collect(), bstats))
}

fn assert_same_hits(got: &[Neighbor<2>], want: &[Neighbor<2>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (x, y) in got.iter().zip(want) {
        assert_eq!(x.record, y.record, "{what}");
        assert_eq!(x.dist_sq.to_bits(), y.dist_sq.to_bits(), "{what}");
    }
}

fn assert_same_answers(got: &[Answer], want: &[Answer], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.1, w.1, "{what}: stats of request {i}");
        assert_same_hits(&g.0, &w.0, &format!("{what}: request {i}"));
    }
}

/// Settles the pipeline and checks every issued hint was classified once.
fn balanced(pool: &BufferPool, what: &str) -> PrefetchStats {
    pool.prefetch_quiesce();
    pool.clear_cache()
        .unwrap_or_else(|e| panic!("{what}: a pin outlived the batch: {e}"));
    let pf = pool.prefetch_stats();
    assert_eq!(
        pf.useful + pf.wasted + pf.dropped,
        pf.issued,
        "{what}: {pf:?}"
    );
    pf
}

// -- (a) identity ------------------------------------------------------------

#[test]
fn batches_equal_the_sequential_loop_whatever_interleaves() {
    let disk = Arc::new(LatencyDisk::new(
        MemDisk::new(PAGE_SIZE),
        LatencyProfile::symmetric_us(0),
    ));
    let (meta, pages) = build(&disk);
    // Slow enough to sleep in (not spin), so loads are genuinely in flight
    // while the workers go on.
    disk.set_latency(LatencyProfile::symmetric_us(25));
    let frames = pages / 8;
    assert!(frames >= 16, "tree of {pages} pages is too small to thrash");

    let queries = uniform_queries(160, &default_bounds(), 82);
    let knn = knn_requests(&queries);
    let mixed = mixed(&queries);
    let reference = open(&disk, meta, frames, 0);
    let (want_knn, knn_pages) = sequential(&reference, reference.pool(), &knn);
    let (want_mixed, mixed_pages) = sequential(&reference, reference.pool(), &mixed);
    assert!(knn_pages > 0 && mixed_pages > 0);
    drop(reference);

    // The sequential API issues no hint, even with background readers
    // there to take one.
    let tree = open(&disk, meta, frames, 2);
    let search = NnSearch::with_options(&tree, NnOptions::with_prefetch(PrefetchPolicy::Adaptive));
    for (q, want) in queries.iter().zip(&want_knn) {
        assert_same_hits(&search.query(q, K).unwrap(), &want.0, "sequential");
    }
    assert_eq!(tree.pool().stats().logical_reads, knn_pages);
    let pf = balanced(tree.pool(), "sequential");
    assert_eq!(pf.issued, 0, "{pf:?}");
    drop(tree);

    for workers in [0, 2] {
        for policy in [PrefetchPolicy::Off, PrefetchPolicy::Adaptive] {
            for threads in [1, 2, 4] {
                for order in [JoinOrder::AsGiven, JoinOrder::Hilbert] {
                    let what =
                        format!("workers={workers} policy={policy} threads={threads} {order:?}");
                    let interleaves = workers > 0 && policy != PrefetchPolicy::Off;
                    let opts = NnOptions::with_prefetch(policy);

                    let tree = open(&disk, meta, frames, workers);
                    let (got, bstats) =
                        batch_on(&tree, &knn, opts, &MbrRefiner, threads, order).unwrap();
                    for (i, (g, w)) in got.iter().zip(&want_knn).enumerate() {
                        assert_same_hits(&g.0, &w.0, &format!("{what}: kNN query {i}"));
                    }
                    assert_eq!(
                        bstats.per_worker_queries.iter().sum::<usize>(),
                        queries.len()
                    );
                    assert_eq!(
                        tree.pool().stats().logical_reads,
                        knn_pages,
                        "{what}: kNN pages"
                    );
                    let pf = balanced(tree.pool(), &what);
                    if interleaves {
                        // The batch really interleaved: pages arrived through
                        // certain hints.
                        assert_eq!(bstats.block, 1, "{what}");
                        assert!(pf.useful > 0, "{what}: {pf:?}");
                    } else {
                        // Policy off, or nobody to hint to.
                        assert_eq!(pf.issued, 0, "{what}: {pf:?}");
                    }
                    drop(tree);

                    let tree = open(&disk, meta, frames, workers);
                    let (got, _) =
                        batch_on(&tree, &mixed, opts, &MbrRefiner, threads, order).unwrap();
                    assert_same_answers(&got, &want_mixed, &what);
                    assert_eq!(
                        tree.pool().stats().logical_reads,
                        mixed_pages,
                        "{what}: mixed pages"
                    );
                    let pf = balanced(tree.pool(), &what);
                    if interleaves {
                        assert!(pf.useful > 0, "{what}: {pf:?}");
                    } else {
                        assert_eq!(pf.issued, 0, "{what}: {pf:?}");
                    }
                }
            }
        }
    }

    // A warm pool with background readers: the batch interleaves (the rule
    // asks for readers, not misses), never finds a page absent, and
    // answers as the reference does.
    let tree = open(&disk, meta, pages, 2);
    sequential(&tree, tree.pool(), &knn);
    tree.pool().reset_stats();
    let opts = NnOptions::with_prefetch(PrefetchPolicy::Adaptive);
    let (got, bstats) = batch_on(&tree, &knn, opts, &MbrRefiner, 2, JoinOrder::AsGiven).unwrap();
    assert_eq!(bstats.block, 1, "warm: interleaved");
    for (i, (g, w)) in got.iter().zip(&want_knn).enumerate() {
        assert_same_hits(&g.0, &w.0, &format!("warm: kNN query {i}"));
    }
    let pool = tree.pool().stats();
    assert_eq!(pool.logical_reads, knn_pages, "warm: kNN pages");
    assert_eq!(pool.physical_reads, 0, "warm: {pool:?}");
    let pf = balanced(tree.pool(), "warm");
    assert_eq!(pf.issued, 0, "warm: {pf:?}");
}

// -- (a') identity, partitioned ------------------------------------------------

/// A partitioned tree's device side: one disk and meta page per partition,
/// so every run can open it on fresh, cold pools.
struct Parted<T: DiskManager> {
    disks: Vec<Arc<T>>,
    metas: Vec<PageId>,
    /// Pages of the largest partition.
    pages: usize,
}

/// Hilbert-range partitions of the test dataset, one per disk.
fn build_parted<T: DiskManager + 'static>(disks: Vec<Arc<T>>) -> Parted<T> {
    let pools = disks
        .iter()
        .map(|disk| Arc::new(BufferPool::new(Box::new(Arc::clone(disk)), 1 << 12)))
        .collect();
    let items = points_to_items(&uniform_points(N_POINTS, &default_bounds(), 81));
    let tree = PartitionedTree::bulk_load_on(
        pools,
        RTreeConfig::default(),
        items,
        BulkMethod::Hilbert,
        1.0,
        1,
    )
    .unwrap();
    for part in tree.partitions() {
        part.pool().flush_all().unwrap();
    }
    Parted {
        metas: tree.partitions().iter().map(RTree::meta_page).collect(),
        pages: tree
            .partitions()
            .iter()
            .map(|part| part.pool().live_pages() as usize)
            .max()
            .unwrap(),
        disks,
    }
}

impl<T: DiskManager + 'static> Parted<T> {
    /// Opens every partition cold ([`open`]) on `frames` frames and
    /// `workers(i)` background readers.
    fn open(&self, frames: usize, workers: impl Fn(usize) -> usize) -> Vec<RTree<2>> {
        (0..self.disks.len())
            .map(|i| open(&self.disks[i], self.metas[i], frames, workers(i)))
            .collect()
    }
}

/// Buffer-pool statistics summed over the trees' pools.
fn pool_stats(trees: &[RTree<2>]) -> PoolStats {
    let mut total = PoolStats::default();
    for tree in trees {
        total.accumulate(tree.pool().stats());
    }
    total
}

/// A partitioned answer: hits and the query's own counters.
type PartAnswer = (Vec<Neighbor<2>>, PartitionedStats);

/// The sequential loop a partitioned batch must equal: one scatter-gather
/// query after the other, no prefetch, one thread. Returns the answers and
/// the summed `logical_reads` of the pass.
fn sequential_parted(tree: &[RTree<2>], reqs: &[BatchQuery<2>]) -> (Vec<PartAnswer>, u64) {
    let before = pool_stats(tree).logical_reads;
    let opts = NnOptions::default();
    let answers = reqs
        .iter()
        .map(|req| match *req {
            BatchQuery::Knn { q, k } => scatter_knn(tree, &q, k, opts, &MbrRefiner, 1),
            BatchQuery::Radius { q, radius } => {
                scatter_radius(tree, &q, radius, opts, &MbrRefiner, 1)
            }
        })
        .collect::<nnq_core::Result<_>>()
        .unwrap();
    (answers, pool_stats(tree).logical_reads - before)
}

/// Settles every partition's pipeline: counters balanced, nothing pinned.
fn balanced_parted(tree: &[RTree<2>], what: &str) -> PrefetchStats {
    for part in tree {
        part.pool().prefetch_quiesce();
    }
    for part in tree {
        part.pool()
            .clear_cache()
            .unwrap_or_else(|e| panic!("{what}: a pin outlived the batch: {e}"));
        part.store().clear_node_cache();
    }
    let mut sum = PrefetchStats::default();
    for (i, part) in tree.iter().enumerate() {
        let pf = balanced(part.pool(), &format!("{what}, partition {i}"));
        sum.issued += pf.issued;
        sum.useful += pf.useful;
    }
    sum
}

#[test]
fn partitioned_batches_equal_the_sequential_loop_whatever_interleaves() {
    let queries = uniform_queries(96, &default_bounds(), 85);
    let knn = knn_requests(&queries);
    let mixed = mixed(&queries);
    for p in [1, 4] {
        let disks = (0..p)
            .map(|_| {
                Arc::new(LatencyDisk::new(
                    MemDisk::new(PAGE_SIZE),
                    LatencyProfile::symmetric_us(0),
                ))
            })
            .collect();
        let parted = build_parted(disks);
        for disk in &parted.disks {
            disk.set_latency(LatencyProfile::symmetric_us(25));
        }
        // An eighth of a partition, as on `batch_cold`; at least a frame
        // for every thread and background reader that may pin one at once.
        let frames = (parted.pages / 8).max(8);

        let reference = parted.open(frames, |_| 0);
        let (want_knn, knn_pages) = sequential_parted(&reference, &knn);
        let (want_mixed, mixed_pages) = sequential_parted(&reference, &mixed);
        assert!(knn_pages > 0 && mixed_pages > 0);
        if p == 1 {
            // One partition is the single tree: same answers, same counters.
            let single = &reference[0];
            let (want_single, _) = sequential(single, single.pool(), &mixed);
            let search: Vec<Answer> = want_mixed
                .iter()
                .map(|(hits, stats)| (hits.clone(), stats.search))
                .collect();
            assert_same_answers(&search, &want_single, "P=1 vs the single tree");
        }
        drop(reference);

        for workers in [0, 1] {
            for policy in [PrefetchPolicy::Off, PrefetchPolicy::Adaptive] {
                for threads in [1, 2, 4] {
                    let what = format!("P={p} workers={workers} policy={policy} threads={threads}");
                    let interleaves = workers > 0 && policy != PrefetchPolicy::Off;
                    let opts = NnOptions::with_prefetch(policy);

                    // (the claim block only matters when not interleaving)
                    let block = [None, Some(1), Some(7)][threads % 3];
                    let tree = parted.open(frames, |_| workers);
                    let (got, bstats) = forest_batch(
                        &tree,
                        &knn,
                        opts,
                        &MbrRefiner,
                        threads,
                        JoinOrder::AsGiven,
                        block,
                    )
                    .unwrap();
                    assert_eq!(got.len(), want_knn.len());
                    for (i, (g, w)) in got.iter().zip(&want_knn).enumerate() {
                        assert_eq!(g.1, w.1, "{what}: stats of kNN query {i}");
                        assert_same_hits(&g.0, &w.0, &format!("{what}: kNN query {i}"));
                    }
                    assert_eq!(pool_stats(&tree).logical_reads, knn_pages, "{what}");
                    let pf = balanced_parted(&tree, &what);
                    if interleaves {
                        assert_eq!(bstats.block, 1, "{what}");
                        assert!(pf.useful > 0, "{what}: {pf:?}");
                    } else {
                        assert_eq!(pf.issued, 0, "{what}: {pf:?}");
                    }
                    drop(tree);

                    let tree = parted.open(frames, |_| workers);
                    let (got, _) = forest_batch_dedup(
                        &tree,
                        &mixed,
                        opts,
                        &MbrRefiner,
                        threads,
                        JoinOrder::Hilbert,
                        None,
                    )
                    .unwrap();
                    for (i, (g, w)) in got.iter().zip(&want_mixed).enumerate() {
                        assert_eq!(g.1, w.1, "{what}: stats of request {i}");
                        assert_same_hits(&g.0, &w.0, &format!("{what}: request {i}"));
                    }
                    assert_eq!(pool_stats(&tree).logical_reads, mixed_pages, "{what}");
                    let pf = balanced_parted(&tree, &what);
                    if interleaves {
                        assert!(pf.useful > 0, "{what}: {pf:?}");
                    } else {
                        assert_eq!(pf.issued, 0, "{what}: {pf:?}");
                    }
                }
            }
        }
    }
}

// -- (a'') a query outside a batch hints nothing ------------------------------

#[test]
fn adaptive_queries_outside_a_batch_issue_no_hints() {
    // Cold pools with running background readers, a slow device, the
    // `Adaptive` policy: a query run on its own — a sequential kNN, a
    // distance-browsing walk, one scatter-gather query over four trees —
    // has no other query to run while a page loads, so it hints none.
    let disk = Arc::new(LatencyDisk::new(
        MemDisk::new(PAGE_SIZE),
        LatencyProfile::symmetric_us(0),
    ));
    let (meta, pages) = build(&disk);
    disk.set_latency(LatencyProfile::symmetric_us(25));
    let frames = pages / 8;
    let opts = NnOptions::with_prefetch(PrefetchPolicy::Adaptive);
    let queries = uniform_queries(24, &default_bounds(), 87);

    let tree = open(&disk, meta, frames, 2);
    let search = NnSearch::with_options(&tree, opts);
    for q in &queries {
        assert_eq!(search.query(q, K).unwrap().len(), K);
    }
    assert!(tree.pool().stats().physical_reads > 0);
    let pf = balanced(tree.pool(), "sequential kNN");
    assert_eq!(pf.issued, 0, "sequential kNN: {pf:?}");
    drop(tree);

    let tree = open(&disk, meta, frames, 2);
    for q in &queries {
        let walk = IncrementalNn::new(&tree, *q, opts, MbrRefiner);
        let hits = walk.take(3 * K).collect::<nnq_core::Result<Vec<_>>>();
        assert_eq!(hits.unwrap().len(), 3 * K);
    }
    assert!(tree.pool().stats().physical_reads > 0);
    let pf = balanced(tree.pool(), "incremental walk");
    assert_eq!(pf.issued, 0, "incremental walk: {pf:?}");
    drop(tree);

    let disks = (0..4)
        .map(|_| {
            Arc::new(LatencyDisk::new(
                MemDisk::new(PAGE_SIZE),
                LatencyProfile::symmetric_us(0),
            ))
        })
        .collect();
    let parted = build_parted(disks);
    for disk in &parted.disks {
        disk.set_latency(LatencyProfile::symmetric_us(25));
    }
    let tree = parted.open((parted.pages / 8).max(8), |_| 1);
    for q in &queries {
        let (hits, _) = scatter_knn(&tree, q, K, opts, &MbrRefiner, 2).unwrap();
        assert_eq!(hits.len(), K);
    }
    assert!(pool_stats(&tree).physical_reads > 0);
    let pf = balanced_parted(&tree, "scatter_knn");
    assert_eq!(pf.issued, 0, "scatter_knn: {pf:?}");
}

// -- (b) progress under thrash -----------------------------------------------

#[test]
fn a_pool_of_four_frames_still_finishes_with_the_same_answers() {
    // Two workers with eight queries in flight each, two background
    // readers, four frames: most hinted pages are evicted again before
    // their query comes back for them. The query just misses again.
    let disk = Arc::new(MemDisk::new(PAGE_SIZE));
    let (meta, _) = build(&disk);
    let queries = uniform_queries(96, &default_bounds(), 83);
    let mixed = mixed(&queries);
    let reference = open(&disk, meta, 64, 0);
    let (want, pages) = sequential(&reference, reference.pool(), &mixed);
    drop(reference);

    for order in [JoinOrder::AsGiven, JoinOrder::Hilbert] {
        let tree = open(&disk, meta, 4, 2);
        let opts = NnOptions::with_prefetch(PrefetchPolicy::Adaptive);
        let (got, _) = batch_on(&tree, &mixed, opts, &MbrRefiner, 2, order).unwrap();
        assert_same_answers(&got, &want, "four frames");
        assert_eq!(tree.pool().stats().logical_reads, pages);
        balanced(tree.pool(), "four frames");
    }
}

// -- (d, first half) a fault on the blocking path ------------------------------

#[test]
fn a_failed_blocking_read_fails_the_batch_and_the_tree_keeps_serving() {
    // No background readers: every read is a worker's own.
    let disk = Arc::new(FaultDisk::new(MemDisk::new(PAGE_SIZE)));
    let (meta, _) = build(&disk);
    let queries = uniform_queries(48, &default_bounds(), 84);
    let knn = knn_requests(&queries);
    let tree = open(&disk, meta, 32, 0);
    let (want, _) = sequential(&tree, tree.pool(), &knn);
    tree.pool().clear_cache().unwrap();

    let opts = NnOptions::with_prefetch(PrefetchPolicy::Adaptive);
    for threads in [1, 2] {
        disk.fail_read(5);
        let err = batch_on(&tree, &knn, opts, &MbrRefiner, threads, JoinOrder::AsGiven)
            .expect_err("the fifth device read fails");
        // (or, from a worker that was waiting for the same page, the
        // failure of the load it waited on)
        let err = err.to_string();
        assert!(
            err.contains("injected fault") || err.contains("concurrent load"),
            "{err}"
        );
        balanced(tree.pool(), "after the failed batch");
        let (got, _) =
            batch_on(&tree, &knn, opts, &MbrRefiner, threads, JoinOrder::AsGiven).unwrap();
        assert_same_answers(&got, &want, "the batch after the failed one");
        tree.pool().clear_cache().unwrap();
    }
}

#[test]
fn a_failed_demand_read_in_one_partition_fails_the_batch_and_the_tree_keeps_serving() {
    // Partition 0 reads through a failing device and has no background
    // reader, the others have one each: the batch interleaves, and
    // partition 0's pages load on demand, by the workers.
    let faults: Vec<Arc<FaultDisk<MemDisk>>> = (0..4)
        .map(|_| Arc::new(FaultDisk::new(MemDisk::new(PAGE_SIZE))))
        .collect();
    let parted = build_parted(
        faults
            .iter()
            .map(|f| gated::GateDisk::new(Arc::clone(f)))
            .collect(),
    );
    let queries = uniform_queries(64, &default_bounds(), 86);
    let tree = parted.open(32, |i| usize::from(i > 0));
    // A partition with a background reader that the batch reads: some
    // query's nearest, which its first round visits.
    let nearest = |q: &Point<2>| {
        (0..4)
            .min_by(|&x, &y| {
                let d = |i: usize| nnq_geom::mindist_sq(q, &tree[i].bounds());
                d(x).total_cmp(&d(y))
            })
            .unwrap()
    };
    let p = queries.iter().map(nearest).find(|&p| p > 0).unwrap();
    let (pool_p, root_p) = (tree[p].pool(), tree[p].access_root().unwrap());
    let (want, _) = sequential_parted(&tree, &knn_requests(&queries));
    let opts = NnOptions::with_prefetch(PrefetchPolicy::Adaptive);
    let knn = knn_requests(&queries);
    let batch = |threads| {
        let order = JoinOrder::AsGiven;
        forest_batch(&tree, &knn, opts, &MbrRefiner, threads, order, None)
    };
    for threads in [1, 2] {
        balanced_parted(&tree, "before the batch");
        faults[0].fail_read(3);
        let err = batch(threads)
            .expect_err("the third device read of partition 0 fails")
            .to_string();
        // (or, from a worker that was waiting for the same page, the
        // failure of the load it waited on)
        assert!(
            err.contains("injected fault") || err.contains("concurrent load"),
            "{err}"
        );
        balanced_parted(&tree, "after the failed batch");
        for part in &tree {
            part.pool().reset_stats();
        }
        // Partition p's background reader is loading its root, held in
        // the device, when the batch's demand for it arrives: every read
        // of the partition goes through the root, so a worker pins the
        // loading frame (claiming the hint) before the gate opens.
        let gate = &parted.disks[p];
        gate.park_reads_of(root_p);
        pool_p.prefetch(root_p);
        gate.wait_parked();
        let (got, _) = std::thread::scope(|scope| {
            let batch = scope.spawn(|| batch(threads));
            gated::wait_until("the batch to pin the loading root", || {
                pool_p.stats().logical_reads > 0
            });
            gate.release();
            batch.join().unwrap()
        })
        .unwrap();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.1, w.1, "threads={threads}: stats of query {i}");
            assert_same_hits(&g.0, &w.0, &format!("threads={threads}: query {i}"));
        }
        let pool0 = tree[0].pool();
        assert!(pool0.stats().physical_reads > 0);
        assert_eq!(pool0.prefetch_stats().issued, 0, "nobody to hint to");
        let pf = balanced_parted(&tree, "after the next batch");
        assert!(pf.useful > 0, "{pf:?}");
    }
}

// -- (c), (d): scenarios that park a background read ---------------------------

mod gated {
    use super::*;
    use nnq_core::{FnRefiner, TraceEvent};
    use nnq_geom::Rect;
    use nnq_rtree::RecordId;
    use nnq_storage::{DiskStats, StorageError};
    use std::sync::{Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Only a hang is ever timed: it becomes a failure.
    const HANG: Duration = Duration::from_secs(20);

    pub(super) fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < HANG, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[derive(Default)]
    struct GateState {
        /// Reads of this page park until it is cleared.
        page: Option<PageId>,
        parked: usize,
    }

    /// A device whose `read_page` of one chosen page parks until released,
    /// so a test can hold exactly that load inside the device (the
    /// `pool.rs` "load protocol under concurrency" idiom, per page).
    pub(super) struct GateDisk<T: DiskManager> {
        inner: T,
        state: Mutex<GateState>,
        cvar: Condvar,
    }

    impl<T: DiskManager> GateDisk<T> {
        pub(super) fn new(inner: T) -> Arc<Self> {
            Arc::new(Self {
                inner,
                state: Default::default(),
                cvar: Default::default(),
            })
        }

        pub(super) fn park_reads_of(&self, page: PageId) {
            self.state.lock().unwrap().page = Some(page);
        }

        pub(super) fn release(&self) {
            self.state.lock().unwrap().page = None;
            self.cvar.notify_all();
        }

        /// Blocks until a read is parked in the gate.
        pub(super) fn wait_parked(&self) {
            let st = self.state.lock().unwrap();
            let (_st, timeout) = self
                .cvar
                .wait_timeout_while(st, HANG, |st| st.parked == 0)
                .unwrap();
            assert!(!timeout.timed_out(), "no read reached the gate");
        }
    }

    impl<T: DiskManager> DiskManager for GateDisk<T> {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_page(&self, id: PageId, buf: &mut [u8]) -> nnq_storage::Result<()> {
            let mut st = self.state.lock().unwrap();
            if st.page == Some(id) {
                st.parked += 1;
                self.cvar.notify_all();
                let (mut st, timeout) = self
                    .cvar
                    .wait_timeout_while(st, HANG, |st| st.page == Some(id))
                    .unwrap();
                st.parked -= 1;
                if timeout.timed_out() {
                    return Err(StorageError::Io(std::io::Error::other("gate never opened")));
                }
            } else {
                drop(st);
            }
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> nnq_storage::Result<()> {
            self.inner.write_page(id, buf)
        }
        fn allocate(&self) -> nnq_storage::Result<PageId> {
            self.inner.allocate()
        }
        fn deallocate(&self, id: PageId) -> nnq_storage::Result<()> {
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
        fn sync(&self) -> nnq_storage::Result<()> {
            self.inner.sync()
        }
        fn ensure_allocated(&self, id: PageId) -> nnq_storage::Result<()> {
            self.inner.ensure_allocated(id)
        }
    }

    const FRAMES: usize = 12;

    /// A tree on a gated, fault-injecting device behind a pool of
    /// [`FRAMES`] frames and **one** background reader, and two queries far
    /// apart: `a`, whose first leaf is `a_leaf`, and `b`, which reads none
    /// of `a`'s pages below the root.
    struct Scene {
        gate: Arc<GateDisk<Arc<FaultDisk<MemDisk>>>>,
        fault: Arc<FaultDisk<MemDisk>>,
        tree: RTree<2>,
        a: Point<2>,
        b: Point<2>,
        /// The internal pages on `a`'s path, and its first leaf.
        a_upper: Vec<PageId>,
        a_leaf: PageId,
        /// Nodes `b` reads up to and including its first leaf.
        b_to_leaf: u64,
        /// A page neither query reads.
        bystander: PageId,
        want_a: Answer,
        want_b: Answer,
    }

    /// The pages a query enters, with their levels, in visit order.
    fn path(tree: &RTree<2>, q: &Point<2>) -> Vec<(PageId, u16)> {
        let (_, _, trace) = NnSearch::new(tree).query_traced(q, K, &MbrRefiner).unwrap();
        trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::EnterNode { page, level, .. } => Some((*page, *level)),
                _ => None,
            })
            .collect()
    }

    impl Scene {
        fn new() -> Self {
            let fault = Arc::new(FaultDisk::new(MemDisk::new(PAGE_SIZE)));
            let gate = GateDisk::new(Arc::clone(&fault));
            let (meta, _) = build(&gate);
            let tree = open(&gate, meta, FRAMES, 1);
            let (a, b) = (
                Point::new([9_000.0, 12_000.0]),
                Point::new([88_000.0, 91_000.0]),
            );
            let search = NnSearch::new(&tree);
            let want_a = search.query_refined(&a, K, &MbrRefiner).unwrap();
            let want_b = search.query_refined(&b, K, &MbrRefiner).unwrap();
            let (path_a, path_b) = (path(&tree, &a), path(&tree, &b));
            let a_leaf = path_a.iter().find(|(_, level)| *level == 0).unwrap().0;
            let a_upper: Vec<PageId> = path_a
                .iter()
                .take_while(|(_, level)| *level > 0)
                .map(|(page, _)| *page)
                .collect();
            let b_to_leaf = 1 + path_b.iter().position(|(_, level)| *level == 0).unwrap() as u64;
            let bystander = (1..)
                .map(PageId)
                .find(|page| path_a.iter().chain(&path_b).all(|(read, _)| read != page))
                .unwrap();
            assert!(path_b.iter().all(|(page, _)| *page != a_leaf));
            assert!(
                path_a.len() + path_b.len() < FRAMES,
                "both paths must stay resident: {path_a:?} {path_b:?}"
            );
            Self {
                gate,
                fault,
                tree,
                a,
                b,
                a_upper,
                a_leaf,
                b_to_leaf,
                bystander,
                want_a,
                want_b,
            }
        }

        fn pool(&self) -> &BufferPool {
            self.tree.pool()
        }

        /// Empties the pool, then loads `b`'s whole path and `a`'s down to
        /// (not including) its first leaf: the next device read of a batch
        /// over `[a, b]` is `a_leaf`'s, and `b` needs none.
        fn warm_all_but_a_leaf(&self) {
            self.pool().prefetch_quiesce();
            self.pool().clear_cache().unwrap();
            NnSearch::new(&self.tree).query(&self.b, K).unwrap();
            for &page in &self.a_upper {
                drop(self.pool().fetch(page).unwrap());
            }
            self.pool().reset_stats();
        }

        /// One interleaving batch of kNN `queries` on a single worker.
        fn batch<R: Refiner<2> + Sync>(
            &self,
            queries: &[Point<2>],
            refiner: &R,
        ) -> nnq_core::Result<Vec<Answer>> {
            batch_on(
                &self.tree,
                &knn_requests(queries),
                NnOptions::with_prefetch(PrefetchPolicy::Adaptive),
                refiner,
                1,
                JoinOrder::AsGiven,
            )
            .map(|(answers, _)| answers)
        }

        /// The tree still answers, from cold, with nothing pinned and the
        /// prefetch counters balanced.
        fn still_serves(&self, what: &str) {
            balanced(self.pool(), what);
            let got = self.batch(&[self.a, self.b], &MbrRefiner).unwrap();
            assert_same_answers(&got, &[self.want_a.clone(), self.want_b.clone()], what);
            balanced(self.pool(), what);
        }
    }

    /// A refiner that, the first time it is asked about query point `at`,
    /// raises `reached` and then holds its caller until `go` is raised —
    /// a gate inside a worker, in the middle of a leaf visit.
    struct Hold {
        at: Point<2>,
        reached: Mutex<bool>,
        go: Mutex<bool>,
        cvar: Condvar,
    }

    impl Hold {
        fn new(at: Point<2>) -> Self {
            Self {
                at,
                reached: Mutex::new(false),
                go: Mutex::new(false),
                cvar: Condvar::new(),
            }
        }

        fn refiner(&self) -> FnRefiner<impl Fn(RecordId, &Rect<2>, &Point<2>) -> f64 + '_> {
            FnRefiner::new(move |_rid: RecordId, mbr: &Rect<2>, q: &Point<2>| {
                if q.coords() == self.at.coords() {
                    let mut reached = self.reached.lock().unwrap();
                    if !*reached {
                        *reached = true;
                        self.cvar.notify_all();
                        drop(reached);
                        let go = self.go.lock().unwrap();
                        let (_go, timeout) =
                            self.cvar.wait_timeout_while(go, HANG, |go| !*go).unwrap();
                        assert!(!timeout.timed_out(), "the worker was never let go");
                    }
                }
                nnq_geom::mindist_sq(q, mbr)
            })
        }

        fn wait_reached(&self) {
            let reached = self.reached.lock().unwrap();
            let (_r, timeout) = self
                .cvar
                .wait_timeout_while(reached, HANG, |reached| !*reached)
                .unwrap();
            assert!(
                !timeout.timed_out(),
                "the worker never got to the held query"
            );
        }

        fn let_go(&self) {
            *self.go.lock().unwrap() = true;
            self.cvar.notify_all();
        }
    }

    #[test]
    fn a_suspended_query_holds_no_pin_and_its_worker_runs_the_next_item() {
        let scene = Scene::new();
        scene.warm_all_but_a_leaf();
        scene.gate.park_reads_of(scene.a_leaf);
        let hold = Hold::new(scene.b);
        let refiner = hold.refiner();
        let pool = scene.pool();
        let got = std::thread::scope(|scope| {
            let batch = scope.spawn(|| scene.batch(&[scene.a, scene.b], &refiner));
            // `a` stopped in front of its leaf, whose background read now
            // sits in the device, and the one worker went on into `b`'s leaf
            // — where it is held.
            scene.gate.wait_parked();
            hold.wait_reached();
            let s = pool.stats();
            let upper = scene.a_upper.len() as u64;
            assert_eq!(
                (s.logical_reads, s.hits),
                (upper + scene.b_to_leaf, upper + scene.b_to_leaf),
                "a's upper levels and b down to its leaf, all hits; the 'not yet' counted nothing"
            );
            let pf = pool.prefetch_stats();
            assert_eq!((pf.issued, pf.useful, pf.wasted, pf.dropped), (1, 0, 0, 0));
            // Nothing of the suspended query is pinned: every frame but the
            // loading one can be taken at once — the eviction of all of
            // them that `clear_cache` would do, if it did not first wait
            // for the parked read.
            let others: Vec<PageId> = (1..)
                .map(PageId)
                .filter(|page| *page != scene.a_leaf && !scene.a_upper.contains(page))
                .take(FRAMES - 1)
                .collect();
            let guards: Vec<_> = others
                .iter()
                .map(|&page| pool.fetch(page).expect("a frame no suspended query pins"))
                .collect();
            assert!(
                pool.fetch(scene.a_upper[0]).is_err(),
                "all frames are taken now"
            );
            drop(guards);
            hold.let_go();
            // `b` finishes; `a` is all the worker holds, so it waits for
            // the page (a hit on the loading frame) until the gate opens.
            // The refused fetch above read nothing and counted nothing.
            wait_until("the worker to wait for a's leaf", || {
                pool.stats().logical_reads > s.logical_reads + others.len() as u64
            });
            scene.gate.release();
            batch.join().unwrap().unwrap()
        });
        assert_same_answers(
            &got,
            &[scene.want_a.clone(), scene.want_b.clone()],
            "gated batch",
        );
        assert!(
            pool.prefetch_stats().useful >= 1,
            "a claimed the page its hint brought in"
        );
        scene.still_serves("after the gated batch");
    }

    #[test]
    fn a_failed_background_read_is_retried_by_the_query_that_waited_for_it() {
        let scene = Scene::new();
        scene.warm_all_but_a_leaf();
        scene.gate.park_reads_of(scene.a_leaf);
        let hold = Hold::new(scene.b);
        let refiner = hold.refiner();
        let pool = scene.pool();
        let got = std::thread::scope(|scope| {
            let batch = scope.spawn(|| scene.batch(&[scene.a, scene.b], &refiner));
            scene.gate.wait_parked();
            hold.wait_reached();
            // The parked read is the next one to reach the failing device,
            // and the worker is not looking: it fails in the background.
            scene.fault.fail_read(1);
            scene.gate.release();
            wait_until("the failed hint to be dropped", || {
                pool.prefetch_stats().dropped == 1
            });
            hold.let_go();
            batch.join().unwrap()
        });
        // `a` finds its page absent again, hints it again, and gets it.
        let got = got.expect("the query's retry reads the page");
        assert_same_answers(
            &got,
            &[scene.want_a.clone(), scene.want_b.clone()],
            "after a failed hint",
        );
        let pf = pool.prefetch_stats();
        assert!(pf.issued >= 2 && pf.dropped >= 1, "{pf:?}");
        scene.still_serves("after the failed background read");
    }

    #[test]
    fn a_query_waiting_on_a_load_that_fails_fails_its_batch() {
        let scene = Scene::new();
        scene.warm_all_but_a_leaf();
        scene.gate.park_reads_of(scene.a_leaf);
        let hold = Hold::new(scene.b);
        let refiner = hold.refiner();
        let pool = scene.pool();
        let result = std::thread::scope(|scope| {
            let batch = scope.spawn(|| scene.batch(&[scene.a, scene.b], &refiner));
            // (held in `b`, the worker cannot have read `a`'s leaf itself:
            // the parked read is the background one)
            scene.gate.wait_parked();
            hold.wait_reached();
            hold.let_go();
            // `b` finishes; `a` is all the worker holds, so it pins the
            // loading frame (one more hit) and waits on it.
            let hits = scene.a_upper.len() as u64 + scene.want_b.1.nodes_visited + 1;
            wait_until("the worker to wait on the load", || {
                pool.stats().hits == hits
            });
            scene.fault.fail_read(1);
            scene.gate.release();
            batch.join().unwrap()
        });
        let err = result.expect_err("the load the query waited on failed");
        assert!(err.to_string().contains("concurrent load"), "{err}");
        // (the waiter had claimed the hint before its read failed: it is
        // classified once, as useful, like any hint a fetch caught loading)
        let pf = pool.prefetch_stats();
        assert_eq!((pf.issued, pf.useful, pf.dropped), (1, 1, 0), "{pf:?}");
        scene.still_serves("after the failed load");
    }

    /// One interleaving partitioned batch of `reqs` on a single worker.
    fn scatter_batch<R: Refiner<2> + Sync>(
        tree: &[RTree<2>],
        reqs: &[BatchQuery<2>],
        refiner: &R,
    ) -> nnq_core::Result<Vec<Answer>> {
        forest_batch_dedup(
            tree,
            reqs,
            NnOptions::with_prefetch(PrefetchPolicy::Adaptive),
            refiner,
            1,
            JoinOrder::AsGiven,
            None,
        )
        .map(|(answers, _)| {
            answers
                .into_iter()
                .map(|(hits, s)| (hits, s.search))
                .collect()
        })
    }

    #[test]
    fn a_failed_background_read_in_one_partition_is_retried_by_the_query_that_waited_for_it() {
        let faults: Vec<Arc<FaultDisk<MemDisk>>> = (0..4)
            .map(|_| Arc::new(FaultDisk::new(MemDisk::new(PAGE_SIZE))))
            .collect();
        let parted = build_parted(
            faults
                .iter()
                .map(|f| GateDisk::new(Arc::clone(f)))
                .collect(),
        );
        let tree = parted.open(FRAMES, |_| 1);
        let (a, b) = (
            Point::new([9_000.0, 12_000.0]),
            Point::new([88_000.0, 91_000.0]),
        );
        let reqs = knn_requests(&[a, b]);
        let (want, _) = sequential_parted(&tree, &reqs);
        let want: Vec<Answer> = want
            .into_iter()
            .map(|(hits, stats)| (hits, stats.search))
            .collect();
        // `a` searches its nearest partition first, unbounded: exactly as
        // a tree of its own.
        let near = tree
            .iter()
            .map(|part| nnq_geom::mindist_sq(&a, &part.bounds()))
            .enumerate()
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .unwrap()
            .0;
        let part_a = &tree[near];
        let path_a = path(part_a, &a);
        let a_leaf = path_a.iter().find(|(_, level)| *level == 0).unwrap().0;
        let a_upper = path_a.iter().take_while(|(_, level)| *level > 0);

        // Warm `b` everywhere — it reads nothing of `a`'s partition — and
        // `a` down to its first leaf.
        for part in &tree {
            part.pool().clear_cache().unwrap();
            part.store().clear_node_cache();
            part.pool().reset_stats();
        }
        let opts = NnOptions::default();
        scatter_knn(&tree, &b, K, opts, &MbrRefiner, 1).unwrap();
        assert_eq!(part_a.pool().stats().logical_reads, 0);
        for &(page, _) in a_upper {
            drop(part_a.pool().fetch(page).unwrap());
        }

        let gate = &parted.disks[near];
        gate.park_reads_of(a_leaf);
        let hold = Hold::new(b);
        let refiner = hold.refiner();
        let got = std::thread::scope(|scope| {
            let batch = scope.spawn(|| scatter_batch(&tree, &reqs, &refiner));
            // `a` stopped in front of its leaf, whose background read sits
            // in the device, and the one worker went on into `b`.
            gate.wait_parked();
            hold.wait_reached();
            faults[near].fail_read(1);
            gate.release();
            wait_until("the failed hint to be dropped", || {
                part_a.pool().prefetch_stats().dropped == 1
            });
            hold.let_go();
            batch.join().unwrap()
        });
        // `a` finds its page absent again, hints it again, and gets it.
        let got = got.expect("the query's retry reads the page");
        assert_same_answers(&got, &want, "after a failed hint");
        let pf = part_a.pool().prefetch_stats();
        assert!(pf.issued >= 2 && pf.dropped >= 1, "{pf:?}");
        balanced_parted(&tree, "after the failed background read");
        let got = scatter_batch(&tree, &reqs, &MbrRefiner).unwrap();
        assert_same_answers(&got, &want, "the next batch");
        balanced_parted(&tree, "after the next batch");
    }

    #[test]
    fn a_fault_on_the_workers_own_read_fails_the_batch() {
        let scene = Scene::new();
        scene.warm_all_but_a_leaf();
        // Park the one background reader on a page nobody wants, so `a`'s
        // hint stays queued and the worker, with nothing else to run,
        // reads the leaf itself.
        scene.gate.park_reads_of(scene.bystander);
        let pool = scene.pool();
        pool.prefetch(scene.bystander);
        scene.gate.wait_parked();
        scene.fault.fail_read(1);
        let err = scene
            .batch(&[scene.a], &MbrRefiner)
            .expect_err("the worker's own read of the leaf fails");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(
            pool.stats().physical_reads,
            1,
            "a demand read, by the worker"
        );
        scene.gate.release();
        scene.still_serves("after the worker's failed read");
    }
}
