//! Accounting invariance of the online self-tuning controller: the
//! paper's "pages accessed" figure (`logical_reads`, per-query and
//! aggregate), every `SearchStats` counter, and the results themselves
//! must be bit-identical with tuning off, tuning adaptive, and under
//! arbitrary mid-run knob changes — across thread counts and partition
//! counts. The controller only moves accounting-neutral knobs (prefetch
//! depth/workers, node-cache capacity, claim-block size, partition cache
//! budgets), so a tuned run and an untuned run read exactly the same
//! pages.

use nnq_core::{
    forest_batch, BatchQuery, JoinOrder, MbrRefiner, Neighbor, NnOptions, NnSearch,
    PartitionedStats, QueryCursor, SearchStats, TuneController, TuneMode,
};
use nnq_geom::{Point, Rect};
use nnq_rtree::{
    rebalance_cache_budget, BulkMethod, Forest, PartitionedTree, RTree, RTreeConfig, RecordId,
    TreeAccess,
};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use nnq_workloads::{
    cluster_centers, default_bounds, points_to_items, uniform_points, uniform_queries,
    zipf_cluster_queries,
};
use std::sync::Arc;

/// Deliberately small so the pool evicts and the miss-rate signal is live.
const POOL_FRAMES: usize = 256;
const K: usize = 5;
/// Queries per controller observation (4 chunks over the stream).
const CHUNK: usize = 60;

fn dataset() -> Vec<(Rect<2>, RecordId)> {
    points_to_items(&uniform_points(8_000, &default_bounds(), 91))
}

/// A query stream with a mid-run workload shift — uniform, then
/// zipfian-clustered — so the adaptive controller has something real to
/// react to while the invariants are checked.
fn queries() -> Vec<Point<2>> {
    let bounds = default_bounds();
    let mut qs = uniform_queries(2 * CHUNK, &bounds, 92);
    let centers = cluster_centers(8, &bounds, 93);
    qs.extend(zipf_cluster_queries(
        2 * CHUNK,
        &centers,
        1.0,
        500.0,
        &bounds,
        94,
    ));
    qs
}

fn single_tree() -> RTree<2> {
    let mut pool = BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), POOL_FRAMES);
    pool.start_prefetch(2, 32);
    RTree::<2>::bulk_load(
        Arc::new(pool),
        RTreeConfig::default(),
        dataset(),
        BulkMethod::Hilbert,
        1.0,
    )
    .unwrap()
}

fn parted(p: usize) -> PartitionedTree<2> {
    PartitionedTree::bulk_load_in_memory(
        dataset(),
        p,
        RTreeConfig::default(),
        BulkMethod::Hilbert,
        1.0,
        POOL_FRAMES.max(1024),
        1,
    )
    .unwrap()
}

fn knn_requests(queries: &[Point<2>]) -> Vec<BatchQuery<2>> {
    queries
        .iter()
        .map(|&q| BatchQuery::Knn { q, k: K })
        .collect()
}

/// Bit-exact fingerprint of a result list.
fn key(results: &[Neighbor<2>]) -> Vec<(u64, u64)> {
    results
        .iter()
        .map(|n| (n.record.0, n.dist_sq.to_bits()))
        .collect()
}

struct Run {
    /// Per-query `logical_reads` deltas (sequential runs only).
    per_query_pages: Vec<u64>,
    aggregate_pages: u64,
    /// Summed traversal counters (sequential runs only).
    stats: SearchStats,
    dists: Vec<Vec<(u64, u64)>>,
}

/// One pass over the query stream against a fresh single tree, driven in
/// controller-sized chunks. `perturb` additionally yanks the backend
/// knobs around by hand between chunks — mid-run adjustments at their
/// most adversarial.
fn single_run(tune: TuneMode, threads: usize, perturb: bool) -> Run {
    let tree = single_tree();
    let qs = queries();
    let mut controller = TuneController::new(tune);
    let trees = std::slice::from_ref(&tree);
    controller.observe_trees(trees);
    tree.pool().reset_stats();

    let mut per_query_pages = Vec::new();
    let mut stats = SearchStats::default();
    let mut dists = Vec::with_capacity(qs.len());
    for (i, chunk) in qs.chunks(CHUNK).enumerate() {
        let opts = NnOptions {
            prefetch: controller
                .prefetch_policy()
                .unwrap_or(nnq_core::PrefetchPolicy::Adaptive),
            ..NnOptions::default()
        };
        if threads == 1 {
            let search = NnSearch::with_options(&tree, opts);
            let mut cursor = QueryCursor::new();
            for q in chunk {
                let before = tree.pool().stats().logical_reads;
                let (found, s) = search
                    .query_refined_with(&mut cursor, q, K, &MbrRefiner)
                    .unwrap();
                per_query_pages.push(tree.pool().stats().logical_reads - before);
                stats.accumulate(&s);
                dists.push(key(&found));
            }
        } else {
            let (results, bstats) = forest_batch(
                Forest::of_one(&tree),
                &knn_requests(chunk),
                opts,
                &MbrRefiner,
                threads,
                JoinOrder::AsGiven,
                controller.block_override(),
            )
            .unwrap();
            controller.observe_batch(&bstats);
            dists.extend(results.iter().map(|r| key(&r.0)));
        }
        if perturb {
            // External knob changes between chunks: shrink/grow the node
            // cache and flip the worker gate. None of these may move a
            // single counter the contract covers.
            let caps = [64, 4096, 96, 1024];
            tree.set_cache_capacity(caps[i % caps.len()]);
            tree.set_prefetch_workers(1 + i % 2);
        }
        controller.observe_trees(trees);
    }
    Run {
        per_query_pages,
        aggregate_pages: tree.pool().stats().logical_reads,
        stats,
        dists,
    }
}

/// The partitioned equivalent: scatter-gather batches in chunks with
/// `observe_batch` (claim block) and `observe_trees` (budget rebalance +
/// worker gating) between them.
fn parted_run(p: usize, tune: TuneMode, threads: usize, perturb: bool) -> Run {
    let tree = parted(p);
    let qs = queries();
    let mut controller = TuneController::new(tune);
    controller.observe_trees(tree.partitions());
    tree.forest().reset_stats();

    let mut dists = Vec::with_capacity(qs.len());
    let mut pstats = PartitionedStats::default();
    for (i, chunk) in qs.chunks(CHUNK).enumerate() {
        let opts = NnOptions {
            prefetch: controller
                .prefetch_policy()
                .unwrap_or(nnq_core::PrefetchPolicy::Adaptive),
            ..NnOptions::default()
        };
        // Under `perturb` the claim block is yanked by hand as well, past
        // anything the controller would pick.
        let block = if perturb {
            Some([1, 7, 64, 1000][i % 4])
        } else {
            controller.block_override()
        };
        let (answers, bstats) = forest_batch(
            tree.forest(),
            &knn_requests(chunk),
            opts,
            &MbrRefiner,
            threads,
            JoinOrder::AsGiven,
            block,
        )
        .unwrap();
        assert_eq!(bstats.per_worker_queries.iter().sum::<usize>(), chunk.len());
        if let (Some(b), true) = (block, threads > 1) {
            assert_eq!(bstats.block, b, "claim-block override not applied");
        }
        controller.observe_batch(&bstats);
        for (found, ps) in &answers {
            pstats.accumulate(ps);
            dists.push(key(found));
        }
        if perturb {
            let budgets = [p * 64, p * 4096, p * 96];
            rebalance_cache_budget(tree.partitions(), budgets[i % budgets.len()], 64);
            for part in tree.partitions() {
                part.set_prefetch_workers(1 + i % 2);
            }
        }
        controller.observe_trees(tree.partitions());
    }
    Run {
        per_query_pages: Vec::new(),
        aggregate_pages: tree.forest().pool_stats().logical_reads,
        stats: pstats.search,
        dists,
    }
}

#[test]
fn tuning_is_accounting_neutral_single_tree() {
    let reference = single_run(TuneMode::Off, 1, false);
    assert!(reference.aggregate_pages > 0);
    assert_eq!(reference.per_query_pages.len(), 4 * CHUNK);

    for tune in [TuneMode::Off, TuneMode::Adaptive] {
        for perturb in [false, true] {
            let run = single_run(tune, 1, perturb);
            assert_eq!(
                run.per_query_pages, reference.per_query_pages,
                "per-query pages moved: tune={tune} perturb={perturb} x1"
            );
            assert_eq!(
                run.aggregate_pages, reference.aggregate_pages,
                "aggregate pages moved: tune={tune} perturb={perturb} x1"
            );
            assert_eq!(
                run.stats, reference.stats,
                "search counters moved: tune={tune} perturb={perturb} x1"
            );
            assert_eq!(
                run.dists, reference.dists,
                "results moved: tune={tune} perturb={perturb} x1"
            );

            let par = single_run(tune, 8, perturb);
            assert_eq!(
                par.aggregate_pages, reference.aggregate_pages,
                "aggregate pages moved: tune={tune} perturb={perturb} x8"
            );
            assert_eq!(
                par.dists, reference.dists,
                "results moved: tune={tune} perturb={perturb} x8"
            );
        }
    }
}

#[test]
fn tuning_is_accounting_neutral_partitioned() {
    for p in [1, 4] {
        let reference = parted_run(p, TuneMode::Off, 1, false);
        assert!(reference.aggregate_pages > 0);
        for tune in [TuneMode::Off, TuneMode::Adaptive] {
            for threads in [1, 8] {
                for perturb in [false, true] {
                    let run = parted_run(p, tune, threads, perturb);
                    assert_eq!(
                        run.aggregate_pages, reference.aggregate_pages,
                        "aggregate pages moved: p={p} tune={tune} threads={threads} perturb={perturb}"
                    );
                    assert_eq!(
                        run.stats, reference.stats,
                        "search counters moved: p={p} tune={tune} threads={threads} perturb={perturb}"
                    );
                    assert_eq!(
                        run.dists, reference.dists,
                        "results moved: p={p} tune={tune} threads={threads} perturb={perturb}"
                    );
                }
            }
        }
    }
}

#[test]
fn adaptive_controller_actually_moves_knobs() {
    // Sanity that the neutrality tests above aren't vacuous: under the
    // small pool + workload shift, the adaptive controller takes samples
    // and lands on a non-default knob state (or at least adjusted along
    // the way).
    let tree = single_tree();
    let qs = queries();
    let mut controller = TuneController::new(TuneMode::Adaptive);
    let trees = std::slice::from_ref(&tree);
    controller.observe_trees(trees);
    for chunk in qs.chunks(CHUNK) {
        let opts = NnOptions {
            prefetch: controller
                .prefetch_policy()
                .unwrap_or(nnq_core::PrefetchPolicy::Off),
            ..NnOptions::default()
        };
        let search = NnSearch::with_options(&tree, opts);
        let mut cursor = QueryCursor::new();
        for q in chunk {
            search
                .query_refined_with(&mut cursor, q, K, &MbrRefiner)
                .unwrap();
        }
        controller.observe_trees(trees);
    }
    assert!(controller.samples() >= 2, "{}", controller.report());
    assert!(controller.adjustments() >= 1, "{}", controller.report());
}
