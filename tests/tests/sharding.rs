//! Accounting invariance of the sharded read path: the paper's "pages
//! accessed" figure must be bit-identical whatever the latch layout
//! (pool shard count) or execution (thread count), and per-shard counters
//! must sum to the single-shard totals.

use nnq_core::{par_knn_batch, MbrRefiner, NnOptions, NnSearch};
use nnq_rtree::{RTree, RTreeConfig};
use nnq_storage::{BufferPool, FileDisk, PageId, PoolStats, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points, uniform_queries};
use std::sync::Arc;

/// Pool big enough that the whole tree stays resident: physical reads are
/// then deterministic too (first touch only), not just logical reads.
const POOL_FRAMES: usize = 1 << 14;

fn build_index(path: &std::path::Path) {
    let pts = uniform_points(15_000, &default_bounds(), 41);
    let items = points_to_items(&pts);
    let disk = FileDisk::create(path, PAGE_SIZE).unwrap();
    let pool = Arc::new(BufferPool::new(Box::new(disk), POOL_FRAMES));
    let tree = RTree::<2>::create(Arc::clone(&pool), RTreeConfig::default()).unwrap();
    for (mbr, rid) in &items {
        tree.insert(mbr, *rid).unwrap();
    }
    pool.flush_all().unwrap();
}

fn open_sharded(path: &std::path::Path, shards: usize) -> (RTree<2>, Arc<BufferPool>) {
    let disk = FileDisk::open(path, PAGE_SIZE).unwrap();
    let pool = Arc::new(BufferPool::with_shards(Box::new(disk), POOL_FRAMES, shards));
    let tree = RTree::<2>::open(Arc::clone(&pool), PageId(0)).unwrap();
    (tree, pool)
}

fn sum(stats: &[PoolStats]) -> PoolStats {
    let mut total = PoolStats::default();
    for s in stats {
        total.logical_reads += s.logical_reads;
        total.hits += s.hits;
        total.physical_reads += s.physical_reads;
        total.evictions += s.evictions;
        total.writebacks += s.writebacks;
    }
    total
}

#[test]
fn page_accounting_is_shard_and_thread_invariant() {
    let dir = std::env::temp_dir().join(format!("nnq-sharding-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sharding.rtree");
    build_index(&path);

    let queries = uniform_queries(1_000, &default_bounds(), 42);
    let k = 5;

    // Reference: single shard, sequential, with per-query page counts.
    // On the paged backend every node access is exactly one pool fetch,
    // so SearchStats.nodes_visited *is* the query's logical_reads; the
    // warm pass re-runs each query to double-check against the pool's
    // own counter delta per query.
    let (ref_tree, ref_pool) = open_sharded(&path, 1);
    let search = NnSearch::new(&ref_tree);
    ref_pool.reset_stats();
    let mut per_query_pages = Vec::with_capacity(queries.len());
    let mut ref_results = Vec::with_capacity(queries.len());
    for q in &queries {
        let before = ref_pool.stats().logical_reads;
        let (found, stats) = search.query_refined(q, k, &MbrRefiner).unwrap();
        let delta = ref_pool.stats().logical_reads - before;
        assert_eq!(delta, stats.nodes_visited, "node read ≠ page fetch");
        per_query_pages.push(delta);
        ref_results.push(found);
    }
    let ref_totals = ref_pool.stats();
    drop(ref_tree);

    for shards in [1usize, 8] {
        for threads in [1usize, 8] {
            let (tree, pool) = open_sharded(&path, shards);
            assert_eq!(pool.shard_count(), shards);

            // Per-query counts, measured sequentially (per-query deltas
            // are only well-defined without interleaving).
            let search = NnSearch::new(&tree);
            pool.reset_stats();
            for (i, q) in queries.iter().enumerate() {
                let before = pool.stats().logical_reads;
                search.query_refined(q, k, &MbrRefiner).unwrap();
                let delta = pool.stats().logical_reads - before;
                assert_eq!(
                    delta, per_query_pages[i],
                    "per-query pages moved: query {i}, shards={shards}"
                );
            }
            let seq_totals = pool.stats();
            assert_eq!(
                seq_totals.logical_reads, ref_totals.logical_reads,
                "aggregate logical reads moved: shards={shards}"
            );
            // Whole-tree pool ⇒ misses are first-touch only ⇒ equal too.
            assert_eq!(seq_totals.physical_reads, ref_totals.physical_reads);

            // The same batch through the work-stealing scheduler at
            // `threads`: results bit-identical, aggregate logical reads
            // unchanged, per-shard counters summing to the aggregate.
            pool.reset_stats();
            tree.store().clear_node_cache();
            let cache_before = tree.store().cache_stats();
            let batch = par_knn_batch(
                &tree,
                &queries,
                k,
                NnOptions::default(),
                &MbrRefiner,
                threads,
            )
            .unwrap();
            for (got, want) in batch.iter().zip(&ref_results) {
                assert_eq!(
                    got.iter()
                        .map(|n| (n.record, n.dist_sq))
                        .collect::<Vec<_>>(),
                    want.iter()
                        .map(|n| (n.record, n.dist_sq))
                        .collect::<Vec<_>>(),
                );
            }
            let par_totals = pool.stats();
            assert_eq!(
                par_totals.logical_reads, ref_totals.logical_reads,
                "parallel batch changed page accounting: shards={shards} threads={threads}"
            );
            let summed = sum(&pool.shard_stats());
            assert_eq!(summed, par_totals, "shard stats don't sum to aggregate");

            // Node-cache accounting stays coherent as well: one probe per
            // node read, so the batch's probe delta equals its logical
            // reads (cache counters survive `clear_node_cache`, hence the
            // before/after diff).
            let cstats = tree.store().cache_stats();
            assert_eq!(
                (cstats.hits + cstats.misses) - (cache_before.hits + cache_before.misses),
                par_totals.logical_reads,
                "cache probes ≠ page fetches: shards={shards} threads={threads}"
            );
        }
    }

    std::fs::remove_file(&path).ok();
}
