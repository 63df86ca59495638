//! Accounting invariance of the prefetch pipeline: the paper's "pages
//! accessed" figure (`logical_reads`) and every `SearchStats` counter must
//! be bit-identical whatever the prefetch policy or thread count — the
//! pipeline may only move *when* a page's bytes arrive, never how often the
//! traversal asks for them. Separately, the prefetch counters must balance:
//! every issued hint is classified exactly once as useful, wasted, or
//! dropped.

use nnq_core::{
    par_knn_batch, MbrRefiner, Neighbor, NnOptions, NnSearch, PrefetchPolicy, QueryCursor,
    SearchStats,
};
use nnq_rtree::{RTree, RTreeConfig};
use nnq_storage::{BufferPool, FileDisk, LatencyDisk, LatencyProfile, PageId, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points, uniform_queries};
use std::sync::Arc;

/// Deliberately smaller than the tree so the runs evict: the wasted /
/// useful classification paths are all exercised, not just useful.
const POOL_FRAMES: usize = 256;

const N_POINTS: usize = 12_000;
const N_QUERIES: usize = 400;
const K: usize = 5;

fn index_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nnq-prefetch-acct-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn merge(total: &mut SearchStats, s: &SearchStats) {
    total.nodes_visited += s.nodes_visited;
    total.leaves_visited += s.leaves_visited;
    total.abl_entries += s.abl_entries;
    total.pruned_downward += s.pruned_downward;
    total.pruned_object += s.pruned_object;
    total.pruned_upward += s.pruned_upward;
    total.dist_computations += s.dist_computations;
}

fn build_index(path: &std::path::Path) {
    let pts = uniform_points(N_POINTS, &default_bounds(), 71);
    let items = points_to_items(&pts);
    let disk = FileDisk::create(path, PAGE_SIZE).unwrap();
    let pool = Arc::new(BufferPool::new(Box::new(disk), 1 << 14));
    let tree = RTree::<2>::create(Arc::clone(&pool), RTreeConfig::default()).unwrap();
    for (mbr, rid) in &items {
        tree.insert(mbr, *rid).unwrap();
    }
    pool.flush_all().unwrap();
}

/// Opens the index over a latency-injecting disk with the prefetch workers
/// running (even for the `Off` policy — an idle pipeline must be free).
fn open_with_prefetcher(path: &std::path::Path, lat_us: u64) -> (RTree<2>, Arc<BufferPool>) {
    let disk = FileDisk::open(path, PAGE_SIZE).unwrap();
    let disk = LatencyDisk::new(disk, LatencyProfile::symmetric_us(lat_us));
    let mut pool = BufferPool::with_shards(Box::new(disk), POOL_FRAMES, 2);
    pool.start_prefetch(2, 32);
    let pool = Arc::new(pool);
    let tree = RTree::<2>::open(Arc::clone(&pool), PageId(0)).unwrap();
    (tree, pool)
}

struct Run {
    per_query_pages: Vec<u64>,
    aggregate_pages: u64,
    stats: SearchStats,
    dists: Vec<Vec<f64>>,
}

/// One sequential pass over the query batch under `policy`, from a cold
/// cache, recording the per-query `logical_reads` delta.
fn sequential_run(path: &std::path::Path, policy: PrefetchPolicy) -> Run {
    let (tree, pool) = open_with_prefetcher(path, 0);
    let queries = uniform_queries(N_QUERIES, &default_bounds(), 72);
    let search = NnSearch::with_options(
        &tree,
        NnOptions {
            prefetch: policy,
            ..NnOptions::default()
        },
    );
    let mut cursor = QueryCursor::new();
    pool.reset_stats();
    let mut per_query_pages = Vec::with_capacity(queries.len());
    let mut stats = SearchStats::default();
    let mut dists = Vec::with_capacity(queries.len());
    for q in &queries {
        let before = pool.stats().logical_reads;
        let (found, s) = search
            .query_refined_with(&mut cursor, q, K, &MbrRefiner)
            .unwrap();
        per_query_pages.push(pool.stats().logical_reads - before);
        merge(&mut stats, &s);
        dists.push(found.iter().map(|n| n.dist_sq).collect());
    }
    let aggregate_pages = pool.stats().logical_reads;
    // Counter balance: quiesce so in-flight hints settle, then clear the
    // cache so unclaimed prefetched frames get their `wasted` verdict.
    pool.prefetch_quiesce();
    pool.clear_cache().unwrap();
    let pf = pool.prefetch_stats();
    assert_eq!(
        pf.useful + pf.wasted + pf.dropped,
        pf.issued,
        "unbalanced prefetch counters for {policy}: {pf:?}"
    );
    // A query run on its own never hints, whatever the policy: it has no
    // other query to run while a page loads.
    assert_eq!(pf.issued, 0, "a sequential query issued hints: {pf:?}");
    Run {
        per_query_pages,
        aggregate_pages,
        stats,
        dists,
    }
}

/// One parallel pass (8 workers) under `policy`, from a cold cache.
fn parallel_run(path: &std::path::Path, policy: PrefetchPolicy) -> Run {
    let (tree, pool) = open_with_prefetcher(path, 0);
    let queries = uniform_queries(N_QUERIES, &default_bounds(), 72);
    pool.reset_stats();
    let results = par_knn_batch(
        &tree,
        &queries,
        K,
        NnOptions {
            prefetch: policy,
            ..NnOptions::default()
        },
        &MbrRefiner,
        8,
    )
    .unwrap();
    let aggregate_pages = pool.stats().logical_reads;
    pool.prefetch_quiesce();
    pool.clear_cache().unwrap();
    let pf = pool.prefetch_stats();
    assert_eq!(
        pf.useful + pf.wasted + pf.dropped,
        pf.issued,
        "unbalanced prefetch counters for {policy} x8: {pf:?}"
    );
    Run {
        per_query_pages: Vec::new(),
        aggregate_pages,
        stats: SearchStats::default(),
        dists: results
            .iter()
            .map(|r| r.iter().map(|n| n.dist_sq).collect())
            .collect(),
    }
}

const POLICIES: [PrefetchPolicy; 2] = [PrefetchPolicy::Off, PrefetchPolicy::Adaptive];

#[test]
fn page_accounting_is_prefetch_and_thread_invariant() {
    let path = index_path("invariance.rtree");
    build_index(&path);

    let reference = sequential_run(&path, PrefetchPolicy::Off);
    assert_eq!(reference.per_query_pages.len(), N_QUERIES);
    assert!(reference.aggregate_pages > 0);

    for policy in POLICIES {
        let run = sequential_run(&path, policy);
        assert_eq!(
            run.per_query_pages, reference.per_query_pages,
            "per-query pages moved under {policy} x1"
        );
        assert_eq!(
            run.aggregate_pages, reference.aggregate_pages,
            "aggregate pages moved under {policy} x1"
        );
        assert_eq!(
            run.stats, reference.stats,
            "search counters moved under {policy} x1"
        );
        assert_eq!(
            run.dists, reference.dists,
            "results moved under {policy} x1"
        );

        let par = parallel_run(&path, policy);
        assert_eq!(
            par.aggregate_pages, reference.aggregate_pages,
            "aggregate pages moved under {policy} x8"
        );
        assert_eq!(
            par.dists, reference.dists,
            "results moved under {policy} x8"
        );
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn prefetch_under_injected_latency_still_balances_and_agrees() {
    // Same contract with real I/O latency in the pipeline: slower, so a
    // smaller batch. The sequential pass issues no hints; the batch pass
    // interleaves under `Adaptive`, so its hints are genuinely in flight
    // while the workers' own demand fetches race them.
    let path = index_path("latency.rtree");
    build_index(&path);

    let queries = uniform_queries(60, &default_bounds(), 73);
    let mut baseline: Option<(Vec<Vec<f64>>, u64)> = None;
    for policy in POLICIES {
        for threads in [1, 2] {
            let what = format!("{policy} x{threads}");
            let (tree, pool) = open_with_prefetcher(&path, 100);
            let opts = NnOptions::with_prefetch(policy);
            pool.reset_stats();
            let found: Vec<Vec<Neighbor<2>>> = if threads == 1 {
                let search = NnSearch::with_options(&tree, opts);
                let mut cursor = QueryCursor::new();
                queries
                    .iter()
                    .map(|q| {
                        let (found, _) = search
                            .query_refined_with(&mut cursor, q, K, &MbrRefiner)
                            .unwrap();
                        found
                    })
                    .collect()
            } else {
                par_knn_batch(&tree, &queries, K, opts, &MbrRefiner, threads).unwrap()
            };
            let dists: Vec<Vec<f64>> = found
                .iter()
                .map(|r| r.iter().map(|n| n.dist_sq).collect())
                .collect();
            let logical = pool.stats().logical_reads;
            pool.prefetch_quiesce();
            pool.clear_cache().unwrap();
            let pf = pool.prefetch_stats();
            assert_eq!(
                pf.useful + pf.wasted + pf.dropped,
                pf.issued,
                "unbalanced under latency for {what}: {pf:?}"
            );
            match &baseline {
                None => baseline = Some((dists, logical)),
                Some((b_dists, b_logical)) => {
                    assert_eq!(&dists, b_dists, "results moved under {what}");
                    // Every policy reads the same pages even with latency
                    // injected and hints genuinely racing demand fetches.
                    assert_eq!(logical, *b_logical, "pages moved under {what}");
                }
            }
        }
    }

    std::fs::remove_file(&path).ok();
}
