//! Qualitative assertions of the paper's claims at test scale — the same
//! shapes the full benchmarks (E1–E8) measure, pinned down as tests so a
//! regression that breaks a *trend* fails CI, not just a table.

use nnq_core::{best_first_knn, linear_scan_knn, AblOrdering, MbrRefiner, NnOptions, NnSearch};
use nnq_geom::Point;
use nnq_rtree::{RTree, RTreeConfig, SplitStrategy};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use nnq_workloads::{
    default_bounds, points_to_items, segments_to_items, tiger_like_segments, uniform_points,
    uniform_queries, TigerParams,
};
use std::sync::Arc;

fn build_uniform(n: usize, seed: u64) -> RTree<2> {
    let items = points_to_items(&uniform_points(n, &default_bounds(), seed));
    let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 15));
    let tree = RTree::create(pool, RTreeConfig::default()).unwrap();
    for (mbr, rid) in &items {
        tree.insert(mbr, *rid).unwrap();
    }
    tree
}

fn avg_nodes(tree: &RTree<2>, queries: &[Point<2>], k: usize, opts: NnOptions) -> f64 {
    let search = NnSearch::with_options(tree, opts);
    let total: u64 = queries
        .iter()
        .map(|q| search.query_with_stats(q, k).unwrap().1.nodes_visited)
        .sum();
    total as f64 / queries.len() as f64
}

/// E1's shape: node accesses grow sublinearly in k — going from k = 1 to
/// k = 25 must cost far less than 25×.
#[test]
fn claim_pages_grow_sublinearly_with_k() {
    let tree = build_uniform(30_000, 3);
    let queries = uniform_queries(100, &default_bounds(), 7);
    let at_1 = avg_nodes(&tree, &queries, 1, NnOptions::default());
    let at_25 = avg_nodes(&tree, &queries, 25, NnOptions::default());
    assert!(at_25 >= at_1, "more neighbors cannot cost less");
    assert!(
        at_25 < at_1 * 5.0,
        "k=25 cost {at_25} should be < 5x k=1 cost {at_1}"
    );
}

/// E1's other half: the search touches a tiny fraction of the index.
#[test]
fn claim_search_touches_a_tiny_fraction_of_the_tree() {
    let tree = build_uniform(50_000, 5);
    let total = tree.stats().unwrap().nodes as f64;
    let queries = uniform_queries(100, &default_bounds(), 9);
    let visited = avg_nodes(&tree, &queries, 10, NnOptions::default());
    assert!(
        visited < total * 0.05,
        "visited {visited} of {total} nodes (> 5%)"
    );
}

/// E2's shape: MINDIST ordering is no worse than MINMAXDIST ordering on
/// average (the paper's recommendation).
#[test]
fn claim_mindist_ordering_beats_minmaxdist_ordering() {
    let tree = build_uniform(30_000, 11);
    let queries = uniform_queries(200, &default_bounds(), 13);
    for k in [1usize, 10] {
        let md = avg_nodes(
            &tree,
            &queries,
            k,
            NnOptions::with_ordering(AblOrdering::MinDist),
        );
        let mm = avg_nodes(
            &tree,
            &queries,
            k,
            NnOptions::with_ordering(AblOrdering::MinMaxDist),
        );
        // Allow 2% noise; the trend must not invert.
        assert!(
            md <= mm * 1.02,
            "k={k}: MINDIST {md} should not exceed MINMAXDIST {mm}"
        );
    }
}

/// E3's shape: adding pruning strategies never increases node accesses,
/// and full pruning is dramatically better than none.
#[test]
fn claim_pruning_is_monotone_and_effective() {
    let tree = build_uniform(30_000, 17);
    let queries = uniform_queries(100, &default_bounds(), 19);
    let none = avg_nodes(&tree, &queries, 10, NnOptions::no_pruning());
    let s3 = avg_nodes(
        &tree,
        &queries,
        10,
        NnOptions {
            prune_downward: false,
            prune_object: false,
            ..NnOptions::default()
        },
    );
    let full = avg_nodes(&tree, &queries, 10, NnOptions::default());
    assert!(s3 <= none, "S3 ({s3}) must not exceed no pruning ({none})");
    assert!(
        full <= s3 * 1.001,
        "full ({full}) must not exceed S3 ({s3})"
    );
    assert!(
        full * 20.0 < none,
        "full pruning ({full}) should beat none ({none}) by >20x"
    );
}

/// E4's shape: node accesses grow roughly logarithmically with N —
/// multiplying the data by 16 should add only a few node reads.
#[test]
fn claim_logarithmic_growth_in_dataset_size() {
    let queries = uniform_queries(50, &default_bounds(), 23);
    let small = build_uniform(4_000, 29);
    let large = build_uniform(64_000, 31);
    let at_small = avg_nodes(&small, &queries, 10, NnOptions::default());
    let at_large = avg_nodes(&large, &queries, 10, NnOptions::default());
    assert!(
        at_large < at_small + 8.0,
        "16x data: {at_small} -> {at_large} nodes (not logarithmic)"
    );
}

/// E6's shape: the branch-and-bound search reads far fewer pages than a
/// sequential scan.
#[test]
fn claim_index_beats_scan_by_orders_of_magnitude() {
    let tree = build_uniform(50_000, 37);
    let q = Point::new([42_000.0, 58_000.0]);
    let (_, bb) = NnSearch::new(&tree).query_with_stats(&q, 10).unwrap();
    let (_, scan) = linear_scan_knn(&tree, &q, 10, &MbrRefiner).unwrap();
    assert!(
        bb.nodes_visited * 50 < scan.nodes_visited,
        "B&B {} vs scan {}",
        bb.nodes_visited,
        scan.nodes_visited
    );
}

/// E7's shape: R* builds a better tree than the linear split (fewer NN
/// node accesses on clustered data).
#[test]
fn claim_rstar_tree_answers_nn_cheaper_than_linear() {
    let segs = tiger_like_segments(&TigerParams {
        segments: 20_000,
        ..TigerParams::default()
    });
    let items = segments_to_items(&segs);
    let build = |split| {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 15));
        let tree = RTree::create(pool, RTreeConfig::with_split(split)).unwrap();
        for (mbr, rid) in &items {
            tree.insert(mbr, *rid).unwrap();
        }
        tree
    };
    let linear = build(SplitStrategy::Linear);
    let rstar = build(SplitStrategy::RStar);
    let queries = uniform_queries(150, &default_bounds(), 41);
    let ln = avg_nodes(&linear, &queries, 10, NnOptions::default());
    let rs = avg_nodes(&rstar, &queries, 10, NnOptions::default());
    assert!(rs <= ln, "R* ({rs}) should not exceed linear ({ln})");
}

/// E8's shape: best-first is I/O-optimal; the paper's DFS stays within a
/// small constant of it.
#[test]
fn claim_dfs_stays_close_to_best_first() {
    let tree = build_uniform(30_000, 43);
    let queries = uniform_queries(100, &default_bounds(), 47);
    let mut dfs_total = 0u64;
    let mut bf_total = 0u64;
    let search = NnSearch::new(&tree);
    for q in &queries {
        dfs_total += search.query_with_stats(q, 10).unwrap().1.nodes_visited;
        bf_total += best_first_knn(&tree, q, 10, NnOptions::default(), &MbrRefiner)
            .unwrap()
            .1
            .nodes_visited;
    }
    assert!(bf_total <= dfs_total, "best-first must not lose");
    assert!(
        (dfs_total as f64) < (bf_total as f64) * 1.5,
        "DFS ({dfs_total}) should be within 1.5x of best-first ({bf_total})"
    );
}
