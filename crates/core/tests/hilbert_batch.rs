//! The Hilbert batch schedule must be invisible in the output: results come
//! back in submission order, bit-identical to the sequential as-given run,
//! no matter how the batch is shaped or how many workers claim from it.

use nnq_core::{
    forest_batch, par_knn_batch, BatchQuery, JoinOrder, MbrRefiner, Neighbor, NnOptions,
};
use nnq_geom::{Point, Rect};
use nnq_rtree::{Forest, MemRTree, RecordId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_tree(n: usize, seed: u64) -> MemRTree<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = MemRTree::new();
    for i in 0..n {
        let p = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
        tree.insert(&Rect::from_point(p), RecordId(i as u64))
            .unwrap();
    }
    tree
}

fn random_queries(nq: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..nq)
        .map(|_| Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
        .collect()
}

/// A batch built to defeat naive schedules: dense clusters interleaved with
/// far-flung singletons, long runs of the exact same point (Hilbert keys
/// tie), and a reversed tail so submission order anti-correlates with
/// spatial order.
fn clustered_queries(seed: u64) -> Vec<Point<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::new();
    for c in 0..8 {
        let cx = (c % 4) as f64 * 25.0 + 5.0;
        let cy = (c / 4) as f64 * 50.0 + 5.0;
        for _ in 0..24 {
            queries.push(Point::new([
                cx + rng.random_range(-1.0..1.0),
                cy + rng.random_range(-1.0..1.0),
            ]));
        }
        // A far-flung singleton between clusters.
        queries.push(Point::new([
            rng.random_range(0.0..100.0),
            rng.random_range(0.0..100.0),
        ]));
    }
    // A run of identical points: every Hilbert key ties, so the schedule's
    // tie-breaking must still map each result to its own slot.
    for _ in 0..16 {
        queries.push(Point::new([50.0, 50.0]));
    }
    // Reverse the whole batch so submission order fights spatial order.
    queries.reverse();
    queries
}

/// A kNN batch over `tree` (a forest of one) claimed in `order`.
fn batch(
    tree: &MemRTree<2>,
    queries: &[Point<2>],
    k: usize,
    threads: usize,
    order: JoinOrder,
) -> Vec<Vec<Neighbor<2>>> {
    let forest = Forest::of_one(tree);
    let reqs: Vec<_> = queries.iter().map(|&q| BatchQuery::Knn { q, k }).collect();
    let opts = NnOptions::default();
    let (answers, _) =
        forest_batch(forest, &reqs, opts, &MbrRefiner, threads, order, None).unwrap();
    answers.into_iter().map(|(hits, _)| hits).collect()
}

fn dists(found: &[Vec<Neighbor<2>>]) -> Vec<Vec<f64>> {
    found
        .iter()
        .map(|r| r.iter().map(|n| n.dist_sq).collect())
        .collect()
}

fn records(found: &[Vec<Neighbor<2>>]) -> Vec<Vec<RecordId>> {
    found
        .iter()
        .map(|r| r.iter().map(|n| n.record).collect())
        .collect()
}

fn assert_matches_sequential(tree: &MemRTree<2>, queries: &[Point<2>], k: usize) {
    let seq = par_knn_batch(tree, queries, k, NnOptions::default(), &MbrRefiner, 1).unwrap();
    for threads in [1, 2, 8] {
        let hil = batch(tree, queries, k, threads, JoinOrder::Hilbert);
        assert_eq!(hil.len(), queries.len(), "threads={threads}");
        assert_eq!(dists(&hil), dists(&seq), "threads={threads}");
        assert_eq!(records(&hil), records(&seq), "threads={threads}");
    }
}

#[test]
fn hilbert_schedule_matches_sequential_on_random_batches() {
    let tree = build_tree(4_000, 21);
    for (nq, seed) in [(1usize, 22), (37, 23), (300, 24)] {
        assert_matches_sequential(&tree, &random_queries(nq, seed), 5);
    }
}

#[test]
fn hilbert_schedule_matches_sequential_on_clustered_batches() {
    let tree = build_tree(4_000, 31);
    assert_matches_sequential(&tree, &clustered_queries(32), 7);
}

#[test]
fn results_come_back_in_submission_order() {
    // Each result slot must hold the answer for *its own* query: check
    // every slot against an independently computed single-query batch.
    let tree = build_tree(2_000, 41);
    let queries = clustered_queries(42);
    let batch = batch(&tree, &queries, 3, 8, JoinOrder::Hilbert);
    for (i, q) in queries.iter().enumerate() {
        let single = par_knn_batch(
            &tree,
            std::slice::from_ref(q),
            3,
            NnOptions::default(),
            &MbrRefiner,
            1,
        )
        .unwrap();
        assert_eq!(dists(&batch[i..=i]), dists(&single), "slot {i}");
    }
}

#[test]
fn as_given_order_is_the_default_behavior() {
    let tree = build_tree(1_000, 51);
    let queries = random_queries(64, 52);
    let default = par_knn_batch(&tree, &queries, 4, NnOptions::default(), &MbrRefiner, 4).unwrap();
    let as_given = batch(&tree, &queries, 4, 4, JoinOrder::AsGiven);
    assert_eq!(dists(&default), dists(&as_given));
}
