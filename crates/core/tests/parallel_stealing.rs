//! Load-imbalance behavior of the work-stealing batch scheduler: a batch
//! in which one query is ~100× more expensive than the rest must not
//! serialize behind that query's worker, and must return bit-identical
//! results to the sequential run.

use nnq_core::{
    forest_batch, par_knn_batch, par_knn_batch_stats, BatchQuery, FnRefiner, JoinOrder, NnOptions,
};
use nnq_geom::{Point, Rect};
use nnq_rtree::{Forest, MemRTree, RecordId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The sentinel query point whose refinement is made artificially
/// expensive (outside the data's [0, 100]² world, so it is unambiguous).
const EXPENSIVE: [f64; 2] = [-1000.0, -1000.0];

fn build(n: usize) -> (MemRTree<2>, Vec<Point<2>>) {
    let mut rng = StdRng::seed_from_u64(77);
    let tree = MemRTree::new();
    for i in 0..n {
        let p = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
        tree.insert(&Rect::from_point(p), RecordId(i as u64))
            .unwrap();
    }
    let mut queries: Vec<Point<2>> = (0..256)
        .map(|_| Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
        .collect();
    // One pathological query leading the batch: the worst position for a
    // static chunker, which would hand its whole chunk to the same worker.
    queries.insert(0, Point::new(EXPENSIVE));
    (tree, queries)
}

/// A point's coordinates as hashable bits.
fn point_bits(p: &Point<2>) -> [u64; 2] {
    p.coords().map(f64::to_bits)
}

/// A refiner that burns ~100× the normal per-object work for the sentinel
/// query point, simulating a query that is two orders of magnitude more
/// expensive than its batch-mates.
fn imbalanced_refiner() -> FnRefiner<impl Fn(RecordId, &Rect<2>, &Point<2>) -> f64> {
    FnRefiner::new(|_rid: RecordId, mbr: &Rect<2>, q: &Point<2>| {
        let base = nnq_geom::mindist_sq(q, mbr);
        if q.coords() == &EXPENSIVE {
            let mut acc = base;
            for i in 0..20_000u64 {
                acc += black_box(i as f64).sqrt().sin();
            }
            // The perturbation is discarded: only the cost differs.
            black_box(acc);
        }
        base
    })
}

#[test]
fn imbalanced_batch_results_are_bit_identical_to_sequential() {
    let (tree, queries) = build(4_000);
    let refiner = imbalanced_refiner();
    let seq = par_knn_batch(&tree, &queries, 5, NnOptions::default(), &refiner, 1).unwrap();
    for threads in [2, 4, 8] {
        let par =
            par_knn_batch(&tree, &queries, 5, NnOptions::default(), &refiner, threads).unwrap();
        assert_eq!(par.len(), seq.len());
        for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
            assert_eq!(
                a.iter().map(|n| (n.record, n.dist_sq)).collect::<Vec<_>>(),
                b.iter().map(|n| (n.record, n.dist_sq)).collect::<Vec<_>>(),
                "query {i} differs at threads={threads}"
            );
        }
    }
}

#[test]
fn stealing_spreads_an_imbalanced_batch() {
    let (tree, queries) = build(4_000);
    let refiner = imbalanced_refiner();
    let threads = 4;
    let (_, stats) =
        par_knn_batch_stats(&tree, &queries, 5, NnOptions::default(), &refiner, threads).unwrap();
    assert_eq!(
        stats.per_worker_queries.iter().sum::<usize>(),
        queries.len()
    );
    // Blocks are small, so even the worker stuck on the expensive query
    // claimed at most one block blind; a static chunker would have pinned
    // len/threads ≈ 64 queries behind it.
    assert!(stats.block <= 32, "block {} too coarse", stats.block);
    // With ≥ 2 real cores the other workers drain the batch while one is
    // stuck, so no worker can end up owning everything. (On a single
    // hardware thread the OS may legitimately let one worker finish the
    // queue before the others are scheduled, so only assert there's no
    // starvation-by-design when parallelism exists.)
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 2 {
        let max = *stats.per_worker_queries.iter().max().unwrap();
        assert!(
            max < queries.len(),
            "one worker claimed the whole imbalanced batch: {:?}",
            stats.per_worker_queries
        );
    }
}

#[test]
fn imbalanced_batch_finishes_near_optimal_with_stealing() {
    // With stealing the batch's critical path is max(expensive query,
    // everything else), not expensive + its static chunk. Shown in
    // counters, with the interleaving forced instead of timed: the
    // expensive query does not return before every query outside its own
    // claim block has started, which only happens if the *other* worker
    // claims all those blocks. (A scheduler that had dealt any of them to
    // the stuck worker would never get there; the deadline turns that hang
    // into a failure.)
    let (tree, queries) = build(4_000);
    let (threads, block) = (2, 16);
    let others: HashSet<[u64; 2]> = queries[block..].iter().map(point_bits).collect();
    let started = Mutex::new(HashSet::new());
    let refiner = FnRefiner::new(|_rid: RecordId, mbr: &Rect<2>, q: &Point<2>| {
        if q.coords() == &EXPENSIVE {
            let deadline = Instant::now() + Duration::from_secs(20);
            while started.lock().unwrap().len() < others.len() {
                assert!(Instant::now() < deadline, "the rest of the batch never ran");
                std::thread::yield_now();
            }
        } else if others.contains(&point_bits(q)) {
            started.lock().unwrap().insert(point_bits(q));
        }
        nnq_geom::mindist_sq(q, mbr)
    });

    let reqs: Vec<_> = queries
        .iter()
        .map(|&q| BatchQuery::Knn { q, k: 5 })
        .collect();
    let (results, stats) = forest_batch(
        Forest::of_one(&tree),
        &reqs,
        NnOptions::default(),
        &refiner,
        threads,
        JoinOrder::AsGiven,
        Some(block),
    )
    .unwrap();
    assert_eq!(results.len(), queries.len());
    // The worker stuck on the expensive query ran its one blind claim and
    // nothing else — far from the static chunk of len/threads it would
    // have owned — and the other worker ran all the rest.
    let mut per_worker = stats.per_worker_queries.clone();
    per_worker.sort_unstable();
    assert_eq!(per_worker, [block, queries.len() - block]);
    assert!(block < queries.len() / threads);
}
