//! An unpartitioned tree is a forest of one (DESIGN.md §"Partitioned
//! trees"): every batch entry point runs it through the one scatter-gather
//! executor, bounded by its committed root MBR. That must be invisible:
//! hits (records and distance bits), every `SearchStats` counter and the
//! pages read equal the plain single-tree traversal's, for the empty tree
//! too, and the bound keeps seeing whatever is written to the tree after
//! the forest was formed.

use nnq_core::{
    forest_batch, forest_batch_dedup, par_knn_batch, par_knn_batch_stats, par_mixed_batch_dedup,
    partitioned_knn_batch, within_radius, BatchQuery, JoinOrder, MbrRefiner, Neighbor, NnOptions,
    NnSearch, SearchStats,
};
use nnq_geom::{Point, Rect};
use nnq_rtree::{BulkMethod, Forest, PartitionedTree, RTree, RTreeConfig, RecordId};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points, uniform_queries};
use std::sync::Arc;

type Answer = (Vec<Neighbor<2>>, SearchStats);

fn items(n: usize) -> Vec<(Rect<2>, RecordId)> {
    points_to_items(&uniform_points(n, &default_bounds(), 151))
}

/// A Hilbert-loaded tree of `n` uniform points (the same tree for the same
/// `n`), on a pool that holds all of it.
fn tree(n: usize) -> RTree<2> {
    let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 13));
    let (config, method) = (RTreeConfig::default(), BulkMethod::Hilbert);
    RTree::<2>::bulk_load(pool, config, items(n), method, 1.0).unwrap()
}

fn requests() -> Vec<BatchQuery<2>> {
    let queries = uniform_queries(90, &default_bounds(), 152);
    let mut reqs: Vec<BatchQuery<2>> = queries
        .iter()
        .enumerate()
        .map(|(i, &q)| match i % 3 {
            2 => BatchQuery::Radius {
                q,
                radius: 500.0 + 400.0 * (i % 4) as f64,
            },
            _ => BatchQuery::Knn { q, k: 1 + i % 9 },
        })
        .collect();
    // Duplicates, for the deduplicating entry points to merge.
    reqs.extend_from_within(..10);
    reqs
}

/// The plain traversal of every request on `tree`, and the pages it read.
fn reference(tree: &RTree<2>, reqs: &[BatchQuery<2>]) -> (Vec<Answer>, u64) {
    tree.pool().reset_stats();
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
    (answers, tree.pool().stats().logical_reads)
}

fn bits(hits: &[Neighbor<2>]) -> Vec<(u64, u64)> {
    hits.iter()
        .map(|n| (n.record.0, n.dist_sq.to_bits()))
        .collect()
}

fn same_answers(got: &[Answer], want: &[Answer], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.1, w.1, "{what}: stats of request {i}");
        assert_eq!(bits(&g.0), bits(&w.0), "{what}: hits of request {i}");
    }
}

#[test]
fn every_batch_entry_point_over_one_tree_is_the_single_tree() {
    let all = requests();
    let knn: Vec<BatchQuery<2>> = all
        .iter()
        .filter(|r| matches!(r, BatchQuery::Knn { .. }))
        .copied()
        .collect();
    let points: Vec<Point<2>> = knn.iter().map(|r| *r.point()).collect();
    let opts = NnOptions::default();
    for n in [12_000, 0] {
        let single = tree(n);
        let (want, want_pages) = reference(&single, &all);
        let (want_knn, knn_pages) = reference(&single, &knn);
        assert_eq!(want_pages == 0, n == 0);
        // The same tree again, as the one partition of a partitioned tree:
        // bounded by its data's MBR, which an empty tree leaves empty.
        let (config, method) = (RTreeConfig::default(), BulkMethod::Hilbert);
        let p1 = PartitionedTree::bulk_load_in_memory(items(n), 1, config, method, 1.0, 1 << 13, 1)
            .unwrap();
        let pool = single.pool();
        let forest = Forest::of_one(&single);
        for threads in [1, 4] {
            let what = |entry: &str| format!("n={n} threads={threads} {entry}");
            let search = |answers: Vec<(Vec<Neighbor<2>>, nnq_core::PartitionedStats)>| {
                let answers = answers.into_iter().map(|(hits, s)| (hits, s.search));
                answers.collect::<Vec<Answer>>()
            };
            let k_of = |i: usize| match knn[i] {
                BatchQuery::Knn { k, .. } => k,
                BatchQuery::Radius { .. } => unreachable!(),
            };

            // The kNN-only entry points take one k: run them per k.
            for k in 1..=9 {
                let idx: Vec<usize> = (0..knn.len()).filter(|&i| k_of(i) == k).collect();
                let qs: Vec<Point<2>> = idx.iter().map(|&i| points[i]).collect();
                let hits = par_knn_batch(&single, &qs, k, opts, &MbrRefiner, threads).unwrap();
                let (stat_hits, bstats) =
                    par_knn_batch_stats(&single, &qs, k, opts, &MbrRefiner, threads).unwrap();
                assert_eq!(bstats.executed, qs.len(), "{}", what("par_knn_batch_stats"));
                let (part_hits, totals) =
                    partitioned_knn_batch(&p1, &qs, k, opts, &MbrRefiner, threads).unwrap();
                let mut want_totals = SearchStats::default();
                for (j, &i) in idx.iter().enumerate() {
                    let want_bits = bits(&want_knn[i].0);
                    assert_eq!(bits(&hits[j]), want_bits, "{}", what("par_knn_batch"));
                    assert_eq!(
                        bits(&stat_hits[j]),
                        want_bits,
                        "{}",
                        what("par_knn_batch_stats")
                    );
                    assert_eq!(
                        bits(&part_hits[j]),
                        want_bits,
                        "{}",
                        what("partitioned_knn_batch")
                    );
                    want_totals.accumulate(&want_knn[i].1);
                }
                assert_eq!(
                    totals.search,
                    want_totals,
                    "{}",
                    what("partitioned_knn_batch")
                );
                let visited = if n == 0 { 0 } else { qs.len() as u64 };
                assert_eq!(totals.partitions_visited, visited);
                assert_eq!(totals.partitions_pruned, qs.len() as u64 - visited);
            }

            pool.reset_stats();
            let (got, _) = forest_batch(
                forest,
                &knn,
                opts,
                &MbrRefiner,
                threads,
                JoinOrder::Hilbert,
                None,
            )
            .unwrap();
            same_answers(&search(got), &want_knn, &what("forest_batch, kNN"));
            assert_eq!(
                pool.stats().logical_reads,
                knn_pages,
                "{}",
                what("forest_batch")
            );

            pool.reset_stats();
            let (got, _) = forest_batch(
                forest,
                &all,
                opts,
                &MbrRefiner,
                threads,
                JoinOrder::AsGiven,
                None,
            )
            .unwrap();
            same_answers(&search(got), &want, &what("forest_batch, mixed"));
            assert_eq!(
                pool.stats().logical_reads,
                want_pages,
                "{}",
                what("forest_batch")
            );

            let (got, bstats) = forest_batch_dedup(
                forest,
                &all,
                opts,
                &MbrRefiner,
                threads,
                JoinOrder::Hilbert,
                Some(3),
            )
            .unwrap();
            same_answers(&search(got), &want, &what("forest_batch_dedup"));
            assert_eq!(
                bstats.executed,
                all.len() - 10,
                "{}",
                what("forest_batch_dedup")
            );

            let (got, _) = par_mixed_batch_dedup(
                &single,
                &all,
                opts,
                &MbrRefiner,
                threads,
                JoinOrder::Hilbert,
                None,
            )
            .unwrap();
            same_answers(&got, &want, &what("par_mixed_batch_dedup"));
        }
    }
}

#[test]
fn a_forest_of_one_keeps_seeing_what_is_written_after_it_was_formed() {
    // Writes far outside the data's extent, and into a tree that was empty
    // when its forest was formed: a bound frozen when the forest was formed
    // would prune both.
    let far = Point::new([9.0e6, -9.0e6]);
    for n in [3_000, 0] {
        let single = &tree(n);
        let forest = Forest::of_one(single);
        for i in 0..5u64 {
            let p = Point::new([far[0] + i as f64, far[1]]);
            single
                .insert(&Rect::from_point(p), RecordId(1_000_000 + i))
                .unwrap();
        }
        let want = NnSearch::new(single)
            .query_refined(&far, 3, &MbrRefiner)
            .unwrap();
        assert_eq!(
            bits(&want.0).iter().map(|h| h.0).collect::<Vec<_>>(),
            [1_000_000, 1_000_001, 1_000_002]
        );
        let reqs = [
            BatchQuery::Knn { q: far, k: 3 },
            BatchQuery::Radius {
                q: far,
                radius: 2.5,
            },
        ];
        let (got, _) = forest_batch(
            forest,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            2,
            JoinOrder::AsGiven,
            None,
        )
        .unwrap();
        assert_eq!(bits(&got[0].0), bits(&want.0), "n={n}");
        assert_eq!(got[0].1.search, want.1, "n={n}");
        assert_eq!(got[1].0.len(), 3, "n={n}");
        let opts = NnOptions::default();
        let hits = par_knn_batch(single, &[far], 3, opts, &MbrRefiner, 1).unwrap();
        assert_eq!(bits(&hits[0]), bits(&want.0), "n={n}");
    }
}
