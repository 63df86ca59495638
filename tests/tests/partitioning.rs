//! Accounting invariance of the Hilbert-range partitioned scatter-gather
//! path: results and the paper's "pages accessed" figure must not depend
//! on how the dataset is partitioned across trees or how many threads
//! execute the scatter — and at P = 1 the partitioned tree must be
//! *bit-identical* to the plain single tree, structure and counters both.

use nnq_core::{
    forest_batch, partitioned_knn, partitioned_knn_batch, scatter_radius, within_radius_with,
    BatchQuery, JoinOrder, MbrRefiner, Neighbor, NnOptions, NnSearch, PartitionedStats,
    QueryCursor,
};
use nnq_geom::{Point, Rect};
use nnq_rtree::{BulkMethod, PartitionedTree, RTree, RTreeConfig, RecordId, TreeAccess};
use nnq_serve::{Client, Engine, Request, Response, ServeConfig};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points, uniform_queries};
use std::net::TcpListener;
use std::sync::Arc;

/// Pool big enough that every partition stays resident.
const POOL_FRAMES: usize = 1 << 14;

fn dataset() -> Vec<(Rect<2>, RecordId)> {
    points_to_items(&uniform_points(8_000, &default_bounds(), 77))
}

/// Resets every partition's pool counters.
fn reset_stats(tree: &PartitionedTree<2>) {
    for part in tree.partitions() {
        part.pool().reset_stats();
    }
}

/// Logical reads summed over every partition's pool.
fn logical_reads(tree: &PartitionedTree<2>) -> u64 {
    let pools = tree.partitions().iter().map(RTree::pool);
    pools.map(|pool| pool.stats().logical_reads).sum()
}

fn single_tree() -> RTree<2> {
    let pool = Arc::new(BufferPool::new(
        Box::new(MemDisk::new(PAGE_SIZE)),
        POOL_FRAMES,
    ));
    RTree::<2>::bulk_load(
        pool,
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
        POOL_FRAMES,
        1,
    )
    .unwrap()
}

/// A comparable fingerprint of a result list: record ids plus the exact
/// bit pattern of each squared distance.
fn key(results: &[Neighbor<2>]) -> Vec<(u64, u64)> {
    results
        .iter()
        .map(|n| (n.record.0, n.dist_sq.to_bits()))
        .collect()
}

#[test]
fn partitioned_knn_matches_single_tree_across_p_and_threads() {
    let reference = single_tree();
    let search = NnSearch::new(&reference);
    let mut cursor = QueryCursor::new();
    let queries = uniform_queries(120, &default_bounds(), 78);
    let k = 10;
    let expected: Vec<_> = queries
        .iter()
        .map(|q| {
            key(&search
                .query_refined_with(&mut cursor, q, k, &MbrRefiner)
                .unwrap()
                .0)
        })
        .collect();

    for p in [1, 4] {
        let tree = parted(p);
        for threads in [1, 8] {
            for (q, want) in queries.iter().zip(&expected) {
                let (found, stats) =
                    partitioned_knn(&tree, q, k, NnOptions::default(), &MbrRefiner, threads)
                        .unwrap();
                assert_eq!(&key(&found), want, "P={p} threads={threads} q={q:?}");
                assert_eq!(
                    stats.partitions_visited + stats.partitions_pruned,
                    p as u64,
                    "partition accounting must cover every partition exactly once"
                );
            }
        }
    }
}

#[test]
fn partitioned_per_query_page_accounting_is_thread_invariant() {
    let queries = uniform_queries(80, &default_bounds(), 79);
    let k = 8;
    for p in [1, 4] {
        let tree = parted(p);
        // Reference pass: per-query logical reads and full PartitionedStats
        // at threads = 1.
        let mut ref_pages = Vec::with_capacity(queries.len());
        let mut ref_stats: Vec<PartitionedStats> = Vec::with_capacity(queries.len());
        for q in &queries {
            reset_stats(&tree);
            let (_, stats) =
                partitioned_knn(&tree, q, k, NnOptions::default(), &MbrRefiner, 1).unwrap();
            ref_pages.push(logical_reads(&tree));
            ref_stats.push(stats);
        }
        // The scatter is round-scheduled with a bound snapshot per round,
        // so every counter — nodes visited, prunes, partitions visited,
        // rounds, and the pool's logical reads — is exactly reproduced at
        // any thread count.
        for threads in [2, 8] {
            for ((q, &pages), want) in queries.iter().zip(&ref_pages).zip(&ref_stats) {
                reset_stats(&tree);
                let (_, stats) =
                    partitioned_knn(&tree, q, k, NnOptions::default(), &MbrRefiner, threads)
                        .unwrap();
                assert_eq!(stats, *want, "P={p} threads={threads}");
                assert_eq!(
                    logical_reads(&tree),
                    pages,
                    "P={p} threads={threads}: pages accessed moved with thread count"
                );
            }
        }
    }
}

#[test]
fn single_partition_accounting_is_bit_identical_to_single_tree() {
    let reference = single_tree();
    let tree = parted(1);
    let search = NnSearch::new(&reference);
    let mut cursor = QueryCursor::new();
    let queries = uniform_queries(100, &default_bounds(), 80);
    let k = 10;
    for q in &queries {
        reference.pool().reset_stats();
        let (want, want_stats) = search
            .query_refined_with(&mut cursor, q, k, &MbrRefiner)
            .unwrap();
        let want_pages = reference.pool().stats().logical_reads;

        reset_stats(&tree);
        let (found, stats) =
            partitioned_knn(&tree, q, k, NnOptions::default(), &MbrRefiner, 1).unwrap();
        // Same records, same distances, same per-query search counters,
        // same page accesses: with one partition the scatter degenerates
        // to the plain branch-and-bound traversal of an identical tree.
        assert_eq!(key(&found), key(&want));
        assert_eq!(stats.search, want_stats);
        assert_eq!(logical_reads(&tree), want_pages);
        assert_eq!(stats.partitions_visited, 1);
        assert_eq!(stats.partitions_pruned, 0);
    }
}

#[test]
fn partitioned_radius_matches_single_tree() {
    let reference = single_tree();
    let queries = uniform_queries(40, &default_bounds(), 81);
    for p in [1, 4] {
        let tree = parted(p);
        for radius in [0.0, 3_000.0, 25_000.0] {
            for threads in [1, 8] {
                for q in &queries {
                    let (want, _) = within_radius_with(
                        &reference,
                        q,
                        radius,
                        &MbrRefiner,
                        nnq_core::KernelMode::default(),
                    )
                    .unwrap();
                    let (found, stats) = scatter_radius(
                        tree.partitions(),
                        q,
                        radius,
                        NnOptions::default(),
                        &MbrRefiner,
                        threads,
                    )
                    .unwrap();
                    assert_eq!(
                        key(&found),
                        key(&want),
                        "P={p} r={radius} threads={threads}"
                    );
                    assert_eq!(stats.partitions_visited + stats.partitions_pruned, p as u64);
                }
            }
        }
    }
}

#[test]
fn partitioned_batch_sums_per_query_stats_and_is_thread_invariant() {
    let tree = parted(4);
    let queries = uniform_queries(150, &default_bounds(), 82);
    let k = 6;

    // Expected: each query individually, stats accumulated by hand.
    let mut want_results = Vec::with_capacity(queries.len());
    let mut want_totals = PartitionedStats::default();
    for q in &queries {
        let (found, stats) =
            partitioned_knn(&tree, q, k, NnOptions::default(), &MbrRefiner, 1).unwrap();
        want_results.push(key(&found));
        want_totals.accumulate(&stats);
    }

    for threads in [1, 2, 8] {
        reset_stats(&tree);
        let (results, totals) = partitioned_knn_batch(
            &tree,
            &queries,
            k,
            NnOptions::default(),
            &MbrRefiner,
            threads,
        )
        .unwrap();
        let got: Vec<_> = results.iter().map(|r| key(r)).collect();
        assert_eq!(got, want_results, "threads={threads}");
        assert_eq!(totals, want_totals, "threads={threads}");
    }
}

#[test]
fn a_claim_block_override_moves_no_answer_or_page_of_a_partitioned_batch() {
    let queries = uniform_queries(120, &default_bounds(), 84);
    let reqs: Vec<BatchQuery<2>> = queries
        .iter()
        .map(|&q| BatchQuery::Knn { q, k: 5 })
        .collect();
    for p in [1, 4] {
        let tree = parted(p);
        let run = |threads, block| {
            reset_stats(&tree);
            let (answers, bstats) = forest_batch(
                tree.partitions(),
                &reqs,
                NnOptions::default(),
                &MbrRefiner,
                threads,
                JoinOrder::AsGiven,
                block,
            )
            .unwrap();
            let answers: Vec<_> = answers.iter().map(|(hits, s)| (key(hits), *s)).collect();
            (answers, logical_reads(&tree), bstats)
        };
        let (want, want_pages, _) = run(1, None);
        assert!(want_pages > 0);
        for block in [1, 7, 64, 1000] {
            let (got, pages, bstats) = run(8, Some(block));
            assert_eq!(
                bstats.block, block,
                "P={p}: claim-block override not applied"
            );
            assert_eq!(got, want, "P={p} block={block}: answers moved");
            assert_eq!(
                pages, want_pages,
                "P={p} block={block}: pages accessed moved"
            );
        }
    }
}

#[test]
fn insert_many_is_equivalent_to_per_record_inserts() {
    let items = points_to_items(&uniform_points(2_000, &default_bounds(), 83));

    let pool_a = Arc::new(BufferPool::new(
        Box::new(MemDisk::new(PAGE_SIZE)),
        POOL_FRAMES,
    ));
    let one_by_one = RTree::<2>::create(pool_a, RTreeConfig::default()).unwrap();
    for (mbr, rid) in &items {
        one_by_one.insert(mbr, *rid).unwrap();
    }

    let pool_b = Arc::new(BufferPool::new(
        Box::new(MemDisk::new(PAGE_SIZE)),
        POOL_FRAMES,
    ));
    let batched = RTree::<2>::create(pool_b, RTreeConfig::default()).unwrap();
    for chunk in items.chunks(64) {
        batched.insert_many(chunk).unwrap();
    }

    assert_eq!(one_by_one.len(), batched.len());
    assert_eq!(one_by_one.height(), batched.height());
    let qs = uniform_queries(60, &default_bounds(), 84);
    let sa = NnSearch::new(&one_by_one);
    let sb = NnSearch::new(&batched);
    let mut ca = QueryCursor::new();
    let mut cb = QueryCursor::new();
    for q in &qs {
        let (ra, stats_a) = sa.query_refined_with(&mut ca, q, 7, &MbrRefiner).unwrap();
        let (rb, stats_b) = sb.query_refined_with(&mut cb, q, 7, &MbrRefiner).unwrap();
        // The batched txn replays the identical insert sequence inside one
        // commit, so the trees are structurally the same: identical
        // results *and* identical traversal counters.
        assert_eq!(key(&ra), key(&rb));
        assert_eq!(stats_a, stats_b);
    }
}

/// A partition bounds itself by its committed root MBR, not by the region
/// it was built for: a record written through partition 0 deep inside
/// partition 3's region is found by every read path, the served one too.
#[test]
fn a_write_outside_its_partitions_build_bound_is_found_by_every_read_path() {
    let tree = parted(4);
    let (first, last) = (&tree.partitions()[0], &tree.partitions()[3]);
    let p = last.bounds().center();
    assert!(!first.bounds().contains_point(&p));
    let rid = RecordId(9_000_000);
    first.insert(&Rect::from_point(p), rid).unwrap();
    assert!(first.bounds().contains_point(&p));

    let q = Point::new([p[0] + 0.375, p[1] - 0.5]);
    let opts = NnOptions::default();
    let (found, _) = partitioned_knn(&tree, &q, 1, opts, &MbrRefiner, 2).unwrap();
    assert_eq!(found[0].record, rid, "partitioned_knn");
    let records = |found: &[Neighbor<2>]| found.iter().map(|n| n.record).collect::<Vec<_>>();
    let (found, _) = scatter_radius(tree.partitions(), &q, 1.0, opts, &MbrRefiner, 2).unwrap();
    assert_eq!(records(&found), [rid], "scatter_radius");
    let reqs = [
        BatchQuery::Knn { q, k: 1 },
        BatchQuery::Radius { q, radius: 1.0 },
    ];
    let (answers, _) = forest_batch(
        tree.partitions(),
        &reqs,
        opts,
        &MbrRefiner,
        2,
        JoinOrder::AsGiven,
        None,
    )
    .unwrap();
    for (answer, what) in answers.iter().zip(["kNN", "radius"]) {
        assert_eq!(records(&answer.0), [rid], "forest_batch {what}");
    }

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig::default();
    std::thread::scope(|scope| {
        let tree = &tree;
        let server = scope.spawn(move || {
            nnq_serve::serve(
                &Engine::Partitioned(tree.partitions()),
                &MbrRefiner,
                listener,
                &config,
            )
            .unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        let (x, y) = (q[0], q[1]);
        let served = client.call(&Request::Knn { id: 1, x, y, k: 1 }).unwrap();
        let Response::Ok { hits, .. } = served else {
            panic!("expected ok, got {served:?}");
        };
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].record, rid.0, "served");
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        server.join().unwrap();
    });
}
