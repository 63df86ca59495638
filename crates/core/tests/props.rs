//! Property tests: every configuration of the branch-and-bound search must
//! return exactly the brute-force k nearest neighbors.

use nnq_core::{
    best_first_knn, scan_items_knn, AblOrdering, IncrementalNn, MbrRefiner, NnOptions, NnSearch,
};
use nnq_geom::{Point, Rect};
use nnq_rtree::{BulkMethod, RTree, RTreeConfig, RecordId, SplitStrategy};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use proptest::prelude::*;
use std::sync::Arc;

fn mem_pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 8192))
}

fn build_tree(
    items: &[(Rect<2>, RecordId)],
    split: SplitStrategy,
    fanout: usize,
    bulk: Option<BulkMethod>,
) -> RTree<2> {
    let mut cfg = RTreeConfig::with_split(split);
    cfg.max_entries_override = Some(fanout);
    match bulk {
        Some(method) => RTree::bulk_load(mem_pool(), cfg, items.to_vec(), method, 1.0).unwrap(),
        None => {
            let tree = RTree::create(mem_pool(), cfg).unwrap();
            for (r, id) in items {
                tree.insert(r, *id).unwrap();
            }
            tree
        }
    }
}

fn items_from_points(pts: &[(f64, f64)]) -> Vec<(Rect<2>, RecordId)> {
    pts.iter()
        .enumerate()
        .map(|(i, &(x, y))| (Rect::from_point(Point::new([x, y])), RecordId(i as u64)))
        .collect()
}

fn items_from_rects(rects: &[(f64, f64, f64, f64)]) -> Vec<(Rect<2>, RecordId)> {
    rects
        .iter()
        .enumerate()
        .map(|(i, &(x, y, w, h))| {
            (
                Rect::new(Point::new([x, y]), Point::new([x + w, y + h])),
                RecordId(i as u64),
            )
        })
        .collect()
}

/// Compares by distance only: ties at equal distance may legitimately
/// resolve to different records.
fn assert_same_distances(
    a: &[nnq_core::Neighbor<2>],
    b: &[nnq_core::Neighbor<2>],
) -> Result<(), TestCaseError> {
    let da: Vec<f64> = a.iter().map(|n| n.dist_sq).collect();
    let db: Vec<f64> = b.iter().map(|n| n.dist_sq).collect();
    prop_assert_eq!(da, db);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn knn_equals_brute_force_for_points(
        pts in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..300),
        (qx, qy) in (-20.0..120.0f64, -20.0..120.0f64),
        k in 1usize..12,
        split in prop_oneof![
            Just(SplitStrategy::Linear),
            Just(SplitStrategy::Quadratic),
            Just(SplitStrategy::RStar)
        ],
        fanout in 4usize..10,
        ordering in prop_oneof![Just(AblOrdering::MinDist), Just(AblOrdering::MinMaxDist)],
        (s1, s2, s3) in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let items = items_from_points(&pts);
        let tree = build_tree(&items, split, fanout, None);
        let q = Point::new([qx, qy]);
        let truth = scan_items_knn(&items, &q, k, &MbrRefiner);
        let opts = NnOptions { ordering, prune_downward: s1, prune_object: s2, prune_upward: s3, ..NnOptions::default() };
        let got = NnSearch::with_options(&tree, opts).query(&q, k).unwrap();
        assert_same_distances(&got, &truth)?;
    }

    #[test]
    fn knn_equals_brute_force_for_rectangles(
        rects in proptest::collection::vec(
            (0.0..100.0f64, 0.0..100.0f64, 0.0..10.0f64, 0.0..10.0f64), 1..200),
        (qx, qy) in (0.0..100.0f64, 0.0..100.0f64),
        k in 1usize..8,
    ) {
        // Rectangle data exercises the MINDIST=0 (query inside object MBR)
        // paths that point data cannot reach.
        let items = items_from_rects(&rects);
        let tree = build_tree(&items, SplitStrategy::Quadratic, 6, None);
        let q = Point::new([qx, qy]);
        let truth = scan_items_knn(&items, &q, k, &MbrRefiner);
        let got = NnSearch::new(&tree).query(&q, k).unwrap();
        assert_same_distances(&got, &truth)?;
    }

    #[test]
    fn knn_correct_on_bulk_loaded_trees(
        pts in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..300),
        (qx, qy) in (0.0..100.0f64, 0.0..100.0f64),
        k in 1usize..10,
        method in prop_oneof![Just(BulkMethod::Str), Just(BulkMethod::Hilbert)],
    ) {
        let items = items_from_points(&pts);
        let tree = build_tree(&items, SplitStrategy::Quadratic, 8, Some(method));
        let q = Point::new([qx, qy]);
        let truth = scan_items_knn(&items, &q, k, &MbrRefiner);
        let got = NnSearch::new(&tree).query(&q, k).unwrap();
        assert_same_distances(&got, &truth)?;
    }

    #[test]
    fn all_algorithms_agree(
        pts in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..250),
        (qx, qy) in (0.0..100.0f64, 0.0..100.0f64),
        k in 1usize..10,
    ) {
        let items = items_from_points(&pts);
        let tree = build_tree(&items, SplitStrategy::Quadratic, 6, None);
        let q = Point::new([qx, qy]);
        let dfs = NnSearch::new(&tree).query(&q, k).unwrap();
        let (bf, _) = best_first_knn(&tree, &q, k, NnOptions::default(), &MbrRefiner).unwrap();
        let inc: Vec<_> = IncrementalNn::new(&tree, q, NnOptions::default(), MbrRefiner)
            .take(k)
            .collect::<nnq_core::Result<_>>()
            .unwrap();
        assert_same_distances(&dfs, &bf)?;
        assert_same_distances(&dfs, &inc)?;
    }

    #[test]
    fn incremental_distances_never_decrease(
        pts in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1..200),
        (qx, qy) in (0.0..50.0f64, 0.0..50.0f64),
    ) {
        let items = items_from_points(&pts);
        let tree = build_tree(&items, SplitStrategy::Quadratic, 5, None);
        let all: Vec<_> = IncrementalNn::new(&tree, Point::new([qx, qy]), NnOptions::default(), MbrRefiner)
            .collect::<nnq_core::Result<_>>()
            .unwrap();
        prop_assert_eq!(all.len(), items.len());
        for w in all.windows(2) {
            prop_assert!(w[0].dist_sq <= w[1].dist_sq);
        }
    }
}
