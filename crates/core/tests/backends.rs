//! Backend-agnostic behaviour: the NN algorithms must return identical
//! answers over paged and in-memory trees.

use nnq_core::{
    best_first_knn, linear_scan_knn, scan_items_knn, IncrementalNn, MbrRefiner, NnSearch,
};
use nnq_geom::{Point, Rect};
use nnq_rtree::{BulkMethod, MemRTree, RTree, RTreeConfig, RecordId};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_items(n: usize, seed: u64) -> Vec<(Rect<2>, RecordId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let p = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            (Rect::from_point(p), RecordId(i as u64))
        })
        .collect()
}

fn paged_tree(items: &[(Rect<2>, RecordId)]) -> RTree<2> {
    let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 8192));
    let tree = RTree::create(pool, RTreeConfig::default()).unwrap();
    for (mbr, rid) in items {
        tree.insert(mbr, *rid).unwrap();
    }
    tree
}

fn mem_tree(items: &[(Rect<2>, RecordId)]) -> MemRTree<2> {
    let tree = MemRTree::new();
    for (mbr, rid) in items {
        tree.insert(mbr, *rid).unwrap();
    }
    tree
}

#[test]
fn mem_tree_supports_full_lifecycle() {
    let items = random_items(3_000, 1);
    let tree = mem_tree(&items);
    assert_eq!(tree.len(), 3_000);
    tree.validate_strict().unwrap();
    // Delete a third, still valid, queries still exact.
    for (mbr, rid) in &items[..1_000] {
        tree.delete(mbr, *rid).unwrap();
    }
    tree.validate().unwrap();
    assert_eq!(tree.len(), 2_000);
    let q = Point::new([50.0, 50.0]);
    let got = NnSearch::new(&tree).query(&q, 5).unwrap();
    let want = scan_items_knn(&items[1_000..], &q, 5, &MbrRefiner);
    assert_eq!(
        got.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
        want.iter().map(|n| n.dist_sq).collect::<Vec<_>>()
    );
}

#[test]
fn all_algorithms_agree_across_backends() {
    let items = random_items(5_000, 2);
    let paged = paged_tree(&items);
    let mem = mem_tree(&items);
    let bulk_mem =
        MemRTree::bulk(items.clone(), BulkMethod::Str, RTreeConfig::default(), 32).unwrap();
    bulk_mem.validate().unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..25 {
        let q = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
        let truth: Vec<f64> = scan_items_knn(&items, &q, 7, &MbrRefiner)
            .iter()
            .map(|n| n.dist_sq)
            .collect();
        for dists in [
            NnSearch::new(&paged)
                .query(&q, 7)
                .unwrap()
                .iter()
                .map(|n| n.dist_sq)
                .collect::<Vec<_>>(),
            NnSearch::new(&mem)
                .query(&q, 7)
                .unwrap()
                .iter()
                .map(|n| n.dist_sq)
                .collect::<Vec<_>>(),
            NnSearch::new(&bulk_mem)
                .query(&q, 7)
                .unwrap()
                .iter()
                .map(|n| n.dist_sq)
                .collect::<Vec<_>>(),
            best_first_knn(&mem, &q, 7, &MbrRefiner)
                .unwrap()
                .0
                .iter()
                .map(|n| n.dist_sq)
                .collect::<Vec<_>>(),
            IncrementalNn::new(&mem, q, MbrRefiner)
                .take(7)
                .collect::<nnq_core::Result<Vec<_>>>()
                .unwrap()
                .iter()
                .map(|n| n.dist_sq)
                .collect::<Vec<_>>(),
            linear_scan_knn(&mem, &q, 7, &MbrRefiner)
                .unwrap()
                .0
                .iter()
                .map(|n| n.dist_sq)
                .collect::<Vec<_>>(),
        ] {
            assert_eq!(dists, truth);
        }
    }
}

#[test]
fn radius_queries_agree_across_backends() {
    let items = random_items(3_000, 11);
    let paged = paged_tree(&items);
    let mem = mem_tree(&items);
    let q = Point::new([33.0, 66.0]);
    for radius in [0.5, 3.0, 10.0] {
        let (a, _) = nnq_core::within_radius(&paged, &q, radius, &MbrRefiner).unwrap();
        let (b, _) = nnq_core::within_radius(&mem, &q, radius, &MbrRefiner).unwrap();
        assert_eq!(
            a.iter().map(|n| (n.record, n.dist_sq)).collect::<Vec<_>>(),
            b.iter().map(|n| (n.record, n.dist_sq)).collect::<Vec<_>>()
        );
    }
}
