//! Kernel-mode equivalence: every traversal must produce **bit-identical**
//! results and work counters under `KernelMode::Scalar` and
//! `KernelMode::Batch`. Any divergence here means the batch kernels
//! changed traversal order or pruning decisions — a contract violation
//! even if the returned neighbors happen to coincide.

use nnq_core::{
    best_first_knn, intersection_join, within_radius_with, AblOrdering, IncrementalNn, KernelMode,
    MbrRefiner, Neighbor, NnOptions, NnSearch,
};
use nnq_geom::{Point, Rect};
use nnq_rtree::{MemRTree, RTree, RTreeConfig, RecordId};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A mix of points, degenerate-axis rectangles, and extended rectangles —
/// the shapes where floating-point ties are most likely.
fn random_items(n: usize, seed: u64) -> Vec<(Rect<2>, RecordId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x = rng.random_range(0.0..100.0);
            let y = rng.random_range(0.0..100.0);
            let r = match i % 3 {
                0 => Rect::from_point(Point::new([x, y])),
                1 => Rect::new(
                    Point::new([x, y]),
                    Point::new([x + rng.random_range(0.0..3.0), y]),
                ),
                _ => Rect::new(
                    Point::new([x, y]),
                    Point::new([
                        x + rng.random_range(0.0..3.0),
                        y + rng.random_range(0.0..3.0),
                    ]),
                ),
            };
            (r, RecordId(i as u64))
        })
        .collect()
}

fn mem_tree(items: &[(Rect<2>, RecordId)]) -> MemRTree<2> {
    let tree = MemRTree::new();
    for (mbr, rid) in items {
        tree.insert(mbr, *rid).unwrap();
    }
    tree
}

fn paged_tree(items: &[(Rect<2>, RecordId)]) -> RTree<2> {
    let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 8192));
    let tree = RTree::create(pool, RTreeConfig::default()).unwrap();
    for (mbr, rid) in items {
        tree.insert(mbr, *rid).unwrap();
    }
    tree
}

/// The default options under the scalar and the batch kernel.
fn kernel_options() -> (NnOptions, NnOptions) {
    (
        NnOptions::with_kernel(KernelMode::Scalar),
        NnOptions::with_kernel(KernelMode::Batch),
    )
}

/// Exact comparison: same records, same MBRs, same distance **bits**.
fn assert_same_neighbors(a: &[Neighbor<2>], b: &[Neighbor<2>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: result count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.record, y.record, "{what}: record order");
        assert_eq!(x.mbr, y.mbr, "{what}: mbr");
        assert_eq!(
            x.dist_sq.to_bits(),
            y.dist_sq.to_bits(),
            "{what}: distance bits for {:?}",
            x.record
        );
    }
}

#[test]
fn branch_and_bound_identical_across_kernels_all_option_variants() {
    let items = random_items(4_000, 11);
    let tree = mem_tree(&items);
    let variants: Vec<(&str, NnOptions)> = vec![
        ("default", NnOptions::default()),
        (
            "minmax-order",
            NnOptions::with_ordering(AblOrdering::MinMaxDist),
        ),
        ("no-pruning", NnOptions::no_pruning()),
        (
            "s1-off",
            NnOptions {
                prune_downward: false,
                ..NnOptions::default()
            },
        ),
        (
            "s2-off",
            NnOptions {
                prune_object: false,
                ..NnOptions::default()
            },
        ),
        (
            "s3-off",
            NnOptions {
                prune_upward: false,
                ..NnOptions::default()
            },
        ),
        ("approx", NnOptions::approximate(0.5)),
    ];
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..15 {
        let q = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
        for (name, opts) in &variants {
            for k in [1usize, 7, 25] {
                let scalar = NnSearch::with_options(
                    &tree,
                    NnOptions {
                        kernel: KernelMode::Scalar,
                        ..*opts
                    },
                );
                let batch = NnSearch::with_options(
                    &tree,
                    NnOptions {
                        kernel: KernelMode::Batch,
                        ..*opts
                    },
                );
                let (ns, ss) = scalar.query_with_stats(&q, k).unwrap();
                let (nb, sb) = batch.query_with_stats(&q, k).unwrap();
                assert_same_neighbors(&ns, &nb, name);
                assert_eq!(ss, sb, "{name} k={k}: SearchStats diverged");
            }
        }
    }
}

#[test]
fn best_first_identical_across_kernels() {
    let items = random_items(3_000, 21);
    let tree = paged_tree(&items);
    let (scalar, batch) = kernel_options();
    let mut rng = StdRng::seed_from_u64(22);
    for _ in 0..20 {
        let q = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
        for k in [1usize, 9] {
            let (ns, ss) = best_first_knn(&tree, &q, k, scalar, &MbrRefiner).unwrap();
            let (nb, sb) = best_first_knn(&tree, &q, k, batch, &MbrRefiner).unwrap();
            assert_same_neighbors(&ns, &nb, "best-first");
            assert_eq!(ss, sb, "best-first stats");
        }
    }
}

#[test]
fn radius_identical_across_kernels() {
    let items = random_items(3_000, 31);
    let tree = mem_tree(&items);
    let (scalar, batch) = kernel_options();
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..20 {
        let q = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
        for radius in [0.0, 1.5, 8.0] {
            let (ns, ss) =
                within_radius_with(&tree, &q, radius, &MbrRefiner, scalar.kernel).unwrap();
            let (nb, sb) =
                within_radius_with(&tree, &q, radius, &MbrRefiner, batch.kernel).unwrap();
            assert_same_neighbors(&ns, &nb, "radius");
            assert_eq!(ss, sb, "radius stats");
        }
    }
}

#[test]
fn incremental_identical_across_kernels() {
    let items = random_items(2_000, 51);
    let tree = mem_tree(&items);
    let q = Point::new([37.0, 59.0]);
    let (scalar, batch) = kernel_options();
    let mut scalar = IncrementalNn::new(&tree, q, scalar, MbrRefiner);
    let mut batch = IncrementalNn::new(&tree, q, batch, MbrRefiner);
    let ns: Vec<Neighbor<2>> = scalar
        .by_ref()
        .take(500)
        .collect::<nnq_core::Result<_>>()
        .unwrap();
    let nb: Vec<Neighbor<2>> = batch
        .by_ref()
        .take(500)
        .collect::<nnq_core::Result<_>>()
        .unwrap();
    assert_same_neighbors(&ns, &nb, "incremental");
    assert_eq!(scalar.stats(), batch.stats(), "incremental stats");
}

#[test]
fn intersection_join_identical_across_kernels() {
    let a = mem_tree(&random_items(1_500, 61));
    let b = mem_tree(&random_items(1_200, 62));
    let (scalar, batch) = kernel_options();
    let (ps, ss) = intersection_join(&a, &b, scalar).unwrap();
    let (pb, sb) = intersection_join(&a, &b, batch).unwrap();
    // Pair-for-pair, in the same order — not just as sets.
    assert_eq!(ps, pb, "join pairs diverged");
    assert_eq!(ss, sb, "join stats diverged");
    assert!(ss.pairs > 0, "test should produce some pairs");
}
