//! Behavioural tests for the R-tree: inserts, deletes, queries, bulk
//! loading, and persistence, all cross-checked against brute force.

use nnq_geom::{Point, Rect};
use nnq_rtree::{BulkMethod, RTree, RTreeConfig, RecordId, SplitStrategy, TreeAccess};
use nnq_storage::{BufferPool, FileDisk, MemDisk, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn mem_pool(frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), frames))
}

fn random_points(n: usize, seed: u64) -> Vec<(Rect<2>, RecordId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let p = Point::new([rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)]);
            (Rect::from_point(p), RecordId(i as u64))
        })
        .collect()
}

fn random_rects(n: usize, seed: u64) -> Vec<(Rect<2>, RecordId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x = rng.random_range(0.0..1000.0);
            let y = rng.random_range(0.0..1000.0);
            let w = rng.random_range(0.0..5.0);
            let h = rng.random_range(0.0..5.0);
            (
                Rect::new(Point::new([x, y]), Point::new([x + w, y + h])),
                RecordId(i as u64),
            )
        })
        .collect()
}

fn brute_window(items: &[(Rect<2>, RecordId)], w: &Rect<2>) -> Vec<RecordId> {
    let mut ids: Vec<RecordId> = items
        .iter()
        .filter(|(r, _)| r.intersects(w))
        .map(|&(_, id)| id)
        .collect();
    ids.sort();
    ids
}

fn tree_window(tree: &RTree<2>, w: &Rect<2>) -> Vec<RecordId> {
    let mut ids: Vec<RecordId> = tree
        .window(w)
        .unwrap()
        .into_iter()
        .map(|(_, id)| id)
        .collect();
    ids.sort();
    ids
}

#[test]
fn empty_tree_behaves() {
    let tree = RTree::<2>::create(mem_pool(16), RTreeConfig::default()).unwrap();
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 0);
    assert!(tree.bounds().is_empty());
    assert!(tree
        .window(&Rect::new(Point::new([0.0, 0.0]), Point::new([1.0, 1.0])))
        .unwrap()
        .is_empty());
    tree.validate_strict().unwrap();
}

#[test]
fn single_insert_and_query() {
    let tree = RTree::<2>::create(mem_pool(16), RTreeConfig::default()).unwrap();
    let r = Rect::from_point(Point::new([5.0, 5.0]));
    tree.insert(&r, RecordId(42)).unwrap();
    assert_eq!(tree.len(), 1);
    assert_eq!(tree.height(), 1);
    let hits = tree.point_query(&Point::new([5.0, 5.0])).unwrap();
    assert_eq!(hits, vec![(r, RecordId(42))]);
    assert!(tree
        .point_query(&Point::new([6.0, 5.0]))
        .unwrap()
        .is_empty());
    tree.validate_strict().unwrap();
}

#[test]
fn inserts_grow_a_valid_multilevel_tree() {
    for split in [
        SplitStrategy::Linear,
        SplitStrategy::Quadratic,
        SplitStrategy::RStar,
    ] {
        let mut cfg = RTreeConfig::with_split(split);
        cfg.max_entries_override = Some(8); // force depth
        let tree = RTree::<2>::create(mem_pool(4096), cfg).unwrap();
        let items = random_points(2000, 7);
        for (i, (r, id)) in items.iter().enumerate() {
            tree.insert(r, *id).unwrap();
            if i % 500 == 499 {
                tree.validate_strict()
                    .unwrap_or_else(|e| panic!("{split:?} after {i}: {e}"));
            }
        }
        assert_eq!(tree.len(), 2000);
        assert!(tree.height() >= 3, "{split:?} should build a deep tree");
        tree.validate_strict().unwrap();

        // Window queries match brute force.
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..50 {
            let x = rng.random_range(0.0..900.0);
            let y = rng.random_range(0.0..900.0);
            let w = Rect::new(Point::new([x, y]), Point::new([x + 100.0, y + 60.0]));
            assert_eq!(
                tree_window(&tree, &w),
                brute_window(&items, &w),
                "split {split:?}"
            );
        }
    }
}

#[test]
fn rect_data_round_trips() {
    let tree = RTree::<2>::create(mem_pool(4096), RTreeConfig::for_testing(16)).unwrap();
    let items = random_rects(800, 21);
    for (r, id) in &items {
        tree.insert(r, *id).unwrap();
    }
    tree.validate_strict().unwrap();
    let mut scanned: Vec<RecordId> = tree.scan().unwrap().iter().map(|&(_, id)| id).collect();
    scanned.sort();
    let expected: Vec<RecordId> = (0..800).map(RecordId).collect();
    assert_eq!(scanned, expected);
}

#[test]
fn duplicate_rectangles_coexist() {
    let tree = RTree::<2>::create(mem_pool(256), RTreeConfig::for_testing(8)).unwrap();
    let r = Rect::from_point(Point::new([1.0, 1.0]));
    for i in 0..100 {
        tree.insert(&r, RecordId(i)).unwrap();
    }
    assert_eq!(tree.len(), 100);
    tree.validate_strict().unwrap();
    assert_eq!(
        tree.point_query(&Point::new([1.0, 1.0])).unwrap().len(),
        100
    );
    // Delete a specific duplicate.
    tree.delete(&r, RecordId(57)).unwrap();
    assert_eq!(tree.len(), 99);
    let ids: Vec<u64> = tree
        .point_query(&Point::new([1.0, 1.0]))
        .unwrap()
        .iter()
        .map(|(_, id)| id.0)
        .collect();
    assert!(!ids.contains(&57));
}

#[test]
fn delete_everything_in_random_order() {
    let tree = RTree::<2>::create(mem_pool(4096), RTreeConfig::for_testing(8)).unwrap();
    let mut items = random_points(1000, 3);
    for (r, id) in &items {
        tree.insert(r, *id).unwrap();
    }
    // Shuffle deletion order deterministically.
    let mut rng = StdRng::seed_from_u64(4);
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
    for (i, (r, id)) in items.iter().enumerate() {
        tree.delete(r, *id).unwrap();
        if i % 100 == 99 {
            tree.validate()
                .unwrap_or_else(|e| panic!("after delete {i}: {e}"));
        }
    }
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 0);
    tree.validate().unwrap();
    // The tree can be reused after emptying.
    tree.insert(&Rect::from_point(Point::new([0.0, 0.0])), RecordId(9999))
        .unwrap();
    assert_eq!(tree.len(), 1);
}

#[test]
fn delete_missing_entry_reports_not_found() {
    let tree = RTree::<2>::create(mem_pool(64), RTreeConfig::default()).unwrap();
    let r = Rect::from_point(Point::new([1.0, 1.0]));
    assert!(matches!(
        tree.delete(&r, RecordId(0)),
        Err(nnq_rtree::RTreeError::NotFound)
    ));
    tree.insert(&r, RecordId(0)).unwrap();
    // Right rect, wrong id.
    assert!(matches!(
        tree.delete(&r, RecordId(1)),
        Err(nnq_rtree::RTreeError::NotFound)
    ));
    // Wrong rect, right id.
    let other = Rect::from_point(Point::new([2.0, 2.0]));
    assert!(matches!(
        tree.delete(&other, RecordId(0)),
        Err(nnq_rtree::RTreeError::NotFound)
    ));
    assert_eq!(tree.len(), 1);
}

#[test]
fn interleaved_inserts_and_deletes_match_model() {
    let tree = RTree::<2>::create(mem_pool(4096), RTreeConfig::for_testing(8)).unwrap();
    let mut model: Vec<(Rect<2>, RecordId)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(99);
    let mut next_id = 0u64;
    for step in 0..3000 {
        if model.is_empty() || rng.random_bool(0.6) {
            let p = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            let r = Rect::from_point(p);
            tree.insert(&r, RecordId(next_id)).unwrap();
            model.push((r, RecordId(next_id)));
            next_id += 1;
        } else {
            let idx = rng.random_range(0..model.len());
            let (r, id) = model.swap_remove(idx);
            tree.delete(&r, id).unwrap();
        }
        if step % 500 == 499 {
            tree.validate().unwrap();
            assert_eq!(tree.len(), model.len() as u64);
            let w = Rect::new(Point::new([20.0, 20.0]), Point::new([60.0, 70.0]));
            assert_eq!(tree_window(&tree, &w), brute_window(&model, &w));
        }
    }
}

#[test]
fn bulk_load_str_and_hilbert_contain_all_items() {
    let items = random_rects(5000, 44);
    for method in [BulkMethod::Str, BulkMethod::Hilbert, BulkMethod::LowX] {
        let tree = RTree::<2>::bulk_load(
            mem_pool(4096),
            RTreeConfig::default(),
            items.clone(),
            method,
            1.0,
        )
        .unwrap();
        assert_eq!(tree.len(), 5000, "{method:?}");
        tree.validate()
            .unwrap_or_else(|e| panic!("{method:?}: {e}"));
        let mut ids: Vec<RecordId> = tree.scan().unwrap().iter().map(|&(_, id)| id).collect();
        ids.sort();
        assert_eq!(ids, (0..5000).map(RecordId).collect::<Vec<_>>());
        // Queries agree with brute force.
        let w = Rect::new(Point::new([100.0, 100.0]), Point::new([300.0, 250.0]));
        assert_eq!(
            tree_window(&tree, &w),
            brute_window(&items, &w),
            "{method:?}"
        );
        // Packed trees are dense: fill should be high.
        let stats = tree.stats().unwrap();
        assert!(
            stats.avg_fill > 0.85,
            "{method:?}: packed fill only {}",
            stats.avg_fill
        );
    }
}

#[test]
fn bulk_load_empty_and_tiny_inputs() {
    let tree = RTree::<2>::bulk_load(
        mem_pool(64),
        RTreeConfig::default(),
        Vec::new(),
        BulkMethod::Str,
        1.0,
    )
    .unwrap();
    assert!(tree.is_empty());
    tree.validate().unwrap();

    let tree = RTree::<2>::bulk_load(
        mem_pool(64),
        RTreeConfig::default(),
        random_points(1, 5),
        BulkMethod::Hilbert,
        1.0,
    )
    .unwrap();
    assert_eq!(tree.len(), 1);
    assert_eq!(tree.height(), 1);
    tree.validate().unwrap();
}

#[test]
fn bulk_loaded_tree_accepts_dynamic_updates() {
    let items = random_points(3000, 8);
    let tree = RTree::<2>::bulk_load(
        mem_pool(4096),
        RTreeConfig::default(),
        items.clone(),
        BulkMethod::Str,
        1.0,
    )
    .unwrap();
    for i in 0..500u64 {
        let p = Point::new([i as f64, 2000.0]);
        tree.insert(&Rect::from_point(p), RecordId(10_000 + i))
            .unwrap();
    }
    for (r, id) in &items[..500] {
        tree.delete(r, *id).unwrap();
    }
    assert_eq!(tree.len(), 3000);
    tree.validate().unwrap();
}

#[test]
fn persistence_across_reopen_on_file_disk() {
    let dir = std::env::temp_dir().join(format!("nnq-rtree-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.db");
    let items = random_points(2000, 77);

    let meta_page = {
        let disk = FileDisk::create(&path, PAGE_SIZE).unwrap();
        let pool = Arc::new(BufferPool::new(Box::new(disk), 256));
        let tree = RTree::<2>::create(Arc::clone(&pool), RTreeConfig::default()).unwrap();
        for (r, id) in &items {
            tree.insert(r, *id).unwrap();
        }
        pool.flush_all().unwrap();
        tree.meta_page()
    };

    let disk = FileDisk::open(&path, PAGE_SIZE).unwrap();
    let pool = Arc::new(BufferPool::new(Box::new(disk), 256));
    let tree = RTree::<2>::open(pool, meta_page).unwrap();
    assert_eq!(tree.len(), 2000);
    tree.validate_strict().unwrap();
    let w = Rect::new(Point::new([0.0, 0.0]), Point::new([250.0, 250.0]));
    assert_eq!(tree_window(&tree, &w), brute_window(&items, &w));
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_with_wrong_dimension_fails() {
    let pool = mem_pool(64);
    let tree = RTree::<2>::create(Arc::clone(&pool), RTreeConfig::default()).unwrap();
    let meta = tree.meta_page();
    drop(tree);
    assert!(RTree::<3>::open(pool, meta).is_err());
}

#[test]
fn corrupted_page_is_reported_not_panicked() {
    let pool = mem_pool(64);
    let tree = RTree::<2>::create(Arc::clone(&pool), RTreeConfig::default()).unwrap();
    for (r, id) in random_points(50, 1) {
        tree.insert(&r, id).unwrap();
    }
    // Smash the root page's magic number.
    let root = tree.root();
    {
        let mut guard = pool.fetch_write(root).unwrap();
        guard[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    }
    let err = tree.scan().unwrap_err();
    assert!(
        matches!(err, nnq_rtree::RTreeError::BadNode { .. }),
        "{err}"
    );
}

#[test]
fn three_dimensional_tree_works() {
    let tree = RTree::<3>::create(
        Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1024)),
        RTreeConfig::for_testing(8),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let items: Vec<(Rect<3>, RecordId)> = (0..700)
        .map(|i| {
            let p = Point::new([
                rng.random_range(0.0..10.0),
                rng.random_range(0.0..10.0),
                rng.random_range(0.0..10.0),
            ]);
            (Rect::from_point(p), RecordId(i))
        })
        .collect();
    for (r, id) in &items {
        tree.insert(r, *id).unwrap();
    }
    tree.validate_strict().unwrap();
    let w = Rect::new(Point::new([2.0, 2.0, 2.0]), Point::new([7.0, 7.0, 7.0]));
    let mut got: Vec<u64> = tree
        .window(&w)
        .unwrap()
        .iter()
        .map(|(_, id)| id.0)
        .collect();
    got.sort();
    let mut want: Vec<u64> = items
        .iter()
        .filter(|(r, _)| r.intersects(&w))
        .map(|(_, id)| id.0)
        .collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn tree_stats_reflect_structure() {
    let tree = RTree::<2>::create(mem_pool(4096), RTreeConfig::for_testing(8)).unwrap();
    for (r, id) in random_points(1000, 11) {
        tree.insert(&r, id).unwrap();
    }
    let s = tree.stats().unwrap();
    assert_eq!(s.height, tree.height());
    assert_eq!(s.data_entries, 1000);
    assert_eq!(s.nodes_per_level.len(), tree.height() as usize);
    assert_eq!(s.nodes_per_level[0], s.leaves);
    assert_eq!(s.nodes_per_level.iter().sum::<u64>(), s.nodes);
    assert!(s.avg_fill > 0.3 && s.avg_fill <= 1.0);
    // The root level has exactly one node.
    assert_eq!(*s.nodes_per_level.last().unwrap(), 1);
}

#[test]
fn rstar_builds_lower_overlap_than_linear() {
    // Index-quality sanity check used later by experiment E7: R* should
    // produce less sibling overlap than the linear split on clustered data.
    let mut rng = StdRng::seed_from_u64(31);
    let items: Vec<(Rect<2>, RecordId)> = (0..4000)
        .map(|i| {
            let cx = f64::from(i % 20) * 50.0;
            let cy = f64::from(i % 17) * 60.0;
            let p = Point::new([
                cx + rng.random_range(0.0..10.0),
                cy + rng.random_range(0.0..10.0),
            ]);
            (Rect::from_point(p), RecordId(i as u64))
        })
        .collect();
    let overlap = |split: SplitStrategy| -> f64 {
        let mut cfg = RTreeConfig::with_split(split);
        cfg.max_entries_override = Some(16);
        let tree = RTree::<2>::create(mem_pool(8192), cfg).unwrap();
        for (r, id) in &items {
            tree.insert(r, *id).unwrap();
        }
        tree.validate_strict().unwrap();
        tree.stats().unwrap().overlap_per_level.iter().sum()
    };
    let lin = overlap(SplitStrategy::Linear);
    let rstar = overlap(SplitStrategy::RStar);
    assert!(
        rstar < lin,
        "R* overlap {rstar} should beat linear overlap {lin}"
    );
}

#[test]
fn commit_version_is_monotonic_and_snapshot_pinned() {
    let tree = RTree::<2>::create(mem_pool(4096), RTreeConfig::for_testing(8)).unwrap();
    let v0 = tree.version();
    assert_eq!(v0, 1, "a fresh tree starts at version 1");

    let snap0 = tree.snapshot();
    assert_eq!(snap0.version(), v0);

    tree.insert(&Rect::from_point(Point::new([1.0, 2.0])), RecordId(0))
        .unwrap();
    assert_eq!(tree.version(), v0 + 1, "an insert commit bumps the version");
    // The earlier snapshot keeps the version it was taken at.
    assert_eq!(snap0.version(), v0);
    let snap1 = tree.snapshot();
    assert_eq!(snap1.version(), v0 + 1);
    drop(snap0);
    drop(snap1);

    tree.delete(&Rect::from_point(Point::new([1.0, 2.0])), RecordId(0))
        .unwrap();
    assert_eq!(tree.version(), v0 + 2, "a delete commit bumps the version");

    tree.insert(&Rect::from_point(Point::new([3.0, 4.0])), RecordId(1))
        .unwrap();
    let before_clear = tree.version();
    tree.clear().unwrap();
    assert_eq!(
        tree.version(),
        before_clear + 1,
        "clear publishes an empty root and bumps the version"
    );
    // Clearing an already-empty tree publishes nothing.
    tree.clear().unwrap();
    assert_eq!(tree.version(), before_clear + 1);

    // Snapshots never observe a version ahead of or behind their meta:
    // two snapshots with equal versions must agree on the root.
    let a = tree.snapshot();
    let b = tree.snapshot();
    assert_eq!(a.version(), b.version());
    assert_eq!(a.root(), b.root());
}

#[test]
fn bulk_load_bumps_version() {
    let tree = RTree::<2>::bulk_load(
        mem_pool(4096),
        RTreeConfig::for_testing(8),
        random_points(500, 17),
        BulkMethod::Str,
        1.0,
    )
    .unwrap();
    // empty_on starts at 1; the bulk meta install is one publication.
    assert_eq!(tree.version(), 2);
    assert_eq!(tree.snapshot().version(), 2);
}
