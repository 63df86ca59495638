//! Readers racing a mutator over the copy-on-write update path.
//!
//! Two invariants:
//!
//! 1. **Prefix consistency.** Query threads holding [`RTree::snapshot`]s
//!    while a mutator applies a scripted insert/delete sequence must
//!    always return results equal to a brute-force oracle over *some
//!    prefix* of the applied sequence — never a torn in-between state.
//!    The same holds for scatter-gather queries over the snapshots of a
//!    four-partition forest whose writes land wherever the script puts
//!    them, inside their partition's build bound or not.
//! 2. **Quiesced determinism.** After the race quiesces, the tree must be
//!    structurally identical to one built by applying the same sequence
//!    with no concurrency: per-query `logical_reads` byte-identical, and
//!    query results equal to a bulk-loaded tree over the same final
//!    contents.

use nnq_core::{scan_items_knn, scatter_knn, MbrRefiner, NnOptions, NnSearch};
use nnq_geom::{Point, Rect};
use nnq_rtree::{
    snapshot_all, BulkMethod, Forest, PartitionedTree, RTree, RTreeConfig, RecordId, TreeAccess,
};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points, uniform_queries};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Clone, Copy)]
enum Op {
    Insert(Rect<2>, RecordId),
    Delete(Rect<2>, RecordId),
}

/// Builds a deterministic mixed insert/delete script over `base`, plus the
/// logical item set after every prefix (`states[j]` = contents once the
/// first `j` ops have been applied).
#[allow(clippy::type_complexity)]
fn build_script(
    base: &[(Rect<2>, RecordId)],
    n_ops: usize,
) -> (Vec<Op>, Vec<Vec<(Rect<2>, RecordId)>>) {
    let bounds = default_bounds();
    let (lo, hi) = (bounds.lo(), bounds.hi());
    let mut live = base.to_vec();
    let mut states = Vec::with_capacity(n_ops + 1);
    states.push(live.clone());
    let mut next_id = 1_000_000u64;
    let mut rng: u64 = 0x2545_F491_4F6C_DD1D;
    let mut ops = Vec::with_capacity(n_ops);
    let mut step = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng
    };
    for i in 0..n_ops {
        if i % 3 == 2 && !live.is_empty() {
            let idx = (step() >> 33) as usize % live.len();
            let (mbr, rid) = live.swap_remove(idx);
            ops.push(Op::Delete(mbr, rid));
        } else {
            let fx = (step() >> 11) as f64 / (1u64 << 53) as f64;
            let fy = (step() >> 11) as f64 / (1u64 << 53) as f64;
            let mbr = Rect::from_point(Point::new([
                lo[0] + fx * (hi[0] - lo[0]),
                lo[1] + fy * (hi[1] - lo[1]),
            ]));
            let rid = RecordId(next_id);
            next_id += 1;
            live.push((mbr, rid));
            ops.push(Op::Insert(mbr, rid));
        }
        states.push(live.clone());
    }
    (ops, states)
}

fn apply(tree: &RTree<2>, op: &Op) {
    match op {
        Op::Insert(mbr, rid) => tree.insert(mbr, *rid).unwrap(),
        Op::Delete(mbr, rid) => tree.delete(mbr, *rid).unwrap(),
    }
}

fn dists(neighbors: &[nnq_core::Neighbor<2>]) -> Vec<f64> {
    neighbors.iter().map(|n| n.dist_sq).collect()
}

#[test]
fn queries_racing_a_mutator_match_a_prefix_oracle() {
    const N_OPS: usize = 480;
    const K: usize = 5;
    let base = points_to_items(&uniform_points(600, &default_bounds(), 41));
    let (ops, states) = build_script(&base, N_OPS);
    let queries = uniform_queries(64, &default_bounds(), 43);

    let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 12));
    let tree = RTree::<2>::create(Arc::clone(&pool), RTreeConfig::default()).unwrap();
    for (mbr, rid) in &base {
        tree.insert(mbr, *rid).unwrap();
    }

    // A snapshot taken before any racing mutation: it must keep reading
    // op-0 state even after hundreds of commits retire its pages.
    let snap0 = tree.snapshot();

    let applied = AtomicUsize::new(0);
    let done = AtomicBool::new(false);

    // (lo, hi, query index, result distances) per racing query.
    let mut observations: Vec<(usize, usize, usize, Vec<f64>)> = Vec::new();
    std::thread::scope(|s| {
        let mutator = s.spawn(|| {
            for op in &ops {
                apply(&tree, op);
                applied.fetch_add(1, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });
        let readers: Vec<_> = (0..3)
            .map(|tid| {
                let (tree, applied, done, queries) = (&tree, &applied, &done, &queries);
                s.spawn(move || {
                    let mut seen = Vec::new();
                    let search_iter = (0usize..).take_while(|_| !done.load(Ordering::Acquire));
                    for it in search_iter {
                        let qi = (it * 7 + tid * 13) % queries.len();
                        let lo = applied.load(Ordering::Acquire);
                        let snap = tree.snapshot();
                        let got = NnSearch::new(&snap).query(&queries[qi], K).unwrap();
                        let hi = applied.load(Ordering::Acquire);
                        if seen.len() < 500 {
                            seen.push((lo, hi, qi, dists(&got)));
                        }
                    }
                    seen
                })
            })
            .collect();
        mutator.join().unwrap();
        for r in readers {
            observations.extend(r.join().unwrap());
        }
    });

    // Every racing query must match the oracle over some prefix of the
    // applied update sequence it could have observed.
    assert!(
        observations.len() >= 10,
        "the readers barely ran ({} observations) — not a race",
        observations.len()
    );
    for (lo, hi, qi, got) in &observations {
        // The applied counter bumps *after* each commit, so a snapshot may
        // already include the op whose bump the reader has not seen yet.
        let hi = (hi + 1).min(N_OPS);
        let ok = (*lo..=hi).any(|j| {
            let want = scan_items_knn(&states[j], &queries[*qi], K, &MbrRefiner);
            dists(&want) == *got
        });
        assert!(
            ok,
            "query {qi} observed a state outside prefixes [{lo}, {hi}]: {got:?}"
        );
    }

    // The pre-race snapshot still reads the pre-race tree, verbatim.
    assert_eq!(snap0.len(), states[0].len() as u64);
    let search0 = NnSearch::new(&snap0);
    for q in queries.iter().step_by(5) {
        let got = search0.query(q, K).unwrap();
        let want = scan_items_knn(&states[0], q, K, &MbrRefiner);
        assert_eq!(dists(&got), dists(&want), "stale snapshot drifted");
    }
    drop(snap0);

    // Quiesced: full validation and final contents match the whole script.
    tree.validate_strict().unwrap();
    let mut got: Vec<u64> = tree.scan().unwrap().iter().map(|(_, r)| r.0).collect();
    got.sort_unstable();
    let mut want: Vec<u64> = states[N_OPS].iter().map(|(_, r)| r.0).collect();
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn quiesced_tree_is_byte_identical_to_sequential_build() {
    const N_OPS: usize = 360;
    const K: usize = 8;
    let base = points_to_items(&uniform_points(500, &default_bounds(), 47));
    let (ops, states) = build_script(&base, N_OPS);
    let queries = uniform_queries(80, &default_bounds(), 53);

    // Tree 1: mutated while reader threads hold and drop snapshots (the
    // snapshot churn drives the epoch reclamation machinery, which must
    // not perturb the write path's structure).
    let pool1 = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 12));
    let tree1 = RTree::<2>::create(Arc::clone(&pool1), RTreeConfig::default()).unwrap();
    for (mbr, rid) in &base {
        tree1.insert(mbr, *rid).unwrap();
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|tid| {
                let (tree1, done, queries) = (&tree1, &done, &queries);
                s.spawn(move || {
                    let mut it = 0usize;
                    while !done.load(Ordering::Acquire) {
                        let snap = tree1.snapshot();
                        let q = &queries[(it * 11 + tid) % queries.len()];
                        NnSearch::new(&snap).query(q, K).unwrap();
                        it += 1;
                    }
                })
            })
            .collect();
        for op in &ops {
            apply(&tree1, op);
        }
        done.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
    });

    // Tree 2: the identical update sequence, single-threaded.
    let pool2 = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 12));
    let tree2 = RTree::<2>::create(Arc::clone(&pool2), RTreeConfig::default()).unwrap();
    for (mbr, rid) in &base {
        tree2.insert(mbr, *rid).unwrap();
    }
    for op in &ops {
        apply(&tree2, op);
    }

    tree1.validate_strict().unwrap();
    tree2.validate_strict().unwrap();
    assert_eq!(tree1.len(), tree2.len());
    assert_eq!(tree1.height(), tree2.height());
    assert_eq!(
        tree1.stats().unwrap().nodes,
        tree2.stats().unwrap().nodes,
        "racing readers changed the shape the writer produced"
    );

    // Per-query page-access accounting must be byte-identical: the racing
    // build and the sequential build are the same tree, page for page.
    let reads_of = |tree: &RTree<2>, pool: &BufferPool| -> Vec<u64> {
        let search = NnSearch::new(tree);
        queries
            .iter()
            .map(|q| {
                let before = pool.stats().logical_reads;
                search.query(q, K).unwrap();
                pool.stats().logical_reads - before
            })
            .collect()
    };
    let reads1 = reads_of(&tree1, &pool1);
    let reads2 = reads_of(&tree2, &pool2);
    assert_eq!(
        reads1, reads2,
        "logical_reads diverged from sequential build"
    );

    // And the results agree with a bulk-loaded tree over the same final
    // contents (structure differs, answers must not).
    let pool3 = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 12));
    let tree3 = RTree::<2>::bulk_load(
        pool3,
        RTreeConfig::default(),
        states[N_OPS].clone(),
        BulkMethod::Str,
        1.0,
    )
    .unwrap();
    let s1 = NnSearch::new(&tree1);
    let s3 = NnSearch::new(&tree3);
    for q in &queries {
        assert_eq!(
            dists(&s1.query(q, K).unwrap()),
            dists(&s3.query(q, K).unwrap()),
            "quiesced tree disagrees with a bulk-loaded equal tree"
        );
    }
}

#[test]
fn forest_queries_racing_writes_spread_over_four_partitions_match_a_prefix_oracle() {
    const N_OPS: usize = 480;
    const K: usize = 5;
    const P: usize = 4;
    let base = points_to_items(&uniform_points(600, &default_bounds(), 59));
    let (ops, states) = build_script(&base, N_OPS);
    let queries = uniform_queries(64, &default_bounds(), 61);
    let (config, method) = (RTreeConfig::default(), BulkMethod::Hilbert);
    let tree =
        PartitionedTree::bulk_load_in_memory(base, P, config, method, 1.0, 1 << 12, 1).unwrap();

    // Insert op i goes to partition i mod P, wherever its point lies; a
    // delete goes to the partition holding its record.
    let mut holder: HashMap<RecordId, usize> = HashMap::new();
    for (i, part) in tree.partitions().iter().enumerate() {
        holder.extend(part.scan().unwrap().into_iter().map(|(_, rid)| (rid, i)));
    }
    let targets: Vec<usize> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| match op {
            Op::Insert(_, rid) => *holder.entry(*rid).or_insert(i % P),
            Op::Delete(_, rid) => holder.remove(rid).expect("a delete's record is live"),
        })
        .collect();
    let outside = ops.iter().zip(&targets).filter(|(op, &t)| {
        let bound = tree.partitions()[t].bounds();
        matches!(op, Op::Insert(mbr, _) if !bound.contains_rect(mbr))
    });
    assert!(
        outside.count() > N_OPS / 4,
        "most inserts must leave their build bound"
    );

    let applied = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut observations: Vec<(usize, usize, usize, Vec<f64>)> = Vec::new();
    std::thread::scope(|s| {
        let mutator = s.spawn(|| {
            for (op, &t) in ops.iter().zip(&targets) {
                apply(&tree.partitions()[t], op);
                applied.fetch_add(1, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });
        let readers: Vec<_> = (0..3)
            .map(|tid| {
                let (tree, applied, done, queries) = (&tree, &applied, &done, &queries);
                s.spawn(move || {
                    let mut seen = Vec::new();
                    let opts = NnOptions::default();
                    let search_iter = (0usize..).take_while(|_| !done.load(Ordering::Acquire));
                    for it in search_iter {
                        let qi = (it * 7 + tid * 13) % queries.len();
                        let lo = applied.load(Ordering::Acquire);
                        let snaps = snapshot_all(tree.partitions());
                        let forest = Forest::new(&snaps);
                        let (got, _) =
                            scatter_knn(forest, &queries[qi], K, opts, &MbrRefiner, 1).unwrap();
                        let hi = applied.load(Ordering::Acquire);
                        if seen.len() < 500 {
                            seen.push((lo, hi, qi, dists(&got)));
                        }
                    }
                    seen
                })
            })
            .collect();
        mutator.join().unwrap();
        for r in readers {
            observations.extend(r.join().unwrap());
        }
    });

    assert!(
        observations.len() >= 10,
        "the readers barely ran ({} observations) — not a race",
        observations.len()
    );
    for (lo, hi, qi, got) in &observations {
        let hi = (hi + 1).min(N_OPS);
        let ok = (*lo..=hi).any(|j| {
            let want = scan_items_knn(&states[j], &queries[*qi], K, &MbrRefiner);
            dists(&want) == *got
        });
        assert!(
            ok,
            "query {qi} observed a state outside prefixes [{lo}, {hi}]: {got:?}"
        );
    }

    // Quiesced: every partition is a valid tree, its bound included, and
    // together they hold exactly what the whole script leaves.
    let mut got = Vec::new();
    for part in tree.partitions() {
        part.validate().unwrap();
        got.extend(part.scan().unwrap().iter().map(|(_, r)| r.0));
    }
    got.sort_unstable();
    let mut want: Vec<u64> = states[N_OPS].iter().map(|(_, r)| r.0).collect();
    want.sort_unstable();
    assert_eq!(got, want);
}
