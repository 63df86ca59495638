//! The explain trace must agree exactly with the search statistics and
//! with the untraced query's results.

use nnq_core::{Decision, MbrRefiner, NnSearch, TraceEvent};
use nnq_geom::{Point, Rect};
use nnq_rtree::{MemRTree, RecordId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tree(n: usize, seed: u64) -> MemRTree<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = MemRTree::with_config(nnq_rtree::RTreeConfig::default(), 8);
    for i in 0..n {
        let p = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
        tree.insert(&Rect::from_point(p), RecordId(i as u64))
            .unwrap();
    }
    tree
}

#[test]
fn trace_counts_match_stats() {
    let t = tree(3_000, 3);
    let search = NnSearch::new(&t);
    let q = Point::new([37.0, 59.0]);
    let (found, stats, trace) = search.query_traced(&q, 6, &MbrRefiner).unwrap();
    assert_eq!(found.len(), 6);

    let nodes = trace.nodes_entered() as u64;
    assert_eq!(nodes, stats.nodes_visited);

    let mut pruned_down = 0;
    let mut pruned_up = 0;
    let mut pruned_obj = 0;
    let mut dist_comps = 0;
    for e in &trace.events {
        match e {
            TraceEvent::Branch { decision, .. } => match decision {
                Decision::PrunedDownward => pruned_down += 1,
                Decision::PrunedUpward => pruned_up += 1,
                _ => {}
            },
            TraceEvent::Object {
                decision, exact_sq, ..
            } => {
                match decision {
                    Decision::PrunedObject => pruned_obj += 1,
                    Decision::PrunedUpward => pruned_up += 1,
                    _ => {}
                }
                if exact_sq.is_some() {
                    dist_comps += 1;
                }
            }
            TraceEvent::EnterNode { .. } => {}
        }
    }
    assert_eq!(pruned_down, stats.pruned_downward);
    assert_eq!(pruned_up, stats.pruned_upward);
    assert_eq!(pruned_obj, stats.pruned_object);
    assert_eq!(dist_comps, stats.dist_computations);
}

#[test]
fn traced_and_untraced_results_agree() {
    let t = tree(2_000, 5);
    let search = NnSearch::new(&t);
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..20 {
        let q = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
        let plain = search.query(&q, 5).unwrap();
        let (traced, _, _) = search.query_traced(&q, 5, &MbrRefiner).unwrap();
        assert_eq!(
            plain.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
            traced.iter().map(|n| n.dist_sq).collect::<Vec<_>>()
        );
    }
}

#[test]
fn trace_bounds_are_monotone_nonincreasing() {
    // The candidate bound recorded at each node entry can only shrink as
    // the search progresses.
    let t = tree(3_000, 7);
    let search = NnSearch::new(&t);
    let (_, _, trace) = search
        .query_traced(&Point::new([50.0, 50.0]), 4, &MbrRefiner)
        .unwrap();
    let bounds: Vec<f64> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::EnterNode { bound_sq, .. } => Some(*bound_sq),
            _ => None,
        })
        .collect();
    assert!(bounds.len() >= 2);
    for w in bounds.windows(2) {
        assert!(w[0] >= w[1], "bound grew: {} -> {}", w[0], w[1]);
    }
}

#[test]
fn visited_branches_respect_mindist_order_per_node() {
    // Within one internal node, visited branches appear in nondecreasing
    // MINDIST order (the ABL was sorted).
    let t = tree(3_000, 9);
    let search = NnSearch::new(&t);
    let (_, _, trace) = search
        .query_traced(&Point::new([20.0, 80.0]), 3, &MbrRefiner)
        .unwrap();
    // Trace events interleave across stack levels once subtrees return, so
    // the cleanly attributable window is the root's ABL prefix: everything
    // between the first EnterNode and the second one belongs to the root.
    let mut seen_nodes = 0;
    let mut root_prefix: Vec<f64> = Vec::new();
    for e in &trace.events {
        match e {
            TraceEvent::EnterNode { .. } => {
                seen_nodes += 1;
                if seen_nodes == 2 {
                    break;
                }
            }
            TraceEvent::Branch { mindist_sq, .. } if seen_nodes == 1 => {
                root_prefix.push(*mindist_sq);
            }
            _ => {}
        }
    }
    assert!(!root_prefix.is_empty());
    for w in root_prefix.windows(2) {
        assert!(
            w[0] <= w[1],
            "root ABL out of MINDIST order: {root_prefix:?}"
        );
    }
}

#[test]
fn render_is_nonempty_and_mentions_the_root() {
    let t = tree(500, 11);
    let search = NnSearch::new(&t);
    let (_, _, trace) = search
        .query_traced(&Point::new([1.0, 1.0]), 2, &MbrRefiner)
        .unwrap();
    let text = trace.render();
    assert!(text.contains("node page#"));
    assert!(text.lines().count() >= trace.events.len());
}

/// FNV-1a over every field of every event, in order: two traces with the
/// same fingerprint and length made the same decisions on the same pages,
/// objects and distance bits in the same order.
fn fingerprint(events: &[TraceEvent]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let code = |d: &Decision| match d {
        Decision::Visited => 0,
        Decision::PrunedDownward => 1,
        Decision::PrunedObject => 2,
        Decision::PrunedUpward => 3,
    };
    for e in events {
        match e {
            TraceEvent::EnterNode {
                page,
                level,
                bound_sq,
            } => {
                mix(1);
                mix(page.0);
                mix(u64::from(*level));
                mix(bound_sq.to_bits());
            }
            TraceEvent::Branch {
                child,
                mindist_sq,
                minmaxdist_sq,
                decision,
            } => {
                mix(2);
                mix(child.0);
                mix(mindist_sq.to_bits());
                mix(minmaxdist_sq.to_bits());
                mix(code(decision));
            }
            TraceEvent::Object {
                record,
                filter_sq,
                exact_sq,
                decision,
                accepted,
            } => {
                mix(3);
                mix(record.0);
                mix(filter_sq.to_bits());
                mix(exact_sq.map_or(u64::MAX, f64::to_bits));
                mix(code(decision));
                mix(u64::from(*accepted));
            }
        }
    }
    h
}

#[test]
fn full_event_sequences_are_pinned() {
    // Recorded from the recursive traversal this repository shipped before
    // the traversal became resumable: any reordering of node visits,
    // pruning decisions or heap offers moves a fingerprint.
    use nnq_core::{AblOrdering, KernelMode, NnOptions};
    let pinned = |n, seed, q: [f64; 2], k, opts: NnOptions, want_len: usize, want_print: u64| {
        let t = tree(n, seed);
        let (_, stats, trace) = NnSearch::with_options(&t, opts)
            .query_traced(&Point::new(q), k, &MbrRefiner)
            .unwrap();
        assert_eq!(trace.nodes_entered() as u64, stats.nodes_visited);
        assert_eq!(
            (trace.events.len(), fingerprint(&trace.events)),
            (want_len, want_print),
            "trace moved: n={n} seed={seed} q={q:?} k={k} {opts:?}"
        );
    };
    let full = NnOptions::default();
    pinned(3_000, 3, [37.0, 59.0], 6, full, 192, 0x1352_708f_29b5_4f26);
    pinned(2_000, 5, [12.5, 88.25], 5, full, 35, 0x8ddd_ec72_8127_c842);
    pinned(3_000, 7, [50.0, 50.0], 4, full, 92, 0xa192_66ea_899d_c146);
    pinned(3_000, 9, [20.0, 80.0], 3, full, 52, 0xc685_7fa2_9a8b_c8ba);
    pinned(500, 11, [1.0, 1.0], 2, full, 23, 0xbf49_ea2c_7c55_6e2e);
    let scalar_minmax = NnOptions {
        ordering: AblOrdering::MinMaxDist,
        kernel: KernelMode::Scalar,
        ..NnOptions::default()
    };
    pinned(
        3_000,
        3,
        [37.0, 59.0],
        6,
        scalar_minmax,
        173,
        0xe084_9251_aa13_77df,
    );
    let exhaustive = NnOptions::no_pruning();
    pinned(
        500,
        11,
        [-40.0, 140.0],
        9,
        exhaustive,
        715,
        0x28df_be98_3abd_9dfd,
    );
}

#[test]
fn small_tree_transcript_is_pinned() {
    // The same pin in readable form: the whole rendered trace of one query
    // on a two-level tree.
    let t = tree(40, 13);
    let (_, _, trace) = NnSearch::new(&t)
        .query_traced(&Point::new([55.0, 45.0]), 2, &MbrRefiner)
        .unwrap();
    let want = [
        "  node page#1 (level 1, bound inf)",
        "    - branch page#2: mindist 0.000 minmax 9.650 -> Visited",
        "node page#2 (level 0, bound inf)",
        "  - object #23: filter 5.295 exact 5.295 -> Visited (kept)",
        "  - object #17: filter 13.476 exact - -> PrunedObject",
        "  - object #6: filter 27.353 exact - -> PrunedObject",
        "  - object #9: filter 28.792 exact - -> PrunedObject",
        "  - object #37: filter 5.709 exact 5.709 -> Visited (kept)",
        "  - branch page#4: mindist 8.249 minmax 18.919 -> PrunedUpward",
        "  - branch page#0: mindist 17.134 minmax 31.373 -> PrunedUpward",
        "  - branch page#6: mindist 17.555 minmax 44.714 -> PrunedUpward",
        "  - branch page#8: mindist 24.029 minmax 38.592 -> PrunedDownward",
        "  - branch page#3: mindist 30.744 minmax 48.470 -> PrunedDownward",
    ];
    assert_eq!(trace.render().lines().collect::<Vec<_>>(), want);
}
