//! Tree-to-tree spatial intersection join.
//!
//! The paper's conclusion points at spatial joins as a companion
//! operation; this is the classical synchronized-traversal R-tree join
//! (Brinkhoff, Kriegel & Seeger, SIGMOD 1993): descend both trees in
//! lockstep, visiting only node pairs whose MBRs intersect. Trees of
//! different heights are handled by descending the taller side until the
//! levels meet.

use crate::options::{KernelMode, NnOptions};
use crate::Result;
use nnq_geom::Rect;
use nnq_rtree::{NodeView, RecordId, TreeAccess};

/// Work counters for one join.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Node reads from the left tree.
    pub nodes_left: u64,
    /// Node reads from the right tree.
    pub nodes_right: u64,
    /// Result pairs produced.
    pub pairs: u64,
}

/// Computes all pairs `(a, b)` of records whose MBRs intersect, where `a`
/// comes from `left` and `b` from `right`.
///
/// Works across backends (both trees only need [`TreeAccess`]); a
/// self-join (`left` and `right` the same tree) reports each symmetric
/// pair twice plus every record paired with itself, as the raw
/// definition implies — filter `a < b` on the output for the distinct
/// unordered pairs. Of `opts` only the kernel applies: both kernel modes
/// produce identical pairs, in the same order, with identical node-read
/// counts.
pub fn intersection_join<const D: usize, L, R>(
    left: &L,
    right: &R,
    opts: NnOptions,
) -> Result<(Vec<(RecordId, RecordId)>, JoinStats)>
where
    L: TreeAccess<D> + ?Sized,
    R: TreeAccess<D> + ?Sized,
{
    let mut out = Vec::new();
    let mut stats = JoinStats::default();
    let (Some(lroot), Some(rroot)) = (left.access_root(), right.access_root()) else {
        return Ok((out, stats));
    };
    // Intersection-flag scratch shared by every node-level pass.
    let mut hits: Vec<bool> = Vec::new();
    let lnode = read_left(left, lroot, &mut stats)?;
    let rnode = read_right(right, rroot, &mut stats)?;
    // The roots' MBRs must themselves intersect for any result to exist.
    if lnode.mbr().intersects(&rnode.mbr()) {
        let kernel = opts.kernel;
        join(
            left, right, &lnode, &rnode, kernel, &mut hits, &mut out, &mut stats,
        )?;
    }
    stats.pairs = out.len() as u64;
    Ok((out, stats))
}

fn read_left<const D: usize, L: TreeAccess<D> + ?Sized>(
    tree: &L,
    page: nnq_storage::PageId,
    stats: &mut JoinStats,
) -> Result<NodeView<D>> {
    stats.nodes_left += 1;
    tree.access_node(page)
}

fn read_right<const D: usize, R: TreeAccess<D> + ?Sized>(
    tree: &R,
    page: nnq_storage::PageId,
    stats: &mut JoinStats,
) -> Result<NodeView<D>> {
    stats.nodes_right += 1;
    tree.access_node(page)
}

#[allow(clippy::too_many_arguments)]
fn join<const D: usize, L, R>(
    left: &L,
    right: &R,
    a: &NodeView<D>,
    b: &NodeView<D>,
    kernel: KernelMode,
    hits: &mut Vec<bool>,
    out: &mut Vec<(RecordId, RecordId)>,
    stats: &mut JoinStats,
) -> Result<()>
where
    L: TreeAccess<D> + ?Sized,
    R: TreeAccess<D> + ?Sized,
{
    match (a.is_leaf(), b.is_leaf()) {
        (true, true) => {
            // Emit intersecting record pairs: one pass over `b` per `a`
            // entry.
            for ea in a.entries() {
                kernel.intersects(&ea.mbr, b, hits);
                for (eb, &hit) in b.entries().iter().zip(hits.iter()) {
                    if hit {
                        out.push((ea.record(), eb.record()));
                    }
                }
            }
        }
        (true, false) => {
            let a_mbr = a.mbr();
            for eb in entries_intersecting(b, &a_mbr, kernel, hits) {
                let child = read_right(right, eb, stats)?;
                join(left, right, a, &child, kernel, hits, out, stats)?;
            }
        }
        (false, true) => {
            let b_mbr = b.mbr();
            for ea in entries_intersecting(a, &b_mbr, kernel, hits) {
                let child = read_left(left, ea, stats)?;
                join(left, right, &child, b, kernel, hits, out, stats)?;
            }
        }
        (false, false) => {
            if a.level() > b.level() {
                let b_mbr = b.mbr();
                for ea in entries_intersecting(a, &b_mbr, kernel, hits) {
                    let child = read_left(left, ea, stats)?;
                    join(left, right, &child, b, kernel, hits, out, stats)?;
                }
            } else if b.level() > a.level() {
                let a_mbr = a.mbr();
                for eb in entries_intersecting(b, &a_mbr, kernel, hits) {
                    let child = read_right(right, eb, stats)?;
                    join(left, right, a, &child, kernel, hits, out, stats)?;
                }
            } else {
                // Same level: pairwise descent into intersecting children.
                // The intersecting `b` children are collected before
                // recursing because the recursion reuses the scratch.
                for ea in a.entries() {
                    for cb_page in entries_intersecting(b, &ea.mbr, kernel, hits) {
                        let ca = read_left(left, ea.child(), stats)?;
                        let cb = read_right(right, cb_page, stats)?;
                        join(left, right, &ca, &cb, kernel, hits, out, stats)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// The children of `node`'s entries that intersect `window`, in entry
/// order.
fn entries_intersecting<const D: usize>(
    node: &NodeView<D>,
    window: &Rect<D>,
    kernel: KernelMode,
    hits: &mut Vec<bool>,
) -> Vec<nnq_storage::PageId> {
    kernel.intersects(window, node, hits);
    node.entries()
        .iter()
        .zip(hits.iter())
        .filter(|(_, &hit)| hit)
        .map(|(e, _)| e.child())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnq_geom::Point;
    use nnq_rtree::{MemRTree, RTreeConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn random_rects(n: usize, seed: u64, size: f64) -> Vec<(Rect<2>, RecordId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = rng.random_range(0.0..100.0);
                let y = rng.random_range(0.0..100.0);
                let w = rng.random_range(0.0..size);
                let h = rng.random_range(0.0..size);
                (
                    Rect::new(Point::new([x, y]), Point::new([x + w, y + h])),
                    RecordId(i as u64),
                )
            })
            .collect()
    }

    fn build(items: &[(Rect<2>, RecordId)], fanout: usize) -> MemRTree<2> {
        let tree = MemRTree::with_config(RTreeConfig::default(), fanout);
        for (r, id) in items {
            tree.insert(r, *id).unwrap();
        }
        tree
    }

    fn brute(a: &[(Rect<2>, RecordId)], b: &[(Rect<2>, RecordId)]) -> BTreeSet<(u64, u64)> {
        let mut out = BTreeSet::new();
        for (ra, ia) in a {
            for (rb, ib) in b {
                if ra.intersects(rb) {
                    out.insert((ia.0, ib.0));
                }
            }
        }
        out
    }

    #[test]
    fn join_matches_brute_force() {
        let a_items = random_rects(800, 1, 3.0);
        let b_items = random_rects(600, 2, 3.0);
        let a = build(&a_items, 8);
        let b = build(&b_items, 12); // different fanout → different heights
        let (pairs, stats) = intersection_join(&a, &b, NnOptions::default()).unwrap();
        let got: BTreeSet<(u64, u64)> = pairs.iter().map(|(x, y)| (x.0, y.0)).collect();
        assert_eq!(got, brute(&a_items, &b_items));
        assert_eq!(stats.pairs as usize, pairs.len());
        assert!(stats.nodes_left > 0 && stats.nodes_right > 0);
    }

    #[test]
    fn join_is_symmetric() {
        let a_items = random_rects(400, 3, 4.0);
        let b_items = random_rects(400, 4, 4.0);
        let a = build(&a_items, 6);
        let b = build(&b_items, 6);
        let (ab, _) = intersection_join(&a, &b, NnOptions::default()).unwrap();
        let (ba, _) = intersection_join(&b, &a, NnOptions::default()).unwrap();
        let ab: BTreeSet<(u64, u64)> = ab.iter().map(|(x, y)| (x.0, y.0)).collect();
        let ba: BTreeSet<(u64, u64)> = ba.iter().map(|(x, y)| (y.0, x.0)).collect();
        assert_eq!(ab, ba);
    }

    #[test]
    fn disjoint_datasets_join_empty_cheaply() {
        let mut a_items = random_rects(500, 5, 2.0);
        let b_items = random_rects(500, 6, 2.0);
        // Shift A far away.
        for (r, _) in &mut a_items {
            *r = Rect::new(
                Point::new([r.lo()[0] + 10_000.0, r.lo()[1] + 10_000.0]),
                Point::new([r.hi()[0] + 10_000.0, r.hi()[1] + 10_000.0]),
            );
        }
        let a = build(&a_items, 8);
        let b = build(&b_items, 8);
        let (pairs, stats) = intersection_join(&a, &b, NnOptions::default()).unwrap();
        assert!(pairs.is_empty());
        // Only the roots were read.
        assert_eq!(stats.nodes_left, 1);
        assert_eq!(stats.nodes_right, 1);
    }

    #[test]
    fn self_join_includes_the_diagonal() {
        let items = random_rects(300, 7, 3.0);
        let tree = build(&items, 8);
        let (pairs, _) = intersection_join(&tree, &tree, NnOptions::default()).unwrap();
        let got: BTreeSet<(u64, u64)> = pairs.iter().map(|(x, y)| (x.0, y.0)).collect();
        // Every record intersects itself.
        for (_, id) in &items {
            assert!(got.contains(&(id.0, id.0)));
        }
        assert_eq!(got, brute(&items, &items));
    }

    #[test]
    fn empty_trees_join_empty() {
        let empty = MemRTree::<2>::new();
        let full = build(&random_rects(50, 8, 2.0), 8);
        assert!(intersection_join(&empty, &full, NnOptions::default())
            .unwrap()
            .0
            .is_empty());
        assert!(intersection_join(&full, &empty, NnOptions::default())
            .unwrap()
            .0
            .is_empty());
        assert!(intersection_join(&empty, &empty, NnOptions::default())
            .unwrap()
            .0
            .is_empty());
    }

    #[test]
    fn join_beats_nested_loop_on_node_reads() {
        // Selective data: tiny rectangles, so few pairs intersect and the
        // synchronized traversal skips most node pairs.
        let a_items = random_rects(5_000, 9, 0.1);
        let b_items = random_rects(5_000, 10, 0.1);
        let a = build(&a_items, 16);
        let b = build(&b_items, 16);
        let (pairs, stats) = intersection_join(&a, &b, NnOptions::default()).unwrap();
        let a_nodes = a.stats().unwrap().nodes;
        let b_leaves = b.stats().unwrap().leaves;
        // A nested-loop join would read every A node once per B leaf.
        let nested_loop_reads = a_nodes * b_leaves;
        assert!(
            stats.nodes_left + stats.nodes_right < nested_loop_reads / 10,
            "join read {} nodes, nested loop would read {nested_loop_reads}",
            stats.nodes_left + stats.nodes_right
        );
        // Sanity: result matches brute force.
        let got: BTreeSet<(u64, u64)> = pairs.iter().map(|(x, y)| (x.0, y.0)).collect();
        assert_eq!(got, brute(&a_items, &b_items));
    }
}
