//! kNN joins: for every point of an outer set, find its k nearest
//! neighbors in the indexed inner set.
//!
//! The paper's conclusion names spatial joins among the operations its
//! framework extends to. The join here is the per-outer-point form, with
//! one important systems twist reproduced from the buffered setting: when
//! the outer points are processed in **Hilbert order**, consecutive
//! queries land in the same region of the tree, so a small buffer pool
//! serves most node reads from cache (experiment E12 measures this).

use crate::branch_bound::{NnSearch, QueryCursor};
use crate::options::{Neighbor, NnOptions};
use crate::refine::Refiner;
use crate::Result;
use nnq_geom::{hilbert_index, Point, Rect, HILBERT_ORDER};
use nnq_rtree::TreeAccess;

/// Processing order of the outer set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinOrder {
    /// Process outer points as given.
    #[default]
    AsGiven,
    /// Process outer points along a Hilbert curve (cache locality; result
    /// order is still the input order).
    Hilbert,
}

/// For each point in `outer`, finds its `k` nearest neighbors in `tree`.
/// Results are returned in `outer` order regardless of `order`.
pub fn knn_join<const D: usize, T, R>(
    tree: &T,
    outer: &[Point<D>],
    k: usize,
    opts: NnOptions,
    refiner: &R,
    order: JoinOrder,
) -> Result<Vec<Vec<Neighbor<D>>>>
where
    T: TreeAccess<D> + ?Sized,
    R: Refiner<D>,
{
    assert!(k > 0, "k must be at least 1");
    let search = NnSearch::with_options(tree, opts);
    let mut cursor = QueryCursor::new();
    let mut results: Vec<Vec<Neighbor<D>>> = vec![Vec::new(); outer.len()];
    let schedule: Vec<usize> = match order {
        JoinOrder::AsGiven => (0..outer.len()).collect(),
        JoinOrder::Hilbert => hilbert_schedule(outer),
    };
    for idx in schedule {
        let (found, _) = search.query_refined_with(&mut cursor, &outer[idx], k, refiner)?;
        results[idx] = found;
    }
    Ok(results)
}

/// Indices of `outer` sorted along a Hilbert curve over the points'
/// bounding box (first two dimensions).
pub(crate) fn hilbert_schedule<const D: usize>(outer: &[Point<D>]) -> Vec<usize> {
    let mut bounds = Rect::<D>::empty();
    for p in outer {
        bounds.union_in_place(&Rect::from_point(*p));
    }
    let side = f64::from(1u32 << HILBERT_ORDER) - 1.0;
    let scale = |v: f64, lo: f64, hi: f64| -> u32 {
        if hi <= lo {
            0
        } else {
            (((v - lo) / (hi - lo)) * side).round() as u32
        }
    };
    let mut keyed: Vec<(u64, usize)> = outer
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let x = scale(p[0], bounds.lo()[0], bounds.hi()[0]);
            let y = scale(
                p[1.min(D - 1)],
                bounds.lo()[1.min(D - 1)],
                bounds.hi()[1.min(D - 1)],
            );
            (hilbert_index(x, y, HILBERT_ORDER), i)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::MbrRefiner;
    use crate::scan_items_knn;
    use nnq_rtree::{MemRTree, RecordId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, seed: u64) -> (MemRTree<2>, Vec<(Rect<2>, RecordId)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = MemRTree::new();
        let mut items = Vec::new();
        for i in 0..n {
            let p = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            let r = Rect::from_point(p);
            tree.insert(&r, RecordId(i as u64)).unwrap();
            items.push((r, RecordId(i as u64)));
        }
        (tree, items)
    }

    #[test]
    fn join_matches_per_query_brute_force() {
        let (tree, items) = setup(2_000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let outer: Vec<Point<2>> = (0..100)
            .map(|_| Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
            .collect();
        for order in [JoinOrder::AsGiven, JoinOrder::Hilbert] {
            let joined =
                knn_join(&tree, &outer, 4, NnOptions::default(), &MbrRefiner, order).unwrap();
            assert_eq!(joined.len(), outer.len());
            for (q, found) in outer.iter().zip(&joined) {
                let want = scan_items_knn(&items, q, 4, &MbrRefiner);
                assert_eq!(
                    found.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
                    want.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
                    "{order:?}"
                );
            }
        }
    }

    #[test]
    fn hilbert_schedule_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let pts: Vec<Point<2>> = (0..500)
            .map(|_| Point::new([rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)]))
            .collect();
        let mut schedule = hilbert_schedule(&pts);
        schedule.sort_unstable();
        assert_eq!(schedule, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn hilbert_schedule_improves_locality() {
        // Consecutive scheduled points should be much closer on average
        // than consecutive random-order points.
        let mut rng = StdRng::seed_from_u64(6);
        let pts: Vec<Point<2>> = (0..2_000)
            .map(|_| Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
            .collect();
        let avg_step = |order: &[usize]| -> f64 {
            order
                .windows(2)
                .map(|w| pts[w[0]].dist(&pts[w[1]]))
                .sum::<f64>()
                / (order.len() - 1) as f64
        };
        let given: Vec<usize> = (0..pts.len()).collect();
        let hilbert = hilbert_schedule(&pts);
        assert!(
            avg_step(&hilbert) * 5.0 < avg_step(&given),
            "hilbert {:.2} vs given {:.2}",
            avg_step(&hilbert),
            avg_step(&given)
        );
    }

    #[test]
    fn empty_outer_set() {
        let (tree, _) = setup(100, 7);
        let joined = knn_join(
            &tree,
            &[],
            3,
            NnOptions::default(),
            &MbrRefiner,
            JoinOrder::Hilbert,
        )
        .unwrap();
        assert!(joined.is_empty());
    }

    #[test]
    fn degenerate_outer_all_same_point() {
        let (tree, _) = setup(100, 8);
        let outer = vec![Point::new([5.0, 5.0]); 10];
        let joined = knn_join(
            &tree,
            &outer,
            2,
            NnOptions::default(),
            &MbrRefiner,
            JoinOrder::Hilbert,
        )
        .unwrap();
        assert!(joined.iter().all(|r| r.len() == 2));
        let first = &joined[0];
        for r in &joined {
            assert_eq!(
                r.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
                first.iter().map(|n| n.dist_sq).collect::<Vec<_>>()
            );
        }
    }
}
