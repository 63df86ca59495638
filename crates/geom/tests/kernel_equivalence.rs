//! Property tests for the kernel contract: every batched SoA kernel is
//! **bit-identical** to its scalar counterpart — for random rectangles,
//! degenerate (zero-extent) rectangles, and empty rectangles, across
//! dimensions 1, 2, 3, and 8. The traversal layers rely on this equality
//! to keep page-access counts independent of the kernel mode.

use nnq_geom::{
    intersects_batch, mindist_sq, mindist_sq_batch, minmaxdist_sq, minmaxdist_sq_batch, Point,
    Rect, SoaRects,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn coord() -> impl Strategy<Value = f64> {
    -1000.0..1000.0f64
}

/// Flat coordinates for `n` D-dimensional rectangles (2·D values each)
/// followed by a query point (D values).
fn raw_case<const D: usize>(n: usize) -> impl Strategy<Value = Vec<f64>> {
    let len = 2 * D * n + D;
    proptest::collection::vec(coord(), len..(len + 1))
}

/// Decodes the flat coordinate vector, replacing every 4th rectangle with
/// a degenerate point-rectangle and every 7th with the empty rectangle so
/// the edge cases are always exercised.
fn decode<const D: usize>(raw: &[f64]) -> (Point<D>, Vec<Rect<D>>) {
    let rects = raw[D..]
        .chunks_exact(2 * D)
        .enumerate()
        .map(|(i, c)| {
            let mut a = [0.0; D];
            let mut b = [0.0; D];
            for k in 0..D {
                a[k] = c[2 * k];
                b[k] = c[2 * k + 1];
            }
            if i % 7 == 6 {
                Rect::empty()
            } else if i % 4 == 3 {
                Rect::from_point(Point::new(a))
            } else {
                Rect::new(Point::new(a), Point::new(b))
            }
        })
        .collect();
    let mut q = [0.0; D];
    q.copy_from_slice(&raw[..D]);
    (Point::new(q), rects)
}

fn check_bitwise<const D: usize>(raw: &[f64]) -> Result<(), TestCaseError> {
    let (q, rects) = decode::<D>(raw);
    let soa = SoaRects::from_rects(rects.iter());
    prop_assert_eq!(soa.len(), rects.len());
    let mut out = Vec::new();

    mindist_sq_batch(&q, &soa, &mut out);
    for (j, r) in rects.iter().enumerate() {
        prop_assert_eq!(
            out[j].to_bits(),
            mindist_sq(&q, r).to_bits(),
            "MINDIST D={} entry {}: batch {:?} != scalar {:?}",
            D,
            j,
            out[j],
            mindist_sq(&q, r)
        );
    }

    minmaxdist_sq_batch(&q, &soa, &mut out);
    for (j, r) in rects.iter().enumerate() {
        prop_assert_eq!(
            out[j].to_bits(),
            minmaxdist_sq(&q, r).to_bits(),
            "MINMAXDIST D={} entry {}: batch {:?} != scalar {:?}",
            D,
            j,
            out[j],
            minmaxdist_sq(&q, r)
        );
    }

    // The first rectangle doubles as the intersection window.
    if let Some(window) = rects.first() {
        let mut hits = Vec::new();
        intersects_batch(window, &soa, &mut hits);
        for (j, r) in rects.iter().enumerate() {
            prop_assert_eq!(
                hits[j],
                r.intersects(window),
                "intersects D={} entry {}",
                D,
                j
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn batch_matches_scalar_bitwise_1d(raw in raw_case::<1>(40)) {
        check_bitwise::<1>(&raw)?;
    }

    #[test]
    fn batch_matches_scalar_bitwise_2d(raw in raw_case::<2>(40)) {
        check_bitwise::<2>(&raw)?;
    }

    #[test]
    fn batch_matches_scalar_bitwise_3d(raw in raw_case::<3>(40)) {
        check_bitwise::<3>(&raw)?;
    }

    #[test]
    fn batch_matches_scalar_bitwise_8d(raw in raw_case::<8>(24)) {
        check_bitwise::<8>(&raw)?;
    }

    // Queries on or inside degenerate rectangles: the coordinates collide
    // exactly, which is where associativity slips would show first.
    #[test]
    fn batch_matches_scalar_on_shared_coordinates_2d(raw in raw_case::<2>(12)) {
        // Re-use rectangle corners as query points so exact zero terms and
        // exact ties occur.
        let (_, rects) = decode::<2>(&raw);
        let soa = SoaRects::from_rects(rects.iter());
        let mut out = Vec::new();
        for r in rects.iter().filter(|r| !r.is_empty()) {
            for q in [*r.lo(), *r.hi(), r.center()] {
                mindist_sq_batch(&q, &soa, &mut out);
                for (j, other) in rects.iter().enumerate() {
                    prop_assert_eq!(out[j].to_bits(), mindist_sq(&q, other).to_bits());
                }
                minmaxdist_sq_batch(&q, &soa, &mut out);
                for (j, other) in rects.iter().enumerate() {
                    prop_assert_eq!(out[j].to_bits(), minmaxdist_sq(&q, other).to_bits());
                }
            }
        }
    }
}

#[test]
fn empty_rect_set_produces_empty_outputs() {
    let rects: Vec<Rect<2>> = Vec::new();
    let soa = SoaRects::from_rects(rects.iter());
    let q = Point::new([0.0, 0.0]);
    let mut out = vec![1.0; 3];
    mindist_sq_batch(&q, &soa, &mut out);
    assert!(out.is_empty());
    let mut hits = vec![true; 3];
    intersects_batch(&Rect::from_point(q), &soa, &mut hits);
    assert!(hits.is_empty());
}
