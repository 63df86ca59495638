//! Property-based tests for the geometric primitives and the RKV'95
//! metric theorems.

use nnq_geom::{mindist_sq, minmaxdist_sq, Point, Rect, Segment};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    -1000.0..1000.0f64
}

fn point2() -> impl Strategy<Value = Point<2>> {
    (coord(), coord()).prop_map(|(x, y)| Point::new([x, y]))
}

fn rect2() -> impl Strategy<Value = Rect<2>> {
    (point2(), point2()).prop_map(|(a, b)| Rect::new(a, b))
}

fn point3() -> impl Strategy<Value = Point<3>> {
    (coord(), coord(), coord()).prop_map(|(x, y, z)| Point::new([x, y, z]))
}

fn rect3() -> impl Strategy<Value = Rect<3>> {
    (point3(), point3()).prop_map(|(a, b)| Rect::new(a, b))
}

/// MAXDIST(P, R)²: squared distance from `p` to the farthest corner of `r`.
fn farthest_corner_sq<const D: usize>(p: &Point<D>, r: &Rect<D>) -> f64 {
    (0..D)
        .map(|i| {
            let d = (p[i] - r.lo()[i]).abs().max((p[i] - r.hi()[i]).abs());
            d * d
        })
        .sum()
}

proptest! {
    // ---- Theorem 1 (RKV'95): MINDIST lower-bounds the distance to any
    // point contained in the rectangle.
    #[test]
    fn mindist_lower_bounds_contained_points(
        r in rect2(),
        q in point2(),
        tx in 0.0..1.0f64,
        ty in 0.0..1.0f64,
    ) {
        // Pick a point inside r by interpolation.
        let inside = Point::new([
            r.lo()[0] + tx * (r.hi()[0] - r.lo()[0]),
            r.lo()[1] + ty * (r.hi()[1] - r.lo()[1]),
        ]);
        prop_assert!(r.contains_point(&inside));
        prop_assert!(mindist_sq(&q, &r) <= q.dist_sq(&inside) + 1e-9);
    }

    // ---- Theorem 2 (RKV'95): if every face of the MBR touches an object,
    // some object lies within MINMAXDIST. We verify the geometric core:
    // for every choice of "one point per face", the nearest of those points
    // is within MINMAXDIST.
    #[test]
    fn minmaxdist_upper_bounds_nearest_face_point(
        r in rect2(),
        q in point2(),
        t in proptest::array::uniform4(0.0..1.0f64),
    ) {
        // One arbitrary point on each of the four faces of r.
        let w = r.hi()[0] - r.lo()[0];
        let h = r.hi()[1] - r.lo()[1];
        let faces = [
            Point::new([r.lo()[0], r.lo()[1] + t[0] * h]), // left
            Point::new([r.hi()[0], r.lo()[1] + t[1] * h]), // right
            Point::new([r.lo()[0] + t[2] * w, r.lo()[1]]), // bottom
            Point::new([r.lo()[0] + t[3] * w, r.hi()[1]]), // top
        ];
        let nearest = faces
            .iter()
            .map(|f| q.dist_sq(f))
            .fold(f64::INFINITY, f64::min);
        // Scale-relative tolerance: coordinates up to 1e3 mean squared
        // distances up to ~1e7, where f64 rounding is ~1e-9 absolute.
        prop_assert!(nearest <= minmaxdist_sq(&q, &r) * (1.0 + 1e-12) + 1e-7);
    }

    // ---- Metric sandwich: MINDIST <= MINMAXDIST <= MAXDIST.
    #[test]
    fn metric_sandwich_2d(r in rect2(), q in point2()) {
        let lo = mindist_sq(&q, &r);
        let mid = minmaxdist_sq(&q, &r);
        let hi = farthest_corner_sq(&q, &r);
        prop_assert!(lo <= mid * (1.0 + 1e-12) + 1e-9);
        prop_assert!(mid <= hi * (1.0 + 1e-12) + 1e-9);
    }

    #[test]
    fn metric_sandwich_3d(r in rect3(), q in point3()) {
        let lo = mindist_sq(&q, &r);
        let mid = minmaxdist_sq(&q, &r);
        let hi = farthest_corner_sq(&q, &r);
        prop_assert!(lo <= mid * (1.0 + 1e-12) + 1e-9);
        prop_assert!(mid <= hi * (1.0 + 1e-12) + 1e-9);
    }

    // ---- MINDIST equals the true distance to the rectangle (checked
    // against a dense sample of the boundary and interior).
    #[test]
    fn mindist_is_attained_by_clamping(r in rect2(), q in point2()) {
        // Clamping the query to the box gives the geometrically nearest
        // point of the box.
        let clamped = Point::new([
            q[0].clamp(r.lo()[0], r.hi()[0]),
            q[1].clamp(r.lo()[1], r.hi()[1]),
        ]);
        prop_assert!((mindist_sq(&q, &r) - q.dist_sq(&clamped)).abs() <= 1e-9);
    }

    // ---- Rect algebra.
    #[test]
    fn union_is_commutative_and_contains_operands(a in rect2(), b in rect2()) {
        let u = a.union(&b);
        prop_assert_eq!(u, b.union(&a));
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    #[test]
    fn intersection_is_contained_in_both(a in rect2(), b in rect2()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!((i.area() - a.overlap_area(&b)).abs() <= 1e-6);
        } else {
            prop_assert!(!a.intersects(&b));
            prop_assert_eq!(a.overlap_area(&b), 0.0);
        }
    }

    #[test]
    fn enlargement_is_nonnegative(a in rect2(), b in rect2()) {
        prop_assert!(a.enlargement(&b) >= -1e-9);
    }

    #[test]
    fn mindist_zero_iff_contains(r in rect2(), q in point2()) {
        let d = mindist_sq(&q, &r);
        if r.contains_point(&q) {
            prop_assert_eq!(d, 0.0);
        } else {
            prop_assert!(d > 0.0);
        }
    }

    // ---- Segments: MBR mindist is a valid filter bound.
    #[test]
    fn segment_filter_bound(
        a in point2(),
        b in point2(),
        q in point2(),
    ) {
        let s = Segment::new(a, b);
        let exact = s.dist_sq_to_point(&q);
        prop_assert!(mindist_sq(&q, &s.mbr()) <= exact + 1e-9);
        // Closest point lies on the segment's MBR (up to f64 rounding of
        // the interpolation) and attains the reported distance.
        let c = s.closest_point(&q);
        prop_assert!(mindist_sq(&c, &s.mbr()) <= 1e-9);
        prop_assert!((q.dist_sq(&c) - exact).abs() <= 1e-9);
    }

    // ---- Hilbert keys preserve locality no worse than a bijection can:
    // same cell -> same key, different cells -> different keys.
    #[test]
    fn hilbert_key_is_deterministic_and_distinct(
        x1 in 0u32..256,
        y1 in 0u32..256,
        x2 in 0u32..256,
        y2 in 0u32..256,
    ) {
        let k1 = nnq_geom::hilbert_index(x1, y1, 8);
        let k2 = nnq_geom::hilbert_index(x2, y2, 8);
        if (x1, y1) == (x2, y2) {
            prop_assert_eq!(k1, k2);
        } else {
            prop_assert_ne!(k1, k2);
        }
    }
}
