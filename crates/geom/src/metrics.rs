//! The point-to-rectangle metrics of RKV'95.
//!
//! For a query point `P` and an MBR `R`, the paper defines:
//!
//! * **MINDIST(P, R)** — the distance from `P` to the nearest point of `R`
//!   (zero when `P ∈ R`). For any object `O` enclosed by `R`,
//!   `MINDIST(P, R) ≤ dist(P, O)`: an *optimistic* lower bound
//!   (Theorem 1 of the paper).
//! * **MINMAXDIST(P, R)** — the minimum over all dimensions of the maximum
//!   distance from `P` to the *farther corner of the nearer face*. Because an
//!   R-tree MBR is minimal, every one of its faces touches at least one
//!   enclosed object, so there is guaranteed to be an object within
//!   `MINMAXDIST(P, R)` of `P`: a *pessimistic* upper bound on the
//!   nearest-neighbor distance inside `R` (Theorem 2).
//!
//! These bounds justify the paper's three pruning strategies; see
//! `nnq-core` for the search algorithm that applies them.
//!
//! All functions return **squared** distances, so they are directly
//! comparable with [`Point::dist_sq`]. Squared distances preserve ordering
//! (`sqrt` is monotone), which is all branch-and-bound needs, and avoid a
//! square root per entry on the hot path.

use crate::{Point, Rect};

/// A squared distance together with ergonomic conversion helpers.
///
/// Thin newtype used at API boundaries where confusing squared and linear
/// distances would be an easy mistake.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Dist(f64);

impl Dist {
    /// Wraps a squared distance.
    #[inline]
    pub const fn from_sq(sq: f64) -> Self {
        Dist(sq)
    }

    /// Wraps a linear distance.
    #[inline]
    pub fn from_linear(d: f64) -> Self {
        Dist(d * d)
    }

    /// The squared distance.
    #[inline]
    pub const fn sq(self) -> f64 {
        self.0
    }

    /// The linear (square-rooted) distance.
    #[inline]
    pub fn linear(self) -> f64 {
        self.0.sqrt()
    }

    /// Positive infinity; the identity for `min`.
    pub const INFINITY: Dist = Dist(f64::INFINITY);
    /// Zero distance.
    pub const ZERO: Dist = Dist(0.0);
}

/// `MINDIST(P, R)²`: squared distance from `p` to the nearest point of `r`.
///
/// Returns `0.0` when `p` lies inside `r` and `+∞` for the
/// [`Rect::empty`] identity rectangle.
///
/// ```
/// use nnq_geom::{Point, Rect, mindist_sq};
/// let r = Rect::new(Point::new([1.0, 1.0]), Point::new([2.0, 2.0]));
/// assert_eq!(mindist_sq(&Point::new([1.5, 1.5]), &r), 0.0); // inside
/// assert_eq!(mindist_sq(&Point::new([0.0, 1.5]), &r), 1.0); // left of box
/// assert_eq!(mindist_sq(&Point::new([0.0, 0.0]), &r), 2.0); // corner
/// ```
#[inline]
pub fn mindist_sq<const D: usize>(p: &Point<D>, r: &Rect<D>) -> f64 {
    if r.is_empty() {
        return f64::INFINITY;
    }
    mindist_sq_core(p.coords(), r.lo().coords(), r.hi().coords())
}

/// The per-entry `MINDIST²` computation on raw coordinates. The batched
/// SoA kernel ([`crate::mindist_sq_batch`]) transposes exactly this loop
/// into per-axis passes: a branchless clamp producing the same value as
/// the branchy one below, accumulated in the same left-to-right dimension
/// order, which is what makes its output bit-identical; any change here
/// must be mirrored there.
#[inline(always)]
pub(crate) fn mindist_sq_core<const D: usize>(p: &[f64; D], lo: &[f64; D], hi: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for i in 0..D {
        let c = p[i];
        let d = if c < lo[i] {
            lo[i] - c
        } else if c > hi[i] {
            c - hi[i]
        } else {
            0.0
        };
        acc += d * d;
    }
    acc
}

/// `MINMAXDIST(P, R)²`: the squared pessimistic bound of RKV'95.
///
/// For each dimension `k`, consider travelling to the *nearer* face of `r`
/// along `k` but to the *farther* corner in every other dimension; take the
/// minimum over `k`. Because each face of a minimum bounding rectangle
/// touches at least one enclosed object, some object is guaranteed to lie
/// within this distance.
///
/// Returns `+∞` for empty rectangles. For a degenerate (point) rectangle it
/// equals `MINDIST`.
///
/// Implementation note: candidate `k` is the sum
/// `Σ_i (i == k ? |p_i − rm_i|² : |p_i − rM_i|²)`, evaluated in `O(D)`
/// total as `prefix_k + near_sq[k] + suffix_k`, where `prefix_k` is the
/// left-to-right sum of `far_sq[0..k]` and `suffix_k` the right-to-left
/// sum of `far_sq[k+1..D]`. Unlike the running-sum decomposition
/// `S − far_sq[k] + near_sq[k]` (which cancels `far_sq[k]` back out of `S`
/// and can land one ulp *below* the true value — breaking the strategy-2
/// invariant `MINMAXDIST ≥ MINDIST` on degenerate rectangles), every
/// candidate here is a pure sum of its own terms; in 2-D it associates
/// exactly like direct left-to-right summation. As a belt-and-braces
/// guarantee for higher dimensions, where the prefix/suffix association
/// can differ from direct summation by an ulp, the result is clamped from
/// below to [`mindist_sq`]'s bit pattern, so `minmaxdist_sq ≥ mindist_sq`
/// holds *bitwise* in every dimension (mathematically the clamp is a
/// no-op: MINMAXDIST ≥ MINDIST always).
#[inline]
pub fn minmaxdist_sq<const D: usize>(p: &Point<D>, r: &Rect<D>) -> f64 {
    if r.is_empty() {
        return f64::INFINITY;
    }
    minmaxdist_sq_core(p.coords(), r.lo().coords(), r.hi().coords())
}

/// The per-entry `MINMAXDIST²` computation on raw coordinates. The
/// batched SoA kernel ([`crate::minmaxdist_sq_batch`]) transposes this
/// exact three-stage operation sequence (per-dimension pass, backward
/// suffix sums, forward candidate combine) into block-wide lanes, so any
/// change here must be mirrored there to preserve bit-identity. Assumes a
/// non-empty rectangle; the callers handle the empty case.
#[inline(always)]
pub(crate) fn minmaxdist_sq_core<const D: usize>(
    p: &[f64; D],
    lo: &[f64; D],
    hi: &[f64; D],
) -> f64 {
    // rm_k: coordinate of the nearer face along k.
    // rM_i: coordinate of the farther face along i.
    let mut far_sq = [0.0; D];
    let mut near_sq = [0.0; D];
    let mut min_sq = [0.0; D];
    for i in 0..D {
        let c = p[i];
        let (l, h) = (lo[i], hi[i]);
        let mid = (l + h) * 0.5;
        let (near, far) = if c <= mid { (l, h) } else { (h, l) };
        let dn = c - near;
        let df = c - far;
        near_sq[i] = dn * dn;
        far_sq[i] = df * df;
        // The same per-dimension term mindist_sq_core computes, for the
        // bitwise MINDIST floor below.
        let dm = if c < l {
            l - c
        } else if c > h {
            c - h
        } else {
            0.0
        };
        min_sq[i] = dm * dm;
    }
    // suffix[k] = far_sq[k+1] + (far_sq[k+2] + (… + 0.0)), right-to-left.
    let mut suffix = [0.0; D];
    let mut tail = 0.0;
    for i in (0..D).rev() {
        suffix[i] = tail;
        tail += far_sq[i];
    }
    let mut best = f64::INFINITY;
    let mut prefix = 0.0;
    let mut floor = 0.0;
    for k in 0..D {
        let cand = (prefix + near_sq[k]) + suffix[k];
        if cand < best {
            best = cand;
        }
        prefix += far_sq[k];
        // Accumulated exactly like mindist_sq_core accumulates, so `floor`
        // reproduces MINDIST² bit-for-bit.
        floor += min_sq[k];
    }
    if best < floor {
        floor
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(lo: [f64; 2], hi: [f64; 2]) -> Rect<2> {
        Rect::new(Point::new(lo), Point::new(hi))
    }

    /// Squared distance from `p` to the farthest corner of `r`.
    fn farthest_corner_sq<const D: usize>(p: &Point<D>, r: &Rect<D>) -> f64 {
        (0..D)
            .map(|i| {
                let d = (p[i] - r.lo()[i]).abs().max((p[i] - r.hi()[i]).abs());
                d * d
            })
            .sum()
    }

    #[test]
    fn mindist_inside_is_zero() {
        let r = r2([0.0, 0.0], [4.0, 4.0]);
        assert_eq!(mindist_sq(&Point::new([2.0, 2.0]), &r), 0.0);
        // boundary counts as inside
        assert_eq!(mindist_sq(&Point::new([0.0, 2.0]), &r), 0.0);
        assert_eq!(mindist_sq(&Point::new([4.0, 4.0]), &r), 0.0);
    }

    #[test]
    fn mindist_face_and_corner_cases() {
        let r = r2([1.0, 1.0], [3.0, 3.0]);
        // directly left: distance 1 along x only
        assert_eq!(mindist_sq(&Point::new([0.0, 2.0]), &r), 1.0);
        // diagonal from the (1,1) corner
        assert_eq!(mindist_sq(&Point::new([0.0, 0.0]), &r), 2.0);
        // above: distance 2 along y
        assert_eq!(mindist_sq(&Point::new([2.0, 5.0]), &r), 4.0);
    }

    #[test]
    fn minmaxdist_square_from_outside() {
        // Unit square [0,1]^2, query at (-1, 0.5): the near face is x=0.
        // Candidate k=x: |p_x-0|^2 + |p_y - far_y|^2 = 1 + 0.25 = 1.25
        // Candidate k=y: near face y=0 (p_y=0.5 <= mid? p_y == mid -> lo),
        //   |p_y-0|^2 + |p_x - far_x(=1)|^2 = 0.25 + 4 = 4.25
        let r = r2([0.0, 0.0], [1.0, 1.0]);
        let p = Point::new([-1.0, 0.5]);
        assert_eq!(minmaxdist_sq(&p, &r), 1.25);
    }

    #[test]
    fn minmaxdist_point_rect_equals_mindist() {
        let r = Rect::from_point(Point::new([3.0, 4.0]));
        let p = Point::new([0.0, 0.0]);
        assert_eq!(minmaxdist_sq(&p, &r), 25.0);
        assert_eq!(mindist_sq(&p, &r), 25.0);
    }

    #[test]
    fn metric_ordering_mindist_le_minmaxdist_le_maxdist() {
        // MAXDIST (the farthest corner) bounds MINMAXDIST from above.
        let r = r2([2.0, -1.0], [5.0, 7.0]);
        for p in [
            Point::new([0.0, 0.0]),
            Point::new([3.0, 3.0]),
            Point::new([10.0, -5.0]),
            Point::new([2.0, -1.0]),
        ] {
            let lo = mindist_sq(&p, &r);
            let mid = minmaxdist_sq(&p, &r);
            let hi = farthest_corner_sq(&p, &r);
            assert!(lo <= mid, "mindist {lo} > minmaxdist {mid} at {p:?}");
            assert!(mid <= hi, "minmaxdist {mid} > maxdist {hi} at {p:?}");
        }
    }

    #[test]
    fn empty_rect_metrics_are_infinite() {
        let e = Rect::<2>::empty();
        let p = Point::new([0.0, 0.0]);
        assert_eq!(mindist_sq(&p, &e), f64::INFINITY);
        assert_eq!(minmaxdist_sq(&p, &e), f64::INFINITY);
    }

    #[test]
    fn minmaxdist_inside_query() {
        // Query at center of unit square: near face at distance 0.5 in each
        // dim, far face at 0.5 too; every candidate is 0.25 + 0.25 = 0.5.
        let r = r2([0.0, 0.0], [1.0, 1.0]);
        let p = Point::new([0.5, 0.5]);
        assert_eq!(minmaxdist_sq(&p, &r), 0.5);
    }

    #[test]
    fn works_in_three_dimensions() {
        let r = Rect::new(Point::new([0.0, 0.0, 0.0]), Point::new([2.0, 2.0, 2.0]));
        let p = Point::new([-1.0, 1.0, 1.0]);
        assert_eq!(mindist_sq(&p, &r), 1.0);
        // near face x=0 (dist 1), far corners y,z at dist 1 each: 1+1+1=3
        // candidates along y/z: near 1, far x dist 3^2=9 ... k=x wins.
        assert_eq!(minmaxdist_sq(&p, &r), 3.0);
    }

    #[test]
    fn minmaxdist_degenerate_rect_is_not_below_mindist() {
        // Regression: for a zero-extent dimension, MINMAXDIST == MINDIST
        // mathematically, and the implementation must honor that *bitwise* —
        // the old running-sum form landed one ulp below MINDIST here, which
        // made strategy-2 object pruning drop a true nearest neighbor.
        // Coordinates are the vertical TIGER-like segment MBR and query from
        // the failing seed test (tests/tests/concurrency_and_heap.rs).
        let r = r2(
            [13208.574660136528, 14944.100107353193],
            [13208.574660136528, 15079.90946297344],
        );
        let p = Point::new([16434.215881051285, 7556.259730736836]);
        let lo = mindist_sq(&p, &r);
        let mid = minmaxdist_sq(&p, &r);
        assert_eq!(mid, lo, "degenerate MBR: minmaxdist {mid} != mindist {lo}");

        // Same invariant swept over both axis orientations and a grid of
        // awkward large-magnitude positions.
        for i in 0..50 {
            let t = i as f64 * 997.13 + 0.123_456_789;
            let vert = r2([13208.5 + t, 14944.1], [13208.5 + t, 15079.9]);
            let horiz = r2([14944.1, 13208.5 + t], [15079.9, 13208.5 + t]);
            for r in [vert, horiz] {
                let lo = mindist_sq(&p, &r);
                let mid = minmaxdist_sq(&p, &r);
                assert!(mid >= lo, "minmaxdist {mid} < mindist {lo} for {r:?}");
            }
        }
    }

    #[test]
    fn minmaxdist_matches_direct_sum_in_2d() {
        // In 2-D every candidate of the O(D) prefix/suffix form associates
        // exactly like the O(D²) direct-sum reference, so the two must be
        // bit-identical — this pins the rewrite against the reference.
        fn direct_sum(p: &Point<2>, r: &Rect<2>) -> f64 {
            let mut far_sq = [0.0; 2];
            let mut near_sq = [0.0; 2];
            for i in 0..2 {
                let c = p[i];
                let mid = (r.lo()[i] + r.hi()[i]) * 0.5;
                let (near, far) = if c <= mid {
                    (r.lo()[i], r.hi()[i])
                } else {
                    (r.hi()[i], r.lo()[i])
                };
                near_sq[i] = (c - near) * (c - near);
                far_sq[i] = (c - far) * (c - far);
            }
            let mut best = f64::INFINITY;
            for k in 0..2 {
                let mut cand = 0.0;
                for i in 0..2 {
                    cand += if i == k { near_sq[i] } else { far_sq[i] };
                }
                if cand < best {
                    best = cand;
                }
            }
            best
        }
        for i in 0..200 {
            let t = i as f64 * 13.37 + 0.191_919;
            let r = r2(
                [t, -t * 0.31],
                [t + (i % 7) as f64 * 0.503, -t * 0.31 + 11.7],
            );
            let p = Point::new([t * 0.77 - 100.0, t * 1.13 + 3.0]);
            assert_eq!(
                minmaxdist_sq(&p, &r).to_bits(),
                direct_sum(&p, &r).to_bits(),
                "O(D) form diverged from direct sum for {r:?} / {p:?}"
            );
        }
    }

    #[test]
    fn minmaxdist_never_below_mindist_in_high_dims() {
        // The bitwise MINDIST floor must hold in dimensions where the
        // prefix/suffix association could otherwise dip an ulp below.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2e4 - 1e4
        };
        for _ in 0..500 {
            let mut lo = [0.0; 8];
            let mut hi = [0.0; 8];
            let mut p = [0.0; 8];
            for i in 0..8 {
                let a = next();
                let b = next();
                lo[i] = a.min(b);
                hi[i] = a.max(b);
                p[i] = next();
            }
            // Degenerate one axis: this is where equality is tight.
            hi[3] = lo[3];
            let r = Rect::new(Point::new(lo), Point::new(hi));
            let q = Point::new(p);
            let lo_d = mindist_sq(&q, &r);
            let mid_d = minmaxdist_sq(&q, &r);
            assert!(mid_d >= lo_d, "minmaxdist {mid_d} < mindist {lo_d}");
        }
    }

    #[test]
    fn dist_newtype_round_trips() {
        let d = Dist::from_linear(3.0);
        assert_eq!(d.sq(), 9.0);
        assert_eq!(d.linear(), 3.0);
        assert_eq!(Dist::from_sq(16.0).linear(), 4.0);
        assert!(Dist::ZERO < Dist::INFINITY);
    }
}
