//! Batched struct-of-arrays (SoA) distance kernels.
//!
//! The branch-and-bound traversals evaluate `MINDIST`/`MINMAXDIST` for
//! *every* entry of every visited node. Calling the scalar metrics once
//! per entry walks an array-of-structs ([`Rect`] per entry) with a branchy
//! inner loop per call — a shape the auto-vectorizer cannot do much with.
//! [`SoaRects`] stores the same MBRs axis-major (`lo` lane then `hi` lane
//! per axis, contiguous across entries), and the `*_batch` kernels below
//! compute one metric for the whole entry array in per-axis passes over
//! those lanes, which vectorize cleanly.
//!
//! ## The kernel contract: bit-identical to the scalar metrics
//!
//! Every `*_batch` kernel produces, for each entry `j`, **exactly the bit
//! pattern** the corresponding scalar metric returns for that entry's
//! rectangle. Floating-point addition is not associative, so this is a
//! real constraint, not a given: the kernels perform the *same operation
//! sequence per entry* as the scalar code (per-dimension terms accumulated
//! in dimension order for `MINDIST`; the shared
//! `minmaxdist_sq_core` for `MINMAXDIST`), and IEEE-754 arithmetic is
//! deterministic, so the results agree bit-for-bit. Rust performs no
//! fast-math reassociation or implicit FMA contraction, in debug or
//! release, which the CI equivalence runs double-check.
//!
//! The contract is what lets `nnq-core` offer the kernels as a drop-in
//! (`KernelMode`): identical bounds ⇒ identical ABL ordering, tie-breaks,
//! pruning decisions — and therefore identical page-access counts, the
//! paper's cost metric.
//!
//! Empty rectangles (the `Rect::empty` identity, `lo > hi` somewhere) get
//! `+∞` from every kernel, matching the scalar early return.

use crate::{Point, Rect};

/// Entries processed per blocked pass of [`minmaxdist_sq_batch`]. The
/// block's per-axis scratch (`~4·D·BLOCK` doubles) must stay stack- and
/// L1-resident; 64 keeps that at a few KiB for realistic `D` while giving
/// the vectorizer long stride-1 runs.
const BLOCK: usize = 64;

/// A fixed set of rectangles in struct-of-arrays layout: per axis, a `lo`
/// lane and a `hi` lane, each contiguous across all rectangles.
///
/// Built once (e.g. when an R-tree node is decoded) and read many times by
/// the `*_batch` kernels; element order is preserved, so kernel output
/// index `j` corresponds to the `j`-th rectangle passed to
/// [`SoaRects::from_rects`].
///
/// ```
/// use nnq_geom::{Point, Rect, SoaRects, mindist_sq, mindist_sq_batch};
/// let rects = [
///     Rect::new(Point::new([0.0, 0.0]), Point::new([1.0, 1.0])),
///     Rect::new(Point::new([5.0, 5.0]), Point::new([6.0, 7.0])),
/// ];
/// let soa = SoaRects::from_rects(rects.iter());
/// let q = Point::new([2.0, 0.5]);
/// let mut out = Vec::new();
/// mindist_sq_batch(&q, &soa, &mut out);
/// assert_eq!(out, vec![mindist_sq(&q, &rects[0]), mindist_sq(&q, &rects[1])]);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SoaRects<const D: usize> {
    len: usize,
    /// `2 * D` lanes of `len` values each: for axis `i`, lane `2i` holds
    /// the `lo` coordinates and lane `2i + 1` the `hi` coordinates. The
    /// two lanes of one axis are adjacent, so an axis pass touches one
    /// contiguous `2 * len` window.
    lanes: Box<[f64]>,
}

impl<const D: usize> SoaRects<D> {
    /// Transposes rectangles into axis-major lanes. `rects` must report an
    /// exact length (slices and `Vec` iterators do).
    pub fn from_rects<'a, I>(rects: I) -> Self
    where
        I: ExactSizeIterator<Item = &'a Rect<D>>,
    {
        let len = rects.len();
        let mut lanes = vec![0.0; 2 * D * len].into_boxed_slice();
        for (j, r) in rects.enumerate() {
            for i in 0..D {
                lanes[2 * i * len + j] = r.lo()[i];
                lanes[(2 * i + 1) * len + j] = r.hi()[i];
            }
        }
        Self { len, lanes }
    }

    /// Number of rectangles.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `lo` coordinates of axis `i`, one per rectangle.
    #[inline]
    pub fn lo_axis(&self, i: usize) -> &[f64] {
        &self.lanes[2 * i * self.len..(2 * i + 1) * self.len]
    }

    /// The `hi` coordinates of axis `i`, one per rectangle.
    #[inline]
    pub fn hi_axis(&self, i: usize) -> &[f64] {
        &self.lanes[(2 * i + 1) * self.len..(2 * i + 2) * self.len]
    }

    /// Reassembles the `j`-th rectangle (test/debug helper; the hot paths
    /// never gather). Any rectangle with an inverted extent comes back as
    /// the [`Rect::empty`] identity.
    pub fn get(&self, j: usize) -> Rect<D> {
        assert!(j < self.len, "index {j} out of bounds for {}", self.len);
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            lo[i] = self.lo_axis(i)[j];
            hi[i] = self.hi_axis(i)[j];
        }
        if lo.iter().zip(hi.iter()).any(|(l, h)| l > h) {
            return Rect::empty();
        }
        Rect::from_sorted(Point::new(lo), Point::new(hi))
    }
}

/// Overwrites `out[j]` with `+∞` for every empty rectangle. Shared
/// fix-up pass: the main axis passes compute garbage-free sums without
/// per-lane emptiness branches, then this restores the scalar metrics'
/// empty-rectangle contract.
#[inline(always)]
fn patch_empty<const D: usize>(rects: &SoaRects<D>, out: &mut [f64]) {
    for i in 0..D {
        let lo = rects.lo_axis(i);
        let hi = rects.hi_axis(i);
        for (o, (&l, &h)) in out.iter_mut().zip(lo.iter().zip(hi)) {
            // Select, not branch, so the pass vectorizes.
            *o = if l > h { f64::INFINITY } else { *o };
        }
    }
}

/// `MINDIST²` from `q` to every rectangle of `rects`, written into `out`
/// (cleared and refilled; reuse one buffer across calls to stay
/// allocation-free).
///
/// Bit-identical per entry to [`crate::mindist_sq`]; see the module docs
/// for why.
pub fn mindist_sq_batch<const D: usize>(q: &Point<D>, rects: &SoaRects<D>, out: &mut Vec<f64>) {
    out.clear();
    out.resize(rects.len(), 0.0);
    if D == 2 {
        // Fused single pass for the dominant planar case: both axes and
        // the empty-rectangle patch in one loop, everything in registers.
        // Term order matches the generic path (axis 0 then axis 1; the
        // squares are never `-0.0`, so folding away the running sum's
        // `0.0 +` start is exact).
        let (c0, c1) = (q[0], q[1]);
        let (lo0, hi0) = (rects.lo_axis(0), rects.hi_axis(0));
        let (lo1, hi1) = (rects.lo_axis(1), rects.hi_axis(1));
        let lanes = lo0.iter().zip(hi0).zip(lo1.iter().zip(hi1));
        for (o, ((&l0, &h0), (&l1, &h1))) in out.iter_mut().zip(lanes) {
            let d0 = (l0 - c0).max(0.0).max(c0 - h0);
            let d1 = (l1 - c1).max(0.0).max(c1 - h1);
            let v = d0 * d0 + d1 * d1;
            *o = if (l0 > h0) | (l1 > h1) {
                f64::INFINITY
            } else {
                v
            };
        }
        return;
    }
    // Per-axis passes accumulate each entry's terms in dimension order —
    // the scalar loop's exact summation order, transposed.
    for i in 0..D {
        let c = q[i];
        let lo = rects.lo_axis(i);
        let hi = rects.hi_axis(i);
        for (o, (&l, &h)) in out.iter_mut().zip(lo.iter().zip(hi)) {
            // Branchless clamp: produces the same value as the scalar
            // `if c < l { l - c } else if c > h { c - h } else { 0.0 }`
            // (the two max-terms are never both positive, and a `-0.0`
            // survivor squares to the same bits as `0.0`), but compiles
            // to straight-line max ops the vectorizer handles.
            let d = (l - c).max(0.0).max(c - h);
            *o += d * d;
        }
    }
    patch_empty(rects, out);
}

/// `MINMAXDIST²` from `q` to every rectangle of `rects`, written into
/// `out` (cleared and refilled).
///
/// Bit-identical per entry to [`crate::minmaxdist_sq`]: this is the
/// scalar `minmaxdist_sq_core` transposed into [`BLOCK`]-wide lanes. Per
/// block it runs the same three stages in the same per-entry operation
/// order — the per-dimension pass (near/far squared distances plus the
/// `MINDIST` floor terms, accumulated in dimension order), the backward
/// suffix sums of `far²`, and the forward candidate combine
/// `(prefix + near²ₖ) + suffixₖ` with the final floor clamp — just for
/// `BLOCK` entries at a time, so every stage is a stride-1 loop the
/// vectorizer handles. Each entry's values never mix with its
/// neighbors', so per-entry bits match the scalar core exactly.
pub fn minmaxdist_sq_batch<const D: usize>(q: &Point<D>, rects: &SoaRects<D>, out: &mut Vec<f64>) {
    out.clear();
    out.resize(rects.len(), 0.0);
    if D == 2 {
        // Fused single pass for the planar case, unrolling the scalar
        // core's three stages for D = 2 with everything in registers.
        // The operation sequence below is the core's, literally: the
        // `+ 0.0` terms are its loop-boundary prefix/suffix/tail values
        // (exact no-ops on the non-negative squares involved, and kept
        // explicit so the correspondence is auditable).
        let (c0, c1) = (q[0], q[1]);
        let (lo0, hi0) = (rects.lo_axis(0), rects.hi_axis(0));
        let (lo1, hi1) = (rects.lo_axis(1), rects.hi_axis(1));
        let lanes = lo0.iter().zip(hi0).zip(lo1.iter().zip(hi1));
        for (o, ((&l0, &h0), (&l1, &h1))) in out.iter_mut().zip(lanes) {
            // Per-dimension pass.
            let mid0 = (l0 + h0) * 0.5;
            let (near0, far0) = if c0 <= mid0 { (l0, h0) } else { (h0, l0) };
            let (dn0, df0) = (c0 - near0, c0 - far0);
            let (ns0, fs0) = (dn0 * dn0, df0 * df0);
            let dm0 = (l0 - c0).max(0.0).max(c0 - h0);
            let mid1 = (l1 + h1) * 0.5;
            let (near1, far1) = if c1 <= mid1 { (l1, h1) } else { (h1, l1) };
            let (dn1, df1) = (c1 - near1, c1 - far1);
            let (ns1, fs1) = (dn1 * dn1, df1 * df1);
            let dm1 = (l1 - c1).max(0.0).max(c1 - h1);
            // Backward suffix sums of far².
            let suffix1 = 0.0;
            let suffix0 = fs1 + 0.0;
            // Forward candidate combine with the MINDIST floor clamp.
            let mut best = f64::INFINITY;
            let cand0 = (0.0 + ns0) + suffix0;
            if cand0 < best {
                best = cand0;
            }
            let cand1 = ((0.0 + fs0) + ns1) + suffix1;
            if cand1 < best {
                best = cand1;
            }
            let floor = (0.0 + dm0 * dm0) + dm1 * dm1;
            let v = if best < floor { floor } else { best };
            *o = if (l0 > h0) | (l1 > h1) {
                f64::INFINITY
            } else {
                v
            };
        }
        return;
    }
    let len = rects.len();
    let mut start = 0;
    while start < len {
        let blen = BLOCK.min(len - start);
        let mut near_sq = [[0.0f64; BLOCK]; D];
        let mut far_sq = [[0.0f64; BLOCK]; D];
        let mut floor = [0.0f64; BLOCK];
        for i in 0..D {
            let c = q[i];
            let lo = &rects.lo_axis(i)[start..start + blen];
            let hi = &rects.hi_axis(i)[start..start + blen];
            let ns = &mut near_sq[i];
            let fs = &mut far_sq[i];
            for t in 0..blen {
                let (l, h) = (lo[t], hi[t]);
                let mid = (l + h) * 0.5;
                let (near, far) = if c <= mid { (l, h) } else { (h, l) };
                let dn = c - near;
                let df = c - far;
                ns[t] = dn * dn;
                fs[t] = df * df;
                // Same branchless MINDIST term as `mindist_sq_batch`;
                // the floor accumulates in dimension order, matching the
                // scalar core's `floor += min_sq[k]` ascending-k sum.
                let dm = (l - c).max(0.0).max(c - h);
                floor[t] += dm * dm;
            }
        }
        // Backward pass: suffix sums of far², right-associated exactly as
        // the scalar core's `suffix[i] = tail; tail = far_sq[i] + tail`.
        let mut suffix = [[0.0f64; BLOCK]; D];
        let mut tail = [0.0f64; BLOCK];
        for i in (0..D).rev() {
            let fs = &far_sq[i];
            suffix[i][..blen].copy_from_slice(&tail[..blen]);
            for t in 0..blen {
                tail[t] += fs[t];
            }
        }
        // Forward combine: candidate per axis, running far² prefix.
        let mut best = [f64::INFINITY; BLOCK];
        let mut prefix = [0.0f64; BLOCK];
        for k in 0..D {
            let ns = &near_sq[k];
            let fs = &far_sq[k];
            let sf = &suffix[k];
            for t in 0..blen {
                let cand = (prefix[t] + ns[t]) + sf[t];
                if cand < best[t] {
                    best[t] = cand;
                }
                prefix[t] += fs[t];
            }
        }
        let o = &mut out[start..start + blen];
        for t in 0..blen {
            o[t] = if best[t] < floor[t] {
                floor[t]
            } else {
                best[t]
            };
        }
        start += blen;
    }
    patch_empty(rects, out);
}

/// For every rectangle of `rects`, whether it intersects `window`
/// (boundary-touching counts, exactly as [`Rect::intersects`]). Written
/// into `out` (cleared and refilled).
///
/// An empty rectangle intersects nothing, which falls out of the
/// comparisons with its inverted corners — again matching the scalar
/// predicate.
pub fn intersects_batch<const D: usize>(
    window: &Rect<D>,
    rects: &SoaRects<D>,
    out: &mut Vec<bool>,
) {
    out.clear();
    out.resize(rects.len(), true);
    for i in 0..D {
        let (wl, wh) = (window.lo()[i], window.hi()[i]);
        let lo = rects.lo_axis(i);
        let hi = rects.hi_axis(i);
        for (o, (&l, &h)) in out.iter_mut().zip(lo.iter().zip(hi)) {
            *o &= l <= wh && wl <= h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mindist_sq, minmaxdist_sq};

    fn sample_rects() -> Vec<Rect<2>> {
        let mut rects = Vec::new();
        for i in 0..37 {
            let t = i as f64 * 7.31 - 100.0;
            rects.push(Rect::new(
                Point::new([t, -t * 0.5]),
                Point::new([t + (i % 5) as f64, -t * 0.5 + (i % 3) as f64]),
            ));
        }
        // Degenerate (point / segment) and empty rectangles.
        rects.push(Rect::from_point(Point::new([3.25, -8.5])));
        rects.push(Rect::new(Point::new([1.0, 2.0]), Point::new([1.0, 9.0])));
        rects.push(Rect::empty());
        rects
    }

    #[test]
    fn soa_round_trips_rectangles() {
        let rects = sample_rects();
        let soa = SoaRects::from_rects(rects.iter());
        assert_eq!(soa.len(), rects.len());
        assert!(!soa.is_empty());
        for (j, r) in rects.iter().enumerate() {
            assert_eq!(soa.get(j), *r);
        }
        assert!(SoaRects::<2>::from_rects([].iter()).is_empty());
    }

    #[test]
    fn batch_kernels_match_scalar_bitwise() {
        let rects = sample_rects();
        let soa = SoaRects::from_rects(rects.iter());
        let queries = [
            Point::new([0.0, 0.0]),
            Point::new([-250.3, 117.9]),
            Point::new([3.25, -8.5]),
            Point::new([1e9, -1e9]),
        ];
        let (mut md, mut mm) = (Vec::new(), Vec::new());
        for q in &queries {
            mindist_sq_batch(q, &soa, &mut md);
            minmaxdist_sq_batch(q, &soa, &mut mm);
            for (j, r) in rects.iter().enumerate() {
                assert_eq!(md[j].to_bits(), mindist_sq(q, r).to_bits(), "mindist {j}");
                assert_eq!(
                    mm[j].to_bits(),
                    minmaxdist_sq(q, r).to_bits(),
                    "minmaxdist {j}"
                );
            }
        }
    }

    #[test]
    fn intersects_batch_matches_scalar() {
        let rects = sample_rects();
        let soa = SoaRects::from_rects(rects.iter());
        let windows = [
            Rect::new(Point::new([-50.0, -50.0]), Point::new([50.0, 50.0])),
            Rect::from_point(Point::new([1.0, 5.0])),
            Rect::<2>::empty(),
        ];
        let mut mask = Vec::new();
        for w in &windows {
            intersects_batch(w, &soa, &mut mask);
            for (j, r) in rects.iter().enumerate() {
                assert_eq!(mask[j], r.intersects(w), "window {w:?}, rect {j}");
            }
        }
    }

    #[test]
    fn output_buffers_are_refilled_not_appended() {
        let rects = sample_rects();
        let soa = SoaRects::from_rects(rects.iter());
        let q = Point::new([1.0, 1.0]);
        let mut out = vec![42.0; 500];
        mindist_sq_batch(&q, &soa, &mut out);
        assert_eq!(out.len(), rects.len());
        minmaxdist_sq_batch(&q, &soa, &mut out);
        assert_eq!(out.len(), rects.len());
    }
}
