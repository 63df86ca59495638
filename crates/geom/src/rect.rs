//! Axis-aligned minimum bounding rectangles (MBRs).

use crate::Point;
use std::fmt;

/// An axis-aligned rectangle in `D`-dimensional space, stored as its
/// component-wise lower and upper corners.
///
/// This is the *minimum bounding rectangle* (MBR) of R-tree terminology:
/// every R-tree entry — both the routing entries of internal nodes and the
/// data entries of leaves — carries one.
///
/// Degenerate rectangles (`lo == hi` in some or all dimensions) are valid
/// and represent points or lower-dimensional boxes. An MBR is only invalid
/// if `lo[i] > hi[i]` for some `i`; constructors never produce such a value
/// and [`Rect::is_valid`] can be used to check untrusted (e.g. deserialized)
/// data.
#[derive(Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    lo: Point<D>,
    hi: Point<D>,
}

impl<const D: usize> Rect<D> {
    /// Creates a rectangle from two opposite corners, normalizing so that
    /// `lo` is the component-wise minimum.
    #[inline]
    pub fn new(a: Point<D>, b: Point<D>) -> Self {
        Self {
            lo: a.min(&b),
            hi: a.max(&b),
        }
    }

    /// Creates a rectangle from corners that are already ordered
    /// (`lo[i] <= hi[i]` for all `i`).
    ///
    /// # Panics
    /// Panics in debug builds if the corners are not ordered.
    #[inline]
    pub const fn from_sorted(lo: Point<D>, hi: Point<D>) -> Self {
        let mut i = 0;
        while i < D {
            debug_assert!(
                lo.coords()[i] <= hi.coords()[i],
                "from_sorted requires lo <= hi component-wise"
            );
            i += 1;
        }
        Self { lo, hi }
    }

    /// The degenerate rectangle containing exactly one point.
    #[inline]
    pub fn from_point(p: Point<D>) -> Self {
        Self { lo: p, hi: p }
    }

    /// The "empty" rectangle: an identity element for [`Rect::union`].
    ///
    /// Its corners are `+∞`/`-∞`, so union with any rectangle yields that
    /// rectangle. It reports zero area and does not intersect anything.
    #[inline]
    pub fn empty() -> Self {
        Self {
            lo: Point::new([f64::INFINITY; D]),
            hi: Point::new([f64::NEG_INFINITY; D]),
        }
    }

    /// Returns `true` if this is the [`Rect::empty`] identity (or any
    /// rectangle with an inverted extent).
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|i| self.lo[i] > self.hi[i])
    }

    /// Returns `true` if all coordinates are finite and ordered.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite() && (0..D).all(|i| self.lo[i] <= self.hi[i])
    }

    /// The lower corner.
    #[inline]
    pub const fn lo(&self) -> &Point<D> {
        &self.lo
    }

    /// The upper corner.
    #[inline]
    pub const fn hi(&self) -> &Point<D> {
        &self.hi
    }

    /// The center point.
    #[inline]
    pub fn center(&self) -> Point<D> {
        self.lo.lerp(&self.hi, 0.5)
    }

    /// The extent (side length) along dimension `dim`.
    #[inline]
    pub fn extent(&self, dim: usize) -> f64 {
        self.hi[dim] - self.lo[dim]
    }

    /// The area (D-dimensional volume). Zero for degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|i| self.extent(i)).product()
    }

    /// The margin: the sum of the side lengths over all dimensions.
    ///
    /// Used by the R*-tree split heuristic (minimizing perimeter yields more
    /// square-ish, better-clustered nodes).
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|i| self.extent(i)).sum()
    }

    /// The smallest rectangle containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        Self {
            lo: self.lo.min(&other.lo),
            hi: self.hi.max(&other.hi),
        }
    }

    /// Grows `self` in place to contain `other`.
    #[inline]
    pub fn union_in_place(&mut self, other: &Self) {
        self.lo = self.lo.min(&other.lo);
        self.hi = self.hi.max(&other.hi);
    }

    /// The intersection of `self` and `other`, or `None` if they are
    /// disjoint.
    #[inline]
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        let lo = self.lo.max(&other.lo);
        let hi = self.hi.min(&other.hi);
        if (0..D).all(|i| lo[i] <= hi[i]) {
            Some(Self { lo, hi })
        } else {
            None
        }
    }

    /// The area of the intersection of `self` and `other` (zero if
    /// disjoint). This is the *overlap* used by the R*-tree ChooseSubtree
    /// and split heuristics.
    #[inline]
    pub fn overlap_area(&self, other: &Self) -> f64 {
        let mut acc = 1.0;
        for i in 0..D {
            let lo = self.lo[i].max(other.lo[i]);
            let hi = self.hi[i].min(other.hi[i]);
            if lo >= hi {
                return 0.0;
            }
            acc *= hi - lo;
        }
        acc
    }

    /// Returns `true` if the rectangles share at least one point
    /// (boundaries touching counts as intersecting).
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        (0..D).all(|i| self.lo[i] <= other.hi[i] && other.lo[i] <= self.hi[i])
    }

    /// Returns `true` if `other` lies entirely inside `self`
    /// (boundaries may coincide).
    #[inline]
    pub fn contains_rect(&self, other: &Self) -> bool {
        (0..D).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// Returns `true` if the point lies inside `self`
    /// (boundaries inclusive).
    #[inline]
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        (0..D).all(|i| self.lo[i] <= p[i] && p[i] <= self.hi[i])
    }

    /// The increase in area needed to include `other`:
    /// `area(self ∪ other) − area(self)`.
    ///
    /// This is Guttman's ChooseLeaf criterion.
    #[inline]
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.union(other).area() - self.area()
    }
}

impl<const D: usize> fmt::Debug for Rect<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect[{:?} .. {:?}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect<2> {
        Rect::new(Point::new(lo), Point::new(hi))
    }

    #[test]
    fn new_normalizes_corners() {
        let a = Rect::new(Point::new([3.0, 1.0]), Point::new([1.0, 4.0]));
        assert_eq!(*a.lo(), Point::new([1.0, 1.0]));
        assert_eq!(*a.hi(), Point::new([3.0, 4.0]));
    }

    #[test]
    fn area_and_margin() {
        let a = r([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(a.area(), 6.0);
        assert_eq!(a.margin(), 5.0);
        assert_eq!(Rect::<2>::empty().area(), 0.0);
        assert_eq!(Rect::<2>::empty().margin(), 0.0);
    }

    #[test]
    fn degenerate_rect_has_zero_area_but_is_valid() {
        let p = Rect::from_point(Point::new([1.0, 2.0]));
        assert!(p.is_valid());
        assert!(!p.is_empty());
        assert_eq!(p.area(), 0.0);
        assert!(p.contains_point(&Point::new([1.0, 2.0])));
    }

    #[test]
    fn empty_is_union_identity() {
        let a = r([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(Rect::empty().union(&a), a);
        assert_eq!(a.union(&Rect::empty()), a);
        assert!(Rect::<2>::empty().is_empty());
    }

    #[test]
    fn union_contains_both() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([2.0, -1.0], [3.0, 0.5]);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r([0.0, -1.0], [3.0, 1.0]));
    }

    #[test]
    fn intersection_of_overlapping_rects() {
        let a = r([0.0, 0.0], [2.0, 2.0]);
        let b = r([1.0, 1.0], [3.0, 3.0]);
        assert_eq!(a.intersection(&b), Some(r([1.0, 1.0], [2.0, 2.0])));
        assert_eq!(a.overlap_area(&b), 1.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn intersection_of_disjoint_rects_is_none() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([2.0, 2.0], [3.0, 3.0]);
        assert_eq!(a.intersection(&b), None);
        assert_eq!(a.overlap_area(&b), 0.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn touching_rects_intersect_with_zero_overlap() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([1.0, 0.0], [2.0, 1.0]);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
        // Touching boundaries produce a degenerate intersection.
        assert_eq!(a.intersection(&b), Some(r([1.0, 0.0], [1.0, 1.0])));
    }

    #[test]
    fn containment_is_boundary_inclusive() {
        let a = r([0.0, 0.0], [4.0, 4.0]);
        assert!(a.contains_rect(&a));
        assert!(a.contains_rect(&r([0.0, 0.0], [4.0, 2.0])));
        assert!(!a.contains_rect(&r([0.0, 0.0], [4.1, 2.0])));
        assert!(a.contains_point(&Point::new([4.0, 4.0])));
        assert!(!a.contains_point(&Point::new([4.0, 4.1])));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = r([0.0, 0.0], [4.0, 4.0]);
        assert_eq!(a.enlargement(&r([1.0, 1.0], [2.0, 2.0])), 0.0);
        assert_eq!(a.enlargement(&r([0.0, 0.0], [4.0, 6.0])), 8.0);
    }

    #[test]
    fn center_of_box() {
        assert_eq!(r([0.0, 2.0], [4.0, 4.0]).center(), Point::new([2.0, 3.0]));
    }

    #[test]
    fn is_valid_rejects_nan() {
        let bad = Rect::from_sorted(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        assert!(bad.is_valid());
        let nan = Rect {
            lo: Point::new([f64::NAN, 0.0]),
            hi: Point::new([1.0, 1.0]),
        };
        assert!(!nan.is_valid());
    }
}
