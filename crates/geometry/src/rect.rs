//! Axis-aligned bounding rectangles (hyper-rectangles).
//!
//! Rectangles are the region shape of the R\*-tree and the K-D-B-tree, and
//! one half of the SR-tree's sphere∩rectangle regions. Besides the usual
//! union/area/margin operations the R\*-split needs, this module implements
//! the two distance functions of Roussopoulos et al.:
//! `MINDIST` ([`Rect::min_dist2`]) and the farthest-vertex distance
//! ([`Rect::max_dist2`]) that the SR-tree's bounding-sphere radius rule
//! (paper §4.2, the `MAXDIST` term of `d_r`) relies on.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::vector::Point;

/// One axis of `MINDIST`: how far `x` lies outside `[lo, hi]`, zero
/// inside. The term of [`Rect::min_dist2`] and of the raw-bytes kernels
/// (`rect_min_dist2_f64le`, `sphere_rect_min_dist2_f64le`).
///
/// Clamped rather than branched: at most one of the two differences is
/// positive, so the sum is that difference, or zero. It is bit-identical
/// to the three-way `if x < lo { lo - x } else if x > hi { x - hi } else
/// { 0 }` for every ordered `[lo, hi]`, ±0.0 and ±∞ bounds included, and
/// for NaN bounds: `f64::max` drops a NaN difference just as the branch
/// drops a false comparison. Only an inverted `lo > hi` (corrupt page
/// bytes, which the search path does not validate) can differ. The
/// branches it replaces follow the data, so the predictor missed them on
/// about every other axis.
#[inline]
pub(crate) fn min_dist_term(lo: f64, hi: f64, x: f64) -> f64 {
    (lo - x).max(0.0) + (x - hi).max(0.0)
}

/// An axis-aligned hyper-rectangle, stored as per-dimension `[min, max]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    min: Box<[f32]>,
    max: Box<[f32]>,
}

impl Rect {
    /// Build a rectangle from per-dimension bounds.
    ///
    /// # Panics
    /// Panics if the slices differ in length, are empty, or if any
    /// `min > max`.
    pub fn new(min: impl Into<Box<[f32]>>, max: impl Into<Box<[f32]>>) -> Self {
        let (min, max) = (min.into(), max.into());
        // srlint: allow(assert) -- documented contract panic; decode
        // paths read both bounds with the same `dim`, so lengths match
        // by construction.
        assert_eq!(min.len(), max.len(), "bound slices must match in length");
        // srlint: allow(assert) -- same constructor contract.
        assert!(
            !min.is_empty(),
            "rectangles must have at least one dimension"
        );
        for (i, (&lo, &hi)) in min.iter().zip(max.iter()).enumerate() {
            // srlint: allow(assert) -- decode paths reject inverted
            // rectangles with a typed error before construction.
            assert!(lo <= hi, "dimension {i}: min {lo} > max {hi}");
        }
        Rect { min, max }
    }

    /// The degenerate rectangle covering exactly one point.
    pub fn from_point(p: &Point) -> Self {
        Rect {
            min: p.coords().into(),
            max: p.coords().into(),
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Lower bounds per dimension.
    #[inline]
    pub fn min(&self) -> &[f32] {
        &self.min
    }

    /// Upper bounds per dimension.
    #[inline]
    pub fn max(&self) -> &[f32] {
        &self.max
    }

    /// The center point of the rectangle.
    pub fn center(&self) -> Point {
        let coords: Vec<f32> = self
            .min
            .iter()
            .zip(self.max.iter())
            .map(|(&lo, &hi)| lo + (hi - lo) * 0.5)
            .collect();
        Point::new(coords)
    }

    /// Whether the rectangle contains point `p` (boundary inclusive).
    pub fn contains_point(&self, p: &[f32]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        self.min
            .iter()
            .zip(self.max.iter())
            .zip(p.iter())
            .all(|((&lo, &hi), &x)| Rect::contains_coord(lo, hi, x))
    }

    /// Whether `x` lies in `[lo, hi]`: one axis of
    /// [`Rect::contains_point`], for callers that read the bounds straight
    /// off page bytes.
    #[inline]
    pub fn contains_coord(lo: f32, hi: f32, x: f32) -> bool {
        lo <= x && x <= hi
    }

    /// Whether `other` lies entirely inside `self` (boundary inclusive).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.min.iter().zip(other.min.iter()).all(|(&a, &b)| a <= b)
            && other.max.iter().zip(self.max.iter()).all(|(&a, &b)| a <= b)
    }

    /// Smallest rectangle containing both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dim(), other.dim());
        let min: Vec<f32> = self
            .min
            .iter()
            .zip(other.min.iter())
            .map(|(&a, &b)| a.min(b))
            .collect();
        let max: Vec<f32> = self
            .max
            .iter()
            .zip(other.max.iter())
            .map(|(&a, &b)| a.max(b))
            .collect();
        Rect {
            min: min.into(),
            max: max.into(),
        }
    }

    /// Grow `self` in place to cover `p`.
    pub fn expand_to_point(&mut self, p: &[f32]) {
        debug_assert_eq!(p.len(), self.dim());
        for (lo, &x) in self.min.iter_mut().zip(p.iter()) {
            *lo = lo.min(x);
        }
        for (hi, &x) in self.max.iter_mut().zip(p.iter()) {
            *hi = hi.max(x);
        }
    }

    /// Grow `self` in place to cover `other`.
    pub fn expand_to_rect(&mut self, other: &Rect) {
        self.expand_to_bounds(&other.min, &other.max);
    }

    /// Grow `self` in place to cover the rectangle with corners `min` and
    /// `max` — [`Rect::expand_to_rect`] for bounds not held in a `Rect`.
    pub fn expand_to_bounds(&mut self, min: &[f32], max: &[f32]) {
        debug_assert_eq!(self.dim(), min.len());
        debug_assert_eq!(self.dim(), max.len());
        for (lo, &x) in self.min.iter_mut().zip(min) {
            *lo = lo.min(x);
        }
        for (hi, &x) in self.max.iter_mut().zip(max) {
            *hi = hi.max(x);
        }
    }

    /// Volume (area in 2-D). Underflows to `0.0` for tiny high-D
    /// rectangles — use [`Rect::ln_volume`] for measurement work.
    pub fn volume(&self) -> f64 {
        self.min
            .iter()
            .zip(self.max.iter())
            .map(|(&lo, &hi)| f64::from(hi - lo))
            .product()
    }

    /// Natural logarithm of the volume; `-inf` if any extent is zero.
    pub fn ln_volume(&self) -> f64 {
        self.min
            .iter()
            .zip(self.max.iter())
            .map(|(&lo, &hi)| f64::from(hi - lo).ln())
            .sum()
    }

    /// Sum of edge lengths over all dimensions (the "margin" of the
    /// R\*-tree split heuristic; half the perimeter in 2-D).
    pub fn margin(&self) -> f64 {
        self.min
            .iter()
            .zip(self.max.iter())
            .map(|(&lo, &hi)| f64::from(hi - lo))
            .sum()
    }

    /// Length of the main diagonal — the "diameter" the paper measures for
    /// rectangle regions (§3.2: the diagonal of a D-dimensional unit cube is
    /// `sqrt(D)` even though every edge is 1).
    pub fn diagonal(&self) -> f64 {
        self.min
            .iter()
            .zip(self.max.iter())
            .map(|(&lo, &hi)| {
                let e = f64::from(hi - lo);
                e * e
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Volume of the intersection with `other`, `0.0` if disjoint.
    pub fn overlap_volume(&self, other: &Rect) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        let mut v = 1.0f64;
        for ((&slo, &shi), (&olo, &ohi)) in self
            .min
            .iter()
            .zip(self.max.iter())
            .zip(other.min.iter().zip(other.max.iter()))
        {
            let lo = slo.max(olo);
            let hi = shi.min(ohi);
            if hi <= lo {
                return 0.0;
            }
            v *= f64::from(hi - lo);
        }
        v
    }

    /// Increase in volume if `self` were enlarged to cover `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// `MINDIST(p, R)^2`: squared distance from `p` to the nearest point of
    /// the rectangle; `0` when `p` is inside.
    ///
    /// This is the rectangle distance of the Roussopoulos et al. k-NN
    /// search and of the SR-tree's region distance `d_r` (paper §4.4).
    #[inline]
    pub fn min_dist2(&self, p: &[f32]) -> f64 {
        debug_assert_eq!(p.len(), self.dim());
        let mut acc = 0.0f64;
        for ((&lo, &hi), &x) in self.min.iter().zip(self.max.iter()).zip(p.iter()) {
            let d = min_dist_term(f64::from(lo), f64::from(hi), f64::from(x));
            acc += d * d;
        }
        acc
    }

    /// `MAXDIST(p, R)^2`: squared distance from `p` to the farthest vertex
    /// of the rectangle.
    ///
    /// The paper (§4.2) computes it "by pursuing such a vertex of the
    /// rectangle R that is the farthest from the point p" — per dimension,
    /// the farther of the two bounds.
    #[inline]
    pub fn max_dist2(&self, p: &[f32]) -> f64 {
        max_dist2(&self.min, &self.max, p)
    }
}

/// [`Rect::max_dist2`] of the rectangle with corners `min` and `max`,
/// for bounds not held in a `Rect`.
#[inline]
pub fn max_dist2(min: &[f32], max: &[f32], p: &[f32]) -> f64 {
    debug_assert_eq!(p.len(), min.len());
    let mut acc = 0.0f64;
    for ((&lo, &hi), &xp) in min.iter().zip(max).zip(p) {
        let x = f64::from(xp);
        let dlo = (x - f64::from(lo)).abs();
        let dhi = (x - f64::from(hi)).abs();
        let d = dlo.max(dhi);
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(min: &[f32], max: &[f32]) -> Rect {
        Rect::new(min.to_vec(), max.to_vec())
    }

    #[test]
    fn basic_accessors() {
        let a = r(&[0.0, 1.0], &[2.0, 3.0]);
        assert_eq!(a.dim(), 2);
        assert_eq!(a.center().coords(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "min")]
    fn inverted_bounds_rejected() {
        let _ = r(&[1.0], &[0.0]);
    }

    #[test]
    fn containment() {
        let outer = r(&[0.0, 0.0], &[10.0, 10.0]);
        let inner = r(&[2.0, 2.0], &[3.0, 3.0]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_point(&[0.0, 10.0])); // boundary inclusive
        assert!(!outer.contains_point(&[10.1, 5.0]));
    }

    #[test]
    fn union_covers_both() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[2.0, -1.0], &[3.0, 0.5]);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(&[0.0, -1.0], &[3.0, 1.0]));
    }

    #[test]
    fn expand_matches_union() {
        let mut a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[-1.0, 0.5], &[0.5, 2.0]);
        let u = a.union(&b);
        a.expand_to_rect(&b);
        assert_eq!(a, u);

        let mut c = r(&[0.0], &[1.0]);
        c.expand_to_point(&[5.0]);
        assert_eq!(c, r(&[0.0], &[5.0]));
    }

    #[test]
    fn volume_margin_diagonal() {
        let a = r(&[0.0, 0.0, 0.0], &[1.0, 2.0, 3.0]);
        assert_eq!(a.volume(), 6.0);
        assert_eq!(a.margin(), 6.0);
        assert!((a.diagonal() - 14f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn ln_volume_consistent_with_volume() {
        let a = r(&[0.0, 0.0], &[0.5, 0.25]);
        assert!((a.ln_volume() - a.volume().ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_volume_survives_underflow() {
        // 64 dimensions of extent 1e-6: linear volume is 1e-384, which
        // underflows f64 to zero; ln-volume must stay finite.
        let d = 64;
        let a = Rect::new(vec![0.0f32; d], vec![1e-6f32; d]);
        assert_eq!(a.volume(), 0.0);
        let want = 64.0 * (1e-6f32 as f64).ln();
        assert!((a.ln_volume() - want).abs() < 1e-6);
    }

    #[test]
    fn unit_cube_diagonal_is_sqrt_d() {
        // The §3.2 observation driving the whole paper.
        for d in [2usize, 16, 64] {
            let c = Rect::new(vec![0.0f32; d], vec![1.0f32; d]);
            assert!((c.diagonal() - (d as f64).sqrt()).abs() < 1e-9);
        }
    }

    #[test]
    fn overlap_volume_cases() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        let b = r(&[1.0, 1.0], &[3.0, 3.0]);
        let c = r(&[5.0, 5.0], &[6.0, 6.0]);
        assert_eq!(a.overlap_volume(&b), 1.0);
        assert_eq!(a.overlap_volume(&c), 0.0);
        // touching edges have zero overlap volume
        let d = r(&[2.0, 0.0], &[3.0, 2.0]);
        assert_eq!(a.overlap_volume(&d), 0.0);
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = r(&[0.0, 0.0], &[4.0, 4.0]);
        let b = r(&[1.0, 1.0], &[2.0, 2.0]);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    fn min_dist2_inside_outside_corner() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(a.min_dist2(&[0.5, 0.5]), 0.0);
        assert_eq!(a.min_dist2(&[2.0, 0.5]), 1.0); // face distance
        assert_eq!(a.min_dist2(&[2.0, 2.0]), 2.0); // corner distance
        assert_eq!(a.min_dist2(&[-3.0, 0.5]), 9.0);
    }

    #[test]
    fn max_dist2_is_farthest_vertex() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        // From the origin corner the farthest vertex is (1,1).
        assert_eq!(a.max_dist2(&[0.0, 0.0]), 2.0);
        // From the center, every vertex is equally far.
        assert_eq!(a.max_dist2(&[0.5, 0.5]), 0.5);
        // From far outside, the far corner dominates.
        assert_eq!(a.max_dist2(&[-1.0, 0.0]), 4.0 + 1.0);
    }

    #[test]
    fn min_le_max_dist_always() {
        let a = r(&[-1.0, 2.0, 0.0], &[1.0, 5.0, 0.5]);
        for p in [
            [0.0f32, 0.0, 0.0],
            [10.0, 10.0, 10.0],
            [0.0, 3.0, 0.25],
            [-5.0, 2.0, 0.5],
        ] {
            assert!(a.min_dist2(&p) <= a.max_dist2(&p), "p={p:?}");
        }
    }

    #[test]
    fn from_point_is_degenerate() {
        let p = Point::new(vec![1.0, 2.0]);
        let a = Rect::from_point(&p);
        assert_eq!(a.volume(), 0.0);
        assert!(a.contains_point(p.coords()));
        assert_eq!(a.min_dist2(p.coords()), 0.0);
    }
}
