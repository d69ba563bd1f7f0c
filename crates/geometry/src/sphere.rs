//! Bounding spheres.
//!
//! Spheres are the region shape of the SS-tree and one half of the
//! SR-tree's sphere∩rectangle regions. A sphere is stored as a center
//! point plus a radius — `D + 1` parameters against a rectangle's `2·D`,
//! which is exactly the fanout advantage §2.3 of the paper credits the
//! SS-tree with.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::ln_unit_ball_volume;
use crate::vector::{dist2, Point};

/// Radius tolerance for sphere-containment descents over *stored* points.
///
/// The same value the structural verifiers accept: large enough to absorb
/// the f32 rounding of centroid/radius maintenance, small enough to keep
/// the sphere test a useful filter during `contains`/`delete` walks.
pub const CONTAINMENT_EPS: f64 = 1e-5;

/// `d_s²` from the squared distance `center_dist2` between a query and a
/// sphere's center: the squared distance to the surface, zero inside.
///
/// The bound is conservative by construction. It measures to the surface
/// of the sphere that [`Sphere::contains_point`] tests against, radius
/// `r·(1 + ε) + ε` with `ε` = [`CONTAINMENT_EPS`], because a stored point
/// may sit that far outside its recomputed sphere. It then subtracts a
/// further `ε·‖q − c‖` for the rounding of `d²` and of its square root,
/// and only then squares. Computed as plain `(√d² − r)²`, the bound
/// could round above the distance of a point on the surface (a sphere of
/// radius 0 around duplicates of (1, 1) scored 2.0000000000000004 from
/// the origin), and a search that visits regions *at* the k-th distance
/// would still miss that tied point.
#[inline]
pub(crate) fn surface_dist2(center_dist2: f64, radius: f64) -> f64 {
    let dc = center_dist2.sqrt();
    let d = dc - radius - CONTAINMENT_EPS * (1.0 + radius + dc);
    if d <= 0.0 {
        0.0
    } else {
        d * d
    }
}

/// Whether a point at squared distance `center_dist2` from a sphere's
/// center lies within its `radius` widened by the relative tolerance
/// `eps` — the test of [`Sphere::contains_point`], for callers that hold
/// the center as raw page bytes rather than as a [`Sphere`].
#[inline]
pub fn within_radius(center_dist2: f64, radius: f32, eps: f64) -> bool {
    let r = f64::from(radius) * (1.0 + eps) + eps;
    center_dist2 <= r * r
}

/// A bounding sphere: center + radius.
#[derive(Clone, Debug, PartialEq)]
pub struct Sphere {
    center: Point,
    radius: f32,
}

impl Sphere {
    /// Build a sphere from center and radius.
    ///
    /// # Panics
    /// Panics if the radius is negative or not finite.
    pub fn new(center: Point, radius: f32) -> Self {
        // srlint: allow(assert) -- documented contract panic; the tree
        // decode paths validate radius finiteness before construction, so
        // untrusted page bytes cannot reach this assert.
        assert!(
            radius.is_finite() && radius >= 0.0,
            "sphere radius must be finite and non-negative, got {radius}"
        );
        Sphere { center, radius }
    }

    /// The degenerate sphere covering exactly one point.
    pub fn from_point(p: &Point) -> Self {
        Sphere {
            center: p.clone(),
            radius: 0.0,
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dim(&self) -> usize {
        self.center.dim()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> &Point {
        &self.center
    }

    /// Radius.
    #[inline]
    pub fn radius(&self) -> f32 {
        self.radius
    }

    /// Diameter (`2·r`) — the region "diameter" the paper measures for
    /// sphere regions in Figures 5, 12, 13.
    #[inline]
    pub fn diameter(&self) -> f64 {
        2.0 * f64::from(self.radius)
    }

    /// Whether point `p` lies inside the sphere, with a relative tolerance
    /// `eps` on the radius (floating-point centroids make exact containment
    /// too strict for verification work; pass `0.0` for exact checks).
    ///
    /// Descents that must find every *stored* point (`contains`, `delete`)
    /// use [`CONTAINMENT_EPS`]: centroid/radius updates round in f32, so a
    /// live entry can sit a few ulps outside its recomputed bounding
    /// sphere, and an exact test would silently skip the only subtree
    /// that holds it.
    pub fn contains_point(&self, p: &[f32], eps: f64) -> bool {
        within_radius(dist2(self.center.coords(), p), self.radius, eps)
    }

    /// Squared distance from `p` to the sphere surface, `0` inside.
    ///
    /// This is the sphere distance of the SS-tree's k-NN search and the
    /// `d_s` term of the SR-tree's region distance (paper §4.4):
    /// `d_s = max(0, ||p − center|| − r)`, less the rounding allowance
    /// that keeps it a lower bound for every stored point (see
    /// [`CONTAINMENT_EPS`] and the search bound in DESIGN.md).
    #[inline]
    pub fn min_dist2(&self, p: &[f32]) -> f64 {
        surface_dist2(dist2(self.center.coords(), p), f64::from(self.radius))
    }

    /// Squared distance from `p` to the farthest point of the sphere:
    /// `(||p − center|| + r)^2`.
    #[inline]
    pub fn max_dist2(&self, p: &[f32]) -> f64 {
        let d = dist2(self.center.coords(), p).sqrt() + f64::from(self.radius);
        d * d
    }

    /// Whether `other` lies entirely inside `self`, with relative tolerance
    /// `eps` on the radius.
    pub fn contains_sphere(&self, other: &Sphere, eps: f64) -> bool {
        let d = self.center.dist(&other.center);
        d + f64::from(other.radius) <= f64::from(self.radius) * (1.0 + eps) + eps
    }

    /// Volume of the ball. Underflows/overflows for extreme radii and
    /// dimensions — prefer [`Sphere::ln_volume`] for measurement.
    pub fn volume(&self) -> f64 {
        self.ln_volume().exp()
    }

    /// Natural log of the ball volume:
    /// `ln V_d + d·ln r`; `-inf` for radius zero.
    pub fn ln_volume(&self) -> f64 {
        ln_unit_ball_volume(self.dim())
            + crate::usize_to_f64(self.dim()) * f64::from(self.radius).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(center: &[f32], r: f32) -> Sphere {
        Sphere::new(Point::new(center.to_vec()), r)
    }

    #[test]
    fn containment_with_tolerance() {
        let a = s(&[0.0, 0.0], 1.0);
        assert!(a.contains_point(&[0.5, 0.5], 0.0));
        assert!(a.contains_point(&[1.0, 0.0], 0.0)); // surface inclusive
        assert!(!a.contains_point(&[1.1, 0.0], 0.0));
        assert!(a.contains_point(&[1.05, 0.0], 0.1)); // within tolerance
    }

    /// Regression for the contains/delete descent bug: a stored point
    /// can drift a few f32 ulps outside its ancestor's rebuilt sphere.
    /// The exact test rejects such a point (that was the bug — the only
    /// subtree holding the entry was skipped); the `CONTAINMENT_EPS`
    /// test must accept it.
    #[test]
    fn boundary_point_ulps_outside_is_accepted_with_eps() {
        let radius = 0.25f32;
        let a = s(&[0.5, 0.5, 0.5, 0.5], radius);
        // One-ulp and several-ulp drift past the surface along an axis.
        for ulps in 1..=8u32 {
            let drifted = f32::from_bits((0.5f32 + radius).to_bits() + ulps);
            let p = [drifted, 0.5, 0.5, 0.5];
            assert!(
                !a.contains_point(&p, 0.0),
                "{ulps} ulps outside: exact test rejects (the old bug)"
            );
            assert!(
                a.contains_point(&p, CONTAINMENT_EPS),
                "{ulps} ulps outside: tolerant test must accept"
            );
        }
        // The tolerance is tight: a point clearly outside stays outside.
        assert!(!a.contains_point(&[0.5 + radius * 1.01, 0.5, 0.5, 0.5], CONTAINMENT_EPS));
    }

    #[test]
    fn min_dist2_inside_is_zero() {
        let a = s(&[0.0, 0.0], 2.0);
        assert_eq!(a.min_dist2(&[1.0, 1.0]), 0.0);
        assert_eq!(a.min_dist2(&[2.0, 0.0]), 0.0);
    }

    #[test]
    fn min_dist2_outside() {
        let a = s(&[0.0, 0.0], 1.0);
        // (d − r − ε·(1 + r + d))² with d = 3 and d = 5.
        let want = |d: f64| (d - 1.0 - CONTAINMENT_EPS * (2.0 + d)).powi(2);
        assert!((a.min_dist2(&[3.0, 0.0]) - want(3.0)).abs() < 1e-9);
        assert!((a.min_dist2(&[3.0, 4.0]) - want(5.0)).abs() < 1e-9);
        assert!(a.min_dist2(&[3.0, 4.0]) < 16.0);
    }

    #[test]
    fn min_dist2_never_exceeds_a_point_on_the_surface() {
        // √2 rounds up, so the uncorrected (√2 − 0)² is 2.0000000000000004.
        let a = s(&[1.0, 1.0], 0.0);
        assert!(a.min_dist2(&[0.0, 0.0]) <= 2.0);
        let b = s(&[0.0, 0.0], 1105.0);
        assert!(b.min_dist2(&[1105.0, 1105.0]) <= dist2(&[0.0, 1105.0], &[1105.0, 1105.0]));
    }

    #[test]
    fn max_dist2_is_far_side() {
        let a = s(&[0.0], 1.0);
        assert!((a.max_dist2(&[3.0]) - 16.0).abs() < 1e-9);
        assert!((a.max_dist2(&[0.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_le_max_dist() {
        let a = s(&[1.0, -2.0, 0.5], 0.75);
        for p in [[0.0f32, 0.0, 0.0], [5.0, 5.0, 5.0], [1.0, -2.0, 0.5]] {
            assert!(a.min_dist2(&p) <= a.max_dist2(&p));
        }
    }

    #[test]
    fn sphere_containment() {
        let a = s(&[0.0, 0.0], 2.0);
        let b = s(&[1.0, 0.0], 0.5);
        let c = s(&[5.0, 0.0], 1.0);
        assert!(a.contains_sphere(&b, 0.0));
        assert!(!a.contains_sphere(&c, 0.0));
    }

    #[test]
    fn volume_matches_closed_forms() {
        let a = s(&[0.0, 0.0], 2.0);
        let want = std::f64::consts::PI * 4.0; // pi r^2
        assert!((a.volume() - want).abs() < 1e-9);
        let b = s(&[0.0, 0.0, 0.0], 1.5);
        let want3 = 4.0 / 3.0 * std::f64::consts::PI * 1.5f64.powi(3);
        assert!((b.volume() - want3).abs() < 1e-9);
    }

    #[test]
    fn ln_volume_handles_high_dimension() {
        let d = 64;
        let a = Sphere::new(Point::zeros(d), 0.01);
        assert!(a.ln_volume().is_finite());
        assert!(a.ln_volume() < 0.0);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn negative_radius_rejected() {
        let _ = s(&[0.0], -1.0);
    }
}
