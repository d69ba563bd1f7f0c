//! Geometry kernel for the SR-tree reproduction.
//!
//! This crate provides the vector, bounding-rectangle, and bounding-sphere
//! primitives shared by every index structure in the workspace, together
//! with the distance functions the nearest-neighbor search of
//! Roussopoulos, Kelley & Vincent (SIGMOD 1995) requires:
//!
//! * [`Rect::min_dist2`] — `MINDIST(p, R)`, the squared distance from a
//!   query point to the nearest face of a rectangle;
//! * [`Rect::max_dist2`] — `MAXDIST(p, R)`, the squared distance to the
//!   farthest vertex of a rectangle (the SR-tree radius rule of §4.2 of the
//!   paper uses it);
//! * [`Sphere::min_dist2`] — the squared distance to the surface of a
//!   bounding sphere, zero inside it.
//!
//! Coordinates are `f32` (the storage format the paper's 8 KiB page-size
//! arithmetic assumes); every accumulation runs in `f64` to keep centroids
//! and variances stable at high dimensionality. Volumes in high-dimensional
//! space routinely under- and overflow `f64`, so both rectangles and spheres
//! expose a **log-volume** alongside the linear volume.

#![forbid(unsafe_code)]

pub mod error;
pub mod kernel;
pub mod mbr;
pub mod rect;
pub mod sphere;
pub mod vector;

pub use error::GeometryError;
pub use kernel::{
    dist2_columnar_early_abandon, dist2_f64le, rect_min_dist2_f64le, rect_min_dist2_rows_f64le,
    sphere_min_dist2_f64le, sphere_min_dist2_rows_f64le, sphere_rect_min_dist2_f64le,
    sphere_rect_min_dist2_rows_f64le, EARLY_ABANDON_HEAD_DIMS,
};
pub use mbr::{
    bounding_rect_of_points, bounding_sphere_of_points, enclosing_radius_rects,
    enclosing_radius_spheres, next_radius_up, Centroid,
};
pub use rect::Rect;
pub use sphere::{within_radius, Sphere, CONTAINMENT_EPS};
pub use vector::{dist, dist2, Point};

/// Widen a dimension count to `f64`.
///
/// Lives here (outside the distance-kernel files, which deny
/// `clippy::as_conversions`) so the kernels themselves stay free of `as`
/// casts; `u32::MAX` dimensions is far
/// beyond anything representable, so the conversion is always exact in
/// practice.
#[inline]
pub fn usize_to_f64(d: usize) -> f64 {
    d as f64
}

/// Natural logarithm of the volume of the unit ball in `d` dimensions:
/// `ln( pi^{d/2} / Gamma(d/2 + 1) )`.
///
/// Used to convert a bounding-sphere radius into a (log-)volume when
/// comparing region volumes across index structures (Figures 5, 6, 12, 13
/// of the paper).
pub fn ln_unit_ball_volume(d: usize) -> f64 {
    let half = d as f64 / 2.0;
    half * std::f64::consts::PI.ln() - ln_gamma(half + 1.0)
}

/// Natural logarithm of the Gamma function via the Lanczos approximation.
///
/// Accurate to ~1e-13 over the positive reals, which is far more than the
/// region-volume measurements need.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7, n = 9.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        #[allow(clippy::excessive_precision)]
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the approximation in its accurate range.
        let pi = std::f64::consts::PI;
        pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Gamma(n+1) = n!
        let facts = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let got = ln_gamma(n as f64 + 1.0);
            assert!((got - f.ln()).abs() < 1e-10, "n={n}: {got} vs {}", f.ln());
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Gamma(1/2) = sqrt(pi)
        let got = ln_gamma(0.5);
        let want = std::f64::consts::PI.sqrt().ln();
        assert!((got - want).abs() < 1e-10);
    }

    #[test]
    fn unit_ball_volumes_known_dimensions() {
        // V_1 = 2, V_2 = pi, V_3 = 4/3 pi.
        let cases = [
            (1, 2.0f64),
            (2, std::f64::consts::PI),
            (3, 4.0 / 3.0 * std::f64::consts::PI),
        ];
        for (d, v) in cases {
            let got = ln_unit_ball_volume(d);
            assert!((got - v.ln()).abs() < 1e-10, "d={d}");
        }
    }

    #[test]
    fn unit_ball_volume_shrinks_in_high_dimensions() {
        // The famous concentration effect: the unit ball's volume tends to
        // zero as d grows — the core geometric fact behind the paper's §3.
        assert!(ln_unit_ball_volume(16) < ln_unit_ball_volume(5));
        assert!(ln_unit_ball_volume(64) < ln_unit_ball_volume(16));
        assert!(ln_unit_ball_volume(64) < 0.0);
    }
}
