//! Minimum bounding regions over point sets and over child entries.
//!
//! Both the SS-tree and the SR-tree center their bounding spheres on the
//! *weighted centroid* of the underlying points (not the minimum enclosing
//! ball), which is what makes the centroid-based insertion of the SS-tree
//! work. This module implements:
//!
//! * [`Centroid`] — a streaming weighted-mean accumulator (`f64` state);
//! * [`bounding_rect_of_points`] / [`bounding_sphere_of_points`] — the
//!   leaf-level regions;
//! * [`enclosing_radius_spheres`] / [`enclosing_radius_rects`] — the two
//!   radius candidates `d_s` and `d_r` of the SR-tree parent-sphere rule
//!   (paper §4.2): the SS-tree uses `d_s` alone; the SR-tree uses
//!   `min(d_s, d_r)`.

use crate::rect::{max_dist2, Rect};
use crate::sphere::Sphere;
use crate::vector::{dist2, Point};

/// Streaming weighted centroid with `f64` accumulation.
///
/// The weight of a child is the number of points beneath it (`w` in the
/// paper's node-entry layout), so the resulting center is the centroid of
/// the *points*, not of the child centers.
#[derive(Clone, Debug)]
pub struct Centroid {
    sums: Vec<f64>,
    weight: u64,
}

impl Centroid {
    /// Empty accumulator for `dim` dimensions.
    pub fn new(dim: usize) -> Self {
        // srlint: allow(assert) -- dimension comes from an existing point's
        // length, which `Point::try_new` already guarantees positive.
        assert!(dim > 0, "centroid needs at least one dimension");
        Centroid {
            sums: vec![0.0; dim],
            weight: 0,
        }
    }

    /// Add a point (or a child centroid) with the given weight.
    pub fn add(&mut self, coords: &[f32], weight: u64) {
        debug_assert_eq!(coords.len(), self.sums.len());
        for (s, &c) in self.sums.iter_mut().zip(coords.iter()) {
            *s += c as f64 * weight as f64;
        }
        self.weight += weight;
    }

    /// Total accumulated weight.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// The centroid, or `None` if nothing has been added (weight zero) —
    /// reachable when a corrupted page decodes to zero-weight entries, so
    /// it must not panic.
    pub fn finish(&self) -> Option<Point> {
        if self.weight == 0 {
            return None;
        }
        let w = self.weight as f64;
        Some(Point::new(
            self.sums
                .iter()
                .map(|&s| (s / w) as f32)
                .collect::<Vec<f32>>(),
        ))
    }
}

/// Minimum bounding rectangle of a set of points; `None` for an empty set
/// (an empty node is a structural-corruption case the tree crates surface
/// as a typed error).
pub fn bounding_rect_of_points<'a, I>(mut points: I) -> Option<Rect>
where
    I: Iterator<Item = &'a [f32]>,
{
    let first = points.next()?;
    let mut rect = Rect::new(first.to_vec(), first.to_vec());
    for p in points {
        rect.expand_to_point(p);
    }
    Some(rect)
}

/// Centroid-centered bounding sphere of a set of points — the leaf-level
/// region of the SS-tree and SR-tree: center at the centroid, radius
/// reaching the farthest point. `None` for an empty set.
pub fn bounding_sphere_of_points(points: &[&[f32]]) -> Option<Sphere> {
    let mut c = Centroid::new(points.first()?.len());
    for p in points {
        c.add(p, 1);
    }
    let center = c.finish()?;
    let r2 = points
        .iter()
        .map(|p| dist2(center.coords(), p))
        .fold(0.0f64, f64::max);
    // Round the radius *up* to the nearest f32 so the f32-stored sphere
    // still contains every point despite the f64→f32 truncation.
    Some(Sphere::new(center, next_radius_up(r2.sqrt())))
}

/// `d_s` of the paper's §4.2: the radius around `center` needed to enclose
/// every child *sphere* — `max_k (||center − c_k|| + r_k)`.
pub fn enclosing_radius_spheres<'a, I>(center: &Point, children: I) -> f64
where
    I: Iterator<Item = (&'a [f32], f32)>,
{
    let mut d = 0.0f64;
    for (c, r) in children {
        let cand = dist2(center.coords(), c).sqrt() + r as f64;
        d = d.max(cand);
    }
    d
}

/// `d_r` of the paper's §4.2: the radius around `center` needed to enclose
/// every child *rectangle*, each given by its `(min, max)` corners —
/// `max_k MAXDIST(center, R_k)`.
pub fn enclosing_radius_rects<'a, I>(center: &Point, rects: I) -> f64
where
    I: Iterator<Item = (&'a [f32], &'a [f32])>,
{
    let mut d = 0.0f64;
    for (min, max) in rects {
        d = d.max(max_dist2(min, max, center.coords()).sqrt());
    }
    d
}

/// Smallest `f32` radius that, as an `f64`, is `>= r`.
///
/// Bounding spheres are persisted as `f32`; truncating the radius downward
/// would let boundary points escape their own region, which breaks both the
/// structural invariants and — worse — k-NN pruning correctness.
pub fn next_radius_up(r: f64) -> f32 {
    let f = r as f32;
    if (f as f64) >= r {
        f
    } else {
        // One ulp up. f is finite and non-negative here.
        f32::from_bits(f.to_bits() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centroid_simple_mean() {
        let mut c = Centroid::new(2);
        c.add(&[0.0, 0.0], 1);
        c.add(&[2.0, 4.0], 1);
        assert_eq!(c.finish().unwrap().coords(), &[1.0, 2.0]);
        assert_eq!(c.weight(), 2);
    }

    #[test]
    fn centroid_respects_weights() {
        let mut c = Centroid::new(1);
        c.add(&[0.0], 3);
        c.add(&[4.0], 1);
        assert_eq!(c.finish().unwrap().coords(), &[1.0]);
    }

    #[test]
    fn centroid_empty_is_none() {
        assert!(Centroid::new(2).finish().is_none());
        let empty: Vec<&[f32]> = Vec::new();
        assert!(bounding_sphere_of_points(&empty).is_none());
        assert!(bounding_rect_of_points(std::iter::empty()).is_none());
    }

    #[test]
    fn bounding_rect_covers_all() {
        let pts: Vec<Vec<f32>> = vec![vec![0.0, 5.0], vec![-1.0, 2.0], vec![3.0, -4.0]];
        let r = bounding_rect_of_points(pts.iter().map(|p| p.as_slice())).unwrap();
        assert_eq!(r.min(), &[-1.0, -4.0]);
        assert_eq!(r.max(), &[3.0, 5.0]);
        for p in &pts {
            assert!(r.contains_point(p));
        }
    }

    #[test]
    fn bounding_sphere_centered_on_centroid() {
        let pts: Vec<&[f32]> = vec![&[0.0, 0.0], &[2.0, 0.0]];
        let s = bounding_sphere_of_points(&pts).unwrap();
        assert_eq!(s.center().coords(), &[1.0, 0.0]);
        assert!((s.radius() as f64 - 1.0).abs() < 1e-6);
        for p in &pts {
            assert!(s.contains_point(p, 0.0));
        }
    }

    #[test]
    fn bounding_sphere_contains_every_point_despite_f32_rounding() {
        // Irrational centroids exercise the radius round-up.
        let raw: Vec<Vec<f32>> = (0..50)
            .map(|i| {
                let x = (i as f32 * 0.7).sin();
                let y = (i as f32 * 1.3).cos();
                vec![x, y, x * y]
            })
            .collect();
        let pts: Vec<&[f32]> = raw.iter().map(|p| p.as_slice()).collect();
        let s = bounding_sphere_of_points(&pts).unwrap();
        for p in &pts {
            assert!(s.contains_point(p, 0.0), "point {p:?} escaped its sphere");
        }
    }

    #[test]
    fn enclosing_radius_spheres_reaches_far_child() {
        let center = Point::new(vec![0.0, 0.0]);
        let children: Vec<(Vec<f32>, f32)> = vec![(vec![3.0, 0.0], 1.0), (vec![0.0, 1.0], 0.5)];
        let d = enclosing_radius_spheres(&center, children.iter().map(|(c, r)| (c.as_slice(), *r)));
        assert!((d - 4.0).abs() < 1e-9);
    }

    #[test]
    fn enclosing_radius_rects_uses_farthest_vertex() {
        let center = Point::new(vec![0.0, 0.0]);
        let rects = [Rect::new(vec![1.0, 1.0], vec![2.0, 2.0])];
        let d = enclosing_radius_rects(&center, rects.iter().map(|r| (r.min(), r.max())));
        assert!((d - 8f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn sr_radius_rule_prefers_smaller_candidate() {
        // A thin, wide rectangle whose corners are nearer than the sphere
        // bound: d_r < d_s, so the SR rule min(d_s, d_r) shrinks the parent
        // sphere below what the SS rule would produce.
        let center = Point::new(vec![0.0, 0.0]);
        let child_center: &[f32] = &[3.0, 0.0];
        let child_sphere_r = 2.0f32;
        let rect = Rect::new(vec![2.5, -0.1], vec![3.5, 0.1]);
        let d_s =
            enclosing_radius_spheres(&center, std::iter::once((child_center, child_sphere_r)));
        let d_r = enclosing_radius_rects(&center, std::iter::once((rect.min(), rect.max())));
        assert!(d_r < d_s);
        assert!(d_s.min(d_r) == d_r);
    }

    #[test]
    fn next_radius_up_never_shrinks() {
        for r in [0.0f64, 1.0, 0.1, 1e-30, 12345.6789, 1.0000000001] {
            let f = next_radius_up(r);
            assert!(f as f64 >= r, "r={r}");
        }
    }
}
