//! Point vectors and distance kernels.
//!
//! A [`Point`] is a boxed `[f32]` — fixed length after creation, cheap to
//! clone only when explicitly asked, and free of the extra capacity word a
//! `Vec<f32>` would carry into every node entry.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::fmt;
use std::ops::{Deref, Index};

use crate::error::GeometryError;

/// A point in D-dimensional space with `f32` coordinates.
///
/// The dimensionality is implicit in the length; every index structure in
/// the workspace validates that all points it stores share one length.
#[derive(Clone, PartialEq)]
pub struct Point(Box<[f32]>);

impl Point {
    /// Create a point from its coordinates.
    ///
    /// This is the infallible constructor for literals and for callers
    /// that have already validated dimensionality (the trees check every
    /// stored point against the index's `dim`). Untrusted input — parsed
    /// files, decoded pages, CLI arguments — goes through
    /// [`Point::try_new`] instead.
    ///
    /// # Panics
    /// Panics if `coords` is empty; zero-dimensional points are meaningless
    /// to every algorithm in this workspace.
    pub fn new(coords: impl Into<Box<[f32]>>) -> Self {
        let coords = coords.into();
        // srlint: allow(assert) -- deliberate contract panic on a
        // constructor for trusted/literal input; fallible callers use
        // `try_new`, which returns `GeometryError::ZeroDim`.
        assert!(
            !coords.is_empty(),
            "points must have at least one dimension"
        );
        Point(coords)
    }

    /// Create a point, rejecting the zero-dimensional case with a typed
    /// error instead of a panic.
    pub fn try_new(coords: impl Into<Box<[f32]>>) -> Result<Self, GeometryError> {
        let coords = coords.into();
        if coords.is_empty() {
            return Err(GeometryError::ZeroDim);
        }
        Ok(Point(coords))
    }

    /// The origin (all-zero point) in `dim` dimensions.
    pub fn zeros(dim: usize) -> Self {
        Point::new(vec![0.0; dim])
    }

    /// Number of dimensions.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f32] {
        &self.0
    }

    /// Squared Euclidean distance to another point.
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        dist2(&self.0, &other.0)
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist2(other).sqrt()
    }
}

impl Deref for Point {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.0
    }
}

impl Index<usize> for Point {
    type Output = f32;
    #[inline]
    #[allow(clippy::indexing_slicing)]
    fn index(&self, i: usize) -> &f32 {
        // This IS the indexing primitive for Point; the slice access
        // carries the same panic-on-OOB contract as [f32].
        &self.0[i]
    }
}

impl From<Vec<f32>> for Point {
    fn from(v: Vec<f32>) -> Self {
        Point::new(v)
    }
}

impl From<&[f32]> for Point {
    fn from(v: &[f32]) -> Self {
        Point::new(v.to_vec())
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", &self.0)
    }
}

/// Squared Euclidean distance between two coordinate slices.
///
/// Accumulates in `f64`: with 64-dimensional `f32` data the naive `f32`
/// accumulation loses enough precision to reorder near-tied neighbors.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn dist2(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let d = f64::from(x) - f64::from(y);
        acc += d * d;
    }
    acc
}

/// Euclidean distance between two coordinate slices.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f64 {
    dist2(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist2_basic() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn dist2_zero_for_identical() {
        let p = [0.25f32, -1.5, 7.0];
        assert_eq!(dist2(&p, &p), 0.0);
    }

    #[test]
    fn dist2_symmetric() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [-4.0f32, 0.5, 9.0];
        assert_eq!(dist2(&a, &b), dist2(&b, &a));
    }

    #[test]
    fn point_accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p[1], 2.0);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn point_distance_matches_free_function() {
        let a = Point::new(vec![0.0, 1.0]);
        let b = Point::new(vec![1.0, 0.0]);
        assert_eq!(a.dist2(&b), 2.0);
        assert!((a.dist(&b) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dimensional_point_rejected() {
        let _ = Point::new(Vec::<f32>::new());
    }

    #[test]
    fn try_new_rejects_zero_dimensions_without_panicking() {
        assert_eq!(
            Point::try_new(Vec::<f32>::new()).unwrap_err(),
            GeometryError::ZeroDim
        );
        assert_eq!(
            Point::try_new(vec![1.0, 2.0]).unwrap(),
            Point::new(vec![1.0, 2.0])
        );
    }

    #[test]
    fn zeros_constructor() {
        let p = Point::zeros(4);
        assert_eq!(p.coords(), &[0.0; 4]);
    }

    #[test]
    fn f64_accumulation_is_stable() {
        // Sum of many tiny squared differences: f32 accumulation would
        // truncate; the f64 path must see every term.
        let d = 4096;
        let a = vec![0.0f32; d];
        let b = vec![1e-3f32; d];
        let got = dist2(&a, &b);
        let want = d as f64 * 1e-6;
        assert!((got - want).abs() / want < 1e-6);
    }
}
