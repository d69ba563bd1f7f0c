//! The one trait that tells the trees' inner entries apart, and its
//! rectangle implementation.

use std::fmt;

use sr_geometry::{bounding_rect_of_points, rect_min_dist2_f64le, Point, Rect, Sphere};
use sr_pager::{PageCodec, PageReader};

use super::error::{Result, TreeError};
use super::node::Node;
use crate::knn::Expansion;

/// The region an inner entry stores for its child — the only thing the
/// page codec, `expand()` and exact-match lookup need to know about a
/// tree's shape.
pub trait Region: Clone + PartialEq + fmt::Debug {
    /// Persisted policy knobs (the SR-tree's ablation options); `()` for
    /// trees without any.
    type Policy: Copy + Default + fmt::Debug;
    /// Which bound scores a region during search (the SR-tree's
    /// `DistanceBound` ablation knob); `()` for trees with one bound.
    type Bound: Copy + Default;

    /// Bytes of the region part of an inner entry on disk (the child
    /// pointer that follows is not included).
    fn bytes(dim: usize) -> usize;

    /// Serialize the region.
    fn encode(&self, c: &mut PageCodec<'_>) -> Result<()>;

    /// Deserialize and validate a region: every field whose misvalue
    /// would later feed a panicking constructor is rejected as
    /// [`TreeError::Corrupt`].
    fn decode(c: &mut PageReader<'_>, dim: usize) -> Result<Self>;

    /// Score the raw region bytes (`Self::bytes(dim)` of them, straight
    /// off the page buffer) against `query` and push the branch with the
    /// bound's provenance. The stored f64s are exact widenings of the
    /// in-memory f32s, so the raw bound is bit-identical to the decoded
    /// one.
    fn push_branch<N>(
        raw: &[u8],
        query: &[f32],
        bound: Self::Bound,
        node: N,
        out: &mut Expansion<N>,
    ) -> Result<()>;

    /// Whether a stored point may lie under this region — the probe of
    /// exact-match lookup and deletion.
    fn contains_point(&self, p: &[f32]) -> bool;

    /// The policy as the metadata flags word, or `None` for trees whose
    /// metadata has no flags word.
    fn policy_flags(policy: &Self::Policy) -> Option<u32> {
        let _ = policy;
        None
    }

    /// The policy decoded from the metadata flags word.
    fn policy_from_flags(flags: u32) -> Self::Policy {
        let _ = flags;
        Self::Policy::default()
    }
}

fn corrupt(e: impl fmt::Display) -> TreeError {
    TreeError::Corrupt(e.to_string())
}

/// Write a rectangle as its `min` then `max` corner.
pub fn put_rect(c: &mut PageCodec<'_>, r: &Rect) -> Result<()> {
    c.put_coords(r.min())?;
    c.put_coords(r.max())?;
    Ok(())
}

/// Read a rectangle, requiring ordered corners and — unless
/// `allow_infinite` (K-D-B-tree partitions reach to infinity) — finite
/// bounds. NaN is always rejected.
pub fn get_rect(c: &mut PageReader<'_>, dim: usize, allow_infinite: bool) -> Result<Rect> {
    let min = c.get_coords(dim)?;
    let max = c.get_coords(dim)?;
    let valid = |v: &f32| v.is_finite() || (allow_infinite && !v.is_nan());
    if !min.iter().chain(max.iter()).all(valid) {
        return Err(TreeError::Corrupt("invalid rectangle bound on disk".into()));
    }
    if !min.iter().zip(max.iter()).all(|(lo, hi)| lo <= hi) {
        return Err(TreeError::Corrupt(
            "inverted bounding rectangle on disk".into(),
        ));
    }
    Ok(Rect::new(min, max))
}

/// Write a sphere as its center then its radius (as f64).
pub fn put_sphere(c: &mut PageCodec<'_>, s: &Sphere) -> Result<()> {
    c.put_coords(s.center().coords())?;
    c.put_f64(f64::from(s.radius()))?;
    Ok(())
}

/// Read a sphere, requiring a finite center and a finite, non-negative
/// radius.
pub fn get_sphere(c: &mut PageReader<'_>, dim: usize) -> Result<Sphere> {
    let center = c.get_coords(dim)?;
    let radius = c.get_f64()? as f32;
    if !center.iter().all(|v| v.is_finite()) || !radius.is_finite() || radius < 0.0 {
        return Err(TreeError::Corrupt("invalid bounding sphere on disk".into()));
    }
    Ok(Sphere::new(
        Point::try_new(center).map_err(corrupt)?,
        radius,
    ))
}

/// Minimum bounding rectangles: the R\*-tree's and the VAMSplit
/// R-tree's region, scored by `MINDIST`.
impl Region for Rect {
    type Policy = ();
    type Bound = ();

    fn bytes(dim: usize) -> usize {
        2 * 8 * dim
    }

    fn encode(&self, c: &mut PageCodec<'_>) -> Result<()> {
        put_rect(c, self)
    }

    fn decode(c: &mut PageReader<'_>, dim: usize) -> Result<Self> {
        get_rect(c, dim, false)
    }

    fn push_branch<N>(
        raw: &[u8],
        query: &[f32],
        _bound: (),
        node: N,
        out: &mut Expansion<N>,
    ) -> Result<()> {
        let mut r = PageReader::new(raw);
        let lo = r.get_bytes(query.len() * 8)?;
        let hi = r.get_bytes(query.len() * 8)?;
        out.push_rect_branch(rect_min_dist2_f64le(lo, hi, query).map_err(corrupt)?, node);
        Ok(())
    }

    fn contains_point(&self, p: &[f32]) -> bool {
        Rect::contains_point(self, p)
    }
}

/// Exact minimum bounding rectangle of a node's entries — the region
/// update of the rectangle trees.
///
/// # Errors
/// [`TreeError::Corrupt`] for an empty node: reachable from a corrupted
/// page, never from a well-formed tree.
pub fn mbr(node: &Node<Rect>) -> Result<Rect> {
    let rect = match node {
        Node::Leaf(entries) => bounding_rect_of_points(entries.iter().map(|e| e.point.coords())),
        Node::Inner { entries, .. } => entries.split_first().map(|(first, rest)| {
            let mut r = first.region.clone();
            for e in rest {
                r.expand_to_rect(&e.region);
            }
            r
        }),
    };
    rect.ok_or_else(|| TreeError::Corrupt("MBR of an empty node".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::{Entry, LeafEntry};

    #[test]
    fn mbr_of_leaf_and_inner() {
        let leaf = Node::Leaf(vec![
            LeafEntry {
                point: Point::new(vec![0.0, 5.0]),
                data: 0,
            },
            LeafEntry {
                point: Point::new(vec![3.0, -1.0]),
                data: 1,
            },
        ]);
        let r = mbr(&leaf).unwrap();
        assert_eq!((r.min(), r.max()), (&[0.0, -1.0][..], &[3.0, 5.0][..]));

        let inner = Node::Inner {
            level: 1,
            entries: vec![
                Entry {
                    region: Rect::new(vec![0.0], vec![1.0]),
                    child: 1,
                },
                Entry {
                    region: Rect::new(vec![5.0], vec![9.0]),
                    child: 2,
                },
            ],
        };
        let r = mbr(&inner).unwrap();
        assert_eq!((r.min(), r.max()), (&[0.0][..], &[9.0][..]));
        assert!(mbr(&Node::<Rect>::Leaf(Vec::new())).is_err());
    }
}
