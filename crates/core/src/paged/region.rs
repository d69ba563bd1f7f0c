//! The one trait that tells the trees' inner entries apart, and its
//! rectangle implementation.

use std::fmt;
use std::iter;

use sr_geometry::{
    bounding_rect_of_points, rect_min_dist2_f64le, within_radius, Point, Rect, Sphere,
    CONTAINMENT_EPS,
};
use sr_pager::{narrow_lane, PageCodec, PageReader};
use sr_query::Expansion;
use sr_query::IndexError;

use super::node::NodePage;
use crate::Result;

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
    /// [`IndexError::Corrupt`].
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

    /// [`Region::decode`] then [`Region::contains_point`], straight off
    /// the raw region bytes (`Self::bytes(dim)` of them) and without
    /// allocating: the same answer for every region `decode` accepts, and
    /// the same error for every region it rejects. `p` has the tree's
    /// dimensionality.
    fn contains_raw(raw: &[u8], p: &[f32]) -> Result<bool>;

    /// [`Region::decode`]'s checks alone, straight off the raw region
    /// bytes (`Self::bytes(dim)` of them): the same error for every region
    /// `decode` rejects. The default decodes; the write path's regions
    /// override it to check without allocating.
    fn check_raw(raw: &[u8], dim: usize) -> Result<()> {
        Self::decode(&mut PageReader::new(raw), dim).map(drop)
    }

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

fn corrupt(e: impl fmt::Display) -> IndexError {
    IndexError::Corrupt(e.to_string())
}

const BAD_RECT: &str = "invalid rectangle bound on disk";
const INVERTED_RECT: &str = "inverted bounding rectangle on disk";
const BAD_SPHERE: &str = "invalid bounding sphere on disk";

/// The next `dim` on-disk coordinates, narrowed back to `f32` exactly as
/// [`PageReader::get_coords`] narrows them, without collecting them.
fn coords<'a>(c: &mut PageReader<'a>, dim: usize) -> Result<impl Iterator<Item = f32> + 'a> {
    let (lanes, _) = c.get_bytes(dim * 8)?.as_chunks::<8>();
    Ok(lanes.iter().map(narrow_lane))
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
        return Err(IndexError::Corrupt(BAD_RECT.into()));
    }
    if !min.iter().zip(max.iter()).all(|(lo, hi)| lo <= hi) {
        return Err(IndexError::Corrupt(INVERTED_RECT.into()));
    }
    Ok(Rect::new(min, max))
}

/// [`get_rect`] then the test `inside(lo, hi, x)` on every axis against
/// the coordinates `xs`, over the rectangle bytes at the cursor and
/// without allocating: the same error for the same bytes, and otherwise
/// whether every axis holds. Every axis is read, so a bad bound after an
/// axis that already misses still fails as it does in `get_rect`.
fn rect_scan(
    c: &mut PageReader<'_>,
    dim: usize,
    xs: impl Iterator<Item = f32>,
    allow_infinite: bool,
    inside: impl Fn(f32, f32, f32) -> bool,
) -> Result<bool> {
    let min = coords(c, dim)?;
    let max = coords(c, dim)?;
    let valid = |v: f32| v.is_finite() || (allow_infinite && !v.is_nan());
    let (mut invalid, mut inverted, mut hit) = (false, false, true);
    for ((lo, hi), x) in min.zip(max).zip(xs) {
        invalid |= !valid(lo) || !valid(hi);
        // NaN is already `invalid`, which takes precedence.
        inverted |= lo > hi;
        hit &= inside(lo, hi, x);
    }
    if invalid {
        return Err(IndexError::Corrupt(BAD_RECT.into()));
    }
    if inverted {
        return Err(IndexError::Corrupt(INVERTED_RECT.into()));
    }
    Ok(hit)
}

/// [`get_rect`] then a containment test, over the rectangle bytes at the
/// cursor and without allocating: the same error for the same bytes, and
/// otherwise whether `inside(lo, hi, x)` holds on every axis of `p`.
pub fn rect_contains_raw(
    c: &mut PageReader<'_>,
    p: &[f32],
    allow_infinite: bool,
    inside: impl Fn(f32, f32, f32) -> bool,
) -> Result<bool> {
    rect_scan(c, p.len(), p.iter().copied(), allow_infinite, inside)
}

/// [`get_rect`]'s checks alone, over the rectangle bytes at the cursor
/// and without allocating: the same error for the same bytes.
pub fn check_rect_raw(c: &mut PageReader<'_>, dim: usize, allow_infinite: bool) -> Result<()> {
    rect_scan(c, dim, iter::repeat(0.0), allow_infinite, |_, _, _| true).map(drop)
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
        return Err(IndexError::Corrupt(BAD_SPHERE.into()));
    }
    Ok(Sphere::new(
        Point::try_new(center).map_err(corrupt)?,
        radius,
    ))
}

/// [`get_sphere`] then the squared distance from its center to the
/// coordinates `xs`, over the sphere bytes at the cursor and without
/// allocating: the same error for the same bytes, and otherwise the
/// distance and the radius.
fn sphere_scan(
    c: &mut PageReader<'_>,
    dim: usize,
    xs: impl Iterator<Item = f32>,
) -> Result<(f64, f32)> {
    let (mut finite, mut d2) = (true, 0.0f64);
    for (v, x) in coords(c, dim)?.zip(xs) {
        finite &= v.is_finite();
        let d = f64::from(v) - f64::from(x);
        d2 += d * d;
    }
    let radius = c.get_f64()? as f32;
    if !finite || !radius.is_finite() || radius < 0.0 {
        return Err(IndexError::Corrupt(BAD_SPHERE.into()));
    }
    Ok((d2, radius))
}

/// [`get_sphere`] then the [`CONTAINMENT_EPS`]-tolerant test every tree
/// probes stored points with, over the sphere bytes at the cursor and
/// without allocating: the same error for the same bytes, and otherwise
/// the answer of [`Sphere::contains_point`].
pub fn sphere_contains_raw(c: &mut PageReader<'_>, p: &[f32]) -> Result<bool> {
    let (d2, radius) = sphere_scan(c, p.len(), p.iter().copied())?;
    Ok(within_radius(d2, radius, CONTAINMENT_EPS))
}

/// [`get_sphere`]'s checks alone, over the sphere bytes at the cursor and
/// without allocating: the same error for the same bytes.
pub fn check_sphere_raw(c: &mut PageReader<'_>, dim: usize) -> Result<()> {
    sphere_scan(c, dim, iter::repeat(0.0)).map(drop)
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

    fn contains_raw(raw: &[u8], p: &[f32]) -> Result<bool> {
        rect_contains_raw(&mut PageReader::new(raw), p, false, Rect::contains_coord)
    }

    fn check_raw(raw: &[u8], dim: usize) -> Result<()> {
        check_rect_raw(&mut PageReader::new(raw), dim, false)
    }
}

/// The bounding rectangle of a leaf page's points. `None` for an empty or
/// inner page.
pub fn leaf_rect<R: Region>(page: &NodePage<R>) -> Option<Rect> {
    bounding_rect_of_points(page.points().chunks_exact(page.dim()))
}

/// The smallest rectangle covering `rects`, each given by its `(min,
/// max)` corners, in order (R-tree rule). `None` for no rectangles.
pub fn rect_union<'a>(mut rects: impl Iterator<Item = (&'a [f32], &'a [f32])>) -> Option<Rect> {
    let (min, max) = rects.next()?;
    let mut rect = Rect::new(min, max);
    for (min, max) in rects {
        rect.expand_to_bounds(min, max);
    }
    Some(rect)
}

/// Exact minimum bounding rectangle of a node page — the region update
/// of the rectangle trees.
///
/// # Errors
/// [`IndexError::Corrupt`] for an empty node: reachable from a corrupted
/// page, never from a well-formed tree.
pub fn mbr(page: &NodePage<Rect>) -> Result<Rect> {
    let rect = if page.is_leaf() {
        leaf_rect(page)
    } else {
        rect_union(page.region_rows().rects(0))
    };
    rect.ok_or_else(|| IndexError::Corrupt("MBR of an empty node".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::{Entry, LeafEntry, Node, Params};

    #[test]
    fn mbr_of_leaf_and_inner() {
        let page = |node: &Node<Rect>, dim| {
            NodePage::encode(1, node, &Params::derive(1024, dim, 64), 1024).unwrap()
        };
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
        let r = mbr(&page(&leaf, 2)).unwrap();
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
        let r = mbr(&page(&inner, 1)).unwrap();
        assert_eq!((r.min(), r.max()), (&[0.0][..], &[9.0][..]));
        assert!(mbr(&page(&Node::Leaf(Vec::new()), 1)).is_err());
    }
}
