//! The K-D-B-tree (Robinson, SIGMOD 1981) — the disjoint-partition
//! baseline of the SR-tree paper (§2.1).
//!
//! A height-balanced disk tree built by recursively dividing the search
//! space with coordinate planes. Its defining property is **disjointness**:
//! sibling regions on the same level never overlap, so a point query
//! follows exactly one root-to-leaf path. The price is the **forced
//! split**: when a region page is divided by a plane that crosses child
//! regions, those children must be split by the same plane all the way
//! down, which can create nearly-empty pages — the K-D-B-tree "cannot
//! ensure the minimum storage utilization" (§2.1), hurting range and
//! nearest-neighbor queries.
//!
//! Following the paper's methodology (§3.1), the split planes are chosen
//! in the style of the R+-tree rather than [Robinson's] cyclic
//! dimensions, which were reported to cause excessive forced splits:
//! the dimension with the greatest spread is cut near the median.
//!
//! The shared [`Tree`] supplies the page codec, search and the verify
//! walker; this module keeps the region (a
//! half-open rectangle whose bounds may be infinite), the never-merging
//! delete and the disjointness checks, and `crate::insert` the plane and
//! forced splits.
//!
//! ```
//! use sr_tree::kdbtree::KdbTree;
//! use sr_geometry::Point;
//! use sr_query::SpatialIndex;
//!
//! let mut tree = KdbTree::create_in_memory(2, 8192).unwrap();
//! for (i, xy) in [[0.0f32, 0.0], [1.0, 1.0], [0.2, 0.1]].iter().enumerate() {
//!     tree.insert(Point::new(xy.to_vec()), i as u64).unwrap();
//! }
//! let hits = tree.knn(&[0.0, 0.0], 2).unwrap();
//! assert_eq!(hits[0].data, 0);
//! ```

// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by `verify`); the
// clippy index ban applies to the audited geometry/pager hot paths.
#![allow(clippy::indexing_slicing)]

use sr_geometry::{Point, Rect};
use sr_pager::{PageCodec, PageId, PageReader};
use sr_query::{Expansion, IndexError};

use super::{Incremental, Kind, Tree, TreePolicy};
use crate::paged::{get_rect, put_rect, rect_contains_raw, Node, NodeRef, Region};
pub use crate::verify;
use crate::{insert, Result};

/// The K-D-B-tree's policies: half-open partition cells, plane and
/// forced splits, and no minimum fill.
pub struct KdbPolicy;

/// A disk-based K-D-B-tree over points: disjoint subregions, forced
/// splits, no minimum storage utilization.
pub type KdbTree = Tree<KdbPolicy>;

impl TreePolicy for KdbPolicy {
    type Region = KdbRegion;

    const KIND: Kind = Kind {
        magic: 0x4B44_4254, // "KDBT"
        name: "K-D-B-tree",
    };

    /// The K-D-B invariants (§2.1): sibling regions are pairwise disjoint
    /// under half-open containment, every child region lies inside its
    /// parent's, and every stored point is reached by the single-path
    /// root descent (disjointness plus coverage). There is *no*
    /// minimum-fill check — forced splits legitimately leave nearly-empty
    /// pages.
    fn check_node(
        tree: &KdbTree,
        id: PageId,
        node: &Node<KdbRegion>,
        stored: Option<&KdbRegion>,
    ) -> Result<()> {
        match node {
            Node::Leaf(entries) => {
                for e in entries {
                    let path = insert::descend(tree, e.point.coords())?;
                    let found = path[path.len() - 1].0;
                    if found != id {
                        return Err(IndexError::Corrupt(format!(
                            "point {:?} stored in page {id} but routed to page {found}",
                            e.point
                        )));
                    }
                }
            }
            Node::Inner { entries, .. } => {
                let region = stored.map_or_else(|| tree.root_region(), |r| r.0.clone());
                for (i, a) in entries.iter().enumerate() {
                    if !region.contains_rect(&a.region.0) {
                        return Err(IndexError::Corrupt(format!(
                            "page {id}: child region {:?} escapes parent {region:?}",
                            a.region
                        )));
                    }
                    if let Some(b) = entries[i + 1..]
                        .iter()
                        .find(|b| !half_open_disjoint(&a.region.0, &b.region.0))
                    {
                        return Err(IndexError::Corrupt(format!(
                            "page {id}: sibling regions overlap: {:?} and {:?}",
                            a.region, b.region
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Fails with [`IndexError::Unsupported`] if a point page overflows
    /// with more coincident points than one page can hold (no coordinate
    /// plane can separate them).
    fn insert(tree: &mut KdbTree, point: Point, data: u64) -> Result<()> {
        insert::insert_point(tree, point, data)
    }

    /// Pages are never merged (the classic K-D-B-tree leaves
    /// reorganization to offline rebuilds), so deletion cannot underflow.
    fn delete(tree: &mut KdbTree, point: &Point, data: u64) -> Result<bool> {
        tree.check_point(point.coords())?;
        // Disjointness: only the point's own root-to-leaf path can hold it.
        let path = insert::descend(tree, point.coords())?;
        let mut leaf = tree.read_page(path[path.len() - 1].0, 0)?;
        let Some(pos) = leaf.position(point.coords(), data) else {
            return Ok(false);
        };
        leaf.remove_point(pos)?;
        tree.write_page(&leaf)?;
        tree.count -= 1;
        tree.save_meta()?;
        Ok(true)
    }
}

impl Incremental for KdbPolicy {}

impl KdbTree {
    /// The region rectangle of the root (all of space).
    pub fn root_region(&self) -> Rect {
        full_space(self.dim())
    }
}

/// A K-D-B-tree region: the rectangle of space a page covers. Sibling
/// regions share boundary planes, so containment is half-open
/// (`min <= x < max`, an infinite upper bound inclusive); the root's
/// region is all of space.
#[derive(Clone, Debug, PartialEq)]
pub struct KdbRegion(pub Rect);

impl Region for KdbRegion {
    type Policy = ();
    type Bound = ();

    fn bytes(dim: usize) -> usize {
        Rect::bytes(dim)
    }

    fn encode(&self, c: &mut PageCodec<'_>) -> Result<()> {
        put_rect(c, &self.0)
    }

    /// Region bounds may be infinite (the root region covers all of
    /// space) but never NaN, and must be ordered per axis.
    fn decode(c: &mut PageReader<'_>, dim: usize) -> Result<Self> {
        Ok(KdbRegion(get_rect(c, dim, true)?))
    }

    // srlint: hot
    fn push_branches(
        rest: PageReader<'_>,
        n: usize,
        query: &[f32],
        bound: (),
        level: u16,
        out: &mut Expansion<NodeRef>,
    ) -> Result<()> {
        // Regions are disjoint, so at most one per level has
        // `MINDIST = 0` — what makes point queries single-path.
        Rect::push_branches(rest, n, query, bound, level, out)
    }

    fn contains_point(&self, p: &[f32]) -> bool {
        kdb_contains(&self.0, p)
    }

    fn contains_raw(raw: &[u8], p: &[f32]) -> Result<bool> {
        rect_contains_raw(&mut PageReader::new(raw), p, true, kdb_axis)
    }
}

/// Half-open containment: `min <= x < max` per dimension, except that an
/// infinite upper bound is inclusive. Sibling regions share boundary
/// planes; this rule routes every point to exactly one of them.
pub(crate) fn kdb_contains(rect: &Rect, p: &[f32]) -> bool {
    p.iter()
        .zip(rect.min().iter().zip(rect.max()))
        .all(|(&x, (&lo, &hi))| kdb_axis(lo, hi, x))
}

/// [`kdb_contains`] on one axis.
fn kdb_axis(lo: f32, hi: f32, x: f32) -> bool {
    x >= lo && (x < hi || !hi.is_finite())
}

/// The rectangle covering all of `dim`-dimensional space — the region of
/// the root.
pub(crate) fn full_space(dim: usize) -> Rect {
    Rect::new(vec![f32::NEG_INFINITY; dim], vec![f32::INFINITY; dim])
}

/// Clip `rect` to the half below / above the plane `x[dim] = value`.
pub(crate) fn clip_below(rect: &Rect, dim: usize, value: f32) -> Rect {
    let mut max = rect.max().to_vec();
    max[dim] = value;
    Rect::new(rect.min().to_vec(), max)
}

/// See [`clip_below`].
pub(crate) fn clip_above(rect: &Rect, dim: usize, value: f32) -> Rect {
    let mut min = rect.min().to_vec();
    min[dim] = value;
    Rect::new(min, rect.max().to_vec())
}

/// Disjoint under half-open semantics: some dimension separates them
/// (allowing a shared boundary plane).
fn half_open_disjoint(a: &Rect, b: &Rect) -> bool {
    (0..a.dim()).any(|d| a.max()[d] <= b.min()[d] || b.max()[d] <= a.min()[d])
}
