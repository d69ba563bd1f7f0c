//! The SS-tree (White & Jain, ICDE 1996) — the similarity-indexing
//! baseline the SR-tree improves on (paper §2.3).
//!
//! A disk-based, height-balanced tree whose regions are **bounding
//! spheres** centered on the centroid of the underlying points. What the
//! shared [`Tree`] leaves to this module:
//!
//! * **Region** — center + radius + subtree weight, `D + 1` floats
//!   against a rectangle's `2·D`, nearly doubling fanout: 55 vs the
//!   R\*-tree's 30 entries at `D = 16` with 8 KiB pages;
//! * **Region update** — the weighted centroid, radius `d_s` enclosing
//!   every child sphere;
//! * **Insertion** — the centroid policies of
//!   `crate::paged::centroid`: descend to the nearest centroid;
//!   force-reinsert on overflow *unless the same node already reinserted
//!   during this insertion*; split on the dimension of highest centroid
//!   variance at the position of least summed variance.
//!
//! ```
//! use sr_tree::sstree::SsTree;
//! use sr_geometry::Point;
//! use sr_query::SpatialIndex;
//!
//! let mut tree = SsTree::create_in_memory(2, 8192).unwrap();
//! for (i, xy) in [[0.0f32, 0.0], [1.0, 1.0], [0.2, 0.1]].iter().enumerate() {
//!     tree.insert(Point::new(xy.to_vec()), i as u64).unwrap();
//! }
//! let hits = tree.knn(&[0.0, 0.0], 2).unwrap();
//! assert_eq!(hits[0].data, 0);
//! ```

use std::collections::HashSet;

use sr_geometry::{
    bounding_sphere_of_points, next_radius_up, sphere_min_dist2_f64le, Point, Sphere,
    CONTAINMENT_EPS,
};
use sr_pager::{PageCodec, PageId, PageReader};
use sr_query::{Expansion, IndexError};

use super::{Incremental, Kind, Tree, TreePolicy};
use crate::paged::centroid::{self, Centered};
use crate::paged::{
    check_sphere_raw, get_sphere, put_sphere, sphere_contains_raw, update, AnyEntry, Dynamic,
    Entry, Node, NodePage, Region,
};
pub use crate::verify;
use crate::Result;

/// The SS-tree's policies: bounding-sphere regions and centroid
/// insertion.
pub struct SsPolicy;

/// A disk-based SS-tree over points — bounding-sphere regions, centroid
/// insertion.
pub type SsTree = Tree<SsPolicy>;

impl TreePolicy for SsPolicy {
    type Region = SsRegion;

    const KIND: Kind = Kind {
        magic: 0x5353_5452, // "SSTR"
        name: "SS-tree",
    };

    /// Exact sphere recomputation, weights and the `[min, max]` fanout
    /// bounds.
    fn check_node(
        tree: &SsTree,
        id: PageId,
        node: &Node<SsRegion>,
        stored: Option<&SsRegion>,
    ) -> Result<()> {
        update::check_fill_and_region(tree, id, node, stored)
    }

    fn insert(tree: &mut SsTree, point: Point, data: u64) -> Result<()> {
        update::insert(tree, point, data)
    }

    fn delete(tree: &mut SsTree, point: &Point, data: u64) -> Result<bool> {
        update::delete(tree, point, data)
    }
}

impl Incremental for SsPolicy {}

impl SsTree {
    /// Bounding spheres of all non-empty leaves — the leaf-level regions
    /// of Figures 5, 12, 13.
    pub fn leaf_regions(&self) -> Result<Vec<Sphere>> {
        let mut out = Vec::new();
        self.walk_leaves(|entries| {
            let pts: Vec<&[f32]> = entries.iter().map(|e| e.point.coords()).collect();
            out.extend(bounding_sphere_of_points(&pts));
            Ok(())
        })?;
        Ok(out)
    }
}

/// An SS-tree entry's region: the child's bounding sphere and the number
/// of points beneath it (the `w` that weights the centroid). On disk:
/// center and radius as f64s, then the weight as a u32 — `(D+1)·8 + 4`
/// bytes, nearly half a rectangle's `2·D·8`.
#[derive(Clone, Debug, PartialEq)]
pub struct SsRegion {
    /// Bounding sphere of the subtree.
    pub sphere: Sphere,
    /// Points in the subtree.
    pub weight: u64,
}

impl Region for SsRegion {
    type Policy = ();
    type Bound = ();

    fn bytes(dim: usize) -> usize {
        (dim + 1) * 8 + 4
    }

    fn encode(&self, c: &mut PageCodec<'_>) -> Result<()> {
        put_sphere(c, &self.sphere)?;
        centroid::put_weight(c, self.weight)
    }

    fn decode(c: &mut PageReader<'_>, dim: usize) -> Result<Self> {
        let sphere = get_sphere(c, dim)?;
        let weight = u64::from(c.get_u32()?);
        Ok(SsRegion { sphere, weight })
    }

    /// Distance to the sphere surface.
    fn push_branch<N>(
        raw: &[u8],
        query: &[f32],
        _bound: (),
        node: N,
        out: &mut Expansion<N>,
    ) -> Result<()> {
        let mut r = PageReader::new(raw);
        let center = r.get_bytes(query.len() * 8)?;
        let d2 = sphere_min_dist2_f64le(center, r.get_f64()?, query)
            .map_err(|e| IndexError::Corrupt(e.to_string()))?;
        out.push_sphere_branch(d2, node);
        Ok(())
    }

    /// Spheres are rebuilt from rounded f32 centroids, so a stored point
    /// can sit a few ulps outside its sphere; an exact test made
    /// contains/delete miss live entries.
    fn contains_point(&self, p: &[f32]) -> bool {
        self.sphere.contains_point(p, CONTAINMENT_EPS)
    }

    fn contains_raw(raw: &[u8], p: &[f32]) -> Result<bool> {
        sphere_contains_raw(&mut PageReader::new(raw), p)
    }

    fn check_raw(raw: &[u8], dim: usize) -> Result<()> {
        check_sphere_raw(&mut PageReader::new(raw), dim)
    }
}

impl Centered for SsRegion {
    fn center(&self) -> &Point {
        self.sphere.center()
    }

    fn weight(&self) -> u64 {
        self.weight
    }
}

/// The SS-tree region of a node, from its page's lanes: a sphere
/// centered on the weighted centroid with radius `d_s` — just enough to
/// enclose every child sphere (every point, for a leaf).
///
/// # Errors
/// [`IndexError::Corrupt`] for an empty or zero-weight node — both are
/// reachable from a corrupted page, never from a well-formed tree.
pub(super) fn region_of(page: &NodePage<SsRegion>) -> Result<SsRegion> {
    let sphere = if page.is_leaf() {
        centroid::leaf_sphere(page)
            .ok_or_else(|| IndexError::Corrupt("region of an empty leaf".into()))?
    } else {
        let (center, d_s) = centroid::inner_sphere(page, &page.region_rows())?;
        Sphere::new(center, next_radius_up(d_s))
    };
    Ok(SsRegion {
        sphere,
        weight: centroid::page_weight(page),
    })
}

/// The SS-tree's policies (§2.3): nearest-centroid ChooseSubtree,
/// forced reinsertion unless the same node already reinserted during
/// this insertion, and the variance split.
impl Dynamic for SsPolicy {
    type Budget = HashSet<PageId>;

    fn budget(_tree: &SsTree) -> HashSet<PageId> {
        HashSet::new()
    }

    fn may_reinsert(
        _tree: &SsTree,
        budget: &mut HashSet<PageId>,
        page: PageId,
        _level: u16,
    ) -> bool {
        centroid::reinsert_once_per_node(budget, page)
    }

    fn choose_subtree(
        entries: &[Entry<SsRegion>],
        entry: &AnyEntry<SsRegion>,
        _level: u16,
    ) -> usize {
        centroid::choose_nearest(entries, entry)
    }

    fn region_of(_tree: &SsTree, page: &NodePage<SsRegion>) -> Result<SsRegion> {
        region_of(page)
    }

    fn split(tree: &SsTree, node: Node<SsRegion>) -> (Node<SsRegion>, Node<SsRegion>) {
        centroid::variance_split(node, &tree.params)
    }

    fn take_reinsert(tree: &SsTree, node: &mut Node<SsRegion>) -> Result<Vec<AnyEntry<SsRegion>>> {
        centroid::take_farthest_from_centroid(node, &tree.params)
    }
}
