//! The SR-tree's policy (§4): the sphere-and-rectangle region, the
//! SS-tree's centroid insertion, and the SR-tree's own methods.

use std::collections::HashSet;

use sr_geometry::{Point, Rect, Sphere};
use sr_obs::{Noop, Recorder};
use sr_pager::{PageFile, PageId};
use sr_query::{IndexError, Neighbor, QuerySpec};

use super::{Incremental, Kind, Tree, TreePolicy};
use crate::paged::{centroid, update, AnyEntry, Dynamic, Entry, Node, NodePage};
use crate::region::{leaf_shapes, region_of, DistanceBound, SrOptions, SrRegion};
use crate::Result;

/// The SR-tree's policies: the §4.2 region and the SS-tree's centroid
/// insertion, with the ablation options of [`SrOptions`].
pub struct SrPolicy;

/// A disk-based SR-tree over points — the paper's contribution: regions
/// are the intersection of a bounding sphere and a bounding rectangle.
pub type SrTree = Tree<SrPolicy>;

/// Every recorded (sphere, rect, weight) equals the §4.2 recomputation
/// from the child under the persisted radius rule; with the shared
/// walker's check that every point lies in *both* recorded shapes, this
/// is the correctness precondition of the `max(d_s, d_r)` pruning bound.
impl TreePolicy for SrPolicy {
    type Region = SrRegion;

    const KIND: Kind = Kind {
        magic: 0x5352_5442, // "SRTB"
        name: "SR-tree",
    };

    fn check_node(
        tree: &SrTree,
        id: PageId,
        node: &Node<SrRegion>,
        stored: Option<&SrRegion>,
    ) -> Result<()> {
        update::check_fill_and_region(tree, id, node, stored)
    }

    fn insert(tree: &mut SrTree, point: Point, data: u64) -> Result<()> {
        update::insert(tree, point, data)
    }

    fn delete(tree: &mut SrTree, point: &Point, data: u64) -> Result<bool> {
        update::delete(tree, point, data)
    }
}

impl Incremental for SrPolicy {}

impl SrTree {
    /// Create a new tree with explicit [`SrOptions`] (ablation studies).
    pub fn create_with_options(
        pf: PageFile,
        dim: usize,
        data_area: usize,
        options: SrOptions,
    ) -> Result<Self> {
        Tree::create_with(pf, dim, data_area, options)
    }

    /// The ablation options in force (persisted in the metadata).
    pub fn options(&self) -> SrOptions {
        self.params.policy
    }

    /// Bulk-load a complete data set into this (empty) tree — the static
    /// construction path (see the `bulk` module docs). Pages come out
    /// packed to capacity, like the VAMSplit R-tree's, while keeping
    /// every SR-tree invariant, so dynamic inserts and deletes keep
    /// working afterwards.
    ///
    /// # Errors
    /// [`IndexError::Unsupported`] if the tree already holds points (it
    /// is left untouched), and the point checks of an insert.
    pub fn bulk_load(&mut self, points: Vec<(Point, u64)>) -> Result<()> {
        if !self.is_empty() {
            return Err(IndexError::Unsupported("bulk_load requires an empty tree"));
        }
        for (p, _) in &points {
            self.check_point(p.coords())?;
        }
        crate::bulk::bulk_load(self, points)
    }

    /// k-NN with an explicit region-distance bound — the ablation knob
    /// for the paper's §4.4 combined bound — in the paper's depth-first
    /// order. Results are identical for every bound (all are valid lower
    /// bounds); only the pruning power, and therefore the page reads,
    /// differ.
    pub fn knn_with_bound(
        &self,
        query: &[f32],
        k: usize,
        bound: DistanceBound,
    ) -> Result<Vec<Neighbor>> {
        self.knn_bounded_with(query, k, bound, &Noop)
    }

    /// [`SrTree::knn_with_bound`] with a metrics recorder — the pairing
    /// that measures the §4.4 pruning advantage directly (prune events
    /// split by which shape's bound achieved them).
    pub fn knn_bounded_with<R: Recorder + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        bound: DistanceBound,
        rec: &R,
    ) -> Result<Vec<Neighbor>> {
        let spec = QuerySpec::knn(query, k).depth_first();
        Ok(self.search(&spec, bound, rec)?.rows)
    }

    /// The (sphere, rectangle) region pairs of all non-empty leaves.
    ///
    /// The paper measures the volumes/diameters of both shapes separately
    /// (Figures 12, 13) as upper bounds on the true intersection region.
    pub fn leaf_regions(&self) -> Result<Vec<(Sphere, Rect)>> {
        let mut out = Vec::new();
        self.walk_leaves(|entries| {
            out.extend(leaf_shapes(entries));
            Ok(())
        })?;
        Ok(out)
    }
}

/// The SS-tree's centroid algorithm, "applied to the SR-tree" (§4.2),
/// with forced reinsertion switchable off for the ablation; only the
/// region update differs.
impl Dynamic for SrPolicy {
    type Budget = HashSet<PageId>;

    fn budget(_tree: &SrTree) -> HashSet<PageId> {
        HashSet::new()
    }

    fn may_reinsert(
        tree: &SrTree,
        budget: &mut HashSet<PageId>,
        page: PageId,
        _level: u16,
    ) -> bool {
        !tree.options().disable_reinsertion && centroid::reinsert_once_per_node(budget, page)
    }

    fn choose_subtree(
        entries: &[Entry<SrRegion>],
        entry: &AnyEntry<SrRegion>,
        _level: u16,
    ) -> usize {
        centroid::choose_nearest(entries, entry)
    }

    fn region_of(tree: &SrTree, page: &NodePage<SrRegion>) -> Result<SrRegion> {
        region_of(page, tree.options().radius_rule)
    }

    fn split(tree: &SrTree, node: Node<SrRegion>) -> (Node<SrRegion>, Node<SrRegion>) {
        centroid::variance_split(node, &tree.params)
    }

    fn take_reinsert(tree: &SrTree, node: &mut Node<SrRegion>) -> Result<Vec<AnyEntry<SrRegion>>> {
        centroid::take_farthest_from_centroid(node, &tree.params)
    }
}
