//! The public [`SrTree`] type: the shared paged core plus the SR-tree's
//! policies.

use std::collections::HashSet;
use std::ops::Deref;
use std::path::Path;

use sr_geometry::{Point, Rect, Sphere};
use sr_obs::{Noop, Recorder};
use sr_pager::{PageFile, PageId};
use sr_query::paged::centroid;
use sr_query::paged::{
    AnyEntry, Dynamic, Entry, Kind, Node, Paged, PagedTree, Result, DEFAULT_DATA_AREA,
};
use sr_query::{Neighbor, QuerySpec};

use crate::region::{leaf_shapes, region_of, DistanceBound, SrOptions, SrRegion};

/// The identity this tree writes into its page file's metadata.
pub const KIND: Kind = Kind {
    magic: 0x5352_5442, // "SRTB"
    name: "SR-tree",
};

/// A disk-based SR-tree over points — the paper's contribution: regions
/// are the intersection of a bounding sphere and a bounding rectangle.
/// Queries (`knn`, `range`) come from [`sr_query::SpatialIndex`]; the
/// shared core's other methods (`contains`, `len`, `pager`, …) are
/// reached through `Deref`.
pub struct SrTree {
    core: Paged<SrRegion>,
}

impl SrTree {
    /// Create a new tree in an in-memory page file.
    pub fn create_in_memory(dim: usize, page_size: usize) -> Result<Self> {
        Self::create_from(
            PageFile::create_in_memory(page_size)?,
            dim,
            DEFAULT_DATA_AREA,
        )
    }

    /// Create a new tree at `path` with 8 KiB pages and the paper's
    /// 512-byte per-entry data area.
    pub fn create(path: &Path, dim: usize) -> Result<Self> {
        Self::create_from(PageFile::create(path)?, dim, DEFAULT_DATA_AREA)
    }

    /// Create a new tree over an empty [`PageFile`].
    pub fn create_from(pf: PageFile, dim: usize, data_area: usize) -> Result<Self> {
        Self::create_with_options(pf, dim, data_area, SrOptions::default())
    }

    /// Create a new tree with explicit [`SrOptions`] (ablation studies).
    pub fn create_with_options(
        pf: PageFile,
        dim: usize,
        data_area: usize,
        options: SrOptions,
    ) -> Result<Self> {
        let core = Paged::create(pf, KIND, dim, data_area, options)?;
        Ok(SrTree { core })
    }

    /// Reopen a tree previously created with [`SrTree::create`].
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_from(PageFile::open(path)?)
    }

    /// Reopen a tree from an already-open page file.
    pub fn open_from(pf: PageFile) -> Result<Self> {
        let core = Paged::open(pf, KIND)?;
        Ok(SrTree { core })
    }

    /// The ablation options in force (persisted in the metadata).
    pub fn options(&self) -> SrOptions {
        self.core.params.policy
    }

    /// Bulk-load a complete data set into this (empty) tree — the static
    /// construction path (see the `bulk` module docs). Pages come out
    /// packed to capacity, like the VAMSplit R-tree's, while keeping
    /// every SR-tree invariant, so dynamic inserts and deletes keep
    /// working afterwards.
    ///
    /// # Panics
    /// Panics if the tree already contains points.
    pub fn bulk_load(&mut self, points: Vec<(Point, u64)>) -> Result<()> {
        for (p, _) in &points {
            self.core.check_point(p.coords())?;
        }
        crate::bulk::bulk_load(&mut self.core, points)
    }

    /// Insert a point with a `u64` payload.
    pub fn insert(&mut self, point: Point, data: u64) -> Result<()> {
        Dynamic::insert(self, point, data)
    }

    /// Delete the exact entry `(point, data)`; returns whether it existed.
    pub fn delete(&mut self, point: &Point, data: u64) -> Result<bool> {
        Dynamic::delete(self, point, data)
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
        Ok(self.core.search(&spec, bound, rec)?.rows)
    }

    /// The (sphere, rectangle) region pairs of all non-empty leaves.
    ///
    /// The paper measures the volumes/diameters of both shapes separately
    /// (Figures 12, 13) as upper bounds on the true intersection region.
    pub fn leaf_regions(&self) -> Result<Vec<(Sphere, Rect)>> {
        let mut out = Vec::new();
        self.core.walk_leaves(|entries| {
            out.extend(leaf_shapes(entries));
            Ok(())
        })?;
        Ok(out)
    }
}

impl Deref for SrTree {
    type Target = Paged<SrRegion>;

    fn deref(&self) -> &Paged<SrRegion> {
        &self.core
    }
}

impl PagedTree for SrTree {
    type Region = SrRegion;

    fn core(&self) -> &Paged<SrRegion> {
        &self.core
    }

    /// Every recorded (sphere, rect, weight) equals the §4.2
    /// recomputation from the child under the persisted radius rule;
    /// with the shared walker's check that every point lies in *both*
    /// recorded shapes, this is the correctness precondition of the
    /// `max(d_s, d_r)` pruning bound.
    fn check_node(
        &self,
        id: PageId,
        node: &Node<SrRegion>,
        stored: Option<&SrRegion>,
    ) -> Result<()> {
        self.check_fill_and_region(id, node, stored)
    }

    fn insert_point(&mut self, point: Point, data: u64) -> Result<()> {
        self.insert(point, data)
    }

    fn delete_point(&mut self, point: &Point, data: u64) -> Result<bool> {
        self.delete(point, data)
    }
}

/// The SS-tree's centroid algorithm, "applied to the SR-tree" (§4.2),
/// with forced reinsertion switchable off for the ablation; only the
/// region update differs.
impl Dynamic for SrTree {
    type Budget = HashSet<PageId>;

    fn core_mut(&mut self) -> &mut Paged<SrRegion> {
        &mut self.core
    }

    fn budget(&self) -> HashSet<PageId> {
        HashSet::new()
    }

    fn may_reinsert(&self, budget: &mut HashSet<PageId>, page: PageId, _level: u16) -> bool {
        !self.options().disable_reinsertion && centroid::reinsert_once_per_node(budget, page)
    }

    fn choose_subtree(
        &self,
        entries: &[Entry<SrRegion>],
        entry: &AnyEntry<SrRegion>,
        _level: u16,
    ) -> usize {
        centroid::choose_nearest(entries, entry)
    }

    fn region_of(&self, node: &Node<SrRegion>) -> Result<SrRegion> {
        region_of(node, self.options().radius_rule)
    }

    fn split(&self, node: Node<SrRegion>) -> (Node<SrRegion>, Node<SrRegion>) {
        centroid::variance_split(node, &self.core.params)
    }

    fn take_reinsert(&self, node: &mut Node<SrRegion>) -> Result<Vec<AnyEntry<SrRegion>>> {
        centroid::take_farthest_from_centroid(node, &self.core.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RadiusRule;
    use sr_query::IndexError;

    #[test]
    fn options_default_is_the_paper_configuration() {
        let o = SrOptions::default();
        assert_eq!(o.radius_rule, RadiusRule::MinDsDr);
        assert!(!o.disable_reinsertion);
    }

    #[test]
    fn empty_tree_roundtrips_metadata() {
        let t = SrTree::create_in_memory(7, 4096).unwrap();
        assert_eq!((t.dim(), t.len(), t.height()), (7, 0, 1));
        assert_eq!(t.options(), SrOptions::default());
    }

    #[test]
    fn open_rejects_foreign_magic() {
        let pf = PageFile::create_in_memory(4096).unwrap();
        pf.set_user_meta(&[0u8; 40]).unwrap();
        assert!(matches!(
            SrTree::open_from(pf),
            Err(IndexError::NotThisIndex(_))
        ));
    }

    #[test]
    fn paper_capacities_at_16_dimensions() {
        let p = crate::SrParams::derive(8187, 16, 512);
        // node entry = 136 + 256 + 12 = 404 → (8187-4)/404 = 20: one
        // third of the SS-tree's 55, two thirds of the R*-tree's 30.
        assert_eq!((p.max_node, p.min_node, p.reinsert_node), (20, 8, 6));
        assert_eq!((p.max_leaf, p.min_leaf, p.reinsert_leaf), (12, 4, 3));
    }

    #[test]
    fn fanout_relationship_of_section_5_3() {
        // SR fanout ≈ 1/3 of the SS-tree's, 2/3 of the R*-tree's.
        let sr = crate::SrParams::derive(8187, 16, 512).max_node as f64;
        let ss = 55.0; // SS-tree at the same page size (sr-sstree tests)
        let rstar = sr_query::paged::Params::<sr_geometry::Rect>::derive(8187, 16, 512).max_node;
        assert_eq!(rstar, 30);
        assert!((sr / ss - 1.0 / 3.0).abs() < 0.05);
        assert!((sr / rstar as f64 - 2.0 / 3.0).abs() < 0.05);
    }
}
