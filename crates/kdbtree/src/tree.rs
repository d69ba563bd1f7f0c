//! The public [`KdbTree`] type and its region: a half-open partition
//! cell whose bounds may be infinite.

use std::ops::Deref;
use std::path::Path;

use sr_geometry::{Point, Rect};
use sr_pager::{PageCodec, PageFile, PageId, PageReader};
use sr_query::paged::{
    get_rect, put_rect, rect_contains_raw, Kind, Node, Paged, PagedTree, Region, Result, TreeError,
    DEFAULT_DATA_AREA,
};
use sr_query::{Expansion, IndexError};

use crate::insert;

/// The identity this tree writes into its page file's metadata.
pub const KIND: Kind = Kind {
    magic: 0x4B44_4254, // "KDBT"
    name: "K-D-B-tree",
};

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

    fn push_branch<N>(
        raw: &[u8],
        query: &[f32],
        bound: (),
        node: N,
        out: &mut Expansion<N>,
    ) -> Result<()> {
        // Regions are disjoint, so at most one per level has
        // `MINDIST = 0` — what makes point queries single-path.
        Rect::push_branch(raw, query, bound, node, out)
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

/// A disk-based K-D-B-tree over points: disjoint subregions, forced
/// splits, no minimum storage utilization. The shared core's methods
/// (`knn`, `range`, `contains`, `len`, `pager`, …) are reached through
/// `Deref`.
pub struct KdbTree {
    core: Paged<KdbRegion>,
}

impl KdbTree {
    /// Create a new tree in an in-memory page file.
    pub fn create_in_memory(dim: usize, page_size: usize) -> Result<Self> {
        Self::create_from(
            PageFile::create_in_memory(page_size)?,
            dim,
            DEFAULT_DATA_AREA,
        )
    }

    /// Create a new tree at `path` with 8 KiB pages and the paper's
    /// 512-byte data area.
    pub fn create(path: &Path, dim: usize) -> Result<Self> {
        Self::create_from(PageFile::create(path)?, dim, DEFAULT_DATA_AREA)
    }

    /// Create a new tree over an empty [`PageFile`].
    pub fn create_from(pf: PageFile, dim: usize, data_area: usize) -> Result<Self> {
        let core = Paged::create(pf, KIND, dim, data_area, ())?;
        Ok(KdbTree { core })
    }

    /// Reopen a tree previously created with [`KdbTree::create`].
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_from(PageFile::open(path)?)
    }

    /// Reopen a tree from an already-open page file.
    pub fn open_from(pf: PageFile) -> Result<Self> {
        let core = Paged::open(pf, KIND)?;
        Ok(KdbTree { core })
    }

    /// Insert a point with a `u64` payload.
    ///
    /// Fails with [`TreeError::Unsplittable`] if a point page overflows
    /// with more coincident points than one page can hold (no coordinate
    /// plane can separate them).
    pub fn insert(&mut self, point: Point, data: u64) -> Result<()> {
        insert::insert_point(&mut self.core, point, data)
    }

    /// Delete the exact entry `(point, data)`; returns whether it
    /// existed. Pages are never merged (the classic K-D-B-tree leaves
    /// reorganization to offline rebuilds), so deletion cannot underflow.
    pub fn delete(&mut self, point: &Point, data: u64) -> Result<bool> {
        self.core.check_dim(point.dim())?;
        // Disjointness: only the point's own root-to-leaf path can hold it.
        let path = insert::descend(&self.core, point.coords())?;
        let id = path[path.len() - 1].0;
        let mut leaf = self.core.read_node(id, 0)?;
        let Node::Leaf(entries) = &mut leaf else {
            return Err(TreeError::Corrupt(
                "descent ended above the leaf level".into(),
            ));
        };
        let Some(pos) = entries
            .iter()
            .position(|e| e.point == *point && e.data == data)
        else {
            return Ok(false);
        };
        entries.remove(pos);
        self.core.write_node(id, &leaf)?;
        self.core.count -= 1;
        self.core.save_meta()?;
        Ok(true)
    }

    /// The region rectangle of the root (all of space).
    pub fn root_region(&self) -> Rect {
        full_space(self.core.dim())
    }
}

impl Deref for KdbTree {
    type Target = Paged<KdbRegion>;

    fn deref(&self) -> &Paged<KdbRegion> {
        &self.core
    }
}

/// The K-D-B invariants (§2.1): sibling regions are pairwise disjoint
/// under half-open containment, every child region lies inside its
/// parent's, and every stored point is reached by the single-path root
/// descent (disjointness plus coverage). There is *no* minimum-fill
/// check — forced splits legitimately leave nearly-empty pages.
impl PagedTree for KdbTree {
    type Region = KdbRegion;

    fn core(&self) -> &Paged<KdbRegion> {
        &self.core
    }

    fn check_node(
        &self,
        id: PageId,
        node: &Node<KdbRegion>,
        stored: Option<&KdbRegion>,
    ) -> Result<()> {
        match node {
            Node::Leaf(entries) => {
                for e in entries {
                    let path = insert::descend(&self.core, e.point.coords())?;
                    let found = path[path.len() - 1].0;
                    if found != id {
                        return Err(TreeError::Corrupt(format!(
                            "point {:?} stored in page {id} but routed to page {found}",
                            e.point
                        )));
                    }
                }
            }
            Node::Inner { entries, .. } => {
                let region = stored.map_or_else(|| self.root_region(), |r| r.0.clone());
                for (i, a) in entries.iter().enumerate() {
                    if !region.contains_rect(&a.region.0) {
                        return Err(TreeError::Corrupt(format!(
                            "page {id}: child region {:?} escapes parent {region:?}",
                            a.region
                        )));
                    }
                    if let Some(b) = entries[i + 1..]
                        .iter()
                        .find(|b| !half_open_disjoint(&a.region.0, &b.region.0))
                    {
                        return Err(TreeError::Corrupt(format!(
                            "page {id}: sibling regions overlap: {:?} and {:?}",
                            a.region, b.region
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn insert_point(&mut self, point: Point, data: u64) -> std::result::Result<(), IndexError> {
        Ok(self.insert(point, data)?)
    }

    fn delete_point(&mut self, point: &Point, data: u64) -> std::result::Result<bool, IndexError> {
        Ok(self.delete(point, data)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_query::paged::{Entry, LeafEntry, Params};

    #[test]
    fn half_open_containment() {
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert!(kdb_contains(&r, &[0.0, 0.0])); // lower bound inclusive
        assert!(kdb_contains(&r, &[0.5, 0.999]));
        assert!(!kdb_contains(&r, &[1.0, 0.5])); // upper bound exclusive
        assert!(!kdb_contains(&r, &[-0.1, 0.5]));
    }

    #[test]
    fn infinite_upper_bound_is_inclusive() {
        let r = full_space(2);
        assert!(kdb_contains(&r, &[f32::MAX, -1.0e30]));
        assert!(kdb_contains(&r, &[0.0, 0.0]));
    }

    #[test]
    fn boundary_point_belongs_to_exactly_one_side() {
        let whole = Rect::new(vec![0.0], vec![10.0]);
        let p = [5.0f32];
        assert!(!kdb_contains(&clip_below(&whole, 0, 5.0), &p));
        assert!(kdb_contains(&clip_above(&whole, 0, 5.0), &p));
    }

    #[test]
    fn clip_preserves_other_dimensions() {
        let r = Rect::new(vec![0.0, -1.0], vec![4.0, 1.0]);
        let lo = clip_below(&r, 0, 2.0);
        let hi = clip_above(&r, 0, 2.0);
        assert_eq!((lo.min(), lo.max()), (&[0.0, -1.0][..], &[2.0, 1.0][..]));
        assert_eq!((hi.min(), hi.max()), (&[2.0, -1.0][..], &[4.0, 1.0][..]));
    }

    #[test]
    fn paper_capacities_at_16_dimensions() {
        let p = crate::KdbParams::derive(8187, 16, 512);
        // Same entry size as the R*-tree: region pages hold 30, point
        // pages 12.
        assert_eq!((p.max_node, p.max_leaf), (30, 12));
    }

    #[test]
    fn codec_roundtrip_with_infinite_bounds() {
        let p = Params::<KdbRegion>::derive(8187, 2, 512);
        let node = Node::Inner {
            level: 1,
            entries: vec![Entry {
                region: KdbRegion(full_space(2)),
                child: 3,
            }],
        };
        let back = Node::decode(&node.encode(&p, 8187).unwrap(), &p).unwrap();
        let Node::Inner { entries, .. } = back else {
            panic!("expected region page")
        };
        assert_eq!(
            (&entries[0].region.0, entries[0].child),
            (&full_space(2), 3)
        );
        // A rectangle tree refuses the same infinite bounds.
        let rect = Params::<Rect>::derive(8187, 2, 512);
        assert!(Node::<Rect>::decode(&node.encode(&p, 8187).unwrap(), &rect).is_err());
        let leaf: Node<KdbRegion> = Node::Leaf(vec![LeafEntry {
            point: Point::new(vec![3.5, -1.25]),
            data: 77,
        }]);
        assert!(Node::decode(&leaf.encode(&p, 8187).unwrap(), &p).is_ok());
    }
}
