//! The public [`SsTree`] type and its region: a bounding sphere centered
//! on the centroid, with the subtree's point count.

use std::collections::HashSet;
use std::ops::Deref;
use std::path::Path;

use sr_geometry::{
    bounding_sphere_of_points, next_radius_up, sphere_min_dist2_f64le, Point, Sphere,
    CONTAINMENT_EPS,
};
use sr_pager::{PageCodec, PageFile, PageId, PageReader};
use sr_query::paged::centroid::{self, Centered};
use sr_query::paged::{
    check_sphere_raw, get_sphere, put_sphere, sphere_contains_raw, AnyEntry, Dynamic, Entry, Kind,
    Node, NodePage, Paged, PagedTree, Region, Result, DEFAULT_DATA_AREA,
};
use sr_query::{Expansion, IndexError};

/// The identity this tree writes into its page file's metadata.
pub const KIND: Kind = Kind {
    magic: 0x5353_5452, // "SSTR"
    name: "SS-tree",
};

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
fn region_of(page: &NodePage<SsRegion>) -> Result<SsRegion> {
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

/// A disk-based SS-tree over points — bounding-sphere regions, centroid
/// insertion. Queries (`knn`, `range`) come from
/// [`sr_query::SpatialIndex`]; the shared core's other methods
/// (`contains`, `len`, `pager`, …) are reached through `Deref`.
pub struct SsTree {
    core: Paged<SsRegion>,
}

impl SsTree {
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
        Ok(SsTree { core })
    }

    /// Reopen a tree previously created with [`SsTree::create`].
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_from(PageFile::open(path)?)
    }

    /// Reopen a tree from an already-open page file.
    pub fn open_from(pf: PageFile) -> Result<Self> {
        let core = Paged::open(pf, KIND)?;
        Ok(SsTree { core })
    }

    /// Insert a point with a `u64` payload.
    pub fn insert(&mut self, point: Point, data: u64) -> Result<()> {
        Dynamic::insert(self, point, data)
    }

    /// Delete the exact entry `(point, data)`; returns whether it existed.
    pub fn delete(&mut self, point: &Point, data: u64) -> Result<bool> {
        Dynamic::delete(self, point, data)
    }

    /// Bounding spheres of all non-empty leaves — the leaf-level regions
    /// of Figures 5, 12, 13.
    pub fn leaf_regions(&self) -> Result<Vec<Sphere>> {
        let mut out = Vec::new();
        self.core.walk_leaves(|entries| {
            let pts: Vec<&[f32]> = entries.iter().map(|e| e.point.coords()).collect();
            out.extend(bounding_sphere_of_points(&pts));
            Ok(())
        })?;
        Ok(out)
    }
}

impl Deref for SsTree {
    type Target = Paged<SsRegion>;

    fn deref(&self) -> &Paged<SsRegion> {
        &self.core
    }
}

impl PagedTree for SsTree {
    type Region = SsRegion;

    fn core(&self) -> &Paged<SsRegion> {
        &self.core
    }

    fn check_node(
        &self,
        id: PageId,
        node: &Node<SsRegion>,
        stored: Option<&SsRegion>,
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

/// The SS-tree's policies (§2.3): nearest-centroid ChooseSubtree,
/// forced reinsertion unless the same node already reinserted during
/// this insertion, and the variance split.
impl Dynamic for SsTree {
    type Budget = HashSet<PageId>;

    fn core_mut(&mut self) -> &mut Paged<SsRegion> {
        &mut self.core
    }

    fn budget(&self) -> HashSet<PageId> {
        HashSet::new()
    }

    fn may_reinsert(&self, budget: &mut HashSet<PageId>, page: PageId, _level: u16) -> bool {
        centroid::reinsert_once_per_node(budget, page)
    }

    fn choose_subtree(
        &self,
        entries: &[Entry<SsRegion>],
        entry: &AnyEntry<SsRegion>,
        _level: u16,
    ) -> usize {
        centroid::choose_nearest(entries, entry)
    }

    fn region_of(&self, page: &NodePage<SsRegion>) -> Result<SsRegion> {
        region_of(page)
    }

    fn split(&self, node: Node<SsRegion>) -> (Node<SsRegion>, Node<SsRegion>) {
        centroid::variance_split(node, &self.core.params)
    }

    fn take_reinsert(&self, node: &mut Node<SsRegion>) -> Result<Vec<AnyEntry<SsRegion>>> {
        centroid::take_farthest_from_centroid(node, &self.core.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_query::paged::LeafEntry;

    /// The page `node` encodes to, in a 3-d tree.
    fn page(node: &Node<SsRegion>) -> NodePage<SsRegion> {
        NodePage::encode(1, node, &crate::SsParams::derive(8187, 3, 512), 8187).unwrap()
    }

    #[test]
    fn leaf_region_contains_points() {
        let node = Node::Leaf(
            [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.3, 0.9]]
                .iter()
                .enumerate()
                .map(|(i, c)| LeafEntry {
                    point: Point::new(c.to_vec()),
                    data: i as u64,
                })
                .collect(),
        );
        let r = region_of(&page(&node)).unwrap();
        let Node::Leaf(entries) = &node else {
            panic!("built as a leaf")
        };
        assert!(entries
            .iter()
            .all(|e| r.sphere.contains_point(e.point.coords(), 0.0)));
        assert_eq!(r.weight, 3);
    }

    #[test]
    fn inner_region_contains_child_spheres() {
        let mk = |x: f32, r: f32, w: u64| Entry {
            region: SsRegion {
                sphere: Sphere::new(Point::new(vec![x, 0.0, 0.0]), r),
                weight: w,
            },
            child: 0,
        };
        let node = Node::Inner {
            level: 1,
            entries: vec![mk(0.0, 0.5, 10), mk(4.0, 1.0, 30)],
        };
        let r = region_of(&page(&node)).unwrap();
        let Node::Inner { entries, .. } = &node else {
            panic!("built as a leaf")
        };
        for e in entries {
            assert!(r.sphere.contains_sphere(&e.region.sphere, 1e-6));
        }
        // centroid weighted 10:30 toward x=4 → x = 3.0
        assert!((r.sphere.center()[0] - 3.0).abs() < 1e-6);
        assert_eq!(r.weight, 40);
    }

    #[test]
    fn empty_nodes_are_corrupt_not_a_panic() {
        let leaf = Node::<SsRegion>::Leaf(Vec::new());
        let inner = Node::<SsRegion>::Inner {
            level: 1,
            entries: Vec::new(),
        };
        for node in [&leaf, &inner] {
            assert!(matches!(
                centroid::centroid(node),
                Err(IndexError::Corrupt(_))
            ));
            assert!(matches!(
                region_of(&page(node)),
                Err(IndexError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn paper_capacities_at_16_dimensions() {
        let p = crate::SsParams::derive(8187, 16, 512);
        // node entry = 17*8 + 12 = 148 → (8187-4)/148 = 55: nearly double
        // the R*-tree's 30 (§2.3). Minimums are 40%, reinsertion 30%.
        assert_eq!((p.max_node, p.min_node, p.reinsert_node), (55, 22, 16));
        assert_eq!((p.max_leaf, p.min_leaf, p.reinsert_leaf), (12, 4, 3));
    }

    #[test]
    fn inner_roundtrip() {
        let p = crate::SsParams::derive(8187, 3, 512);
        let region = SsRegion {
            sphere: Sphere::new(Point::new(vec![0.5, 0.5, 0.5]), 1.25),
            weight: 99,
        };
        let node = Node::Inner {
            level: 2,
            entries: vec![Entry {
                region: region.clone(),
                child: 31,
            }],
        };
        let back = Node::decode(1, 2, &node.encode(&p, 8187).unwrap(), &p).unwrap();
        let Node::Inner { entries, .. } = back else {
            panic!("expected inner")
        };
        assert_eq!((&entries[0].region, entries[0].child), (&region, 31));
    }

    #[test]
    fn take_reinsert_removes_the_centroid_outlier_first() {
        // Unlike the R*-tree, the SS-tree measures from the *centroid*,
        // so a single extreme outlier is removed first.
        let t = SsTree::create_from(PageFile::create_in_memory(1024).unwrap(), 2, 64).unwrap();
        let mut node = Node::Leaf(
            (0..9)
                .map(|i| LeafEntry {
                    point: Point::new(if i == 8 {
                        vec![1000.0, 1000.0]
                    } else {
                        vec![i as f32 * 0.1, 0.0]
                    }),
                    data: i as u64,
                })
                .collect(),
        );
        let removed = t.take_reinsert(&mut node).unwrap();
        assert!(matches!(&removed[0], AnyEntry::Leaf(e) if e.data == 8));
    }
}
