//! The one tree type, [`Tree<P>`], and the five policies it is
//! instantiated with.
//!
//! The paper tells its structures apart by region shape, choose-subtree,
//! split and reinsertion alone (§2, §4). [`Tree<P>`] is everything else,
//! written once: the page file and the metadata header, page I/O, the
//! zero-copy `expand()` under the one search loop ([`crate::paged`]),
//! exact-match lookup, the leaf walks, the verify walker and the one
//! [`SpatialIndex`] implementation. A [`TreePolicy`] names the region its
//! inner entries store and the structure's own invariants, inserts and
//! deletes; the R-tree family implements them through
//! [`crate::paged::Dynamic`]. Each policy module names its structure as
//! an alias (`pub type SsTree = Tree<SsPolicy>`) and keeps only what is
//! its own: the region, the policy hooks, and any methods no other
//! structure has.
//!
//! Adding a structure is one policy module here and one row in the
//! registry ([`crate::TreeKind`]).

use std::path::Path;

use sr_geometry::{bounding_rect_of_points, Point, Rect};
use sr_obs::Recorder;
use sr_pager::{
    narrow_lane, LeafColumns, PageBuf, PageCodec, PageFile, PageId, PageKind, PageReader,
};
use sr_query::{IndexError, QueryOutput, QuerySpec, SpatialIndex};

use crate::paged::{
    in_page, non_finite_leaf, Layout, LeafEntry, Node, NodePage, Params, Region, Source,
    DEFAULT_DATA_AREA,
};
use crate::{verify, Result};

pub mod kdbtree;
pub mod rstar;
pub(crate) mod sr;
pub mod sstree;
pub mod vamsplit;

#[cfg(test)]
mod tests;

/// Metadata layout version. Version 2: leaves are columnar
/// (dimension-major). Version-1 files are rejected with
/// [`IndexError::NotThisIndex`] rather than silently misread — the byte
/// totals match, but the entry layout moved.
const META_VERSION: u32 = 2;

/// Bytes of the metadata header: magic, version, dim, data area (u32
/// each), root (u64), height (u32), count (u64); trees with policy flags
/// append one more u32.
const META_BYTES: usize = 36;

/// The most levels a tree can have: a page header stores its level as a
/// `u16`, and the root's level is `height - 1`.
const MAX_HEIGHT: u32 = 1 << 16;

/// The identity a tree writes into its page file's metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kind {
    /// Metadata magic (e.g. `"SRTB"` as a big-endian u32).
    pub magic: u32,
    /// Human-readable structure name (e.g. `"SR-tree"`), also the
    /// [`SpatialIndex::kind_name`].
    pub name: &'static str,
}

/// The magic of the tree whose metadata `pf` holds, or `None` when the
/// page file carries no tree metadata. Lets a caller pick the tree type
/// to open from the file itself.
pub(crate) fn stored_magic(pf: &PageFile) -> Option<u32> {
    // The header's first field, written by `save_meta` as a
    // little-endian u32.
    pf.user_meta().first_chunk().map(|b| u32::from_le_bytes(*b))
}

/// What sets one index structure apart: the region its inner entries
/// store, the identity it writes into its metadata, its invariants, and
/// how it inserts and deletes a point.
pub trait TreePolicy: Sized + Send + Sync + 'static {
    /// The region its inner entries store (its persisted options are
    /// plain data, so a tree can be shared across threads).
    type Region: Region<Policy: Send + Sync>;

    /// The identity the structure writes into its page file's metadata.
    const KIND: Kind;

    /// The structure's own invariants for the node at page `id`, given
    /// the region its parent records for it (`None` at the root). The
    /// shared walker ([`crate::verify::check`]) has already checked the
    /// node's level; it checks point containment and counts afterwards.
    fn check_node(
        tree: &Tree<Self>,
        id: PageId,
        node: &Node<Self::Region>,
        stored: Option<&Self::Region>,
    ) -> Result<()>;

    /// Insert one point. A structure that is only bulk-built keeps this
    /// refusal.
    fn insert(tree: &mut Tree<Self>, point: Point, data: u64) -> Result<()> {
        let _ = (tree, point, data);
        Err(IndexError::Unsupported("this index is bulk-load only"))
    }

    /// Remove one exact entry, reporting whether it was present. A
    /// structure without a delete path keeps this refusal.
    fn delete(tree: &mut Tree<Self>, point: &Point, data: u64) -> Result<bool> {
        let _ = (tree, point, data);
        Err(IndexError::Unsupported("delete"))
    }
}

/// A structure that starts empty and grows point by point — every one
/// but the bulk-built VAMSplit R-tree. Only these trees have the `create`
/// constructors and the inherent `insert` and `delete`.
pub trait Incremental: TreePolicy {}

/// A disk-based index over points under the policies of `P`: the page
/// file, the capacity parameters, and the root/height/count metadata.
/// Queries (`knn`, `range`) come from [`SpatialIndex`].
pub struct Tree<P: TreePolicy> {
    pf: PageFile,
    /// Capacity parameters in force (Table 1).
    pub params: Params<P::Region>,
    /// Root page.
    pub root: PageId,
    /// Number of levels; 1 means the root is a leaf. The root's level
    /// number is `height - 1` (leaves are level 0).
    pub(crate) height: u32,
    /// Number of stored points.
    pub(crate) count: u64,
}

impl<P: TreePolicy> Tree<P> {
    /// A tree over `pf` with no pages allocated yet (root 0, height 1) —
    /// the starting point of the bulk builders, which allocate their own
    /// root. Nothing is written.
    pub(crate) fn new(pf: PageFile, params: Params<P::Region>) -> Self {
        Tree {
            pf,
            params,
            root: 0,
            height: 1,
            count: 0,
        }
    }

    /// An empty tree (one empty root leaf) over an empty page file.
    ///
    /// # Errors
    /// [`IndexError::InvalidParams`] if the page is too small for the
    /// dimensionality and data area.
    pub(crate) fn create_with(
        pf: PageFile,
        dim: usize,
        data_area: usize,
        policy: <P::Region as Region>::Policy,
    ) -> Result<Self> {
        let mut params = Params::try_derive(pf.capacity(), dim, data_area)?;
        params.policy = policy;
        let mut tree = Tree::new(pf, params);
        tree.root = tree.allocate_node(&Node::Leaf(Vec::new()))?.id();
        tree.save_meta()?;
        Ok(tree)
    }

    /// Reopen a tree previously created or built at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_from(PageFile::open(path)?)
    }

    /// Reopen a tree from an already-open page file, checking the
    /// metadata's magic, version, parameters and height. A file holding
    /// any other structure, or metadata out of range, is
    /// [`IndexError::NotThisIndex`].
    pub fn open_from(pf: PageFile) -> Result<Self> {
        let meta = pf.user_meta();
        let flagged = P::Region::policy_flags(&Default::default()).is_some();
        if meta.len() < META_BYTES + if flagged { 4 } else { 0 } {
            return Err(IndexError::NotThisIndex("metadata too short".into()));
        }
        let name = P::KIND.name;
        let mut c = PageReader::new(&meta);
        if c.get_u32()? != P::KIND.magic {
            return Err(IndexError::NotThisIndex(format!("not a {name} file")));
        }
        if c.get_u32()? != META_VERSION {
            return Err(IndexError::NotThisIndex(format!(
                "unsupported {name} version"
            )));
        }
        let dim = c.get_u32()? as usize;
        let data_area = c.get_u32()? as usize;
        let root = c.get_u64()?;
        let height = c.get_u32()?;
        let count = c.get_u64()?;
        if !(1..=MAX_HEIGHT).contains(&height) {
            return Err(IndexError::NotThisIndex(format!(
                "stored height {height} outside 1..={MAX_HEIGHT}"
            )));
        }
        let mut params = Params::try_derive(pf.capacity(), dim, data_area)
            .map_err(|e| IndexError::NotThisIndex(format!("stored parameters: {e}")))?;
        if flagged {
            params.policy = P::Region::policy_from_flags(c.get_u32()?);
        }
        Ok(Tree {
            pf,
            params,
            root,
            height,
            count,
        })
    }

    /// Write the metadata header (committed with the next flush).
    pub(crate) fn save_meta(&mut self) -> Result<()> {
        let flags = P::Region::policy_flags(&self.params.policy);
        let mut buf = vec![0u8; META_BYTES + if flags.is_some() { 4 } else { 0 }];
        let mut c = PageCodec::new(&mut buf);
        c.put_u32(P::KIND.magic)?;
        c.put_u32(META_VERSION)?;
        c.put_u32(self.params.dim as u32)?;
        c.put_u32(self.params.data_area as u32)?;
        c.put_u64(self.root)?;
        c.put_u32(self.height)?;
        c.put_u64(self.count)?;
        if let Some(flags) = flags {
            c.put_u32(flags)?;
        }
        self.pf.set_user_meta(&buf)?;
        Ok(())
    }

    /// Dimensionality of indexed points.
    pub fn dim(&self) -> usize {
        self.params.dim
    }

    /// Number of points in the tree.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Tree height in levels (1 = the root is a leaf). Reproduces the
    /// paper's Tables 2 and 3.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Capacity parameters in force (Table 1).
    pub fn params(&self) -> &Params<P::Region> {
        &self.params
    }

    /// The underlying page file, exposed for I/O statistics
    /// ([`sr_pager::IoStats`]) and cache configuration.
    pub fn pager(&self) -> &PageFile {
        &self.pf
    }

    /// Flush all dirty pages and metadata to the backing store.
    pub fn flush(&self) -> Result<()> {
        self.pf.flush()?;
        Ok(())
    }

    /// Reject a point or query the index cannot hold or answer: one of
    /// the wrong dimensionality ([`IndexError::DimensionMismatch`]), or
    /// one with a NaN or infinite coordinate ([`IndexError::NonFinite`]).
    /// Every insert, build, delete, lookup and query checks here first:
    /// a region bound over a non-finite point is NaN, so one such insert
    /// would leave every page on its path failing verification.
    pub(crate) fn check_point(&self, coords: &[f32]) -> Result<()> {
        if coords.len() != self.params.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.params.dim,
                got: coords.len(),
            });
        }
        match coords.iter().enumerate().find(|(_, c)| !c.is_finite()) {
            Some((axis, &value)) => Err(IndexError::NonFinite { axis, value }),
            None => Ok(()),
        }
    }

    /// The root's level, `height - 1` — the one place a height becomes a
    /// level.
    ///
    /// # Errors
    /// [`IndexError::Corrupt`] for a height outside `1..=65536`, which
    /// [`Tree::open_from`] refuses and no write produces.
    pub(crate) fn top_level(&self) -> Result<u16> {
        self.height
            .checked_sub(1)
            .and_then(|level| u16::try_from(level).ok())
            .ok_or_else(|| IndexError::Corrupt(format!("height {} has no root level", self.height)))
    }

    /// The root's level, or `None` when there is nothing to search: no
    /// points, or a height outside the level range.
    pub fn root_level(&self) -> Option<u16> {
        if self.is_empty() {
            return None;
        }
        self.top_level().ok()
    }

    /// Read the payload of the node at `id`, expected at `level`.
    pub(crate) fn read_payload(&self, id: PageId, level: u16) -> Result<PageBuf> {
        let kind = if level == 0 {
            PageKind::Leaf
        } else {
            PageKind::Node
        };
        Ok(self.pf.read(id, kind)?)
    }

    /// Read and decode the node at `id`, expected at `level`.
    ///
    /// # Errors
    /// [`IndexError::Corrupt`] for a page [`Node::decode`] rejects — a
    /// misplaced page among them.
    pub fn read_node(&self, id: PageId, level: u16) -> Result<Node<P::Region>> {
        Node::decode(id, level, &self.read_payload(id, level)?, &self.params)
    }

    /// Copy the node at `id`, expected at `level`, into a [`NodePage`] to
    /// patch in place. It fails on the pages [`Tree::read_node`] rejects,
    /// with the same error.
    pub(crate) fn read_page(&self, id: PageId, level: u16) -> Result<NodePage<P::Region>> {
        NodePage::parse(id, level, &self.read_payload(id, level)?, &self.params)
    }

    /// The page `node` encodes to as page `id`, without writing it.
    pub(crate) fn encode_node(
        &self,
        id: PageId,
        node: &Node<P::Region>,
    ) -> Result<NodePage<P::Region>> {
        NodePage::encode(id, node, &self.params, self.pf.capacity())
    }

    /// Write `page` back to its page.
    pub(crate) fn write_page(&mut self, page: &NodePage<P::Region>) -> Result<()> {
        self.pf.write(page.id(), page.kind(), page.payload())?;
        Ok(())
    }

    /// Encode and write `node` to page `id`; returns the page written.
    pub(crate) fn write_node(
        &mut self,
        id: PageId,
        node: &Node<P::Region>,
    ) -> Result<NodePage<P::Region>> {
        let page = self.encode_node(id, node)?;
        self.write_page(&page)?;
        Ok(page)
    }

    /// Write `node` to a freshly allocated page; returns the page written.
    pub(crate) fn allocate_node(&mut self, node: &Node<P::Region>) -> Result<NodePage<P::Region>> {
        let id = self.pf.allocate(node.kind())?;
        self.write_node(id, node)
    }

    /// Return page `id` to the free list.
    pub(crate) fn free(&mut self, id: PageId) -> Result<()> {
        self.pf.free(id)?;
        Ok(())
    }

    /// Call `f` with the entries of every leaf, left to right.
    pub fn walk_leaves(&self, mut f: impl FnMut(&[LeafEntry]) -> Result<()>) -> Result<()> {
        fn walk<P: TreePolicy>(
            t: &Tree<P>,
            id: PageId,
            level: u16,
            f: &mut dyn FnMut(&[LeafEntry]) -> Result<()>,
        ) -> Result<()> {
            match t.read_node(id, level)? {
                Node::Leaf(entries) => f(&entries),
                Node::Inner { entries, .. } => {
                    for e in &entries {
                        walk(t, e.child, level - 1, f)?;
                    }
                    Ok(())
                }
            }
        }
        walk(self, self.root, self.top_level()?, &mut f)
    }

    /// Bounding rectangles of all non-empty leaves, left to right: the
    /// leaf-level regions whose volumes and diameters Figures 5, 6 and 12
    /// measure, whatever shape the tree itself stores.
    pub fn leaf_rects(&self) -> Result<Vec<Rect>> {
        let mut out = Vec::new();
        self.walk_leaves(|entries| {
            out.extend(bounding_rect_of_points(
                entries.iter().map(|e| e.point.coords()),
            ));
            Ok(())
        })?;
        Ok(out)
    }

    /// Total number of leaf pages (used by the Figure 16 leaf-access
    /// ratio). Leaves are counted from their parents' entries, not read.
    pub fn num_leaves(&self) -> Result<u64> {
        fn walk<P: TreePolicy>(t: &Tree<P>, id: PageId, level: u16) -> Result<u64> {
            if level == 0 {
                return Ok(1);
            }
            let mut n = 0;
            if let Node::Inner { entries, .. } = t.read_node(id, level)? {
                for e in entries {
                    n += walk(t, e.child, level - 1)?;
                }
            }
            Ok(n)
        }
        walk(self, self.root, self.top_level()?)
    }

    /// The page-id path from the root to the leaf holding the exact
    /// entry `(point, data)`, or `None`. Children are probed only when
    /// their region may contain the point; regions can overlap, so
    /// several may be.
    ///
    /// The walk is zero-copy, like `expand()`: regions are probed with
    /// [`Region::contains_raw`] and leaves matched on their id and
    /// coordinate lanes, straight off the page buffers. Its header checks
    /// are [`Node::decode`]'s own, and it validates every entry it reads
    /// as `decode` would, so it finds the same path and fails on the same
    /// corrupt pages as a walk over decoded nodes.
    pub fn find_leaf(&self, point: &Point, data: u64) -> Result<Option<Vec<PageId>>> {
        fn walk<P: TreePolicy>(
            t: &Tree<P>,
            id: PageId,
            level: u16,
            point: &Point,
            data: u64,
        ) -> Result<Option<Vec<PageId>>> {
            let payload = t.read_payload(id, level)?;
            let (n, mut rest) = match Layout::parse(id, level, &payload, &t.params)? {
                Layout::Leaf(cols) => {
                    let found = leaf_holds(&cols, point, data).map_err(|e| in_page(id, e))?;
                    return Ok(found.then(|| vec![id]));
                }
                Layout::Inner { n, rest } => (n, rest),
            };
            // Probe every entry before descending into any: a region that
            // `decode` rejects fails the lookup wherever it sits.
            let hits = (0..n)
                .map(|_| {
                    let raw = rest.get_bytes(P::Region::bytes(t.params.dim))?;
                    let child = rest.get_u64()?;
                    Ok(P::Region::contains_raw(raw, point.coords())?.then_some(child))
                })
                .filter_map(Result::transpose)
                .collect::<Result<Vec<_>>>()
                .map_err(|e| in_page(id, e))?;
            for child in hits {
                if let Some(mut path) = walk(t, child, level - 1, point, data)? {
                    path.insert(0, id);
                    return Ok(Some(path));
                }
            }
            Ok(None)
        }
        if self.is_empty() {
            return Ok(None);
        }
        walk(self, self.root, self.top_level()?, point, data)
    }

    /// Whether an exact entry `(point, data)` is stored.
    ///
    /// # Errors
    /// [`IndexError::Corrupt`] for a page on the lookup's path that
    /// [`Tree::read_node`] rejects.
    pub fn contains(&self, point: &Point, data: u64) -> Result<bool> {
        self.check_point(point.coords())?;
        Ok(self.find_leaf(point, data)?.is_some())
    }

    /// Answer one query in the spec's order, scoring regions with
    /// `bound` — the single search entry point behind
    /// [`SpatialIndex::query`] (and so its `knn` and `range`). Results
    /// are sorted by ascending distance (ties by payload).
    pub(crate) fn search<Rec: Recorder + ?Sized>(
        &self,
        spec: &QuerySpec<'_>,
        bound: <P::Region as Region>::Bound,
        rec: &Rec,
    ) -> Result<QueryOutput> {
        self.check_point(spec.point)?;
        let rows = sr_query::search(&Source { tree: self, bound }, spec, rec)?;
        Ok(QueryOutput::from_rows(rows))
    }
}

impl<P: Incremental> Tree<P> {
    /// Create a new tree in an in-memory page file (tests, benchmarks).
    pub fn create_in_memory(dim: usize, page_size: usize) -> Result<Self> {
        Self::create_from(
            PageFile::create_in_memory(page_size)?,
            dim,
            DEFAULT_DATA_AREA,
        )
    }

    /// Create a new tree in a page file at `path` with the default 8 KiB
    /// pages and the paper's 512-byte per-entry data area.
    pub fn create(path: &Path, dim: usize) -> Result<Self> {
        Self::create_from(PageFile::create(path)?, dim, DEFAULT_DATA_AREA)
    }

    /// Create a new tree over an empty [`PageFile`], with an explicit
    /// per-leaf-entry data area (≥ 8 bytes) and the default policy
    /// options.
    ///
    /// # Errors
    /// [`IndexError::InvalidParams`] if the page is too small for the
    /// dimensionality and data area.
    pub fn create_from(pf: PageFile, dim: usize, data_area: usize) -> Result<Self> {
        Self::create_with(pf, dim, data_area, Default::default())
    }

    /// Insert a point with a `u64` payload (typically a row id).
    pub fn insert(&mut self, point: Point, data: u64) -> Result<()> {
        P::insert(self, point, data)
    }

    /// Delete the entry matching `point` (exact coordinates) and `data`.
    /// Returns `true` if an entry was removed.
    pub fn delete(&mut self, point: &Point, data: u64) -> Result<bool> {
        P::delete(self, point, data)
    }
}

/// Whether the leaf holds the entry `(point, data)`, matched on its data
/// id and coordinate lanes. Like [`Node::decode`], it rejects a leaf with
/// any non-finite coordinate, whether or not that entry matches.
fn leaf_holds(cols: &LeafColumns<'_>, point: &[f32], data: u64) -> Result<bool> {
    let (lanes, _) = cols.coords().as_chunks::<8>();
    if !lanes.iter().all(|lane| narrow_lane(lane).is_finite()) {
        return Err(non_finite_leaf());
    }
    // Coordinate `d` of entry `i` is lane `d * n + i` (dimension-major).
    let n = cols.len();
    Ok(cols.data_ids().enumerate().any(|(i, id)| {
        id == data
            && point
                .iter()
                .enumerate()
                .all(|(d, &x)| lanes.get(d * n + i).map(narrow_lane) == Some(x))
    }))
}

/// Turn an API-level point into a [`Point`], refusing the empty slice
/// (which no tree can hold) as a dimension mismatch.
fn to_point(dim: usize, point: &[f32]) -> Result<Point> {
    Point::try_new(point).map_err(|_| IndexError::DimensionMismatch {
        expected: dim,
        got: point.len(),
    })
}

impl<P: TreePolicy> SpatialIndex for Tree<P> {
    fn kind_name(&self) -> &'static str {
        P::KIND.name
    }

    fn dim(&self) -> usize {
        self.params.dim
    }

    fn len(&self) -> u64 {
        self.count
    }

    fn height(&self) -> u32 {
        self.height
    }

    fn num_leaves(&self) -> Result<u64> {
        Tree::num_leaves(self)
    }

    fn insert(&mut self, point: &[f32], data: u64) -> Result<()> {
        P::insert(self, to_point(self.dim(), point)?, data)
    }

    fn delete(&mut self, point: &[f32], data: u64) -> Result<bool> {
        P::delete(self, &to_point(self.dim(), point)?, data)
    }

    fn query(&self, spec: &QuerySpec<'_>, rec: &dyn Recorder) -> Result<QueryOutput> {
        self.search(spec, Default::default(), rec)
    }

    fn pager(&self) -> &PageFile {
        &self.pf
    }

    fn flush(&self) -> Result<()> {
        Tree::flush(self)
    }

    fn verify(&self) -> Result<String> {
        verify::check(self).map(|report| report.to_string())
    }
}
