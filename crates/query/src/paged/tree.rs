//! [`Paged`], the tree core: metadata header, page helpers, leaf walks
//! and the query entry points every tree shares.

use sr_geometry::Point;
use sr_obs::Recorder;
use sr_pager::{
    narrow_lane, LeafColumns, PageBuf, PageCodec, PageFile, PageId, PageKind, PageReader,
};

use super::node::{in_page, non_finite_leaf, Layout, LeafEntry, Node};
use super::params::Params;
use super::region::Region;
use super::search::Source;
use super::Result;
use crate::{IndexError, QueryOutput, QuerySpec};

/// Metadata layout version. Version 2: leaves are columnar
/// (dimension-major). Version-1 files are rejected with
/// [`IndexError::NotThisIndex`] rather than silently misread — the byte
/// totals match, but the entry layout moved.
const META_VERSION: u32 = 2;

/// Bytes of the metadata header: magic, version, dim, data area (u32
/// each), root (u64), height (u32), count (u64); trees with policy flags
/// append one more u32.
const META_BYTES: usize = 36;

/// The identity a tree writes into its page file's metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kind {
    /// Metadata magic (e.g. `"SRTB"` as a big-endian u32).
    pub magic: u32,
    /// Human-readable structure name (e.g. `"SR-tree"`), also the
    /// [`crate::SpatialIndex::kind_name`].
    pub name: &'static str,
}

/// The magic of the tree whose metadata `pf` holds, or `None` when the
/// page file carries no tree metadata. Lets a caller pick the tree type
/// to open from the file itself.
pub fn stored_magic(pf: &PageFile) -> Option<u32> {
    // The header's first field, written by `save_meta` as a
    // little-endian u32.
    pf.user_meta().first_chunk().map(|b| u32::from_le_bytes(*b))
}

/// The disk-resident state every paged tree shares: the page file, the
/// capacity parameters, and the root/height/count metadata.
pub struct Paged<R: Region> {
    pf: PageFile,
    kind: Kind,
    /// Capacity parameters in force (Table 1).
    pub params: Params<R>,
    /// Root page.
    pub root: PageId,
    /// Number of levels; 1 means the root is a leaf. The root's level
    /// number is `height - 1` (leaves are level 0).
    pub height: u32,
    /// Number of stored points.
    pub count: u64,
}

impl<R: Region> Paged<R> {
    /// A core over `pf` with no pages allocated yet (root 0, height 1) —
    /// the starting point of the bulk builders, which allocate their own
    /// root. Nothing is written.
    pub fn new(pf: PageFile, kind: Kind, params: Params<R>) -> Self {
        Paged {
            pf,
            kind,
            params,
            root: 0,
            height: 1,
            count: 0,
        }
    }

    /// Create an empty tree (one empty root leaf) over an empty page
    /// file.
    ///
    /// # Errors
    /// [`IndexError::InvalidParams`] if the page is too small for the
    /// dimensionality and data area.
    pub fn create(
        pf: PageFile,
        kind: Kind,
        dim: usize,
        data_area: usize,
        policy: R::Policy,
    ) -> Result<Self> {
        let mut params = Params::try_derive(pf.capacity(), dim, data_area)?;
        params.policy = policy;
        let mut core = Paged::new(pf, kind, params);
        core.root = core.allocate_node(&Node::Leaf(Vec::new()))?;
        core.save_meta()?;
        Ok(core)
    }

    /// Reopen a tree from a page file, checking the metadata's magic and
    /// version.
    pub fn open(pf: PageFile, kind: Kind) -> Result<Self> {
        let meta = pf.user_meta();
        let flagged = R::policy_flags(&R::Policy::default()).is_some();
        if meta.len() < META_BYTES + if flagged { 4 } else { 0 } {
            return Err(IndexError::NotThisIndex("metadata too short".into()));
        }
        let mut c = PageReader::new(&meta);
        if c.get_u32()? != kind.magic {
            return Err(IndexError::NotThisIndex(format!(
                "not a {} file",
                kind.name
            )));
        }
        if c.get_u32()? != META_VERSION {
            return Err(IndexError::NotThisIndex(format!(
                "unsupported {} version",
                kind.name
            )));
        }
        let dim = c.get_u32()? as usize;
        let data_area = c.get_u32()? as usize;
        let root = c.get_u64()?;
        let height = c.get_u32()?;
        let count = c.get_u64()?;
        let mut params = Params::try_derive(pf.capacity(), dim, data_area)
            .map_err(|e| IndexError::NotThisIndex(format!("stored parameters: {e}")))?;
        if flagged {
            params.policy = R::policy_from_flags(c.get_u32()?);
        }
        Ok(Paged {
            pf,
            kind,
            params,
            root,
            height,
            count,
        })
    }

    /// Write the metadata header (committed with the next flush).
    pub fn save_meta(&mut self) -> Result<()> {
        let flags = R::policy_flags(&self.params.policy);
        let mut buf = vec![0u8; META_BYTES + if flags.is_some() { 4 } else { 0 }];
        let mut c = PageCodec::new(&mut buf);
        c.put_u32(self.kind.magic)?;
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

    /// The structure's identity.
    pub fn kind(&self) -> Kind {
        self.kind
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
    pub fn params(&self) -> &Params<R> {
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
    pub fn check_point(&self, coords: &[f32]) -> Result<()> {
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

    /// The root's level, or `None` when there is nothing to search: no
    /// points, or a height of 0 (only reachable from corrupt metadata,
    /// and `height - 1` would underflow on it).
    pub fn root_level(&self) -> Option<u16> {
        if self.is_empty() || self.height == 0 {
            return None;
        }
        Some((self.height - 1) as u16)
    }

    /// Read the payload of the node at `id`, expected at `level`.
    pub(super) fn read_payload(&self, id: PageId, level: u16) -> Result<PageBuf> {
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
    pub fn read_node(&self, id: PageId, level: u16) -> Result<Node<R>> {
        Node::decode(id, level, &self.read_payload(id, level)?, &self.params)
    }

    /// Encode and write `node` to page `id`.
    pub fn write_node(&mut self, id: PageId, node: &Node<R>) -> Result<()> {
        let payload = node.encode(&self.params, self.pf.capacity())?;
        self.pf.write(id, node.kind(), &payload)?;
        Ok(())
    }

    /// Write `node` to a freshly allocated page.
    pub fn allocate_node(&mut self, node: &Node<R>) -> Result<PageId> {
        let id = self.pf.allocate(node.kind())?;
        self.write_node(id, node)?;
        Ok(id)
    }

    /// Return page `id` to the free list.
    pub fn free(&mut self, id: PageId) -> Result<()> {
        self.pf.free(id)?;
        Ok(())
    }

    /// Call `f` with the entries of every leaf, left to right.
    pub fn walk_leaves(&self, mut f: impl FnMut(&[LeafEntry]) -> Result<()>) -> Result<()> {
        fn walk<R: Region>(
            t: &Paged<R>,
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
        walk(
            self,
            self.root,
            self.height.saturating_sub(1) as u16,
            &mut f,
        )
    }

    /// Total number of leaf pages (used by the Figure 16 leaf-access
    /// ratio). Leaves are counted from their parents' entries, not read.
    pub fn num_leaves(&self) -> Result<u64> {
        fn walk<R: Region>(t: &Paged<R>, id: PageId, level: u16) -> Result<u64> {
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
        walk(self, self.root, self.height.saturating_sub(1) as u16)
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
        fn walk<R: Region>(
            t: &Paged<R>,
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
                    let raw = rest.get_bytes(R::bytes(t.params.dim))?;
                    let child = rest.get_u64()?;
                    Ok(R::contains_raw(raw, point.coords())?.then_some(child))
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
        match self.root_level() {
            Some(level) => walk(self, self.root, level, point, data),
            None => Ok(None),
        }
    }

    /// Whether an exact entry `(point, data)` is stored.
    ///
    /// # Errors
    /// [`IndexError::Corrupt`] for a page on the lookup's path that
    /// [`Paged::read_node`] rejects.
    pub fn contains(&self, point: &Point, data: u64) -> Result<bool> {
        self.check_point(point.coords())?;
        Ok(self.find_leaf(point, data)?.is_some())
    }

    /// The view [`crate::search`] walks, scoring regions with `bound`.
    pub fn source(&self, bound: R::Bound) -> Source<'_, R> {
        Source { tree: self, bound }
    }

    /// Answer one query in the spec's order — the single search entry
    /// point behind [`crate::SpatialIndex::query`] (and so its `knn` and
    /// `range`). Results are sorted by ascending distance (ties by
    /// payload).
    pub fn search<Rec: Recorder + ?Sized>(
        &self,
        spec: &QuerySpec<'_>,
        bound: R::Bound,
        rec: &Rec,
    ) -> Result<QueryOutput> {
        self.check_point(spec.point)?;
        let rows = crate::search(&self.source(bound), spec, rec)?;
        Ok(QueryOutput::from_rows(rows))
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
