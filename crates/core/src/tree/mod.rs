//! The one tree type, [`Tree<P>`], and the five policies it is
//! instantiated with.
//!
//! The paper tells its structures apart by region shape, choose-subtree,
//! split and reinsertion alone (§2, §4). The shared paged core
//! (`sr_query::paged`) holds everything else; this module adds the
//! scaffolding every structure needs around it — construction, reopening,
//! the `Deref` to the core and the [`PagedTree`] hook — written once,
//! generic over a [`TreePolicy`]. Each policy module names its structure
//! as an alias (`pub type SsTree = Tree<SsPolicy>`) and keeps only what
//! is its own: the region, the policy hooks, and any methods no other
//! structure has.
//!
//! Adding a structure is one policy module here and one row in the
//! registry ([`crate::TreeKind`]).

use std::ops::Deref;
use std::path::Path;

use sr_geometry::Point;
use sr_pager::{PageFile, PageId};
use sr_query::paged::{Kind, Node, Paged, PagedTree, Region, Result, DEFAULT_DATA_AREA};
use sr_query::IndexError;

pub mod kdbtree;
pub mod rstar;
pub(crate) mod sr;
pub mod sstree;
pub mod vamsplit;

#[cfg(test)]
mod tests;

/// What sets one index structure apart: the region its inner entries
/// store, the identity it writes into its metadata, its invariants, and
/// how it inserts and deletes a point.
pub trait TreePolicy: Sized + Send + Sync + 'static {
    /// The region its inner entries store (its persisted options are
    /// plain data, so a tree can be shared across threads).
    type Region: Region<Policy: Send + Sync>;

    /// The identity the structure writes into its page file's metadata.
    const KIND: Kind;

    /// The structure's own invariants for the node at page `id` (see
    /// [`PagedTree::check_node`]).
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

/// A disk-based index over points: the shared paged core under the
/// policies of `P`. Queries (`knn`, `range`) come from
/// [`sr_query::SpatialIndex`]; the core's other methods (`contains`,
/// `len`, `pager`, …) are reached through `Deref`.
pub struct Tree<P: TreePolicy> {
    pub(crate) core: Paged<P::Region>,
}

impl<P: TreePolicy> Tree<P> {
    /// Reopen a tree previously created or built at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_from(PageFile::open(path)?)
    }

    /// Reopen a tree from an already-open page file. A file holding any
    /// other structure is [`IndexError::NotThisIndex`].
    pub fn open_from(pf: PageFile) -> Result<Self> {
        let core = Paged::open(pf, P::KIND)?;
        Ok(Tree { core })
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
        let core = Paged::create(pf, P::KIND, dim, data_area, Default::default())?;
        Ok(Tree { core })
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

impl<P: TreePolicy> Deref for Tree<P> {
    type Target = Paged<P::Region>;

    fn deref(&self) -> &Paged<P::Region> {
        &self.core
    }
}

impl<P: TreePolicy> PagedTree for Tree<P> {
    type Region = P::Region;

    fn core(&self) -> &Paged<P::Region> {
        &self.core
    }

    fn check_node(
        &self,
        id: PageId,
        node: &Node<P::Region>,
        stored: Option<&P::Region>,
    ) -> Result<()> {
        P::check_node(self, id, node, stored)
    }

    fn insert_point(&mut self, point: Point, data: u64) -> Result<()> {
        P::insert(self, point, data)
    }

    fn delete_point(&mut self, point: &Point, data: u64) -> Result<bool> {
        P::delete(self, point, data)
    }
}
