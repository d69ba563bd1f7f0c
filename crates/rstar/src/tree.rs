//! The public [`RstarTree`] type: the shared paged core plus the
//! R\*-tree's policies.

use std::ops::Deref;
use std::path::Path;

use sr_geometry::{bounding_rect_of_points, Point, Rect};
use sr_pager::{PageFile, PageId};
use sr_query::paged::{
    mbr, AnyEntry, Dynamic, Entry, Kind, Node, Paged, PagedTree, Result, DEFAULT_DATA_AREA,
};
use sr_query::IndexError;

use crate::{insert, split};

/// The identity this tree writes into its page file's metadata.
pub const KIND: Kind = Kind {
    magic: 0x5253_5452, // "RSTR"
    name: "R*-tree",
};

/// A disk-based R\*-tree over points, used by the paper as the
/// rectangle-region baseline. The shared core's methods (`knn`,
/// `range`, `contains`, `len`, `pager`, …) are reached through `Deref`.
pub struct RstarTree {
    core: Paged<Rect>,
}

impl RstarTree {
    /// Create a new tree in an in-memory page file (tests, benchmarks).
    pub fn create_in_memory(dim: usize, page_size: usize) -> Result<Self> {
        Self::create_from(
            PageFile::create_in_memory(page_size)?,
            dim,
            DEFAULT_DATA_AREA,
        )
    }

    /// Create a new tree in a page file on disk with the default 8 KiB
    /// pages and the paper's 512-byte per-entry data area.
    pub fn create(path: &Path, dim: usize) -> Result<Self> {
        Self::create_from(PageFile::create(path)?, dim, DEFAULT_DATA_AREA)
    }

    /// Create a new tree over an existing empty [`PageFile`], with an
    /// explicit per-leaf-entry data area (≥ 8 bytes).
    pub fn create_from(pf: PageFile, dim: usize, data_area: usize) -> Result<Self> {
        let core = Paged::create(pf, KIND, dim, data_area, ())?;
        Ok(RstarTree { core })
    }

    /// Reopen a tree previously created with [`RstarTree::create`].
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_from(PageFile::open(path)?)
    }

    /// Reopen a tree from an already-open page file.
    pub fn open_from(pf: PageFile) -> Result<Self> {
        let core = Paged::open(pf, KIND)?;
        Ok(RstarTree { core })
    }

    /// Insert a point with a `u64` payload (typically a row id).
    pub fn insert(&mut self, point: Point, data: u64) -> Result<()> {
        Dynamic::insert(self, point, data)
    }

    /// Delete the entry matching `point` (exact coordinates) and `data`.
    /// Returns `true` if an entry was removed.
    pub fn delete(&mut self, point: &Point, data: u64) -> Result<bool> {
        Dynamic::delete(self, point, data)
    }

    /// Bounding rectangles of all (non-empty) leaves — the "leaf-level
    /// regions" whose volumes and diameters Figures 5, 12 and 13 measure.
    pub fn leaf_regions(&self) -> Result<Vec<Rect>> {
        let mut out = Vec::new();
        self.core.walk_leaves(|entries| {
            out.extend(bounding_rect_of_points(
                entries.iter().map(|e| e.point.coords()),
            ));
            Ok(())
        })?;
        Ok(out)
    }
}

impl Deref for RstarTree {
    type Target = Paged<Rect>;

    fn deref(&self) -> &Paged<Rect> {
        &self.core
    }
}

impl PagedTree for RstarTree {
    type Region = Rect;

    fn core(&self) -> &Paged<Rect> {
        &self.core
    }

    fn check_node(&self, id: PageId, node: &Node<Rect>, stored: Option<&Rect>) -> Result<()> {
        self.check_fill_and_region(id, node, stored)
    }

    fn insert_point(&mut self, point: Point, data: u64) -> std::result::Result<(), IndexError> {
        Ok(self.insert(point, data)?)
    }

    fn delete_point(&mut self, point: &Point, data: u64) -> std::result::Result<bool, IndexError> {
        Ok(self.delete(point, data)?)
    }
}

/// Forced reinsertion runs at most once per level per insertion (the
/// R\*-tree rule); levels the tree grows into mid-insertion split.
impl Dynamic for RstarTree {
    type Budget = Vec<bool>;

    fn core_mut(&mut self) -> &mut Paged<Rect> {
        &mut self.core
    }

    fn budget(&self) -> Vec<bool> {
        vec![false; self.core.height as usize]
    }

    fn may_reinsert(&self, budget: &mut Vec<bool>, _page: PageId, level: u16) -> bool {
        match budget.get_mut(usize::from(level)) {
            Some(used) if !*used => {
                *used = true;
                true
            }
            _ => false,
        }
    }

    fn choose_subtree(&self, entries: &[Entry<Rect>], entry: &AnyEntry<Rect>, level: u16) -> usize {
        insert::choose_subtree(entries, entry, level)
    }

    fn region_of(&self, node: &Node<Rect>) -> Result<Rect> {
        mbr(node)
    }

    fn split(&self, node: Node<Rect>) -> (Node<Rect>, Node<Rect>) {
        split::split_node(&self.core.params, node)
    }

    fn take_reinsert(&self, node: &mut Node<Rect>) -> Result<Vec<AnyEntry<Rect>>> {
        insert::take_reinsert(node, &self.core.params)
    }
}
