//! The public [`VamTree`] type — bulk-built, read-only.

use std::ops::Deref;
use std::path::Path;

use sr_geometry::{Point, Rect};
use sr_pager::{PageFile, PageId};
use sr_query::paged::{mbr, Kind, Node, Paged, PagedTree, Params, Result, DEFAULT_DATA_AREA};
use sr_query::IndexError;

use crate::build;

/// The identity this tree writes into its page file's metadata.
pub const KIND: Kind = Kind {
    magic: 0x5641_4D54, // "VAMT"
    name: "VAMSplit R-tree",
};

/// A static VAMSplit R-tree, bulk-built from a complete data set.
/// Queries (`knn`, `range`) come from [`sr_query::SpatialIndex`]; the
/// shared core's other methods (`contains`, `len`, `pager`, …) are
/// reached through `Deref`.
pub struct VamTree {
    core: Paged<Rect>,
}

impl VamTree {
    /// Bulk-build over an in-memory page file.
    pub fn build_in_memory(
        points: Vec<(Point, u64)>,
        dim: usize,
        page_size: usize,
    ) -> Result<Self> {
        Self::build_from(
            PageFile::create_in_memory(page_size)?,
            points,
            dim,
            DEFAULT_DATA_AREA,
        )
    }

    /// Bulk-build into a page file at `path` (8 KiB pages, 512-byte data
    /// areas, matching the paper).
    pub fn build_at(path: &Path, points: Vec<(Point, u64)>, dim: usize) -> Result<Self> {
        Self::build_from(PageFile::create(path)?, points, dim, DEFAULT_DATA_AREA)
    }

    /// Bulk-build over an empty [`PageFile`].
    pub fn build_from(
        pf: PageFile,
        points: Vec<(Point, u64)>,
        dim: usize,
        data_area: usize,
    ) -> Result<Self> {
        let params = Params::try_derive(pf.capacity(), dim, data_area)?;
        let mut core = Paged::new(pf, KIND, params);
        for (p, _) in &points {
            core.check_point(p.coords())?;
        }
        core.count = points.len() as u64;
        (core.root, core.height) = build::bulk_build(&mut core, points)?;
        core.save_meta()?;
        Ok(VamTree { core })
    }

    /// Reopen a tree previously built with [`VamTree::build_at`].
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_from(PageFile::open(path)?)
    }

    /// Reopen a tree from an already-open page file.
    pub fn open_from(pf: PageFile) -> Result<Self> {
        let core = Paged::open(pf, KIND)?;
        Ok(VamTree { core })
    }
}

impl Deref for VamTree {
    type Target = Paged<Rect>;

    fn deref(&self) -> &Paged<Rect> {
        &self.core
    }
}

/// The static build packs pages, so instead of a minimum fill the
/// checks are: within capacity, no empty page below the root, and exact
/// MBRs. Insertion and deletion keep the default refusals.
impl PagedTree for VamTree {
    type Region = Rect;

    fn core(&self) -> &Paged<Rect> {
        &self.core
    }

    fn check_node(&self, id: PageId, node: &Node<Rect>, stored: Option<&Rect>) -> Result<()> {
        let max = self.core.params.max_at(node.level());
        if node.len() > max {
            return Err(IndexError::Corrupt(format!(
                "page {id}: {} entries exceed capacity {max}",
                node.len()
            )));
        }
        let Some(stored) = stored else {
            return Ok(());
        };
        if node.is_empty() {
            return Err(IndexError::Corrupt(format!(
                "page {id} is an empty non-root page"
            )));
        }
        let region = mbr(&self.core.encode_node(id, node)?)?;
        if region != *stored {
            return Err(IndexError::Corrupt(format!(
                "page {id}: stored rect {stored:?} differs from the MBR {region:?}"
            )));
        }
        Ok(())
    }
}
