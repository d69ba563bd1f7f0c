//! Opening, building, and querying any of the five on-disk index types
//! behind one `Box<dyn SpatialIndex>`. Files are self-describing (each
//! tree writes a magic into the page-file metadata), so `open` sniffs
//! the type; everything after construction goes through the trait, so
//! there are no per-tree `match` arms left on the query path.

use std::path::Path;

use sr_geometry::Point;
use sr_kdbtree::KdbTree;
use sr_pager::DEFAULT_PAGE_SIZE;
use sr_query::paged::TreeError;
use sr_query::SpatialIndex;
use sr_rstar::RstarTree;
use sr_sstree::SsTree;
use sr_tree::SrTree;
use sr_vamsplit::VamTree;

use crate::args::IndexKind;
use crate::commands::CmdError;

/// Any on-disk index, dispatched through [`SpatialIndex`].
pub struct AnyStore {
    index: Box<dyn SpatialIndex>,
}

impl AnyStore {
    /// Create an index of `kind` at `path` and load `points`.
    ///
    /// A dimensionality the page cannot hold is a usage error; every
    /// other failure is an execution failure.
    pub fn build(
        kind: IndexKind,
        path: &Path,
        dim: usize,
        points: Vec<(Point, u64)>,
    ) -> Result<AnyStore, CmdError> {
        let e = |err: TreeError| match err {
            TreeError::InvalidParams { .. } => CmdError::Usage(format!(
                "--dim {dim} is too large for {DEFAULT_PAGE_SIZE}-byte index pages: {err}"
            )),
            err => CmdError::Failure(format!("{}: {err}", path.display())),
        };
        // Construction is the one per-kind step: the VAMSplit R-tree
        // bulk-loads, the four dynamic trees insert point by point.
        let index: Box<dyn SpatialIndex> = match kind {
            IndexKind::Vam => Box::new(VamTree::build_at(path, points, dim).map_err(e)?),
            IndexKind::Sr => {
                let mut t = SrTree::create(path, dim).map_err(e)?;
                for (p, id) in points {
                    t.insert(p, id).map_err(e)?;
                }
                Box::new(t)
            }
            IndexKind::Ss => {
                let mut t = SsTree::create(path, dim).map_err(e)?;
                for (p, id) in points {
                    t.insert(p, id).map_err(e)?;
                }
                Box::new(t)
            }
            IndexKind::Rstar => {
                let mut t = RstarTree::create(path, dim).map_err(e)?;
                for (p, id) in points {
                    t.insert(p, id).map_err(e)?;
                }
                Box::new(t)
            }
            IndexKind::Kdb => {
                let mut t = KdbTree::create(path, dim).map_err(e)?;
                for (p, id) in points {
                    t.insert(p, id).map_err(e)?;
                }
                Box::new(t)
            }
        };
        index
            .flush()
            .map_err(|x| CmdError::Failure(format!("{}: {x}", path.display())))?;
        Ok(AnyStore { index })
    }

    /// Open an existing index file, detecting its type from the metadata
    /// magic.
    pub fn open(path: &Path) -> Result<AnyStore, String> {
        if let Ok(t) = SrTree::open(path) {
            return Ok(AnyStore { index: Box::new(t) });
        }
        if let Ok(t) = SsTree::open(path) {
            return Ok(AnyStore { index: Box::new(t) });
        }
        if let Ok(t) = RstarTree::open(path) {
            return Ok(AnyStore { index: Box::new(t) });
        }
        if let Ok(t) = KdbTree::open(path) {
            return Ok(AnyStore { index: Box::new(t) });
        }
        if let Ok(t) = VamTree::open(path) {
            return Ok(AnyStore { index: Box::new(t) });
        }
        Err(format!("{}: not a recognizable index file", path.display()))
    }

    /// The trait object itself, for callers (batch execution, request
    /// dispatch) that want the [`SpatialIndex`] API directly.
    pub fn index(&self) -> &dyn SpatialIndex {
        self.index.as_ref()
    }

    /// Mutable access for write-shaped requests (`sr_wire::execute`).
    pub fn index_mut(&mut self) -> &mut dyn SpatialIndex {
        self.index.as_mut()
    }

    /// Give up the store, keeping the boxed index — how `srtool serve`
    /// hands ownership to the server.
    pub fn into_index(self) -> Box<dyn SpatialIndex> {
        self.index
    }

    /// Human-readable type name.
    pub fn kind_name(&self) -> &'static str {
        self.index.kind_name()
    }

    /// (dim, len, height).
    pub fn summary(&self) -> (usize, u64, u32) {
        (self.index.dim(), self.index.len(), self.index.height())
    }

    /// The underlying page file (I/O statistics, buffer-pool control).
    pub fn pager(&self) -> &sr_pager::PageFile {
        self.index.pager()
    }

    /// Run the structure's invariant checker, returning a summary line.
    pub fn verify(&self) -> Result<String, String> {
        self.index.verify().map_err(|e| e.to_string())
    }
}
