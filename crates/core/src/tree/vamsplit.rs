//! The VAMSplit R-tree (White & Jain, SPIE 1996) — the *static*,
//! optimized baseline of the SR-tree paper (§2.4).
//!
//! Unlike the dynamic trees, the VAMSplit R-tree is bulk-built top-down
//! with full knowledge of the data set, in the style of the optimized
//! k-d tree: the point set is recursively divided by a plane on the
//! dimension with the highest **variance**, at a split point near the
//! median rounded to a multiple of the subtree capacity — the refinement
//! that "guarantees the minimum number of disk blocks to be used" (§2.4).
//! The paper finds it outperforms every dynamic structure on uniform
//! data, while the SR-tree edges it out on the real data set.
//!
//! The build (`crate::build`) is all this structure adds to the shared
//! paged core (`sr_query::paged`): the built tree stores R\*-tree-shaped
//! pages and answers queries exactly like an R-tree (rectangle MINDIST);
//! it supports no insertion or deletion — rebuild to change the data,
//! which is the honest cost of a static structure.
//!
//! ```
//! use sr_tree::vamsplit::VamTree;
//! use sr_geometry::Point;
//! use sr_query::SpatialIndex;
//!
//! let points: Vec<(Point, u64)> = (0..100)
//!     .map(|i| (Point::new(vec![i as f32, (i * 7 % 13) as f32]), i as u64))
//!     .collect();
//! let tree = VamTree::build_in_memory(points, 2, 8192).unwrap();
//! let hits = tree.knn(&[0.0, 0.0], 3).unwrap();
//! assert_eq!(hits[0].data, 0);
//! ```

use std::path::Path;

use sr_geometry::{Point, Rect};
use sr_pager::{PageFile, PageId};
use sr_query::paged::{mbr, Kind, Node, Paged, Params, Result, DEFAULT_DATA_AREA};
use sr_query::IndexError;

use super::{Tree, TreePolicy};
use crate::build;
pub use crate::verify;

/// The VAMSplit R-tree's policies: R\*-tree-shaped pages, bulk-built and
/// read-only.
pub struct VamPolicy;

/// A static VAMSplit R-tree, bulk-built from a complete data set.
pub type VamTree = Tree<VamPolicy>;

/// The static build packs pages, so instead of a minimum fill the
/// checks are: within capacity, no empty page below the root, and exact
/// MBRs. Insertion and deletion keep the default refusals.
impl TreePolicy for VamPolicy {
    type Region = Rect;

    const KIND: Kind = Kind {
        magic: 0x5641_4D54, // "VAMT"
        name: "VAMSplit R-tree",
    };

    fn check_node(
        tree: &VamTree,
        id: PageId,
        node: &Node<Rect>,
        stored: Option<&Rect>,
    ) -> Result<()> {
        let max = tree.core.params.max_at(node.level());
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
        let region = mbr(&tree.core.encode_node(id, node)?)?;
        if region != *stored {
            return Err(IndexError::Corrupt(format!(
                "page {id}: stored rect {stored:?} differs from the MBR {region:?}"
            )));
        }
        Ok(())
    }
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
        let mut core = Paged::new(pf, VamPolicy::KIND, params);
        for (p, _) in &points {
            core.check_point(p.coords())?;
        }
        core.count = points.len() as u64;
        (core.root, core.height) = build::bulk_build(&mut core, points)?;
        core.save_meta()?;
        Ok(Tree { core })
    }
}
