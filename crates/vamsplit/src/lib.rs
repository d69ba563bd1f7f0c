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
//! The build is all this crate adds to the shared paged core
//! (`sr_query::paged`): the built tree stores R\*-tree-shaped pages and
//! answers queries exactly like an R-tree (rectangle MINDIST); it
//! supports no insertion or deletion — rebuild to change the data, which
//! is the honest cost of a static structure.
//!
//! ```
//! use sr_vamsplit::VamTree;
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

#![forbid(unsafe_code)]
// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by `verify`); the
// clippy index ban applies to the audited geometry/pager hot paths.
#![allow(clippy::indexing_slicing)]

mod build;
mod tree;

/// Result alias for tree operations.
pub type Result<T> = std::result::Result<T, sr_query::IndexError>;
pub use sr_query::Neighbor;
pub use tree::{VamTree, KIND};

/// Capacity parameters of a VAMSplit R-tree — entry layout identical to
/// the R\*-tree's (rectangle + child pointer). The static build packs
/// pages fully, so the minimum-fill fields go unused.
pub type VamParams = sr_query::paged::Params<sr_geometry::Rect>;

/// Structural-invariant checker: the shared walker plus exact MBRs and
/// page capacities.
pub mod verify {
    pub use sr_query::paged::{verify as check, VerifyReport};
}
