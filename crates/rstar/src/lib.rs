//! The R\*-tree (Beckmann, Kriegel, Schneider & Seeger, SIGMOD 1990) in
//! point mode — the rectangle-region baseline of the SR-tree paper (§2.2).
//!
//! A disk-based, height-balanced tree of nested minimum bounding
//! rectangles. The shared paged core (`sr_query::paged`) supplies the
//! page codec, search, verification and the R-tree-family update
//! driver; this crate keeps the original R\*-tree policies:
//!
//! * **ChooseSubtree** — minimum overlap enlargement at the level above
//!   the leaves, minimum area enlargement elsewhere;
//! * **Forced reinsertion** — on the first overflow per level per
//!   insertion, the 30% of entries farthest from the node's center are
//!   reinserted instead of splitting ("close reinsert");
//! * **R\*-split** — axis chosen by minimum margin sum, distribution by
//!   minimum overlap, ties by minimum area;
//! * **Region update** — exact MBRs, scored by rectangle `MINDIST`.
//!
//! ```
//! use sr_rstar::RstarTree;
//! use sr_geometry::Point;
//!
//! let mut tree = RstarTree::create_in_memory(2, 8192).unwrap();
//! for (i, xy) in [[0.0f32, 0.0], [1.0, 1.0], [0.2, 0.1]].iter().enumerate() {
//!     tree.insert(Point::new(xy.to_vec()), i as u64).unwrap();
//! }
//! let hits = tree.knn(&[0.0, 0.0], 2).unwrap();
//! assert_eq!(hits[0].data, 0);
//! ```

#![forbid(unsafe_code)]
// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by `verify`); the
// clippy index ban applies to the audited geometry/pager hot paths.
#![allow(clippy::indexing_slicing)]

mod insert;
mod split;
mod tree;

pub use sr_query::paged::TreeError;

/// Result alias for tree operations.
pub type Result<T> = std::result::Result<T, TreeError>;
pub use sr_query::Neighbor;
pub use tree::{RstarTree, KIND};

/// Capacity parameters of an R\*-tree (Table 1): a node entry is a
/// bounding rectangle (`2·D·8` bytes) plus a child pointer.
pub type RstarParams = sr_query::paged::Params<sr_geometry::Rect>;

/// Structural-invariant checker: the shared walker plus exact MBRs and
/// the `[min, max]` fanout bounds.
pub mod verify {
    pub use sr_query::paged::{verify as check, VerifyReport};
}
