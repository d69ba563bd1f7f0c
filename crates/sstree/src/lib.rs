//! The SS-tree (White & Jain, ICDE 1996) — the similarity-indexing
//! baseline the SR-tree improves on (paper §2.3).
//!
//! A disk-based, height-balanced tree whose regions are **bounding
//! spheres** centered on the centroid of the underlying points. What the
//! shared paged core (`sr_query::paged`) leaves to this crate:
//!
//! * **Region** — center + radius + subtree weight, `D + 1` floats
//!   against a rectangle's `2·D`, nearly doubling fanout: 55 vs the
//!   R\*-tree's 30 entries at `D = 16` with 8 KiB pages;
//! * **Region update** — the weighted centroid, radius `d_s` enclosing
//!   every child sphere;
//! * **Insertion** — the centroid policies of
//!   `sr_query::paged::centroid`: descend to the nearest centroid;
//!   force-reinsert on overflow *unless the same node already reinserted
//!   during this insertion*; split on the dimension of highest centroid
//!   variance at the position of least summed variance.
//!
//! ```
//! use sr_sstree::SsTree;
//! use sr_geometry::Point;
//! use sr_query::SpatialIndex;
//!
//! let mut tree = SsTree::create_in_memory(2, 8192).unwrap();
//! for (i, xy) in [[0.0f32, 0.0], [1.0, 1.0], [0.2, 0.1]].iter().enumerate() {
//!     tree.insert(Point::new(xy.to_vec()), i as u64).unwrap();
//! }
//! let hits = tree.knn(&[0.0, 0.0], 2).unwrap();
//! assert_eq!(hits[0].data, 0);
//! ```

#![forbid(unsafe_code)]

mod tree;

/// Result alias for tree operations.
pub type Result<T> = std::result::Result<T, sr_query::IndexError>;
pub use sr_query::Neighbor;
pub use tree::{SsRegion, SsTree, KIND};

/// Capacity parameters of an SS-tree (Table 1): a node entry is the
/// bounding sphere (`(D+1)·8` bytes) + subtree point count (4) + child
/// pointer (8).
pub type SsParams = sr_query::paged::Params<SsRegion>;

/// Structural-invariant checker: the shared walker plus exact sphere
/// recomputation, weights and the `[min, max]` fanout bounds.
pub mod verify {
    pub use sr_query::paged::{verify as check, VerifyReport};
}
