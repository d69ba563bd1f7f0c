//! The K-D-B-tree (Robinson, SIGMOD 1981) — the disjoint-partition
//! baseline of the SR-tree paper (§2.1).
//!
//! A height-balanced disk tree built by recursively dividing the search
//! space with coordinate planes. Its defining property is **disjointness**:
//! sibling regions on the same level never overlap, so a point query
//! follows exactly one root-to-leaf path. The price is the **forced
//! split**: when a region page is divided by a plane that crosses child
//! regions, those children must be split by the same plane all the way
//! down, which can create nearly-empty pages — the K-D-B-tree "cannot
//! ensure the minimum storage utilization" (§2.1), hurting range and
//! nearest-neighbor queries.
//!
//! Following the paper's methodology (§3.1), the split planes are chosen
//! in the style of the R+-tree rather than [Robinson's] cyclic
//! dimensions, which were reported to cause excessive forced splits:
//! the dimension with the greatest spread is cut near the median.
//!
//! The shared paged core (`sr_query::paged`) supplies the page codec,
//! search and the verify walker; this crate keeps the region (a
//! half-open rectangle whose bounds may be infinite), the plane and
//! forced splits, the never-merging delete, and the disjointness checks.
//!
//! ```
//! use sr_kdbtree::KdbTree;
//! use sr_geometry::Point;
//! use sr_query::SpatialIndex;
//!
//! let mut tree = KdbTree::create_in_memory(2, 8192).unwrap();
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
mod tree;

/// Result alias for tree operations.
pub type Result<T> = std::result::Result<T, sr_query::IndexError>;
pub use sr_query::Neighbor;
pub use tree::{KdbRegion, KdbTree, KIND};

/// Capacity parameters of a K-D-B-tree: a region-page entry is the
/// region rectangle plus a child pointer, like an R\*-tree node entry.
/// The minimum-fill fields go unused — forced splits can empty pages
/// arbitrarily.
pub type KdbParams = sr_query::paged::Params<KdbRegion>;

/// Structural-invariant checker: the shared walker plus disjointness,
/// region nesting and single-path routing.
pub mod verify {
    pub use sr_query::paged::{verify as check, VerifyReport};
}
