//! The SR-tree — *"The SR-tree: An Index Structure for High-Dimensional
//! Nearest Neighbor Queries"*, Norio Katayama & Shin'ichi Satoh,
//! SIGMOD 1997.
//!
//! The SR-tree (Sphere/Rectangle-tree) is a disk-based index whose node
//! regions are the **intersection of a bounding sphere and a bounding
//! rectangle**. The paper's §3 measurement shows the two shapes are
//! complementary in high dimension:
//!
//! * bounding rectangles have small *volume* but long *diameters* (a unit
//!   cube's diagonal is `√D`);
//! * bounding spheres have short diameters but huge volumes (the unit
//!   ball's volume collapses relative to its circumscribed cube).
//!
//! Intersecting them yields regions with both small volume and short
//! diameter, improving region disjointness and therefore nearest-neighbor
//! pruning.
//!
//! The crate holds all five structures the paper compares, as policies
//! of one generic [`Tree<P>`]: the SR-tree ([`SrTree`]) and the four
//! baselines in [`sstree`], [`rstar`], [`kdbtree`] and [`vamsplit`].
//! [`Tree<P>`] holds everything they have in common — page file and
//! metadata, page I/O, the search's `expand()`, exact-match lookup, the
//! [`verify`] walker and the one `SpatialIndex` implementation — over
//! the page codec and update driver of [`paged`]. A structure is a
//! [`TreePolicy`]: its region shape, its identity and invariants, and
//! how it inserts and deletes; the R-tree family does the last through
//! [`paged::Dynamic`] (choose-subtree, split, reinsertion, region
//! update), and [`Incremental`] marks the structures that grow point by
//! point. [`TreeKind`] is the one registry that names them. What §4
//! says is the SR-tree's own:
//!
//! * **Region** — sphere + rectangle + subtree point count per entry,
//!   three times the SS-tree entry, giving ⅓ of its fanout (the "fanout
//!   problem" of §5.3 that the leaf-read savings more than repay);
//! * **Region update** — the parent sphere is centered on the weighted
//!   centroid with radius `min(d_s, d_r)`, where `d_s` encloses the
//!   child spheres and `d_r = max MAXDIST(center, child rect)` encloses
//!   the child rectangles (§4.2);
//! * **Search bound** — `max(d_sphere, d_rect)`, a tighter lower bound
//!   than either baseline uses (§4.4);
//! * **Insertion** — the SS-tree's centroid algorithm, unchanged
//!   (`paged::centroid`);
//! * **Bulk build** — an extension: balanced variance splits, packed
//!   pages, every dynamic invariant kept.
//!
//! ```
//! use sr_tree::SrTree;
//! use sr_geometry::Point;
//! use sr_query::SpatialIndex;
//!
//! let mut tree = SrTree::create_in_memory(2, 8192).unwrap();
//! for (i, xy) in [[0.0f32, 0.0], [1.0, 1.0], [0.2, 0.1]].iter().enumerate() {
//!     tree.insert(Point::new(xy.to_vec()), i as u64).unwrap();
//! }
//! let hits = tree.knn(&[0.0, 0.0], 2).unwrap();
//! assert_eq!(hits[0].data, 0);
//! ```

#![forbid(unsafe_code)]

mod build;
mod bulk;
mod insert;
mod kinds;
pub mod paged;
mod region;
mod split;
mod tree;
pub mod verify;

pub use kinds::TreeKind;
pub use region::{DistanceBound, RadiusRule, SrOptions, SrRegion};
/// Result alias for tree operations: every layer of the stack fails with
/// the one [`sr_query::IndexError`].
pub type Result<T> = std::result::Result<T, sr_query::IndexError>;
pub use sr_query::Neighbor;
pub use tree::sr::{SrPolicy, SrTree};
pub use tree::{kdbtree, rstar, sstree, vamsplit, Incremental, Kind, Tree, TreePolicy};

/// Capacity parameters of an SR-tree (Table 1). A node entry stores
/// both region shapes: bounding sphere (`(D+1)·8` bytes) + bounding
/// rectangle (`2·D·8`) + subtree point count (4) + child pointer (8) —
/// 404 bytes at `D = 16`, so 20 entries per 8 KiB node. Leaves match the
/// other structures (12 entries).
pub type SrParams = paged::Params<SrRegion>;
