//! The paged-tree core shared by all five index structures.
//!
//! The paper tells its trees apart by region shape, choose-subtree,
//! split and reinsertion policy alone (§2, §4). Everything else lives
//! here once, generic over a small [`Region`] trait:
//!
//! * the [`Params`] calculator (Table 1 fanouts);
//! * the metadata header, the [`Node`] page codec, and [`NodePage`], the
//!   write path's in-place page editor;
//! * [`Paged`], the tree core: page I/O, the zero-copy `expand()` under
//!   the one search loop, exact-match lookup, the verify walker;
//! * [`PagedTree`], the hook a tree type implements to get the
//!   [`crate::SpatialIndex`] implementation;
//! * [`Dynamic`], the R-tree-family insertion and condense-tree
//!   deletion (R\*-, SS- and SR-tree), parameterised by exactly the
//!   policies the paper varies.
//!
//! A region type supplies its entry byte size, its codec, the raw-bytes
//! bound it pushes into an [`crate::Expansion`] (rectangle, sphere or
//! their max, so prune attribution stays per shape), and point
//! containment. `Rect` (R\*-tree, VAMSplit R-tree) is implemented here;
//! the other shapes live with their trees. A tree computes the region a
//! parent records for a child from the child's page lanes
//! ([`Dynamic::region_of`], [`mbr`]), so a page patched in place and a
//! page encoded from a [`Node`] get their region the same way.

// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by the verify walker).
#![allow(clippy::indexing_slicing)]

pub mod centroid;
mod index;
mod node;
mod params;
mod region;
mod search;
mod tree;
mod update;
mod verify;

pub use index::PagedTree;
pub use node::{AnyEntry, Entry, LeafEntry, Node, NodePage, RegionRows};
pub use params::{Params, DEFAULT_DATA_AREA};
pub use region::{
    check_rect_raw, check_sphere_raw, get_rect, get_sphere, leaf_rect, mbr, put_rect, put_sphere,
    rect_contains_raw, rect_union, sphere_contains_raw, Region,
};
pub use search::Source;
pub use tree::{stored_magic, Kind, Paged};
pub use update::{take_farthest, Dynamic};
pub use verify::{verify, VerifyReport};

/// Result alias for paged-tree operations: every layer of the stack
/// fails with the one [`crate::IndexError`].
pub type Result<T> = std::result::Result<T, crate::IndexError>;
