//! The paged-tree core shared by all five index structures.
//!
//! The paper tells its trees apart by region shape, choose-subtree,
//! split and reinsertion policy alone (§2, §4). Everything else lives
//! here once, generic over a small [`Region`] trait:
//!
//! * [`TreeError`] and the [`Params`] calculator (Table 1 fanouts);
//! * the metadata header and the [`Node`] page codec;
//! * [`Paged`], the tree core: page I/O, the zero-copy `expand()` under
//!   the k-NN / range engines, exact-match lookup, the verify walker;
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
//! the other shapes live with their trees.

// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by the verify walker).
#![allow(clippy::indexing_slicing)]

pub mod centroid;
mod error;
mod index;
mod node;
mod params;
mod region;
mod search;
mod tree;
mod update;
mod verify;

pub use error::{Result, TreeError};
pub use index::PagedTree;
pub use node::{AnyEntry, Entry, LeafEntry, Node};
pub use params::{Params, DEFAULT_DATA_AREA};
pub use region::{
    get_rect, get_sphere, mbr, put_rect, put_sphere, rect_contains_raw, sphere_contains_raw, Region,
};
pub use search::Source;
pub use tree::{stored_magic, Kind, Paged};
pub use update::{take_farthest, Dynamic};
pub use verify::{verify, VerifyReport};
