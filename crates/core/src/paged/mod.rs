//! The page-level machinery under [`crate::Tree`], generic over a small
//! [`Region`] trait:
//!
//! * the [`Params`] calculator (Table 1 fanouts);
//! * the [`Node`] page codec, and [`NodePage`], the write path's
//!   in-place page editor;
//! * the zero-copy `expand()` the one search loop
//!   ([`sr_query::search`]) walks;
//! * [`Dynamic`], the R-tree-family insertion and condense-tree
//!   deletion (R\*-, SS- and SR-tree), parameterised by exactly the
//!   policies the paper varies, and `centroid`, the SS-tree policies
//!   the SR-tree reuses.
//!
//! A region type supplies its entry byte size, its codec, the raw-bytes
//! bound it pushes into an [`sr_query::Expansion`] (rectangle, sphere or
//! their max, so prune attribution stays per shape), and point
//! containment. `Rect` (R\*-tree, VAMSplit R-tree) is implemented here;
//! the other shapes live with their trees. A tree computes the region a
//! parent records for a child from the child's page lanes
//! ([`Dynamic::region_of`], `mbr`), so a page patched in place and a
//! page encoded from a [`Node`] get their region the same way.

pub(crate) mod centroid;
mod node;
mod params;
mod region;
mod search;
pub(crate) mod update;

pub(crate) use node::{in_page, non_finite_leaf, Layout};
pub use node::{AnyEntry, Entry, LeafEntry, Node, NodePage, RegionRows};
pub use params::{Params, DEFAULT_DATA_AREA};
pub use region::Region;
pub(crate) use region::{
    check_rect_raw, check_sphere_raw, get_rect, get_sphere, leaf_rect, mbr, put_rect, put_sphere,
    rect_contains_raw, rect_union, sphere_contains_raw,
};
pub(crate) use search::Source;
pub(crate) use update::take_farthest;
pub use update::Dynamic;
