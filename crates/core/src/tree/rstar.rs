//! The R\*-tree (Beckmann, Kriegel, Schneider & Seeger, SIGMOD 1990) in
//! point mode — the rectangle-region baseline of the SR-tree paper (§2.2).
//!
//! A disk-based, height-balanced tree of nested minimum bounding
//! rectangles. The shared [`Tree`] and [`crate::paged`] supply the page
//! codec, search, verification and the R-tree-family update driver; this
//! module keeps the original R\*-tree policies:
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
//! use sr_tree::rstar::RstarTree;
//! use sr_geometry::Point;
//! use sr_query::SpatialIndex;
//!
//! let mut tree = RstarTree::create_in_memory(2, 8192).unwrap();
//! for (i, xy) in [[0.0f32, 0.0], [1.0, 1.0], [0.2, 0.1]].iter().enumerate() {
//!     tree.insert(Point::new(xy.to_vec()), i as u64).unwrap();
//! }
//! let hits = tree.knn(&[0.0, 0.0], 2).unwrap();
//! assert_eq!(hits[0].data, 0);
//! ```

use sr_geometry::{Point, Rect};
use sr_pager::PageId;

use super::{Incremental, Kind, Tree, TreePolicy};
use crate::paged::{mbr, update, AnyEntry, Dynamic, Entry, Node, NodePage};
pub use crate::verify;
use crate::{insert, split, Result};

/// The R\*-tree's policies: exact bounding rectangles, R\* ChooseSubtree,
/// close reinsert and the R\*-split.
pub struct RstarPolicy;

/// A disk-based R\*-tree over points, used by the paper as the
/// rectangle-region baseline.
pub type RstarTree = Tree<RstarPolicy>;

impl TreePolicy for RstarPolicy {
    type Region = Rect;

    const KIND: Kind = Kind {
        magic: 0x5253_5452, // "RSTR"
        name: "R*-tree",
    };

    /// Exact MBRs and the `[min, max]` fanout bounds.
    fn check_node(
        tree: &RstarTree,
        id: PageId,
        node: &Node<Rect>,
        stored: Option<&Rect>,
    ) -> Result<()> {
        update::check_fill_and_region(tree, id, node, stored)
    }

    fn insert(tree: &mut RstarTree, point: Point, data: u64) -> Result<()> {
        update::insert(tree, point, data)
    }

    fn delete(tree: &mut RstarTree, point: &Point, data: u64) -> Result<bool> {
        update::delete(tree, point, data)
    }
}

impl Incremental for RstarPolicy {}

/// Forced reinsertion runs at most once per level per insertion (the
/// R\*-tree rule); levels the tree grows into mid-insertion split.
impl Dynamic for RstarPolicy {
    type Budget = Vec<bool>;

    fn budget(tree: &RstarTree) -> Vec<bool> {
        vec![false; tree.height as usize]
    }

    fn may_reinsert(_tree: &RstarTree, budget: &mut Vec<bool>, _page: PageId, level: u16) -> bool {
        match budget.get_mut(usize::from(level)) {
            Some(used) if !*used => {
                *used = true;
                true
            }
            _ => false,
        }
    }

    fn choose_subtree(entries: &[Entry<Rect>], entry: &AnyEntry<Rect>, level: u16) -> usize {
        insert::choose_subtree(entries, entry, level)
    }

    fn region_of(_tree: &RstarTree, page: &NodePage<Rect>) -> Result<Rect> {
        mbr(page)
    }

    fn split(tree: &RstarTree, node: Node<Rect>) -> (Node<Rect>, Node<Rect>) {
        split::split_node(&tree.params, node)
    }

    fn take_reinsert(tree: &RstarTree, node: &mut Node<Rect>) -> Result<Vec<AnyEntry<Rect>>> {
        insert::take_reinsert(node, &tree.params)
    }
}
