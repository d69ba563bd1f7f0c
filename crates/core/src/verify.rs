//! Structural-invariant checker: the walker shared by every tree.
//!
//! [`check`] itself checks what holds for all five structures — every
//! inner node is non-empty, every leaf sits at level 0 below a
//! height-consistent path, every stored point lies inside the region
//! each ancestor entry records for it, and the metadata count matches
//! the points on disk — and hands each node to the tree's
//! [`TreePolicy::check_node`] for the structure's own invariants (fanout
//! bounds, exact region recomputation, K-D-B disjointness; for the
//! SR-tree, the §4.2 recomputation of every recorded sphere, rectangle
//! and weight).

use std::fmt;

use sr_pager::PageId;
use sr_query::IndexError;

use crate::paged::{Node, Region};
use crate::{Result, Tree, TreePolicy};

/// Summary of a verified tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Internal nodes visited.
    pub nodes: u64,
    /// Leaves visited.
    pub leaves: u64,
    /// Points counted.
    pub points: u64,
    /// Empty leaves (K-D-B forced-split debris, or an empty root).
    pub empty_leaves: u64,
    /// Leaves filled to capacity (the VAMSplit guarantee makes these the
    /// overwhelming majority of a bulk-built tree).
    pub full_leaves: u64,
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} leaves ({} empty, {} full), {} points",
            self.nodes, self.leaves, self.empty_leaves, self.full_leaves, self.points
        )
    }
}

/// Walk the whole tree, validating every structural invariant.
///
/// # Errors
/// [`IndexError::Corrupt`] naming the offending page and invariant;
/// [`IndexError::Pager`] when a page cannot be read at all.
pub fn check<P: TreePolicy>(tree: &Tree<P>) -> Result<VerifyReport> {
    let mut report = VerifyReport::default();
    walk(
        tree,
        tree.root,
        tree.top_level()?,
        &mut Vec::new(),
        &mut report,
    )?;
    if report.points != tree.len() {
        return Err(IndexError::Corrupt(format!(
            "metadata says {} points, tree holds {}",
            tree.len(),
            report.points
        )));
    }
    Ok(report)
}

/// Check the node at `id`; `path` holds the regions every ancestor entry
/// records for this subtree, nearest last.
fn walk<P: TreePolicy>(
    tree: &Tree<P>,
    id: PageId,
    level: u16,
    path: &mut Vec<P::Region>,
    report: &mut VerifyReport,
) -> Result<()> {
    let node = tree.read_node(id, level)?;
    P::check_node(tree, id, &node, path.last())?;
    match &node {
        Node::Leaf(entries) => {
            report.leaves += 1;
            report.points += entries.len() as u64;
            report.empty_leaves += u64::from(entries.is_empty());
            report.full_leaves += u64::from(entries.len() == tree.params.max_leaf);
            for e in entries {
                if let Some(r) = path.iter().find(|r| !r.contains_point(e.point.coords())) {
                    return Err(IndexError::Corrupt(format!(
                        "page {id}: point {:?} escapes the recorded region {r:?}",
                        e.point
                    )));
                }
            }
        }
        Node::Inner { entries, .. } => {
            report.nodes += 1;
            if entries.is_empty() {
                return Err(IndexError::Corrupt(format!(
                    "inner page {id} has no entries"
                )));
            }
            for e in entries {
                path.push(e.region.clone());
                walk(tree, e.child, level - 1, path, report)?;
                path.pop();
            }
        }
    }
    Ok(())
}
