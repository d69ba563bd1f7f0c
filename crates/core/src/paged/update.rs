//! Dynamic updates for the R-tree family (R\*-, SS- and SR-tree).
//!
//! Insertion is ChooseSubtree down to the target level, then
//! OverflowTreatment upward: forced reinsertion where the tree's budget
//! allows it, otherwise a split whose second half joins the parent.
//! Deletion is the R-tree condense-tree algorithm the paper uses for all
//! three structures (§4.3): underflowing nodes are dissolved, their
//! pages freed, and their points reinserted. The trees differ only in
//! the [`Dynamic`] hooks; [`insert`], [`delete`] and
//! [`check_fill_and_region`] are their `TreePolicy` methods.
//!
//! The common writes patch pages in place through [`NodePage`]: a delete
//! that leaves its leaf at least minimally full, an insert whose node has
//! room, and every ancestor's region refresh. Only the edits that
//! rearrange entries — split, reinsertion and condense — decode a
//! [`Node`]. Either way a region is computed from the page bytes written.

// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by `verify`); the
// clippy index ban applies to the audited geometry/pager hot paths.
#![allow(clippy::indexing_slicing)]

use sr_geometry::Point;
use sr_pager::PageId;
use sr_query::IndexError;

use super::node::{AnyEntry, Entry, LeafEntry, Node, NodePage};
use super::params::Params;
use super::region::Region;
use crate::{Incremental, Result, Tree};

/// The policies by which the dynamic trees differ (§2, §4 of the paper).
pub trait Dynamic: Incremental {
    /// What forced reinsertion has already been spent on during one
    /// insertion: levels for the R\*-tree, nodes for the SS/SR-trees.
    type Budget;

    /// A fresh budget for one top-level insertion.
    fn budget(tree: &Tree<Self>) -> Self::Budget;

    /// Whether the overflowing node at `page`/`level` reinserts instead
    /// of splitting; a `true` answer spends the budget.
    fn may_reinsert(tree: &Tree<Self>, budget: &mut Self::Budget, page: PageId, level: u16)
        -> bool;

    /// ChooseSubtree: the index of the entry of a node at `level` to
    /// descend into for `entry`.
    fn choose_subtree(
        entries: &[Entry<Self::Region>],
        entry: &AnyEntry<Self::Region>,
        level: u16,
    ) -> usize;

    /// Region update: the region a parent records for the node whose
    /// page is `page`, computed from its lanes.
    fn region_of(tree: &Tree<Self>, page: &NodePage<Self::Region>) -> Result<Self::Region>;

    /// Split an overflowing node into two, each at least minimally full.
    fn split(
        tree: &Tree<Self>,
        node: Node<Self::Region>,
    ) -> (Node<Self::Region>, Node<Self::Region>);

    /// Forced reinsertion: remove the entries to reinsert from `node`,
    /// farthest first (they are reinserted closest first).
    fn take_reinsert(
        tree: &Tree<Self>,
        node: &mut Node<Self::Region>,
    ) -> Result<Vec<AnyEntry<Self::Region>>>;
}

/// Insert one point.
pub(crate) fn insert<P: Dynamic>(t: &mut Tree<P>, point: Point, data: u64) -> Result<()> {
    t.check_point(point.coords())?;
    let mut budget = P::budget(t);
    insert_at(t, AnyEntry::Leaf(LeafEntry { point, data }), 0, &mut budget)?;
    t.count += 1;
    t.save_meta()
}

/// Delete the exact entry `(point, data)`; returns whether it existed.
pub(crate) fn delete<P: Dynamic>(t: &mut Tree<P>, point: &Point, data: u64) -> Result<bool> {
    t.check_point(point.coords())?;
    let Some(path) = t.find_leaf(point, data)? else {
        return Ok(false);
    };
    let idx = path.len() - 1;
    let mut leaf = t.read_page(path[idx], 0)?;
    let pos = leaf
        .position(point.coords(), data)
        .ok_or_else(|| IndexError::Corrupt("find_leaf returned a leaf without the entry".into()))?;
    leaf.remove_point(pos)?;
    let orphans = if idx == 0 || leaf.len() >= t.params.min_leaf {
        t.write_page(&leaf)?;
        propagate(t, &path, idx, &leaf)?;
        Vec::new()
    } else {
        let node = leaf.decode(&t.params)?;
        condense(t, &path, node)?
    };
    // Reinsert orphaned points; each gets its own reinsertion budget.
    for e in orphans {
        let mut budget = P::budget(t);
        insert_at(t, AnyEntry::Leaf(e), 0, &mut budget)?;
    }
    t.count -= 1;
    t.save_meta()?;
    Ok(true)
}

/// The node invariants of the R-tree family, for `TreePolicy::check_node`:
/// fanout within `[min, max]` below the root, an inner root with at
/// least 2 entries, and the recorded region equal to the deterministic
/// recomputation.
pub(crate) fn check_fill_and_region<P: Dynamic>(
    t: &Tree<P>,
    id: PageId,
    node: &Node<P::Region>,
    stored: Option<&P::Region>,
) -> Result<()> {
    let (min, max) = (t.params.min_at(node.level()), t.params.max_at(node.level()));
    let Some(stored) = stored else {
        if !node.is_leaf() && node.len() < 2 {
            return Err(IndexError::Corrupt(format!(
                "inner root {id} has {} < 2 entries",
                node.len()
            )));
        }
        return Ok(());
    };
    if node.len() < min || node.len() > max {
        return Err(IndexError::Corrupt(format!(
            "page {id} (level {}): {} entries outside [{min}, {max}]",
            node.level(),
            node.len()
        )));
    }
    let region = P::region_of(t, &t.encode_node(id, node)?)?;
    if region != *stored {
        return Err(IndexError::Corrupt(format!(
            "page {id}: recorded region {stored:?} differs from the recomputed {region:?}"
        )));
    }
    Ok(())
}

/// Insert `entry` at `target_level`, resolving overflow by forced
/// reinsertion (where the budget allows) or split, and propagating
/// splits toward the root.
fn insert_at<P: Dynamic>(
    t: &mut Tree<P>,
    entry: AnyEntry<P::Region>,
    target_level: u16,
    budget: &mut P::Budget,
) -> Result<()> {
    let path = choose_path(t, &entry, target_level)?;
    let mut idx = path.len() - 1;
    let mut page = t.read_page(path[idx], target_level)?;
    if page.len() < t.params.max_at(target_level) {
        page.push(&entry)?;
        t.write_page(&page)?;
        return propagate(t, &path, idx, &page);
    }
    let mut node = page.decode(&t.params)?;
    match (entry, &mut node) {
        (AnyEntry::Leaf(e), Node::Leaf(entries)) => entries.push(e),
        (AnyEntry::Inner(e), Node::Inner { entries, .. }) => entries.push(e),
        _ => {
            return Err(IndexError::Corrupt(
                "insertion target level does not match the node kind on disk".into(),
            ))
        }
    }
    loop {
        let level = node.level();
        if node.len() <= t.params.max_at(level) {
            let page = t.write_node(path[idx], &node)?;
            return propagate(t, &path, idx, &page);
        }
        if idx == 0 {
            return split_root(t, node);
        }
        if P::may_reinsert(t, budget, path[idx], level) {
            let removed = P::take_reinsert(t, &mut node)?;
            let page = t.write_node(path[idx], &node)?;
            propagate(t, &path, idx, &page)?;
            for e in removed.into_iter().rev() {
                insert_at(t, e, level, budget)?;
            }
            return Ok(());
        }
        let (a, b) = P::split(t, node);
        let b = t.allocate_node(&b)?;
        let a = t.write_node(path[idx], &a)?;
        let (a_region, b_region) = (P::region_of(t, &a)?, P::region_of(t, &b)?);
        idx -= 1;
        let mut parent = t.read_node(path[idx], level + 1)?;
        let Node::Inner { entries, .. } = &mut parent else {
            return Err(IndexError::Corrupt(
                "parent of a split node is not an inner node".into(),
            ));
        };
        let slot = entries
            .iter_mut()
            .find(|e| e.child == path[idx + 1])
            .ok_or_else(|| IndexError::Corrupt("parent lost track of its child".into()))?;
        slot.region = a_region;
        entries.push(Entry {
            region: b_region,
            child: b.id(),
        });
        node = parent;
    }
}

/// The condense-tree rule for `node`, the underflowing leaf at the end
/// of `path`, not yet written: dissolve each underflowing node up the
/// path, freeing its pages, write the first ancestor that stays full
/// enough, refresh the regions above it, and shrink the root. Returns
/// the dissolved nodes' points, for reinsertion.
fn condense<P: Dynamic>(
    t: &mut Tree<P>,
    path: &[PageId],
    mut node: Node<P::Region>,
) -> Result<Vec<LeafEntry>> {
    let mut orphans = Vec::new();
    let mut idx = path.len() - 1;
    loop {
        if idx == 0 {
            t.write_node(path[0], &node)?;
            break;
        }
        if node.len() >= t.params.min_at(node.level()) {
            let page = t.write_node(path[idx], &node)?;
            propagate(t, path, idx, &page)?;
            break;
        }
        // Dissolve this node: free its pages and collect its points.
        collect_points(t, &node, &mut orphans)?;
        t.free(path[idx])?;
        idx -= 1;
        let mut parent = t.read_node(path[idx], node.level() + 1)?;
        if let Node::Inner { entries, .. } = &mut parent {
            let pos = entries
                .iter()
                .position(|e| e.child == path[idx + 1])
                .ok_or_else(|| IndexError::Corrupt("parent lost track of its child".into()))?;
            entries.remove(pos);
        }
        node = parent;
    }
    shrink_root(t)?;
    Ok(orphans)
}

/// Descend from the root to `target_level` with the tree's
/// ChooseSubtree; returns the page-id path, root first.
fn choose_path<P: Dynamic>(
    t: &Tree<P>,
    entry: &AnyEntry<P::Region>,
    target_level: u16,
) -> Result<Vec<PageId>> {
    let mut path = vec![t.root];
    let mut level = t.top_level()?;
    let mut id = t.root;
    while level > target_level {
        let node = t.read_node(id, level)?;
        let Node::Inner { entries, .. } = &node else {
            return Err(IndexError::Corrupt(
                "leaf found above the target level while descending".into(),
            ));
        };
        id = entries
            .get(P::choose_subtree(entries, entry, level))
            .ok_or_else(|| IndexError::Corrupt("ChooseSubtree left the node".into()))?
            .child;
        path.push(id);
        level -= 1;
    }
    Ok(path)
}

/// After writing `page` at `path[idx]`, refresh the region recorded for
/// it in every ancestor, patching each ancestor's slot in place and
/// stopping as soon as one already holds the region (compared as
/// `Region`s, so `-0.0` equals `0.0`).
fn propagate<P: Dynamic>(
    t: &mut Tree<P>,
    path: &[PageId],
    idx: usize,
    page: &NodePage<P::Region>,
) -> Result<()> {
    if idx == 0 {
        return Ok(());
    }
    let mut child_region = P::region_of(t, page)?;
    let mut child_id = path[idx];
    let top = t.top_level()?;
    for j in (0..idx).rev() {
        // `path[j]` sits `j` levels below the root.
        let mut parent = t.read_page(path[j], top - j as u16)?;
        let slot = parent.slot_of(child_id)?;
        if parent.region(slot)? == child_region {
            return Ok(()); // nothing changed; ancestors are exact
        }
        parent.set_region(slot, &child_region)?;
        t.write_page(&parent)?;
        if j > 0 {
            child_region = P::region_of(t, &parent)?;
        }
        child_id = path[j];
    }
    Ok(())
}

/// Split an overflowing root, growing the tree by one level.
fn split_root<P: Dynamic>(t: &mut Tree<P>, node: Node<P::Region>) -> Result<()> {
    let level = node.level();
    let (a, b) = P::split(t, node);
    let a = t.allocate_node(&a)?;
    let b = t.allocate_node(&b)?;
    let entries = vec![
        Entry {
            region: P::region_of(t, &a)?,
            child: a.id(),
        },
        Entry {
            region: P::region_of(t, &b)?,
            child: b.id(),
        },
    ];
    t.free(t.root)?;
    t.root = t
        .allocate_node(&Node::Inner {
            level: level + 1,
            entries,
        })?
        .id();
    t.height += 1;
    t.save_meta()
}

/// Free every page of `node`'s subtree (the node's own page is freed by
/// the caller) and collect the points it held.
fn collect_points<P: Dynamic>(
    t: &mut Tree<P>,
    node: &Node<P::Region>,
    out: &mut Vec<LeafEntry>,
) -> Result<()> {
    match node {
        Node::Leaf(entries) => out.extend(entries.iter().cloned()),
        Node::Inner { level, entries } => {
            for e in entries {
                let child = t.read_node(e.child, level - 1)?;
                collect_points(t, &child, out)?;
                t.free(e.child)?;
            }
        }
    }
    Ok(())
}

/// Shrink the root while it is an inner node with a single child, and
/// replace an emptied inner root with an empty leaf.
fn shrink_root<P: Dynamic>(t: &mut Tree<P>) -> Result<()> {
    loop {
        let level = t.top_level()?;
        if level == 0 {
            return Ok(());
        }
        let Node::Inner { entries, .. } = t.read_node(t.root, level)? else {
            return Err(IndexError::Corrupt(
                "root is a leaf but the recorded height says otherwise".into(),
            ));
        };
        match entries.first() {
            None => {
                t.free(t.root)?;
                t.root = t.allocate_node(&Node::Leaf(Vec::new()))?.id();
                t.height = 1;
                return t.save_meta();
            }
            Some(only) if entries.len() == 1 => {
                t.free(t.root)?;
                t.root = only.child;
                t.height -= 1;
                t.save_meta()?;
            }
            Some(_) => return Ok(()),
        }
    }
}

/// Remove the reinsertion fraction of `node`'s entries
/// (`params.reinsert_leaf` / `reinsert_node`) with the largest distance
/// key, farthest first — the forced-reinsertion victims.
pub fn take_farthest<R: Region>(
    node: &mut Node<R>,
    params: &Params<R>,
    leaf: impl Fn(&LeafEntry) -> f64,
    inner: impl Fn(&Entry<R>) -> f64,
) -> Vec<AnyEntry<R>> {
    fn farthest<E>(entries: &mut Vec<E>, count: usize, key: impl Fn(&E) -> f64) -> Vec<E> {
        let keys: Vec<f64> = entries.iter().map(key).collect();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| keys[b].total_cmp(&keys[a]));
        order.truncate(count);
        extract(entries, &order)
    }
    match node {
        Node::Leaf(entries) => farthest(entries, params.reinsert_leaf, leaf)
            .into_iter()
            .map(AnyEntry::Leaf)
            .collect(),
        Node::Inner { entries, .. } => farthest(entries, params.reinsert_node, inner)
            .into_iter()
            .map(AnyEntry::Inner)
            .collect(),
    }
}

/// Remove `victims` (distinct indices into `entries`), returning them in
/// the victims' order.
fn extract<T>(entries: &mut Vec<T>, victims: &[usize]) -> Vec<T> {
    let mut sorted = victims.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut removed: Vec<(usize, T)> = sorted.into_iter().map(|i| (i, entries.remove(i))).collect();
    let mut out = Vec::with_capacity(victims.len());
    for &v in victims {
        if let Some(pos) = removed.iter().position(|(i, _)| *i == v) {
            out.push(removed.remove(pos).1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_preserves_requested_order() {
        let mut entries = vec!["a", "b", "c", "d", "e"];
        assert_eq!(extract(&mut entries, &[4, 1, 2]), vec!["e", "b", "c"]);
        assert_eq!(entries, vec!["a", "d"]);
        assert!(extract(&mut entries, &[]).is_empty());
    }
}
