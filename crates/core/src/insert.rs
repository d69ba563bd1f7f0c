//! The insertion algorithms of the two dynamic trees outside the
//! centroid family (the SS- and SR-trees insert through
//! `sr_query::paged::centroid`):
//!
//! * the R\*-tree's ChooseSubtree and "close reinsert" victim selection,
//!   which the shared driver in [`sr_query::paged::Dynamic`] runs;
//! * the K-D-B-tree's own insertion with plane splits and forced splits.
//!   On overflow a page is divided by a coordinate plane. For point pages
//!   the plane passes near the median of the widest dimension (the
//!   R+-tree-style choice the paper adopts, §3.1). For region pages the
//!   plane is chosen among the children's own boundaries to minimize the
//!   number of *forced splits* — children crossing the plane that must be
//!   recursively split by it.

// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by `verify`); the
// clippy index ban applies to the audited geometry/pager hot paths.
#![allow(clippy::indexing_slicing)]

use sr_geometry::{bounding_rect_of_points, Point, Rect};
use sr_pager::PageId;
use sr_query::paged::{
    rect_union, take_farthest, AnyEntry, Entry, LeafEntry, Node, Paged, Params, Result,
};
use sr_query::IndexError;

use crate::tree::kdbtree::{clip_above, clip_below, full_space, kdb_contains, KdbRegion};

// --- R*-tree ------------------------------------------------------------

/// The (possibly degenerate) rectangle of an entry being inserted.
fn entry_rect(entry: &AnyEntry<Rect>) -> Rect {
    match entry {
        AnyEntry::Leaf(e) => Rect::from_point(&e.point),
        AnyEntry::Inner(e) => e.region.clone(),
    }
}

/// R\* ChooseSubtree: least overlap enlargement when the children are
/// leaves (`level == 1`), least area enlargement above.
pub(crate) fn choose_subtree(entries: &[Entry<Rect>], entry: &AnyEntry<Rect>, level: u16) -> usize {
    let rect = entry_rect(entry);
    if level == 1 {
        choose_min_overlap(entries, &rect)
    } else {
        choose_min_enlargement(entries, &rect)
    }
}

/// R\* ChooseSubtree at the leaf-parent level: least overlap enlargement,
/// ties by least area enlargement, then least area.
fn choose_min_overlap(entries: &[Entry<Rect>], rect: &Rect) -> usize {
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, e) in entries.iter().enumerate() {
        let enlarged = e.region.union(rect);
        let mut overlap_delta = 0.0f64;
        for (j, o) in entries.iter().enumerate() {
            if i == j {
                continue;
            }
            overlap_delta +=
                enlarged.overlap_volume(&o.region) - e.region.overlap_volume(&o.region);
        }
        let area = e.region.volume();
        let key = (overlap_delta, enlarged.volume() - area, area);
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// ChooseSubtree above the leaf-parent level: least area enlargement,
/// ties by least area.
fn choose_min_enlargement(entries: &[Entry<Rect>], rect: &Rect) -> usize {
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for (i, e) in entries.iter().enumerate() {
        let area = e.region.volume();
        let key = (e.region.union(rect).volume() - area, area);
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// The center of the minimum bounding rectangle of an overflowing node,
/// which holds one entry more than a page does.
fn mbr_center(node: &Node<Rect>) -> Result<Point> {
    let rect = match node {
        Node::Leaf(entries) => bounding_rect_of_points(entries.iter().map(|e| e.point.coords())),
        Node::Inner { entries, .. } => {
            rect_union(entries.iter().map(|e| (e.region.min(), e.region.max())))
        }
    };
    rect.map(|r| r.center())
        .ok_or_else(|| IndexError::Corrupt("MBR of an empty node".into()))
}

/// Remove the reinsert fraction of entries farthest from the node's MBR
/// center (not its centroid), farthest first.
pub(crate) fn take_reinsert(
    node: &mut Node<Rect>,
    params: &Params<Rect>,
) -> Result<Vec<AnyEntry<Rect>>> {
    let center = mbr_center(node)?;
    Ok(take_farthest(
        node,
        params,
        |e| e.point.dist2(&center),
        |e| e.region.center().dist2(&center),
    ))
}

// --- K-D-B-tree ---------------------------------------------------------

/// Why a point page of coincident points cannot split: the K-D-B-tree
/// splits *space*, and no coordinate plane separates equal points.
const UNSPLITTABLE: &str = "K-D-B-tree point page cannot split (coincident points)";

/// The unique root-to-leaf path whose half-open regions contain `p`,
/// root first, with each page's region (the root's is all of space).
///
/// # Errors
/// [`IndexError::Corrupt`] on a coverage hole or a point page above the
/// leaf level.
pub(crate) fn descend(tree: &Paged<KdbRegion>, p: &[f32]) -> Result<Vec<(PageId, Rect)>> {
    let mut path = Vec::with_capacity(tree.height as usize);
    let mut id = tree.root;
    let mut region = full_space(tree.params.dim);
    for level in (1..tree.height).rev() {
        let Node::Inner { entries, .. } = tree.read_node(id, level as u16)? else {
            return Err(IndexError::Corrupt(
                "point page found above the leaf level while descending".into(),
            ));
        };
        let e = entries
            .into_iter()
            .find(|e| kdb_contains(&e.region.0, p))
            .ok_or_else(|| {
                IndexError::Corrupt("coverage hole: no region contains the point".into())
            })?;
        path.push((id, region));
        id = e.child;
        region = e.region.0;
    }
    path.push((id, region));
    Ok(path)
}

/// Insert one point.
pub(crate) fn insert_point(tree: &mut Paged<KdbRegion>, point: Point, data: u64) -> Result<()> {
    tree.check_point(point.coords())?;
    // The regions along the path derive the regions of split halves.
    let path = descend(tree, point.coords())?;
    let id = path[path.len() - 1].0;

    let mut node = tree.read_node(id, 0)?;
    if let Node::Leaf(entries) = &mut node {
        entries.push(LeafEntry { point, data });
    }

    // Resolve overflows bottom-up; splits replace one parent entry with
    // two and may overflow the parent in turn.
    let mut idx = path.len() - 1;
    loop {
        let max = if node.is_leaf() {
            tree.params.max_leaf
        } else {
            tree.params.max_node
        };
        if node.len() <= max {
            tree.write_node(path[idx].0, &node)?;
            break;
        }
        let (dim, value) = choose_plane(&node)?;
        let level = node.level();
        let (left, right) = split_in_memory(tree, node, dim, value)?;
        let region = &path[idx].1;
        let left_rect = clip_below(region, dim, value);
        let right_rect = clip_above(region, dim, value);
        if idx == 0 {
            // Root split: the tree grows one level.
            let left_id = tree.allocate_node(&left)?.id();
            let right_id = tree.allocate_node(&right)?.id();
            let new_root = Node::Inner {
                level: level + 1,
                entries: vec![
                    Entry {
                        region: KdbRegion(left_rect),
                        child: left_id,
                    },
                    Entry {
                        region: KdbRegion(right_rect),
                        child: right_id,
                    },
                ],
            };
            tree.free(tree.root)?;
            tree.root = tree.allocate_node(&new_root)?.id();
            tree.height += 1;
            break;
        }
        tree.write_node(path[idx].0, &left)?;
        let right_id = tree.allocate_node(&right)?.id();
        let parent_level = level + 1;
        let mut parent = tree.read_node(path[idx - 1].0, parent_level)?;
        if let Node::Inner { entries, .. } = &mut parent {
            let pos = entries
                .iter()
                .position(|e| e.child == path[idx].0)
                .ok_or_else(|| IndexError::Corrupt("parent lost track of its child".into()))?;
            entries[pos] = Entry {
                region: KdbRegion(left_rect),
                child: path[idx].0,
            };
            entries.push(Entry {
                region: KdbRegion(right_rect),
                child: right_id,
            });
        }
        node = parent;
        idx -= 1;
    }

    tree.count += 1;
    tree.save_meta()?;
    Ok(())
}

/// Choose the split plane for an overflowing page.
fn choose_plane(node: &Node<KdbRegion>) -> Result<(usize, f32)> {
    match node {
        Node::Leaf(entries) => choose_point_plane(entries),
        Node::Inner { entries, .. } => choose_region_plane(entries),
    }
}

/// Point pages: widest dimension, split at the median coordinate,
/// nudged so both half-open sides are non-empty.
fn choose_point_plane(entries: &[LeafEntry]) -> Result<(usize, f32)> {
    let dim = entries[0].point.dim();
    let mut best: Option<(f32, usize, f32)> = None; // (spread, dim, value)
    for d in 0..dim {
        let mut coords: Vec<f32> = entries.iter().map(|e| e.point[d]).collect();
        coords.sort_by(|a, b| a.total_cmp(b));
        let spread = coords[coords.len() - 1] - coords[0];
        if spread <= 0.0 {
            continue; // all coincident on this dimension
        }
        // Median, adjusted upward until it separates (left side is
        // strictly-less under the half-open rule).
        let mut value = coords[coords.len() / 2];
        if value == coords[0] {
            match coords.iter().find(|&&c| c > coords[0]) {
                Some(&c) => value = c,
                // Unreachable when spread > 0; treat it as degenerate
                // rather than asserting on it.
                None => continue,
            }
        }
        match best {
            Some((s, _, _)) if s >= spread => {}
            _ => best = Some((spread, d, value)),
        }
    }
    best.map(|(_, d, v)| (d, v))
        .ok_or(IndexError::Unsupported(UNSPLITTABLE))
}

/// Region pages: consider every child boundary on every dimension; pick
/// the plane minimizing forced splits (crossing children), requiring at
/// least one child fully on each side so the split makes progress; break
/// ties by balance.
fn choose_region_plane(entries: &[Entry<KdbRegion>]) -> Result<(usize, f32)> {
    let dim = entries[0].region.0.dim();
    let mut best: Option<((usize, i64), usize, f32)> = None; // ((crossings, imbalance), dim, value)
    for d in 0..dim {
        let mut candidates: Vec<f32> = Vec::new();
        for e in entries {
            if e.region.0.min()[d].is_finite() {
                candidates.push(e.region.0.min()[d]);
            }
            if e.region.0.max()[d].is_finite() {
                candidates.push(e.region.0.max()[d]);
            }
        }
        candidates.sort_by(|a, b| a.total_cmp(b));
        candidates.dedup();
        for &v in &candidates {
            let mut left = 0usize;
            let mut right = 0usize;
            let mut cross = 0usize;
            for e in entries {
                if e.region.0.max()[d] <= v {
                    left += 1;
                } else if e.region.0.min()[d] >= v {
                    right += 1;
                } else {
                    cross += 1;
                }
            }
            if left == 0 || right == 0 {
                continue; // no progress: one side would keep everything
            }
            let key = (cross, (left as i64 - right as i64).abs());
            match &best {
                Some((bk, _, _)) if *bk <= key => {}
                _ => best = Some((key, d, v)),
            }
        }
    }
    best.map(|(_, d, v)| (d, v))
        .ok_or(IndexError::Unsupported(UNSPLITTABLE))
}

/// Split a materialized page by the plane `x[dim] = value`, recursively
/// force-splitting children that cross it. Returns the two halves (the
/// caller assigns page ids).
fn split_in_memory(
    tree: &mut Paged<KdbRegion>,
    node: Node<KdbRegion>,
    dim: usize,
    value: f32,
) -> Result<(Node<KdbRegion>, Node<KdbRegion>)> {
    match node {
        Node::Leaf(entries) => {
            let (l, r): (Vec<LeafEntry>, Vec<LeafEntry>) =
                entries.into_iter().partition(|e| e.point[dim] < value);
            Ok((Node::Leaf(l), Node::Leaf(r)))
        }
        Node::Inner { level, entries } => {
            let mut left = Vec::new();
            let mut right = Vec::new();
            for e in entries {
                if e.region.0.max()[dim] <= value {
                    left.push(e);
                } else if e.region.0.min()[dim] >= value {
                    right.push(e);
                } else {
                    // Forced split: the child page itself is divided by
                    // the same plane, all the way down.
                    let (l_id, r_id) = force_split_page(tree, e.child, level - 1, dim, value)?;
                    left.push(Entry {
                        region: KdbRegion(clip_below(&e.region.0, dim, value)),
                        child: l_id,
                    });
                    right.push(Entry {
                        region: KdbRegion(clip_above(&e.region.0, dim, value)),
                        child: r_id,
                    });
                }
            }
            Ok((
                Node::Inner {
                    level,
                    entries: left,
                },
                Node::Inner {
                    level,
                    entries: right,
                },
            ))
        }
    }
}

/// Force-split the on-disk page `id` by the plane; the left half reuses
/// `id`, the right half gets a fresh page. Either half may come out empty
/// or oversized-but-legal — forced splits are exactly why the K-D-B-tree
/// cannot guarantee minimum utilization.
fn force_split_page(
    tree: &mut Paged<KdbRegion>,
    id: PageId,
    level: u16,
    dim: usize,
    value: f32,
) -> Result<(PageId, PageId)> {
    let node = tree.read_node(id, level)?;
    let (left, right) = split_in_memory(tree, node, dim, value)?;
    tree.write_node(id, &left)?;
    let right_id = tree.allocate_node(&right)?.id();
    Ok((id, right_id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lo: [f32; 2], hi: [f32; 2], child: u64) -> Entry<Rect> {
        Entry {
            region: Rect::new(lo.to_vec(), hi.to_vec()),
            child,
        }
    }

    #[test]
    fn choose_min_enlargement_prefers_containing_rect() {
        let entries = vec![
            entry([0.0, 0.0], [1.0, 1.0], 1),
            entry([5.0, 5.0], [6.0, 6.0], 2),
        ];
        let target = Rect::from_point(&Point::new(vec![0.5, 0.5]));
        assert_eq!(choose_min_enlargement(&entries, &target), 0);
        let target2 = Rect::from_point(&Point::new(vec![5.5, 5.5]));
        assert_eq!(choose_min_enlargement(&entries, &target2), 1);
    }

    #[test]
    fn choose_min_overlap_avoids_creating_overlap() {
        // Enlarging the left rect to x=1.5 does not touch the right one
        // (which starts at x=2); the converse would.
        let entries = vec![
            entry([0.0, 0.0], [1.0, 1.0], 1),
            entry([2.0, 0.0], [5.0, 5.0], 2),
        ];
        let target = Rect::from_point(&Point::new(vec![1.5, 0.5]));
        assert_eq!(choose_min_overlap(&entries, &target), 0);
    }

    #[test]
    fn take_reinsert_takes_entries_farthest_from_the_mbr_center() {
        let params = Params::<Rect>::derive(1024, 2, 64);
        let mut node = Node::Leaf(
            (0..8)
                .map(|i| LeafEntry {
                    point: Point::new(if i == 7 {
                        vec![100.0, 100.0]
                    } else {
                        vec![i as f32 * 0.1, 0.0]
                    }),
                    data: i as u64,
                })
                .collect(),
        );
        let center = mbr_center(&node).unwrap();
        let removed = take_reinsert(&mut node, &params).unwrap();
        assert!(!removed.is_empty());
        // Every removed entry is at least as far from the (pre-removal)
        // MBR center as every kept entry. With one extreme outlier, the
        // near-origin cluster is what is farthest from that center.
        let dist = |e: &AnyEntry<Rect>| match e {
            AnyEntry::Leaf(le) => le.point.dist2(&center),
            AnyEntry::Inner(ie) => ie.region.center().dist2(&center),
        };
        let min_removed = removed.iter().map(dist).fold(f64::INFINITY, f64::min);
        let Node::Leaf(kept) = &node else {
            panic!("expected leaf")
        };
        let max_kept = kept
            .iter()
            .map(|e| e.point.dist2(&center))
            .fold(0.0f64, f64::max);
        assert!(
            min_removed >= max_kept,
            "removed {min_removed} < kept {max_kept}"
        );
    }

    fn leaf_entries(coords: &[[f32; 2]]) -> Vec<LeafEntry> {
        coords
            .iter()
            .enumerate()
            .map(|(i, c)| LeafEntry {
                point: Point::new(c.to_vec()),
                data: i as u64,
            })
            .collect()
    }

    #[test]
    fn point_plane_picks_widest_dimension() {
        let entries = leaf_entries(&[[0.0, 0.0], [0.1, 10.0], [0.2, 20.0], [0.05, 30.0]]);
        let (dim, value) = choose_point_plane(&entries).unwrap();
        assert_eq!(dim, 1);
        // both half-open sides non-empty
        let left = entries.iter().filter(|e| e.point[dim] < value).count();
        assert!(left > 0 && left < entries.len());
    }

    #[test]
    fn point_plane_skips_degenerate_dimension() {
        // All x identical: must split on y.
        let entries = leaf_entries(&[[1.0, 0.0], [1.0, 5.0], [1.0, 9.0]]);
        let (dim, _) = choose_point_plane(&entries).unwrap();
        assert_eq!(dim, 1);
    }

    #[test]
    fn point_plane_duplicate_median_is_adjusted() {
        // Median coordinate equals the minimum; the plane must move up
        // so the left side is non-empty... the rule requires a value
        // strictly above the minimum.
        let entries = leaf_entries(&[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 7.0]]);
        let (dim, value) = choose_point_plane(&entries).unwrap();
        assert_eq!(dim, 1);
        assert!(value > 0.0);
        let left = entries.iter().filter(|e| e.point[dim] < value).count();
        assert!(left > 0 && left < entries.len());
    }

    #[test]
    fn fully_coincident_points_are_unsplittable() {
        let entries = leaf_entries(&[[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]);
        assert!(matches!(
            choose_point_plane(&entries),
            Err(IndexError::Unsupported(UNSPLITTABLE))
        ));
    }

    #[test]
    fn region_plane_prefers_no_crossings() {
        // Three regions: two separable on x without crossing, and a
        // plane on y would cross all of them.
        let mk = |x0: f32, x1: f32| Entry {
            region: KdbRegion(Rect::new(vec![x0, 0.0], vec![x1, 10.0])),
            child: 0,
        };
        let entries = vec![mk(0.0, 1.0), mk(1.0, 2.0), mk(2.0, 3.0)];
        let (dim, value) = choose_region_plane(&entries).unwrap();
        assert_eq!(dim, 0);
        let crossings = entries
            .iter()
            .filter(|e| e.region.0.min()[dim] < value && value < e.region.0.max()[dim])
            .count();
        assert_eq!(crossings, 0);
    }
}
