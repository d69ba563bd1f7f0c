//! The R\*-tree's insertion policies: ChooseSubtree and the "close
//! reinsert" victim selection. The shared driver in
//! [`sr_query::paged::Dynamic`] runs them.

use sr_geometry::{bounding_rect_of_points, Point, Rect};
use sr_query::paged::{rect_union, take_farthest, AnyEntry, Entry, Node, Params, Result};
use sr_query::IndexError;

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

#[cfg(test)]
mod tests {
    use super::*;
    use sr_geometry::Point;
    use sr_query::paged::LeafEntry;

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
        let params = crate::RstarParams::derive(1024, 2, 64);
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
}
