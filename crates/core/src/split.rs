//! The R\*-tree split: axis by minimum margin sum, distribution by
//! minimum overlap, ties by minimum combined area.

// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by `verify`); the
// clippy index ban applies to the audited geometry/pager hot paths.
#![allow(clippy::indexing_slicing)]

use sr_geometry::Rect;
use sr_query::paged::{Node, Params};

/// Split an overflowing node (holding `max + 1` entries) into two nodes,
/// each holding at least the minimum fill.
pub(crate) fn split_node(params: &Params<Rect>, node: Node<Rect>) -> (Node<Rect>, Node<Rect>) {
    match node {
        Node::Leaf(entries) => {
            let rects: Vec<Rect> = entries.iter().map(|e| Rect::from_point(&e.point)).collect();
            let (left_idx, right_idx) = rstar_split(&rects, params.min_leaf);
            let (a, b) = partition(entries, &left_idx, &right_idx);
            (Node::Leaf(a), Node::Leaf(b))
        }
        Node::Inner { level, entries } => {
            let rects: Vec<Rect> = entries.iter().map(|e| e.region.clone()).collect();
            let (left_idx, right_idx) = rstar_split(&rects, params.min_node);
            let (a, b) = partition(entries, &left_idx, &right_idx);
            (
                Node::Inner { level, entries: a },
                Node::Inner { level, entries: b },
            )
        }
    }
}

fn partition<T>(mut entries: Vec<T>, left: &[usize], right: &[usize]) -> (Vec<T>, Vec<T>) {
    debug_assert_eq!(left.len() + right.len(), entries.len());
    let mut tagged: Vec<Option<T>> = entries.drain(..).map(Some).collect();
    // The index lists are disjoint and in-bounds, so every take hits a
    // still-occupied slot; a duplicated index simply yields nothing.
    let mut pick = |idxs: &[usize]| -> Vec<T> {
        idxs.iter()
            .filter_map(|&i| tagged.get_mut(i).and_then(Option::take))
            .collect()
    };
    let a = pick(left);
    let b = pick(right);
    (a, b)
}

/// Core R\* split over entry rectangles. Returns the entry indices of the
/// two groups.
///
/// For every axis, entries are sorted by lower and by upper bound; for
/// every legal distribution (`k = m .. n-m` entries in the first group)
/// the margin (perimeter) sum is accumulated. The axis with the least
/// total margin wins; on that axis the distribution with the least
/// overlap between group rectangles wins, ties broken by least combined
/// area.
pub(crate) fn rstar_split(rects: &[Rect], m: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    debug_assert!(n >= 2 * m, "cannot split {n} entries with minimum {m}");
    let dim = rects[0].dim();

    let mut best_axis_margin = f64::INFINITY;
    // Seeded below on the first axis, so the orders are never empty even
    // when every margin compares as INFINITY or NaN.
    let mut orders: [Vec<usize>; 2] = [Vec::new(), Vec::new()];

    for axis in 0..dim {
        let mut by_lower: Vec<usize> = (0..n).collect();
        by_lower.sort_by(|&a, &b| {
            rects[a].min()[axis]
                .total_cmp(&rects[b].min()[axis])
                .then_with(|| rects[a].max()[axis].total_cmp(&rects[b].max()[axis]))
        });
        let mut by_upper: Vec<usize> = (0..n).collect();
        by_upper.sort_by(|&a, &b| {
            rects[a].max()[axis]
                .total_cmp(&rects[b].max()[axis])
                .then_with(|| rects[a].min()[axis].total_cmp(&rects[b].min()[axis]))
        });

        let mut margin_sum = 0.0f64;
        for order in [&by_lower, &by_upper] {
            let (prefix, suffix) = prefix_suffix_bbs(rects, order);
            for k in m..=(n - m) {
                margin_sum += prefix[k - 1].margin() + suffix[k].margin();
            }
        }
        if axis == 0 || margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            orders = [by_lower, by_upper];
        }
    }

    // Choose the distribution on the winning axis. The fallback — the
    // lower-bound order split at the minimum fill — is a legal
    // distribution, reached only if every overlap/area compares as NaN.
    let mut best: (f64, f64, &[usize], usize) = (f64::INFINITY, f64::INFINITY, &orders[0], m);
    for order in &orders {
        let (prefix, suffix) = prefix_suffix_bbs(rects, order);
        for k in m..=(n - m) {
            let overlap = prefix[k - 1].overlap_volume(&suffix[k]);
            let area = prefix[k - 1].volume() + suffix[k].volume();
            if overlap < best.0 || (overlap == best.0 && area < best.1) {
                best = (overlap, area, order, k);
            }
        }
    }
    let (_, _, order, k) = best;
    (order[..k].to_vec(), order[k..].to_vec())
}

/// `prefix[i]` = bb of order[0..=i]; `suffix[i]` = bb of order[i..].
fn prefix_suffix_bbs(rects: &[Rect], order: &[usize]) -> (Vec<Rect>, Vec<Rect>) {
    let n = order.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = rects[order[0]].clone();
    prefix.push(acc.clone());
    for &i in &order[1..] {
        acc.expand_to_rect(&rects[i]);
        prefix.push(acc.clone());
    }
    let mut suffix = vec![rects[order[n - 1]].clone(); n];
    for j in (0..n - 1).rev() {
        let mut r = rects[order[j]].clone();
        r.expand_to_rect(&suffix[j + 1]);
        suffix[j] = r;
    }
    (prefix, suffix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_geometry::Point;
    use sr_query::paged::{Entry, LeafEntry};

    fn pt_rects(coords: &[[f32; 2]]) -> Vec<Rect> {
        coords
            .iter()
            .map(|c| Rect::from_point(&Point::new(c.to_vec())))
            .collect()
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two clear clusters on the x axis must be separated.
        let rects = pt_rects(&[
            [0.0, 0.0],
            [0.1, 0.1],
            [0.05, 0.2],
            [10.0, 0.0],
            [10.1, 0.1],
            [10.05, 0.2],
        ]);
        let (a, b) = rstar_split(&rects, 2);
        let cluster = |idx: &[usize]| idx.iter().all(|&i| i < 3) || idx.iter().all(|&i| i >= 3);
        assert!(cluster(&a) && cluster(&b), "a={a:?} b={b:?}");
    }

    #[test]
    fn split_respects_minimum_fill() {
        let rects = pt_rects(&[
            [0.0, 0.0],
            [1.0, 0.0],
            [2.0, 0.0],
            [3.0, 0.0],
            [4.0, 0.0],
            [5.0, 0.0],
            [6.0, 0.0],
        ]);
        let (a, b) = rstar_split(&rects, 3);
        assert!(a.len() >= 3 && b.len() >= 3);
        assert_eq!(a.len() + b.len(), 7);
    }

    #[test]
    fn split_covers_all_indices_exactly_once() {
        let rects = pt_rects(&[
            [0.3, 0.7],
            [0.1, 0.2],
            [0.9, 0.4],
            [0.5, 0.5],
            [0.8, 0.1],
            [0.2, 0.9],
        ]);
        let (a, b) = rstar_split(&rects, 2);
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn split_node_distributes_leaf_entries() {
        // Overflowing leaf: max_leaf + 1 entries, as the tree produces.
        let params = Params::<Rect>::derive(8187, 2, 512);
        let n = params.max_leaf + 1;
        let entries: Vec<LeafEntry> = (0..n)
            .map(|i| LeafEntry {
                point: Point::new(vec![i as f32, (i % 3) as f32]),
                data: i as u64,
            })
            .collect();
        let (a, b) = split_node(&params, Node::Leaf(entries));
        assert_eq!(a.len() + b.len(), n);
        assert!(a.len() >= params.min_leaf && b.len() >= params.min_leaf);
    }

    #[test]
    fn split_node_preserves_inner_level() {
        let params = Params::<Rect>::derive(8187, 2, 512);
        let n = params.max_node + 1;
        let entries: Vec<Entry<Rect>> = (0..n)
            .map(|i| Entry {
                region: Rect::new(
                    vec![i as f32, 0.0],
                    vec![i as f32 + 0.5, 1.0 + (i % 5) as f32],
                ),
                child: i as u64 + 10,
            })
            .collect();
        let (a, b) = split_node(&params, Node::Inner { level: 2, entries });
        assert_eq!(a.level(), 2);
        assert_eq!(b.level(), 2);
        assert_eq!(a.len() + b.len(), n);
        assert!(a.len() >= params.min_node && b.len() >= params.min_node);
    }

    #[test]
    fn chooses_low_overlap_axis() {
        // Points form a tall thin strip: splitting on y gives zero
        // overlap, splitting on x would give total overlap.
        let rects = pt_rects(&[
            [0.0, 0.0],
            [0.01, 1.0],
            [0.0, 2.0],
            [0.01, 3.0],
            [0.0, 4.0],
            [0.01, 5.0],
        ]);
        let (a, b) = rstar_split(&rects, 2);
        // groups must be contiguous in y
        let max_y = |idx: &[usize]| idx.iter().map(|&i| rects[i].min()[1] as i32).max().unwrap();
        let min_y = |idx: &[usize]| idx.iter().map(|&i| rects[i].min()[1] as i32).min().unwrap();
        assert!(max_y(&a) < min_y(&b) || max_y(&b) < min_y(&a));
    }
}
