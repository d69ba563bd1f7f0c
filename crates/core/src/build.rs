//! The top-down VAMSplit bulk build.
//!
//! The point set is recursively partitioned on the dimension with the
//! highest **variance** at a split point near the median, rounded to a
//! multiple of the capacity of a full child subtree — so every chunk
//! except the last fills its disk blocks completely, guaranteeing the
//! minimum block count (§2.4 of the paper).

// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by `verify`); the
// clippy index ban applies to the audited geometry/pager hot paths.
#![allow(clippy::indexing_slicing)]

use sr_geometry::{Point, Rect};
use sr_pager::PageId;
use sr_query::paged::{mbr, Entry, LeafEntry, Node, Paged, Result};

/// Build the tree structure for `points`, returning the root page id and
/// the height.
pub(crate) fn bulk_build(
    tree: &mut Paged<Rect>,
    mut points: Vec<(Point, u64)>,
) -> Result<(PageId, u32)> {
    let m_l = tree.params.max_leaf;
    let m_n = tree.params.max_node;
    if points.is_empty() {
        let root = tree.allocate_node(&Node::Leaf(Vec::new()))?.id();
        return Ok((root, 1));
    }
    // Smallest height h with M_l * M_n^(h-1) >= n.
    let mut height = 1u32;
    let mut cap = m_l as u64;
    while cap < points.len() as u64 {
        cap = cap.saturating_mul(m_n as u64);
        height += 1;
    }
    let (root, _) = build_rec(tree, &mut points, height)?;
    Ok((root, height))
}

/// Build a subtree of exactly `height` levels over `points`, returning
/// its page id and exact MBR.
fn build_rec(
    tree: &mut Paged<Rect>,
    points: &mut [(Point, u64)],
    height: u32,
) -> Result<(PageId, Rect)> {
    let node = if height == 1 {
        debug_assert!(points.len() <= tree.params.max_leaf);
        Node::Leaf(
            points
                .iter()
                .map(|(p, d)| LeafEntry {
                    point: p.clone(),
                    data: *d,
                })
                .collect(),
        )
    } else {
        // Capacity of one full child subtree.
        let child_cap =
            (tree.params.max_leaf as u64 * (tree.params.max_node as u64).pow(height - 2)) as usize;
        let mut entries = Vec::new();
        vam_partition(points, child_cap, &mut |chunk| {
            let (child, region) = build_rec(tree, chunk, height - 1)?;
            entries.push(Entry { region, child });
            Ok(())
        })?;
        debug_assert!(
            entries.len() <= tree.params.max_node,
            "chunking overflowed a node"
        );
        Node::Inner {
            level: (height - 1) as u16,
            entries,
        }
    };
    let page = tree.allocate_node(&node)?;
    Ok((page.id(), mbr(&page)?))
}

/// Recursively split `points` by variance-approximate-median planes until
/// every piece fits in `chunk_cap`, calling `emit` on each piece in
/// coordinate order.
fn vam_partition(
    points: &mut [(Point, u64)],
    chunk_cap: usize,
    emit: &mut impl FnMut(&mut [(Point, u64)]) -> Result<()>,
) -> Result<()> {
    let n = points.len();
    if n <= chunk_cap {
        return emit(points);
    }
    let dim = max_variance_dim(points);
    // Median rounded to a multiple of chunk_cap; both sides non-empty.
    let half = n / 2;
    let mut split = (half + chunk_cap / 2) / chunk_cap * chunk_cap;
    if split == 0 {
        split = chunk_cap;
    }
    if split >= n {
        split = (n - 1) / chunk_cap * chunk_cap;
        if split == 0 {
            split = chunk_cap.min(n - 1);
        }
    }
    points.sort_by(|a, b| a.0[dim].total_cmp(&b.0[dim]));
    let (left, right) = points.split_at_mut(split);
    vam_partition(left, chunk_cap, emit)?;
    vam_partition(right, chunk_cap, emit)
}

/// Dimension with the greatest coordinate variance.
fn max_variance_dim(points: &[(Point, u64)]) -> usize {
    let d = points[0].0.dim();
    let n = points.len() as f64;
    let mut best = 0usize;
    let mut best_var = f64::NEG_INFINITY;
    for i in 0..d {
        let mean: f64 = points.iter().map(|(p, _)| p[i] as f64).sum::<f64>() / n;
        let var: f64 = points
            .iter()
            .map(|(p, _)| {
                let t = p[i] as f64 - mean;
                t * t
            })
            .sum::<f64>();
        if var > best_var {
            best_var = var;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<(Point, u64)> {
        (0..n)
            .map(|i| {
                (
                    Point::new(vec![(i * 37 % 101) as f32, (i * 17 % 89) as f32]),
                    i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn partition_produces_bounded_chunks_mostly_full() {
        let mut p = pts(1000);
        let mut sizes = Vec::new();
        vam_partition(&mut p, 64, &mut |chunk| {
            sizes.push(chunk.len());
            Ok(())
        })
        .unwrap();
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        assert!(sizes.iter().all(|&s| s <= 64));
        // Full-utilization guarantee: at most one non-full chunk per
        // binary-split branch; for this size, the vast majority are full.
        let full = sizes.iter().filter(|&&s| s == 64).count();
        assert!(full >= sizes.len() - 3, "sizes: {sizes:?}");
    }

    #[test]
    fn partition_handles_tiny_inputs() {
        let mut p = pts(3);
        let mut total = 0;
        vam_partition(&mut p, 64, &mut |chunk| {
            total += chunk.len();
            Ok(())
        })
        .unwrap();
        assert_eq!(total, 3);
    }

    #[test]
    fn max_variance_dim_finds_spread() {
        let p: Vec<(Point, u64)> = (0..10)
            .map(|i| (Point::new(vec![0.5, i as f32 * 10.0]), i as u64))
            .collect();
        assert_eq!(max_variance_dim(&p), 1);
    }
}
