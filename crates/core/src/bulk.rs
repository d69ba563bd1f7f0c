//! Bulk loading for the SR-tree — an extension beyond the paper.
//!
//! The paper's SR-tree is fully dynamic; its static rival (the VAMSplit
//! R-tree, §2.4) wins on uniform data largely because bulk building packs
//! pages tightly. This module gives the SR-tree the same option: a
//! bottom-up build that partitions points into *balanced* chunks by
//! recursive variance splits (so every page holds between ⌈n/k⌉ and
//! ⌊n/k⌋ entries — always within the 40% minimum-fill bound), then
//! assembles levels with the §4.2 region computation.
//!
//! The resulting tree satisfies exactly the invariants of the dynamic
//! one (`verify::check` passes), so all query code is shared.

// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by `verify`); the
// clippy index ban applies to the audited geometry/pager hot paths.
#![allow(clippy::indexing_slicing)]

use sr_geometry::Point;

use crate::paged::{Entry, LeafEntry, Node};
use crate::region::{region_of, SrRegion};
use crate::{Result, SrTree};

/// Bulk-load `points` into the tree, which must be empty. Called via
/// [`crate::SrTree::bulk_load`], which checks that it is.
pub(crate) fn bulk_load(tree: &mut SrTree, points: Vec<(Point, u64)>) -> Result<()> {
    if points.is_empty() {
        return Ok(());
    }
    // The empty root leaf created by `create_from` is replaced wholesale.
    tree.free(tree.root)?;
    let n = points.len();
    let rule = tree.params.policy.radius_rule;
    let (max_leaf, max_node) = (tree.params.max_leaf, tree.params.max_node);
    // Allocate `node`, returning the entry its parent records for it.
    let mut place = |node: Node<SrRegion>| -> Result<Entry<SrRegion>> {
        let page = tree.allocate_node(&node)?;
        Ok(Entry {
            region: region_of(&page, rule)?,
            child: page.id(),
        })
    };

    // --- leaf level -----------------------------------------------------
    let mut entries: Vec<LeafEntry> = points
        .into_iter()
        .map(|(point, data)| LeafEntry { point, data })
        .collect();
    let k = n.div_ceil(max_leaf);
    let mut chunks: Vec<&mut [LeafEntry]> = Vec::with_capacity(k);
    split_balanced(&mut entries, k, &|e| e.point.coords(), &mut chunks);
    let mut level_entries = chunks
        .into_iter()
        .map(|chunk| place(Node::Leaf(chunk.to_vec())))
        .collect::<Result<Vec<_>>>()?;

    // --- upper levels ----------------------------------------------------
    let mut level = 1u16;
    while level_entries.len() > max_node {
        let k = level_entries.len().div_ceil(max_node);
        let mut chunks: Vec<&mut [Entry<SrRegion>]> = Vec::with_capacity(k);
        split_balanced(
            &mut level_entries,
            k,
            &|e| e.region.sphere.center().coords(),
            &mut chunks,
        );
        level_entries = chunks
            .into_iter()
            .map(|chunk| {
                place(Node::Inner {
                    level,
                    entries: chunk.to_vec(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        level += 1;
    }

    // --- root -------------------------------------------------------------
    // After the loop, `level_entries` fits in one node. A single leaf
    // becomes the root itself (height 1); otherwise an inner root is
    // allocated at `level` (after the first chunking pass there are
    // always ≥ 2 entries, satisfying the inner-root invariant).
    let (root, height) = if level == 1 && level_entries.len() == 1 {
        (level_entries[0].child, 1)
    } else {
        let id = tree.allocate_node(&Node::Inner {
            level,
            entries: level_entries,
        })?;
        (id.id(), u32::from(level) + 1)
    };
    tree.root = root;
    tree.height = height;
    tree.count = n as u64;
    tree.save_meta()
}

/// Partition `items` into `k` contiguous chunks of balanced size (±1) by
/// recursive binary splits on the highest-variance coordinate of
/// `center(item)`.
fn split_balanced<'a, T>(
    items: &'a mut [T],
    k: usize,
    center: &dyn Fn(&T) -> &[f32],
    out: &mut Vec<&'a mut [T]>,
) {
    if k <= 1 {
        out.push(items);
        return;
    }
    let kl = k / 2;
    let kr = k - kl;
    // Split position proportional to the chunk counts keeps every final
    // chunk within ±1 of n/k.
    let pos = items.len() * kl / k;
    let dim = max_variance_dim(items, center);
    items.sort_by(|a, b| center(a)[dim].total_cmp(&center(b)[dim]));
    let (left, right) = items.split_at_mut(pos);
    split_balanced(left, kl, center, out);
    split_balanced(right, kr, center, out);
}

fn max_variance_dim<T>(items: &[T], center: &dyn Fn(&T) -> &[f32]) -> usize {
    let d = center(&items[0]).len();
    let n = items.len() as f64;
    let mut best = 0usize;
    let mut best_var = f64::NEG_INFINITY;
    for i in 0..d {
        let mean: f64 = items.iter().map(|t| center(t)[i] as f64).sum::<f64>() / n;
        let var: f64 = items
            .iter()
            .map(|t| {
                let x = center(t)[i] as f64 - mean;
                x * x
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

    #[test]
    fn split_balanced_sizes_differ_by_at_most_one() {
        for (n, k) in [(100usize, 7usize), (13, 13), (50, 3), (9, 2), (1, 1)] {
            let mut items: Vec<Vec<f32>> = (0..n)
                .map(|i| vec![(i * 37 % 101) as f32, i as f32])
                .collect();
            let mut chunks: Vec<&mut [Vec<f32>]> = Vec::new();
            split_balanced(&mut items, k, &|v| v.as_slice(), &mut chunks);
            assert_eq!(chunks.len(), k);
            let total: usize = chunks.iter().map(|c| c.len()).sum();
            assert_eq!(total, n);
            let min = chunks.iter().map(|c| c.len()).min().unwrap();
            let max = chunks.iter().map(|c| c.len()).max().unwrap();
            assert!(max - min <= 1, "n={n} k={k}: chunk sizes {min}..{max}");
        }
    }

    #[test]
    fn split_balanced_groups_spatially() {
        // Two widely separated groups must not be interleaved.
        let mut items: Vec<Vec<f32>> = (0..20)
            .map(|i| {
                if i < 10 {
                    vec![i as f32 * 0.01]
                } else {
                    vec![1000.0 + i as f32]
                }
            })
            .collect();
        let mut chunks: Vec<&mut [Vec<f32>]> = Vec::new();
        split_balanced(&mut items, 2, &|v| v.as_slice(), &mut chunks);
        let left_max = chunks[0].iter().map(|v| v[0] as i64).max().unwrap();
        let right_min = chunks[1].iter().map(|v| v[0] as i64).min().unwrap();
        assert!(left_max < right_min);
    }
}
