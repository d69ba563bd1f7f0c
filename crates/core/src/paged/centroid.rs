//! The SS-tree's centroid policies (White & Jain; the paper's §2.3),
//! which the SR-tree adopts unchanged ("We applied the centroid-based
//! algorithm of the SS-tree to the SR-tree", §4.2): nearest-centroid
//! ChooseSubtree, the variance split, and forced reinsertion of the
//! entries farthest from the centroid, at most once per node per
//! insertion.

// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by `verify`); the
// clippy index ban applies to the audited geometry/pager hot paths.
#![allow(clippy::indexing_slicing)]

use std::collections::HashSet;

use sr_geometry::{bounding_sphere_of_points, enclosing_radius_spheres, Centroid, Point, Sphere};
use sr_pager::{PageCodec, PageId};
use sr_query::IndexError;

use super::node::{AnyEntry, Entry, Node, NodePage, RegionRows};
use super::params::Params;
use super::region::Region;
use super::update::take_farthest;
use crate::Result;

/// A region with a center and a subtree point count — the bounding
/// sphere the centroid policies measure from. On disk it starts with its
/// sphere ([`super::put_sphere`]) and ends with its weight
/// ([`put_weight`]), which is how the lane computations below read it.
pub trait Centered: Region {
    /// The region's center (its bounding sphere's).
    fn center(&self) -> &Point;
    /// Points in the subtree (the `w` weighting the centroid).
    fn weight(&self) -> u64;
}

/// The weighted centroid of a node's entries: its points, or its
/// children's centers weighted by their point counts.
///
/// # Errors
/// [`IndexError::Corrupt`] for an empty or zero-weight node — reachable
/// from a corrupted page, never from a well-formed tree.
pub fn centroid<R: Centered>(node: &Node<R>) -> Result<Point> {
    match node {
        Node::Leaf(entries) => weighted_centroid(entries.iter().map(|e| (e.point.coords(), 1))),
        Node::Inner { entries, .. } => weighted_centroid(
            entries
                .iter()
                .map(|e| (e.region.center().coords(), e.region.weight())),
        ),
    }
}

/// The centroid of `(center, weight)` pairs.
fn weighted_centroid<'a>(mut weighted: impl Iterator<Item = (&'a [f32], u64)>) -> Result<Point> {
    let corrupt = || IndexError::Corrupt("centroid of an empty or zero-weight node".into());
    let (first, w) = weighted.next().ok_or_else(corrupt)?;
    let mut c = Centroid::new(first.len());
    c.add(first, w);
    for (p, w) in weighted {
        c.add(p, w);
    }
    c.finish().ok_or_else(corrupt)
}

/// Write a subtree weight in its on-disk `u32` field.
///
/// # Errors
/// [`IndexError::Corrupt`] when the weight overflows the field.
pub fn put_weight(c: &mut PageCodec<'_>, weight: u64) -> Result<()> {
    let w = u32::try_from(weight).map_err(|_| {
        IndexError::Corrupt(format!("subtree weight {weight} overflows the u32 field"))
    })?;
    c.put_u32(w)?;
    Ok(())
}

/// The weight a centered region's raw bytes end with.
fn raw_weight(raw: &[u8]) -> u64 {
    raw.last_chunk::<4>()
        .map_or(0, |w| u64::from(u32::from_le_bytes(*w)))
}

/// Points in a node page's subtree: a leaf's entries, or the weights its
/// inner entries record.
pub fn page_weight<R: Centered>(page: &NodePage<R>) -> u64 {
    if page.is_leaf() {
        page.len() as u64
    } else {
        page.regions().map(raw_weight).sum()
    }
}

/// The sphere part of an inner page's region (§4.2), from the page and
/// its [`NodePage::region_rows`]: the weighted centroid of the entries'
/// centers, and `d_s`, the radius around it that encloses every entry's
/// sphere.
///
/// # Errors
/// [`IndexError::Corrupt`] for an empty or zero-weight node — reachable
/// from a corrupted page, never from a well-formed tree.
pub fn inner_sphere<R: Centered>(page: &NodePage<R>, rows: &RegionRows) -> Result<(Point, f64)> {
    let centers = rows.spheres().map(|(center, _)| center);
    let center = weighted_centroid(centers.zip(page.regions().map(raw_weight)))?;
    let d_s = enclosing_radius_spheres(&center, rows.spheres());
    Ok((center, d_s))
}

/// The leaf region of the SS- and SR-tree: a sphere centered on the
/// centroid of a leaf page's points, its radius reaching the farthest
/// one. `None` for an empty or inner page.
pub fn leaf_sphere<R: Region>(page: &NodePage<R>) -> Option<Sphere> {
    let points = page.points();
    let rows: Vec<&[f32]> = points.chunks_exact(page.dim()).collect();
    bounding_sphere_of_points(&rows)
}

/// ChooseSubtree: the child whose centroid is nearest the entry's
/// center (a point, or a reinserted subtree's center).
pub fn choose_nearest<R: Centered>(entries: &[Entry<R>], entry: &AnyEntry<R>) -> usize {
    let center = match entry {
        AnyEntry::Leaf(e) => &e.point,
        AnyEntry::Inner(e) => e.region.center(),
    };
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, e) in entries.iter().enumerate() {
        let d = e.region.center().dist2(center);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// The reinsertion rule: an overflowing node reinserts unless it already
/// did during this insertion — more aggressive than the R\*-tree's
/// once-per-level rule.
pub fn reinsert_once_per_node(budget: &mut HashSet<PageId>, page: PageId) -> bool {
    budget.insert(page)
}

/// Remove the reinsert fraction of entries farthest from the node's
/// centroid, farthest first.
pub fn take_farthest_from_centroid<R: Centered>(
    node: &mut Node<R>,
    params: &Params<R>,
) -> Result<Vec<AnyEntry<R>>> {
    let center = centroid(node)?;
    Ok(take_farthest(
        node,
        params,
        |e| e.point.dist2(&center),
        |e| e.region.center().dist2(&center),
    ))
}

/// The variance split: the dimension with the highest variance of the
/// entries' centers, then the split position within `[m, n-m]`
/// minimizing the two groups' summed variance along it.
pub fn variance_split<R: Centered>(node: Node<R>, params: &Params<R>) -> (Node<R>, Node<R>) {
    match node {
        Node::Leaf(entries) => {
            let centers: Vec<&[f32]> = entries.iter().map(|e| e.point.coords()).collect();
            let (k, order) = split_order(&centers, params.min_leaf);
            let (a, b) = partition(entries, &order, k);
            (Node::Leaf(a), Node::Leaf(b))
        }
        Node::Inner { level, entries } => {
            let centers: Vec<&[f32]> = entries.iter().map(|e| e.region.center().coords()).collect();
            let (k, order) = split_order(&centers, params.min_node);
            let (a, b) = partition(entries, &order, k);
            (
                Node::Inner { level, entries: a },
                Node::Inner { level, entries: b },
            )
        }
    }
}

fn partition<T>(entries: Vec<T>, order: &[usize], k: usize) -> (Vec<T>, Vec<T>) {
    // `order` is a permutation of 0..entries.len(), so each slot is taken
    // exactly once; an out-of-range or repeated index is simply skipped.
    let mut tagged: Vec<Option<T>> = entries.into_iter().map(Some).collect();
    let mut pick = |idxs: &[usize]| -> Vec<T> {
        idxs.iter()
            .filter_map(|&i| tagged.get_mut(i).and_then(Option::take))
            .collect()
    };
    let a = pick(&order[..k]);
    let b = pick(&order[k..]);
    (a, b)
}

/// Returns `(k, order)`: entries `order[..k]` form the first group.
fn split_order(centers: &[&[f32]], m: usize) -> (usize, Vec<usize>) {
    let n = centers.len();
    debug_assert!(n >= 2 * m, "cannot split {n} entries with minimum {m}");
    let dim = centers[0].len();

    // Dimension of highest variance.
    let mut best_dim = 0usize;
    let mut best_var = f64::NEG_INFINITY;
    for d in 0..dim {
        let mean: f64 = centers.iter().map(|c| c[d] as f64).sum::<f64>() / n as f64;
        let var: f64 = centers
            .iter()
            .map(|c| {
                let t = c[d] as f64 - mean;
                t * t
            })
            .sum::<f64>();
        if var > best_var {
            best_var = var;
            best_dim = d;
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| centers[a][best_dim].total_cmp(&centers[b][best_dim]));

    // Split position minimizing summed group variance, via prefix sums.
    let xs: Vec<f64> = order.iter().map(|&i| centers[i][best_dim] as f64).collect();
    let mut pre_s = vec![0.0f64; n + 1]; // sum of xs[..i]
    let mut pre_q = vec![0.0f64; n + 1]; // sum of squares
    for i in 0..n {
        pre_s[i + 1] = pre_s[i] + xs[i];
        pre_q[i + 1] = pre_q[i] + xs[i] * xs[i];
    }
    // variance * count of xs[lo..hi]
    let group_var = |lo: usize, hi: usize| -> f64 {
        let s = pre_s[hi] - pre_s[lo];
        let q = pre_q[hi] - pre_q[lo];
        q - s * s / (hi - lo) as f64
    };
    let mut best_k = m;
    let mut best_cost = f64::INFINITY;
    for k in m..=(n - m) {
        let cost = group_var(0, k) + group_var(k, n);
        if cost < best_cost {
            best_cost = cost;
            best_k = k;
        }
    }
    (best_k, order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(raw: &[Vec<f32>], m: usize) -> (usize, Vec<usize>) {
        let centers: Vec<&[f32]> = raw.iter().map(|c| c.as_slice()).collect();
        split_order(&centers, m)
    }

    #[test]
    fn picks_highest_variance_dimension() {
        // Variance is concentrated on dimension 1.
        let raw: Vec<Vec<f32>> = (0..8)
            .map(|i| vec![0.5 + 0.001 * i as f32, i as f32])
            .collect();
        let (k, order) = split(&raw, 2);
        let left_max = order[..k].iter().map(|&i| raw[i][1] as i32).max().unwrap();
        let right_min = order[k..].iter().map(|&i| raw[i][1] as i32).min().unwrap();
        assert!(left_max < right_min);
    }

    #[test]
    fn separates_bimodal_data_at_the_gap() {
        let raw: Vec<Vec<f32>> = (0..10)
            .map(|i| vec![if i < 5 { 0.0 } else { 100.0 } + i as f32 * 0.01, 0.0])
            .collect();
        let (k, order) = split(&raw, 2);
        assert_eq!(k, 5);
        assert!(order[..5].iter().all(|&i| i < 5));
    }

    #[test]
    fn respects_minimum_fill() {
        let raw: Vec<Vec<f32>> = (0..9).map(|i| vec![i as f32]).collect();
        let (k, order) = split(&raw, 4);
        assert!(k >= 4 && 9 - k >= 4);
        assert_eq!(order.len(), 9);
    }
}
