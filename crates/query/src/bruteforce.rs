//! Exact linear-scan queries — the ground truth every index is tested
//! against — and the pairwise-distance statistics of Figure 17.

use crate::heap::{CandidateSet, Neighbor};

fn dist2(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let d = x as f64 - y as f64;
        acc += d * d;
    }
    acc
}

/// Exact k-NN by linear scan, sorted by ascending distance (ties broken by
/// payload, matching the tree search).
pub fn brute_force_knn<'a, I>(points: I, query: &[f32], k: usize) -> Vec<Neighbor>
where
    I: IntoIterator<Item = (&'a [f32], u64)>,
{
    let mut cands = CandidateSet::new(k);
    for (p, id) in points {
        cands.offer(dist2(p, query), id);
    }
    cands.into_sorted()
}

/// Exact range search by linear scan, sorted by ascending distance.
pub fn brute_force_range<'a, I>(points: I, query: &[f32], radius: f64) -> Vec<Neighbor>
where
    I: IntoIterator<Item = (&'a [f32], u64)>,
{
    let r2 = radius * radius;
    let mut out: Vec<Neighbor> = points
        .into_iter()
        .map(|(p, id)| Neighbor {
            dist2: dist2(p, query),
            data: id,
        })
        .filter(|n| n.dist2 <= r2)
        .collect();
    out.sort_by(|a, b| {
        a.dist2
            .partial_cmp(&b.dist2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.data.cmp(&b.data))
    });
    out
}

/// Minimum, average, and maximum pairwise distance within a point set —
/// the quantities of Figure 17, which explain why uniform data becomes
/// useless as a nearest-neighbor benchmark in high dimensions (distances
/// concentrate; min/max → 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceStats {
    /// Smallest pairwise distance.
    pub min: f64,
    /// Mean pairwise distance.
    pub avg: f64,
    /// Largest pairwise distance.
    pub max: f64,
}

/// Compute pairwise distance statistics over `points`, optionally on a
/// subsample: if `points.len() > sample_cap`, only the first `sample_cap`
/// points enter the O(n²) scan (the paper's Figure 17 trend is insensitive
/// to sampling).
///
/// # Panics
/// Panics if fewer than two points are supplied.
pub fn pairwise_distance_stats(points: &[&[f32]], sample_cap: usize) -> DistanceStats {
    let n = points.len().min(sample_cap.max(2));
    // srlint: allow(assert) -- documented `# Panics` contract of a
    // ground-truth statistics helper fed by benchmark configuration.
    assert!(n >= 2, "need at least two points for pairwise distances");
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    let mut sum = 0.0f64;
    let mut count = 0u64;
    for (i, a) in points.iter().take(n).enumerate() {
        for b in points.iter().take(n).skip(i + 1) {
            let d = dist2(a, b).sqrt();
            min = min.min(d);
            max = max.max(d);
            sum += d;
            count += 1;
        }
    }
    DistanceStats {
        min,
        avg: sum / count as f64,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_orders_and_truncates() {
        let pts: Vec<Vec<f32>> = vec![vec![0.0], vec![10.0], vec![3.0], vec![-1.0]];
        let refs: Vec<(&[f32], u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_slice(), i as u64))
            .collect();
        let got = brute_force_knn(refs.iter().copied(), &[0.5], 2);
        assert_eq!(got.iter().map(|n| n.data).collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn range_includes_boundary() {
        let pts: Vec<Vec<f32>> = vec![vec![0.0], vec![5.0], vec![5.1]];
        let refs: Vec<(&[f32], u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_slice(), i as u64))
            .collect();
        let got = brute_force_range(refs.iter().copied(), &[0.0], 5.0);
        assert_eq!(got.iter().map(|n| n.data).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn distance_stats_triangle() {
        // 3-4-5 right triangle
        let a: &[f32] = &[0.0, 0.0];
        let b: &[f32] = &[3.0, 0.0];
        let c: &[f32] = &[3.0, 4.0];
        let s = pairwise_distance_stats(&[a, b, c], 100);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 5.0);
        assert!((s.avg - 4.0).abs() < 1e-12);
    }

    #[test]
    fn distance_stats_respects_sample_cap() {
        let pts: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let s = pairwise_distance_stats(&refs, 10);
        // only points 0..10 scanned, so max distance is 9
        assert_eq!(s.max, 9.0);
    }
}
