//! Sphere range search over the same [`KnnSource`] abstraction as the
//! k-NN engine.

use sr_obs::{Hist, Noop, Recorder, SpanTimer};

use crate::heap::Neighbor;
use crate::knn::{record_expansion, record_prune, Expansion, KnnSource};
use crate::IndexError;

/// Find every point within `radius` of `query`, sorted by ascending
/// distance (ties broken by payload).
///
/// A branch is visited iff its region distance is `<= radius^2`; a point
/// is reported iff its exact distance is. Boundary points (distance
/// exactly `radius`) are included.
///
/// A negative or NaN radius is rejected with
/// [`IndexError::InvalidRadius`] — never a panic.
pub fn range<S: KnnSource>(
    src: &S,
    query: &[f32],
    radius: f64,
) -> Result<Vec<Neighbor>, IndexError> {
    range_with(src, query, radius, &Noop)
}

/// [`range`] with a metrics recorder. With [`Noop`] this monomorphizes to
/// exactly the uninstrumented search.
pub fn range_with<S: KnnSource, R: Recorder + ?Sized>(
    src: &S,
    query: &[f32],
    radius: f64,
    rec: &R,
) -> Result<Vec<Neighbor>, IndexError> {
    if radius.is_nan() || radius < 0.0 {
        return Err(IndexError::InvalidRadius(radius));
    }
    let _span = SpanTimer::start(rec, Hist::QueryNs);
    let r2 = radius * radius;
    let mut out = Vec::new();
    let mut pool = Vec::new();
    if let Some(root) = src.root()? {
        visit(src, &root, query, r2, &mut out, rec, &mut pool)?;
    }
    out.sort_by(|a, b| {
        a.dist2
            .partial_cmp(&b.dist2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.data.cmp(&b.data))
    });
    Ok(out)
}

fn visit<S: KnnSource, R: Recorder + ?Sized>(
    src: &S,
    node: &S::Node,
    query: &[f32],
    r2: f64,
    out: &mut Vec<Neighbor>,
    rec: &R,
    pool: &mut Vec<Expansion<S::Node>>,
) -> Result<(), IndexError> {
    let mut exp = pool.pop().unwrap_or_default();
    exp.clear();
    // A range query's pruning threshold is fixed at r²: an entry whose
    // partial distance strictly exceeds r² can never be `<= r2`, so the
    // early-abandon scan is exact here too (boundary points complete).
    src.expand(node, query, r2, &mut exp)?;
    record_expansion(rec, &exp);
    for n in &exp.points {
        if n.dist2 <= r2 {
            out.push(*n);
        }
    }
    for b in &exp.branches {
        if b.dist2 <= r2 {
            visit(src, &b.node, query, r2, out, rec, pool)?;
        } else {
            record_prune(rec, b.bound, |c| c > r2);
        }
    }
    pool.push(exp);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::brute_force_range;
    use crate::knn::mock::MockTree;
    use sr_obs::{Counter, StatsRecorder};

    fn grid_points() -> Vec<(Vec<f32>, u64)> {
        let mut pts = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                pts.push((vec![x as f32, y as f32], (x * 10 + y) as u64));
            }
        }
        pts
    }

    #[test]
    fn range_matches_brute_force() {
        let pts = grid_points();
        let tree = MockTree::build(pts.clone(), 7);
        let flat: Vec<(&[f32], u64)> = pts.iter().map(|(p, id)| (p.as_slice(), *id)).collect();
        for radius in [0.0, 1.0, 1.5, 3.7, 100.0] {
            let q = [4.5f32, 4.5];
            let got = range(&tree, &q, radius).unwrap();
            let want = brute_force_range(flat.iter().copied(), &q, radius);
            assert_eq!(
                got.iter().map(|n| n.data).collect::<Vec<_>>(),
                want.iter().map(|n| n.data).collect::<Vec<_>>(),
                "radius {radius}"
            );
        }
    }

    #[test]
    fn boundary_point_included() {
        let pts = grid_points();
        let tree = MockTree::build(pts.clone(), 7);
        // query at (0,0); point (3,4) is at distance exactly 5
        let got = range(&tree, &[0.0, 0.0], 5.0).unwrap();
        assert!(got.iter().any(|n| n.data == 34));
    }

    #[test]
    fn empty_result_for_far_query() {
        let pts = grid_points();
        let tree = MockTree::build(pts, 7);
        let got = range(&tree, &[1000.0, 1000.0], 1.0).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn negative_radius_is_a_typed_error_not_a_panic() {
        let pts = grid_points();
        let tree = MockTree::build(pts, 7);
        match range(&tree, &[0.0, 0.0], -1.0) {
            Err(IndexError::InvalidRadius(r)) => assert_eq!(r, -1.0),
            other => panic!("expected InvalidRadius, got {other:?}"),
        }
        assert!(matches!(
            range(&tree, &[0.0, 0.0], f64::NAN),
            Err(IndexError::InvalidRadius(_))
        ));
        // Zero stays valid: it returns exact matches only.
        assert!(range(&tree, &[0.0, 0.0], 0.0).is_ok());
    }

    #[test]
    fn traced_range_counts_prunes() {
        let pts = grid_points();
        let tree = MockTree::build(pts, 7);
        let rec = StatsRecorder::new();
        let got = range_with(&tree, &[4.5, 4.5], 1.5, &rec).unwrap();
        assert!(!got.is_empty());
        let s = rec.snapshot();
        assert!(s.counter(Counter::LeafExpansions) > 0);
        // A 1.5-radius ball over a 10x10 grid skips most of the tree.
        assert!(s.counter(Counter::PruneEvents) > 0);
        assert_eq!(
            s.counter(Counter::PruneEvents),
            s.counter(Counter::PruneRect)
        );
    }
}
