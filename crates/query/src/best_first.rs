//! Best-first ("distance browsing") k-NN — an extension beyond the
//! paper.
//!
//! The paper uses the depth-first branch-and-bound search of
//! Roussopoulos et al. (1995). A year later, Hjaltason & Samet's
//! best-first traversal became the standard: a single global priority
//! queue holds unexpanded regions *and* pending points, always expanding
//! the nearest item. Best-first is **I/O-optimal** for a given tree — it
//! reads exactly the pages whose regions intersect the final k-NN ball —
//! so it lower-bounds what any traversal order can achieve and makes a
//! useful comparison point for the DFS the paper ran (see the
//! `knn_best_first` methods and the equality tests).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sr_obs::{Gauge, Hist, Noop, Recorder, SpanTimer};

use crate::heap::{CandidateSet, Neighbor};
use crate::knn::{record_expansion, record_prune, Expansion, KnnSource, RegionBound};
use crate::IndexError;

enum Item<N> {
    /// An unexpanded region and the provenance of its lower bound (kept
    /// so regions still queued when the search stops can be attributed as
    /// prune events).
    Node(N, RegionBound),
    Point(Neighbor),
}

struct QueueEntry<N> {
    dist2: f64,
    /// Tie-break so points at distance d are surfaced before regions at
    /// distance d (a region can only contain points at ≥ its own
    /// distance, so draining equal-distance points first is safe and
    /// keeps results deterministic).
    point_first: bool,
    seq: u64,
    item: Item<N>,
}

impl<N> PartialEq for QueueEntry<N> {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2 && self.point_first == other.point_first && self.seq == other.seq
    }
}
impl<N> Eq for QueueEntry<N> {}
impl<N> Ord for QueueEntry<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; the entry that should pop first must
        // compare greatest: smaller distance wins, then points before
        // regions, then insertion order.
        debug_assert!(!self.dist2.is_nan() && !other.dist2.is_nan());
        other
            .dist2
            .partial_cmp(&self.dist2)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.point_first.cmp(&other.point_first))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<N> PartialOrd for QueueEntry<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Best-first k-NN over the same [`KnnSource`] the depth-first engine
/// uses. Returns exactly the same neighbors as [`crate::knn`] (both are
/// exact); only the page-access pattern differs.
pub fn knn_best_first<S: KnnSource>(
    src: &S,
    query: &[f32],
    k: usize,
) -> Result<Vec<Neighbor>, IndexError> {
    knn_best_first_with(src, query, k, &Noop)
}

/// [`knn_best_first`] with a metrics recorder. With [`Noop`] this
/// monomorphizes to exactly the uninstrumented search.
pub fn knn_best_first_with<S: KnnSource, R: Recorder + ?Sized>(
    src: &S,
    query: &[f32],
    k: usize,
    rec: &R,
) -> Result<Vec<Neighbor>, IndexError> {
    let _span = SpanTimer::start(rec, Hist::QueryNs);
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut cands = CandidateSet::new(k);
    let mut heap: BinaryHeap<QueueEntry<S::Node>> = BinaryHeap::new();
    let mut seq = 0u64;
    if let Some(root) = src.root()? {
        heap.push(QueueEntry {
            dist2: 0.0,
            point_first: false,
            seq,
            // The root's provenance never matters: at distance 0 it is
            // expanded before anything can prune it.
            item: Item::Node(root, RegionBound::Rect),
        });
    }
    let mut exp = Expansion::default();
    while let Some(entry) = heap.pop() {
        if entry.dist2 > cands.prune_dist2() {
            // Nothing at or inside the k-th distance can surface any
            // more. Every region still queued is a prune event:
            // best-first skips it exactly the way DFS skips a branch
            // beyond the k-th candidate. An entry *at* that distance is
            // still drained: a tied point with a smaller id can win the
            // candidate set's tie-break.
            if rec.enabled() {
                let thr = cands.prune_dist2();
                for e in std::iter::once(entry).chain(heap.drain()) {
                    if let Item::Node(_, bound) = e.item {
                        record_prune(rec, bound, |c| c > thr);
                    }
                }
            }
            break;
        }
        match entry.item {
            Item::Point(n) => cands.offer(n.dist2, n.data),
            Item::Node(node, _) => {
                exp.clear();
                src.expand(&node, query, cands.prune_dist2(), &mut exp)?;
                record_expansion(rec, &exp);
                for n in exp.points.drain(..) {
                    seq += 1;
                    heap.push(QueueEntry {
                        dist2: n.dist2,
                        point_first: true,
                        seq,
                        item: Item::Point(n),
                    });
                }
                for b in exp.branches.drain(..) {
                    let thr = cands.prune_dist2();
                    if b.dist2 <= thr {
                        seq += 1;
                        heap.push(QueueEntry {
                            dist2: b.dist2,
                            point_first: false,
                            seq,
                            item: Item::Node(b.node, b.bound),
                        });
                    } else {
                        record_prune(rec, b.bound, |c| c > thr);
                    }
                }
                rec.gauge_max(Gauge::HeapHighWater, heap.len() as u64);
            }
        }
    }
    Ok(cands.into_sorted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::brute_force_knn;
    use crate::knn::mock::MockTree;
    use sr_obs::{Counter, StatsRecorder};

    fn pseudo_points(n: usize, d: usize, seed: u64) -> Vec<(Vec<f32>, u64)> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f32 / (1u64 << 53) as f32 * 2.0
        };
        (0..n)
            .map(|i| ((0..d).map(|_| next()).collect(), i as u64))
            .collect()
    }

    #[test]
    fn best_first_matches_brute_force() {
        for d in [2usize, 8] {
            let pts = pseudo_points(400, d, 17 + d as u64);
            let tree = MockTree::build(pts.clone(), 16);
            let flat: Vec<(&[f32], u64)> = pts.iter().map(|(p, id)| (p.as_slice(), *id)).collect();
            for (qi, k) in [(0usize, 1usize), (11, 5), (200, 21)] {
                let q = &pts[qi].0;
                let got = knn_best_first(&tree, q, k).unwrap();
                let want = brute_force_knn(flat.iter().copied(), q, k);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!((g.dist2 - w.dist2).abs() < 1e-9, "d={d} k={k}");
                }
            }
        }
    }

    #[test]
    fn best_first_equals_depth_first() {
        let pts = pseudo_points(500, 4, 99);
        let tree = MockTree::build(pts.clone(), 12);
        for k in [1usize, 7, 30] {
            let q = &pts[k].0;
            let bf = knn_best_first(&tree, q, k).unwrap();
            let df = crate::knn(&tree, q, k).unwrap();
            assert_eq!(
                bf.iter().map(|n| n.data).collect::<Vec<_>>(),
                df.iter().map(|n| n.data).collect::<Vec<_>>(),
                "k={k}"
            );
        }
    }

    #[test]
    fn k_larger_than_dataset() {
        let pts = pseudo_points(9, 3, 7);
        let tree = MockTree::build(pts.clone(), 4);
        let got = knn_best_first(&tree, &pts[0].0, 100).unwrap();
        assert_eq!(got.len(), 9);
        for w in got.windows(2) {
            assert!(w[0].dist2 <= w[1].dist2);
        }
    }

    #[test]
    fn traced_best_first_tracks_heap_high_water() {
        let pts = pseudo_points(500, 8, 321);
        let tree = MockTree::build(pts.clone(), 16);
        let rec = StatsRecorder::new();
        let got = knn_best_first_with(&tree, &pts[3].0, 5, &rec).unwrap();
        let plain = knn_best_first(&tree, &pts[3].0, 5).unwrap();
        assert_eq!(got, plain, "tracing must not change results");
        let s = rec.snapshot();
        assert!(s.gauge(Gauge::HeapHighWater) > 0);
        assert!(s.counter(Counter::LeafExpansions) > 0);
        // Best-first reads no more pages than DFS on the same tree.
        let df_rec = StatsRecorder::new();
        let _ = crate::knn_with(&tree, &pts[3].0, 5, &df_rec).unwrap();
        let df = df_rec.snapshot();
        assert!(
            s.counter(Counter::NodeExpansions) + s.counter(Counter::LeafExpansions)
                <= df.counter(Counter::NodeExpansions) + df.counter(Counter::LeafExpansions)
        );
    }
}
