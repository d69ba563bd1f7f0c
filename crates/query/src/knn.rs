//! The depth-first branch-and-bound k-NN search of Roussopoulos, Kelley &
//! Vincent (SIGMOD 1995), generic over the tree it runs on.

use sr_obs::{Counter, Gauge, Hist, Noop, Recorder, SpanTimer};

use crate::heap::{CandidateSet, Neighbor};
use crate::IndexError;

/// Which region shape produced a branch's lower bound — the provenance
/// the prune-breakdown metrics attribute skipped branches to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RegionBound {
    /// Rectangle `MINDIST` alone (R\*-tree, K-D-B-tree, VAMSplit R-tree).
    Rect,
    /// Sphere surface distance alone (SS-tree).
    Sphere,
    /// The SR-tree's §4.4 combined bound `max(d_sphere, d_rect)`. Both
    /// squared components are kept so a prune event can be credited to
    /// every shape whose bound would have sufficed on its own — which is
    /// what quantifies the combined bound's advantage: per query,
    /// `PruneEvents >= max(PruneSphere, PruneRect)` by construction, and
    /// any excess over a single shape's count is pruning only the
    /// combination achieves.
    Max {
        /// Squared sphere-surface distance from the query to the region.
        sphere2: f64,
        /// Squared rectangle `MINDIST` from the query to the region.
        rect2: f64,
    },
}

/// A scored child branch: the child's region lower bound, its provenance,
/// and the opaque node handle to expand it with.
#[derive(Clone, Copy, Debug)]
pub struct Branch<N> {
    /// Squared lower bound on the distance from the query point to any
    /// point stored under this branch.
    pub dist2: f64,
    /// Which shape(s) produced `dist2`.
    pub bound: RegionBound,
    /// The tree's node handle.
    pub node: N,
}

/// What a node expands into: scored child branches (internal node) or
/// scored points (leaf). A tree fills exactly one of the two vectors per
/// call; the metrics layer classifies an expansion with no branches as a
/// leaf expansion.
pub struct Expansion<N> {
    /// Child branches with their region lower bounds.
    pub branches: Vec<Branch<N>>,
    /// Leaf points with their exact squared distance from the query.
    pub points: Vec<Neighbor>,
    /// Leaf entries the early-abandon kernel dropped before their full
    /// distance was accumulated. They still count as scanned — the
    /// metrics layer adds them to `PointsScored`, so the counter counts
    /// every entry of every expanded leaf — and are also credited to
    /// their own `EarlyAbandons` counter.
    pub abandoned: u64,
    /// Scratch distances for the columnar kernels, owned here so a
    /// query's leaf scans reuse one allocation.
    pub dist_scratch: Vec<f64>,
    /// Scratch survivor mask for the early-abandon kernel.
    pub alive_scratch: Vec<bool>,
}

impl<N> Default for Expansion<N> {
    fn default() -> Self {
        Expansion {
            branches: Vec::new(),
            points: Vec::new(),
            abandoned: 0,
            dist_scratch: Vec::new(),
            alive_scratch: Vec::new(),
        }
    }
}

impl<N> Expansion<N> {
    /// Clear the per-expansion state, keeping capacity (the engines reuse
    /// `Expansion`s across visits). The kernel scratch buffers are
    /// managed by the kernels themselves.
    pub fn clear(&mut self) {
        self.branches.clear();
        self.points.clear();
        self.abandoned = 0;
    }

    /// Push a leaf point with its exact squared distance.
    pub fn push_point(&mut self, dist2: f64, data: u64) {
        self.points.push(Neighbor { dist2, data });
    }

    /// Push a branch bounded by a rectangle `MINDIST` alone.
    pub fn push_rect_branch(&mut self, rect2: f64, node: N) {
        self.branches.push(Branch {
            dist2: rect2,
            bound: RegionBound::Rect,
            node,
        });
    }

    /// Push a branch bounded by a sphere surface distance alone.
    pub fn push_sphere_branch(&mut self, sphere2: f64, node: N) {
        self.branches.push(Branch {
            dist2: sphere2,
            bound: RegionBound::Sphere,
            node,
        });
    }

    /// Push a branch bounded by the SR-tree's `max(d_sphere, d_rect)`.
    pub fn push_max_branch(&mut self, sphere2: f64, rect2: f64, node: N) {
        self.branches.push(Branch {
            dist2: sphere2.max(rect2),
            bound: RegionBound::Max { sphere2, rect2 },
            node,
        });
    }
}

/// A tree that the generic k-NN / range engines can traverse.
pub trait KnnSource {
    /// Opaque node handle (typically a page id plus a leaf flag).
    type Node;

    /// The root node, or `None` for an empty tree.
    fn root(&self) -> Result<Option<Self::Node>, IndexError>;

    /// Expand `node`: push scored children (internal node) or scored
    /// points (leaf) into `out`. `out` arrives cleared.
    ///
    /// `prune2` is the engine's current pruning threshold — the running
    /// k-th candidate's squared distance (`+inf` until `k` candidates
    /// exist) or a range query's squared radius. A leaf scan may use it
    /// to abandon entries whose partial distance already exceeds it
    /// *strictly*; abandoned entries are counted in `out.abandoned`, not
    /// pushed as points.
    fn expand(
        &self,
        node: &Self::Node,
        query: &[f32],
        prune2: f64,
        out: &mut Expansion<Self::Node>,
    ) -> Result<(), IndexError>;
}

/// Count one node expansion: node-vs-leaf split, points scored, branches
/// considered, fan-out histogram.
pub(crate) fn record_expansion<N, R: Recorder + ?Sized>(rec: &R, exp: &Expansion<N>) {
    if exp.branches.is_empty() {
        rec.incr(Counter::LeafExpansions, 1);
    } else {
        rec.incr(Counter::NodeExpansions, 1);
        rec.incr(Counter::BranchesConsidered, exp.branches.len() as u64);
        rec.observe(Hist::NodeFanout, exp.branches.len() as u64);
    }
    // Abandoned entries were visited by the scan — only their distance
    // accumulation stopped early — so they stay in `PointsScored` and
    // are credited to their own counter on top.
    rec.incr(
        Counter::PointsScored,
        exp.points.len() as u64 + exp.abandoned,
    );
    rec.incr(Counter::EarlyAbandons, exp.abandoned);
}

/// Count one pruned branch, attributing the event to every shape whose
/// bound would have pruned on its own (`would_prune` applies the engine's
/// prune comparison — `> thr` for k-NN, `> r²` for range).
pub(crate) fn record_prune<R: Recorder + ?Sized>(
    rec: &R,
    bound: RegionBound,
    would_prune: impl Fn(f64) -> bool,
) {
    rec.incr(Counter::PruneEvents, 1);
    match bound {
        RegionBound::Rect => rec.incr(Counter::PruneRect, 1),
        RegionBound::Sphere => rec.incr(Counter::PruneSphere, 1),
        RegionBound::Max { sphere2, rect2 } => {
            if would_prune(sphere2) {
                rec.incr(Counter::PruneSphere, 1);
            }
            if would_prune(rect2) {
                rec.incr(Counter::PruneRect, 1);
            }
        }
    }
}

/// Find the `k` nearest neighbors of `query`, sorted by ascending
/// distance.
///
/// This is the algorithm the paper's §4.4 describes: a depth-first
/// traversal that visits children in order of their region distance and
/// prunes every branch whose region distance cannot beat the current k-th
/// candidate. The quality of the region distance is the only thing a tree
/// controls — the SR-tree's `max(d_sphere, d_rect)` bound prunes strictly
/// more than either bound alone.
pub fn knn<S: KnnSource>(src: &S, query: &[f32], k: usize) -> Result<Vec<Neighbor>, IndexError> {
    knn_with(src, query, k, &Noop)
}

/// [`knn`] with a metrics recorder. With [`Noop`] this monomorphizes to
/// exactly the uninstrumented search.
pub fn knn_with<S: KnnSource, R: Recorder + ?Sized>(
    src: &S,
    query: &[f32],
    k: usize,
    rec: &R,
) -> Result<Vec<Neighbor>, IndexError> {
    let _span = SpanTimer::start(rec, Hist::QueryNs);
    if k == 0 {
        // A 0-NN query has exactly one right answer, known without
        // reading a page.
        return Ok(Vec::new());
    }
    let mut cands = CandidateSet::new(k);
    let mut pool = Vec::new();
    if let Some(root) = src.root()? {
        visit(src, &root, query, &mut cands, rec, &mut pool)?;
    }
    rec.gauge_max(Gauge::HeapHighWater, cands.len() as u64);
    Ok(cands.into_sorted())
}

fn visit<S: KnnSource, R: Recorder + ?Sized>(
    src: &S,
    node: &S::Node,
    query: &[f32],
    cands: &mut CandidateSet,
    rec: &R,
    pool: &mut Vec<Expansion<S::Node>>,
) -> Result<(), IndexError> {
    // Recycle an expansion from the pool: the depth-first walk would
    // otherwise allocate fresh vectors at every level of every path.
    let mut exp = pool.pop().unwrap_or_default();
    exp.clear();
    src.expand(node, query, cands.prune_dist2(), &mut exp)?;
    record_expansion(rec, &exp);
    for n in &exp.points {
        cands.offer(n.dist2, n.data);
    }
    // Visit nearer regions first: they tighten the pruning bound fastest,
    // which is what lets the later, farther siblings be skipped.
    exp.branches.sort_by(|a, b| {
        a.dist2
            .partial_cmp(&b.dist2)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for b in &exp.branches {
        // Prune only a region strictly beyond the k-th distance: one at
        // exactly that distance can hold a tied point with a smaller id,
        // which `CandidateSet::offer`'s tie-break admits.
        let thr = cands.prune_dist2();
        if b.dist2 <= thr {
            visit(src, &b.node, query, cands, rec, pool)?;
        } else {
            record_prune(rec, b.bound, |c| c > thr);
        }
    }
    pool.push(exp);
    Ok(())
}

#[cfg(test)]
pub(crate) mod mock {
    //! A tiny in-memory binary "index" over points, used to test the
    //! engine without dragging a real tree in: splits points in half on
    //! the widest dimension and bounds each half with a rectangle. Nodes
    //! live in an arena and node handles are arena indices, so the mock
    //! stays within `#![forbid(unsafe_code)]`.

    use super::*;

    pub enum MockNode {
        Inner {
            lo: Vec<f32>,
            hi: Vec<f32>,
            children: Vec<usize>,
        },
        Leaf {
            lo: Vec<f32>,
            hi: Vec<f32>,
            points: Vec<(Vec<f32>, u64)>,
        },
    }

    impl MockNode {
        fn bounds(points: &[(Vec<f32>, u64)]) -> (Vec<f32>, Vec<f32>) {
            let d = points[0].0.len();
            let mut lo = vec![f32::INFINITY; d];
            let mut hi = vec![f32::NEG_INFINITY; d];
            for (p, _) in points {
                for i in 0..d {
                    lo[i] = lo[i].min(p[i]);
                    hi[i] = hi[i].max(p[i]);
                }
            }
            (lo, hi)
        }

        fn min_dist2(&self, q: &[f32]) -> f64 {
            let (lo, hi) = match self {
                MockNode::Inner { lo, hi, .. } => (lo, hi),
                MockNode::Leaf { lo, hi, .. } => (lo, hi),
            };
            let mut acc = 0.0f64;
            for i in 0..q.len() {
                let d = if q[i] < lo[i] {
                    (lo[i] - q[i]) as f64
                } else if q[i] > hi[i] {
                    (q[i] - hi[i]) as f64
                } else {
                    0.0
                };
                acc += d * d;
            }
            acc
        }
    }

    /// Node arena; index 0 is the root.
    pub struct MockTree {
        nodes: Vec<MockNode>,
    }

    impl MockTree {
        pub fn build(points: Vec<(Vec<f32>, u64)>, leaf_cap: usize) -> MockTree {
            let mut tree = MockTree { nodes: Vec::new() };
            tree.build_node(points, leaf_cap);
            tree
        }

        /// Append the subtree over `points` to the arena, returning its
        /// root's index.
        fn build_node(&mut self, mut points: Vec<(Vec<f32>, u64)>, leaf_cap: usize) -> usize {
            let (lo, hi) = MockNode::bounds(&points);
            let id = self.nodes.len();
            if points.len() <= leaf_cap {
                self.nodes.push(MockNode::Leaf { lo, hi, points });
                return id;
            }
            let d = lo.len();
            let dim = (0..d)
                .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
                .unwrap_or(0);
            points.sort_by(|a, b| a.0[dim].total_cmp(&b.0[dim]));
            let right = points.split_off(points.len() / 2);
            // Reserve the inner node's slot before recursing so the root
            // of the whole tree stays at index 0.
            self.nodes.push(MockNode::Inner {
                lo,
                hi,
                children: Vec::new(),
            });
            let left_id = self.build_node(points, leaf_cap);
            let right_id = self.build_node(right, leaf_cap);
            if let MockNode::Inner { children, .. } = &mut self.nodes[id] {
                *children = vec![left_id, right_id];
            }
            id
        }
    }

    impl KnnSource for MockTree {
        type Node = usize;

        fn root(&self) -> Result<Option<Self::Node>, IndexError> {
            Ok((!self.nodes.is_empty()).then_some(0))
        }

        fn expand(
            &self,
            node: &Self::Node,
            query: &[f32],
            _prune2: f64,
            out: &mut Expansion<Self::Node>,
        ) -> Result<(), IndexError> {
            match &self.nodes[*node] {
                MockNode::Inner { children, .. } => {
                    for &c in children {
                        out.push_rect_branch(self.nodes[c].min_dist2(query), c);
                    }
                }
                MockNode::Leaf { points, .. } => {
                    for (p, id) in points {
                        let mut d = 0.0f64;
                        for i in 0..p.len() {
                            // Widen before subtracting, matching the
                            // geometry kernel's rounding exactly.
                            let t = p[i] as f64 - query[i] as f64;
                            d += t * t;
                        }
                        out.push_point(d, *id);
                    }
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mock::MockTree;
    use super::*;
    use crate::bruteforce::brute_force_knn;
    use sr_obs::StatsRecorder;

    fn pseudo_points(n: usize, d: usize, seed: u64) -> Vec<(Vec<f32>, u64)> {
        // Deterministic xorshift so the test needs no external RNG.
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
    fn knn_matches_brute_force() {
        for d in [2usize, 8, 16] {
            let pts = pseudo_points(500, d, 42 + d as u64);
            let tree = MockTree::build(pts.clone(), 16);
            let flat: Vec<(&[f32], u64)> = pts.iter().map(|(p, id)| (p.as_slice(), *id)).collect();
            for (qi, k) in [(0usize, 1usize), (13, 5), (77, 21)] {
                let q = &pts[qi].0;
                let got = knn(&tree, q, k).unwrap();
                let want = brute_force_knn(flat.iter().copied(), q, k);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!(
                        (g.dist2 - w.dist2).abs() < 1e-9,
                        "d={d} k={k}: {} vs {}",
                        g.dist2,
                        w.dist2
                    );
                }
            }
        }
    }

    #[test]
    fn knn_with_k_larger_than_dataset() {
        let pts = pseudo_points(10, 4, 7);
        let tree = MockTree::build(pts.clone(), 4);
        let got = knn(&tree, &pts[0].0, 50).unwrap();
        assert_eq!(got.len(), 10);
        // sorted ascending
        for w in got.windows(2) {
            assert!(w[0].dist2 <= w[1].dist2);
        }
    }

    #[test]
    fn self_query_returns_self_first() {
        let pts = pseudo_points(100, 8, 99);
        let tree = MockTree::build(pts.clone(), 8);
        let got = knn(&tree, &pts[42].0, 1).unwrap();
        assert_eq!(got[0].dist2, 0.0);
    }

    #[test]
    fn traced_knn_counts_expansions_and_prunes() {
        let pts = pseudo_points(500, 8, 1234);
        let tree = MockTree::build(pts.clone(), 16);
        let rec = StatsRecorder::new();
        let got = knn_with(&tree, &pts[7].0, 5, &rec).unwrap();
        let plain = knn(&tree, &pts[7].0, 5).unwrap();
        assert_eq!(got, plain, "tracing must not change results");
        let s = rec.snapshot();
        assert!(s.counter(Counter::NodeExpansions) > 0);
        assert!(s.counter(Counter::LeafExpansions) > 0);
        assert!(s.counter(Counter::PointsScored) >= 5);
        // Every branch either got expanded (as a node or leaf) or pruned;
        // the root is expanded without ever being a branch.
        let expanded = s.counter(Counter::NodeExpansions) + s.counter(Counter::LeafExpansions) - 1;
        assert_eq!(
            s.counter(Counter::BranchesConsidered),
            expanded + s.counter(Counter::PruneEvents)
        );
        // The mock scores branches with rectangles only.
        assert_eq!(
            s.counter(Counter::PruneEvents),
            s.counter(Counter::PruneRect)
        );
        assert_eq!(s.counter(Counter::PruneSphere), 0);
        assert_eq!(s.gauge(Gauge::HeapHighWater), 5);
        assert_eq!(s.hist(Hist::QueryNs).count, 1);
    }

    #[test]
    fn max_bound_prune_attribution_credits_each_sufficient_shape() {
        let rec = StatsRecorder::new();
        let thr = 10.0;
        // Sphere alone suffices.
        record_prune(
            &rec,
            RegionBound::Max {
                sphere2: 12.0,
                rect2: 5.0,
            },
            |c| c > thr,
        );
        // Both suffice.
        record_prune(
            &rec,
            RegionBound::Max {
                sphere2: 11.0,
                rect2: 13.0,
            },
            |c| c > thr,
        );
        let s = rec.snapshot();
        assert_eq!(s.counter(Counter::PruneEvents), 2);
        assert_eq!(s.counter(Counter::PruneSphere), 2);
        assert_eq!(s.counter(Counter::PruneRect), 1);
    }
}
