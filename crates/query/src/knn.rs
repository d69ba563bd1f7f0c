//! The one search loop behind every query: the depth-first
//! branch-and-bound k-NN search of Roussopoulos, Kelley & Vincent
//! (SIGMOD 1995), generic over the tree it runs on. Best-first order and
//! range queries are the same walk over another frontier or sink.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sr_obs::{Counter, Gauge, Hist, Recorder, SpanTimer};

use crate::heap::{CandidateSet, Neighbor};
use crate::{IndexError, QueryShape, QuerySpec};

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
    /// Clear the per-expansion state, keeping capacity ([`search`] reuses
    /// one `Expansion` for every visit of a query). The kernel scratch
    /// buffers are managed by the kernels themselves.
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

/// A tree that [`search`] can traverse.
pub trait KnnSource {
    /// Opaque node handle (typically a page id plus a leaf flag).
    type Node;

    /// The root node, or `None` for an empty tree.
    fn root(&self) -> Result<Option<Self::Node>, IndexError>;

    /// Expand `node`: push scored children (internal node) or scored
    /// points (leaf) into `out`. `out` arrives cleared.
    ///
    /// `prune2` is the search's current pruning threshold — the running
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

/// The order in which [`search`] visits the branches it cannot prune.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchOrder {
    /// The paper's order (§4.4): depth-first, nearest child first. Every
    /// [`crate::SpatialIndex`] query runs in it.
    DepthFirst,
    /// Best-first ("distance browsing", Hjaltason & Samet; an extension):
    /// always the nearest queued region. A k-NN query then expands only
    /// regions within the final k-th distance, so it reads no more pages
    /// than depth-first; a range query reads the same pages either way.
    BestFirst,
}

/// Answer `spec` over `src`: the `k` nearest neighbors, or every point
/// within the radius (boundary included), ascending by distance with
/// ties broken by payload.
///
/// This is the search of the paper's §4.4: visit children in order of
/// their region distance and prune every branch whose region distance
/// cannot beat the current k-th candidate (for range: exceeds `radius²`).
/// The region distance is the only thing a tree controls — the SR-tree's
/// `max(d_sphere, d_rect)` prunes strictly more than either bound alone.
///
/// One loop serves both kinds and both orders: pop a branch, prune it
/// unless its bound is within the sink's threshold, expand it, offer its
/// points to the sink, push its children onto the frontier. `order`
/// picks the frontier, `spec.shape` the sink. With [`sr_obs::Noop`] as
/// `rec` this monomorphizes to the uninstrumented search.
///
/// # Errors
/// [`IndexError::InvalidRadius`] for a negative or NaN radius — never a
/// panic — and any error of `src`.
pub fn search<S: KnnSource, R: Recorder + ?Sized>(
    src: &S,
    spec: &QuerySpec<'_>,
    order: SearchOrder,
    rec: &R,
) -> Result<Vec<Neighbor>, IndexError> {
    if let QueryShape::Range { radius } = spec.shape {
        if radius.is_nan() || radius < 0.0 {
            return Err(IndexError::InvalidRadius(radius));
        }
    }
    let _span = SpanTimer::start(rec, Hist::QueryNs);
    let mut sink = match spec.shape {
        // A 0-NN query has exactly one right answer, known without
        // reading a page.
        QueryShape::Knn { k: 0 } => return Ok(Vec::new()),
        QueryShape::Knn { k } => Sink::Knn(CandidateSet::new(k)),
        QueryShape::Range { radius } => Sink::Range(radius * radius, Vec::new()),
    };
    let mut frontier = match order {
        SearchOrder::DepthFirst => Frontier::Stack(Vec::new()),
        SearchOrder::BestFirst => Frontier::Heap(BinaryHeap::new(), 0),
    };
    // One expansion serves every visit of the query.
    let mut exp = Expansion::default();
    if let Some(root) = src.root()? {
        // The root's provenance never matters: at distance 0 it is
        // expanded before anything can prune it.
        exp.push_rect_branch(0.0, root);
        frontier.push(&mut exp.branches, sink.bound(), rec);
    }
    while let Some(b) = frontier.pop() {
        // Prune only a region strictly beyond the threshold: one at
        // exactly the k-th distance can hold a tied point with a smaller
        // id, which `CandidateSet::offer`'s tie-break admits. Written as
        // `<=` so a NaN bound (a corrupt region) is pruned, not expanded.
        let thr = sink.bound();
        if b.dist2 <= thr {
            exp.clear();
            src.expand(&b.node, spec.point, thr, &mut exp)?;
            record_expansion(rec, &exp);
            sink.offer(&exp.points);
            frontier.push(&mut exp.branches, sink.bound(), rec);
        } else {
            record_prune(rec, b.bound, thr);
            // A heap pops nearest first and the threshold only shrinks,
            // so every region still queued is pruned too: stop, unless a
            // recorder counts them.
            if matches!(frontier, Frontier::Heap(..)) && !rec.enabled() {
                break;
            }
        }
    }
    if let (Frontier::Stack(_), Sink::Knn(cands)) = (&frontier, &sink) {
        // Depth-first's heap is its candidate set; best-first's node
        // queue is gauged as it grows.
        rec.gauge_max(Gauge::HeapHighWater, cands.len() as u64);
    }
    Ok(sink.into_rows())
}

/// Where a search puts the points it scores, and so what it prunes at.
enum Sink {
    /// k-NN: the best `k` so far; the threshold is the k-th distance.
    Knn(CandidateSet),
    /// Range: every point within the fixed threshold `r²`. An entry whose
    /// partial distance strictly exceeds `r²` can never be `<= r²`, so a
    /// leaf's early-abandon scan is exact here too.
    Range(f64, Vec<Neighbor>),
}

impl Sink {
    /// The pruning threshold: nothing beyond it can join the answer.
    fn bound(&self) -> f64 {
        match self {
            Sink::Knn(cands) => cands.prune_dist2(),
            Sink::Range(r2, _) => *r2,
        }
    }

    fn offer(&mut self, points: &[Neighbor]) {
        match self {
            Sink::Knn(cands) => points.iter().for_each(|n| cands.offer(n.dist2, n.data)),
            Sink::Range(r2, rows) => rows.extend(points.iter().filter(|n| n.dist2 <= *r2)),
        }
    }

    /// The answer, ascending by distance, ties by payload.
    fn into_rows(self) -> Vec<Neighbor> {
        match self {
            Sink::Knn(cands) => cands.into_sorted(),
            Sink::Range(_, mut rows) => {
                rows.sort_by(|a, b| a.dist2.total_cmp(&b.dist2).then(a.data.cmp(&b.data)));
                rows
            }
        }
    }
}

/// The branches a search has yet to visit: the two orders differ only
/// here.
enum Frontier<N> {
    /// Depth-first: the nearest unvisited child of the deepest expanded
    /// node on top. A branch meets the threshold when it is popped, just
    /// when the recursive search would have reached it.
    Stack(Vec<Branch<N>>),
    /// Best-first: nodes only, nearest first, ties by push count. Points
    /// never wait here: they go straight to the sink.
    Heap(BinaryHeap<Queued<N>>, u64),
}

impl<N> Frontier<N> {
    fn pop(&mut self) -> Option<Branch<N>> {
        match self {
            Frontier::Stack(stack) => stack.pop(),
            Frontier::Heap(heap, _) => heap.pop().map(|q| q.0),
        }
    }

    /// Queue an expanded node's children, leaving `children` empty;
    /// `thr` is the sink's threshold once the node's points are in.
    fn push<R: Recorder + ?Sized>(&mut self, children: &mut Vec<Branch<N>>, thr: f64, rec: &R) {
        match self {
            Frontier::Stack(stack) => {
                // Nearer regions first: they tighten the pruning bound
                // fastest, which is what lets the later, farther siblings
                // be skipped. Pushed reversed, so the nearest pops first
                // and ties pop in entry order.
                children.sort_by(|a, b| a.dist2.total_cmp(&b.dist2));
                stack.extend(children.drain(..).rev());
            }
            Frontier::Heap(heap, pushed) => {
                // Only bounds within the threshold are queued, so no NaN.
                for b in children.drain(..) {
                    if b.dist2 <= thr {
                        *pushed += 1;
                        heap.push(Queued(b, *pushed));
                    } else {
                        record_prune(rec, b.bound, thr);
                    }
                }
                rec.gauge_max(Gauge::HeapHighWater, heap.len() as u64);
            }
        }
    }
}

/// A best-first heap entry and its push count. `BinaryHeap` pops its
/// greatest entry, so the nearer region compares greater, then the
/// earlier push.
struct Queued<N>(Branch<N>, u64);

impl<N> Ord for Queued<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.dist2.total_cmp(&self.0.dist2)).then(other.1.cmp(&self.1))
    }
}
impl<N> PartialOrd for Queued<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<N> PartialEq for Queued<N> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl<N> Eq for Queued<N> {}

/// Count one node expansion: node-vs-leaf split, points scored, branches
/// considered, fan-out histogram.
fn record_expansion<N, R: Recorder + ?Sized>(rec: &R, exp: &Expansion<N>) {
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

/// Count one branch pruned at threshold `thr`, attributing the event to
/// every shape whose bound alone lies strictly beyond it.
fn record_prune<R: Recorder + ?Sized>(rec: &R, bound: RegionBound, thr: f64) {
    rec.incr(Counter::PruneEvents, 1);
    match bound {
        RegionBound::Rect => rec.incr(Counter::PruneRect, 1),
        RegionBound::Sphere => rec.incr(Counter::PruneSphere, 1),
        RegionBound::Max { sphere2, rect2 } => {
            if sphere2 > thr {
                rec.incr(Counter::PruneSphere, 1);
            }
            if rect2 > thr {
                rec.incr(Counter::PruneRect, 1);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod mock {
    //! A tiny in-memory binary "index" over points, used to test the
    //! search without dragging a real tree in: splits points in half on
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
    use crate::bruteforce::{brute_force_knn, brute_force_range};
    use sr_obs::{Noop, StatsRecorder};

    fn knn_with<R: Recorder>(
        tree: &MockTree,
        q: &[f32],
        k: usize,
        rec: &R,
    ) -> Result<Vec<Neighbor>, IndexError> {
        search(tree, &QuerySpec::knn(q, k), SearchOrder::DepthFirst, rec)
    }

    fn knn(tree: &MockTree, q: &[f32], k: usize) -> Result<Vec<Neighbor>, IndexError> {
        knn_with(tree, q, k, &Noop)
    }

    fn knn_best_first_with<R: Recorder>(
        tree: &MockTree,
        q: &[f32],
        k: usize,
        rec: &R,
    ) -> Result<Vec<Neighbor>, IndexError> {
        search(tree, &QuerySpec::knn(q, k), SearchOrder::BestFirst, rec)
    }

    fn knn_best_first(tree: &MockTree, q: &[f32], k: usize) -> Result<Vec<Neighbor>, IndexError> {
        knn_best_first_with(tree, q, k, &Noop)
    }

    fn range_with<R: Recorder>(
        tree: &MockTree,
        q: &[f32],
        radius: f64,
        rec: &R,
    ) -> Result<Vec<Neighbor>, IndexError> {
        search(
            tree,
            &QuerySpec::range(q, radius),
            SearchOrder::DepthFirst,
            rec,
        )
    }

    fn range(tree: &MockTree, q: &[f32], radius: f64) -> Result<Vec<Neighbor>, IndexError> {
        range_with(tree, q, radius, &Noop)
    }

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
            thr,
        );
        // Both suffice.
        record_prune(
            &rec,
            RegionBound::Max {
                sphere2: 11.0,
                rect2: 13.0,
            },
            thr,
        );
        let s = rec.snapshot();
        assert_eq!(s.counter(Counter::PruneEvents), 2);
        assert_eq!(s.counter(Counter::PruneSphere), 2);
        assert_eq!(s.counter(Counter::PruneRect), 1);
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
            let df = knn(&tree, q, k).unwrap();
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
        let _ = knn_with(&tree, &pts[3].0, 5, &df_rec).unwrap();
        let df = df_rec.snapshot();
        assert!(
            s.counter(Counter::NodeExpansions) + s.counter(Counter::LeafExpansions)
                <= df.counter(Counter::NodeExpansions) + df.counter(Counter::LeafExpansions)
        );
    }
}
