//! Integration: the per-query prune breakdown recorded by `sr-obs`
//! quantifies the paper's §4.4 claim — the combined lower bound
//! `max(d_sphere, d_rect)` prunes at least as well as either shape's
//! bound alone.
//!
//! Attribution semantics: under `DistanceBound::Both`, a prune event
//! credits *every* shape whose bound alone would have sufficed, so per
//! query `prune_events >= max(prune_sphere, prune_rect)` holds by
//! construction, and the excess of `prune_events` over a single shape's
//! count is exactly the advantage of combining them.

use srtree::dataset::{sample_queries, uniform};
use srtree::obs::{Counter, StatsRecorder};
use srtree::pager::PageKind;
use srtree::query::{brute_force_knn, QuerySpec, SpatialIndex};
use srtree::tree::{DistanceBound, SrTree};

fn build(n: usize, dim: usize, seed: u64) -> SrTree {
    let points = uniform(n, dim, seed);
    let mut tree = SrTree::create_in_memory(dim, 4096).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree
}

#[test]
fn combined_bound_prunes_at_least_each_single_shape() {
    let dim = 16;
    let tree = build(3_000, dim, 59);
    let queries = sample_queries(&uniform(3_000, dim, 59), 15, 61);

    let rec = StatsRecorder::new();
    let mut before = rec.snapshot();
    let mut saw_sphere_prune = false;
    let mut saw_rect_prune = false;

    for q in &queries {
        let _ = tree
            .knn_bounded_with(q.coords(), 10, DistanceBound::Both, &rec)
            .unwrap();
        let now = rec.snapshot();
        let w = now.since(&before);
        before = now;

        let events = w.counter(Counter::PruneEvents);
        let sphere = w.counter(Counter::PruneSphere);
        let rect = w.counter(Counter::PruneRect);
        assert!(
            events >= sphere.max(rect),
            "per query, the combined bound must prune at least as much as \
             either shape alone: events {events}, sphere {sphere}, rect {rect}"
        );
        assert!(
            w.counter(Counter::NodeExpansions) + w.counter(Counter::LeafExpansions) > 0,
            "a knn query over 3000 points must expand nodes"
        );
        saw_sphere_prune |= sphere > 0;
        saw_rect_prune |= rect > 0;
    }

    // Across the workload both shapes must contribute — that is the
    // point of storing both (paper §4.4, Figures 8-10).
    assert!(saw_sphere_prune, "sphere bound never achieved a prune");
    assert!(saw_rect_prune, "rect bound never achieved a prune");
}

#[test]
fn combined_bound_expands_no_more_nodes_than_single_shapes() {
    let dim = 16;
    let tree = build(3_000, dim, 67);
    let queries = sample_queries(&uniform(3_000, dim, 67), 10, 71);

    let expansions = |bound: DistanceBound| -> u64 {
        let rec = StatsRecorder::new();
        for q in &queries {
            let _ = tree.knn_bounded_with(q.coords(), 10, bound, &rec).unwrap();
        }
        let s = rec.snapshot();
        s.counter(Counter::NodeExpansions) + s.counter(Counter::LeafExpansions)
    };

    let both = expansions(DistanceBound::Both);
    let sphere_only = expansions(DistanceBound::SphereOnly);
    let rect_only = expansions(DistanceBound::RectOnly);
    assert!(
        both <= sphere_only,
        "combined bound must not expand more than sphere-only ({both} > {sphere_only})"
    );
    assert!(
        both <= rect_only,
        "combined bound must not expand more than rect-only ({both} > {rect_only})"
    );
}

#[test]
fn results_identical_across_bounds_while_counters_differ() {
    let dim = 8;
    let tree = build(1_000, dim, 73);
    let q = sample_queries(&uniform(1_000, dim, 73), 1, 79);
    let q = q[0].coords();

    let rec = StatsRecorder::new();
    let both = tree
        .knn_bounded_with(q, 10, DistanceBound::Both, &rec)
        .unwrap();
    let sphere = tree
        .knn_with_bound(q, 10, DistanceBound::SphereOnly)
        .unwrap();
    let rect = tree.knn_with_bound(q, 10, DistanceBound::RectOnly).unwrap();
    let ids = |v: &[srtree::query::Neighbor]| v.iter().map(|n| n.data).collect::<Vec<_>>();
    assert_eq!(ids(&both), ids(&sphere));
    assert_eq!(ids(&both), ids(&rect));

    let s = rec.snapshot();
    assert_eq!(s.hist(srtree::obs::Hist::QueryNs).count, 1);
    assert!(s.counter(Counter::PointsScored) >= 10);
}

/// Early-abandoned leaf entries still count as scored work: a query
/// reports every entry of every leaf it expands in `points_scored`, and
/// the abandoned ones once more in `early_abandons`. The under-reporting
/// bug this pins down made early-abandon queries look cheaper than they
/// were. Answers match the brute-force oracle bit for bit, id for id.
#[test]
fn abandoned_entries_count_as_scored_work() {
    let dim = 16; // > EARLY_ABANDON_HEAD_DIMS, so the pruning tail runs
    let points = uniform(3_000, dim, 83);
    let tree = build(3_000, dim, 83);
    let queries = sample_queries(&points, 12, 89);
    let flat = || (points.iter().enumerate()).map(|(i, p)| (p.coords(), i as u64));

    let rec = StatsRecorder::new();
    for q in &queries {
        let got = tree.query(&QuerySpec::knn(q.coords(), 10), &rec).unwrap();
        assert_eq!(got.rows, brute_force_knn(flat(), q.coords(), 10));
    }
    let s = rec.snapshot();
    let scored = s.counter(Counter::PointsScored);
    let abandoned = s.counter(Counter::EarlyAbandons);
    assert!(abandoned > 0, "a 16-dim workload must abandon some tails");
    assert!(abandoned < scored, "abandons are a subset of scored points");
    // Every leaf of a tree taller than one level holds at least
    // `min_leaf` entries, and each of them is scored.
    let min_leaf = tree.params().min_leaf as u64;
    assert!(
        scored >= s.counter(Counter::LeafExpansions) * min_leaf,
        "points_scored {scored} under-reports the expanded leaves"
    );

    // A range query over everything scores each stored point exactly once.
    let rec = StatsRecorder::new();
    let all = tree.query(&QuerySpec::range(queries[0].coords(), f64::INFINITY), &rec);
    assert_eq!(all.unwrap().rows.len(), points.len());
    let s = rec.snapshot();
    assert_eq!(s.counter(Counter::PointsScored), points.len() as u64);
    assert_eq!(s.counter(Counter::EarlyAbandons), 0);
}

/// The columnar leaf scan reads each expanded page exactly once:
/// `node_expansions == node reads` and `leaf_expansions == leaf reads`
/// (the CI accounting gate checks the same identities on a trace).
#[test]
fn expansions_match_page_reads() {
    let dim = 16;
    let tree = build(2_000, dim, 97);
    let queries = sample_queries(&uniform(2_000, dim, 97), 10, 101);

    let rec = StatsRecorder::new();
    tree.pager().reset_stats();
    for q in &queries {
        let _ = tree.query(&QuerySpec::knn(q.coords(), 10), &rec).unwrap();
    }
    let s = rec.snapshot();
    let io = tree.pager().stats();
    assert_eq!(
        s.counter(Counter::NodeExpansions),
        io.logical_reads(PageKind::Node),
        "node expansions != node reads"
    );
    assert_eq!(
        s.counter(Counter::LeafExpansions),
        io.logical_reads(PageKind::Leaf),
        "leaf expansions != leaf reads"
    );
}
