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
use srtree::query::{LeafScan, QuerySpec, SpatialIndex};
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

/// The leaf-scan kernels are a pure ablation: identical answers
/// (bitwise), identical `points_scored`, and identical traversal
/// counters across all three modes. Only the early-abandon mode may
/// report `early_abandons`, and abandoned points still count as scored —
/// the under-reporting bug this pins down made early-abandon queries
/// look cheaper than they were.
#[test]
fn scan_modes_agree_bitwise_and_report_identical_work() {
    let dim = 16; // > EARLY_ABANDON_HEAD_DIMS, so the pruning tail runs
    let tree = build(3_000, dim, 83);
    let queries = sample_queries(&uniform(3_000, dim, 83), 12, 89);

    struct ModeRun {
        answers: Vec<Vec<(u64, u64)>>, // per query: (dist2 bits, id)
        scored: u64,
        abandoned: u64,
        expansions: u64,
    }
    let run = |scan: LeafScan| -> ModeRun {
        let rec = StatsRecorder::new();
        let answers = queries
            .iter()
            .map(|q| {
                let spec = QuerySpec::knn(q.coords(), 10).with_scan(scan);
                tree.query(&spec, &rec)
                    .unwrap()
                    .rows
                    .iter()
                    .map(|n| (n.dist2.to_bits(), n.data))
                    .collect()
            })
            .collect();
        let s = rec.snapshot();
        ModeRun {
            answers,
            scored: s.counter(Counter::PointsScored),
            abandoned: s.counter(Counter::EarlyAbandons),
            expansions: s.counter(Counter::NodeExpansions) + s.counter(Counter::LeafExpansions),
        }
    };

    let scalar = run(LeafScan::Scalar);
    let columnar = run(LeafScan::Columnar);
    let early = run(LeafScan::EarlyAbandon);

    assert_eq!(scalar.answers, columnar.answers, "columnar answers drifted");
    assert_eq!(
        scalar.answers, early.answers,
        "early-abandon answers drifted"
    );

    // Scan mode must not change what the traversal visits or how much
    // work is attributed: abandoned points still count as scored.
    assert_eq!(scalar.abandoned, 0, "scalar mode cannot abandon");
    assert_eq!(columnar.abandoned, 0, "plain columnar mode cannot abandon");
    assert!(
        early.abandoned > 0,
        "a 16-dim workload must abandon some tails"
    );
    assert_eq!(scalar.scored, columnar.scored);
    assert_eq!(
        scalar.scored, early.scored,
        "early-abandon under-reports points_scored"
    );
    assert_eq!(scalar.expansions, columnar.expansions);
    assert_eq!(scalar.expansions, early.expansions);
    assert!(
        early.abandoned < early.scored,
        "abandons are a subset of scored points"
    );
}

/// The columnar fast path reads each expanded page exactly once, like
/// the scalar path: `node_expansions == node reads` and
/// `leaf_expansions == leaf reads` hold in every scan mode (the CI
/// accounting gate checks the same identities on the bench artifact).
#[test]
fn expansions_match_page_reads_in_every_scan_mode() {
    let dim = 16;
    let tree = build(2_000, dim, 97);
    let queries = sample_queries(&uniform(2_000, dim, 97), 10, 101);

    for scan in [LeafScan::Scalar, LeafScan::Columnar, LeafScan::EarlyAbandon] {
        let rec = StatsRecorder::new();
        tree.pager().reset_stats();
        for q in &queries {
            let spec = QuerySpec::knn(q.coords(), 10).with_scan(scan);
            let _ = tree.query(&spec, &rec).unwrap();
        }
        let s = rec.snapshot();
        let io = tree.pager().stats();
        assert_eq!(
            s.counter(Counter::NodeExpansions),
            io.logical_reads(PageKind::Node),
            "{scan:?}: node expansions != node reads"
        );
        assert_eq!(
            s.counter(Counter::LeafExpansions),
            io.logical_reads(PageKind::Leaf),
            "{scan:?}: leaf expansions != leaf reads"
        );
    }
}
