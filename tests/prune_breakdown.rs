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

/// FNV-1a over each row's payload and distance bits: one number that
/// changes when any row, its order or its distance does.
fn rows_digest(rows: &[srtree::query::Neighbor]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for n in rows {
        for b in n
            .data
            .to_le_bytes()
            .into_iter()
            .chain(n.dist2.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The depth-first work counters a workload adds up to, in a fixed order:
/// node and leaf expansions, branches, prune events, sphere and rect
/// prunes, points scored, early abandons, and the heap high-water mark.
fn work(rec: &StatsRecorder) -> [u64; 9] {
    let s = rec.snapshot();
    [
        s.counter(Counter::NodeExpansions),
        s.counter(Counter::LeafExpansions),
        s.counter(Counter::BranchesConsidered),
        s.counter(Counter::PruneEvents),
        s.counter(Counter::PruneSphere),
        s.counter(Counter::PruneRect),
        s.counter(Counter::PointsScored),
        s.counter(Counter::EarlyAbandons),
        s.gauge(srtree::obs::Gauge::HeapHighWater),
    ]
}

/// Pins the depth-first search's exact work on a seeded SR-tree: every
/// counter total, the page reads and each query's rows (as a digest),
/// for k-NN and for range. Any change to the visit order — which child
/// goes first, when a branch is pruned, what threshold a leaf scan sees —
/// moves at least one of these numbers.
#[test]
fn depth_first_work_is_pinned() {
    let dim = 16;
    let tree = build(3_000, dim, 59);
    let queries = sample_queries(&uniform(3_000, dim, 59), 15, 61);

    let run = |spec: &dyn Fn(&[f32]) -> QuerySpec<'_>| {
        let rec = StatsRecorder::new();
        tree.pager().reset_stats();
        let rows: Vec<(usize, u64)> = queries
            .iter()
            .map(|q| {
                let rows = tree.query(&spec(q.coords()), &rec).unwrap().rows;
                (rows.len(), rows_digest(&rows))
            })
            .collect();
        let io = tree.pager().stats();
        let reads = [
            io.logical_reads(PageKind::Node),
            io.logical_reads(PageKind::Leaf),
        ];
        (work(&rec), reads, rows)
    };

    let (knn_work, knn_reads, knn_rows) = run(&|q| QuerySpec::knn(q, 21));
    let (range_work, range_reads, range_rows) = run(&|q| QuerySpec::range(q, 0.9));
    assert_eq!(
        knn_work,
        [1590, 7773, 11835, 2487, 643, 2485, 36945, 34597, 21]
    );
    assert_eq!(knn_reads, [1590, 7773]);
    let knn_digests = [
        0x8db8_5381_2e5a_6642,
        0x9a13_a916_8f9a_cefe,
        0x6362_4515_6ad7_bd48,
        0x28cd_03e6_5206_be42,
        0x050d_f0e4_d663_89b1,
        0xb1ba_ca51_e7fa_501c,
        0x0fac_52b9_7458_8389,
        0x40bb_5809_5dce_185d,
        0x465f_94be_40dd_38a8,
        0x4840_528c_d05c_da7e,
        0xb079_1e86_dce9_6b5a,
        0xaf96_f439_b331_0583,
        0xffac_60c1_6b24_3637,
        0x10df_8d69_9de6_5467,
        0xd60f_23be_e168_3ff7,
    ];
    assert_eq!(knn_rows, knn_digests.map(|d| (21, d)));

    assert_eq!(
        range_work,
        [1590, 4707, 11835, 5553, 2264, 5537, 23733, 23579, 0]
    );
    assert_eq!(range_reads, [1590, 4707]);
    let range_rows_want = [
        (5, 0x258d_5e53_9b69_1096),
        (2, 0xafd7_d7d3_2028_052c),
        (5, 0xfea9_b1a4_ad2f_690b),
        (5, 0x39a2_3e38_f776_2a9b),
        (8, 0x65a0_140f_aa93_78bb),
        (3, 0x83d1_8b2a_0468_d823),
        (2, 0x7716_0b3d_a44a_56eb),
        (3, 0x6bb3_f195_f373_db45),
        (1, 0x1a1f_2496_366f_bc7f),
        (8, 0x337f_8a11_3ff7_b678),
        (7, 0x4e81_c31c_9088_2d6a),
        (5, 0xfba7_81e8_8200_fdfe),
        (2, 0x85fc_1a1f_d058_cfda),
        (10, 0x0dee_e578_ca85_a9a0),
        (1, 0xa515_917e_95d9_35c4),
    ];
    assert_eq!(range_rows, range_rows_want);
}
