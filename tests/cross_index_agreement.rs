//! Integration: all five index structures must return identical answers
//! on identical workloads — the precondition for every comparison the
//! paper makes.

use sr_testkit::TreeKind;
use srtree::dataset::{cluster, real_sim, sample_queries, uniform, ClusterSpec};
use srtree::geometry::Point;
use srtree::pager::PageFile;
use srtree::query::paged::DEFAULT_DATA_AREA;
use srtree::query::{brute_force_knn, SpatialIndex};

/// One tree of each of `kinds` over `points`.
fn build_fleet(kinds: &[TreeKind], points: &[Point]) -> Vec<Box<dyn SpatialIndex>> {
    let with_ids: Vec<(Point, u64)> = points.iter().cloned().zip(0u64..).collect();
    kinds
        .iter()
        .map(|kind| {
            let pf = PageFile::create_in_memory(4096).unwrap();
            kind.build(pf, points[0].dim(), DEFAULT_DATA_AREA, with_ids.clone())
                .unwrap()
        })
        .collect()
}

fn check_agreement(points: &[Point], queries: &[Point], k: usize) {
    let fleet = build_fleet(&TreeKind::ALL, points);
    let flat: Vec<(&[f32], u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    for q in queries {
        let truth = brute_force_knn(flat.iter().copied(), q.coords(), k);
        for tree in &fleet {
            let name = tree.kind_name();
            let got = tree.knn(q.coords(), k).unwrap();
            assert_eq!(got.len(), truth.len(), "{name} length");
            for (g, w) in got.iter().zip(truth.iter()) {
                assert!(
                    (g.dist2 - w.dist2).abs() < 1e-9,
                    "{name}: {} vs {}",
                    g.dist2,
                    w.dist2
                );
            }
            // Deterministic tie-breaking makes even the id lists equal.
            assert_eq!(
                got.iter().map(|n| n.data).collect::<Vec<_>>(),
                truth.iter().map(|n| n.data).collect::<Vec<_>>(),
                "{name} ids"
            );
        }
    }
}

#[test]
fn agreement_on_uniform_data() {
    let points = uniform(1_500, 8, 101);
    let queries = sample_queries(&points, 15, 5);
    check_agreement(&points, &queries, 21);
}

#[test]
fn agreement_on_clustered_data() {
    let points = cluster(
        ClusterSpec {
            clusters: 15,
            points_per_cluster: 80,
            max_radius: 0.04,
        },
        8,
        103,
    );
    let queries = sample_queries(&points, 15, 7);
    check_agreement(&points, &queries, 10);
}

#[test]
fn agreement_on_histogram_data() {
    let points = real_sim(1_200, 16, 107);
    let queries = sample_queries(&points, 10, 9);
    check_agreement(&points, &queries, 21);
}

#[test]
fn agreement_on_low_dimensional_data() {
    let points = uniform(1_000, 2, 109);
    let queries = sample_queries(&points, 15, 11);
    check_agreement(&points, &queries, 5);
}

#[test]
fn agreement_after_deletions() {
    // Delete a third of the points from every dynamic structure and
    // re-check agreement against the surviving ground truth.
    let points = uniform(900, 4, 113);
    let mut fleet = build_fleet(&TreeKind::DYNAMIC, &points);
    let mut survivors: Vec<(Point, u64)> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if i % 3 == 0 {
            for tree in &mut fleet {
                assert!(tree.delete(p.coords(), i as u64).unwrap());
            }
        } else {
            survivors.push((p.clone(), i as u64));
        }
    }
    let flat: Vec<(&[f32], u64)> = survivors.iter().map(|(p, i)| (p.coords(), *i)).collect();
    for (q, _) in survivors.iter().step_by(97) {
        let truth = brute_force_knn(flat.iter().copied(), q.coords(), 9);
        for tree in &fleet {
            let got = tree.knn(q.coords(), 9).unwrap();
            for (g, w) in got.iter().zip(truth.iter()) {
                assert!((g.dist2 - w.dist2).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn range_agreement_across_structures() {
    let points = uniform(800, 4, 127);
    let fleet = build_fleet(&TreeKind::ALL, &points);
    let flat: Vec<(&[f32], u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    for (qi, radius) in [(3usize, 0.2f64), (77, 0.4), (400, 0.6)] {
        let q = points[qi].coords();
        let truth: Vec<u64> = srtree::query::brute_force_range(flat.iter().copied(), q, radius)
            .iter()
            .map(|n| n.data)
            .collect();
        let ids = |v: Vec<srtree::query::Neighbor>| v.iter().map(|n| n.data).collect::<Vec<_>>();
        for tree in &fleet {
            assert_eq!(
                ids(tree.range(q, radius).unwrap()),
                truth,
                "{}",
                tree.kind_name()
            );
        }
    }
}
