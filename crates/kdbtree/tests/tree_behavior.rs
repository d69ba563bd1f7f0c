//! Behavioral tests of the K-D-B-tree.

#![cfg(test)]

use sr_dataset::{cluster, real_sim, uniform, ClusterSpec};
use sr_geometry::Point;
use sr_kdbtree::{verify, KdbTree, TreeError};
use sr_pager::PageFile;
use sr_query::brute_force_knn;

const SMALL_PAGE: usize = 1024;

fn build(points: &[Point], page: usize) -> KdbTree {
    let mut t = KdbTree::create_from(
        PageFile::create_in_memory(page).unwrap(),
        points[0].dim(),
        64,
    )
    .unwrap();
    for (i, p) in points.iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
    }
    t
}

fn assert_knn_matches(tree: &KdbTree, points: &[Point], queries: &[Point], k: usize) {
    let flat: Vec<(&[f32], u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    for q in queries {
        let got = tree.knn(q.coords(), k).unwrap();
        let want = brute_force_knn(flat.iter().copied(), q.coords(), k);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist2 - w.dist2).abs() < 1e-9);
        }
    }
}

#[test]
fn invariants_hold_during_growth() {
    let pts = uniform(600, 4, 11);
    let mut t =
        KdbTree::create_from(PageFile::create_in_memory(SMALL_PAGE).unwrap(), 4, 64).unwrap();
    for (i, p) in pts.iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
        if i % 97 == 0 {
            verify::check(&t).unwrap();
        }
    }
    let report = verify::check(&t).unwrap();
    assert_eq!(report.points, 600);
    assert!(t.height() >= 3);
}

#[test]
fn knn_matches_brute_force_uniform() {
    let pts = uniform(800, 8, 5);
    let t = build(&pts, 2048);
    let queries = sr_dataset::sample_queries(&pts, 20, 3);
    assert_knn_matches(&t, &pts, &queries, 21);
}

#[test]
fn knn_matches_brute_force_clustered() {
    // Clustered data maximizes forced splits (many overlapping region
    // boundaries in a small volume).
    let pts = cluster(
        ClusterSpec {
            clusters: 10,
            points_per_cluster: 60,
            max_radius: 0.05,
        },
        6,
        9,
    );
    let t = build(&pts, 2048);
    verify::check(&t).unwrap();
    let queries = sr_dataset::sample_queries(&pts, 20, 4);
    assert_knn_matches(&t, &pts, &queries, 10);
}

#[test]
fn knn_matches_brute_force_histograms() {
    let pts = real_sim(500, 16, 21);
    let t = build(&pts, 8192);
    let queries = sr_dataset::sample_queries(&pts, 10, 8);
    assert_knn_matches(&t, &pts, &queries, 21);
}

#[test]
fn range_matches_brute_force() {
    let pts = uniform(500, 4, 23);
    let t = build(&pts, 1024);
    let flat: Vec<(&[f32], u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    for (qi, r) in [(0usize, 0.1f64), (100, 0.3), (250, 0.5)] {
        let q = pts[qi].coords();
        let got = t.range(q, r).unwrap();
        let want = sr_query::brute_force_range(flat.iter().copied(), q, r);
        assert_eq!(
            got.iter().map(|n| n.data).collect::<Vec<_>>(),
            want.iter().map(|n| n.data).collect::<Vec<_>>()
        );
    }
}

#[test]
fn contains_finds_every_point_single_path() {
    let pts = uniform(400, 5, 31);
    let t = build(&pts, 1024);
    for (i, p) in pts.iter().enumerate() {
        assert!(t.contains(p, i as u64).unwrap());
        assert!(!t.contains(p, u64::MAX).unwrap());
    }
}

#[test]
fn point_query_reads_one_page_per_level() {
    // The paper's §2.1: disjointness makes the point-query path a single
    // branch, so reads == height.
    let pts = uniform(2000, 4, 37);
    let t = build(&pts, 1024);
    t.pager().set_cache_capacity(0).unwrap();
    t.pager().reset_stats();
    let p = &pts[123];
    assert!(t.contains(p, 123).unwrap());
    let reads = t.pager().stats().tree_reads();
    assert_eq!(reads, t.height() as u64);
}

#[test]
fn coincident_point_overflow_is_reported() {
    let mut t =
        KdbTree::create_from(PageFile::create_in_memory(SMALL_PAGE).unwrap(), 2, 64).unwrap();
    let p = Point::new(vec![0.5f32, 0.5]);
    let mut err = None;
    for i in 0..200 {
        match t.insert(p.clone(), i) {
            Ok(()) => {}
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    assert!(
        matches!(err, Some(TreeError::Unsplittable)),
        "expected Unsplittable, got {err:?}"
    );
}

#[test]
fn delete_removes_points() {
    let pts = uniform(300, 4, 41);
    let mut t = build(&pts, SMALL_PAGE);
    for (i, p) in pts.iter().enumerate() {
        if i % 3 == 0 {
            assert!(t.delete(p, i as u64).unwrap());
        }
    }
    verify::check(&t).unwrap();
    for (i, p) in pts.iter().enumerate() {
        assert_eq!(t.contains(p, i as u64).unwrap(), i % 3 != 0);
    }
    let survivors: Vec<(&[f32], u64)> = pts
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    let q = pts[1].coords();
    let got = t.knn(q, 9).unwrap();
    let want = brute_force_knn(survivors.iter().copied(), q, 9);
    for (g, w) in got.iter().zip(want.iter()) {
        assert!((g.dist2 - w.dist2).abs() < 1e-9);
    }
}

#[test]
fn delete_missing_point_returns_false() {
    let pts = uniform(50, 2, 47);
    let mut t = build(&pts, 1024);
    assert!(!t.delete(&Point::new(vec![42.0f32, 42.0]), 0).unwrap());
    assert_eq!(t.len(), 50);
}

#[test]
fn persistence_roundtrip() {
    let dir = std::env::temp_dir().join(format!("sr-kdb-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.pages");
    let pts = uniform(300, 6, 59);
    {
        let mut t = KdbTree::create(&path, 6).unwrap();
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        t.flush().unwrap();
    }
    {
        let t = KdbTree::open(&path).unwrap();
        assert_eq!(t.len(), 300);
        verify::check(&t).unwrap();
        let queries = sr_dataset::sample_queries(&pts, 5, 61);
        assert_knn_matches(&t, &pts, &queries, 9);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dimension_mismatch_is_an_error() {
    let mut t = KdbTree::create_from(PageFile::create_in_memory(1024).unwrap(), 4, 64).unwrap();
    let wrong = Point::new(vec![1.0f32, 2.0]);
    assert!(t.insert(wrong.clone(), 0).is_err());
    assert!(t.knn(&[0.0, 0.0], 1).is_err());
}

#[test]
fn empty_tree_queries() {
    let t = KdbTree::create_from(PageFile::create_in_memory(1024).unwrap(), 3, 64).unwrap();
    assert!(t.knn(&[0.0, 0.0, 0.0], 5).unwrap().is_empty());
    assert!(t.range(&[0.0, 0.0, 0.0], 10.0).unwrap().is_empty());
    verify::check(&t).unwrap();
}

#[test]
fn negative_coordinates_are_indexed() {
    // The root region must genuinely cover all of space, not just the
    // unit cube.
    let raw: Vec<Vec<f32>> = (0..200)
        .map(|i| vec![(i as f32 - 100.0) * 7.3, (i as f32).sin() * 1e6])
        .collect();
    let pts: Vec<Point> = raw.into_iter().map(Point::new).collect();
    let t = build(&pts, 1024);
    verify::check(&t).unwrap();
    let queries: Vec<Point> = pts.iter().take(10).cloned().collect();
    assert_knn_matches(&t, &pts, &queries, 5);
}

#[test]
fn forced_splits_leave_measurable_debris() {
    // Clustered data forces splits; the verifier counts (legal) empty
    // leaves, demonstrating the no-minimum-utilization property.
    let pts = cluster(
        ClusterSpec {
            clusters: 30,
            points_per_cluster: 40,
            max_radius: 0.02,
        },
        4,
        77,
    );
    let t = build(&pts, SMALL_PAGE);
    let report = verify::check(&t).unwrap();
    assert_eq!(report.points, 1200);
    // Not asserting empty_leaves > 0 (data-dependent), only that the
    // field is tracked and the structure stays valid.
    assert!(report.leaves > 0);
}
