//! Behavioral tests of the SR-tree: structural invariants after bulk
//! mutation, query correctness against brute force, deletion, and
//! persistence.

#![cfg(test)]

use sr_dataset::{cluster, real_sim, uniform, ClusterSpec};
use sr_geometry::Point;
use sr_pager::PageFile;
use sr_query::brute_force_knn;
use sr_tree::{verify, SrTree};

/// A small page size keeps fanout low so tests exercise deep trees with
/// few points.
const SMALL_PAGE: usize = 1024;

fn build(points: &[Point], page: usize) -> SrTree {
    let mut t = SrTree::create_from(
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

fn assert_knn_matches(tree: &SrTree, points: &[Point], queries: &[Point], k: usize) {
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
            assert!(
                (g.dist2 - w.dist2).abs() < 1e-9,
                "dist mismatch: {} vs {}",
                g.dist2,
                w.dist2
            );
        }
    }
}

#[test]
fn invariants_hold_during_growth() {
    let pts = uniform(600, 4, 11);
    let mut t =
        SrTree::create_from(PageFile::create_in_memory(SMALL_PAGE).unwrap(), 4, 64).unwrap();
    for (i, p) in pts.iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
        if i % 97 == 0 {
            verify::check(&t).unwrap();
        }
    }
    let report = verify::check(&t).unwrap();
    assert_eq!(report.points, 600);
    assert!(t.height() >= 3, "tree should be deep at this page size");
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
fn knn_off_dataset_queries() {
    // Query points that are not dataset members (corners, outside cube).
    let pts = uniform(400, 3, 17);
    let t = build(&pts, 1024);
    let flat: Vec<(&[f32], u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    for q in [
        vec![0.0f32, 0.0, 0.0],
        vec![1.0, 1.0, 1.0],
        vec![-0.5, 0.5, 2.0],
        vec![0.5, 0.5, 0.5],
    ] {
        let got = t.knn(&q, 7).unwrap();
        let want = brute_force_knn(flat.iter().copied(), &q, 7);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist2 - w.dist2).abs() < 1e-9);
        }
    }
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
    for (qi, r) in [(0usize, 0.1f64), (100, 0.3), (250, 0.5), (499, 1.0)] {
        let q = pts[qi].coords();
        let got = t.range(q, r).unwrap();
        let want = sr_query::brute_force_range(flat.iter().copied(), q, r);
        assert_eq!(
            got.iter().map(|n| n.data).collect::<Vec<_>>(),
            want.iter().map(|n| n.data).collect::<Vec<_>>(),
            "radius {r}"
        );
    }
}

#[test]
fn contains_finds_every_inserted_point() {
    let pts = uniform(300, 5, 31);
    let t = build(&pts, 1024);
    for (i, p) in pts.iter().enumerate() {
        assert!(t.contains(p, i as u64).unwrap(), "point {i} lost");
        assert!(!t.contains(p, u64::MAX).unwrap(), "wrong payload matched");
    }
}

#[test]
fn duplicate_points_are_all_kept() {
    let p = Point::new(vec![0.5f32, 0.5]);
    let mut t = SrTree::create_from(PageFile::create_in_memory(1024).unwrap(), 2, 64).unwrap();
    for i in 0..100 {
        t.insert(p.clone(), i).unwrap();
    }
    assert_eq!(t.len(), 100);
    verify::check(&t).unwrap();
    let got = t.knn(p.coords(), 100).unwrap();
    assert_eq!(got.len(), 100);
    assert!(got.iter().all(|n| n.dist2 == 0.0));
}

#[test]
fn delete_removes_and_preserves_invariants() {
    let pts = uniform(400, 4, 41);
    let mut t = build(&pts, SMALL_PAGE);
    // delete every other point
    for (i, p) in pts.iter().enumerate() {
        if i % 2 == 0 {
            assert!(t.delete(p, i as u64).unwrap(), "point {i} not found");
        }
    }
    assert_eq!(t.len(), 200);
    verify::check(&t).unwrap();
    // deleted points gone, survivors intact
    for (i, p) in pts.iter().enumerate() {
        assert_eq!(t.contains(p, i as u64).unwrap(), i % 2 == 1);
    }
    // queries still correct
    let survivors: Vec<(&[f32], u64)> = pts
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    let q = pts[1].coords();
    let got = t.knn(q, 11).unwrap();
    let want = brute_force_knn(survivors.iter().copied(), q, 11);
    for (g, w) in got.iter().zip(want.iter()) {
        assert!((g.dist2 - w.dist2).abs() < 1e-9);
    }
}

#[test]
fn delete_everything_leaves_empty_tree() {
    let pts = uniform(250, 3, 43);
    let mut t = build(&pts, SMALL_PAGE);
    for (i, p) in pts.iter().enumerate() {
        assert!(t.delete(p, i as u64).unwrap());
    }
    assert!(t.is_empty());
    assert_eq!(t.height(), 1);
    verify::check(&t).unwrap();
    assert!(t.knn(pts[0].coords(), 5).unwrap().is_empty());
}

#[test]
fn delete_missing_point_returns_false() {
    let pts = uniform(50, 2, 47);
    let mut t = build(&pts, 1024);
    let ghost = Point::new(vec![42.0f32, 42.0]);
    assert!(!t.delete(&ghost, 0).unwrap());
    assert_eq!(t.len(), 50);
}

#[test]
fn mixed_insert_delete_churn() {
    let pts = uniform(600, 4, 53);
    let mut t =
        SrTree::create_from(PageFile::create_in_memory(SMALL_PAGE).unwrap(), 4, 64).unwrap();
    // insert first 400
    for (i, p) in pts[..400].iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
    }
    // interleave: delete one old, insert one new
    for i in 0..200 {
        assert!(t.delete(&pts[i], i as u64).unwrap());
        t.insert(pts[400 + i].clone(), (400 + i) as u64).unwrap();
        if i % 50 == 0 {
            verify::check(&t).unwrap();
        }
    }
    assert_eq!(t.len(), 400);
    let report = verify::check(&t).unwrap();
    assert_eq!(report.points, 400);
}

#[test]
fn persistence_roundtrip() {
    let dir = std::env::temp_dir().join(format!("sr-srtree-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.pages");
    let pts = uniform(300, 6, 59);
    {
        let mut t = SrTree::create(&path, 6).unwrap();
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        t.flush().unwrap();
    }
    {
        let t = SrTree::open(&path).unwrap();
        assert_eq!(t.len(), 300);
        assert_eq!(t.dim(), 6);
        verify::check(&t).unwrap();
        let queries = sr_dataset::sample_queries(&pts, 5, 61);
        assert_knn_matches(&t, &pts, &queries, 9);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dimension_mismatch_is_an_error() {
    let mut t = SrTree::create_from(PageFile::create_in_memory(1024).unwrap(), 4, 64).unwrap();
    let wrong = Point::new(vec![1.0f32, 2.0]);
    assert!(t.insert(wrong.clone(), 0).is_err());
    assert!(t.knn(&[0.0, 0.0], 1).is_err());
    assert!(t.delete(&wrong, 0).is_err());
}

#[test]
fn empty_tree_queries() {
    let t = SrTree::create_from(PageFile::create_in_memory(1024).unwrap(), 3, 64).unwrap();
    assert!(t.knn(&[0.0, 0.0, 0.0], 5).unwrap().is_empty());
    assert!(t.range(&[0.0, 0.0, 0.0], 10.0).unwrap().is_empty());
    verify::check(&t).unwrap();
}

#[test]
fn leaf_regions_cover_all_points() {
    let pts = uniform(300, 3, 67);
    let t = build(&pts, 1024);
    let regions = t.leaf_regions().unwrap();
    assert!(!regions.is_empty());
    for p in &pts {
        assert!(
            regions
                .iter()
                .any(|(s, r)| s.contains_point(p.coords(), 1e-5) && r.contains_point(p.coords())),
            "a point escaped every leaf region"
        );
    }
}

#[test]
fn num_leaves_counts_leaves() {
    let pts = uniform(300, 3, 71);
    let t = build(&pts, 1024);
    let n = t.num_leaves().unwrap();
    assert_eq!(n as usize, t.leaf_regions().unwrap().len());
    assert!(n > 1);
}

#[test]
fn disk_reads_are_counted_per_query() {
    let pts = uniform(2000, 8, 73);
    let t = build(&pts, 8192);
    t.pager().set_cache_capacity(0).unwrap();
    t.pager().reset_stats();
    let _ = t.knn(pts[0].coords(), 21).unwrap();
    let s = t.pager().stats();
    assert!(s.tree_reads() > 0);
    assert_eq!(s.tree_reads(), s.physical_reads());
}
