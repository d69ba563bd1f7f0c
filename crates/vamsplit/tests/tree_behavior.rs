//! Behavioral tests of the VAMSplit R-tree bulk build.

#![cfg(test)]

use sr_dataset::{cluster, real_sim, uniform, ClusterSpec};
use sr_geometry::Point;
use sr_pager::PageFile;
use sr_query::{brute_force_knn, SpatialIndex};
use sr_vamsplit::{verify, VamTree};

fn with_ids(points: Vec<Point>) -> Vec<(Point, u64)> {
    points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect()
}

fn build(points: &[Point], page: usize) -> VamTree {
    VamTree::build_from(
        PageFile::create_in_memory(page).unwrap(),
        with_ids(points.to_vec()),
        points[0].dim(),
        64,
    )
    .unwrap()
}

fn assert_knn_matches(tree: &VamTree, points: &[Point], queries: &[Point], k: usize) {
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
fn build_produces_valid_packed_tree() {
    let pts = uniform(1000, 4, 11);
    let t = build(&pts, 1024);
    let report = verify::check(&t).unwrap();
    assert_eq!(report.points, 1000);
    // The VAMSplit guarantee: nearly all leaves completely full.
    assert!(
        report.full_leaves * 10 >= report.leaves * 8,
        "only {}/{} leaves full",
        report.full_leaves,
        report.leaves
    );
}

#[test]
fn knn_matches_brute_force_uniform() {
    let pts = uniform(900, 8, 5);
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
    let pts = real_sim(600, 16, 21);
    let t = build(&pts, 8192);
    let queries = sr_dataset::sample_queries(&pts, 10, 8);
    assert_knn_matches(&t, &pts, &queries, 21);
}

#[test]
fn range_matches_brute_force() {
    let pts = uniform(700, 4, 23);
    let t = build(&pts, 1024);
    let flat: Vec<(&[f32], u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    for (qi, r) in [(0usize, 0.1f64), (100, 0.3), (250, 0.6)] {
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
fn contains_finds_every_point() {
    let pts = uniform(500, 5, 31);
    let t = build(&pts, 1024);
    for (i, p) in pts.iter().enumerate() {
        assert!(t.contains(p, i as u64).unwrap());
    }
}

#[test]
fn empty_build() {
    let t =
        VamTree::build_from(PageFile::create_in_memory(1024).unwrap(), Vec::new(), 3, 64).unwrap();
    assert!(t.is_empty());
    assert!(t.knn(&[0.0, 0.0, 0.0], 5).unwrap().is_empty());
    verify::check(&t).unwrap();
}

#[test]
fn single_point_build() {
    let t = VamTree::build_from(
        PageFile::create_in_memory(1024).unwrap(),
        vec![(Point::new(vec![1.0f32, 2.0]), 7)],
        2,
        64,
    )
    .unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.height(), 1);
    let hits = t.knn(&[0.0, 0.0], 1).unwrap();
    assert_eq!(hits[0].data, 7);
}

#[test]
fn height_is_minimal_for_packed_tree() {
    // 1000 points, max_leaf/max_node from a 1 KiB page: height must be
    // the smallest h with max_leaf * max_node^(h-1) >= 1000.
    let pts = uniform(1000, 4, 37);
    let t = build(&pts, 1024);
    let ml = t.params().max_leaf as u64;
    let mn = t.params().max_node as u64;
    let mut h = 1u32;
    let mut cap = ml;
    while cap < 1000 {
        cap *= mn;
        h += 1;
    }
    assert_eq!(t.height(), h);
}

#[test]
fn persistence_roundtrip() {
    let dir = std::env::temp_dir().join(format!("sr-vam-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.pages");
    let pts = uniform(400, 6, 59);
    {
        let t = VamTree::build_at(&path, with_ids(pts.clone()), 6).unwrap();
        t.flush().unwrap();
    }
    {
        let t = VamTree::open(&path).unwrap();
        assert_eq!(t.len(), 400);
        verify::check(&t).unwrap();
        let queries = sr_dataset::sample_queries(&pts, 5, 61);
        assert_knn_matches(&t, &pts, &queries, 9);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dimension_mismatch_is_an_error() {
    let bad = vec![(Point::new(vec![1.0f32, 2.0, 3.0]), 0)];
    assert!(VamTree::build_from(PageFile::create_in_memory(1024).unwrap(), bad, 2, 64).is_err());
    let t =
        VamTree::build_from(PageFile::create_in_memory(1024).unwrap(), Vec::new(), 2, 64).unwrap();
    assert!(t.knn(&[0.0, 0.0, 0.0], 1).is_err());
}

#[test]
fn fewer_leaves_than_dynamic_trees_would_need() {
    // Full packing: leaves == ceil(n / max_leaf).
    let pts = uniform(1000, 4, 71);
    let t = build(&pts, 1024);
    let ml = t.params().max_leaf as u64;
    assert_eq!(t.num_leaves().unwrap(), 1000u64.div_ceil(ml));
}
