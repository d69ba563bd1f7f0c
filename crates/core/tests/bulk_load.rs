//! Tests of the SR-tree bulk loader: identical invariants and query
//! behavior as the dynamic path, with VAMSplit-grade page packing.

use sr_dataset::{real_sim, sample_queries, uniform};
use sr_geometry::Point;
use sr_pager::PageFile;
use sr_query::{brute_force_knn, IndexError, SpatialIndex};
use sr_tree::{verify, SrTree};

fn with_ids(points: &[Point]) -> Vec<(Point, u64)> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect()
}

#[test]
fn bulk_load_is_correct_and_valid() {
    let points = uniform(3_000, 8, 401);
    let mut t = SrTree::create_from(PageFile::create_in_memory(2048).unwrap(), 8, 64).unwrap();
    t.bulk_load(with_ids(&points)).unwrap();
    assert_eq!(t.len(), 3_000);
    verify::check(&t).unwrap();

    let flat: Vec<(&[f32], u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    for q in sample_queries(&points, 15, 403) {
        let got = t.knn(q.coords(), 21).unwrap();
        let want = brute_force_knn(flat.iter().copied(), q.coords(), 21);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist2 - w.dist2).abs() < 1e-9);
        }
    }
}

#[test]
fn bulk_load_packs_pages_tightly() {
    let points = uniform(3_000, 8, 407);
    let mut bulk = SrTree::create_from(PageFile::create_in_memory(2048).unwrap(), 8, 64).unwrap();
    bulk.bulk_load(with_ids(&points)).unwrap();
    let mut dynamic =
        SrTree::create_from(PageFile::create_in_memory(2048).unwrap(), 8, 64).unwrap();
    for (p, id) in with_ids(&points) {
        dynamic.insert(p, id).unwrap();
    }
    let bulk_leaves = bulk.num_leaves().unwrap();
    let dyn_leaves = dynamic.num_leaves().unwrap();
    assert!(
        bulk_leaves < dyn_leaves,
        "bulk {bulk_leaves} leaves should undercut dynamic {dyn_leaves}"
    );
    // Packed to the theoretical minimum (±1 from balanced chunking).
    let min_possible = 3_000u64.div_ceil(bulk.params().max_leaf as u64);
    assert!(
        bulk_leaves <= min_possible + 1,
        "{bulk_leaves} vs {min_possible}"
    );
}

#[test]
fn bulk_load_then_dynamic_updates() {
    let points = uniform(1_000, 4, 409);
    let mut t = SrTree::create_from(PageFile::create_in_memory(2048).unwrap(), 4, 64).unwrap();
    t.bulk_load(with_ids(&points)).unwrap();
    // Inserts and deletes on a bulk-loaded tree must keep working.
    let extra = uniform(300, 4, 411);
    for (i, p) in extra.iter().enumerate() {
        t.insert(p.clone(), 10_000 + i as u64).unwrap();
    }
    for (i, p) in points.iter().take(200).enumerate() {
        assert!(t.delete(p, i as u64).unwrap());
    }
    assert_eq!(t.len(), 1_100);
    verify::check(&t).unwrap();
}

#[test]
fn bulk_load_small_and_edge_sizes() {
    for n in [0usize, 1, 2, 12, 13, 25] {
        let points = real_sim(n.max(1), 16, 419);
        let mut t = SrTree::create_in_memory(16, 8192).unwrap();
        let input = if n == 0 {
            Vec::new()
        } else {
            with_ids(&points[..n])
        };
        t.bulk_load(input).unwrap();
        assert_eq!(t.len(), n as u64);
        verify::check(&t).unwrap_or_else(|e| panic!("n={n}: {e}"));
        if n > 0 {
            let hits = t.knn(points[0].coords(), n.min(5)).unwrap();
            assert_eq!(hits.len(), n.min(5));
        }
    }
}

#[test]
fn bulk_load_persists() {
    let dir = std::env::temp_dir().join(format!("sr-bulk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bulk.pages");
    let points = uniform(500, 4, 421);
    {
        let mut t = SrTree::create(&path, 4).unwrap();
        t.bulk_load(with_ids(&points)).unwrap();
        t.flush().unwrap();
    }
    let t = SrTree::open(&path).unwrap();
    assert_eq!(t.len(), 500);
    verify::check(&t).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn bulk_load_rejects_non_empty_tree() {
    let mut t = SrTree::create_in_memory(2, 8192).unwrap();
    t.insert(Point::new(vec![0.0, 0.0]), 0).unwrap();
    let err = t.bulk_load(vec![(Point::new(vec![1.0, 1.0]), 1)]);
    assert!(matches!(err, Err(IndexError::Unsupported(_))), "{err:?}");
    assert_eq!(t.len(), 1);
    verify::check(&t).unwrap();
}
