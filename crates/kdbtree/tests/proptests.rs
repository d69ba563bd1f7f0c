//! Property-based tests for the K-D-B-tree.
//!
//! Cases are generated by seeded loops (the workspace carries no
//! registry dependencies, so there is no proptest); every assertion
//! message carries the case seed, which reproduces the inputs exactly.

#![cfg(test)]

use sr_dataset::SeededRng;
use sr_geometry::Point;
use sr_kdbtree::{verify, KdbTree};
use sr_pager::PageFile;
use sr_query::{brute_force_knn, brute_force_range, SpatialIndex};

const CASES: u64 = 48;

fn arb_points(rng: &mut SeededRng, dim: usize, max_len: usize) -> Vec<Vec<f32>> {
    let len = 1 + rng.random_range(0..max_len - 1);
    (0..len)
        .map(|_| {
            (0..dim)
                .map(|_| rng.random::<f32>() * 200.0 - 100.0)
                .collect()
        })
        .collect()
}

fn build(points: &[Vec<f32>]) -> KdbTree {
    let dim = points[0].len();
    let mut t = KdbTree::create_from(PageFile::create_in_memory(1024).unwrap(), dim, 64).unwrap();
    for (i, p) in points.iter().enumerate() {
        t.insert(Point::new(p.clone()), i as u64).unwrap();
    }
    t
}

#[test]
fn knn_agrees_with_brute_force() {
    for case in 0..CASES {
        let seed = 0x5B4D_0001 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let points = arb_points(&mut rng, 3, 120);
        let k = 1 + rng.random_range(0..24);
        let t = build(&points);
        verify::check(&t).unwrap_or_else(|e| panic!("SEED={seed}: {e}"));
        let flat: Vec<(&[f32], u64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_slice(), i as u64))
            .collect();
        let q = &points[0];
        let got = t.knn(q, k).unwrap();
        let want = brute_force_knn(flat.iter().copied(), q, k);
        assert_eq!(got.len(), want.len(), "SEED={seed}");
        for (g, w) in got.iter().zip(want.iter()) {
            assert!(
                (g.dist2 - w.dist2).abs() < 1e-6,
                "SEED={seed}: {} vs {}",
                g.dist2,
                w.dist2
            );
        }
    }
}

#[test]
fn range_agrees_with_brute_force() {
    for case in 0..CASES {
        let seed = 0x5B4D_0002 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let points = arb_points(&mut rng, 2, 100);
        let radius = rng.random::<f64>() * 150.0;
        let t = build(&points);
        let flat: Vec<(&[f32], u64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_slice(), i as u64))
            .collect();
        let q = &points[points.len() / 2];
        let got = t.range(q, radius).unwrap();
        let want = brute_force_range(flat.iter().copied(), q, radius);
        let got_ids: Vec<u64> = got.iter().map(|n| n.data).collect();
        let want_ids: Vec<u64> = want.iter().map(|n| n.data).collect();
        assert_eq!(got_ids, want_ids, "SEED={seed}");
    }
}

#[test]
fn every_point_routes_to_itself() {
    for case in 0..CASES {
        let seed = 0x5B4D_0003 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let points = arb_points(&mut rng, 4, 80);
        let t = build(&points);
        verify::check(&t).unwrap_or_else(|e| panic!("SEED={seed}: {e}"));
        for (i, p) in points.iter().enumerate() {
            assert!(
                t.contains(&Point::new(p.clone()), i as u64).unwrap(),
                "SEED={seed}: entry {i} unreachable"
            );
        }
    }
}
