//! Long mixed workloads: interleaved inserts, deletes, and queries with
//! periodic full invariant verification — the closest thing to a
//! soak test that fits in CI.

use srtree::dataset::SeededRng;
use srtree::dataset::{real_sim, uniform};
use srtree::geometry::Point;
use srtree::query::{brute_force_knn, SpatialIndex};
use srtree::sstree::SsTree;
use srtree::tree::SrTree;

/// A reference set mirroring what the tree should contain.
struct Model {
    live: Vec<(Point, u64)>,
}

impl Model {
    fn knn(&self, q: &[f32], k: usize) -> Vec<f64> {
        brute_force_knn(self.live.iter().map(|(p, id)| (p.coords(), *id)), q, k)
            .iter()
            .map(|n| n.dist2)
            .collect()
    }
}

#[test]
fn srtree_survives_mixed_churn() {
    let pool = uniform(3_000, 8, 999);
    let mut rng = SeededRng::seed_from_u64(1234);
    let mut tree = SrTree::create_in_memory(8, 2048).unwrap();
    let mut model = Model { live: Vec::new() };
    let mut next_id = 0u64;

    for step in 0..2_000 {
        let roll: f64 = rng.random();
        if roll < 0.6 || model.live.is_empty() {
            // insert
            let p = pool[rng.random_range(0..pool.len())].clone();
            tree.insert(p.clone(), next_id).unwrap();
            model.live.push((p, next_id));
            next_id += 1;
        } else if roll < 0.85 {
            // delete a random live point
            let i = rng.random_range(0..model.live.len());
            let (p, id) = model.live.swap_remove(i);
            assert!(tree.delete(&p, id).unwrap(), "step {step}: lost ({id})");
        } else {
            // query and compare against the model
            let q = pool[rng.random_range(0..pool.len())].clone();
            let k = 1 + rng.random_range(0..10usize);
            let got: Vec<f64> = tree
                .knn(q.coords(), k)
                .unwrap()
                .iter()
                .map(|n| n.dist2)
                .collect();
            let want = model.knn(q.coords(), k);
            assert_eq!(got.len(), want.len(), "step {step}");
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g - w).abs() < 1e-9, "step {step}: {g} vs {w}");
            }
        }
        if step % 250 == 0 {
            srtree::tree::verify::check(&tree).unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(tree.len() as usize, model.live.len());
        }
    }
    srtree::tree::verify::check(&tree).unwrap();
}

#[test]
fn sstree_survives_mixed_churn() {
    let pool = real_sim(2_000, 8, 888);
    let mut rng = SeededRng::seed_from_u64(4321);
    let mut tree = SsTree::create_in_memory(8, 2048).unwrap();
    let mut model: Vec<(Point, u64)> = Vec::new();
    let mut next_id = 0u64;

    for step in 0..1_500 {
        if rng.random::<f64>() < 0.65 || model.is_empty() {
            let p = pool[rng.random_range(0..pool.len())].clone();
            tree.insert(p.clone(), next_id).unwrap();
            model.push((p, next_id));
            next_id += 1;
        } else {
            let i = rng.random_range(0..model.len());
            let (p, id) = model.swap_remove(i);
            assert!(tree.delete(&p, id).unwrap(), "step {step}");
        }
        if step % 300 == 0 {
            srtree::sstree::verify::check(&tree).unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }
    srtree::sstree::verify::check(&tree).unwrap();
    // final cross-check on a few queries
    for q in pool.iter().step_by(511) {
        let got = tree.knn(q.coords(), 5).unwrap();
        let want = brute_force_knn(model.iter().map(|(p, id)| (p.coords(), *id)), q.coords(), 5);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist2 - w.dist2).abs() < 1e-9);
        }
    }
}

#[test]
fn duplicate_heavy_workload() {
    // Many duplicated positions with distinct payloads (image databases
    // contain near-identical frames). The K-D-B-tree is exempt — it
    // cannot hold more coincident points than one page (documented).
    let mut tree = SrTree::create_in_memory(4, 2048).unwrap();
    let positions = uniform(20, 4, 777);
    let mut expected = 0u64;
    for round in 0..30u64 {
        for (i, p) in positions.iter().enumerate() {
            tree.insert(p.clone(), round * 100 + i as u64).unwrap();
            expected += 1;
        }
    }
    assert_eq!(tree.len(), expected);
    srtree::tree::verify::check(&tree).unwrap();
    // every duplicate is retrievable
    let got = tree.knn(positions[0].coords(), 30).unwrap();
    assert_eq!(got.len(), 30);
    assert!(got.iter().all(|n| n.dist2 == 0.0));
    // delete one round's worth
    for (i, p) in positions.iter().enumerate() {
        assert!(tree.delete(p, i as u64).unwrap());
    }
    assert_eq!(tree.len(), expected - 20);
    srtree::tree::verify::check(&tree).unwrap();
}

#[test]
fn adversarial_coordinates() {
    // Extreme magnitudes, negatives, and axis-degenerate data must not
    // break region arithmetic.
    let mut tree = SrTree::create_in_memory(3, 2048).unwrap();
    let mut pts: Vec<Point> = Vec::new();
    for i in 0..300 {
        let p = match i % 4 {
            0 => Point::new(vec![i as f32 * 1e6, 0.0, 0.0]), // huge, on-axis
            1 => Point::new(vec![-1e-30, i as f32, 1e30f32.sqrt()]),
            2 => Point::new(vec![0.0, 0.0, 0.0]), // repeated origin
            _ => Point::new(vec![(i as f32).sin(), (i as f32).cos(), -(i as f32)]),
        };
        tree.insert(p.clone(), i as u64).unwrap();
        pts.push(p);
    }
    srtree::tree::verify::check(&tree).unwrap();
    let flat: Vec<(&[f32], u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    for q in pts.iter().step_by(37) {
        let got = tree.knn(q.coords(), 7).unwrap();
        let want = brute_force_knn(flat.iter().copied(), q.coords(), 7);
        for (g, w) in got.iter().zip(want.iter()) {
            let tol = 1e-6 * w.dist2.max(1.0);
            assert!(
                (g.dist2 - w.dist2).abs() <= tol,
                "{} vs {}",
                g.dist2,
                w.dist2
            );
        }
    }
}
