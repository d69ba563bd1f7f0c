//! Delete-path tests: drive the condense algorithm's underflow branch
//! deterministically — spatially concentrated drains dissolve whole
//! subtrees into orphans that must be reinserted losslessly — and check
//! the structural invariants after every step of the churn.

#![cfg(test)]

use sr_dataset::{uniform, SeededRng};
use sr_geometry::Point;
use sr_pager::PageFile;
use sr_query::{brute_force_knn, SpatialIndex};
use sr_rstar::{verify, RstarTree};

fn build(points: &[Point]) -> RstarTree {
    let mut t = RstarTree::create_from(PageFile::create_in_memory(1024).unwrap(), 3, 64).unwrap();
    for (i, p) in points.iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
    }
    t
}

/// Deleting an entire spatial region, point by point, repeatedly drops
/// leaves and inner nodes below minimum fill: their survivors are
/// dissolved and reinserted. No entry may be lost and every invariant
/// must hold mid-drain.
#[test]
fn region_drain_underflows_and_reinserts() {
    let points = uniform(400, 3, 0x52DE_0001);
    let mut t = build(&points);
    assert!(t.height() >= 2, "tree too shallow to exercise underflow");

    // Drain in x-order so deletions concentrate in one region of the
    // tree instead of spreading the shrinkage evenly.
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| points[a].coords()[0].total_cmp(&points[b].coords()[0]));

    let drain = &order[..300];
    let keep: Vec<usize> = order[300..].to_vec();
    for (step, &i) in drain.iter().enumerate() {
        assert!(t.delete(&points[i], i as u64).unwrap(), "lost entry {i}");
        if step % 20 == 0 {
            verify::check(&t).unwrap_or_else(|e| panic!("after {step} deletes: {e}"));
        }
    }
    verify::check(&t).unwrap();
    assert_eq!(t.len() as usize, keep.len());

    // Reinserted orphans must still be reachable by exact lookup and by
    // search.
    for &i in &keep {
        assert!(
            t.contains(&points[i], i as u64).unwrap(),
            "entry {i} unreachable"
        );
    }
    let survivors: Vec<(&[f32], u64)> = keep
        .iter()
        .map(|&i| (points[i].coords(), i as u64))
        .collect();
    let q = points[keep[0]].coords();
    let got = t.knn(q, 10).unwrap();
    let want = brute_force_knn(survivors.iter().copied(), q, 10);
    assert_eq!(
        got.iter().map(|n| n.data).collect::<Vec<_>>(),
        want.iter().map(|n| n.data).collect::<Vec<_>>()
    );
}

/// Draining almost everything walks the root-shrink path: the tree must
/// come back down to a single leaf and still answer queries.
#[test]
fn drain_to_trivial_height_shrinks_root() {
    let points = uniform(500, 3, 0x52DE_0002);
    let mut t = build(&points);
    assert!(t.height() >= 2);
    for (i, p) in points.iter().take(498).enumerate() {
        assert!(t.delete(p, i as u64).unwrap());
    }
    assert_eq!(t.height(), 1, "root did not shrink back to a leaf");
    verify::check(&t).unwrap();
    assert_eq!(t.len(), 2);
    for (i, p) in points.iter().enumerate().skip(498) {
        assert!(t.contains(p, i as u64).unwrap());
    }
}

/// Underflow churn: random interleaved deletes and reinserts around the
/// minimum-fill boundary, verifying throughout. This walks the
/// dissolve/reinsert path many times in both directions.
#[test]
fn churn_around_minimum_fill_keeps_invariants() {
    let points = uniform(240, 3, 0x52DE_0003);
    let mut t = build(&points);
    let mut rng = SeededRng::seed_from_u64(0x52DE_0003);
    let mut live: Vec<usize> = (0..points.len()).collect();
    let mut parked: Vec<usize> = Vec::new();
    for round in 0..600 {
        let del = !live.is_empty() && (parked.is_empty() || rng.random::<bool>());
        if del {
            let k = rng.random_range(0..live.len());
            let i = live.swap_remove(k);
            assert!(t.delete(&points[i], i as u64).unwrap(), "lost entry {i}");
            parked.push(i);
        } else {
            let k = rng.random_range(0..parked.len());
            let i = parked.swap_remove(k);
            t.insert(points[i].clone(), i as u64).unwrap();
            live.push(i);
        }
        if round % 50 == 0 {
            verify::check(&t).unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }
    verify::check(&t).unwrap();
    assert_eq!(t.len() as usize, live.len());
    for &i in &live {
        assert!(
            t.contains(&points[i], i as u64).unwrap(),
            "entry {i} unreachable"
        );
    }
}
