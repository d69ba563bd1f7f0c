//! Property-based tests of the geometry kernel — the correctness of
//! every index structure rests on these identities.
//!
//! Cases are generated by seeded loops (the workspace carries no
//! registry dependencies, so there is no proptest). Each failure
//! message carries the case seed, which reproduces the inputs exactly;
//! the point-set properties additionally shrink the failing set with a
//! hand-rolled removal loop before reporting.

use sr_dataset::SeededRng;
use sr_geometry::{
    bounding_rect_of_points, bounding_sphere_of_points, dist2, enclosing_radius_rects,
    enclosing_radius_spheres, next_radius_up, Centroid, Point, Rect, Sphere,
};

const CASES: u64 = 256;

fn arb_point(rng: &mut SeededRng, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|_| rng.random::<f32>() * 2000.0 - 1000.0)
        .collect()
}

fn arb_rect(rng: &mut SeededRng, dim: usize) -> Rect {
    let a = arb_point(rng, dim);
    let b = arb_point(rng, dim);
    let min: Vec<f32> = a.iter().zip(b.iter()).map(|(&x, &y)| x.min(y)).collect();
    let max: Vec<f32> = a.iter().zip(b.iter()).map(|(&x, &y)| x.max(y)).collect();
    Rect::new(min, max)
}

fn unit_interp(rng: &mut SeededRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.random::<f64>()).collect()
}

/// Hand-rolled shrinking for point-set properties: greedily remove
/// points while the predicate keeps failing, and return the minimal
/// failing set for the panic message.
fn shrink_points(mut pts: Vec<Vec<f32>>, fails: impl Fn(&[Vec<f32>]) -> bool) -> Vec<Vec<f32>> {
    debug_assert!(fails(&pts));
    let mut i = 0;
    while i < pts.len() && pts.len() > 1 {
        let removed = pts.remove(i);
        if fails(&pts) {
            continue; // keep the smaller set, retry same index
        }
        pts.insert(i, removed);
        i += 1;
    }
    pts
}

/// MINDIST is a true lower bound: for any point q and any point p
/// inside the rectangle, MINDIST(q, R) <= d(q, p).
#[test]
fn min_dist_lower_bounds_contained_points() {
    for case in 0..CASES {
        let seed = 0x6E0_0001 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let r = arb_rect(&mut rng, 4);
        let q = arb_point(&mut rng, 4);
        let t = unit_interp(&mut rng, 4);
        // p = interpolation inside the rect
        let p: Vec<f32> = (0..4)
            .map(|i| r.min()[i] + (r.max()[i] - r.min()[i]) * t[i] as f32)
            .collect();
        assert!(r.contains_point(&p), "SEED={seed}");
        assert!(
            r.min_dist2(&q) <= dist2(&q, &p) + 1e-6,
            "SEED={seed}: MINDIST {} > dist {}",
            r.min_dist2(&q),
            dist2(&q, &p)
        );
    }
}

/// MAXDIST is a true upper bound for every contained point.
#[test]
fn max_dist_upper_bounds_contained_points() {
    for case in 0..CASES {
        let seed = 0x6E0_0002 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let r = arb_rect(&mut rng, 4);
        let q = arb_point(&mut rng, 4);
        let t = unit_interp(&mut rng, 4);
        let p: Vec<f32> = (0..4)
            .map(|i| r.min()[i] + (r.max()[i] - r.min()[i]) * t[i] as f32)
            .collect();
        assert!(
            r.max_dist2(&q) >= dist2(&q, &p) - 1e-3,
            "SEED={seed}: MAXDIST {} < dist {}",
            r.max_dist2(&q),
            dist2(&q, &p)
        );
    }
}

/// The full MINDIST ≤ dist ≤ MAXDIST bracket, for both region kinds the
/// SR-tree intersects (rectangles and spheres), on many interior points
/// per region — the search-pruning soundness condition in one property.
#[test]
fn dist_bracket_for_contained_points() {
    for case in 0..CASES {
        let seed = 0x6E0_0003 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let dim = 2 + rng.random_range(0..6);
        let r = arb_rect(&mut rng, dim);
        let q = arb_point(&mut rng, dim);
        for _ in 0..8 {
            let t = unit_interp(&mut rng, dim);
            let p: Vec<f32> = (0..dim)
                .map(|i| r.min()[i] + (r.max()[i] - r.min()[i]) * t[i] as f32)
                .collect();
            let d = dist2(&q, &p);
            assert!(
                r.min_dist2(&q) <= d + 1e-6 && r.max_dist2(&q) >= d - 1e-3,
                "SEED={seed}: rect bracket [{}, {}] misses {d}",
                r.min_dist2(&q),
                r.max_dist2(&q)
            );
        }
        // Sphere variant: random points inside a random sphere.
        let c = arb_point(&mut rng, dim);
        let radius = rng.random::<f32>() * 100.0;
        let s = Sphere::new(Point::new(c.clone()), radius);
        for _ in 0..8 {
            let dir: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
            let norm = dir.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            let frac = rng.random::<f64>();
            let p: Vec<f32> = (0..dim)
                .map(|i| c[i] + (radius as f64 * frac * dir[i] / norm) as f32)
                .collect();
            if !s.contains_point(&p, 0.0) {
                continue; // f32 rounding pushed it just outside
            }
            let d = dist2(&q, &p);
            assert!(
                s.min_dist2(&q) <= d + 1e-3 && s.max_dist2(&q) >= d - 1e-3,
                "SEED={seed}: sphere bracket [{}, {}] misses {d}",
                s.min_dist2(&q),
                s.max_dist2(&q)
            );
        }
    }
}

/// Union is commutative, covering, and minimal on the corners.
#[test]
fn union_properties() {
    for case in 0..CASES {
        let seed = 0x6E0_0004 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let a = arb_rect(&mut rng, 3);
        let b = arb_rect(&mut rng, 3);
        let u = a.union(&b);
        let v = b.union(&a);
        assert_eq!(&u, &v, "SEED={seed}");
        assert!(u.contains_rect(&a), "SEED={seed}");
        assert!(u.contains_rect(&b), "SEED={seed}");
        // minimality: each bound is realized by one of the inputs
        for i in 0..3 {
            assert!(
                u.min()[i] == a.min()[i] || u.min()[i] == b.min()[i],
                "SEED={seed}"
            );
            assert!(
                u.max()[i] == a.max()[i] || u.max()[i] == b.max()[i],
                "SEED={seed}"
            );
        }
    }
}

/// Overlap volume is symmetric and bounded by each input's volume.
#[test]
fn overlap_symmetric_and_bounded() {
    for case in 0..CASES {
        let seed = 0x6E0_0005 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let a = arb_rect(&mut rng, 3);
        let b = arb_rect(&mut rng, 3);
        let ab = a.overlap_volume(&b);
        let ba = b.overlap_volume(&a);
        assert!(
            (ab - ba).abs() <= 1e-6 * ab.abs().max(1.0),
            "SEED={seed}: {ab} vs {ba}"
        );
        assert!(ab <= a.volume() + 1e-6, "SEED={seed}");
        assert!(ab <= b.volume() + 1e-6, "SEED={seed}");
        assert!(ab >= 0.0, "SEED={seed}");
    }
}

/// A bounding sphere of points contains them all.
#[test]
fn bounding_sphere_contains_points() {
    for case in 0..CASES {
        let seed = 0x6E0_0006 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let n = 1 + rng.random_range(0..39);
        let pts: Vec<Vec<f32>> = (0..n).map(|_| arb_point(&mut rng, 5)).collect();
        let fails = |pts: &[Vec<f32>]| {
            let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
            let s = bounding_sphere_of_points(&refs).unwrap();
            refs.iter().any(|p| !s.contains_point(p, 0.0))
        };
        if fails(&pts) {
            let min = shrink_points(pts, fails);
            panic!("SEED={seed}: bounding sphere excludes a point; minimal set: {min:?}");
        }
    }
}

/// A bounding rect of points contains them all and is minimal.
#[test]
fn bounding_rect_contains_points() {
    for case in 0..CASES {
        let seed = 0x6E0_0007 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let n = 1 + rng.random_range(0..39);
        let pts: Vec<Vec<f32>> = (0..n).map(|_| arb_point(&mut rng, 5)).collect();
        let fails = |pts: &[Vec<f32>]| {
            let r = bounding_rect_of_points(pts.iter().map(|p| p.as_slice())).unwrap();
            pts.iter().any(|p| !r.contains_point(p))
                || (0..5).any(|i| {
                    !pts.iter().any(|p| p[i] == r.min()[i])
                        || !pts.iter().any(|p| p[i] == r.max()[i])
                })
        };
        if fails(&pts) {
            let min = shrink_points(pts, fails);
            panic!("SEED={seed}: bounding rect not tight; minimal set: {min:?}");
        }
    }
}

/// The SS parent-radius rule d_s really covers child spheres; the
/// rect rule d_r really covers child rect corners.
#[test]
fn enclosing_radii_cover() {
    for case in 0..CASES {
        let seed = 0x6E0_0008 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let n = 1 + rng.random_range(0..9);
        let centers: Vec<Vec<f32>> = (0..n).map(|_| arb_point(&mut rng, 3)).collect();
        let radii: Vec<f32> = (0..10).map(|_| rng.random::<f32>() * 50.0).collect();
        let t: Vec<f64> = (0..3).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();

        let mut c = Centroid::new(3);
        for ctr in &centers {
            c.add(ctr, 1);
        }
        let center = c.finish().unwrap();
        let spheres: Vec<(&[f32], f32)> = centers
            .iter()
            .enumerate()
            .map(|(i, ctr)| (ctr.as_slice(), radii[i % radii.len()]))
            .collect();
        let d_s = enclosing_radius_spheres(&center, spheres.iter().copied());
        // any point of any child sphere is within d_s of the center
        for (ctr, r) in &spheres {
            let norm = (t.iter().map(|x| x * x).sum::<f64>()).sqrt().max(1e-12);
            let p: Vec<f32> = (0..3)
                .map(|i| ctr[i] + (*r as f64 * t[i] / norm) as f32)
                .collect();
            let s = Sphere::new(Point::new(ctr.to_vec()), *r);
            if s.contains_point(&p, 0.0) {
                assert!(
                    dist2(center.coords(), &p).sqrt() <= d_s + 1e-3,
                    "SEED={seed}: point {p:?} beyond d_s {d_s}"
                );
            }
        }
        // and d_r covers every corner of every child rect
        let rects: Vec<Rect> = centers
            .iter()
            .enumerate()
            .map(|(i, ctr)| {
                let r = radii[i % radii.len()];
                Rect::new(
                    ctr.iter().map(|&x| x - r).collect::<Vec<f32>>(),
                    ctr.iter().map(|&x| x + r).collect::<Vec<f32>>(),
                )
            })
            .collect();
        let d_r = enclosing_radius_rects(&center, rects.iter().map(|r| (r.min(), r.max())));
        for rect in &rects {
            for corner_mask in 0..8u32 {
                let corner: Vec<f32> = (0..3)
                    .map(|i| {
                        if corner_mask & (1 << i) != 0 {
                            rect.max()[i]
                        } else {
                            rect.min()[i]
                        }
                    })
                    .collect();
                assert!(
                    dist2(center.coords(), &corner).sqrt() <= d_r + 1e-3,
                    "SEED={seed}"
                );
            }
        }
    }
}

/// Incremental centroid updates (the SS/SR insertion rule: the centroid
/// shifts as a weighted mean) never orphan previously covered points:
/// re-deriving the enclosing radii around the updated centroid still
/// covers every child region.
#[test]
fn containment_preserved_under_centroid_updates() {
    for case in 0..CASES {
        let seed = 0x6E0_0009 ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let dim = 2 + rng.random_range(0..4);
        let mut c = Centroid::new(dim);
        let mut spheres: Vec<(Vec<f32>, f32)> = Vec::new();
        // Grow the node one child sphere at a time, as insertion does.
        for step in 0..12 {
            let ctr = arb_point(&mut rng, dim);
            let r = rng.random::<f32>() * 30.0;
            let weight = 1 + rng.random_range(0..5);
            c.add(&ctr, weight as u64);
            spheres.push((ctr, r));

            // After every incremental update, the re-derived parent
            // sphere must cover every child sphere's center-to-surface
            // extremum (center distance + child radius).
            let center = c.finish().unwrap();
            let refs: Vec<(&[f32], f32)> =
                spheres.iter().map(|(p, r)| (p.as_slice(), *r)).collect();
            let d_s = enclosing_radius_spheres(&center, refs.iter().copied());
            let parent = Sphere::new(Point::new(center.coords().to_vec()), next_radius_up(d_s));
            for (ctr, r) in &spheres {
                let child = Sphere::new(Point::new(ctr.clone()), *r);
                assert!(
                    parent.contains_sphere(&child, 1e-3),
                    "SEED={seed}: step {step}: child {child:?} outside parent {parent:?}"
                );
            }
            // Same for the rect reading of the node: the bounding rect
            // of all child rects, re-derived after the update, contains
            // each child rect.
            let child_rects: Vec<Rect> = spheres
                .iter()
                .map(|(ctr, r)| {
                    Rect::new(
                        ctr.iter().map(|&x| x - r).collect::<Vec<f32>>(),
                        ctr.iter().map(|&x| x + r).collect::<Vec<f32>>(),
                    )
                })
                .collect();
            let parent_rect = child_rects
                .iter()
                .skip(1)
                .fold(child_rects[0].clone(), |acc, r| acc.union(r));
            for r in &child_rects {
                assert!(
                    parent_rect.contains_rect(r),
                    "SEED={seed}: step {step}: rect {r:?} outside {parent_rect:?}"
                );
            }
        }
    }
}

/// next_radius_up never shrinks and adds at most one ulp.
#[test]
fn radius_roundup() {
    for case in 0..CASES {
        let seed = 0x6E0_000A ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let r = rng.random::<f64>() * 1e30;
        let f = next_radius_up(r);
        assert!(f as f64 >= r, "SEED={seed}");
        if r > 0.0 {
            assert!((f as f64 - r) / r < 1e-6, "SEED={seed}");
        }
    }
}

/// Sphere min/max distances bracket the distance to any point of the
/// sphere itself.
#[test]
fn sphere_distance_bracket() {
    for case in 0..CASES {
        let seed = 0x6E0_000B ^ case;
        let mut rng = SeededRng::seed_from_u64(seed);
        let c = arb_point(&mut rng, 3);
        let r = rng.random::<f32>() * 100.0;
        let q = arb_point(&mut rng, 3);
        let t: Vec<f64> = (0..3).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
        let s = Sphere::new(Point::new(c.clone()), r);
        let norm = (t.iter().map(|x| x * x).sum::<f64>()).sqrt().max(1e-12);
        let p: Vec<f32> = (0..3)
            .map(|i| c[i] + (r as f64 * t[i] / norm) as f32)
            .collect();
        if s.contains_point(&p, 0.0) {
            let d = dist2(&q, &p);
            assert!(s.min_dist2(&q) <= d + 1e-3, "SEED={seed}");
            assert!(s.max_dist2(&q) >= d - 1e-3, "SEED={seed}");
        }
    }
}
