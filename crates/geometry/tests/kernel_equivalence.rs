//! Kernel-equivalence suite: the columnar early-abandon leaf kernel and
//! the raw-bounds kernels must be **bit-identical** to the canonical
//! scalar [`dist2`] (the brute-force oracle's distance) for every
//! dimensionality, threshold, and special value — not merely close; the
//! multi-entry bound kernels, to the one-entry ones.
//! Every index structure's leaf answers flow through the early-abandon
//! kernel, and the candidate set breaks ties on exact `f64` equality, so
//! a single reassociated addition would silently reorder near-tied
//! neighbor lists (the drift bug this suite pins down).
//!
//! Cases are generated by seeded loops (the workspace carries no
//! registry dependencies); each failure message carries the seed and
//! dimension that reproduce it.

#![cfg(test)]

use sr_dataset::SeededRng;
use sr_geometry::{dist2, dist2_columnar_early_abandon, EARLY_ABANDON_HEAD_DIMS};

/// Build a dimension-major f64-LE block from row-major points — the
/// exact layout `put_leaf_columns` writes into a leaf page.
fn columnar(points: &[Vec<f32>], dim: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for d in 0..dim {
        for p in points {
            out.extend_from_slice(&f64::from(p[d]).to_le_bytes());
        }
    }
    out
}

fn arb_points(rng: &mut SeededRng, n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| rng.random::<f32>() * 2000.0 - 1000.0)
                .collect()
        })
        .collect()
}

/// Every dimensionality from 1 to 64 — covering the head/tail split of
/// the early-abandon kernel (`dim <= EARLY_ABANDON_HEAD_DIMS` head-only,
/// `dim > EARLY_ABANDON_HEAD_DIMS` strided tail) and point counts that
/// are not multiples of any SIMD width.
#[test]
fn columnar_matches_scalar_bitwise_for_dims_1_to_64() {
    for dim in 1..=64usize {
        let seed = 0xE0_5EED ^ (dim as u64);
        let mut rng = SeededRng::seed_from_u64(seed);
        for n in [1usize, 2, 3, 7, 13] {
            let points = arb_points(&mut rng, n, dim);
            let query: Vec<f32> = (0..dim).map(|_| rng.random::<f32>() * 10.0).collect();
            let block = columnar(&points, dim);

            let (mut out, mut alive) = (Vec::new(), Vec::new());
            let abandoned = dist2_columnar_early_abandon(
                &block,
                n,
                &query,
                f64::INFINITY,
                &mut out,
                &mut alive,
            )
            .unwrap();
            assert_eq!(abandoned, 0, "dim {dim} n {n}: nothing beats +inf");
            for (i, p) in points.iter().enumerate() {
                let want = dist2(p, &query);
                assert!(alive[i]);
                assert_eq!(
                    out[i].to_bits(),
                    want.to_bits(),
                    "dim {dim} n {n} point {i} seed {seed:#x}: \
                     columnar {} != scalar {want}",
                    out[i]
                );
            }
        }
    }
}

/// With a finite threshold, survivors must still be bit-identical to the
/// scalar path, and exactly the strictly-worse points may be abandoned.
#[test]
fn early_abandon_survivors_are_bitwise_exact_at_finite_thresholds() {
    for dim in [1usize, 4, 8, 9, 16, 31, 64] {
        let seed = 0xEA_7E57 ^ (dim as u64);
        let mut rng = SeededRng::seed_from_u64(seed);
        let n = 17;
        let points = arb_points(&mut rng, n, dim);
        let query: Vec<f32> = (0..dim).map(|_| rng.random::<f32>() * 10.0).collect();
        let block = columnar(&points, dim);
        let exact: Vec<f64> = points.iter().map(|p| dist2(p, &query)).collect();

        // Thresholds at every exact distance (ties must survive) plus
        // points strictly between consecutive distances.
        let mut thresholds = exact.clone();
        thresholds.push(0.0);
        let mut sorted = exact.clone();
        sorted.sort_by(f64::total_cmp);
        for w in sorted.windows(2) {
            thresholds.push(w[0].midpoint(w[1]));
        }

        for thr in thresholds {
            let (mut out, mut alive) = (Vec::new(), Vec::new());
            let abandoned =
                dist2_columnar_early_abandon(&block, n, &query, thr, &mut out, &mut alive).unwrap();
            let mut want_abandoned = 0u64;
            for i in 0..n {
                if alive[i] {
                    assert_eq!(
                        out[i].to_bits(),
                        exact[i].to_bits(),
                        "dim {dim} thr {thr} point {i} seed {seed:#x}"
                    );
                    // A survivor at dim <= head is always exact; past the
                    // head a survivor must not be strictly worse than the
                    // threshold at any checked prefix — in particular its
                    // full distance d <= thr whenever the tail ran.
                } else {
                    want_abandoned += 1;
                    assert!(
                        exact[i] > thr,
                        "dim {dim} thr {thr} point {i} seed {seed:#x}: \
                         abandoned a point at distance {} <= threshold",
                        exact[i]
                    );
                    assert!(
                        dim > EARLY_ABANDON_HEAD_DIMS,
                        "head-only scans must never abandon (dim {dim})"
                    );
                }
            }
            assert_eq!(abandoned, want_abandoned, "dim {dim} thr {thr}");
            // An exact tie with the threshold always survives.
            for i in 0..n {
                if exact[i] <= thr {
                    assert!(alive[i], "dim {dim} thr {thr} point {i}: tie dropped");
                }
            }
        }
    }
}

/// NaN and infinity coordinates propagate exactly as the scalar kernel
/// propagates them — and a NaN partial sum never abandons.
#[test]
fn non_finite_coordinates_match_scalar_and_never_abandon() {
    let dim = 19; // forces the strided early-abandon tail
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
    for (case, &s) in specials.iter().enumerate() {
        let mut rng = SeededRng::seed_from_u64(0xF1_000 + case as u64);
        let mut points = arb_points(&mut rng, 5, dim);
        // Plant the special value at head, boundary, and tail positions.
        points[1][0] = s;
        points[2][EARLY_ABANDON_HEAD_DIMS - 1] = s;
        points[3][dim - 1] = s;
        let query: Vec<f32> = (0..dim).map(|_| rng.random::<f32>()).collect();
        let block = columnar(&points, dim);

        let (mut out, mut alive) = (Vec::new(), Vec::new());
        dist2_columnar_early_abandon(&block, 5, &query, f64::INFINITY, &mut out, &mut alive)
            .unwrap();
        for (i, p) in points.iter().enumerate() {
            let want = dist2(p, &query);
            assert_eq!(
                out[i].to_bits(),
                want.to_bits(),
                "special {s} point {i}: columnar {} != scalar {want}",
                out[i]
            );
        }

        let (mut ea, mut alive) = (Vec::new(), Vec::new());
        // A tight threshold. A NaN that lands in the accumulator poisons
        // every later `partial > threshold` comparison (NaN compares
        // false), so a point whose NaN appears in the columnar head can
        // never abandon and must complete to the scalar path's NaN
        // total. A NaN in a *later* dimension may legitimately never be
        // reached: the finite prefix already overshot. Survivors are
        // always bit-identical to the scalar path either way.
        dist2_columnar_early_abandon(&block, 5, &query, 1e-12, &mut ea, &mut alive).unwrap();
        for (i, p) in points.iter().enumerate() {
            let nan_in_head = p.iter().take(EARLY_ABANDON_HEAD_DIMS).any(|c| c.is_nan());
            if nan_in_head {
                assert!(alive[i], "special {s} point {i}: NaN partial abandoned");
            }
            if alive[i] {
                assert_eq!(
                    ea[i].to_bits(),
                    dist2(p, &query).to_bits(),
                    "special {s} point {i}: survivor drifted from scalar"
                );
            }
        }
    }
}

/// The query, not just the data, may carry non-finite values (the
/// engines reject them upstream, but the kernel contract is still
/// bit-equality with the scalar path).
#[test]
fn non_finite_query_matches_scalar() {
    let dim = 11;
    let mut rng = SeededRng::seed_from_u64(0x9F_11);
    let points = arb_points(&mut rng, 6, dim);
    let mut query: Vec<f32> = (0..dim).map(|_| rng.random::<f32>()).collect();
    query[0] = f32::NAN;
    query[dim - 1] = f32::INFINITY;
    let block = columnar(&points, dim);
    let (mut out, mut alive) = (Vec::new(), Vec::new());
    dist2_columnar_early_abandon(&block, 6, &query, f64::INFINITY, &mut out, &mut alive).unwrap();
    for (i, p) in points.iter().enumerate() {
        assert_eq!(out[i].to_bits(), dist2(p, &query).to_bits(), "point {i}");
    }
}

/// The raw-bounds kernels (`dist2_f64le`, `sphere_min_dist2_f64le`,
/// `rect_min_dist2_f64le`) score inner-node entries straight off the
/// page bytes. They must be bit-identical to the decoded
/// `Sphere::min_dist2` / `Rect::min_dist2` — a traversal bound that
/// drifted by one ulp could flip a visit/prune decision and change
/// which of two exactly-tied boundary neighbors a query returns.
#[test]
fn raw_bounds_match_decoded_shapes_bitwise() {
    use sr_geometry::{
        dist2_f64le, rect_min_dist2_f64le, sphere_min_dist2_f64le, Point, Rect, Sphere,
    };
    let f64le = |coords: &[f32]| -> Vec<u8> {
        coords
            .iter()
            .flat_map(|&c| f64::from(c).to_le_bytes())
            .collect()
    };
    for dim in 1..=64usize {
        let seed = 0xB0_07ED ^ (dim as u64);
        let mut rng = SeededRng::seed_from_u64(seed);
        for case in 0..8 {
            let center = arb_points(&mut rng, 1, dim).remove(0);
            let radius = rng.random::<f32>() * 50.0;
            let a = arb_points(&mut rng, 1, dim).remove(0);
            let b = arb_points(&mut rng, 1, dim).remove(0);
            let (lo, hi): (Vec<f32>, Vec<f32>) = a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| (x.min(y), x.max(y)))
                .unzip();
            // Queries inside, near, and far from the shapes: the clamp
            // arms and the inside-the-sphere zero case all fire.
            let query: Vec<f32> = center
                .iter()
                .map(|&c| c + (rng.random::<f32>() - 0.5) * 200.0)
                .collect();

            let sphere = Sphere::new(Point::try_new(center.clone()).unwrap(), radius);
            let rect = Rect::new(lo.clone(), hi.clone());
            let ctx = format!("dim {dim} case {case} seed {seed:#x}");

            let raw = dist2_f64le(&f64le(&center), &query).unwrap();
            assert_eq!(
                raw.to_bits(),
                dist2(&center, &query).to_bits(),
                "dist2_f64le drifted: {ctx}"
            );
            let raw = sphere_min_dist2_f64le(&f64le(&center), f64::from(radius), &query).unwrap();
            assert_eq!(
                raw.to_bits(),
                sphere.min_dist2(&query).to_bits(),
                "sphere_min_dist2_f64le drifted: {ctx}"
            );
            let raw = rect_min_dist2_f64le(&f64le(&lo), &f64le(&hi), &query).unwrap();
            assert_eq!(
                raw.to_bits(),
                rect.min_dist2(&query).to_bits(),
                "rect_min_dist2_f64le drifted: {ctx}"
            );
        }
    }
}

/// The three-way `MINDIST` term the branch-free kernels replaced, kept
/// as the reference they must match bit for bit.
fn branchy_term(lo: f64, hi: f64, x: f64) -> f64 {
    if x < lo {
        lo - x
    } else if x > hi {
        x - hi
    } else {
        0.0
    }
}

/// `MINDIST²` summed in ascending dimension order over [`branchy_term`].
fn branchy_min_dist2(lo: &[f32], hi: &[f32], query: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for ((&l, &h), &x) in lo.iter().zip(hi).zip(query) {
        let d = branchy_term(f64::from(l), f64::from(h), f64::from(x));
        acc += d * d;
    }
    acc
}

/// The kinds of axis the bitwise suite plants.
#[derive(Clone, Copy, Debug)]
enum Axis {
    /// The query exactly on `lo`.
    OnLo,
    /// The query exactly on `hi`.
    OnHi,
    /// `lo == hi`, the query below, on or above it.
    Degenerate,
    /// `±0.0` bounds and queries.
    SignedZero,
    /// `±∞` bounds, as the K-D-B root's partitions carry.
    Infinite,
    /// NaN bounds (corrupt bytes; only the raw kernels can hold them).
    Nan,
    /// An ordinary ordered axis.
    Random,
}

const AXES: [Axis; 7] = [
    Axis::OnLo,
    Axis::OnHi,
    Axis::Degenerate,
    Axis::SignedZero,
    Axis::Infinite,
    Axis::Nan,
    Axis::Random,
];

/// One `(lo, hi, x)` axis of `kind`.
fn axis(rng: &mut SeededRng, kind: Axis) -> (f32, f32, f32) {
    let mut pick = |choices: &[f32]| choices[rng.random_range(0..choices.len())];
    let (a, b, x) = (
        pick(&[-3.5, -1.0, 0.25, 2.0]),
        pick(&[2.5, 4.0, 1e6]),
        pick(&[-1e6, -2.0, 0.0, 1.0, 3.0, 7.5]),
    );
    match kind {
        Axis::OnLo => (a, b, a),
        Axis::OnHi => (a, b, b),
        Axis::Degenerate => (a, a, pick(&[a, a.next_down(), a.next_up(), x])),
        Axis::SignedZero => (
            pick(&[-0.0, 0.0]),
            pick(&[-0.0, 0.0, b]),
            pick(&[-0.0, 0.0, -1.0, 1.0]),
        ),
        Axis::Infinite => {
            let (lo, hi) = [
                (f32::NEG_INFINITY, b),
                (a, f32::INFINITY),
                (f32::NEG_INFINITY, f32::INFINITY),
                (f32::INFINITY, f32::INFINITY),
                (f32::NEG_INFINITY, f32::NEG_INFINITY),
            ][rng.random_range(0..5)];
            (lo, hi, x)
        }
        Axis::Nan => {
            let (lo, hi) =
                [(f32::NAN, b), (a, f32::NAN), (f32::NAN, f32::NAN)][rng.random_range(0..3)];
            (lo, hi, x)
        }
        Axis::Random => {
            let (p, q) = (
                rng.random::<f32>() * 20.0 - 10.0,
                rng.random::<f32>() * 20.0 - 10.0,
            );
            (p.min(q), p.max(q), rng.random::<f32>() * 30.0 - 15.0)
        }
    }
}

/// The branch-free `MINDIST` — [`rect_min_dist2_f64le`], [`Rect::min_dist2`]
/// and both halves of [`sphere_rect_min_dist2_f64le`] — equals the
/// three-way reference bit for bit, on every edge the clamp could get
/// wrong: the query on a bound, `lo == hi`, `±0.0`, `±∞` and NaN bounds.
/// Each dimensionality runs one case per axis kind on every axis, then
/// cases that mix the kinds.
#[test]
fn branch_free_min_dist_matches_the_three_way_term_bitwise() {
    use sr_geometry::{
        rect_min_dist2_f64le, sphere_min_dist2_f64le, sphere_rect_min_dist2_f64le, Rect,
    };
    let f64le = |coords: &[f32]| -> Vec<u8> {
        coords
            .iter()
            .flat_map(|&c| f64::from(c).to_le_bytes())
            .collect()
    };
    for dim in 1..=64usize {
        let seed = 0x0C1A_49ED ^ (dim as u64);
        let mut rng = SeededRng::seed_from_u64(seed);
        let cases = AXES.iter().map(|&k| Some(k)).chain([None; 16]);
        for (case, kind) in cases.enumerate() {
            let (mut lo, mut hi, mut query) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..dim {
                let k = kind.unwrap_or_else(|| AXES[rng.random_range(0..AXES.len())]);
                let (l, h, x) = axis(&mut rng, k);
                lo.push(l);
                hi.push(h);
                query.push(x);
            }
            let center = arb_points(&mut rng, 1, dim).remove(0);
            let radius = f64::from(rng.random::<f32>() * 500.0);
            let want = branchy_min_dist2(&lo, &hi, &query);
            let ctx = format!("dim {dim} case {case} ({kind:?}) seed {seed:#x}");
            let (raw_lo, raw_hi, raw_center) = (f64le(&lo), f64le(&hi), f64le(&center));

            let raw = rect_min_dist2_f64le(&raw_lo, &raw_hi, &query).unwrap();
            assert_eq!(
                raw.to_bits(),
                want.to_bits(),
                "raw kernel {raw} != {want}: {ctx}"
            );
            // `Rect` holds only ordered, NaN-free bounds.
            if !lo.iter().chain(&hi).any(|v| v.is_nan()) {
                let got = Rect::new(lo.clone(), hi.clone()).min_dist2(&query);
                assert_eq!(got.to_bits(), want.to_bits(), "Rect {got} != {want}: {ctx}");
            }
            let (sphere, rect) =
                sphere_rect_min_dist2_f64le(&raw_center, radius, &raw_lo, &raw_hi, &query).unwrap();
            assert_eq!(
                rect.to_bits(),
                want.to_bits(),
                "fused rect {rect} != {want}: {ctx}"
            );
            let alone = sphere_min_dist2_f64le(&raw_center, radius, &query).unwrap();
            assert_eq!(
                sphere.to_bits(),
                alone.to_bits(),
                "fused sphere {sphere} != {alone}: {ctx}"
            );
        }
    }
}

/// One special or ordinary f32 for a center lane or a query coordinate.
fn special(rng: &mut SeededRng) -> f32 {
    match rng.random_range(0..8) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        _ => rng.random::<f32>() * 200.0 - 100.0,
    }
}

/// The row-major inner entries of an SR-tree page, as the node codec
/// writes them: sphere center and radius, rectangle `lo` and `hi`, a
/// 4-byte weight and an 8-byte child id per entry. Returns the bytes and
/// the stride.
fn sr_rows(rng: &mut SeededRng, n: usize, dim: usize, plain: bool) -> (Vec<u8>, usize) {
    let mut rows = Vec::new();
    for i in 0..n {
        for _ in 0..dim {
            let c = if plain {
                rng.random::<f32>() * 200.0 - 100.0
            } else {
                special(rng)
            };
            rows.extend_from_slice(&f64::from(c).to_le_bytes());
        }
        let radius = match rng.random_range(0..if plain { 1 } else { 6 }) {
            1 => -1.0,
            2 => -0.0,
            3 => f64::NAN,
            4 => f64::INFINITY,
            5 => 0.0,
            _ => f64::from(rng.random::<f32>() * 80.0),
        };
        rows.extend_from_slice(&radius.to_le_bytes());
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for _ in 0..dim {
            let kind = if plain {
                Axis::Random
            } else {
                AXES[rng.random_range(0..AXES.len())]
            };
            let (l, h, _) = axis(rng, kind);
            lo.extend_from_slice(&f64::from(l).to_le_bytes());
            hi.extend_from_slice(&f64::from(h).to_le_bytes());
        }
        rows.extend(lo);
        rows.extend(hi);
        rows.extend_from_slice(&(i as u32).to_le_bytes());
        rows.extend_from_slice(&(i as u64 + 7).to_le_bytes());
    }
    (rows, (3 * dim + 1) * 8 + 4 + 8)
}

/// The multi-entry bound kernels score `n` row-major inner entries four
/// at a time; every bound must equal the one-entry kernel's on the same
/// entry bit for bit — the combined bound, and the sphere-only and
/// rectangle-only bounds the SR-tree's ablation scores the same rows
/// with. Every `n` from 0 to 9 covers each remainder of a lockstep
/// group; entries plant NaN, `±∞` and `−0.0` lanes and negative radii.
#[test]
fn multi_entry_bounds_match_one_entry_kernels_bitwise() {
    use sr_geometry::{
        rect_min_dist2_f64le, rect_min_dist2_rows_f64le, sphere_min_dist2_f64le,
        sphere_min_dist2_rows_f64le, sphere_rect_min_dist2_f64le, sphere_rect_min_dist2_rows_f64le,
    };
    for dim in [1usize, 2, 3, 4, 7, 8, 9, 16, 17, 33] {
        let seed = 0x4_1A57 ^ (dim as u64);
        let mut rng = SeededRng::seed_from_u64(seed);
        for n in 0..=9usize {
            for plain in [true, false] {
                let (rows, stride) = sr_rows(&mut rng, n, dim, plain);
                let query: Vec<f32> = (0..dim)
                    .map(|_| match rng.random_range(0..4) {
                        0 => -0.0,
                        _ => rng.random::<f32>() * 240.0 - 120.0,
                    })
                    .collect();
                let ctx = format!("dim {dim} n {n} plain {plain} seed {seed:#x}");
                let lane = |i: usize, at: usize, len: usize| {
                    let start = i * stride + at * 8;
                    &rows[start..start + len * 8]
                };
                let radius = |i: usize| f64::from_le_bytes(lane(i, dim, 1).try_into().unwrap());

                let mut both = Vec::new();
                sphere_rect_min_dist2_rows_f64le(&rows, stride, n, &query, |s, r| {
                    both.push((s, r))
                })
                .unwrap();
                let mut sphere = Vec::new();
                sphere_min_dist2_rows_f64le(&rows, stride, n, &query, |s| sphere.push(s)).unwrap();
                let mut rect = Vec::new();
                let rect_rows = &rows[((dim + 1) * 8).min(rows.len())..];
                rect_min_dist2_rows_f64le(rect_rows, stride, n, &query, |r| rect.push(r)).unwrap();
                assert_eq!((both.len(), sphere.len(), rect.len()), (n, n, n), "{ctx}");

                for i in 0..n {
                    let (center, lo, hi) = (
                        lane(i, 0, dim),
                        lane(i, dim + 1, dim),
                        lane(i, 2 * dim + 1, dim),
                    );
                    let (s, r) =
                        sphere_rect_min_dist2_f64le(center, radius(i), lo, hi, &query).unwrap();
                    assert_eq!(
                        both[i].0.to_bits(),
                        s.to_bits(),
                        "sphere half, entry {i}: {ctx}"
                    );
                    assert_eq!(
                        both[i].1.to_bits(),
                        r.to_bits(),
                        "rect half, entry {i}: {ctx}"
                    );
                    let s = sphere_min_dist2_f64le(center, radius(i), &query).unwrap();
                    assert_eq!(
                        sphere[i].to_bits(),
                        s.to_bits(),
                        "sphere only, entry {i}: {ctx}"
                    );
                    let r = rect_min_dist2_f64le(lo, hi, &query).unwrap();
                    assert_eq!(
                        rect[i].to_bits(),
                        r.to_bits(),
                        "rect only, entry {i}: {ctx}"
                    );
                }
            }
        }
    }
}

/// The multi-entry kernels refuse a buffer too short for `n` entries and
/// a stride narrower than the region, and score nothing for `n = 0`.
#[test]
fn multi_entry_kernels_check_their_layout() {
    use sr_geometry::{
        rect_min_dist2_rows_f64le, sphere_min_dist2_rows_f64le, sphere_rect_min_dist2_rows_f64le,
        GeometryError,
    };
    let dim = 3;
    let mut rng = SeededRng::seed_from_u64(0x1A_7007);
    let (rows, stride) = sr_rows(&mut rng, 5, dim, true);
    let query = [0.5f32; 3];
    let short = &rows[..4 * stride + (3 * dim + 1) * 8 - 1];
    let err = sphere_rect_min_dist2_rows_f64le(short, stride, 5, &query, |_, _| {}).unwrap_err();
    assert_eq!(
        err,
        GeometryError::Layout {
            expected: 4 * stride + (3 * dim + 1) * 8,
            actual: short.len()
        }
    );
    // The last row needs only its region's lanes.
    let mut seen = 0;
    sphere_rect_min_dist2_rows_f64le(&rows[..short.len() + 1], stride, 5, &query, |_, _| {
        seen += 1
    })
    .unwrap();
    assert_eq!(seen, 5);
    assert!(sphere_min_dist2_rows_f64le(&rows, dim * 8, 2, &query, |_| {}).is_err());
    assert!(rect_min_dist2_rows_f64le(&rows, 2 * dim * 8 - 1, 2, &query, |_| {}).is_err());
    for n in [0, 1] {
        let mut calls = 0;
        rect_min_dist2_rows_f64le(&[], stride, 0, &query, |_| calls += 1).unwrap();
        sphere_min_dist2_rows_f64le(&rows[..n * stride], stride, n, &query, |_| calls += 1)
            .unwrap();
        assert_eq!(calls, n);
    }
}
