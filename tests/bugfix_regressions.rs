//! Regression tests for correctness bugs in the query paths:
//!
//! 1. **Zero-tolerance sphere containment** — `contains`/`delete`
//!    descend by testing the stored point against each child's bounding
//!    sphere. Spheres are rebuilt from f32-rounded centroids, so a live
//!    point can sit a few ulps outside its ancestor's sphere; an exact
//!    test silently missed such entries. Fixed with an epsilon-tolerant
//!    test (`CONTAINMENT_EPS`).
//! 2. **Empty-tree height underflow** — query entry points computed
//!    `(height - 1) as u16` before checking for an empty tree, which
//!    underflows for height 0 (corrupt metadata) and did useless page
//!    walks for height 1 with an empty root. All five indexes now
//!    short-circuit empty trees.
//! 3. **Negative-radius panic** — `range` used to `assert!` on a
//!    negative radius. It is now a typed error (`InvalidRadius`) on all
//!    five indexes.
//! 4. **Distance-accumulation drift** — the columnar kernel could have
//!    reassociated the per-point sum (chunked partial sums), which
//!    drifts `dist2` by ulps and silently reorders near-tied neighbor
//!    lists (the candidate set breaks exact-distance ties by data id).
//!    The kernel pins the canonical accumulation order instead; this
//!    suite holds all five trees to bit-identical distances and equal
//!    ids against the brute-force oracle on adversarially tie-heavy
//!    data.
//! 5. **k-NN ties across leaves** — both searches pruned a region whose
//!    bound *equalled* the k-th distance, and the sphere bound could
//!    round above a point's distance, so the trees returned other tied
//!    ids than the oracle. Regions are now pruned only strictly beyond
//!    the k-th distance, under a sphere bound with a rounding allowance.
//! 6. **k = 0** — best-first and the brute-force oracle panicked; every
//!    engine now answers it with nothing, reading no page.
//! 7. **Huge k** — the candidate heap preallocated `k + 1` slots, so a
//!    `k` of `u32::MAX` (a wire `Knn` request carries a `u32`) aborted the
//!    process allocating 64 GiB, and `usize::MAX` overflowed. The heap now
//!    preallocates at most a fixed cap and grows with what it keeps.
//! 8. **Non-finite coordinates** — nothing checked them: a NaN insert
//!    returned `Ok` and left every page on its path with a NaN region
//!    that failed verification, and a NaN or infinite query returned
//!    rows at NaN or infinite distances. Every insert, build, delete and
//!    query path now refuses them with `IndexError::NonFinite`.
//! 9. **NaN leaf lanes** — the columnar leaf scan scored a NaN
//!    coordinate into a NaN distance, which the candidate set and the
//!    range filter then dropped: k-NN and range answered without the
//!    entry, while `contains` and `verify` failed the same page as
//!    corrupt. The search now fails the page with the same text.
//! 10. **Metadata height outside the level range** — a page stores its
//!     level as a `u16`, so a tree has 1 to 65,536 levels. `open`
//!     accepted any stored height, and every walk truncated `height - 1`
//!     to 16 bits: a height of 65,537 opened as a one-leaf tree that
//!     verified and took inserts. `open` now refuses such a height with
//!     `IndexError::NotThisIndex`, like its other metadata checks.

use srtree::dataset::{cluster, uniform, ClusterSpec};
use srtree::geometry::Point;
use srtree::kdbtree::KdbTree;
use srtree::query::{IndexError, Neighbor, QuerySpec, SpatialIndex};
use srtree::rstar::RstarTree;
use srtree::sstree::SsTree;
use srtree::tree::SrTree;
use srtree::vamsplit::VamTree;

/// k-NN in the paper's depth-first order; `SpatialIndex::knn` serves
/// best-first.
fn knn_depth_first(
    tree: &dyn SpatialIndex,
    q: &[f32],
    k: usize,
) -> Result<Vec<Neighbor>, IndexError> {
    tree.query(&QuerySpec::knn(q, k).depth_first(), &srtree::obs::Noop)
        .map(|o| o.rows)
}

// ---------------------------------------------------------------------
// Bug 1: sphere-boundary containment.
// ---------------------------------------------------------------------

/// Clustered data maximizes centroid-update rounding: many near-identical
/// coordinates accumulate f32 error in the running means the spheres are
/// rebuilt from. Every inserted entry must remain visible to `contains`
/// and removable by `delete`.
#[test]
fn sr_tree_contains_and_delete_find_every_live_entry() {
    let points = cluster(
        ClusterSpec {
            clusters: 10,
            points_per_cluster: 150,
            max_radius: 0.001,
        },
        16,
        41,
    );
    let mut tree = SrTree::create_in_memory(16, 4096).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    for (i, p) in points.iter().enumerate() {
        assert!(
            tree.contains(p, i as u64).unwrap(),
            "entry {i} was inserted but contains() cannot see it"
        );
    }
    for (i, p) in points.iter().enumerate() {
        assert!(
            tree.delete(p, i as u64).unwrap(),
            "entry {i} was inserted but delete() cannot find it"
        );
    }
    assert!(tree.is_empty());
}

#[test]
fn ss_tree_contains_and_delete_find_every_live_entry() {
    let points = cluster(
        ClusterSpec {
            clusters: 10,
            points_per_cluster: 150,
            max_radius: 0.001,
        },
        16,
        43,
    );
    let mut tree = SsTree::create_in_memory(16, 4096).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    for (i, p) in points.iter().enumerate() {
        assert!(
            tree.contains(p, i as u64).unwrap(),
            "entry {i} was inserted but contains() cannot see it"
        );
    }
    for (i, p) in points.iter().enumerate() {
        assert!(
            tree.delete(p, i as u64).unwrap(),
            "entry {i} was inserted but delete() cannot find it"
        );
    }
    assert!(tree.is_empty());
}

// ---------------------------------------------------------------------
// Bug 2: empty-tree queries.
// ---------------------------------------------------------------------

/// Every query entry point must handle a tree that holds no points —
/// no panics, no underflow, empty results.
#[test]
fn empty_trees_answer_every_query_shape() {
    let q = vec![0.5f32; 8];
    let p = Point::new(q.clone());

    let mut sr = SrTree::create_in_memory(8, 4096).unwrap();
    assert!(sr.knn(&q, 5).unwrap().is_empty());
    assert!(knn_depth_first(&sr, &q, 5).unwrap().is_empty());
    assert!(sr.range(&q, 1.0).unwrap().is_empty());
    assert!(!sr.contains(&p, 0).unwrap());
    assert!(!sr.delete(&p, 0).unwrap());

    let mut ss = SsTree::create_in_memory(8, 4096).unwrap();
    assert!(ss.knn(&q, 5).unwrap().is_empty());
    assert!(ss.range(&q, 1.0).unwrap().is_empty());
    assert!(!ss.contains(&p, 0).unwrap());
    assert!(!ss.delete(&p, 0).unwrap());

    let mut rs = RstarTree::create_in_memory(8, 4096).unwrap();
    assert!(rs.knn(&q, 5).unwrap().is_empty());
    assert!(rs.range(&q, 1.0).unwrap().is_empty());
    assert!(!rs.contains(&p, 0).unwrap());
    assert!(!rs.delete(&p, 0).unwrap());

    let mut kdb = KdbTree::create_in_memory(8, 4096).unwrap();
    assert!(kdb.knn(&q, 5).unwrap().is_empty());
    assert!(kdb.range(&q, 1.0).unwrap().is_empty());
    assert!(!kdb.contains(&p, 0).unwrap());
    assert!(!kdb.delete(&p, 0).unwrap());

    let vam = VamTree::build_in_memory(Vec::new(), 8, 4096).unwrap();
    assert!(vam.knn(&q, 5).unwrap().is_empty());
    assert!(vam.range(&q, 1.0).unwrap().is_empty());
    assert!(!vam.contains(&p, 0).unwrap());
}

/// A 0-NN query has an empty answer in every engine — depth-first,
/// best-first and the brute-force oracle — and no engine reads a page
/// to find that out.
#[test]
fn zero_k_answers_empty_without_reading_a_page() {
    use srtree::query::{brute_force_knn, SpatialIndex};

    let points = uniform(200, 4, 53);
    let with_ids: Vec<(Point, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let q = vec![0.5f32; 4];
    assert!(brute_force_knn(with_ids.iter().map(|(p, i)| (p.coords(), *i)), &q, 0).is_empty());

    let mut sr = SrTree::create_in_memory(4, 4096).unwrap();
    let mut ss = SsTree::create_in_memory(4, 4096).unwrap();
    let mut rs = RstarTree::create_in_memory(4, 4096).unwrap();
    let mut kdb = KdbTree::create_in_memory(4, 4096).unwrap();
    for (p, i) in &with_ids {
        sr.insert(p.clone(), *i).unwrap();
        ss.insert(p.clone(), *i).unwrap();
        rs.insert(p.clone(), *i).unwrap();
        kdb.insert(p.clone(), *i).unwrap();
    }
    let vam = VamTree::build_in_memory(with_ids.clone(), 4, 4096).unwrap();

    sr.pager().reset_stats();
    assert!(knn_depth_first(&sr, &q, 0).unwrap().is_empty());
    assert_eq!(
        sr.pager().stats().tree_reads(),
        0,
        "depth-first read a page"
    );
    let trees: [(&str, &dyn SpatialIndex); 5] = [
        ("sr", &sr),
        ("ss", &ss),
        ("rstar", &rs),
        ("kdb", &kdb),
        ("vam", &vam),
    ];
    for (name, tree) in trees {
        tree.pager().reset_stats();
        assert!(tree.knn(&q, 0).unwrap().is_empty(), "{name}");
        assert_eq!(tree.pager().stats().tree_reads(), 0, "{name} read a page");
    }
}

/// Deleting the last entry takes a tree back to empty; queries must
/// keep working afterwards (this exercises the post-shrink state, not
/// just the freshly created one).
#[test]
fn trees_emptied_by_deletion_still_answer_queries() {
    let q = vec![0.5f32; 4];
    let p = Point::new(q.clone());

    let mut sr = SrTree::create_in_memory(4, 4096).unwrap();
    sr.insert(p.clone(), 7).unwrap();
    assert!(sr.delete(&p, 7).unwrap());
    assert!(sr.knn(&q, 3).unwrap().is_empty());
    assert!(sr.range(&q, 10.0).unwrap().is_empty());
    assert!(!sr.contains(&p, 7).unwrap());
}

// ---------------------------------------------------------------------
// Bug 3: negative radius is a typed error.
// ---------------------------------------------------------------------

#[test]
fn negative_radius_is_rejected_not_a_panic() {
    let points = uniform(100, 4, 47);
    let q = vec![0.5f32; 4];

    let mut sr = SrTree::create_in_memory(4, 4096).unwrap();
    let mut ss = SsTree::create_in_memory(4, 4096).unwrap();
    let mut rs = RstarTree::create_in_memory(4, 4096).unwrap();
    let mut kdb = KdbTree::create_in_memory(4, 4096).unwrap();
    for (i, p) in points.iter().enumerate() {
        sr.insert(p.clone(), i as u64).unwrap();
        ss.insert(p.clone(), i as u64).unwrap();
        rs.insert(p.clone(), i as u64).unwrap();
        kdb.insert(p.clone(), i as u64).unwrap();
    }
    let with_ids: Vec<(Point, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let vam = VamTree::build_in_memory(with_ids, 4, 4096).unwrap();

    let trees: [&dyn SpatialIndex; 5] = [&sr, &ss, &rs, &kdb, &vam];
    for tree in trees {
        for bad in [-1.0, f64::NAN] {
            let got = tree.range(&q, bad);
            assert!(
                matches!(got, Err(IndexError::InvalidRadius(r)) if r.to_bits() == bad.to_bits()),
                "{}: {got:?}",
                tree.kind_name()
            );
        }
    }

    // Zero and +inf stay valid: a degenerate and a full-scan radius.
    assert!(sr.range(&q, 0.0).is_ok());
    assert_eq!(sr.range(&q, f64::INFINITY).unwrap().len(), points.len());
}

// ---------------------------------------------------------------------
// Bug 4: distance-accumulation drift on near-tied data.
// ---------------------------------------------------------------------

/// Adversarially tie-heavy point set: a few duplicated points (exact
/// ties, resolved by the data-id tie-break; kept below leaf capacity —
/// a page of identical points cannot be split by the K-D-B-tree), an
/// axis-symmetric shell of 2·dim distinct points at *exactly* the same
/// distance from its center, coordinate permutations of one multiset
/// (sums that agree exactly in real arithmetic but differ by ulps under
/// any *reassociated* f64 order), and 1-ulp perturbations.
fn near_tie_points(dim: usize) -> Vec<Point> {
    let mut pts = Vec::new();
    // 5 exact duplicates of one point.
    let base: Vec<f32> = (0..dim).map(|d| 0.25 + d as f32 * 1e-3).collect();
    for _ in 0..5 {
        pts.push(Point::new(base.clone()));
    }
    // Tie shell: center ± delta along each axis — every point's dist2
    // to the center is the identical single-term sum delta².
    let center = vec![0.5f32; dim];
    for d in 0..dim {
        for sign in [-0.25f32, 0.25] {
            let mut p = center.clone();
            p[d] += sign;
            pts.push(Point::new(p));
        }
    }
    // Cyclic permutations of one multiset of distinct values.
    let multiset: Vec<f32> = (0..dim).map(|d| 1.0 + (d as f32) * 0.125).collect();
    for rot in 0..dim {
        for rep in 0..4 {
            let mut p: Vec<f32> = (0..dim).map(|d| multiset[(d + rot) % dim]).collect();
            // Shift every fourth copy by one ulp in one coordinate.
            if rep == 3 {
                p[rot] = f32::from_bits(p[rot].to_bits() + 1);
            }
            pts.push(Point::new(p));
        }
    }
    // A spread of ordinary points so the trees have real structure.
    for p in uniform(200, dim, 131) {
        pts.push(p);
    }
    pts
}

#[test]
fn near_ties_resolve_identically_across_trees() {
    use srtree::query::{brute_force_knn, SpatialIndex};

    let dim = 16;
    let points = near_tie_points(dim);
    let with_ids: Vec<(Point, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();

    let mut sr = SrTree::create_in_memory(dim, 4096).unwrap();
    let mut ss = SsTree::create_in_memory(dim, 4096).unwrap();
    let mut rs = RstarTree::create_in_memory(dim, 4096).unwrap();
    let mut kdb = KdbTree::create_in_memory(dim, 4096).unwrap();
    for (p, i) in &with_ids {
        sr.insert(p.clone(), *i).unwrap();
        ss.insert(p.clone(), *i).unwrap();
        rs.insert(p.clone(), *i).unwrap();
        kdb.insert(p.clone(), *i).unwrap();
    }
    let vam = VamTree::build_in_memory(with_ids.clone(), dim, 4096).unwrap();

    // Query at a duplicated point (the id tie-break decides the top
    // ranks), at the tie shell's center (2·dim exactly-equidistant
    // answers), at a permuted point, and off to the side of the
    // permutation shell.
    let mut queries: Vec<Vec<f32>> = vec![
        points[0].coords().to_vec(),
        vec![0.5; dim],
        points[5 + 2 * dim + 3].coords().to_vec(),
    ];
    queries.push((0..dim).map(|d| 1.0 + (d as f32) * 0.125 * 0.5).collect());

    // Oracle agreement, rank by rank: distances bit-equal (the leaf
    // kernel keeps the oracle's accumulation order) and ids equal, the
    // k-th distance included (a region at exactly the k-th distance is
    // visited, so the smallest tied ids win as in the oracle).
    for (qi, q) in queries.iter().enumerate() {
        for k in [1usize, 4, 32, 60] {
            let want = brute_force_knn(with_ids.iter().map(|(p, i)| (p.coords(), *i)), q, k);
            assert_eq!(want.len(), k.min(points.len()), "query {qi} oracle size");
            let want: Vec<(u64, u64)> = want.iter().map(|n| (n.dist2.to_bits(), n.data)).collect();
            let trees: [(&str, &dyn SpatialIndex); 5] = [
                ("sr", &sr),
                ("ss", &ss),
                ("rstar", &rs),
                ("kdb", &kdb),
                ("vam", &vam),
            ];
            for (name, tree) in trees {
                let got: Vec<(u64, u64)> = (tree.knn(q, k).unwrap().iter())
                    .map(|n| (n.dist2.to_bits(), n.data))
                    .collect();
                assert_eq!(
                    got, want,
                    "{name} query {qi} k {k}: drifted from the oracle"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bug 5: k-NN ties across leaves.
// ---------------------------------------------------------------------

/// Every query engine must return the oracle's ids when the k-th
/// distance is shared by points in different leaves. Both searches used
/// to prune a region whose bound *equals* the k-th distance, although
/// the candidate set admits a tied point with a smaller id; and the
/// sphere bound `(sqrt(d²) - r)²` could round above the distance of a
/// point on the sphere, dropping tied points in the SS- and SR-trees.
///
/// Two point sets, both inserted with ids in descending order so the
/// smallest tied ids arrive last:
/// - every even id a duplicate of (1, 1) (dist² 2 from the query),
///   every odd id farther away. The K-D-B-tree cannot store more
///   coincident points than one page holds, so it sits this one out;
/// - 108 distinct lattice points on the circle x² + y² = 1105², every
///   one at exactly the same distance from the query, for all five
///   trees. A range query of radius 1105 must return each of them.
#[test]
fn knn_ties_across_leaves_match_the_oracle() {
    use srtree::query::{brute_force_knn, brute_force_range, Neighbor, SpatialIndex};

    let n = 2_000u64;
    let far = uniform(n as usize, 2, 59);
    let point_at = |id: u64, tie: &dyn Fn(u64) -> Vec<f32>| -> Point {
        if id.is_multiple_of(2) {
            Point::new(tie(id))
        } else {
            let c = far[id as usize].coords();
            Point::new(vec![3000.0 + c[0], 3000.0 + c[1]])
        }
    };
    let shell: Vec<Vec<f32>> = {
        let r = 1105i64;
        let mut v = Vec::new();
        for x in -r..=r {
            let y2 = r * r - x * x;
            let y = (y2 as f64).sqrt() as i64;
            if y * y == y2 {
                v.push(vec![x as f32, y as f32]);
                if y != 0 {
                    v.push(vec![x as f32, -y as f32]);
                }
            }
        }
        v
    };
    assert_eq!(shell.len(), 108);
    let duplicates: Vec<(Point, u64)> = (0..n)
        .rev()
        .map(|id| (point_at(id, &|_| vec![1.0, 1.0]), id))
        .collect();
    let lattice: Vec<(Point, u64)> = (0..2 * shell.len() as u64)
        .rev()
        .map(|id| (point_at(id, &|id| shell[(id / 2) as usize].clone()), id))
        .collect();

    let ids = |v: &[Neighbor]| {
        v.iter()
            .map(|n| (n.dist2.to_bits(), n.data))
            .collect::<Vec<_>>()
    };
    let q = [0.0f32, 0.0];
    for (set, with_ids) in [("duplicates", &duplicates), ("lattice", &lattice)] {
        let mut sr = SrTree::create_in_memory(2, 2048).unwrap();
        let mut ss = SsTree::create_in_memory(2, 2048).unwrap();
        let mut rs = RstarTree::create_in_memory(2, 2048).unwrap();
        let mut kdb = KdbTree::create_in_memory(2, 2048).unwrap();
        for (p, i) in with_ids.iter() {
            sr.insert(p.clone(), *i).unwrap();
            ss.insert(p.clone(), *i).unwrap();
            rs.insert(p.clone(), *i).unwrap();
            if set == "lattice" {
                kdb.insert(p.clone(), *i).unwrap();
            }
        }
        let vam = VamTree::build_in_memory(with_ids.clone(), 2, 2048).unwrap();
        let mut trees: Vec<(&str, &dyn SpatialIndex)> =
            vec![("sr", &sr), ("ss", &ss), ("rstar", &rs), ("vam", &vam)];
        if set == "lattice" {
            trees.push(("kdb", &kdb));
        }
        let flat = || with_ids.iter().map(|(p, i)| (p.coords(), *i));
        for k in [1usize, 3, 21, 150] {
            let want = ids(&brute_force_knn(flat(), &q, k));
            for (name, tree) in &trees {
                let got = ids(&tree.knn(&q, k).unwrap());
                assert_eq!(got, want, "{set}: {name} k = {k}");
                let got = ids(&knn_depth_first(*tree, &q, k).unwrap());
                assert_eq!(got, want, "{set}: {name} depth-first k = {k}");
            }
        }
        if set == "lattice" {
            let want = ids(&brute_force_range(flat(), &q, 1105.0));
            assert_eq!(want.len(), shell.len());
            for (name, tree) in &trees {
                let got = ids(&tree.range(&q, 1105.0).unwrap());
                assert_eq!(got, want, "{set}: {name} range on the shell");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bug 7: huge k.
// ---------------------------------------------------------------------

/// A `k` far beyond the index's size returns every point, nearest first,
/// from all five trees, SR best-first and the oracle alike.
#[test]
fn huge_k_returns_every_point() {
    use sr_testkit::TreeKind;
    use srtree::pager::PageFile;
    use srtree::query::{brute_force_knn, Neighbor};
    use srtree::tree::paged::DEFAULT_DATA_AREA;

    let with_ids: Vec<(Point, u64)> = uniform(500, 4, 61).into_iter().zip(0u64..).collect();
    let q = [0.1f32, 0.2, 0.3, 0.4];
    let rows = |v: &[Neighbor]| {
        v.iter()
            .map(|n| (n.dist2.to_bits(), n.data))
            .collect::<Vec<_>>()
    };
    let want = rows(&brute_force_knn(
        with_ids.iter().map(|(p, i)| (p.coords(), *i)),
        &q,
        usize::MAX,
    ));
    assert_eq!(want.len(), with_ids.len());
    for kind in TreeKind::ALL {
        let pf = PageFile::create_in_memory(4096).unwrap();
        let tree = kind
            .build(pf, 4, DEFAULT_DATA_AREA, with_ids.clone())
            .unwrap();
        let got = rows(&tree.knn(&q, usize::MAX).unwrap());
        assert_eq!(got, want, "{}", kind.kind_name());
    }
    let mut sr = SrTree::create_in_memory(4, 4096).unwrap();
    for (p, i) in &with_ids {
        sr.insert(p.clone(), *i).unwrap();
    }
    assert_eq!(rows(&sr.knn(&q, usize::MAX).unwrap()), want);
    let got = knn_depth_first(&sr, &q, usize::MAX).unwrap();
    assert_eq!(rows(&got), want);
}

// ---------------------------------------------------------------------
// Bug 8: non-finite coordinates.
// ---------------------------------------------------------------------

#[track_caller]
fn assert_non_finite<T: std::fmt::Debug>(got: Result<T, IndexError>) {
    match got {
        Err(IndexError::NonFinite { axis: 1, value }) => assert!(!value.is_finite()),
        other => panic!("expected NonFinite at axis 1, got {other:?}"),
    }
}

/// A NaN or infinite coordinate is refused with the typed error on every
/// tree's insert, delete and query paths, in both search orders and on
/// both bulk builders, and a refused write leaves the index whole.
#[test]
fn non_finite_coordinates_are_refused_on_every_path() {
    use sr_testkit::TreeKind;
    use srtree::pager::PageFile;
    use srtree::query::QuerySpec;
    use srtree::tree::paged::DEFAULT_DATA_AREA;

    let with_ids: Vec<(Point, u64)> = uniform(200, 4, 67).into_iter().zip(0u64..).collect();
    for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let bad = [0.1, x, 0.3, 0.4];
        for kind in TreeKind::ALL {
            let pf = PageFile::create_in_memory(4096).unwrap();
            let mut tree = kind
                .build(pf, 4, DEFAULT_DATA_AREA, with_ids.clone())
                .unwrap();
            let name = kind.kind_name();
            if kind == TreeKind::Vam {
                // Bulk-built only: every write is refused before its point
                // is looked at.
                let unsupported = |r: Result<(), IndexError>| {
                    assert!(matches!(r, Err(IndexError::Unsupported(_))), "{r:?}")
                };
                unsupported(tree.insert(&bad, 999));
                unsupported(tree.delete(&bad, 0).map(|_| ()));
            } else {
                assert_non_finite(tree.insert(&bad, 999));
                assert_non_finite(tree.delete(&bad, 0));
            }
            assert_non_finite(tree.knn(&bad, 3));
            let range = QuerySpec::range(&bad, 0.5);
            assert_non_finite(tree.query(&range, &srtree::obs::Noop));
            assert_eq!(tree.len(), 200, "{name}");
            tree.verify()
                .unwrap_or_else(|e| panic!("{name} after refused writes: {e}"));
        }

        let mut sr = SrTree::create_in_memory(4, 4096).unwrap();
        for (p, i) in &with_ids {
            sr.insert(p.clone(), *i).unwrap();
        }
        assert_non_finite(knn_depth_first(&sr, &bad, 3));
        assert_non_finite(sr.contains(&Point::new(bad.to_vec()), 0));

        let mut points = with_ids.clone();
        points.push((Point::new(bad.to_vec()), 999));
        let mut bulk = SrTree::create_in_memory(4, 4096).unwrap();
        assert_non_finite(bulk.bulk_load(points.clone()));
        assert_eq!(bulk.len(), 0);
        let pf = PageFile::create_in_memory(4096).unwrap();
        assert_non_finite(VamTree::build_from(pf, points, 4, DEFAULT_DATA_AREA).map(|_| ()));
    }
}

// ---------------------------------------------------------------------
// Bug 9: a NaN leaf lane.
// ---------------------------------------------------------------------

/// A leaf with a NaN coordinate fails every search that scores the
/// entry, with the `Corrupt` text `verify` reports. With `k` at least
/// the entry count the threshold stays `+inf` (as does a range radius of
/// `+inf`), so no entry is abandoned before its NaN lane.
#[test]
fn nan_leaf_lane_fails_knn_and_range_in_both_orders() {
    use srtree::pager::PageKind;
    use srtree::query::SearchOrder;

    let dim = 4;
    let points = uniform(5, dim, 71);
    let mut sr = SrTree::create_in_memory(dim, 4096).unwrap();
    for (i, p) in points.iter().enumerate() {
        sr.insert(p.clone(), i as u64).unwrap();
    }
    assert_eq!(sr.root_level(), Some(0), "one leaf");
    let root = sr.root;
    let mut page = sr.pager().read(root, PageKind::Leaf).unwrap().to_vec();
    // Lanes are f64, dimension-major, after the 4-byte header: plant the
    // NaN in coordinate 2 of entry 3.
    let at = 4 + (2 * points.len() + 3) * 8;
    page[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    sr.pager().write(root, PageKind::Leaf, &page).unwrap();

    let want = format!("page {root}: non-finite leaf coordinate");
    match sr.verify() {
        Err(IndexError::Corrupt(msg)) => assert_eq!(msg, want, "verify"),
        other => panic!("verify: expected Corrupt, got {other:?}"),
    }
    let q = points[0].coords();
    for order in [SearchOrder::BestFirst, SearchOrder::DepthFirst] {
        for k in [points.len(), 100] {
            let spec = QuerySpec {
                order,
                ..QuerySpec::knn(q, k)
            };
            match sr.query(&spec, &srtree::obs::Noop) {
                Err(IndexError::Corrupt(msg)) => assert_eq!(msg, want, "{order:?} k = {k}"),
                other => panic!("{order:?} k = {k}: expected Corrupt, got {other:?}"),
            }
        }
        let spec = QuerySpec {
            order,
            ..QuerySpec::range(q, f64::INFINITY)
        };
        match sr.query(&spec, &srtree::obs::Noop) {
            Err(IndexError::Corrupt(msg)) => assert_eq!(msg, want, "{order:?} range"),
            other => panic!("{order:?} range: expected Corrupt, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Bug 10: metadata height outside the u16 level range.
// ---------------------------------------------------------------------

/// A 3-point SR-tree file whose stored height is rewritten to 0, 65,537
/// or `u32::MAX` fails to open, with a typed error naming the height;
/// with the height put back it opens again.
#[test]
fn out_of_range_metadata_height_is_refused_on_open() {
    use srtree::pager::PageFile;

    /// Byte offset of the height in the metadata header: magic,
    /// version, dim and data area (u32 each), then the root (u64).
    const HEIGHT_AT: usize = 24;

    let dir = sr_testkit::TempDir::new("srtree-height").unwrap();
    let path = dir.file("sr.pages");
    let mut sr = SrTree::create(&path, 2).unwrap();
    for (i, p) in uniform(3, 2, 5).into_iter().enumerate() {
        sr.insert(p, i as u64).unwrap();
    }
    sr.flush().unwrap();
    drop(sr);
    let meta = PageFile::open(&path).unwrap().user_meta().to_vec();
    assert_eq!(meta[HEIGHT_AT..HEIGHT_AT + 4], 1u32.to_le_bytes());
    for height in [0u32, 65_537, u32::MAX] {
        let pf = PageFile::open(&path).unwrap();
        let mut bad = meta.clone();
        bad[HEIGHT_AT..HEIGHT_AT + 4].copy_from_slice(&height.to_le_bytes());
        pf.set_user_meta(&bad).unwrap();
        match SrTree::open_from(pf) {
            Err(IndexError::NotThisIndex(msg)) => {
                assert!(msg.contains(&format!("height {height}")), "{msg}")
            }
            Err(e) => panic!("height {height}: expected NotThisIndex, got {e:?}"),
            Ok(t) => panic!("height {height} opened, verify says {:?}", t.verify()),
        }
    }
    let pf = PageFile::open(&path).unwrap();
    pf.set_user_meta(&meta).unwrap();
    let sr = SrTree::open_from(pf).unwrap();
    assert_eq!((sr.height(), sr.len()), (1, 3));
    sr.verify().unwrap();
}
