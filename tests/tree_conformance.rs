//! The five trees' conformance suite. Every behaviour they share is
//! written once, generic over the tree, and instantiated as its own
//! `#[test]` in one module per tree (`sr`, `rstar`, `ss`, `kdb`, `vam`),
//! so a failure names the tree. A module's case list is that tree's
//! table row: which behaviours it runs and on what inputs (data set,
//! seed, size, page size, k). Cases whose substance differs by tree —
//! leaf-region shapes, K-D-B routing and split refusal, VAMSplit
//! packing — sit in the tree's own module.
//!
//! Property cases are seeded loops (the workspace carries no registry
//! dependencies, so there is no proptest); every assertion message
//! carries the case seed, which reproduces its inputs exactly.

use std::path::Path;

use sr_testkit::TempDir;
use srtree::dataset::{cluster, real_sim, sample_queries, uniform, ClusterSpec, SeededRng};
use srtree::geometry::Point;
use srtree::kdbtree::KdbPolicy;
use srtree::pager::PageFile;
use srtree::query::{brute_force_knn, brute_force_range, IndexError, Neighbor, SpatialIndex};
use srtree::rstar::RstarPolicy;
use srtree::sstree::{SsPolicy, SsTree};
use srtree::tree::verify::check as verify;
use srtree::tree::{SrPolicy, SrTree, Tree, TreePolicy};
use srtree::vamsplit::{VamPolicy, VamTree};

/// A small page keeps fanout low, so few points make a deep tree.
const SMALL_PAGE: usize = 1024;
/// The per-leaf-entry data area of every in-memory case.
const DATA_AREA: usize = 64;
/// Seeded cases per property.
const CASES: u64 = 48;

type Res<T> = Result<T, IndexError>;

/// How the suite makes a tree: dynamic trees insert the points one by
/// one, the VAMSplit R-tree bulk-builds them. Payloads are the points'
/// indices.
trait Build: TreePolicy {
    /// Build over `points` in `pf`, with the 64-byte data area.
    fn build(pf: PageFile, dim: usize, points: &[Point]) -> Res<Tree<Self>>;
    /// Build over `points` in a new file at `path` (8 KiB pages, the
    /// paper's data area).
    fn build_file(path: &Path, dim: usize, points: &[Point]) -> Res<Tree<Self>>;
    /// Reopen a tree built by [`Build::build_file`].
    fn reopen(path: &Path) -> Res<Tree<Self>>;
}

fn insert_all<T: SpatialIndex>(mut t: T, points: &[Point]) -> Res<T> {
    for (i, p) in points.iter().enumerate() {
        t.insert(p.coords(), i as u64)?;
    }
    Ok(t)
}

macro_rules! dynamic_tree {
    ($($T:ty),*) => {$(
        impl Build for $T {
            fn build(pf: PageFile, dim: usize, points: &[Point]) -> Res<Tree<Self>> {
                insert_all(Tree::<$T>::create_from(pf, dim, DATA_AREA)?, points)
            }
            fn build_file(path: &Path, dim: usize, points: &[Point]) -> Res<Tree<Self>> {
                insert_all(Tree::<$T>::create(path, dim)?, points)
            }
            fn reopen(path: &Path) -> Res<Tree<Self>> {
                Tree::<$T>::open(path)
            }
        }
    )*};
}
dynamic_tree!(SrPolicy, RstarPolicy, SsPolicy, KdbPolicy);

fn with_ids(points: &[Point]) -> Vec<(Point, u64)> {
    points.iter().cloned().zip(0..).collect()
}

impl Build for VamPolicy {
    fn build(pf: PageFile, dim: usize, points: &[Point]) -> Res<Tree<Self>> {
        VamTree::build_from(pf, with_ids(points), dim, DATA_AREA)
    }
    fn build_file(path: &Path, dim: usize, points: &[Point]) -> Res<Tree<Self>> {
        VamTree::build_at(path, with_ids(points), dim)
    }
    fn reopen(path: &Path) -> Res<Tree<Self>> {
        VamTree::open(path)
    }
}

fn build<T: Build>(points: &[Point], page: usize) -> Tree<T> {
    let pf = PageFile::create_in_memory(page).unwrap();
    T::build(pf, points[0].dim(), points).unwrap()
}

fn empty<T: Build>(dim: usize) -> Tree<T> {
    T::build(PageFile::create_in_memory(SMALL_PAGE).unwrap(), dim, &[]).unwrap()
}

/// `points` paired with their payloads, as the brute-force oracles take
/// them.
fn flat(points: &[Point]) -> Vec<(&[f32], u64)> {
    points.iter().map(Point::coords).zip(0..).collect()
}

fn ids(rows: &[Neighbor]) -> Vec<u64> {
    rows.iter().map(|n| n.data).collect()
}

/// The tree's k-NN of `q` has the brute-force distances over `live`.
fn assert_knn<T: Build>(
    t: &Tree<T>,
    live: &[(&[f32], u64)],
    q: &[f32],
    k: usize,
    tol: f64,
    ctx: &str,
) {
    let got = t.knn(q, k).unwrap();
    let want = brute_force_knn(live.iter().copied(), q, k);
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (g, w) in got.iter().zip(&want) {
        let (g, w) = (g.dist2, w.dist2);
        assert!((g - w).abs() < tol, "{ctx}: dist mismatch {g} vs {w}");
    }
}

/// Instantiate each `name => behaviour` as a `#[test]`.
macro_rules! cases {
    ($($name:ident => $body:expr,)*) => {$(
        #[test]
        fn $name() {
            $body;
        }
    )*};
}

/// The cases the SR-, SS- and R\*-trees share verbatim; `$prop` is the
/// tree's property-seed prefix.
macro_rules! family_cases {
    ($prop:expr) => {
        cases! {
            invariants_hold_during_growth => grows_with_invariants::<T>(),
            knn_matches_brute_force_uniform => knn_uniform::<T>(800),
            knn_matches_brute_force_clustered => knn_clustered::<T>(),
            knn_matches_brute_force_histograms => knn_histograms::<T>(500),
            knn_off_dataset_queries => knn_off_dataset::<T>(),
            range_matches_brute_force =>
                range_oracle::<T>(500, &[(0, 0.1), (100, 0.3), (250, 0.5), (499, 1.0)]),
            contains_finds_every_inserted_point => contains_every_point::<T>(300),
            duplicate_points_are_all_kept => duplicates_kept::<T>(),
            delete_removes_and_preserves_invariants => delete_every::<T>(400, 2, 11),
            delete_everything_leaves_empty_tree => delete_all::<T>(),
            delete_missing_point_returns_false => delete_missing::<T>(),
            mixed_insert_delete_churn => churn::<T>(),
            persistence_roundtrip => persistence::<T>(300),
            dimension_mismatch_is_an_error => dimension_mismatch::<T>(4, &[1.0, 2.0]),
            empty_tree_queries => empty_tree::<T>(),
            num_leaves_counts_leaves => num_leaves_match_leaf_walk::<T>(),
            disk_reads_are_counted_per_query => cold_reads_counted::<T>(),
            knn_agrees_with_brute_force => prop_knn::<T>($prop | 1),
            range_agrees_with_brute_force => prop_range::<T>($prop | 2),
            insert_then_delete_all_restores_empty => prop_delete_all::<T>($prop | 3),
            partial_deletion_keeps_survivors_queryable => prop_partial_delete::<T>($prop | 4),
        }
    };
}

/// The condense-path drains of the R\*- and SS-trees; `$drain` is the
/// tree's data-seed prefix.
macro_rules! drain_cases {
    ($drain:expr) => {
        cases! {
            region_drain_underflows_and_reinserts => drain_region::<T>($drain | 1),
            drain_to_trivial_height_shrinks_root => drain_to_root::<T>($drain | 2),
            churn_around_minimum_fill_keeps_invariants => churn_min_fill::<T>($drain | 3),
        }
    };
}

mod sr {
    use super::*;
    type T = SrPolicy;
    family_cases!(0x5371_0000);

    #[test]
    fn leaf_regions_cover_all_points() {
        leaf_regions_cover(SrTree::leaf_regions, |(s, r), p| {
            s.contains_point(p, 1e-5) && r.contains_point(p)
        });
    }
}

mod rstar {
    use super::*;
    type T = RstarPolicy;
    family_cases!(0x5257_0000);
    drain_cases!(0x52DE_0000);

    #[test]
    fn leaf_regions_cover_all_points() {
        leaf_regions_cover(|t: &Tree<T>| t.leaf_rects(), |r, p| r.contains_point(p));
    }
}

mod ss {
    use super::*;
    type T = SsPolicy;
    family_cases!(0x5537_0000);
    drain_cases!(0x55DE_0000);

    #[test]
    fn leaf_regions_cover_all_points() {
        leaf_regions_cover(SsTree::leaf_regions, |s, p| s.contains_point(p, 1e-5));
    }
}

mod kdb {
    use super::*;
    type T = KdbPolicy;
    cases! {
        invariants_hold_during_growth => grows_with_invariants::<T>(),
        knn_matches_brute_force_uniform => knn_uniform::<T>(800),
        knn_matches_brute_force_clustered => knn_clustered::<T>(),
        knn_matches_brute_force_histograms => knn_histograms::<T>(500),
        knn_off_dataset_queries => knn_off_dataset::<T>(),
        range_matches_brute_force => range_oracle::<T>(500, &[(0, 0.1), (100, 0.3), (250, 0.5)]),
        contains_finds_every_point_single_path => contains_every_point::<T>(400),
        delete_removes_points => delete_every::<T>(300, 3, 9),
        delete_missing_point_returns_false => delete_missing::<T>(),
        persistence_roundtrip => persistence::<T>(300),
        dimension_mismatch_is_an_error => dimension_mismatch::<T>(4, &[1.0, 2.0]),
        empty_tree_queries => empty_tree::<T>(),
        knn_agrees_with_brute_force => prop_knn::<T>(0x5B4D_0001),
        range_agrees_with_brute_force => prop_range::<T>(0x5B4D_0002),
        every_point_routes_to_itself => prop_contains_all::<T>(0x5B4D_0003),
    }

    /// §2.1: disjoint regions make a point query a single path, so it
    /// reads exactly one page per level.
    #[test]
    fn point_query_reads_one_page_per_level() {
        let pts = uniform(2000, 4, 37);
        let t = build::<T>(&pts, SMALL_PAGE);
        t.pager().set_cache_capacity(0).unwrap();
        t.pager().reset_stats();
        assert!(t.contains(&pts[123], 123).unwrap());
        assert_eq!(t.pager().stats().tree_reads(), u64::from(t.height()));
    }

    #[test]
    fn coincident_point_overflow_is_reported() {
        let mut t = empty::<T>(2);
        let p = Point::new(vec![0.5f32, 0.5]);
        let err = (0..200).find_map(|i| t.insert(p.clone(), i).err());
        assert!(
            matches!(
                err,
                Some(IndexError::Unsupported(
                    "K-D-B-tree point page cannot split (coincident points)"
                ))
            ),
            "expected the coincident-point refusal, got {err:?}"
        );
    }

    /// The root region covers all of space, not just the unit cube.
    #[test]
    fn negative_coordinates_are_indexed() {
        let pts: Vec<Point> = (0..200)
            .map(|i| Point::new(vec![(i as f32 - 100.0) * 7.3, (i as f32).sin() * 1e6]))
            .collect();
        let t = build::<T>(&pts, SMALL_PAGE);
        verify(&t).unwrap();
        let live = flat(&pts);
        for q in &pts[..10] {
            assert_knn(&t, &live, q.coords(), 5, 1e-9, "");
        }
    }

    /// Clustered data forces splits; the tree stays valid whatever
    /// (legal, data-dependent) empty leaves they leave behind.
    #[test]
    fn forced_splits_leave_measurable_debris() {
        let spec = ClusterSpec {
            clusters: 30,
            points_per_cluster: 40,
            max_radius: 0.02,
        };
        let t = build::<T>(&cluster(spec, 4, 77), SMALL_PAGE);
        let report = verify(&t).unwrap();
        assert_eq!(report.points, 1200);
        assert!(report.leaves > 0);
    }
}

mod vam {
    use super::*;
    type T = VamPolicy;
    cases! {
        knn_matches_brute_force_uniform => knn_uniform::<T>(900),
        knn_matches_brute_force_clustered => knn_clustered::<T>(),
        knn_matches_brute_force_histograms => knn_histograms::<T>(600),
        knn_off_dataset_queries => knn_off_dataset::<T>(),
        range_matches_brute_force => range_oracle::<T>(700, &[(0, 0.1), (100, 0.3), (250, 0.6)]),
        contains_finds_every_point => contains_every_point::<T>(500),
        persistence_roundtrip => persistence::<T>(400),
        dimension_mismatch_is_an_error => dimension_mismatch::<T>(2, &[1.0, 2.0, 3.0]),
        empty_tree_queries => empty_tree::<T>(),
    }

    /// The VAMSplit guarantee: nearly all leaves completely full.
    #[test]
    fn build_produces_valid_packed_tree() {
        let t = build::<T>(&uniform(1000, 4, 11), SMALL_PAGE);
        let report = verify(&t).unwrap();
        assert_eq!(report.points, 1000);
        let (full, leaves) = (report.full_leaves, report.leaves);
        assert!(full * 10 >= leaves * 8, "only {full}/{leaves} leaves full");
    }

    #[test]
    fn single_point_build() {
        let pf = PageFile::create_in_memory(SMALL_PAGE).unwrap();
        let one = vec![(Point::new(vec![1.0f32, 2.0]), 7)];
        let t = VamTree::build_from(pf, one, 2, DATA_AREA).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.knn(&[0.0, 0.0], 1).unwrap()[0].data, 7);
    }

    /// The height is the smallest h with `max_leaf · max_node^(h-1) ≥ n`.
    #[test]
    fn height_is_minimal_for_packed_tree() {
        let t = build::<T>(&uniform(1000, 4, 37), SMALL_PAGE);
        let (ml, mn) = (t.params().max_leaf as u64, t.params().max_node as u64);
        let (mut h, mut cap) = (1, ml);
        while cap < 1000 {
            cap *= mn;
            h += 1;
        }
        assert_eq!(t.height(), h);
    }

    /// Full packing: `leaves == ceil(n / max_leaf)`.
    #[test]
    fn fewer_leaves_than_dynamic_trees_would_need() {
        let t = build::<T>(&uniform(1000, 4, 71), SMALL_PAGE);
        let ml = t.params().max_leaf as u64;
        assert_eq!(t.num_leaves().unwrap(), 1000u64.div_ceil(ml));
    }
}

/// 600 4-d inserts on small pages: the invariants hold every 97 inserts
/// and the tree ends at least three levels deep.
fn grows_with_invariants<T: Build>() {
    let pts = uniform(600, 4, 11);
    let mut t = empty::<T>(4);
    for (i, p) in pts.iter().enumerate() {
        t.insert(p.coords(), i as u64).unwrap();
        if i % 97 == 0 {
            verify(&t).unwrap();
        }
    }
    assert_eq!(verify(&t).unwrap().points, 600);
    assert!(t.height() >= 3, "tree should be deep at this page size");
}

fn knn_uniform<T: Build>(n: usize) {
    knn_oracle::<T>(uniform(n, 8, 5), 2048, (20, 3), 21);
}

fn knn_clustered<T: Build>() {
    let spec = ClusterSpec {
        clusters: 10,
        points_per_cluster: 60,
        max_radius: 0.05,
    };
    knn_oracle::<T>(cluster(spec, 6, 9), 2048, (20, 4), 10);
}

/// Simulated color histograms.
fn knn_histograms<T: Build>(n: usize) {
    knn_oracle::<T>(real_sim(n, 16, 21), 8192, (10, 8), 21);
}

/// A valid tree whose k-NN equals brute force for `nq` queries sampled
/// from `pts` with `qseed`.
fn knn_oracle<T: Build>(pts: Vec<Point>, page: usize, (nq, qseed): (usize, u64), k: usize) {
    let t = build::<T>(&pts, page);
    verify(&t).unwrap();
    let live = flat(&pts);
    for q in sample_queries(&pts, nq, qseed) {
        assert_knn(&t, &live, q.coords(), k, 1e-9, "");
    }
}

/// Queries that are not data points: corners and outside the cube.
fn knn_off_dataset<T: Build>() {
    let pts = uniform(400, 3, 17);
    let t = build::<T>(&pts, SMALL_PAGE);
    let live = flat(&pts);
    for q in [
        [0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0],
        [-0.5, 0.5, 2.0],
        [0.5, 0.5, 0.5],
    ] {
        assert_knn(&t, &live, &q, 7, 1e-9, "");
    }
}

/// Range answers equal brute force at each `(query index, radius)`.
fn range_oracle<T: Build>(n: usize, probes: &[(usize, f64)]) {
    let pts = uniform(n, 4, 23);
    let t = build::<T>(&pts, SMALL_PAGE);
    for &(qi, r) in probes {
        let q = pts[qi].coords();
        let want = brute_force_range(flat(&pts), q, r);
        assert_eq!(ids(&t.range(q, r).unwrap()), ids(&want), "radius {r}");
    }
}

fn contains_every_point<T: Build>(n: usize) {
    let pts = uniform(n, 5, 31);
    let t = build::<T>(&pts, SMALL_PAGE);
    for (i, p) in pts.iter().enumerate() {
        assert!(t.contains(p, i as u64).unwrap(), "point {i} lost");
        let wrong = t.contains(p, u64::MAX).unwrap();
        assert!(!wrong, "wrong payload matched");
    }
}

fn duplicates_kept<T: Build>() {
    let p = Point::new(vec![0.5f32, 0.5]);
    let t = build::<T>(&vec![p.clone(); 100], SMALL_PAGE);
    assert_eq!(t.len(), 100);
    verify(&t).unwrap();
    let got = t.knn(p.coords(), 100).unwrap();
    assert_eq!(got.len(), 100);
    assert!(got.iter().all(|n| n.dist2 == 0.0));
}

/// Delete every `every`-th of `n` points: exactly those are gone, the
/// invariants hold, and k-NN over the survivors matches brute force.
fn delete_every<T: Build>(n: usize, every: u64, k: usize) {
    let pts = uniform(n, 4, 41);
    let mut t = build::<T>(&pts, SMALL_PAGE);
    let (gone, survivors): (Vec<_>, Vec<_>) = flat(&pts)
        .into_iter()
        .partition(|e| e.1.is_multiple_of(every));
    for &(p, i) in &gone {
        assert!(t.delete(p, i).unwrap(), "point {i} not found");
    }
    assert_eq!(t.len() as usize, survivors.len());
    verify(&t).unwrap();
    for (p, i) in pts.iter().zip(0u64..) {
        let kept = !i.is_multiple_of(every);
        assert_eq!(t.contains(p, i).unwrap(), kept, "point {i}");
    }
    assert_knn(&t, &survivors, pts[1].coords(), k, 1e-9, "");
}

fn delete_all<T: Build>() {
    let pts = uniform(250, 3, 43);
    let mut t = build::<T>(&pts, SMALL_PAGE);
    for (p, i) in flat(&pts) {
        assert!(t.delete(p, i).unwrap());
    }
    assert!(t.is_empty());
    assert_eq!(t.height(), 1);
    verify(&t).unwrap();
    assert!(t.knn(pts[0].coords(), 5).unwrap().is_empty());
}

fn delete_missing<T: Build>() {
    let mut t = build::<T>(&uniform(50, 2, 47), SMALL_PAGE);
    assert!(!t.delete(&[42.0, 42.0], 0).unwrap());
    assert_eq!(t.len(), 50);
}

/// 400 points in, then 200 rounds of delete-one-old, insert-one-new.
fn churn<T: Build>() {
    let pts = uniform(600, 4, 53);
    let mut t = build::<T>(&pts[..400], SMALL_PAGE);
    for i in 0..200 {
        assert!(t.delete(pts[i].coords(), i as u64).unwrap());
        t.insert(pts[400 + i].coords(), (400 + i) as u64).unwrap();
        if i % 50 == 0 {
            verify(&t).unwrap();
        }
    }
    assert_eq!(t.len(), 400);
    assert_eq!(verify(&t).unwrap().points, 400);
}

/// Build `n` 6-d points on disk, flush, reopen: same contents, same
/// answers.
fn persistence<T: Build>(n: usize) {
    let dir = TempDir::new("tree-conformance").unwrap();
    let path = dir.file("tree.pages");
    let pts = uniform(n, 6, 59);
    T::build_file(&path, 6, &pts).unwrap().flush().unwrap();
    let t = T::reopen(&path).unwrap();
    assert_eq!(t.len(), n as u64);
    assert_eq!(t.dim(), 6);
    verify(&t).unwrap();
    let live = flat(&pts);
    for q in sample_queries(&pts, 5, 61) {
        assert_knn(&t, &live, q.coords(), 9, 1e-9, "");
    }
}

/// A `dim`-d tree refuses the point `wrong` when built (or inserted)
/// and as a k-NN or delete argument.
fn dimension_mismatch<T: Build>(dim: usize, wrong: &[f32]) {
    let pf = || PageFile::create_in_memory(SMALL_PAGE).unwrap();
    assert!(T::build(pf(), dim, &[Point::new(wrong.to_vec())]).is_err());
    let mut t = T::build(pf(), dim, &[]).unwrap();
    assert!(t.knn(wrong, 1).is_err());
    assert!(t.delete(wrong, 0).is_err());
}

fn empty_tree<T: Build>() {
    let t = empty::<T>(3);
    assert!(t.is_empty());
    assert!(t.knn(&[0.0; 3], 5).unwrap().is_empty());
    assert!(t.range(&[0.0; 3], 10.0).unwrap().is_empty());
    verify(&t).unwrap();
}

/// Every point of a 300-point 3-d tree lies in one of the leaf regions
/// `regions` lists, with membership `holds`.
fn leaf_regions_cover<T: Build, R>(
    regions: impl Fn(&Tree<T>) -> Res<Vec<R>>,
    holds: impl Fn(&R, &[f32]) -> bool,
) {
    let pts = uniform(300, 3, 67);
    let t = build::<T>(&pts, SMALL_PAGE);
    let regions = regions(&t).unwrap();
    assert!(!regions.is_empty());
    for p in &pts {
        let held = regions.iter().any(|r| holds(r, p.coords()));
        assert!(held, "a point escaped every leaf region");
    }
}

fn num_leaves_match_leaf_walk<T: Build>() {
    let t = build::<T>(&uniform(300, 3, 71), SMALL_PAGE);
    let n = t.num_leaves().unwrap();
    assert_eq!(n as usize, t.leaf_rects().unwrap().len());
    assert!(n > 1);
}

/// With the pool off, a k-NN reads its pages from the store and counts
/// each one.
fn cold_reads_counted<T: Build>() {
    let pts = uniform(2000, 8, 73);
    let t = build::<T>(&pts, 8192);
    t.pager().set_cache_capacity(0).unwrap();
    t.pager().reset_stats();
    t.knn(pts[0].coords(), 21).unwrap();
    let s = t.pager().stats();
    assert!(s.tree_reads() > 0);
    assert_eq!(s.tree_reads(), s.physical_reads());
}

/// The case seeds of one property: `base ^ case`.
fn seeds(base: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| base ^ case)
}

/// 1..max_len points in `[-100, 100)^dim`.
fn arb_points(rng: &mut SeededRng, dim: usize, max_len: usize) -> Vec<Point> {
    let len = 1 + rng.random_range(0..max_len - 1);
    (0..len)
        .map(|_| {
            let coords = (0..dim).map(|_| rng.random::<f32>() * 200.0 - 100.0);
            Point::new(coords.collect::<Vec<f32>>())
        })
        .collect()
}

fn prop_knn<T: Build>(base: u64) {
    for seed in seeds(base) {
        let mut rng = SeededRng::seed_from_u64(seed);
        let pts = arb_points(&mut rng, 3, 120);
        let k = 1 + rng.random_range(0..24);
        let t = build::<T>(&pts, SMALL_PAGE);
        verify(&t).unwrap_or_else(|e| panic!("SEED={seed}: {e}"));
        let ctx = format!("SEED={seed}");
        assert_knn(&t, &flat(&pts), pts[0].coords(), k, 1e-6, &ctx);
    }
}

fn prop_range<T: Build>(base: u64) {
    for seed in seeds(base) {
        let mut rng = SeededRng::seed_from_u64(seed);
        let pts = arb_points(&mut rng, 2, 100);
        let radius = rng.random::<f64>() * 150.0;
        let t = build::<T>(&pts, SMALL_PAGE);
        let q = pts[pts.len() / 2].coords();
        let want = brute_force_range(flat(&pts), q, radius);
        let got = t.range(q, radius).unwrap();
        assert_eq!(ids(&got), ids(&want), "SEED={seed}");
    }
}

fn prop_delete_all<T: Build>(base: u64) {
    for seed in seeds(base) {
        let pts = arb_points(&mut SeededRng::seed_from_u64(seed), 2, 80);
        let mut t = build::<T>(&pts, SMALL_PAGE);
        for (p, i) in flat(&pts) {
            let found = t.delete(p, i).unwrap();
            assert!(found, "SEED={seed}: lost entry {i}");
            verify(&t).unwrap_or_else(|e| panic!("SEED={seed}: {e}"));
        }
        assert!(t.is_empty(), "SEED={seed}");
        assert_eq!(t.height(), 1, "SEED={seed}");
    }
}

fn prop_partial_delete<T: Build>(base: u64) {
    for seed in seeds(base) {
        let mut rng = SeededRng::seed_from_u64(seed);
        let pts = arb_points(&mut rng, 3, 100);
        let mask: Vec<bool> = (0..pts.len()).map(|_| rng.random::<bool>()).collect();
        let mut t = build::<T>(&pts, SMALL_PAGE);
        let mut survivors = Vec::new();
        for ((p, i), delete) in flat(&pts).into_iter().zip(mask) {
            if delete {
                let found = t.delete(p, i).unwrap();
                assert!(found, "SEED={seed}: lost entry {i}");
            } else {
                survivors.push((p, i));
            }
        }
        verify(&t).unwrap_or_else(|e| panic!("SEED={seed}: {e}"));
        assert_eq!(t.len() as usize, survivors.len(), "SEED={seed}");
        if let Some(&(q, _)) = survivors.first() {
            assert_knn(&t, &survivors, q, 5, 1e-6, &format!("SEED={seed}"));
        }
    }
}

fn prop_contains_all<T: Build>(base: u64) {
    for seed in seeds(base) {
        let pts = arb_points(&mut SeededRng::seed_from_u64(seed), 4, 80);
        let t = build::<T>(&pts, SMALL_PAGE);
        verify(&t).unwrap_or_else(|e| panic!("SEED={seed}: {e}"));
        for (i, p) in pts.iter().enumerate() {
            let found = t.contains(p, i as u64).unwrap();
            assert!(found, "SEED={seed}: entry {i} unreachable");
        }
    }
}

/// Delete the 300 lowest-x of 400 points, so deletions concentrate in
/// one region and underflow dissolves whole subtrees into orphans: no
/// entry may be lost, the invariants hold mid-drain, and the reinserted
/// survivors stay reachable by lookup and search.
fn drain_region<T: Build>(seed: u64) {
    let pts = uniform(400, 3, seed);
    let mut t = build::<T>(&pts, SMALL_PAGE);
    assert!(t.height() >= 2, "tree too shallow to exercise underflow");
    let mut order: Vec<usize> = (0..pts.len()).collect();
    order.sort_by(|&a, &b| pts[a].coords()[0].total_cmp(&pts[b].coords()[0]));
    let (drain, keep) = order.split_at(300);
    for (step, &i) in drain.iter().enumerate() {
        assert!(
            t.delete(pts[i].coords(), i as u64).unwrap(),
            "lost entry {i}"
        );
        if step % 20 == 0 {
            verify(&t).unwrap_or_else(|e| panic!("after {step} deletes: {e}"));
        }
    }
    verify(&t).unwrap();
    assert_eq!(t.len() as usize, keep.len());
    for &i in keep {
        let found = t.contains(&pts[i], i as u64).unwrap();
        assert!(found, "entry {i} unreachable");
    }
    let survivors: Vec<_> = keep.iter().map(|&i| (pts[i].coords(), i as u64)).collect();
    let q = pts[keep[0]].coords();
    let want = brute_force_knn(survivors, q, 10);
    assert_eq!(ids(&t.knn(q, 10).unwrap()), ids(&want));
}

/// Draining all but two points walks the root-shrink path back down to
/// a single leaf that still answers lookups.
fn drain_to_root<T: Build>(seed: u64) {
    let pts = uniform(500, 3, seed);
    let mut t = build::<T>(&pts, SMALL_PAGE);
    assert!(t.height() >= 2);
    for (p, i) in flat(&pts).into_iter().take(498) {
        assert!(t.delete(p, i).unwrap());
    }
    assert_eq!(t.height(), 1, "root did not shrink back to a leaf");
    verify(&t).unwrap();
    assert_eq!(t.len(), 2);
    for (i, p) in pts.iter().enumerate().skip(498) {
        assert!(t.contains(p, i as u64).unwrap());
    }
}

/// 600 random deletes and reinserts around minimum fill walk the
/// dissolve/reinsert path many times in both directions.
fn churn_min_fill<T: Build>(seed: u64) {
    let pts = uniform(240, 3, seed);
    let mut t = build::<T>(&pts, SMALL_PAGE);
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut live: Vec<usize> = (0..pts.len()).collect();
    let mut parked: Vec<usize> = Vec::new();
    for round in 0..600 {
        if !live.is_empty() && (parked.is_empty() || rng.random::<bool>()) {
            let i = live.swap_remove(rng.random_range(0..live.len()));
            assert!(
                t.delete(pts[i].coords(), i as u64).unwrap(),
                "lost entry {i}"
            );
            parked.push(i);
        } else {
            let i = parked.swap_remove(rng.random_range(0..parked.len()));
            t.insert(pts[i].coords(), i as u64).unwrap();
            live.push(i);
        }
        if round % 50 == 0 {
            verify(&t).unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }
    verify(&t).unwrap();
    assert_eq!(t.len() as usize, live.len());
    for &i in &live {
        let found = t.contains(&pts[i], i as u64).unwrap();
        assert!(found, "entry {i} unreachable");
    }
}
