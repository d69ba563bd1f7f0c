//! Integration: the zero-copy `find_leaf` (region probes and leaf
//! matching straight off the page buffers) finds exactly what a walk over
//! decoded nodes finds, and fails exactly where decoding fails.
//!
//! * Differential, over the SR-, SS- and R\*-trees built by insertion
//!   (so forced reinsertion and splits occur) and then thinned by
//!   deletion: for every stored entry and for absent probes, the path
//!   equals the one of a decoded reference walk kept here.
//! * Region level: `Region::contains_raw` equals `decode` +
//!   `contains_point` on points on a rectangle face, an ulp outside a
//!   sphere but within `CONTAINMENT_EPS`, and on random region bytes,
//!   corrupt ones included (same answer, or the same error).
//! * Corruption: an inner node whose region has a NaN coordinate,
//!   inverted corners or a negative radius makes `delete` and `contains`
//!   fail with the `IndexError::Corrupt` text decoding gives, naming the
//!   page, even when the corrupt entry is not the one the lookup
//!   descends into.
//! * Misplaced pages: a level-1 node's payload in one of its leaves'
//!   slots, or a leaf's payload in its parent's slot, makes every walk
//!   that reads the page (`walk_leaves`, `num_leaves`, k-NN, `contains`,
//!   `verify`) fail with `IndexError::Corrupt` naming it — never a
//!   panic, a wild page read or a silent miscount.

use srtree::dataset::{uniform, SeededRng};
use srtree::geometry::{Point, Rect, Sphere, CONTAINMENT_EPS};
use srtree::pager::{PageCodec, PageId, PageKind, PageReader};
use srtree::query::{IndexError, SpatialIndex};
use srtree::rstar::RstarTree;
use srtree::sstree::{SsRegion, SsTree};
use srtree::tree::paged::{Dynamic, Node, Region};
use srtree::tree::{SrRegion, SrTree, Tree, TreePolicy};

const DIM: usize = 4;
const PAGE: usize = 4096;

type Path = Option<Vec<PageId>>;

/// The lookup `find_leaf` replaced: decode every node on the way, probe
/// regions with `contains_point`, and compare materialised leaf entries.
fn reference<P: TreePolicy>(t: &Tree<P>, point: &Point, data: u64) -> Result<Path, IndexError> {
    fn walk<P: TreePolicy>(
        t: &Tree<P>,
        id: PageId,
        level: u16,
        point: &Point,
        data: u64,
    ) -> Result<Path, IndexError> {
        match t.read_node(id, level)? {
            Node::Leaf(entries) => {
                let found = entries.iter().any(|e| e.point == *point && e.data == data);
                Ok(found.then(|| vec![id]))
            }
            Node::Inner { entries, .. } => {
                for e in &entries {
                    if e.region.contains_point(point.coords()) {
                        if let Some(mut path) = walk(t, e.child, level - 1, point, data)? {
                            path.insert(0, id);
                            return Ok(Some(path));
                        }
                    }
                }
                Ok(None)
            }
        }
    }
    match t.root_level() {
        Some(level) => walk(t, t.root, level, point, data),
        None => Ok(None),
    }
}

/// Points with duplicates, so coincident entries with different ids
/// share leaves and overlapping regions.
fn points(n: usize, seed: u64) -> Vec<Point> {
    let mut pts = uniform(n, DIM, seed);
    for i in (0..n).step_by(7).skip(1) {
        pts[i] = pts[i - 1].clone();
    }
    pts
}

fn differential<P: Dynamic>(mut tree: Tree<P>, seed: u64) {
    let name = P::KIND.name;
    let pts = points(1500, seed);
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut live = vec![true; pts.len()];
    for i in 0..pts.len() {
        if rng.random_bool(0.35) {
            assert!(
                tree.delete(&pts[i], i as u64).unwrap(),
                "{name}: delete {i}"
            );
            live[i] = false;
        }
    }
    let core = &tree;
    assert!(
        core.height() >= 3,
        "{name}: tree too shallow to exercise the walk"
    );
    for (i, p) in pts.iter().enumerate() {
        let got = core.find_leaf(p, i as u64).unwrap();
        assert_eq!(
            got,
            reference(core, p, i as u64).unwrap(),
            "{name}: entry {i}"
        );
        assert_eq!(got.is_some(), live[i], "{name}: entry {i} live {}", live[i]);
        // The right point under a wrong id is absent.
        let wrong = core.find_leaf(p, u64::MAX).unwrap();
        assert_eq!(wrong, None, "{name}: entry {i} under a wrong id");
    }
    for (j, q) in uniform(300, DIM, seed ^ 0xABCD).iter().enumerate() {
        let got = core.find_leaf(q, j as u64).unwrap();
        assert_eq!(
            got,
            reference(core, q, j as u64).unwrap(),
            "{name}: probe {j}"
        );
    }
}

#[test]
fn find_leaf_matches_decoded_walk_sr() {
    differential(SrTree::create_in_memory(DIM, PAGE).unwrap(), 11);
}

#[test]
fn find_leaf_matches_decoded_walk_ss() {
    differential(SsTree::create_in_memory(DIM, PAGE).unwrap(), 12);
}

#[test]
fn find_leaf_matches_decoded_walk_rstar() {
    differential(RstarTree::create_in_memory(DIM, PAGE).unwrap(), 13);
}

fn encode<R: Region>(region: &R) -> Vec<u8> {
    let mut buf = vec![0u8; R::bytes(DIM)];
    region.encode(&mut PageCodec::new(&mut buf)).unwrap();
    buf
}

/// `contains_raw` on `raw` gives the answer of `decode` +
/// `contains_point`, or the error `decode` gives; returns the answer.
fn agree<R: Region>(raw: &[u8], p: &[f32]) -> Option<bool> {
    let fast = R::contains_raw(raw, p);
    let slow = R::decode(&mut PageReader::new(raw), p.len()).map(|r| r.contains_point(p));
    match (fast, slow) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "raw {raw:?} p {p:?}");
            Some(a)
        }
        (Err(a), Err(b)) => {
            assert!(matches!(a, IndexError::Corrupt(_)), "{a}");
            assert_eq!(a.to_string(), b.to_string(), "raw {raw:?} p {p:?}");
            None
        }
        (a, b) => panic!("raw probe {a:?} but decode {b:?}, raw {raw:?} p {p:?}"),
    }
}

fn unit_rect() -> Rect {
    Rect::new(vec![0.0; DIM], vec![1.0; DIM])
}

fn unit_sphere() -> Sphere {
    Sphere::new(Point::new(vec![0.0; DIM]), 1.0)
}

fn sr(sphere: Sphere, rect: Rect) -> SrRegion {
    SrRegion {
        sphere,
        rect,
        weight: 3,
    }
}

#[test]
fn point_on_a_rectangle_face_is_inside() {
    let face = [1.0f32, 0.5, 0.0, 0.25];
    let beyond = [1.0f32.next_up(), 0.5, 0.0, 0.25];
    let rect = encode(&unit_rect());
    assert_eq!(agree::<Rect>(&rect, &face), Some(true));
    assert_eq!(agree::<Rect>(&rect, &beyond), Some(false));
    // An SR region whose sphere holds the face: the rectangle decides.
    let big = Sphere::new(Point::new(vec![0.5; DIM]), 2.0);
    let region = encode(&sr(big, unit_rect()));
    assert_eq!(agree::<SrRegion>(&region, &face), Some(true));
    assert_eq!(agree::<SrRegion>(&region, &beyond), Some(false));
}

#[test]
fn point_an_ulp_outside_a_sphere_is_inside_within_tolerance() {
    let outside = [1.0f32.next_up(), 0.0, 0.0, 0.0];
    assert!(
        !unit_sphere().contains_point(&outside, 0.0),
        "must be outside"
    );
    let past = [1.0 + 10.0 * CONTAINMENT_EPS as f32, 0.0, 0.0, 0.0];
    let ss = encode(&SsRegion {
        sphere: unit_sphere(),
        weight: 9,
    });
    assert_eq!(agree::<SsRegion>(&ss, &outside), Some(true));
    assert_eq!(agree::<SsRegion>(&ss, &past), Some(false));
    let wide = Rect::new(vec![-2.0; DIM], vec![2.0; DIM]);
    let region = encode(&sr(unit_sphere(), wide));
    assert_eq!(agree::<SrRegion>(&region, &outside), Some(true));
    assert_eq!(agree::<SrRegion>(&region, &past), Some(false));
}

/// One random f64 lane at `near + offset`: mostly an ordinary value, now
/// and then exactly `near` or an ulp past it, and rarely a value decoding
/// must reject or narrow (NaN, ±∞, beyond the f32 range).
fn lane(rng: &mut SeededRng, near: f32, offset: f64) -> f64 {
    match rng.random_range(0..64) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e300,
        4..=7 => f64::from(near),
        8..=11 => f64::from(near.next_up()),
        _ => f64::from(near) + offset,
    }
}

#[test]
fn raw_probe_equals_decode_on_random_region_bytes() {
    let mut rng = SeededRng::seed_from_u64(0x5EED);
    let (mut inside, mut outside, mut errors) = (0, 0, 0);
    for _ in 0..20_000 {
        let p: Vec<f32> = (0..DIM).map(|_| rng.random::<f32>()).collect();
        let mut corners = Vec::new();
        for side in [-1.0, 1.0] {
            for &x in &p {
                // Mostly on the probe's side of each corner; sometimes
                // past it, which misses or inverts the rectangle.
                let offset = side * (rng.random::<f64>() - 0.03);
                corners.extend(lane(&mut rng, x, offset).to_le_bytes());
            }
        }
        let mut sphere = Vec::new();
        for &x in &p {
            let offset = 0.5 * (rng.random::<f64>() - 0.5);
            sphere.extend(lane(&mut rng, x, offset).to_le_bytes());
        }
        let radius = match rng.random_range(0..40) {
            0 => -0.5,
            1 => f64::NAN,
            2 => f64::INFINITY,
            _ => rng.random::<f64>() * 0.8,
        };
        sphere.extend(radius.to_le_bytes());
        let weight = rng.random::<u32>().to_le_bytes();
        let results = [
            agree::<Rect>(&corners, &p),
            agree::<SsRegion>(&[&sphere[..], &weight].concat(), &p),
            agree::<SrRegion>(&[&sphere[..], &corners, &weight].concat(), &p),
        ];
        for r in results {
            match r {
                Some(true) => inside += 1,
                Some(false) => outside += 1,
                None => errors += 1,
            }
        }
    }
    assert!(
        inside > 1000 && outside > 1000 && errors > 1000,
        "{inside} inside, {outside} outside, {errors} errors"
    );
}

/// Build a tree of height ≥ 2 and return a stored entry that sits under
/// the root's first child.
fn built<P: Dynamic>(mut tree: Tree<P>) -> (Tree<P>, Point, u64) {
    let pts = points(600, 21);
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let core = &tree;
    let level = core.root_level().unwrap();
    assert!(level >= 1);
    let Node::Inner { entries, .. } = core.read_node(core.root, level).unwrap() else {
        panic!("root is not inner")
    };
    let (i, p) = pts
        .iter()
        .enumerate()
        .find(|(i, p)| {
            core.find_leaf(p, *i as u64)
                .unwrap()
                .is_some_and(|path| path[1] == entries[0].child)
        })
        .expect("an entry under the first child");
    let p = p.clone();
    (tree, p, i as u64)
}

/// Overwrite `(lane, value)` f64 lanes of the region of the root's *last*
/// entry, then check that `delete` and `contains` of an entry under the
/// *first* child fail with `Corrupt("page <root>: <want>")`, as decoding
/// the root and the decoded walk do.
fn corrupt_root<P: Dynamic>(tree: Tree<P>, lanes: &[(usize, f64)], want: &str) {
    let (mut tree, p, id) = built(tree);
    let core = &tree;
    let name = P::KIND.name;
    let level = core.root_level().unwrap();
    let mut payload = core
        .pager()
        .read(core.root, PageKind::Node)
        .unwrap()
        .to_vec();
    let n = usize::from(u16::from_le_bytes([payload[2], payload[3]]));
    let entry = 4 + (n - 1) * (P::Region::bytes(DIM) + 8);
    for &(lane, v) in lanes {
        let at = entry + lane * 8;
        payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
    core.pager()
        .write(core.root, PageKind::Node, &payload)
        .unwrap();
    let want = format!("page {}: {want}", core.root);
    let corrupt = |what: &str, got: Result<(), IndexError>| match got {
        Err(IndexError::Corrupt(msg)) => assert_eq!(msg, want, "{name}: {what}"),
        other => panic!("{name}: {what}: expected Corrupt({want:?}), got {other:?}"),
    };
    corrupt("decode", core.read_node(core.root, level).map(drop));
    corrupt("reference walk", reference(core, &p, id).map(drop));
    corrupt("contains", core.contains(&p, id).map(drop));
    corrupt("delete", tree.delete(&p, id).map(drop));
}

const BAD_RECT: &str = "invalid rectangle bound on disk";
const INVERTED_RECT: &str = "inverted bounding rectangle on disk";
const BAD_SPHERE: &str = "invalid bounding sphere on disk";

// Region lanes: SR = center[DIM], radius, min[DIM], max[DIM];
// SS = center[DIM], radius; Rect = min[DIM], max[DIM].

#[test]
fn nan_region_coordinate_is_corrupt() {
    corrupt_root(
        SrTree::create_in_memory(DIM, PAGE).unwrap(),
        &[(1, f64::NAN)],
        BAD_SPHERE,
    );
    corrupt_root(
        SrTree::create_in_memory(DIM, PAGE).unwrap(),
        &[(DIM + 2, f64::NAN)],
        BAD_RECT,
    );
    corrupt_root(
        SsTree::create_in_memory(DIM, PAGE).unwrap(),
        &[(2, f64::NAN)],
        BAD_SPHERE,
    );
    corrupt_root(
        RstarTree::create_in_memory(DIM, PAGE).unwrap(),
        &[(DIM + 3, f64::NAN)],
        BAD_RECT,
    );
}

#[test]
fn inverted_region_corners_are_corrupt() {
    // min[0] = 5 > max[0] = -5.
    let (sr_min, sr_max) = (DIM + 1, 2 * DIM + 1);
    corrupt_root(
        SrTree::create_in_memory(DIM, PAGE).unwrap(),
        &[(sr_min, 5.0), (sr_max, -5.0)],
        INVERTED_RECT,
    );
    corrupt_root(
        RstarTree::create_in_memory(DIM, PAGE).unwrap(),
        &[(0, 5.0), (DIM, -5.0)],
        INVERTED_RECT,
    );
}

#[test]
fn negative_region_radius_is_corrupt() {
    corrupt_root(
        SrTree::create_in_memory(DIM, PAGE).unwrap(),
        &[(DIM, -1.0)],
        BAD_SPHERE,
    );
    corrupt_root(
        SsTree::create_in_memory(DIM, PAGE).unwrap(),
        &[(DIM, -1.0)],
        BAD_SPHERE,
    );
}

/// Build a tree over 2,000 points, then copy the payload of the root's
/// first level-1 descendant into the slot of that node's first leaf
/// (`inner_into_leaf`), or the leaf's payload into the node's slot. The
/// slot keeps its page kind, so only the stored level betrays the page.
fn misplace<P: Dynamic>(mut tree: Tree<P>, inner_into_leaf: bool) {
    for (i, p) in uniform(2000, DIM, 5).iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let core = &tree;
    let name = P::KIND.name;
    let first_child = |id, level| match core.read_node(id, level).unwrap() {
        Node::Inner { entries, .. } => entries[0].child,
        Node::Leaf(_) => panic!("{name}: page {id} is a leaf"),
    };
    let mut inner = core.root;
    for level in (2..=core.root_level().unwrap()).rev() {
        inner = first_child(inner, level);
    }
    let leaf = first_child(inner, 1);
    let Node::Leaf(entries) = core.read_node(leaf, 0).unwrap() else {
        panic!("{name}: page {leaf} is not a leaf")
    };
    let (point, data) = (&entries[0].point, entries[0].data);
    let leaves = core.num_leaves().unwrap();
    let ((from, from_kind), (to, to_kind), (stored, expected)) = if inner_into_leaf {
        ((inner, PageKind::Node), (leaf, PageKind::Leaf), (1, 0))
    } else {
        ((leaf, PageKind::Leaf), (inner, PageKind::Node), (0, 1))
    };
    let payload = core.pager().read(from, from_kind).unwrap().to_vec();
    core.pager().write(to, to_kind, &payload).unwrap();

    let misplaced = format!("page {to}: stored level {stored} but expected {expected}");
    let corrupt = |what: &str, got: Result<(), IndexError>, want: &str| match got {
        Err(IndexError::Corrupt(msg)) => assert_eq!(msg, want, "{name}: {what}"),
        other => panic!("{name}: {what}: expected Corrupt({want:?}), got {other:?}"),
    };
    corrupt("walk_leaves", core.walk_leaves(|_| Ok(())), &misplaced);
    corrupt("contains", core.contains(point, data).map(drop), &misplaced);
    corrupt("verify", tree.verify().map(drop), &misplaced);
    // k = every point, so the search must expand every page.
    corrupt("knn", tree.knn(point.coords(), 2000).map(drop), &misplaced);
    if inner_into_leaf {
        // Leaves are counted from their parents' entries, never read, so
        // the count is an intact tree's.
        assert_eq!(core.num_leaves().unwrap(), leaves, "{name}");
    } else {
        corrupt("num_leaves", core.num_leaves().map(drop), &misplaced);
    }
}

#[test]
fn inner_page_in_a_leaf_slot_is_corrupt() {
    misplace(SrTree::create_in_memory(DIM, PAGE).unwrap(), true);
    misplace(SsTree::create_in_memory(DIM, PAGE).unwrap(), true);
    misplace(RstarTree::create_in_memory(DIM, PAGE).unwrap(), true);
}

#[test]
fn leaf_page_in_an_inner_slot_is_corrupt() {
    misplace(SrTree::create_in_memory(DIM, PAGE).unwrap(), false);
    misplace(SsTree::create_in_memory(DIM, PAGE).unwrap(), false);
    misplace(RstarTree::create_in_memory(DIM, PAGE).unwrap(), false);
}
