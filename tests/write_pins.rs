//! Write-path pins for the three dynamic trees (SR-, SS- and R\*-tree).
//!
//! * Churn digests: each case builds a tree in an in-memory page file,
//!   runs a fixed insert/delete churn, flushes, and folds the metadata
//!   plus the kind and payload of every page into one FNV-1a digest, as
//!   `tests/page_images.rs` does. The cases cover what those images do
//!   not: ids-only leaves (an 8-byte data area, so no reserved padding),
//!   a condense-heavy churn that deletes most points (leaves underflow,
//!   inner nodes dissolve, the root shrinks), and points with `-0.0` and
//!   repeated coordinates, deleted through their sign-flipped twins.
//! * Canonical bytes: after every operation of a seeded churn, every page
//!   the operation changed equals `Node::decode(..).encode(..)` of
//!   itself, payload length included, and `verify()` passes. The
//!   K-D-B-tree, whose deletes patch their leaf in place too, runs the
//!   same churn.
//! * Allocations: a delete that does not condense allocates the same
//!   number of times whatever the fanout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use srtree::dataset::{uniform, SeededRng};
use srtree::geometry::Point;
use srtree::kdbtree::KdbTree;
use srtree::pager::{PageFile, PageKind};
use srtree::query::SpatialIndex;
use srtree::rstar::RstarTree;
use srtree::sstree::SsTree;
use srtree::tree::paged::Node;
use srtree::tree::{SrTree, Tree, TreePolicy};

/// Counts the allocations made by the current thread, so tests running
/// in parallel do not see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const DIM: usize = 8;
const PAGE_SIZE: usize = 2048;
const SEED: u64 = 0x5EED_0036;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The kind and payload of page `id`, or `None` for the meta page.
fn read_any(pf: &PageFile, id: u64) -> Option<(PageKind, Vec<u8>)> {
    [PageKind::Node, PageKind::Leaf, PageKind::Free]
        .into_iter()
        .find_map(|kind| pf.read(id, kind).ok().map(|b| (kind, b.to_vec())))
}

/// Digest of the user metadata and of every page's kind and payload.
fn page_image_digest(pf: &PageFile) -> u64 {
    let mut h = fnv1a(0xCBF2_9CE4_8422_2325, &pf.user_meta());
    for id in 1..pf.num_pages() {
        let (kind, buf) = read_any(pf, id).unwrap_or_else(|| panic!("page {id} reads as no kind"));
        h = fnv1a(h, &id.to_le_bytes());
        h = fnv1a(h, &[kind as u8]);
        h = fnv1a(h, &buf);
    }
    h
}

fn page_file(page_size: usize) -> PageFile {
    PageFile::create_in_memory(page_size).unwrap()
}

/// The three dynamic trees over fresh in-memory files, by name.
fn trees(page_size: usize, data_area: usize) -> Vec<(&'static str, Box<dyn SpatialIndex>)> {
    vec![
        (
            "sr",
            Box::new(SrTree::create_from(page_file(page_size), DIM, data_area).unwrap()),
        ),
        (
            "ss",
            Box::new(SsTree::create_from(page_file(page_size), DIM, data_area).unwrap()),
        ),
        (
            "rstar",
            Box::new(RstarTree::create_from(page_file(page_size), DIM, data_area).unwrap()),
        ),
    ]
}

fn numbered(points: Vec<Point>) -> Vec<(Point, u64)> {
    points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect()
}

#[track_caller]
fn assert_digests(case: &str, got: &[(&str, u64)], want: &[(&str, u64)]) {
    let hex = |ds: &[(&str, u64)]| -> Vec<String> {
        ds.iter()
            .map(|(name, d)| format!("{name} {d:#018x}"))
            .collect()
    };
    assert_eq!(
        hex(got),
        hex(want),
        "{case}: page image digests differ from the pinned ones"
    );
}

/// Ids-only leaves: an 8-byte data area leaves no reserved padding, so
/// the data-id column ends the payload.
#[test]
fn ids_only_churn_pages_are_pinned() {
    let pts = numbered(uniform(1_800, DIM, SEED));
    let got: Vec<_> = trees(PAGE_SIZE, 8)
        .into_iter()
        .map(|(name, mut t)| {
            for (p, id) in &pts {
                t.insert(p.coords(), *id).unwrap();
            }
            for (p, id) in pts.iter().step_by(3) {
                assert!(t.delete(p.coords(), *id).unwrap(), "{name}: {id} missing");
            }
            t.verify().unwrap();
            t.flush().unwrap();
            (name, page_image_digest(t.pager()))
        })
        .collect();
    assert_digests(
        "ids-only",
        &got,
        &[
            ("sr", 0x260f_3ff8_49e4_b6be),
            ("ss", 0xff77_542a_0940_19d3),
            ("rstar", 0x3832_c9d5_699d_193e),
        ],
    );
}

/// Delete all but every fifteenth point: leaves underflow and are dissolved,
/// their points reinserted, inner nodes empty out and the root shrinks.
#[test]
fn condense_heavy_churn_pages_are_pinned() {
    let pts = numbered(uniform(1_200, DIM, SEED ^ 1));
    let got: Vec<_> = trees(PAGE_SIZE, 64)
        .into_iter()
        .map(|(name, mut t)| {
            for (p, id) in &pts {
                t.insert(p.coords(), *id).unwrap();
            }
            let grown = t.height();
            for (p, id) in pts.iter().filter(|(_, id)| id % 15 != 0) {
                assert!(t.delete(p.coords(), *id).unwrap(), "{name}: {id} missing");
            }
            assert!(
                t.height() < grown,
                "{name}: the root never shrank from {grown}"
            );
            assert_eq!(t.len(), 80);
            t.verify().unwrap();
            t.flush().unwrap();
            (name, page_image_digest(t.pager()))
        })
        .collect();
    assert_digests(
        "condense-heavy",
        &got,
        &[
            ("sr", 0xf28d_3742_c785_bf9b),
            ("ss", 0x6028_1fac_e25b_a0df),
            ("rstar", 0x424e_9a18_34d9_76ea),
        ],
    );
}

/// Coordinates drawn from a handful of values, `-0.0` and `0.0` among
/// them, so many points repeat exactly or differ only in a zero's sign.
fn signed_zero_points(n: usize) -> Vec<(Point, u64)> {
    const VALUES: [f32; 5] = [-0.0, 0.0, 0.5, -1.0, 0.0];
    let mut rng = SeededRng::seed_from_u64(SEED ^ 2);
    let pts: Vec<Point> = (0..n)
        .map(|_| {
            let coords: Vec<f32> = (0..DIM)
                .map(|_| VALUES[rng.random_range(0..VALUES.len())])
                .collect();
            Point::new(coords)
        })
        .collect();
    numbered(pts)
}

/// The same point with every zero's sign flipped: equal as `f32`s, so it
/// names the stored entry, but different in its bytes.
fn flip_zeros(p: &Point) -> Point {
    Point::new(
        p.coords()
            .iter()
            .map(|&x| if x == 0.0 { -x } else { x })
            .collect::<Vec<f32>>(),
    )
}

#[test]
fn signed_zero_and_repeated_points_are_pinned() {
    let pts = signed_zero_points(900);
    let got: Vec<_> = trees(PAGE_SIZE, 64)
        .into_iter()
        .map(|(name, mut t)| {
            for (p, id) in &pts {
                t.insert(p.coords(), *id).unwrap();
            }
            for (p, id) in pts.iter().filter(|(_, id)| id % 5 < 3) {
                let twin = flip_zeros(p);
                assert!(
                    t.delete(twin.coords(), *id).unwrap(),
                    "{name}: {id} missing"
                );
            }
            t.verify().unwrap();
            t.flush().unwrap();
            (name, page_image_digest(t.pager()))
        })
        .collect();
    assert_digests(
        "signed zeros",
        &got,
        &[
            ("sr", 0xf7ed_c48c_9c43_db06),
            ("ss", 0x84c3_2302_b03e_cb6e),
            ("rstar", 0x0e00_146f_e7cf_ce3b),
        ],
    );
}

/// Every page of `pf`, by id.
fn snapshot(pf: &PageFile) -> Vec<Option<(PageKind, Vec<u8>)>> {
    (0..pf.num_pages()).map(|id| read_any(pf, id)).collect()
}

/// Every tree page that differs from `before` re-encodes to itself.
fn check_changed_pages_canonical<P: TreePolicy>(
    t: &Tree<P>,
    before: &[Option<(PageKind, Vec<u8>)>],
    what: &str,
) -> Vec<Option<(PageKind, Vec<u8>)>> {
    let pf = t.pager();
    let after = snapshot(pf);
    for (id, page) in after.iter().enumerate() {
        let Some((kind, payload)) = page else {
            continue;
        };
        if before.get(id) == Some(page) || *kind == PageKind::Free {
            continue;
        }
        let level = match kind {
            PageKind::Leaf => 0,
            _ => u16::from_le_bytes([payload[0], payload[1]]),
        };
        let node: Node<P::Region> = Node::decode(id as u64, level, payload, &t.params)
            .unwrap_or_else(|e| panic!("{what}: page {id} does not decode: {e}"));
        let canonical = node.encode(&t.params, pf.capacity()).unwrap();
        assert_eq!(
            &canonical,
            payload,
            "{what}: page {id} ({kind:?}, {} bytes) is not its canonical encoding ({} bytes)",
            payload.len(),
            canonical.len()
        );
    }
    after
}

/// A seeded churn of inserts and deletes, condensing ones included:
/// after each operation every page it changed is canonical and the tree
/// verifies.
fn canonical_churn<P: TreePolicy>(mut t: Tree<P>, seed: u64) {
    let name = t.kind_name();
    let mut rng = SeededRng::seed_from_u64(seed);
    let pts = numbered(uniform(700, DIM, rng.next_u64()));
    let mut live: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut before = snapshot(t.pager());
    for step in 0..1_400 {
        // Grow first, then mostly shrink, so deletes condense.
        let insert = next < pts.len() && (step < 500 || rng.random_range(0..4) == 0);
        let what = if insert || live.is_empty() {
            let (p, id) = &pts[next];
            t.insert(p.coords(), *id).unwrap();
            live.push(next);
            next += 1;
            format!("{name} seed {seed:#x} step {step}: insert {id}")
        } else {
            let (p, id) = &pts[live.swap_remove(rng.random_range(0..live.len()))];
            assert!(t.delete(p.coords(), *id).unwrap());
            format!("{name} seed {seed:#x} step {step}: delete {id}")
        };
        before = check_changed_pages_canonical(&t, &before, &what);
        t.verify()
            .unwrap_or_else(|e| panic!("{what}: verify failed: {e}"));
        if next == pts.len() && live.is_empty() {
            break;
        }
    }
}

#[test]
fn every_write_leaves_canonical_pages() {
    for seed in [0xC0DE_0001u64, 0xC0DE_0002] {
        canonical_churn(SrTree::create_from(page_file(1024), DIM, 8).unwrap(), seed);
        canonical_churn(SsTree::create_from(page_file(1024), DIM, 64).unwrap(), seed);
        canonical_churn(
            RstarTree::create_from(page_file(1024), DIM, 8).unwrap(),
            seed,
        );
        canonical_churn(KdbTree::create_from(page_file(1024), DIM, 8).unwrap(), seed);
    }
}

/// Allocations of each of `deletes` non-condensing deletes on a
/// bulk-loaded SR-tree of `n` 16-d points over `page_size` pages, with
/// the height it had.
fn delete_allocations(page_size: usize, n: usize, deletes: usize) -> (u32, Vec<u64>) {
    let pts = numbered(uniform(n, 16, SEED ^ 3));
    let mut t = SrTree::create_from(page_file(page_size), 16, 512).unwrap();
    t.bulk_load(pts.clone()).unwrap();
    let min_leaf = t.params().min_leaf;
    t.flush().unwrap();
    let mut counts = Vec::new();
    for (p, id) in pts.iter().step_by(n / deletes).take(deletes) {
        let leaf = t
            .find_leaf(p, *id)
            .unwrap()
            .and_then(|path| path.last().copied());
        let cols = t.pager().read(leaf.unwrap(), PageKind::Leaf).unwrap();
        let entries = usize::from(u16::from_le_bytes([cols[2], cols[3]]));
        assert!(entries > min_leaf, "delete {id} would condense");
        let before = allocations();
        assert!(t.delete(p, *id).unwrap());
        counts.push(allocations() - before);
        // Checkpoint so every delete starts from an empty log.
        t.flush().unwrap();
    }
    (t.height(), counts)
}

#[test]
fn non_condensing_delete_allocations_do_not_grow_with_fanout() {
    // Bulk-loaded, both trees are three levels deep: 4 KiB pages hold 6
    // points or 10 children, 16 KiB pages 25 points or 40 children.
    let (small_height, small) = delete_allocations(4096, 480, 8);
    let (large_height, large) = delete_allocations(16_384, 8_000, 8);
    assert_eq!(small_height, large_height, "heights differ");
    assert_eq!(
        small, large,
        "allocations per delete: 4 KiB pages {small:?}, 16 KiB pages {large:?}"
    );
}
