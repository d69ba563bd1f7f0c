//! Decoder-totality fuzzing: every byte-level decoder in the system —
//! the columnar leaf view, the wire frame codecs, and the WAL scanner —
//! must be a *total* function of arbitrary input bytes. Random and
//! mutated buffers may decode, report `Incomplete`, or fail with a
//! typed error; they must never panic, over-read, or allocate from an
//! unvalidated length. This is the runtime counterpart of srlint's L9
//! taint pass: the lint proves every decoded count is checked before
//! use, this arm hammers the same decoders with inputs that lie.
//!
//! The node-page arm goes one step further for the `(level, n)` header
//! of a tree's pages: a header fault must not only fail, it must fail
//! with the same `IndexError::Corrupt` text, naming the page, on every
//! path that reads it (k-NN, `contains`, `verify`).
//!
//! The entry-byte arm does the same for faults inside a page's entries
//! (a NaN lane, an inverted rectangle, a negative radius): `contains`,
//! `verify`, a `delete` of the probe and an `insert` routed through the
//! faulted page must fail with the identical text, naming the page.
//!
//! Each arm has a fixed default seed, which keeps CI deterministic.
//! Setting `SRTREE_FUZZ_SEED` (decimal or `0x`-hex) mixes it into every
//! arm's default, so the arms still run distinct inputs; each arm prints
//! the seed it ran, and the same `SRTREE_FUZZ_SEED` replays a failure.

use srtree::dataset::{uniform, SeededRng};
use srtree::geometry::Point;
use srtree::obs::{Noop, StatsRecorder};
use srtree::pager::{
    encode_header, encode_page_frame, put_leaf_columns, scan_log, LeafColumns, PageCodec, PageKind,
};
use srtree::query::{IndexError, QuerySpec, SpatialIndex};
use srtree::rstar::RstarTree;
use srtree::tree::paged::{AnyEntry, Dynamic, LeafEntry, Node, Region};
use srtree::tree::{SrTree, Tree, TreePolicy};
use srtree::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response, Row,
    DEFAULT_MAX_BODY,
};

/// Random + mutated buffers per seed, per decoder. Small enough to stay
/// in tier-1 time, large enough that every early-exit branch of each
/// decoder is hit many times per run.
const CASES: usize = 4_000;

/// The seed of the arm whose fixed seed is `default`: `default` itself,
/// or, with `SRTREE_FUZZ_SEED` set, the override mixed with `default`
/// (one SplitMix64-seeded draw of `override ^ default`), so every arm
/// still runs its own inputs. Prints the seed it returns; a failure
/// replays with the same `SRTREE_FUZZ_SEED`.
fn seed_for(default: u64) -> u64 {
    let seed = match std::env::var("SRTREE_FUZZ_SEED") {
        Ok(s) => {
            let over = parse_seed(&s).unwrap_or_else(|| panic!("bad SRTREE_FUZZ_SEED {s:?}"));
            SeededRng::seed_from_u64(over ^ default).next_u64()
        }
        Err(_) => default,
    };
    eprintln!("arm {default:#x}: seed {seed:#x}");
    seed
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn random_bytes(rng: &mut SeededRng, max_len: usize) -> Vec<u8> {
    let len = rng.random_range(0..max_len + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Corrupt a valid buffer: flip bytes, truncate, or splice garbage —
/// the mutations a torn write or a hostile peer would produce.
fn mutate(rng: &mut SeededRng, valid: &[u8]) -> Vec<u8> {
    let mut buf = valid.to_vec();
    match rng.random_range(0..4) {
        0 => {
            // Flip up to 4 bytes.
            for _ in 0..rng.random_range(1..5) {
                if buf.is_empty() {
                    break;
                }
                let i = rng.random_range(0..buf.len());
                buf[i] ^= rng.next_u64() as u8 | 1;
            }
        }
        1 => {
            // Truncate to a strict prefix.
            buf.truncate(rng.random_range(0..buf.len().max(1)));
        }
        2 => {
            // Append garbage.
            buf.extend(random_bytes(rng, 64));
        }
        _ => {
            // Overwrite a random aligned u32 with an extreme value —
            // the shape of a lying length or count field.
            if buf.len() >= 4 {
                let i = rng.random_range(0..buf.len() - 3);
                let lie: u32 = [0, 1, u32::MAX, u32::MAX / 2, 0xFFFF][rng.random_range(0..5)];
                buf[i..i + 4].copy_from_slice(&lie.to_le_bytes());
            }
        }
    }
    buf
}

#[test]
fn leaf_columns_parse_is_total() {
    for (si, base) in [0xDECFu64 << 16 | 1, 0xDECF << 16 | 2, 0xDECF << 16 | 3]
        .into_iter()
        .enumerate()
    {
        let mut rng = SeededRng::seed_from_u64(seed_for(base));
        for case in 0..CASES {
            let dim = 1 + rng.random_range(0..32);
            let buf = if rng.random_range(0..2) == 0 {
                random_bytes(&mut rng, 4096)
            } else {
                // A well-formed columnar payload, then mutated, so the
                // fuzz reaches past the header into the bounds math.
                let entries = rng.random_range(0..8);
                let data_area = 16usize;
                let mut valid = vec![0u8; 4 + entries * (dim * 8 + data_area)];
                let points: Vec<Vec<f32>> = (0..entries)
                    .map(|_| (0..dim).map(|_| rng.next_u64() as f32).collect())
                    .collect();
                let refs: Vec<(&[f32], u64)> = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.as_slice(), i as u64))
                    .collect();
                let mut c = PageCodec::new(&mut valid);
                put_leaf_columns(&mut c, dim, data_area, &refs).expect("valid leaf");
                mutate(&mut rng, &valid)
            };
            if let Ok(cols) = LeafColumns::parse(&buf, dim, 16) {
                // A successful parse must expose in-bounds views.
                let n = cols.len();
                assert!(cols.coords().len() >= n * dim * 8, "seed {si} case {case}");
                assert_eq!(cols.data_ids().count(), n, "seed {si} case {case}");
            }
        }
    }
}

#[test]
fn wire_frame_decode_is_total() {
    for base in [0xD1CEu64 << 16 | 1, 0xD1CE << 16 | 2, 0xD1CE << 16 | 3] {
        let mut rng = SeededRng::seed_from_u64(seed_for(base));
        for _ in 0..CASES {
            let buf = if rng.random_range(0..2) == 0 {
                random_bytes(&mut rng, 512)
            } else {
                // Mutate a valid frame so the fuzz reaches past the
                // header checks into the body decoders.
                let dim = rng.random_range(0..16);
                let valid = if rng.random_range(0..2) == 0 {
                    encode_request(&Request::Knn {
                        query: vec![0.5; dim],
                        k: rng.random_range(0..64) as u32,
                    })
                    .expect("encode request")
                } else {
                    let rows: Vec<Row> = (0..rng.random_range(0..8))
                        .map(|i| Row {
                            data: i as u64,
                            dist: i as f64,
                        })
                        .collect();
                    encode_response(&Response::Rows(rows)).expect("encode response")
                };
                mutate(&mut rng, &valid)
            };
            // Any outcome but a panic is acceptable: Frame, Incomplete,
            // or a typed error.
            let _ = decode_request(&buf, DEFAULT_MAX_BODY);
            let _ = decode_response(&buf, DEFAULT_MAX_BODY);
            // A tiny cap exercises the TooLarge path on the same bytes.
            let _ = decode_request(&buf, 16);
            let _ = decode_response(&buf, 16);
        }
    }
}

#[test]
fn wal_scan_is_total() {
    const PS: usize = 256;
    for base in [0x5CA1u64 << 16 | 1, 0x5CA1 << 16 | 2, 0x5CA1 << 16 | 3] {
        let mut rng = SeededRng::seed_from_u64(seed_for(base));
        for _ in 0..CASES {
            let buf = if rng.random_range(0..2) == 0 {
                random_bytes(&mut rng, 2048)
            } else {
                // A valid header + a few page frames, then mutated.
                let mut log = encode_header(PS, 1).expect("encode header");
                for id in 0..rng.random_range(0..4) {
                    let image = vec![id as u8; PS];
                    log.extend(encode_page_frame(id as u64, &image, 1).expect("encode frame"));
                }
                mutate(&mut rng, &log)
            };
            // scan_log stops at the first unreadable frame (typed error
            // or truncated tail) — it must never panic on any bytes.
            let _ = scan_log(&buf, PS);
        }
    }
}

/// Points per tree of the node-page arm: at 4-d on 4 KiB pages, a tree
/// of height 3.
const NODE_POINTS: usize = 3_000;
const NODE_DIM: usize = 4;
const NODE_PAGE: usize = 4096;
/// Faulted pages per tree, alternating between the root and a leaf.
const NODE_CASES: usize = 60;

/// One way a node page's `(level, n)` header can lie.
#[derive(Clone, Copy, Debug)]
enum HeaderFault {
    /// A count the body cannot hold.
    Count,
    /// A level the parent does not expect.
    Level,
    /// A payload cut below its count.
    Cut,
    /// An inner page whose count is zero: a well-formed body that routes
    /// nowhere.
    Empty,
}

/// `payload` with one header fault; `expected` is the page's level.
fn fault_header(rng: &mut SeededRng, payload: &[u8], expected: u16, fault: HeaderFault) -> Vec<u8> {
    let mut buf = payload.to_vec();
    match fault {
        HeaderFault::Count => {
            // Every page is written holding exactly its `n` entries.
            let n = usize::from(u16::from_le_bytes([buf[2], buf[3]]));
            let lie = rng.random_range(n + 1..usize::from(u16::MAX) + 1) as u16;
            buf[2..4].copy_from_slice(&lie.to_le_bytes());
        }
        HeaderFault::Level => {
            let lie = match rng.random_range(0..3) {
                0 => expected + 1,
                1 => expected.wrapping_sub(1),
                _ => rng.next_u64() as u16,
            };
            let lie = if lie == expected {
                expected ^ 0x8000
            } else {
                lie
            };
            buf[..2].copy_from_slice(&lie.to_le_bytes());
        }
        HeaderFault::Cut => buf.truncate(rng.random_range(0..buf.len())),
        HeaderFault::Empty => buf[2..4].copy_from_slice(&0u16.to_le_bytes()),
    }
    buf
}

/// The text of an `IndexError::Corrupt`, or a failure naming `what`.
fn corrupt_text(got: Result<(), IndexError>, what: &str) -> String {
    match got {
        Err(IndexError::Corrupt(msg)) => msg,
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    }
}

/// Fill `tree` with seeded points, then fault the header of its root or
/// of the leaf holding a probe point, one fault per case, and require
/// `knn(probe, 1)`, `contains(probe)` and `verify()` to fail with the
/// identical `Corrupt` text, starting `page N:`. Only the root, an inner
/// page, takes the `Empty` fault: a leaf with no entries is a tree's
/// empty root. Each case restores the page before the next.
fn node_header_faults_read_alike<P: TreePolicy>(mut tree: Tree<P>, seed: u64) {
    let name = tree.kind_name();
    let mut rng = SeededRng::seed_from_u64(seed);
    let points = uniform(NODE_POINTS, NODE_DIM, rng.next_u64());
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.coords(), i as u64).expect("insert");
    }
    let core = &tree;
    let root_level = core.root_level().expect("a non-empty tree");
    assert!(root_level >= 1, "{name}: the root must be an inner node");
    let mut empties = 0;
    for case in 0..NODE_CASES {
        let i = rng.random_range(0..NODE_POINTS);
        let (probe, data) = (&points[i], i as u64);
        let (id, level, kind) = if case % 2 == 0 {
            (core.root, root_level, PageKind::Node)
        } else {
            let path = core.find_leaf(probe, data).expect("intact tree");
            let leaf = path.and_then(|p| p.last().copied()).expect("stored probe");
            (leaf, 0, PageKind::Leaf)
        };
        let faults: &[HeaderFault] = match kind {
            PageKind::Leaf => &[HeaderFault::Count, HeaderFault::Level, HeaderFault::Cut],
            _ => &[
                HeaderFault::Count,
                HeaderFault::Level,
                HeaderFault::Cut,
                HeaderFault::Empty,
            ],
        };
        let fault = faults[rng.random_range(0..faults.len())];
        empties += usize::from(matches!(fault, HeaderFault::Empty));
        let intact = core.pager().read(id, kind).expect("read").to_vec();
        let faulted = fault_header(&mut rng, &intact, level, fault);
        core.pager().write(id, kind, &faulted).expect("write");

        let what = format!("{name} seed {seed:#x} case {case}: {fault:?} on page {id}");
        let knn = corrupt_text(
            tree.knn(probe.coords(), 1).map(drop),
            &format!("{what}: knn"),
        );
        let contains = corrupt_text(
            core.contains(probe, data).map(drop),
            &format!("{what}: contains"),
        );
        let verify = corrupt_text(tree.verify().map(drop), &format!("{what}: verify"));
        assert_eq!(knn, contains, "{what}: knn and contains disagree");
        assert_eq!(knn, verify, "{what}: knn and verify disagree");
        assert!(knn.starts_with(&format!("page {id}: ")), "{what}: {knn}");

        core.pager().write(id, kind, &intact).expect("restore");
    }
    assert!(
        empties > 0,
        "{name} seed {seed:#x}: no case emptied the root"
    );
    tree.verify().expect("every faulted page was restored");
}

#[test]
fn node_header_faults_read_alike_on_every_path() {
    for base in [0x4EADu64 << 16 | 1, 0x4EAD << 16 | 2] {
        let seed = seed_for(base);
        node_header_faults_read_alike(
            SrTree::create_in_memory(NODE_DIM, NODE_PAGE).expect("SR-tree"),
            seed,
        );
        node_header_faults_read_alike(
            RstarTree::create_in_memory(NODE_DIM, NODE_PAGE).expect("R*-tree"),
            seed,
        );
    }
}

/// Lane offsets of a region's fields within an inner-node entry, in f64
/// lanes: a sphere's center then radius, a rectangle's min then max.
#[derive(Clone, Copy, Debug)]
struct RegionLanes {
    sphere: Option<usize>,
    rect: Option<usize>,
}

/// The SR-tree's region: sphere (center, radius) then rectangle.
const SR_LANES: RegionLanes = RegionLanes {
    sphere: Some(0),
    rect: Some(NODE_DIM + 1),
};
/// The R*-tree's region: a rectangle.
const RECT_LANES: RegionLanes = RegionLanes {
    sphere: None,
    rect: Some(0),
};

/// One way an entry inside a node page can lie.
#[derive(Clone, Copy, Debug)]
enum EntryFault {
    /// A NaN in one of a leaf's coordinate lanes.
    LeafNan,
    /// A NaN in one lane of a root entry's region.
    RegionNan,
    /// A root entry's rectangle with `min > max` on one axis.
    Inverted,
    /// A root entry's sphere with a negative radius.
    NegativeRadius,
}

/// The leaf an insert of `p` descends to: the tree's own ChooseSubtree,
/// from the root down.
fn insert_route<P: Dynamic>(tree: &Tree<P>, p: &Point) -> u64 {
    let entry = AnyEntry::Leaf(LeafEntry {
        point: p.clone(),
        data: 0,
    });
    let (mut id, mut level) = (tree.root, tree.root_level().expect("a non-empty tree"));
    while level > 0 {
        let Node::Inner { entries, .. } = tree.read_node(id, level).expect("intact tree") else {
            panic!("page {id} at level {level} is a leaf");
        };
        id = entries[P::choose_subtree(&entries, &entry, level)].child;
        level -= 1;
    }
    id
}

/// Overwrite f64 lane `lane` of the region bytes starting at `at`.
fn set_lane(buf: &mut [u8], at: usize, lane: usize, v: f64) {
    let at = at + lane * 8;
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Fill `tree` with seeded points, then fault one entry of its root or
/// one coordinate of the leaf holding a probe point, one fault per case,
/// and require `contains(probe)`, `verify()`, `delete(probe)` and an
/// insert of a copy of the probe to fail with the identical `Corrupt`
/// text, starting `page N:`, changing nothing. Every insert passes the
/// root; for a leaf fault the probe is one whose insert route ends at
/// the leaf holding it. k-NN scores entries without validating them (its
/// bounds read the raw bytes), so it need not fail, only return; so must
/// `also_query`, which runs each tree's other searches. Each case
/// restores the page before the next.
fn node_entry_faults_read_alike<P: Dynamic>(
    mut tree: Tree<P>,
    lanes: RegionLanes,
    seed: u64,
    also_query: fn(&Tree<P>, &[f32]),
) {
    let name = tree.kind_name();
    let mut rng = SeededRng::seed_from_u64(seed);
    let points = uniform(NODE_POINTS, NODE_DIM, rng.next_u64());
    for (i, p) in points.iter().enumerate() {
        SpatialIndex::insert(&mut tree, p.coords(), i as u64).expect("insert");
    }
    let root_level = tree.root_level().expect("a non-empty tree");
    assert!(root_level >= 1, "{name}: the root must be an inner node");
    let mut faults = vec![EntryFault::LeafNan, EntryFault::RegionNan];
    if lanes.rect.is_some() {
        faults.push(EntryFault::Inverted);
    }
    if lanes.sphere.is_some() {
        faults.push(EntryFault::NegativeRadius);
    }
    let region_lanes = P::Region::bytes(NODE_DIM) / 8;
    let holding_leaf = |tree: &Tree<P>, i: usize| {
        let path = tree.find_leaf(&points[i], i as u64).expect("intact tree");
        path.and_then(|p| p.last().copied()).expect("stored probe")
    };
    for case in 0..NODE_CASES {
        let mut i = rng.random_range(0..NODE_POINTS);
        let fault = faults[rng.random_range(0..faults.len())];
        let (id, kind) = match fault {
            EntryFault::LeafNan => {
                while insert_route(&tree, &points[i]) != holding_leaf(&tree, i) {
                    i = rng.random_range(0..NODE_POINTS);
                }
                (holding_leaf(&tree, i), PageKind::Leaf)
            }
            _ => (tree.root, PageKind::Node),
        };
        let (probe, data) = (&points[i], i as u64);
        let core = &tree;
        let intact = core.pager().read(id, kind).expect("read").to_vec();
        let mut faulted = intact.clone();
        // Both kinds of page hold `n` entries after a 4-byte header.
        let n = usize::from(u16::from_le_bytes([intact[2], intact[3]]));
        let entry = 4 + rng.random_range(0..n) * (P::Region::bytes(NODE_DIM) + 8);
        let d = rng.random_range(0..NODE_DIM);
        match fault {
            // Coordinate lanes are dimension-major, `n · dim` of them.
            EntryFault::LeafNan => {
                set_lane(&mut faulted, 4, rng.random_range(0..n * NODE_DIM), f64::NAN)
            }
            EntryFault::RegionNan => set_lane(
                &mut faulted,
                entry,
                rng.random_range(0..region_lanes),
                f64::NAN,
            ),
            EntryFault::Inverted => {
                let min = lanes.rect.expect("a rectangle");
                set_lane(&mut faulted, entry, min + d, 5.0);
                set_lane(&mut faulted, entry, min + NODE_DIM + d, -5.0);
            }
            EntryFault::NegativeRadius => {
                let center = lanes.sphere.expect("a sphere");
                set_lane(&mut faulted, entry, center + NODE_DIM, -1.0);
            }
        }
        core.pager().write(id, kind, &faulted).expect("write");

        let what = format!("{name} seed {seed:#x} case {case}: {fault:?} on page {id}");
        for k in [1, 5] {
            let _ = tree.knn(probe.coords(), k);
            let depth_first = QuerySpec::knn(probe.coords(), k).depth_first();
            let _ = tree.query(&depth_first, &Noop);
        }
        also_query(&tree, probe.coords());
        let contains = corrupt_text(
            core.contains(probe, data).map(drop),
            &format!("{what}: contains"),
        );
        let verify = corrupt_text(tree.verify().map(drop), &format!("{what}: verify"));
        assert_eq!(contains, verify, "{what}: contains and verify disagree");
        assert!(
            contains.starts_with(&format!("page {id}: ")),
            "{what}: {contains}"
        );
        let delete = corrupt_text(
            SpatialIndex::delete(&mut tree, probe.coords(), data).map(drop),
            &format!("{what}: delete"),
        );
        assert_eq!(delete, contains, "{what}: delete and contains disagree");
        let copy = (NODE_POINTS + case) as u64;
        let insert = corrupt_text(
            SpatialIndex::insert(&mut tree, probe.coords(), copy),
            &format!("{what}: insert"),
        );
        assert_eq!(insert, contains, "{what}: insert and contains disagree");
        assert_eq!(
            tree.len(),
            NODE_POINTS as u64,
            "{what}: a failed write counted"
        );

        let now = tree.pager().read(id, kind).expect("read").to_vec();
        assert!(now == faulted, "{what}: a failed write changed the page");
        tree.pager().write(id, kind, &intact).expect("restore");
    }
    tree.verify().expect("every faulted page was restored");
}

#[test]
fn node_entry_faults_read_alike_on_every_path() {
    for base in [0xE7A1u64 << 16 | 1, 0xE7A1 << 16 | 2] {
        let seed = seed_for(base);
        // Best-first queues the bounds it reads off a faulted page, so a
        // NaN one must be pruned before it reaches the queue. Untraced,
        // the search stops at its first pruned pop; traced, it drains.
        node_entry_faults_read_alike(
            SrTree::create_in_memory(NODE_DIM, NODE_PAGE).expect("SR-tree"),
            SR_LANES,
            seed,
            |tree, q| {
                let _ = tree.query(&QuerySpec::knn(q, 5), &StatsRecorder::new());
            },
        );
        node_entry_faults_read_alike(
            RstarTree::create_in_memory(NODE_DIM, NODE_PAGE).expect("R*-tree"),
            RECT_LANES,
            seed,
            |_, _| {},
        );
    }
}
