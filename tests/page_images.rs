//! Golden page images: every tree, built from a fixed data set, must
//! produce exactly the same page-file bytes release after release.
//!
//! Each case builds one structure in an in-memory page file, flushes it,
//! and folds the user-metadata bytes plus the kind and payload of every
//! page (read back through `PageFile`) into one 64-bit FNV-1a digest.
//! A changed digest means a changed on-disk format or a changed
//! insertion, split, reinsertion or deletion decision — both are
//! behaviour changes, never refactoring noise.

use srtree::dataset::uniform;
use srtree::geometry::Point;
use srtree::kdbtree::KdbTree;
use srtree::pager::{PageFile, PageKind};
use srtree::query::SpatialIndex;
use srtree::rstar::RstarTree;
use srtree::sstree::SsTree;
use srtree::tree::{RadiusRule, SrOptions, SrTree};
use srtree::vamsplit::VamTree;

const DIM: usize = 8;
const PAGE_SIZE: usize = 2048;
const DATA_AREA: usize = 64;
const N: usize = 1_500;
const SEED: u64 = 0x5EED_1997;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Digest of the user metadata and of every page's kind and payload.
fn page_image_digest(pf: &PageFile) -> u64 {
    let mut h = fnv1a(0xCBF2_9CE4_8422_2325, &pf.user_meta());
    for id in 1..pf.num_pages() {
        let (tag, buf) = [PageKind::Node, PageKind::Leaf, PageKind::Free]
            .into_iter()
            .find_map(|kind| pf.read(id, kind).ok().map(|b| (kind as u8, b)))
            .unwrap_or_else(|| panic!("page {id} reads as no known kind"));
        h = fnv1a(h, &id.to_le_bytes());
        h = fnv1a(h, &[tag]);
        h = fnv1a(h, &buf);
    }
    h
}

fn points() -> Vec<(Point, u64)> {
    uniform(N, DIM, SEED)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect()
}

fn page_file() -> PageFile {
    PageFile::create_in_memory(PAGE_SIZE).unwrap()
}

/// Insert every point, delete every fifth one, flush, and digest.
fn churn(t: &mut dyn SpatialIndex, points: &[(Point, u64)]) -> u64 {
    for (p, id) in points {
        t.insert(p.coords(), *id).unwrap();
    }
    for (p, id) in points.iter().step_by(5) {
        assert!(t.delete(p.coords(), *id).unwrap(), "entry {id} missing");
    }
    t.flush().unwrap();
    page_image_digest(t.pager())
}

#[track_caller]
fn assert_digest(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: page image digest {got:#018x} differs from the golden {want:#018x}"
    );
}

#[test]
fn sr_tree_dynamic_pages_are_golden() {
    let pts = points();
    let mut t = SrTree::create_from(page_file(), DIM, DATA_AREA).unwrap();
    assert_digest("sr dynamic", churn(&mut t, &pts), 0x27b1_7a73_3c7a_f2e3);
}

#[test]
fn sr_tree_ablation_pages_are_golden() {
    let pts = points();
    let options = SrOptions {
        radius_rule: RadiusRule::SphereOnly,
        disable_reinsertion: true,
    };
    let mut t = SrTree::create_with_options(page_file(), DIM, DATA_AREA, options).unwrap();
    assert_digest("sr ablation", churn(&mut t, &pts), 0xabf2_8b40_bffc_1bfa);
}

#[test]
fn sr_tree_bulk_pages_are_golden() {
    let mut t = SrTree::create_from(page_file(), DIM, DATA_AREA).unwrap();
    t.bulk_load(points()).unwrap();
    t.flush().unwrap();
    assert_digest(
        "sr bulk",
        page_image_digest(t.pager()),
        0x2717_016d_21a4_61d8,
    );
}

#[test]
fn ss_tree_pages_are_golden() {
    let pts = points();
    let mut t = SsTree::create_from(page_file(), DIM, DATA_AREA).unwrap();
    assert_digest("ss", churn(&mut t, &pts), 0x8cd1_fb82_67a2_133c);
}

#[test]
fn rstar_tree_pages_are_golden() {
    let pts = points();
    let mut t = RstarTree::create_from(page_file(), DIM, DATA_AREA).unwrap();
    assert_digest("rstar", churn(&mut t, &pts), 0x3418_8a08_4363_7b87);
}

#[test]
fn kdb_tree_pages_are_golden() {
    let pts = points();
    let mut t = KdbTree::create_from(page_file(), DIM, DATA_AREA).unwrap();
    assert_digest("kdb", churn(&mut t, &pts), 0xb40a_12e6_25bf_a0e1);
}

#[test]
fn vam_tree_pages_are_golden() {
    let t = VamTree::build_from(page_file(), points(), DIM, DATA_AREA).unwrap();
    t.flush().unwrap();
    assert_digest("vam", page_image_digest(t.pager()), 0xe410_db69_dd91_15b4);
}
