//! Integration: every structure persists to its page file and reopens
//! with identical query behavior; files are mutually type-checked (an
//! SR-tree file refuses to open as an SS-tree, etc.).

use sr_testkit::TempDir;
use srtree::dataset::{sample_queries, uniform};
use srtree::geometry::Point;
use srtree::kdbtree::KdbTree;
use srtree::query::SpatialIndex;
use srtree::rstar::RstarTree;
use srtree::sstree::SsTree;
use srtree::tree::SrTree;
use srtree::vamsplit::VamTree;

#[test]
fn all_structures_survive_reopen() {
    let points = uniform(2_000, 8, 11);
    let queries = sample_queries(&points, 10, 13);

    // Build + close each structure, collecting pre-close answers. The
    // guard removes the directory (and every index file) on drop, even
    // if an assertion below fails.
    let dir = TempDir::new("srtree-integration").unwrap();
    let sr_path = dir.file("sr.pages");
    let ss_path = dir.file("ss.pages");
    let rs_path = dir.file("rs.pages");
    let kdb_path = dir.file("kdb.pages");
    let vam_path = dir.file("vam.pages");
    let mut expected: Vec<Vec<u64>> = Vec::new();
    {
        let mut sr = SrTree::create(&sr_path, 8).unwrap();
        let mut ss = SsTree::create(&ss_path, 8).unwrap();
        let mut rs = RstarTree::create(&rs_path, 8).unwrap();
        let mut kdb = KdbTree::create(&kdb_path, 8).unwrap();
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
        let vam = VamTree::build_at(&vam_path, with_ids, 8).unwrap();
        for q in &queries {
            expected.push(
                sr.knn(q.coords(), 9)
                    .unwrap()
                    .iter()
                    .map(|n| n.data)
                    .collect(),
            );
        }
        sr.flush().unwrap();
        ss.flush().unwrap();
        rs.flush().unwrap();
        kdb.flush().unwrap();
        vam.flush().unwrap();
    }

    // Reopen and compare.
    let sr = SrTree::open(&sr_path).unwrap();
    let ss = SsTree::open(&ss_path).unwrap();
    let rs = RstarTree::open(&rs_path).unwrap();
    let kdb = KdbTree::open(&kdb_path).unwrap();
    let vam = VamTree::open(&vam_path).unwrap();
    assert_eq!(sr.len(), 2_000);
    assert_eq!(vam.len(), 2_000);
    for (q, want) in queries.iter().zip(expected.iter()) {
        let got: Vec<u64> = sr
            .knn(q.coords(), 9)
            .unwrap()
            .iter()
            .map(|n| n.data)
            .collect();
        assert_eq!(&got, want, "SR-tree answers changed across reopen");
        // Other structures agree with the SR-tree (same deterministic
        // tie-breaking).
        let ids = |v: Vec<srtree::query::Neighbor>| v.iter().map(|n| n.data).collect::<Vec<u64>>();
        assert_eq!(ids(ss.knn(q.coords(), 9).unwrap()), *want);
        assert_eq!(ids(rs.knn(q.coords(), 9).unwrap()), *want);
        assert_eq!(ids(kdb.knn(q.coords(), 9).unwrap()), *want);
        assert_eq!(ids(vam.knn(q.coords(), 9).unwrap()), *want);
    }
}

#[test]
fn index_files_are_type_checked() {
    let dir = TempDir::new("srtree-integration").unwrap();
    let path = dir.file("typed.pages");
    {
        let mut sr = SrTree::create(&path, 4).unwrap();
        sr.insert(Point::new(vec![0.0, 0.0, 0.0, 0.0]), 0).unwrap();
        sr.flush().unwrap();
    }
    // A valid page file, but not an SS-tree / R*-tree / K-D-B-tree.
    assert!(SsTree::open(&path).is_err());
    assert!(RstarTree::open(&path).is_err());
    assert!(KdbTree::open(&path).is_err());
    assert!(VamTree::open(&path).is_err());
    // And still a valid SR-tree.
    assert!(SrTree::open(&path).is_ok());
}

#[test]
fn updates_after_reopen_keep_working() {
    let dir = TempDir::new("srtree-integration").unwrap();
    let path = dir.file("update-after-reopen.pages");
    let points = uniform(600, 4, 17);
    {
        let mut sr = SrTree::create(&path, 4).unwrap();
        for (i, p) in points.iter().take(300).enumerate() {
            sr.insert(p.clone(), i as u64).unwrap();
        }
        sr.flush().unwrap();
    }
    {
        let mut sr = SrTree::open(&path).unwrap();
        for (i, p) in points.iter().enumerate().skip(300) {
            sr.insert(p.clone(), i as u64).unwrap();
        }
        for (i, p) in points.iter().take(100).enumerate() {
            assert!(sr.delete(p, i as u64).unwrap());
        }
        sr.flush().unwrap();
    }
    let sr = SrTree::open(&path).unwrap();
    assert_eq!(sr.len(), 500);
    srtree::tree::verify::check(&sr).unwrap();
}
