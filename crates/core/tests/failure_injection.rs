//! Failure injection: when the backing store starts failing, every tree
//! operation must surface an error — never panic, never corrupt the
//! in-memory handle so badly that recovery is impossible.
//!
//! The fault layer is the pager's own `FaultInjector` (see
//! `sr_pager::fault`); `crash_after(n)` reproduces the "store dies after
//! N operations" schedule at every interesting point of an insert
//! volume. The repo-level `tests/fault_injection.rs` covers targeted
//! single-write faults, torn writes, and reopen-after-crash.

#![cfg(test)]

use sr_dataset::uniform;
use sr_pager::{FaultInjector, FaultKind, MemLogStore, MemPageStore, PageFile, PagerError};
use sr_query::{IndexError, SpatialIndex};
use sr_tree::SrTree;

/// Wrap both halves of the pager — page store *and* write-ahead log —
/// around one fault state, so the budget counts every I/O the tree
/// performs (WAL appends included).
fn faulted_pagefile(page_size: usize) -> (PageFile, sr_pager::FaultHandle) {
    let (store, log, handle) = FaultInjector::wrap_parts(
        Box::new(MemPageStore::new(page_size)),
        Box::new(MemLogStore::new()),
    );
    let pf = PageFile::create_from_parts(store, log).unwrap();
    (pf, handle)
}

/// Drive inserts until the injected cutoff fires; the error must be a
/// clean `IndexError::Pager`, at any failure point.
#[test]
fn insert_failures_surface_as_errors() {
    let points = uniform(300, 4, 501);
    for fail_after in [5u64, 17, 60, 150, 400] {
        let (pf, handle) = faulted_pagefile(1024);
        // Cache off so failures hit promptly and deterministically.
        pf.set_cache_capacity(0).unwrap();
        let mut tree = SrTree::create_from(pf, 4, 64).unwrap();

        handle.crash_after(fail_after);
        let mut saw_error = false;
        for (i, p) in points.iter().enumerate() {
            match tree.insert(p.clone(), i as u64) {
                Ok(()) => {}
                Err(IndexError::Pager(PagerError::Injected { kind, .. })) => {
                    assert_eq!(kind, FaultKind::Crash);
                    saw_error = true;
                    break;
                }
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
        assert!(
            saw_error,
            "fail_after={fail_after}: the injected failure never surfaced"
        );
        assert!(handle.crashed());
        // Queries against the dead store also error cleanly rather than
        // panic.
        match tree.knn(points[0].coords(), 3) {
            Ok(_) | Err(IndexError::Pager(_)) => {}
            Err(other) => panic!("unexpected error kind: {other}"),
        }
        // Once the store recovers, queries run again without panicking
        // (the tree may legitimately be mid-split, so no answer check).
        handle.clear();
        match tree.knn(points[0].coords(), 3) {
            Ok(_) | Err(IndexError::Pager(_)) => {}
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
}

/// A failure during a query leaves the tree reusable once the store
/// recovers (reads are side-effect free).
#[test]
fn query_failures_do_not_poison_the_tree() {
    let points = uniform(500, 4, 503);
    let (pf, handle) = faulted_pagefile(1024);
    pf.set_cache_capacity(0).unwrap();
    let mut tree = SrTree::create_from(pf, 4, 64).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let good = tree.knn(points[0].coords(), 5).unwrap();

    // Fail the first read of the next query, then clear: the repeated
    // query must give the identical answer.
    handle.fail_nth_read(0);
    assert!(matches!(
        tree.knn(points[0].coords(), 5),
        Err(IndexError::Pager(PagerError::Injected {
            kind: FaultKind::Read,
            ..
        }))
    ));
    handle.clear();
    let again = tree.knn(points[0].coords(), 5).unwrap();
    assert_eq!(
        good.iter().map(|n| n.data).collect::<Vec<_>>(),
        again.iter().map(|n| n.data).collect::<Vec<_>>()
    );

    // A dimension-mismatch query errors before touching any page and
    // likewise leaves the tree intact.
    assert!(tree.knn(&[0.0, 0.0], 5).is_err());
    let third = tree.knn(points[0].coords(), 5).unwrap();
    assert_eq!(
        again.iter().map(|n| n.data).collect::<Vec<_>>(),
        third.iter().map(|n| n.data).collect::<Vec<_>>()
    );
}
