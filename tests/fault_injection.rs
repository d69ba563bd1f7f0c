//! Tier-1 fault injection: the pager's `FaultInjector` fails chosen
//! reads/writes, tears writes mid-page, and cuts off all I/O at a crash
//! point. Every injected fault must surface as a typed `Err` — never a
//! panic — and, now that the pager journals every mutation through a
//! write-ahead log, a file that took faults after a flush must reopen
//! to *exactly* the flushed state: uncommitted and torn log tails are
//! discarded by replay, never served.
//!
//! The fault layer wraps both halves of the pager (`wrap_parts`): page
//! store and log store share one fault state, so write/read budgets
//! count WAL appends too. The cache is disabled
//! (`set_cache_capacity(0)`) where a fault must fire inside the
//! operation that caused it. The exhaustive every-I/O-point sweep lives
//! in `tests/crash_recovery.rs`; these tests pin targeted shapes.

use sr_testkit::{FaultHandle, FaultInjector, FaultKind, TempDir};
use srtree::dataset::uniform;
use srtree::pager::{
    wal_file_path, FileLogStore, FilePageStore, MemLogStore, MemPageStore, PageFile, PagerError,
};
use srtree::query::{IndexError, SpatialIndex};
use srtree::tree::{verify, SrOptions, SrTree};

const DIM: usize = 4;
const PAGE: usize = 1024;
const DATA_AREA: usize = 64;

/// Split-on-overflow options: forced reinsertion is disabled so the
/// first leaf overflow goes straight down the split path we want to
/// fault.
fn split_opts() -> SrOptions {
    SrOptions {
        disable_reinsertion: true,
        ..SrOptions::default()
    }
}

/// An SR-tree over a fault-wrapped in-memory store pair (page store
/// *and* WAL share the fault state), cache off.
fn faulty_mem_tree() -> (SrTree, FaultHandle) {
    let (store, log, handle) = FaultInjector::wrap_parts(
        Box::new(MemPageStore::new(PAGE)),
        Box::new(MemLogStore::new()),
    );
    let pf = PageFile::create_from_parts(store, log).unwrap();
    pf.set_cache_capacity(0).unwrap();
    let tree = SrTree::create_with_options(pf, DIM, DATA_AREA, split_opts()).unwrap();
    (tree, handle)
}

/// An SR-tree over fault-wrapped *file* stores (pages + WAL file), so a
/// later `PageFile::open(path)` exercises the real on-disk replay path.
fn faulty_file_tree(path: &std::path::Path) -> (SrTree, FaultHandle) {
    let (store, log, handle) = FaultInjector::wrap_parts(
        Box::new(FilePageStore::create(path, PAGE).unwrap()),
        Box::new(FileLogStore::create(&wal_file_path(path)).unwrap()),
    );
    let pf = PageFile::create_from_parts(store, log).unwrap();
    pf.set_cache_capacity(0).unwrap();
    let tree = SrTree::create_with_options(pf, DIM, DATA_AREA, split_opts()).unwrap();
    (tree, handle)
}

/// Index of the first insert that splits the root leaf (height 1 -> 2),
/// found on a clean shadow tree with identical parameters.
fn first_split_index(points: &[srtree::geometry::Point]) -> usize {
    let pf = PageFile::create_in_memory(PAGE).unwrap();
    let mut shadow = SrTree::create_with_options(pf, DIM, DATA_AREA, split_opts()).unwrap();
    for (i, p) in points.iter().enumerate() {
        shadow.insert(p.clone(), i as u64).unwrap();
        if shadow.height() > 1 {
            return i;
        }
    }
    panic!(
        "no split within {} inserts; shrink the page size",
        points.len()
    );
}

#[test]
fn write_failure_during_split_surfaces_as_err() {
    let points = uniform(200, DIM, 701);
    let split_at = first_split_index(&points);

    // Fault every write the splitting insert performs, in turn. Small n
    // hits the split machinery itself (the leaf is overfull, so the
    // first writes of that insert are the split); larger n may land past
    // the insert's last write, which must then succeed.
    let mut injected_errs = 0;
    for nth_write in 0..8u64 {
        let (mut tree, handle) = faulty_mem_tree();
        for (i, p) in points[..split_at].iter().enumerate() {
            tree.insert(p.clone(), i as u64).unwrap();
        }
        assert_eq!(
            tree.height(),
            1,
            "split happened earlier than the shadow run"
        );
        handle.fail_nth_write(nth_write);
        let was_err = match tree.insert(points[split_at].clone(), split_at as u64) {
            Ok(()) => {
                assert_eq!(tree.height(), 2);
                false
            }
            Err(IndexError::Pager(PagerError::Injected { kind, .. })) => {
                assert_eq!(kind, FaultKind::Write);
                injected_errs += 1;
                true
            }
            Err(other) => panic!("nth_write={nth_write}: unexpected error kind: {other}"),
        };
        // The handle's statistics attribute the fault correctly.
        assert_eq!(handle.stats().injected, was_err as u64);
        handle.clear();
        // After the store recovers, the tree handle still answers
        // queries without panicking (possibly over a partial split).
        let _ = tree.knn(points[0].coords(), 3);
    }
    assert!(
        injected_errs > 0,
        "no write of the splitting insert was faulted; split writes fewer pages than expected"
    );
}

#[test]
fn read_failure_during_query_is_clean_and_clears() {
    let points = uniform(400, DIM, 703);
    let (mut tree, handle) = faulty_mem_tree();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let want = tree.knn(points[0].coords(), 5).unwrap();

    handle.fail_nth_read(0);
    match tree.knn(points[0].coords(), 5) {
        Err(IndexError::Pager(PagerError::Injected { kind, .. })) => {
            assert_eq!(kind, FaultKind::Read)
        }
        Ok(_) => panic!("armed read fault never fired"),
        Err(other) => panic!("unexpected error kind: {other}"),
    }
    assert_eq!(handle.stats().injected, 1);

    // Reads are side-effect free: after clearing the fault the same
    // query gives the same answer.
    handle.clear();
    let again = tree.knn(points[0].coords(), 5).unwrap();
    assert_eq!(
        want.iter().map(|n| n.data).collect::<Vec<_>>(),
        again.iter().map(|n| n.data).collect::<Vec<_>>()
    );
}

/// Reopen a file that took faults after a flush. The WAL's contract is
/// unconditional: replay discards everything uncommitted and the tree
/// comes back *exactly* as last flushed — verifying clean, at
/// `want_len` entries, without panicking anywhere on the way.
fn check_reopen_exact(path: &std::path::Path, want_len: u64, what: &str) {
    let reopened = std::panic::catch_unwind(|| {
        let pf = PageFile::open(path)?;
        pf.set_cache_capacity(0)?;
        let tree = SrTree::open_from(pf)?;
        let verdict = verify::check(&tree).map(|_| tree.len());
        Ok::<_, IndexError>(verdict)
    });
    let result = match reopened {
        Ok(r) => r,
        Err(_) => panic!("{what}: reopen panicked instead of returning a typed error"),
    };
    match result {
        Ok(Ok(len)) => assert_eq!(
            len, want_len,
            "{what}: recovered to the wrong state (want the last flush)"
        ),
        Ok(Err(report)) => panic!("{what}: replay must recover the flushed tree, got: {report}"),
        Err(e) => panic!("{what}: replay must recover the flushed tree, got: {e}"),
    }
}

#[test]
fn crash_mid_update_then_reopen_recovers_the_flushed_state() {
    let points = uniform(300, DIM, 707);
    for crash_after in [3u64, 40, 200, 900] {
        let dir = TempDir::new("sr-fault-crash").unwrap();
        let path = dir.file("crash.pages");
        {
            let (mut tree, handle) = faulty_file_tree(&path);
            // A durable prefix, flushed before the crash is armed.
            for (i, p) in points.iter().take(60).enumerate() {
                tree.insert(p.clone(), i as u64).unwrap();
            }
            tree.flush().unwrap();

            handle.crash_after(crash_after);
            let mut saw_cutoff = false;
            for (i, p) in points.iter().enumerate().skip(60) {
                match tree.insert(p.clone(), i as u64) {
                    Ok(()) => {}
                    Err(IndexError::Pager(PagerError::Injected { kind, .. })) => {
                        assert_eq!(kind, FaultKind::Crash);
                        saw_cutoff = true;
                        break;
                    }
                    Err(other) => {
                        panic!("crash_after={crash_after}: unexpected error kind: {other}")
                    }
                }
            }
            assert!(saw_cutoff, "crash_after={crash_after}: cutoff never fired");
            assert!(handle.crashed());
            // Post-crash the handle is dead for writes: flush errors, it
            // must not panic — and, critically, it must not commit the
            // uncommitted tail it can no longer write.
            let _ = tree.flush();
        } // drop releases the file handles; Drop paths must stay quiet
          // Everything after the flush was uncommitted WAL tail; replay
          // drops it and serves exactly the 60 flushed entries.
        check_reopen_exact(&path, 60, &format!("crash_after={crash_after}"));
    }
}

#[test]
fn flush_write_failure_surfaces_as_err_and_clears() {
    let points = uniform(120, DIM, 711);
    let (mut tree, handle) = faulty_mem_tree();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    // The next write the flush performs (the meta page's WAL append —
    // the tree meta is dirty and gets journaled before the commit
    // marker) is faulted: flush must return the typed injected error,
    // not panic or swallow it.
    handle.fail_nth_write(0);
    match tree.flush() {
        Err(IndexError::Pager(PagerError::Injected { kind, .. })) => {
            assert_eq!(kind, FaultKind::Write)
        }
        Ok(()) => panic!("armed write fault never fired during flush"),
        Err(other) => panic!("unexpected error kind: {other}"),
    }
    handle.clear();
    // A clean retry succeeds — the failed append never advanced the
    // log's length, so the retry overwrites it at the same offset — and
    // the tree is still fully usable.
    tree.flush().unwrap();
    assert_eq!(tree.len(), points.len() as u64);
    tree.knn(points[0].coords(), 3).unwrap();
}

/// Header-decode paths that formerly `unwrap()`ed inside the pager now
/// return `PagerError::Corrupt` for every malformed prefix we can
/// construct: truncation below the meta header, a clobbered magic, and
/// an absurd page-size field.
#[test]
fn corrupt_header_variants_error_typed_not_panic() {
    let points = uniform(50, DIM, 713);
    let dir = TempDir::new("sr-fault-header").unwrap();
    let good = dir.file("good.pages");
    {
        let store = FilePageStore::create(&good, PAGE).unwrap();
        let pf =
            PageFile::create_from_parts(Box::new(store), Box::new(MemLogStore::new())).unwrap();
        let mut tree = SrTree::create_with_options(pf, DIM, DATA_AREA, split_opts()).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(p.clone(), i as u64).unwrap();
        }
        tree.flush().unwrap();
    }
    let pristine = std::fs::read(&good).unwrap();

    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    for keep in [0usize, 1, 7, 15] {
        cases.push((
            format!("truncated to {keep} bytes"),
            pristine[..keep.min(pristine.len())].to_vec(),
        ));
    }
    let mut bad_magic = pristine.clone();
    for b in bad_magic.iter_mut().take(4) {
        *b ^= 0xff;
    }
    cases.push(("magic clobbered".into(), bad_magic));
    let mut huge_page = pristine.clone();
    // The page-size field sits after the magic; saturate it.
    for b in huge_page.iter_mut().skip(8).take(8) {
        *b = 0xff;
    }
    cases.push(("page-size field saturated".into(), huge_page));

    for (what, bytes) in cases {
        let path = dir.file("mangled.pages");
        std::fs::write(&path, &bytes).unwrap();
        let outcome = std::panic::catch_unwind(|| PageFile::open(&path).map(|_| ()));
        match outcome {
            Ok(Err(PagerError::Corrupt(msg))) => {
                assert!(!msg.is_empty(), "{what}: empty corruption message")
            }
            Ok(Err(PagerError::Io(_))) => {} // acceptable for truncation
            Ok(Err(other)) => panic!("{what}: unexpected error kind: {other}"),
            Ok(Ok(())) => panic!("{what}: mangled header opened cleanly"),
            Err(_) => panic!("{what}: open panicked instead of returning a typed error"),
        }
    }
}

#[test]
fn torn_write_then_reopen_recovers_the_flushed_state() {
    let points = uniform(300, DIM, 709);
    // Tear a WAL append at several points, keeping only a byte prefix:
    // simulates a power cut mid-sector. The torn bytes land past the
    // log's committed length (a failed append never advances it), so
    // replay must treat them as tail garbage.
    for (nth, keep) in [(0u64, 13usize), (5, 100), (11, PAGE / 2)] {
        let dir = TempDir::new("sr-fault-torn").unwrap();
        let path = dir.file("torn.pages");
        {
            let (mut tree, handle) = faulty_file_tree(&path);
            for (i, p) in points.iter().take(80).enumerate() {
                tree.insert(p.clone(), i as u64).unwrap();
            }
            tree.flush().unwrap();

            handle.torn_nth_write(nth, keep);
            let mut torn = false;
            for (i, p) in points.iter().enumerate().skip(80) {
                match tree.insert(p.clone(), i as u64) {
                    Ok(()) => {}
                    Err(IndexError::Pager(PagerError::Injected { kind, .. })) => {
                        assert_eq!(kind, FaultKind::TornWrite);
                        torn = true;
                        break;
                    }
                    Err(other) => panic!("torn nth={nth}: unexpected error kind: {other}"),
                }
            }
            assert!(torn, "torn nth={nth}: the armed torn write never fired");
            assert_eq!(handle.stats().torn_writes, 1);
            // A torn write is a power cut: the process does no further
            // I/O. Latch everything off so the handle's Drop-flush
            // cannot commit the partial state.
            handle.crash_after(0);
        }
        check_reopen_exact(&path, 80, &format!("torn nth={nth} keep={keep}"));
    }
}
