//! Fault injection from the public API: wrap a `PageStore`/`LogStore`
//! pair in the pager's `FaultInjector`, arm faults while a tree is
//! live, and watch them surface as typed errors — the same machinery
//! the tier-1 `tests/fault_injection.rs`, `tests/crash_recovery.rs`,
//! and `tests/differential_fuzz.rs` suites are built on.
//!
//! ```bash
//! cargo run --example fault_injection
//! ```

use sr_testkit::{generate, seed_line, DataDist, FaultInjector, WorkloadSpec};
use srtree::dataset::uniform;
use srtree::pager::{MemLogStore, MemPageStore, PageFile};
use srtree::query::SpatialIndex;
use srtree::tree::SrTree;

fn main() {
    // A fault-wrapped in-memory store + WAL pair; both halves share one
    // fault state, and the handle stays with us after the PageFile
    // takes ownership. The unwrapped clones share the same bytes — they
    // are how we "restart the process" later.
    let store = MemPageStore::new(2048);
    let log = MemLogStore::new();
    let (surviving_store, surviving_log) = (store.clone(), log.clone());
    let (store, log, faults) = FaultInjector::wrap_parts(Box::new(store), Box::new(log));
    let pf = PageFile::create_from_parts(store, log).expect("create page file");
    // Cache off: every logical access is a physical store or log op, so
    // armed faults fire inside the operation that caused them.
    pf.set_cache_capacity(0).expect("disable cache");
    let mut tree = SrTree::create_from(pf, 4, 64).expect("create tree");

    let points = uniform(500, 4, 42);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).expect("clean insert");
    }
    println!("built: {} entries, height {}", tree.len(), tree.height());

    // Fail the next read: the k-NN surfaces a typed error, no panic.
    faults.fail_nth_read(0);
    match tree.knn(points[0].coords(), 5) {
        Err(e) => println!("armed read fault  -> {e}"),
        Ok(_) => unreachable!("armed fault must fire"),
    }

    // Tear the 3rd write from now: only a 100-byte prefix of that WAL
    // append persists.
    faults.torn_nth_write(2, 100);
    let mut torn_err = None;
    for (i, p) in points.iter().enumerate() {
        if let Err(e) = tree.insert(p.clone(), (1000 + i) as u64) {
            torn_err = Some(e);
            break;
        }
    }
    println!(
        "armed torn write  -> {}",
        torn_err.expect("torn write fires")
    );

    // Clear faults; the store works again and the stats tell the story.
    faults.clear();
    let s = faults.stats();
    println!(
        "stats: {} reads, {} writes, {} syncs, {} injected ({} torn)",
        s.reads, s.writes, s.syncs, s.injected, s.torn_writes
    );
    let hits = tree.knn(points[0].coords(), 5).expect("store recovered");
    println!("recovered: 5-NN of point 0 -> ids {:?}", {
        hits.iter().map(|n| n.data).collect::<Vec<_>>()
    });

    // Crash recovery, end to end: log a batch, then kill the machine
    // *inside* the commit — after the log fsync seals it (the
    // durability barrier) but before the checkpoint reaches the store.
    // "Restarting the process" on the surviving bytes must replay the
    // sealed frames and recover every one of those inserts.
    tree.flush().expect("commit the clean state");
    for (i, p) in points.iter().take(50).enumerate() {
        tree.insert(p.clone(), (5_000 + i) as u64).expect("insert");
    }
    let committed = tree.len();
    faults.crash_at_sync(1); // sync 0 = log barrier, sync 1 = checkpoint
    let crash = tree.flush().expect_err("the crashed checkpoint surfaces");
    println!("armed crash       -> {crash}");
    drop(tree); // the dead process: its Drop-flush fails fast, writes nothing

    let pf = PageFile::open_from_parts(Box::new(surviving_store), Box::new(surviving_log))
        .expect("reopen replays the log");
    let ws = pf.wal_stats();
    let tree = SrTree::open_from(pf).expect("recovered tree opens");
    println!(
        "reopened: {} entries (committed {committed}), wal replays {} / torn tails {}",
        tree.len(),
        ws.replays,
        ws.torn_tails
    );
    assert_eq!(tree.len(), committed, "recovery is exact");

    // The differential fuzzer's replay currency: a fully materialized
    // op tape, reproducible from the one seed on this line.
    let tape = generate(
        &WorkloadSpec::standard(2_000, 8, DataDist::Clustered),
        0xD1FF,
    );
    println!("{}", seed_line(&tape));
}
