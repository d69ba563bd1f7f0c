//! Integration: windowed I/O accounting (`IoStats::since`) stays
//! coherent while the buffer pool churns.
//!
//! The paper's cost metric is disk reads per query, measured cold-cache
//! (§5). These tests pin the invariants that make that measurement
//! trustworthy at any pool size:
//!
//! * logical reads ≥ physical reads (the pool can only absorb traffic);
//! * capacity 0 ⇒ logical reads == physical reads (true cold cache);
//! * every logical read is exactly one cache hit or one cache miss, and
//!   every miss is exactly one physical read;
//! * per-query windows via `since` see the same invariants as the
//!   global counters.

use srtree::dataset::{sample_queries, uniform};
use srtree::pager::{IoStats, PageKind};
use srtree::query::SpatialIndex;
use srtree::tree::SrTree;

fn build_tree(n: usize, dim: usize) -> SrTree {
    let points = uniform(n, dim, 23);
    let mut tree = SrTree::create_in_memory(dim, 4096).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree
}

fn total_logical_reads(s: &IoStats) -> u64 {
    s.logical_reads(PageKind::Meta)
        + s.logical_reads(PageKind::Node)
        + s.logical_reads(PageKind::Leaf)
        + s.logical_reads(PageKind::Free)
}

/// Run a query workload and check the windowed counters per query.
fn check_invariants_at_capacity(tree: &SrTree, capacity: usize) {
    tree.pager().set_cache_capacity(capacity).unwrap();
    assert_eq!(tree.pager().cache_capacity(), capacity);
    tree.pager().reset_stats();

    let queries = sample_queries(&uniform(500, tree.dim(), 23), 20, 29);
    let mut before = tree.pager().stats();
    for q in &queries {
        let found = tree.knn(q.coords(), 5).unwrap();
        assert_eq!(found.len(), 5);

        let now = tree.pager().stats();
        let window = now.since(&before);
        before = now;

        let logical = total_logical_reads(&window);
        assert!(logical > 0, "a knn query must read pages");
        assert!(
            logical >= window.physical_reads(),
            "pool can only absorb reads: logical {logical} < physical {}",
            window.physical_reads()
        );
        assert_eq!(
            window.cache_hits() + window.cache_misses(),
            logical,
            "every logical read is one hit or one miss"
        );
        assert_eq!(
            window.cache_misses(),
            window.physical_reads(),
            "every miss is one physical read"
        );
        if capacity == 0 {
            assert_eq!(
                logical,
                window.physical_reads(),
                "capacity 0 must be true cold cache"
            );
            assert_eq!(window.cache_hits(), 0);
        }
    }

    let total = tree.pager().stats();
    assert_eq!(
        total.cache_hits() + total.cache_misses(),
        total_logical_reads(&total),
        "global counters obey the same identity as the windows"
    );
}

#[test]
fn windowed_accounting_cold_cache() {
    let tree = build_tree(500, 8);
    check_invariants_at_capacity(&tree, 0);
}

#[test]
fn windowed_accounting_small_pool_churns() {
    let tree = build_tree(500, 8);
    // A 2-page pool is smaller than any root-to-leaf working set, so
    // the workload must churn it.
    check_invariants_at_capacity(&tree, 2);
    let s = tree.pager().stats();
    assert!(
        s.cache_evictions() > 0,
        "a 2-page pool under a query workload must evict"
    );
    assert!(s.cache_misses() > 0);
}

/// Drive the same query workload from many threads at once and check
/// that the sharded pool's counters stay *exact*: every miss is exactly
/// one physical read (the shard lock is held across the read-through, so
/// two racing readers of one page can never both fetch it), and every
/// logical read is exactly one hit or one miss.
fn check_concurrent_invariants_at_capacity(tree: &SrTree, capacity: usize, threads: usize) {
    tree.pager().set_cache_capacity(capacity).unwrap();
    tree.pager().reset_stats();

    let queries = sample_queries(&uniform(500, tree.dim(), 23), 64, 31);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let queries = &queries;
            scope.spawn(move || {
                for q in queries.iter().skip(w).step_by(threads) {
                    let found = tree.knn(q.coords(), 5).unwrap();
                    assert_eq!(found.len(), 5);
                }
            });
        }
    });

    let s = tree.pager().stats();
    let logical = total_logical_reads(&s);
    assert!(logical > 0, "the workload must read pages");
    assert_eq!(
        s.cache_hits() + s.cache_misses(),
        logical,
        "every logical read is one hit or one miss, even under {threads} threads"
    );
    assert_eq!(
        s.cache_misses(),
        s.physical_reads(),
        "misses must equal physical reads exactly under {threads} threads"
    );
    if capacity == 0 {
        assert_eq!(s.cache_hits(), 0, "capacity 0 must stay a true cold cache");
        assert_eq!(logical, s.physical_reads());
    }
}

#[test]
fn concurrent_accounting_stays_exact_under_churn() {
    let tree = build_tree(500, 8);
    // A 2-page pool guarantees every worker churns shared shards.
    check_concurrent_invariants_at_capacity(&tree, 2, 8);
    let s = tree.pager().stats();
    assert!(s.cache_evictions() > 0, "a tiny pool must evict");
}

#[test]
fn concurrent_accounting_cold_cache() {
    let tree = build_tree(500, 8);
    check_concurrent_invariants_at_capacity(&tree, 0, 8);
}

#[test]
fn concurrent_accounting_warm_pool() {
    let tree = build_tree(500, 8);
    check_concurrent_invariants_at_capacity(&tree, 4096, 8);
    let s = tree.pager().stats();
    assert!(s.cache_hits() > 0, "a pool larger than the file must hit");
}

/// The accounting invariants hold on a pager that *replayed* its WAL at
/// open. A crashed checkpoint (commit marker durable, store sync
/// failed) leaves committed frames in the log; the reopen reapplies
/// them — replay I/O is recovery work, not query work, so the counters
/// start at zero and `misses == physical_reads` must hold from the
/// first recovered query on.
#[test]
fn windowed_accounting_survives_a_wal_replay() {
    use sr_testkit::{faulted_parts, reopen};
    use srtree::pager::PageFile;

    let (store, log, handle, shared) = faulted_parts(4096);
    let pf = PageFile::create_from_parts(store, log).unwrap();
    let mut tree = SrTree::create_from(pf, 8, 64).unwrap();
    let points = uniform(500, 8, 23);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    // Fail the checkpoint's *store* sync (the second sync of this flush,
    // after the log's commit barrier): the commit is durable, the
    // checkpoint is not, and the log never truncates.
    handle.crash_at_sync(1);
    assert!(tree.flush().is_err(), "the crashed checkpoint must surface");
    drop(tree);

    let pf = reopen(&shared).expect("reopen must replay the committed log");
    let ws = pf.wal_stats();
    assert_eq!(ws.replays, 1, "this open must have replayed: {ws:?}");
    assert!(
        ws.replayed_frames > 0,
        "the commit must carry frames: {ws:?}"
    );
    assert_eq!(
        (ws.dropped_frames, ws.torn_tails),
        (0, 0),
        "a clean post-commit tail has nothing to drop: {ws:?}"
    );
    let s = pf.stats();
    assert_eq!(
        (s.physical_reads(), s.physical_writes()),
        (0, 0),
        "replay I/O is recovery work and must not pollute query accounting"
    );

    let tree = SrTree::open_from(pf).unwrap();
    assert_eq!(tree.len(), 500, "every committed insert must survive");
    check_invariants_at_capacity(&tree, 2);
    check_invariants_at_capacity(&tree, 0);
}

#[test]
fn windowed_accounting_large_pool_absorbs_reads() {
    let tree = build_tree(500, 8);
    check_invariants_at_capacity(&tree, 4096);
    let s = tree.pager().stats();
    assert!(
        s.cache_hits() > 0,
        "a pool larger than the tree must serve hits"
    );
    // After the first warming pass, repeated queries should be all-hit:
    // rerun one query and check its window is purely logical.
    let q = sample_queries(&uniform(500, tree.dim(), 23), 1, 29);
    let before = tree.pager().stats();
    let _ = tree.knn(q[0].coords(), 5).unwrap();
    let window = tree.pager().stats().since(&before);
    assert_eq!(
        window.physical_reads(),
        0,
        "warm pool larger than the file must not touch the store"
    );
    assert_eq!(window.cache_misses(), 0);
    assert!(window.cache_hits() > 0);
}

/// The buffer pool's eviction rule, pinned on the benchmark's cold-pool
/// shape: a bulk-loaded 16-d `real_sim` SR-tree on 8 KiB pages, a pool of
/// 1/20 of its pages and a fixed run of best-first 21-NN queries. The
/// pool evicts leaves before inner-node pages, so the inner pages every
/// query reads stay resident while the leaves churn.
#[test]
fn a_small_pool_keeps_the_inner_pages_the_queries_share() {
    use srtree::dataset::real_sim;
    use srtree::pager::PageFile;

    const MISSES: u64 = 14_045;
    // The same run under the single-list LRU pool this rule replaced,
    // which let the leaves push the inner pages out.
    const LRU_MISSES: u64 = 17_753;

    let points = real_sim(20_000, 16, 41);
    let pf = PageFile::create_in_memory(8192).unwrap();
    let mut tree = SrTree::create_from(pf, 16, 512).unwrap();
    let with_ids = points.iter().cloned().zip(0u64..).collect();
    tree.bulk_load(with_ids).unwrap();
    tree.flush().unwrap();
    let pages = usize::try_from(tree.pager().num_pages()).unwrap();
    tree.pager().set_cache_capacity(0).unwrap();
    tree.pager().set_cache_capacity(pages / 20).unwrap();
    tree.pager().reset_stats();

    for q in &sample_queries(&points, 200, 43) {
        assert_eq!(tree.knn(q.coords(), 21).unwrap().len(), 21);
    }
    let s = tree.pager().stats();
    assert_eq!(
        s.cache_hits() + s.cache_misses(),
        total_logical_reads(&s),
        "every logical read is one hit or one miss"
    );
    assert_eq!(
        s.cache_misses(),
        s.physical_reads(),
        "every miss is one physical read"
    );
    assert_eq!(s.cache_misses(), MISSES, "misses of the pinned run");
    assert!(
        s.cache_misses() < LRU_MISSES,
        "evicting leaves first must miss less than LRU"
    );
}
