//! Integration: the parallel batch-query executor is invisible in the
//! output.
//!
//! The contract `sr-exec` promises (and the tentpole of the concurrent
//! read path): fanning a batch across T workers returns *byte-identical*
//! neighbor lists to a single-threaded loop, for every index structure,
//! while the answers stay equal to the brute-force oracle. A read fault
//! in one worker must surface as a typed error without poisoning the
//! index for subsequent batches.

use srtree::dataset::{sample_queries, uniform};
use srtree::exec::{run_query_batch, ExecError};
use srtree::geometry::Point;
use srtree::pager::{FaultInjector, MemLogStore, MemPageStore, PageFile, PagerError};
use srtree::query::{IndexError, QuerySpec, SpatialIndex};
use srtree::tree::SrTree;

use sr_testkit::{Model, TreeKind};

const DIM: usize = 8;
const K: usize = 10;
const PAGE_SIZE: usize = 8192;
const DATA_AREA: usize = 512;

fn pagefile() -> PageFile {
    PageFile::create_in_memory(PAGE_SIZE).unwrap()
}

/// Build all five structures over the same seeded point set.
fn build_all(points: &[Point]) -> Vec<Box<dyn SpatialIndex>> {
    let with_ids: Vec<(Point, u64)> = points.iter().cloned().zip(0u64..).collect();
    TreeKind::ALL
        .into_iter()
        .map(|kind| {
            kind.build(pagefile(), DIM, DATA_AREA, with_ids.clone())
                .unwrap()
        })
        .collect()
}

fn query_batch(points: &[Point], n: usize) -> Vec<Vec<f32>> {
    sample_queries(points, n, 0xBA7C)
        .into_iter()
        .map(|p| p.coords().to_vec())
        .collect()
}

/// One k-NN spec per query, as `srtool knn --batch` lowers its file.
fn knn_specs(queries: &[Vec<f32>]) -> Vec<QuerySpec<'_>> {
    queries.iter().map(|q| QuerySpec::knn(q, K)).collect()
}

/// T=1 and T=8 produce byte-identical neighbor lists on every structure,
/// and both match the brute-force oracle.
#[test]
fn t1_and_t8_agree_on_all_five_trees() {
    let points = uniform(2_000, DIM, 0x5EED);
    let queries = query_batch(&points, 48);

    let mut oracle = Model::new();
    for (i, p) in points.iter().enumerate() {
        oracle.insert(p.clone(), i as u64);
    }

    for index in build_all(&points) {
        // A small pool forces real churn through the sharded cache.
        index.pager().set_cache_capacity(16).unwrap();
        let seq = run_query_batch(index.as_ref(), &knn_specs(&queries), 1).unwrap();
        let par = run_query_batch(index.as_ref(), &knn_specs(&queries), 8).unwrap();
        assert_eq!(seq.threads, 1);
        assert_eq!(par.threads, 8);
        assert_eq!(
            seq.results,
            par.results,
            "{}: T=8 diverged from T=1",
            index.kind_name()
        );
        for (q, hits) in queries.iter().zip(&seq.results) {
            let expect = oracle.knn(q, K);
            assert_eq!(
                hits,
                &expect,
                "{}: tree disagrees with brute-force oracle",
                index.kind_name()
            );
        }
    }
}

/// The merged batch I/O window obeys the same exactness invariants as a
/// single-threaded query loop: every miss is one physical read.
#[test]
fn batch_io_window_stays_exact_at_t8() {
    let points = uniform(1_500, DIM, 0x10A2);
    let queries = query_batch(&points, 40);
    for index in build_all(&points) {
        index.pager().set_cache_capacity(8).unwrap();
        index.pager().reset_stats();
        let out = run_query_batch(index.as_ref(), &knn_specs(&queries), 8).unwrap();
        assert_eq!(
            out.io.cache_misses(),
            out.io.physical_reads(),
            "{}: sharded pool lost a read under T=8",
            index.kind_name()
        );
        assert!(out.io.physical_reads() > 0, "the batch must touch pages");
    }
}

/// One worker hitting an injected read fault aborts the batch with a
/// typed [`ExecError::Query`] whose source is the pager fault — and the
/// index is *not* poisoned: the same batch succeeds afterwards with
/// results identical to a clean run.
#[test]
fn injected_read_fault_is_typed_and_does_not_poison_the_pool() {
    let points = uniform(1_000, DIM, 0xFA17);
    let (store, log, faults) = FaultInjector::wrap_parts(
        Box::new(MemPageStore::new(PAGE_SIZE)),
        Box::new(MemLogStore::new()),
    );
    let pf = PageFile::create_from_parts(store, log).unwrap();
    let mut tree = SrTree::create_from(pf, DIM, DATA_AREA).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    // Cold cache: every logical read reaches the store, so the armed
    // fault reliably fires mid-batch.
    tree.pager().set_cache_capacity(0).unwrap();
    let queries = query_batch(&points, 32);

    let clean = run_query_batch(&tree, &knn_specs(&queries), 1).unwrap();

    faults.fail_nth_read(40);
    let err =
        run_query_batch(&tree, &knn_specs(&queries), 4).expect_err("armed fault must surface");
    match err {
        ExecError::Query { index, source } => {
            assert!(index < queries.len());
            assert!(
                matches!(source, IndexError::Pager(PagerError::Injected { .. })),
                "fault must arrive as a pager error, got: {source}"
            );
        }
        other => panic!("wrong error shape: {other}"),
    }

    // The store is healthy again and no shard lock, stat counter, or
    // cached page was poisoned: the identical batch now succeeds.
    faults.clear();
    let retry = run_query_batch(&tree, &knn_specs(&queries), 4).unwrap();
    assert_eq!(clean.results, retry.results, "results changed after fault");
}

/// Degenerate batch requests fail with a typed error instead of hanging
/// or being silently reinterpreted — and they leave the index fully
/// usable for a corrected request.
#[test]
fn degenerate_batch_requests_are_typed_errors() {
    let points = uniform(200, DIM, 0xDE6E);
    let pf = PageFile::create_in_memory(PAGE_SIZE).unwrap();
    let mut tree = SrTree::create_from(pf, DIM, DATA_AREA).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let queries = query_batch(&points, 8);

    assert!(matches!(
        run_query_batch(&tree, &knn_specs(&queries), 0).expect_err("zero threads"),
        ExecError::ZeroThreads
    ));
    assert!(matches!(
        run_query_batch(&tree, &[], 4).expect_err("empty batch"),
        ExecError::EmptyBatch
    ));
    let out = run_query_batch(&tree, &knn_specs(&queries), 4).expect("corrected request");
    assert_eq!(out.results.len(), queries.len());
}
