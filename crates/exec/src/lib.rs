//! Parallel batch-query execution over a shared read path.
//!
//! The paper's experiments (§5) report per-query page reads averaged over
//! a *batch* of queries, and any realistic serving scenario answers many
//! queries against one index at once. This crate provides the execution
//! layer for that: [`run_query_batch`] fans a batch of queries across
//! a pool of worker threads that all read the *same* index through the
//! lock-striped pager cache (`sr-pager` shards its pool by page id, so
//! concurrent readers rarely contend on the same lock).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Results come back in input order, and each query's
//!    neighbor list is identical to what a single-threaded loop would
//!    produce — parallelism is invisible in the output. The
//!    concurrent-correctness tests in `tests/batch_parallel.rs` assert
//!    byte-identical results at `T=1` and `T=8` for all five trees.
//! 2. **No dependencies.** The pool is `std::thread::scope` — no rayon.
//!    Workers take queries by *striding* (worker `w` of `T` takes indices
//!    `w, w+T, w+2T, …`), which needs no work-stealing queue and spreads
//!    any locality gradient in the batch evenly across workers. The last
//!    worker is the calling thread: a batch spawns `T − 1` threads, and a
//!    one-worker batch (the `sr-serve` default) spawns none.
//! 3. **Observability survives the fan-out.** Each worker runs its own
//!    `sr-obs` [`StatsRecorder`]; the per-worker snapshots are merged
//!    ([`MetricsSnapshot::merge`]) into one batch-level snapshot, and the
//!    pager's [`IoStats`] are windowed over the whole batch, so `--trace`
//!    output means the same thing at any thread count.
//! 4. **Each query carries its own result.** A failing query (a wrong
//!    dimension, a pager fault) fills its own slot of
//!    [`BatchResult::results`] with its [`IndexError`]; every other query
//!    is still answered, once. Only a whole-batch failure is an
//!    [`ExecError`]: a panicking worker (only possible through an index
//!    whose `query` panics — this crate denies panics) surfaces as
//!    [`ExecError::WorkerPanic`] without poisoning anything, because the
//!    scope owns no shared mutable state.
//!
//! A batch is a slice of [`QuerySpec`]s, k-NN and range mixed freely:
//! the `sr-serve` request coalescer produces such mixed batches, and the
//! CLI's `knn --batch` lowers its queries to [`QuerySpec::knn`].
//!
//! [`StatsRecorder`]: sr_obs::StatsRecorder

#![forbid(unsafe_code)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sr_obs::{MetricsSnapshot, StatsRecorder};
use sr_pager::IoStats;
use sr_query::{IndexError, Neighbor, QuerySpec, SpatialIndex};

/// Errors that fail a whole batch. One query's failure is not among
/// them: it is that query's entry in [`BatchResult::results`].
#[derive(Debug)]
pub enum ExecError {
    /// A worker panicked (only reachable through an index whose `query`
    /// panics), the calling thread's own stride included. The remaining
    /// workers finish normally and the pool is not poisoned.
    WorkerPanic {
        /// Which worker (0-based) panicked; the lowest one if several did.
        worker: usize,
    },
    /// The caller asked for zero worker threads. Rejected up front rather
    /// than silently promoted to one: a zero almost always means a
    /// configuration bug (an unset CLI flag, a miscomputed pool size).
    ZeroThreads,
    /// The input batch was empty. Rejected so that "no results" can never
    /// be confused with "every query succeeded".
    EmptyBatch,
    /// An internal invariant of the executor failed — always a bug in
    /// this crate, never caused by input.
    Internal(&'static str),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorkerPanic { worker } => {
                write!(f, "batch worker {worker} panicked")
            }
            ExecError::ZeroThreads => write!(f, "batch requested with zero worker threads"),
            ExecError::EmptyBatch => write!(f, "batch contains no queries"),
            ExecError::Internal(msg) => write!(f, "batch executor internal error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Outcome of [`run_query_batch`]: one result per query plus the pager
/// I/O window spanning the whole batch.
#[derive(Debug)]
pub struct BatchResult {
    /// One entry per input spec, in input order: the query's neighbors,
    /// or the error that query alone failed with.
    pub results: Vec<Result<Vec<Neighbor>, IndexError>>,
    /// Per-worker `sr-obs` metrics, merged.
    pub metrics: MetricsSnapshot,
    /// Pager I/O counters attributable to this batch (after − before).
    pub io: IoStats,
    /// Number of worker threads actually used (after clamping).
    pub threads: usize,
}

/// Clamp a positive requested thread count to at most one worker per
/// query. Zero threads and zero queries are rejected by
/// [`run_query_batch`] before this is consulted.
fn effective_threads(requested: usize, n_queries: usize) -> usize {
    requested.max(1).min(n_queries.max(1))
}

/// Answer a batch of [`QuerySpec`]s — k-NN and range, mixed freely —
/// against one index in parallel, each exactly once. This is the
/// fan-out the `sr-serve` coalescer uses when it folds adjacent read
/// requests from one connection into a single batch.
///
/// Results come back in input order and are identical to a sequential
/// loop; the returned [`IoStats`] window covers the whole batch. A zero
/// thread count or an empty batch is rejected up front with a typed
/// error ([`ExecError::ZeroThreads`] / [`ExecError::EmptyBatch`]) —
/// degenerate requests fail loudly instead of being reinterpreted.
pub fn run_query_batch<I: SpatialIndex + ?Sized>(
    index: &I,
    specs: &[QuerySpec<'_>],
    threads: usize,
) -> Result<BatchResult, ExecError> {
    if threads == 0 {
        return Err(ExecError::ZeroThreads);
    }
    if specs.is_empty() {
        return Err(ExecError::EmptyBatch);
    }
    let threads = effective_threads(threads, specs.len());
    let before = index.io_stats();

    // Worker `w` answers specs `w, w+T, …` in that order and returns them
    // with its metrics snapshot; the scope owns no shared mutable state,
    // so a panicking worker cannot poison anything the others touch. The
    // last worker is the calling thread, so a one-worker batch spawns
    // nothing; its panic is caught like a spawned worker's.
    type Stride = (Vec<Result<Vec<Neighbor>, IndexError>>, MetricsSnapshot);
    let stride = move |w: usize| -> Stride {
        let rec = StatsRecorder::new();
        let out = (specs.iter().skip(w).step_by(threads))
            .map(|spec| index.query(spec, &rec).map(|o| o.rows))
            .collect();
        (out, rec.snapshot())
    };
    let last = threads - 1;
    let strides: Vec<std::thread::Result<Stride>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..last).map(|w| scope.spawn(move || stride(w))).collect();
        let own = catch_unwind(AssertUnwindSafe(|| stride(last)));
        (handles.into_iter().map(|h| h.join()))
            .chain(std::iter::once(own))
            .collect()
    });

    let mut metrics = MetricsSnapshot::empty();
    let mut answers = Vec::with_capacity(threads);
    for (worker, stride) in strides.into_iter().enumerate() {
        let (out, snap) = stride.map_err(|_| ExecError::WorkerPanic { worker })?;
        metrics = metrics.merge(&snap);
        answers.push(out.into_iter());
    }
    // Interleave the strides back into input order.
    let mut results = Vec::with_capacity(specs.len());
    for i in 0..specs.len() {
        let next = answers.get_mut(i % threads).and_then(Iterator::next);
        results.push(next.ok_or(ExecError::Internal("a worker answered too few queries"))?);
    }
    Ok(BatchResult {
        results,
        metrics,
        io: index.io_stats().since(&before),
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_obs::Recorder;
    use sr_pager::PageFile;
    use sr_query::brute_force_knn;

    /// Minimal in-memory index for exercising the executor without
    /// pulling a tree crate into the dependency graph. A `panicking`
    /// index panics on every query, one with a `home` thread on every
    /// query made on another thread.
    struct BruteIndex {
        pager: PageFile,
        dim: usize,
        points: Vec<(Vec<f32>, u64)>,
        panicking: bool,
        home: Option<std::thread::ThreadId>,
    }

    impl BruteIndex {
        fn grid(n: usize) -> BruteIndex {
            let mut points = Vec::new();
            for i in 0..n {
                points.push((vec![i as f32, (i * 7 % 13) as f32], i as u64));
            }
            BruteIndex {
                pager: PageFile::create_in_memory(512).expect("in-memory pager"),
                dim: 2,
                points,
                panicking: false,
                home: None,
            }
        }
    }

    impl SpatialIndex for BruteIndex {
        fn kind_name(&self) -> &'static str {
            "brute"
        }
        fn dim(&self) -> usize {
            self.dim
        }
        fn len(&self) -> u64 {
            self.points.len() as u64
        }
        fn height(&self) -> u32 {
            1
        }
        fn num_leaves(&self) -> Result<u64, IndexError> {
            Ok(1)
        }
        fn insert(&mut self, point: &[f32], data: u64) -> Result<(), IndexError> {
            self.points.push((point.to_vec(), data));
            Ok(())
        }
        fn query(
            &self,
            spec: &QuerySpec<'_>,
            rec: &dyn Recorder,
        ) -> Result<sr_query::QueryOutput, IndexError> {
            assert!(!self.panicking, "deliberate test panic");
            let here = std::thread::current().id();
            assert!(self.home.is_none_or(|h| h == here), "query left its thread");
            let flat = self.points.iter().map(|(p, id)| (p.as_slice(), *id));
            let rows = match spec.shape {
                sr_query::QueryShape::Knn { k } => {
                    if spec.point.len() != self.dim {
                        return Err(IndexError::DimensionMismatch {
                            expected: self.dim,
                            got: spec.point.len(),
                        });
                    }
                    rec.incr(sr_obs::Counter::NodeExpansions, 1);
                    brute_force_knn(flat, spec.point, k)
                }
                sr_query::QueryShape::Range { radius } => {
                    if radius.is_nan() || radius < 0.0 {
                        return Err(IndexError::InvalidRadius(radius));
                    }
                    sr_query::brute_force_range(flat, spec.point, radius)
                }
            };
            Ok(sr_query::QueryOutput::from_rows(rows))
        }
        fn pager(&self) -> &PageFile {
            &self.pager
        }
        fn flush(&self) -> Result<(), IndexError> {
            Ok(self.pager.flush()?)
        }
    }

    fn queries(n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| vec![i as f32 * 0.5, 3.0]).collect()
    }

    /// [`run_query_batch`] over k-NN specs for `queries`.
    fn run_knn_batch(
        ix: &BruteIndex,
        queries: &[Vec<f32>],
        k: usize,
        threads: usize,
    ) -> Result<BatchResult, ExecError> {
        let specs: Vec<QuerySpec<'_>> = queries.iter().map(|q| QuerySpec::knn(q, k)).collect();
        run_query_batch(ix, &specs, threads)
    }

    /// Every query's neighbors, in input order; panics on a failed query.
    fn rows(out: BatchResult) -> Vec<Vec<Neighbor>> {
        (out.results.into_iter())
            .map(|r| r.expect("query failed"))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_in_input_order() {
        let ix = BruteIndex::grid(200);
        let qs = queries(37);
        let seq = run_knn_batch(&ix, &qs, 5, 1).expect("sequential");
        assert_eq!(seq.threads, 1);
        let seq = rows(seq);
        for t in [2, 4, 8] {
            let par = run_knn_batch(&ix, &qs, 5, t).expect("parallel");
            assert_eq!(par.threads, t.min(qs.len()));
            assert_eq!(seq, rows(par), "thread count {t} diverged");
        }
    }

    #[test]
    fn metrics_merge_across_workers() {
        let ix = BruteIndex::grid(50);
        let qs = queries(24);
        let out = run_knn_batch(&ix, &qs, 4, 4).expect("batch");
        // every query bumps the counter exactly once, on some worker
        assert_eq!(out.metrics.counter(sr_obs::Counter::NodeExpansions), 24);
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        let ix = BruteIndex::grid(10);
        let err = run_knn_batch(&ix, &[], 3, 8).expect_err("empty batch must be rejected");
        assert!(matches!(err, ExecError::EmptyBatch));
        assert!(err.to_string().contains("no queries"));
    }

    #[test]
    fn zero_threads_is_a_typed_error_not_a_hang() {
        let ix = BruteIndex::grid(10);
        let err = run_knn_batch(&ix, &queries(4), 3, 0).expect_err("0 threads must be rejected");
        assert!(matches!(err, ExecError::ZeroThreads));
        // the degenerate request leaves no state behind: a sane retry works
        let out = run_knn_batch(&ix, &queries(4), 3, 2).expect("retry");
        assert_eq!(out.results.len(), 4);
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(effective_threads(16, 3), 3);
        assert_eq!(effective_threads(2, 10), 2);
        let ix = BruteIndex::grid(10);
        let qs = queries(2);
        let out = run_knn_batch(&ix, &qs, 64, 3).expect("clamped");
        assert_eq!(out.threads, 2);
    }

    #[test]
    fn each_failing_query_fills_only_its_own_slot() {
        let ix = BruteIndex::grid(40);
        let clean = rows(run_knn_batch(&ix, &queries(12), 3, 1).expect("clean"));
        // 3-d queries against the 2-d index at inputs 2, 7 and 11: with
        // 8 workers several fail concurrently, each in its own slot.
        let mut qs = queries(12);
        for i in [2, 7, 11] {
            qs[i] = vec![1.0, 2.0, 3.0];
        }
        let out = run_knn_batch(&ix, &qs, 3, 8).expect("batch");
        assert_eq!(out.metrics.counter(sr_obs::Counter::NodeExpansions), 9);
        for (i, (got, want)) in out.results.iter().zip(&clean).enumerate() {
            match got {
                Err(IndexError::DimensionMismatch {
                    expected: 2,
                    got: 3,
                }) => assert!([2, 7, 11].contains(&i), "query {i} failed"),
                Ok(hits) => assert_eq!(hits, want, "query {i} diverged"),
                Err(other) => panic!("query {i}: wrong error {other}"),
            }
        }
        assert_eq!(out.results.iter().filter(|r| r.is_err()).count(), 3);
    }

    #[test]
    fn worker_panic_is_typed_and_pool_is_reusable() {
        let mut ix = BruteIndex::grid(10);
        ix.panicking = true;
        let err = run_knn_batch(&ix, &queries(16), 3, 4).expect_err("must fail");
        assert!(matches!(err, ExecError::WorkerPanic { worker: 0 }));
        assert!(err.to_string().contains("worker 0"));
        // the executor holds no poisoned state: the next batch works
        ix.panicking = false;
        let out = run_knn_batch(&ix, &queries(16), 3, 4).expect("reuse");
        assert_eq!(rows(out).len(), 16);
    }

    #[test]
    fn one_worker_panic_on_the_calling_thread_is_typed() {
        let mut ix = BruteIndex::grid(10);
        ix.panicking = true;
        let err = run_knn_batch(&ix, &queries(5), 3, 1).expect_err("must fail");
        assert!(matches!(err, ExecError::WorkerPanic { worker: 0 }));
        // The caught panic leaves the calling thread able to run the next
        // batch, on itself again.
        ix.panicking = false;
        let out = run_knn_batch(&ix, &queries(5), 3, 1).expect("reuse");
        assert_eq!(out.threads, 1);
        assert_eq!(rows(out).len(), 5);
    }

    #[test]
    fn a_one_worker_batch_runs_on_the_calling_thread() {
        let mut ix = BruteIndex::grid(20);
        ix.home = Some(std::thread::current().id());
        let out = run_knn_batch(&ix, &queries(6), 3, 1).expect("one worker");
        assert_eq!(rows(out).len(), 6);
        // With two workers, worker 0 runs on a spawned thread.
        let err = run_knn_batch(&ix, &queries(6), 3, 2).expect_err("worker 0 is spawned");
        assert!(matches!(err, ExecError::WorkerPanic { worker: 0 }));
    }
}
