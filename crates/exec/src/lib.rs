//! Parallel batch-query execution over a shared read path.
//!
//! The paper's experiments (§5) report per-query page reads averaged over
//! a *batch* of queries, and any realistic serving scenario answers many
//! queries against one index at once. This crate provides the execution
//! layer for that: [`run_query_batch`] fans a batch of queries across
//! a pool of worker threads that all read the *same* index through the
//! lock-striped pager cache (`sr-pager` shards its LRU by page id, so
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
//!    any locality gradient in the batch evenly across workers.
//! 3. **Observability survives the fan-out.** Each worker runs its own
//!    `sr-obs` [`StatsRecorder`]; the per-worker snapshots are merged
//!    ([`MetricsSnapshot::merge`]) into one batch-level snapshot, and the
//!    pager's [`IoStats`] are windowed over the whole batch, so `--trace`
//!    output means the same thing at any thread count.
//! 4. **Failure is typed and partial work is discarded.** The first
//!    failing query (by *input index*, not completion order) surfaces as
//!    [`ExecError::Query`]; a panicking worker (only possible through a
//!    caller-supplied closure — this crate denies panics) surfaces as
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

use sr_obs::{MetricsSnapshot, Recorder, StatsRecorder};
use sr_pager::IoStats;
use sr_query::{IndexError, Neighbor, QuerySpec, SpatialIndex};

/// Errors from a batch execution.
#[derive(Debug)]
pub enum ExecError {
    /// A query failed. `index` is the query's position in the input batch;
    /// when several queries fail, the smallest input index is reported
    /// regardless of which worker finished first.
    Query {
        /// Position of the failing query in the input batch.
        index: usize,
        /// The underlying index error.
        source: IndexError,
    },
    /// A worker thread panicked (only reachable through a caller-supplied
    /// job closure). The remaining workers finish normally and the pool
    /// is not poisoned.
    WorkerPanic {
        /// Which worker (0-based) panicked.
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
            ExecError::Query { index, source } => {
                write!(f, "batch query #{index} failed: {source}")
            }
            ExecError::WorkerPanic { worker } => {
                write!(f, "batch worker {worker} panicked")
            }
            ExecError::ZeroThreads => write!(f, "batch requested with zero worker threads"),
            ExecError::EmptyBatch => write!(f, "batch contains no queries"),
            ExecError::Internal(msg) => write!(f, "batch executor internal error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Query { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Outcome of a generic [`run_batch`] call.
#[derive(Debug)]
struct BatchOutput<T> {
    /// One result per input query, in input order.
    results: Vec<T>,
    /// Per-worker `sr-obs` metrics, merged.
    metrics: MetricsSnapshot,
    /// Number of worker threads actually used (after clamping).
    threads: usize,
}

/// Outcome of [`run_query_batch`]: results plus the pager I/O window
/// spanning the whole batch.
#[derive(Debug)]
pub struct BatchResult {
    /// One neighbor list per input query, in input order.
    pub results: Vec<Vec<Neighbor>>,
    /// Per-worker `sr-obs` metrics, merged.
    pub metrics: MetricsSnapshot,
    /// Pager I/O counters attributable to this batch (after − before).
    pub io: IoStats,
    /// Number of worker threads actually used (after clamping).
    pub threads: usize,
}

/// Clamp a positive requested thread count to at most one worker per
/// query. Zero threads and zero queries are rejected by [`run_batch`]
/// before this is consulted.
fn effective_threads(requested: usize, n_queries: usize) -> usize {
    requested.max(1).min(n_queries.max(1))
}

/// Run `job` once per query across `threads` workers, returning results
/// in input order together with merged per-worker metrics.
///
/// `job` receives the query's input index, the query itself, and a
/// per-worker recorder; it must be `Sync` because every worker calls it.
/// The first failing query by input index aborts the batch with
/// [`ExecError::Query`] (other queries' work is discarded). A zero
/// thread count or an empty batch is rejected up front with a typed
/// error ([`ExecError::ZeroThreads`] / [`ExecError::EmptyBatch`]) —
/// degenerate requests fail loudly instead of being reinterpreted.
fn run_batch<Q, T, F>(queries: &[Q], threads: usize, job: F) -> Result<BatchOutput<T>, ExecError>
where
    Q: Sync,
    T: Send,
    F: Fn(usize, &Q, &dyn Recorder) -> Result<T, IndexError> + Sync,
{
    if threads == 0 {
        return Err(ExecError::ZeroThreads);
    }
    if queries.is_empty() {
        return Err(ExecError::EmptyBatch);
    }
    let threads = effective_threads(threads, queries.len());

    // Each worker returns its own (input index, result) pairs plus its
    // metrics snapshot; the scope owns no shared mutable state, so a
    // panicking worker cannot poison anything the others touch.
    type WorkerOut<T> = (Vec<(usize, Result<T, IndexError>)>, MetricsSnapshot);
    let worker_outs: Vec<Result<WorkerOut<T>, usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let job = &job;
                scope.spawn(move || {
                    let rec = StatsRecorder::new();
                    let out: Vec<(usize, Result<T, IndexError>)> = queries
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(threads)
                        .map(|(i, q)| (i, job(i, q, &rec)))
                        .collect();
                    (out, rec.snapshot())
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(w, h)| h.join().map_err(|_| w))
            .collect()
    });

    let mut metrics = MetricsSnapshot::empty();
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(queries.len(), || None);
    // Scan worker outputs for the smallest failing input index before
    // committing any results, so the reported error is deterministic.
    let mut first_err: Option<(usize, IndexError)> = None;
    for out in worker_outs {
        let (pairs, snap) = out.map_err(|worker| ExecError::WorkerPanic { worker })?;
        metrics = metrics.merge(&snap);
        for (i, res) in pairs {
            match res {
                Ok(v) => {
                    if let Some(slot) = slots.get_mut(i) {
                        *slot = Some(v);
                    } else {
                        return Err(ExecError::Internal("worker produced out-of-range index"));
                    }
                }
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
    }
    if let Some((index, source)) = first_err {
        return Err(ExecError::Query { index, source });
    }

    let mut results = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            Some(v) => results.push(v),
            None => return Err(ExecError::Internal("query slot left unfilled")),
        }
    }
    Ok(BatchOutput {
        results,
        metrics,
        threads,
    })
}

/// Answer a batch of [`QuerySpec`]s — k-NN and range, mixed freely —
/// against one index in parallel. This is the fan-out the `sr-serve`
/// coalescer uses when it folds adjacent read requests from one
/// connection into a single batch.
///
/// Results come back in input order and are identical to a sequential
/// loop; the returned [`IoStats`] window covers the whole batch.
pub fn run_query_batch<I: SpatialIndex + ?Sized>(
    index: &I,
    specs: &[QuerySpec<'_>],
    threads: usize,
) -> Result<BatchResult, ExecError> {
    let before = index.io_stats();
    let out = run_batch(specs, threads, |_, spec, rec| {
        index.query(spec, rec).map(|o| o.rows)
    })?;
    Ok(BatchResult {
        results: out.results,
        metrics: out.metrics,
        io: index.io_stats().since(&before),
        threads: out.threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_pager::PageFile;
    use sr_query::brute_force_knn;

    /// Minimal in-memory index for exercising the executor without
    /// pulling a tree crate into the dependency graph.
    struct BruteIndex {
        pager: PageFile,
        dim: usize,
        points: Vec<(Vec<f32>, u64)>,
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

    #[test]
    fn parallel_matches_sequential_in_input_order() {
        let ix = BruteIndex::grid(200);
        let qs = queries(37);
        let seq = run_knn_batch(&ix, &qs, 5, 1).expect("sequential");
        assert_eq!(seq.threads, 1);
        for t in [2, 4, 8] {
            let par = run_knn_batch(&ix, &qs, 5, t).expect("parallel");
            assert_eq!(par.threads, t.min(qs.len()));
            assert_eq!(seq.results, par.results, "thread count {t} diverged");
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
    fn first_failing_query_by_input_index_wins() {
        let qs: Vec<u32> = (0..40).collect();
        // every query >= 7 fails; with 8 workers many fail concurrently,
        // but index 7 must be the one reported
        let err = run_batch(&qs, 8, |i, _, _rec| {
            if i >= 7 {
                Err(IndexError::Unsupported("boom"))
            } else {
                Ok(i)
            }
        })
        .expect_err("must fail");
        match err {
            ExecError::Query { index, source } => {
                assert_eq!(index, 7);
                assert!(matches!(source, IndexError::Unsupported(_)));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn dimension_mismatch_surfaces_as_query_error() {
        let ix = BruteIndex::grid(10);
        let mut qs = queries(5);
        qs.insert(2, vec![1.0, 2.0, 3.0]); // 3-d query against a 2-d index
        let err = run_knn_batch(&ix, &qs, 3, 4).expect_err("must fail");
        match err {
            ExecError::Query { index, source } => {
                assert_eq!(index, 2);
                assert!(matches!(source, IndexError::DimensionMismatch { .. }));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn worker_panic_is_typed_and_pool_is_reusable() {
        let qs: Vec<u32> = (0..16).collect();
        let err = run_batch(&qs, 4, |i, q, _rec| -> Result<u32, IndexError> {
            assert!(i != 5, "deliberate test panic");
            Ok(*q)
        })
        .expect_err("must fail");
        assert!(matches!(err, ExecError::WorkerPanic { .. }));
        // the executor holds no poisoned state: the next batch works
        let ok = run_batch(&qs, 4, |_, q, _rec| Ok::<u32, IndexError>(*q * 2)).expect("reuse");
        assert_eq!(ok.results, (0..16).map(|i| i * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn exec_error_display_and_source() {
        let e = ExecError::Query {
            index: 3,
            source: IndexError::InvalidRadius(-1.0),
        };
        assert!(e.to_string().contains('3'));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ExecError::WorkerPanic { worker: 2 }
            .to_string()
            .contains('2'));
        assert!(std::error::Error::source(&ExecError::WorkerPanic { worker: 2 }).is_none());
    }
}
