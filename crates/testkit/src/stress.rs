//! Seeded-schedule concurrency stress harness.
//!
//! The type system proves the shared read path free of data races
//! (`SpatialIndex: Send + Sync`, every shared field behind a lock or an
//! atomic); this module checks what it cannot prove. It hammers one
//! shared index from N threads at once and checks that the pager's
//! contracts hold in practice:
//!
//! * every query answer still matches the brute-force oracle (no torn
//!   page view can produce a wrong neighbor list);
//! * the pager's I/O accounting stays exact at the join point —
//!   `cache_misses == physical_reads` and every logical read is exactly
//!   one hit or one miss, summed over all four page kinds;
//! * per-thread [`IoStats`] snapshots only ever move forward (counters
//!   are monotone even when sampled mid-flight from other threads).
//!
//! Interleavings are perturbed *deterministically*: each thread owns a
//! [`SeededRng`] derived from the run seed and its thread index, and
//! draws from it both the query schedule and a yield/spin "chaos" step
//! before every operation. Two runs with the same seed issue the same
//! per-thread operation tapes; the chaos step shifts how those tapes
//! interleave between runs without making the checked answers
//! nondeterministic. There are no dependencies beyond `std` — no loom,
//! no rayon — so the harness runs anywhere the workspace builds.

use sr_dataset::SeededRng;
use sr_geometry::Point;
use sr_pager::{IoStats, PageKind};
use sr_query::SpatialIndex;

use crate::diff::check_answer;
use crate::model::Model;

/// Shape of one stress run. The defaults mirror the tier-1 test:
/// 8 threads of mixed k-NN / range traffic.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Concurrent query threads.
    pub threads: usize,
    /// Operations each thread performs.
    pub ops_per_thread: usize,
    /// Root seed; per-thread streams are derived from it.
    pub seed: u64,
    /// k-NN draws `k` uniformly from `1..=max_k`.
    pub max_k: usize,
    /// Range queries draw a radius uniformly from `(0, max_radius]`.
    pub max_radius: f64,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            threads: 8,
            ops_per_thread: 64,
            seed: 0x5EED,
            max_k: 12,
            max_radius: 0.6,
        }
    }
}

/// Aggregate tallies from one stress run, all threads joined.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// Total operations executed (k-NN + range).
    pub ops: u64,
    /// k-NN operations among [`StressReport::ops`].
    pub knn_ops: u64,
    /// Range operations among [`StressReport::ops`].
    pub range_ops: u64,
    /// Pager counters for the whole run (stats are reset at entry).
    pub io: IoStats,
}

/// Sum of logical reads over all four page kinds.
pub fn total_logical_reads(s: &IoStats) -> u64 {
    [
        PageKind::Meta,
        PageKind::Node,
        PageKind::Leaf,
        PageKind::Free,
    ]
    .iter()
    .map(|&k| s.logical_reads(k))
    .sum()
}

/// Every counter in `now` is at least its value in `prev`.
///
/// This is the torn-snapshot check: the live counters are independent
/// atomics, so a snapshot taken while other threads run may split a
/// miss from its physical read — but no counter may ever appear to run
/// backwards from any single thread's point of view.
fn snapshot_monotone(prev: &IoStats, now: &IoStats) -> bool {
    let kinds = [
        PageKind::Meta,
        PageKind::Node,
        PageKind::Leaf,
        PageKind::Free,
    ];
    kinds
        .iter()
        .all(|&k| now.logical_reads(k) >= prev.logical_reads(k))
        && kinds
            .iter()
            .all(|&k| now.logical_writes(k) >= prev.logical_writes(k))
        && now.physical_reads() >= prev.physical_reads()
        && now.physical_writes() >= prev.physical_writes()
        && now.cache_hits() >= prev.cache_hits()
        && now.cache_misses() >= prev.cache_misses()
        && now.cache_evictions() >= prev.cache_evictions()
}

/// One deterministic schedule perturbation drawn from the thread's rng.
fn chaos_step(rng: &mut SeededRng) {
    match rng.random_range(0..4) {
        0 => std::thread::yield_now(),
        1 => {
            let spins = rng.random_range(1..96);
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
        _ => {}
    }
}

struct ThreadTally {
    ops: u64,
    knn_ops: u64,
    range_ops: u64,
}

fn worker(
    index: &dyn SpatialIndex,
    oracle: &Model,
    queries: &[Point],
    cfg: &StressConfig,
    thread_idx: usize,
) -> Result<ThreadTally, String> {
    // Distinct, well-mixed stream per thread; the golden-ratio multiply
    // keeps nearby thread indices from producing correlated streams.
    let mix = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(thread_idx as u64 + 1);
    let mut rng = SeededRng::seed_from_u64(cfg.seed ^ mix);
    let kind = index.kind_name();
    let mut tally = ThreadTally {
        ops: 0,
        knn_ops: 0,
        range_ops: 0,
    };
    let mut prev = index.io_stats();
    for op in 0..cfg.ops_per_thread {
        chaos_step(&mut rng);
        let q = &queries[rng.random_range(0..queries.len())];
        let fail = |what: &str, detail: String| {
            format!(
                "{kind}: thread {thread_idx} op {op} (seed {:#x}): {what}: {detail}",
                cfg.seed
            )
        };
        if rng.random_bool(0.7) {
            let k = 1 + rng.random_range(0..cfg.max_k);
            let got = index
                .knn(q.coords(), k)
                .map_err(|e| fail("knn failed", e.to_string()))?;
            let want = oracle.knn(q.coords(), k);
            check_answer(kind, &got, &want, true)
                .map_err(|d| fail("knn diverged from oracle", d))?;
            tally.knn_ops += 1;
        } else {
            // Quantized so the radius set stays small and reproducible.
            let radius = cfg.max_radius * (rng.random_range(1..17) as f64 / 16.0);
            let got = index
                .range(q.coords(), radius)
                .map_err(|e| fail("range failed", e.to_string()))?;
            let want = oracle.range(q.coords(), radius);
            // Distance ties at the radius boundary may order ids
            // differently; distances themselves must agree exactly.
            check_answer(kind, &got, &want, false)
                .map_err(|d| fail("range diverged from oracle", d))?;
            tally.range_ops += 1;
        }
        tally.ops += 1;
        let now = index.io_stats();
        if !snapshot_monotone(&prev, &now) {
            return Err(fail(
                "torn stats snapshot",
                format!("a counter ran backwards: {prev:?} -> {now:?}"),
            ));
        }
        prev = now;
    }
    Ok(tally)
}

/// Run one seeded stress round against a shared index.
///
/// Resets the pager's counters, fans `cfg.threads` workers out over the
/// index with `std::thread::scope`, joins them, and checks the
/// quiescent-point accounting identities. Returns the aggregate report
/// or a replay-ready description of the first violation.
pub fn run_stress(
    index: &dyn SpatialIndex,
    oracle: &Model,
    queries: &[Point],
    cfg: &StressConfig,
) -> Result<StressReport, String> {
    assert!(cfg.threads > 0 && cfg.ops_per_thread > 0 && cfg.max_k > 0);
    assert!(!queries.is_empty(), "stress run needs at least one query");
    index.pager().reset_stats();

    let tallies: Vec<Result<ThreadTally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| scope.spawn(move || worker(index, oracle, queries, cfg, t)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("stress worker panicked".to_string()))
            })
            .collect()
    });

    let mut report = StressReport {
        ops: 0,
        knn_ops: 0,
        range_ops: 0,
        io: index.io_stats(),
    };
    for tally in tallies {
        let tally = tally?;
        report.ops += tally.ops;
        report.knn_ops += tally.knn_ops;
        report.range_ops += tally.range_ops;
    }

    // Quiescent-point accounting: with every worker joined, the paired
    // counters must line up exactly — the dynamic witness that the
    // shard lock in the pager's read-through pairs each miss with its
    // physical read.
    let io = &report.io;
    let kind = index.kind_name();
    let logical = total_logical_reads(io);
    if io.cache_misses() != io.physical_reads() {
        return Err(format!(
            "{kind}: seed {:#x}: lost a read under {} threads: misses {} != physical reads {}",
            cfg.seed,
            cfg.threads,
            io.cache_misses(),
            io.physical_reads()
        ));
    }
    if io.cache_hits() + io.cache_misses() != logical {
        return Err(format!(
            "{kind}: seed {:#x}: cache accounting drifted: hits {} + misses {} != logical reads {logical}",
            cfg.seed,
            io.cache_hits(),
            io.cache_misses(),
        ));
    }
    if logical < io.physical_reads() {
        return Err(format!(
            "{kind}: seed {:#x}: pool invented reads: logical {logical} < physical {}",
            cfg.seed,
            io.physical_reads()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_and_schedules_are_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = SeededRng::seed_from_u64(seed);
            (0..32).map(|_| rng.random_range(0..1000)).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn monotone_check_accepts_equal_and_grown_snapshots() {
        let a = IoStats::new();
        assert!(snapshot_monotone(&a, &a));
    }
}
