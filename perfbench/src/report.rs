//! Turning a run's records and counters into the named metrics, and the
//! one-line JSON result.

use std::fmt::Write as _;

use sr_bench::TreeKind;

use crate::ops::Op;
use crate::oracle::{Phase, Verdict};
use crate::plan::PAGE_SIZE;
use crate::probes::WireProbe;
use crate::runner::PhaseLog;
use crate::stats::{median, quantile, ratio};
use crate::sut::SetupTiming;

/// The short name of a tree kind in metric names.
pub fn tag(kind: TreeKind) -> &'static str {
    match kind {
        TreeKind::Sr => "sr",
        TreeKind::Ss => "ss",
        TreeKind::Rstar => "rstar",
        TreeKind::Kdb => "kdb",
        TreeKind::Vam => "vam",
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn m(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Quantile `q` of latency samples given in ns, in µs.
fn quantile_us(ns: &[u64], q: f64) -> f64 {
    quantile(&ns.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>(), q)
}

/// Median of the set-up repetitions, step by step.
pub fn setup_medians(setups: &[SetupTiming]) -> SetupTiming {
    let pick = |f: fn(&SetupTiming) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    SetupTiming {
        generate_s: pick(|s| s.generate_s),
        build_s: pick(|s| s.build_s),
        open_s: pick(|s| s.open_s),
    }
}

/// The end-to-end metrics of an untraced run. Rates are the median
/// over the run's blocks; latency quantiles pool every sample of the run.
/// The tails are p90s: on the shared host a stall of tens of ms lands on
/// more than 1% of a run's requests often enough that p99s moved by up to
/// 0.84 of their median between two sets of runs of the same program,
/// while p90s need a tenth of the requests delayed. The p99s are
/// reported by the traced run as `bench.*_p99_us`.
pub fn end_to_end(setups: &[SetupTiming], log: &PhaseLog, verdict: &Verdict) -> Vec<Metric> {
    let knn_closed = log
        .records
        .iter()
        .filter(|r| r.phase == Phase::Closed && matches!(r.op, Op::Knn { .. }))
        .count();
    vec![
        m(
            "setup_s",
            "s",
            median(&setups.iter().map(SetupTiming::total).collect::<Vec<_>>()),
        ),
        m("query_per_s", "1/s", median(&log.closed_rates)),
        m("query_p50_us", "us", quantile_us(&log.closed_ns, 0.5)),
        m("query_p90_us", "us", quantile_us(&log.closed_ns, 0.9)),
        m("write_per_s", "1/s", median(&log.write_rates)),
        m("write_p50_us", "us", quantile_us(&log.write_ns, 0.5)),
        m("write_p90_us", "us", quantile_us(&log.write_ns, 0.9)),
        m("paced_p50_us", "us", quantile_us(&log.paced_ns, 0.5)),
        m("paced_p90_us", "us", quantile_us(&log.paced_ns, 0.9)),
        m(
            "reads_per_query",
            "pages",
            ratio(log.closed.knn_reads as f64, knn_closed as f64),
        ),
        m(
            "bytes_per_point",
            "B",
            ratio(log.final_bytes as f64, log.final_points as f64),
        ),
        m("ok_share", "ratio", verdict.ok_share()),
    ]
}

/// Layer numbers that come from probes or from where the workload's
/// index lives, gathered by the caller.
pub struct Layers {
    /// Mean tree height.
    pub height: f64,
    /// Mean leaf pages per tree.
    pub leaf_pages: f64,
    /// Mean µs inside `SpatialIndex::query`.
    pub query_us: f64,
    /// Mean µs inside `SpatialIndex::insert` (write probe).
    pub insert_us: f64,
    /// Mean µs inside `SpatialIndex::delete`.
    pub delete_us: f64,
    /// Per kind: mean query µs and insert µs (the VAMSplit tree, built
    /// in bulk, has no insert cost).
    pub kinds: Vec<(TreeKind, f64, Option<f64>)>,
    /// Leaf kernel ns per point.
    pub kernel_ns: f64,
    /// Region bounds ns per branch.
    pub bound_ns: f64,
    /// `PageFile::read` ns on a pool hit.
    pub hit_ns: f64,
    /// `PageFile::read` ns on a miss.
    pub miss_ns: f64,
    /// `run_query_batch` overhead per burst, µs.
    pub exec_us: f64,
    /// Wire sizes and costs.
    pub wire: WireProbe,
    /// Server query µs, client overhead µs, error responses.
    pub serve: (f64, f64, u64),
}

/// The per-layer metrics of a traced run.
pub fn per_layer(setups: &[SetupTiming], log: &PhaseLog, layers: &Layers) -> Vec<Metric> {
    let s = setup_medians(setups);
    let knn_closed = log
        .records
        .iter()
        .filter(|r| r.phase == Phase::Closed && matches!(r.op, Op::Knn { .. }))
        .count() as f64;
    // Write blocks, whose counters are `log.writes`; and every write of
    // the run (served, closed-loop blocks write too), whose pages are
    // all in the final file.
    let writes = log
        .records
        .iter()
        .filter(|r| r.phase == Phase::Writes)
        .count() as f64;
    let all_writes = log
        .records
        .iter()
        .filter(|r| !matches!(r.op, Op::Knn { .. }))
        .count() as f64;
    let closed = &log.closed;
    let mut q = log.closed;
    q.add(&log.paced);
    let queries = q.query_ns_count as f64;
    let w = &log.writes;
    let pages_added =
        log.final_bytes.saturating_sub(log.bytes_before_writes) as f64 / PAGE_SIZE as f64;
    let late: Vec<f64> = log
        .paced_late_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let late_share = ratio(
        late.iter().filter(|&&us| us > 100.0).count() as f64,
        late.len() as f64,
    );
    let rate = |(ops, ns): (u64, u64)| ratio(ops as f64, ns as f64);
    let trace_overhead = 1.0 - ratio(rate(log.traced), rate(log.untraced));

    let mut out = vec![
        m("setup.generate_s", "s", s.generate_s),
        m("setup.build_s", "s", s.build_s),
        m("setup.open_s", "s", s.open_s),
        m("tree.query_us", "us", layers.query_us),
        m("tree.insert_us", "us", layers.insert_us),
        m("tree.delete_us", "us", layers.delete_us),
        m("tree.height", "levels", layers.height),
        m("tree.leaf_pages", "pages", layers.leaf_pages),
        m(
            "tree.pages_per_write",
            "pages",
            ratio(pages_added, all_writes),
        ),
    ];
    for (kind, query_us, _) in &layers.kinds {
        out.push(m(format!("tree.{}.query_us", tag(*kind)), "us", *query_us));
    }
    for (kind, _, insert_us) in &layers.kinds {
        if let Some(us) = insert_us {
            out.push(m(format!("tree.{}.insert_us", tag(*kind)), "us", *us));
        }
    }
    out.extend([
        m(
            "query.node_expansions",
            "count",
            ratio(q.node_expansions as f64, queries),
        ),
        m(
            "query.leaf_expansions",
            "count",
            ratio(q.leaf_expansions as f64, queries),
        ),
        m("query.branches", "count", ratio(q.branches as f64, queries)),
        m(
            "query.prune_share",
            "ratio",
            ratio(q.prunes as f64, q.branches as f64),
        ),
        m(
            "query.prune_sphere_share",
            "ratio",
            ratio(q.prune_sphere as f64, q.prunes as f64),
        ),
        m(
            "query.prune_rect_share",
            "ratio",
            ratio(q.prune_rect as f64, q.prunes as f64),
        ),
        m(
            "geometry.points_scored",
            "count",
            ratio(q.points_scored as f64, queries),
        ),
        m(
            "geometry.abandon_share",
            "ratio",
            ratio(q.early_abandons as f64, q.points_scored as f64),
        ),
        m("geometry.kernel_ns_per_point", "ns", layers.kernel_ns),
        m("geometry.bound_ns_per_branch", "ns", layers.bound_ns),
        m(
            "pager.hit_rate",
            "ratio",
            ratio(
                closed.cache_hits as f64,
                (closed.cache_hits + closed.cache_misses) as f64,
            ),
        ),
        m(
            "pager.misses_per_query",
            "count",
            ratio(closed.cache_misses as f64, knn_closed),
        ),
        m(
            "pager.evictions_per_query",
            "count",
            ratio(closed.cache_evictions as f64, knn_closed),
        ),
        m("pager.hit_ns", "ns", layers.hit_ns),
        m("pager.miss_ns", "ns", layers.miss_ns),
        m(
            "pager.frames_per_write",
            "count",
            ratio(w.wal_frames as f64, writes),
        ),
        m(
            "pager.wal_bytes_per_write",
            "B",
            ratio(w.wal_bytes as f64, writes),
        ),
        m("pager.flush_s", "s", log.flush_s),
        m("exec.batch_overhead_us", "us", layers.exec_us),
        m("wire.request_bytes", "B", layers.wire.request_bytes),
        m("wire.response_bytes", "B", layers.wire.response_bytes),
    ]);
    for (frame, enc, dec) in &layers.wire.frames {
        out.push(m(format!("wire.{frame}_encode_ns"), "ns", *enc));
        out.push(m(format!("wire.{frame}_decode_ns"), "ns", *dec));
    }
    out.extend([
        m("serve.server_query_us", "us", layers.serve.0),
        m("serve.overhead_us", "us", layers.serve.1),
        m("serve.error_responses", "count", layers.serve.2 as f64),
        m("bench.query_p99_us", "us", quantile_us(&log.closed_ns, 0.99)),
        m("bench.write_p99_us", "us", quantile_us(&log.write_ns, 0.99)),
        m("bench.paced_p99_us", "us", quantile_us(&log.paced_ns, 0.99)),
        m("bench.paced_late_share", "ratio", late_share),
        m("bench.paced_late_p99_us", "us", quantile(&late, 0.99)),
        m("bench.trace_overhead_share", "ratio", trace_overhead),
    ]);
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values are printed with every digit (Rust's shortest round-trip
/// form); a non-finite value is an error, since JSON cannot carry it.
pub fn result_json(verdict: &Verdict, metrics: &[Metric]) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed
    );
    for (i, x) in metrics.iter().enumerate() {
        if !x.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", x.name, x.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    s.push_str("}}");
    Ok(s)
}
