//! Command execution.

use std::fmt;
use std::io::Write;
use std::path::Path;

use sr_dataset::{cluster, real_sim, uniform, ClusterSpec};
use sr_geometry::Point;
use sr_obs::{Counter, Recorder, StatsRecorder};
use sr_pager::{IoStats, PageFile, PageKind, WalStats, DEFAULT_PAGE_SIZE};
use sr_query::{IndexError, QuerySpec, SpatialIndex};
use sr_testkit::{
    failure_report, generate, minimize, run_tape, DiffConfig, TreeKind, WorkloadSpec,
};
use sr_tree::paged::DEFAULT_DATA_AREA;
use sr_wire::{io_json, RemoteError, Request, Response};

use crate::args::{ClientOp, Command, GenKind, HELP};
use crate::data::{read_points, write_points};

/// A failed command, split by exit code: usage errors (bad input the
/// user can fix — exit 2), execution failures (exit 1), and remote
/// failures (the query service said no, or could not be reached —
/// exit 3, so scripts can tell "my index is broken" from "the server
/// is down or overloaded").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CmdError {
    /// The invocation was well-formed but semantically invalid.
    Usage(String),
    /// The command ran and failed.
    Failure(String),
    /// A `client` command failed on or en route to the server.
    Remote(String),
}

impl fmt::Display for CmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmdError::Usage(s) | CmdError::Failure(s) | CmdError::Remote(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for CmdError {}

impl From<String> for CmdError {
    fn from(s: String) -> Self {
        CmdError::Failure(s)
    }
}

/// Open the index at `path`: the pager first, so its own error (a
/// truncated or foreign file) is what the user sees, then whichever tree
/// the metadata names.
fn open_index(path: &Path) -> Result<Box<dyn SpatialIndex>, CmdError> {
    let failure = |e: &dyn fmt::Display| CmdError::Failure(format!("{}: {e}", path.display()));
    let pf = PageFile::open(path).map_err(|e| failure(&e))?;
    TreeKind::open(pf).map_err(|e| match e {
        IndexError::NotThisIndex(why) => failure(&format!("not a recognizable index file ({why})")),
        e => failure(&e),
    })
}

/// Create the index file at `path` and load `points` into a `kind` tree.
/// A dimensionality the page cannot hold is a usage error; every other
/// failure is an execution failure.
fn build_index(
    kind: TreeKind,
    path: &Path,
    dim: usize,
    points: Vec<(Point, u64)>,
) -> Result<Box<dyn SpatialIndex>, CmdError> {
    let e = |err: IndexError| match err {
        IndexError::InvalidParams { .. } => CmdError::Usage(format!(
            "--dim {dim} is too large for {DEFAULT_PAGE_SIZE}-byte index pages: {err}"
        )),
        err => CmdError::Failure(format!("{}: {err}", path.display())),
    };
    let pf = PageFile::create(path).map_err(|err| e(err.into()))?;
    let index = kind.build(pf, dim, DEFAULT_DATA_AREA, points).map_err(e)?;
    index.flush().map_err(e)?;
    Ok(index)
}

/// Mirror the pager's [`WalStats`] into the metric counters, the same
/// way `sr-exec` mirrors `IoStats` into the cache pair. These are
/// store-lifetime totals at snapshot time, not per-query windows: a
/// nonzero `wal_replays` in a trace says this store crash-recovered
/// when it was opened.
fn mirror_wal(rec: &dyn Recorder, ws: &WalStats) {
    rec.incr(Counter::WalFramesAppended, ws.frames_appended);
    rec.incr(Counter::WalCommits, ws.commits);
    rec.incr(Counter::WalTruncations, ws.truncations);
    rec.incr(Counter::WalReplays, ws.replays);
    rec.incr(Counter::WalReplayedFrames, ws.replayed_frames);
    rec.incr(Counter::WalDroppedFrames, ws.dropped_frames);
    rec.incr(Counter::WalTornTails, ws.torn_tails);
}

/// One structured line per traced query: the recorder snapshot plus the
/// query's I/O window.
fn trace_json(cmd: &str, results: usize, rec: &StatsRecorder, io: &IoStats, cap: usize) -> String {
    format!(
        "{{{},\"cmd\":\"{cmd}\",\"results\":{results},\"metrics\":{},\"io\":{}}}",
        sr_obs::schema_version_field(),
        rec.snapshot().to_json(),
        io_json(io, cap),
    )
}

/// The batch flavor of [`trace_json`]: per-worker recorders merged into
/// one snapshot, I/O windowed over the whole batch. Keeps the same
/// `metrics`/`io` field shapes so downstream jq filters work unchanged.
fn batch_trace_json(
    results: usize,
    threads: usize,
    queries: usize,
    metrics: &sr_obs::MetricsSnapshot,
    io: &IoStats,
    cap: usize,
) -> String {
    format!(
        "{{{},\"cmd\":\"knn_batch\",\"results\":{results},\"threads\":{threads},\
         \"queries\":{queries},\"metrics\":{},\"io\":{}}}",
        sr_obs::schema_version_field(),
        metrics.to_json(),
        io_json(io, cap),
    )
}

/// Lower an executed [`Response`] to `(id, distance)` pairs, folding
/// typed remote errors back into the CLI error taxonomy: caller
/// mistakes stay usage errors (exit 2), everything else fails (exit 1).
/// A failed query prints the index's own error, as `srtool verify` does.
fn response_rows(resp: Response) -> Result<Vec<(u64, f64)>, CmdError> {
    match resp {
        Response::Rows(rows) => Ok(rows.iter().map(|r| (r.data, r.dist)).collect()),
        Response::Error(RemoteError::BadRequest(msg) | RemoteError::Unsupported(msg)) => {
            Err(CmdError::Usage(msg))
        }
        Response::Error(RemoteError::Failed(msg)) => Err(CmdError::Failure(msg)),
        Response::Error(e) => Err(CmdError::Failure(e.to_string())),
        other => Err(CmdError::Failure(format!(
            "query returned a non-row response: {other:?}"
        ))),
    }
}

fn results_json(hits: &[(u64, f64)]) -> String {
    let rows: Vec<String> = hits
        .iter()
        .map(|(id, dist)| format!("{{\"id\":{id},\"dist\":{dist}}}"))
        .collect();
    format!("[{}]", rows.join(","))
}

/// Shared tail of `knn` and `range`: run the (possibly traced) query
/// and print TSV rows or a JSON object.
fn run_query(
    index: &dyn SpatialIndex,
    cmd_name: &str,
    trace: bool,
    json: bool,
    out: &mut dyn Write,
    query: impl FnOnce(&dyn sr_obs::Recorder) -> Result<Vec<(u64, f64)>, CmdError>,
) -> Result<(), CmdError> {
    let rec = StatsRecorder::new();
    let before = index.pager().stats();
    let hits = if trace {
        query(&rec)?
    } else {
        query(&sr_obs::Noop)?
    };
    let io = index.pager().stats().since(&before);
    let cap = index.pager().cache_capacity();
    if trace {
        mirror_wal(&rec, &index.pager().wal_stats());
    }
    let e = |err: std::io::Error| CmdError::Failure(err.to_string());
    if json {
        let trace_field = if trace {
            format!(
                ",\"trace\":{}",
                trace_json(cmd_name, hits.len(), &rec, &io, cap)
            )
        } else {
            String::new()
        };
        writeln!(
            out,
            "{{{},\"cmd\":\"{cmd_name}\",\"results\":{}{trace_field}}}",
            sr_obs::schema_version_field(),
            results_json(&hits)
        )
        .map_err(e)?;
    } else {
        for (id, dist) in &hits {
            writeln!(out, "{id}\t{dist}").map_err(e)?;
        }
        if trace {
            // Keep stdout parseable: the trace line goes to stderr.
            eprintln!("{}", trace_json(cmd_name, hits.len(), &rec, &io, cap));
        }
    }
    Ok(())
}

/// Batch k-NN: fan the query file across `threads` workers via
/// `sr-exec`. Output rows are `qidx <TAB> id <TAB> dist`, in input
/// order regardless of thread count.
fn run_knn_batch(
    index: &dyn SpatialIndex,
    batch_path: &std::path::Path,
    k: usize,
    threads: usize,
    trace: bool,
    json: bool,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let points = read_points(batch_path).map_err(|e| e.to_string())?;
    let specs: Vec<QuerySpec<'_>> = (points.iter())
        .map(|(p, _)| QuerySpec::knn(p.coords(), k))
        .collect();
    let n_queries = specs.len();
    let failed = |e: String| CmdError::Failure(format!("{}: {e}", batch_path.display()));
    let result =
        sr_exec::run_query_batch(index, &specs, threads).map_err(|e| failed(e.to_string()))?;
    // The first failing query, by input index, fails the command.
    let answers = (result.results.into_iter().enumerate())
        .map(|(i, r)| r.map_err(|e| failed(format!("batch query #{i} failed: {e}"))))
        .collect::<Result<Vec<_>, _>>()?;
    let cap = index.pager().cache_capacity();
    let total: usize = answers.iter().map(Vec::len).sum();
    let e = |err: std::io::Error| CmdError::Failure(err.to_string());
    if json {
        let per_query: Vec<String> = answers
            .iter()
            .map(|hits| {
                let pairs: Vec<(u64, f64)> =
                    hits.iter().map(|n| (n.data, n.dist2.sqrt())).collect();
                results_json(&pairs)
            })
            .collect();
        let trace_field = if trace {
            format!(
                ",\"trace\":{}",
                batch_trace_json(
                    total,
                    result.threads,
                    n_queries,
                    &result.metrics,
                    &result.io,
                    cap
                )
            )
        } else {
            String::new()
        };
        writeln!(
            out,
            "{{{},\"cmd\":\"knn_batch\",\"queries\":{n_queries},\"threads\":{},\
             \"results\":[{}]{trace_field}}}",
            sr_obs::schema_version_field(),
            result.threads,
            per_query.join(","),
        )
        .map_err(e)?;
    } else {
        for (qidx, hits) in answers.iter().enumerate() {
            for n in hits {
                writeln!(out, "{qidx}\t{}\t{}", n.data, n.dist2.sqrt()).map_err(e)?;
            }
        }
        if trace {
            // Keep stdout parseable: the trace line goes to stderr.
            eprintln!(
                "{}",
                batch_trace_json(
                    total,
                    result.threads,
                    n_queries,
                    &result.metrics,
                    &result.io,
                    cap
                )
            );
        }
    }
    Ok(())
}

/// Execute a parsed command, writing output to `out`.
pub fn run(cmd: Command, out: &mut dyn Write) -> Result<(), CmdError> {
    match cmd {
        Command::Gen {
            kind,
            n,
            dim,
            seed,
            clusters,
            out: path,
        } => {
            let points: Vec<Point> = match kind {
                GenKind::Uniform => uniform(n, dim, seed),
                GenKind::Histogram => real_sim(n, dim, seed),
                GenKind::Cluster => {
                    let per = (n / clusters.max(1)).max(1);
                    cluster(
                        ClusterSpec {
                            clusters: clusters.max(1),
                            points_per_cluster: per,
                            max_radius: 0.1,
                        },
                        dim,
                        seed,
                    )
                }
            };
            let with_ids: Vec<(Point, u64)> = points
                .into_iter()
                .enumerate()
                .map(|(i, p)| (p, i as u64))
                .collect();
            write_points(&path, &with_ids).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "wrote {} points ({dim}-d) to {}",
                with_ids.len(),
                path.display()
            )
            .map_err(|e| CmdError::Failure(e.to_string()))
        }
        Command::Build {
            index: kind,
            dim,
            index_path,
            data_path,
        } => {
            let points = read_points(&data_path).map_err(|e| e.to_string())?;
            if let Some((p, _)) = points.first() {
                if p.dim() != dim {
                    return Err(CmdError::Usage(format!(
                        "--dim {dim} but {} has {}-d points",
                        data_path.display(),
                        p.dim()
                    )));
                }
            }
            let n = points.len();
            let index = build_index(kind, &index_path, dim, points)?;
            writeln!(
                out,
                "built {} at {}: {n} points loaded, {} stored, height {}",
                index.kind_name(),
                index_path.display(),
                index.len(),
                index.height()
            )
            .map_err(|e| CmdError::Failure(e.to_string()))
        }
        Command::Insert {
            index_path,
            data_path,
        } => {
            let points = read_points(&data_path).map_err(|e| e.to_string())?;
            let n = points.len();
            let mut index = open_index(&index_path)?;
            // Same typed requests the server executes, one per point.
            for (p, id) in &points {
                let req = Request::Insert {
                    point: p.coords().to_vec(),
                    data: *id,
                };
                match sr_wire::execute(&req, index.as_mut(), &sr_obs::Noop) {
                    Response::Ack { .. } => {}
                    Response::Error(RemoteError::Unsupported(_)) => {
                        return Err(CmdError::Failure(
                            "the VAMSplit R-tree is static: rebuild it with `srtool build`"
                                .to_string(),
                        ))
                    }
                    Response::Error(e) => return Err(CmdError::Failure(e.to_string())),
                    other => {
                        return Err(CmdError::Failure(format!(
                            "insert returned a non-ack response: {other:?}"
                        )))
                    }
                }
            }
            index
                .flush()
                .map_err(|e| CmdError::Failure(e.to_string()))?;
            writeln!(
                out,
                "inserted {n} points; index now holds {}, height {}",
                index.len(),
                index.height()
            )
            .map_err(|e| CmdError::Failure(e.to_string()))
        }
        Command::Knn {
            index_path,
            k,
            query,
            batch,
            threads,
            trace,
            json,
        } => {
            let index = open_index(&index_path)?;
            if let Some(batch_path) = batch {
                return run_knn_batch(index.as_ref(), &batch_path, k, threads, trace, json, out);
            }
            let query = query.ok_or_else(|| CmdError::Usage("missing --query".into()))?;
            let k = u32::try_from(k)
                .map_err(|_| CmdError::Usage(format!("--k {k} exceeds the wire limit")))?;
            run_query(index.as_ref(), "knn", trace, json, out, |rec| {
                let req = Request::Knn {
                    query: query.clone(),
                    k,
                };
                response_rows(sr_wire::execute_read(&req, index.as_ref(), rec))
            })
        }
        Command::Range {
            index_path,
            radius,
            query,
            trace,
            json,
        } => {
            let index = open_index(&index_path)?;
            run_query(index.as_ref(), "range", trace, json, out, |rec| {
                let req = Request::Range {
                    query: query.clone(),
                    radius,
                };
                response_rows(sr_wire::execute_read(&req, index.as_ref(), rec))
            })
        }
        Command::Stats { index_path, json } => {
            let index = open_index(&index_path)?;
            let io = index.pager().stats();
            let cap = index.pager().cache_capacity();
            let page_size = index.pager().page_size();
            let ws = index.pager().wal_stats();
            let e = |err: std::io::Error| CmdError::Failure(err.to_string());
            if json {
                // Same document a served Stats request answers with
                // (minus the service-lifetime "metrics" member).
                writeln!(out, "{}", sr_wire::stats_json(index.as_ref())).map_err(e)
            } else {
                writeln!(
                    out,
                    "{}: {} points, {} dimensions, height {}",
                    index.kind_name(),
                    index.len(),
                    index.dim(),
                    index.height()
                )
                .map_err(e)?;
                writeln!(out, "pager: {page_size} B pages, buffer pool {cap} pages").map_err(e)?;
                let hit_rate = io
                    .cache_hit_rate()
                    .map_or_else(|| "n/a".to_string(), |r| format!("{:.1}%", r * 100.0));
                writeln!(
                    out,
                    "io since open: {} tree reads ({} node, {} leaf), \
                     {} physical reads, cache {} hits / {} misses / {} evictions \
                     (hit rate {hit_rate})",
                    io.tree_reads(),
                    io.logical_reads(PageKind::Node),
                    io.logical_reads(PageKind::Leaf),
                    io.physical_reads(),
                    io.cache_hits(),
                    io.cache_misses(),
                    io.cache_evictions(),
                )
                .map_err(e)?;
                writeln!(
                    out,
                    "wal: {} B, {} frames appended, {} commits, {} truncations, \
                     {} replays ({} frames reapplied, {} dropped, {} torn tails)",
                    ws.wal_bytes,
                    ws.frames_appended,
                    ws.commits,
                    ws.truncations,
                    ws.replays,
                    ws.replayed_frames,
                    ws.dropped_frames,
                    ws.torn_tails,
                )
                .map_err(e)
            }
        }
        Command::Verify { index_path } => {
            let index = open_index(&index_path)?;
            let summary = index
                .verify()
                .map_err(|e| CmdError::Failure(e.to_string()))?;
            writeln!(out, "{} OK: {summary}", index.kind_name())
                .map_err(|e| CmdError::Failure(e.to_string()))
        }
        Command::Fuzz {
            seed,
            ops,
            dim,
            dist,
            page_size,
            verify_every,
        } => {
            let spec = WorkloadSpec::standard(ops, dim, dist);
            let tape = generate(&spec, seed);
            let cfg = DiffConfig {
                page_size,
                verify_every,
                ..DiffConfig::default()
            };
            match run_tape(&tape, &cfg) {
                Ok(r) => writeln!(
                    out,
                    "fuzz OK: {} ops over {} {dim}-d data (seed {seed:#x}): \
                     {} inserts, {} deletes, {} knn, {} range, \
                     {} verify sweeps, {} live at end",
                    r.ops,
                    dist.name(),
                    r.inserts,
                    r.deletes,
                    r.knns,
                    r.ranges,
                    r.verifies,
                    r.final_live
                )
                .map_err(|e| CmdError::Failure(e.to_string())),
                Err(d) => {
                    // Nonzero exit with the minimized reproduction in
                    // the error text, same shape the tier-1 tests print.
                    let minimized = minimize(&tape, &cfg, 60);
                    Err(CmdError::Failure(failure_report(&tape, &minimized, &d)))
                }
            }
        }
        Command::Lint {
            json,
            root,
            rule,
            stats,
        } => {
            let root = root
                .or_else(|| {
                    let cwd = std::env::current_dir().ok()?;
                    sr_lint::find_workspace_root(&cwd)
                })
                .ok_or_else(|| "no workspace root found (pass --root)".to_string())?;
            let started = std::time::Instant::now();
            let mut report = sr_lint::lint_workspace(&root).map_err(|e| e.to_string())?;
            let elapsed_ms = started.elapsed().as_millis();
            if let Some(r) = &rule {
                report.retain_rule(r);
            }
            if json {
                write!(out, "{}", report.to_json()).map_err(|e| e.to_string())?;
            } else {
                for d in &report.diagnostics {
                    writeln!(out, "{d}").map_err(|e| e.to_string())?;
                }
                writeln!(
                    out,
                    "srlint: {} violation(s), {} escape hatch(es) in use",
                    report.diagnostics.len(),
                    report.hatches_used
                )
                .map_err(|e| e.to_string())?;
            }
            if stats {
                let per_rule: Vec<String> = report
                    .family_counts()
                    .iter()
                    .filter(|(_, n)| *n > 0)
                    .map(|(fam, n)| format!("{fam}={n}"))
                    .collect();
                let findings = if per_rule.is_empty() {
                    "none".to_string()
                } else {
                    per_rule.join(" ")
                };
                writeln!(
                    out,
                    "srlint-stats: files={} findings: {} elapsed_ms={}",
                    report.files_scanned, findings, elapsed_ms
                )
                .map_err(|e| e.to_string())?;
            }
            if report.is_clean() {
                Ok(())
            } else {
                Err(CmdError::Failure(format!(
                    "srlint found {} violation(s)",
                    report.diagnostics.len()
                )))
            }
        }
        Command::Serve {
            index_path,
            addr,
            threads,
            max_conns,
            max_batch,
        } => {
            let index = open_index(&index_path)?;
            let kind = index.kind_name();
            let len = index.len();
            let cfg = sr_serve::ServeConfig {
                addr,
                threads,
                max_conns,
                max_batch,
            };
            let server = sr_serve::Server::start(index, cfg)
                .map_err(|e| CmdError::Failure(e.to_string()))?;
            // One parseable line, flushed before blocking, so scripts
            // (and the CI smoke job) can discover the bound port.
            writeln!(
                out,
                "listening on {} ({kind}, {len} points)",
                server.local_addr()
            )
            .map_err(|e| CmdError::Failure(e.to_string()))?;
            out.flush().map_err(|e| CmdError::Failure(e.to_string()))?;
            server.wait().map_err(|e| CmdError::Failure(e.to_string()))
        }
        Command::Client { addr, op } => run_client(&addr, op, out),
        Command::Help => writeln!(out, "{HELP}").map_err(|e| CmdError::Failure(e.to_string())),
    }
}

/// Run one `srtool client` operation against a serving `srtool serve`.
/// Every failure on or en route to the server is [`CmdError::Remote`]
/// (exit 3).
fn run_client(addr: &str, op: ClientOp, out: &mut dyn Write) -> Result<(), CmdError> {
    let remote = |e: sr_serve::ServeError| CmdError::Remote(e.to_string());
    let io_err = |e: std::io::Error| CmdError::Failure(e.to_string());
    let mut client = sr_serve::Client::connect(addr).map_err(remote)?;
    match op {
        ClientOp::Ping => {
            client.ping().map_err(remote)?;
            writeln!(out, "pong").map_err(io_err)
        }
        ClientOp::Knn { query, k, batch } => {
            if let Some(batch_path) = batch {
                let queries: Vec<Vec<f32>> = read_points(&batch_path)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(|(p, _)| p.coords().to_vec())
                    .collect();
                let reqs: Vec<Request> = queries
                    .into_iter()
                    .map(|query| Request::Knn { query, k })
                    .collect();
                // Pipelined: the server coalesces the whole run into
                // one sr-exec batch. Output matches offline
                // `srtool knn --batch` byte for byte.
                let resps = client.pipeline(&reqs).map_err(remote)?;
                for (qidx, resp) in resps.iter().enumerate() {
                    match resp {
                        Response::Rows(rows) => {
                            for r in rows {
                                writeln!(out, "{qidx}\t{}\t{}", r.data, r.dist).map_err(io_err)?;
                            }
                        }
                        Response::Error(e) => return Err(CmdError::Remote(e.to_string())),
                        other => {
                            return Err(CmdError::Remote(format!("unexpected response: {other:?}")))
                        }
                    }
                }
                Ok(())
            } else {
                let query = query.ok_or_else(|| CmdError::Usage("missing --query".into()))?;
                let rows = client.knn(&query, k).map_err(remote)?;
                for r in rows {
                    writeln!(out, "{}\t{}", r.data, r.dist).map_err(io_err)?;
                }
                Ok(())
            }
        }
        ClientOp::Range { query, radius } => {
            let rows = client.range(&query, radius).map_err(remote)?;
            for r in rows {
                writeln!(out, "{}\t{}", r.data, r.dist).map_err(io_err)?;
            }
            Ok(())
        }
        ClientOp::Insert { data_path } => {
            let points = read_points(&data_path).map_err(|e| e.to_string())?;
            let n = points.len();
            for (p, id) in &points {
                client.insert(p.coords(), *id).map_err(remote)?;
            }
            writeln!(out, "inserted {n} points").map_err(io_err)
        }
        ClientOp::Stats => {
            let json = client.stats().map_err(remote)?;
            writeln!(out, "{json}").map_err(io_err)
        }
        ClientOp::Shutdown => {
            client.shutdown().map_err(remote)?;
            writeln!(out, "server shutting down").map_err(io_err)
        }
    }
}
