//! Layer unit-cost probes, run only in the traced run and only after the
//! timed rounds. Each times public calls of one layer on the workload's
//! own data or page file and reports the median of a few trials.

use std::hint::black_box;
use std::time::Instant;

use sr_bench::measure::{measure_build, measure_knn_at_capacity};
use sr_bench::TreeKind;
use sr_geometry::{dist2_columnar_early_abandon, rect_min_dist2_f64le, sphere_min_dist2_f64le};
use sr_obs::Noop;
use sr_pager::{PageFile, PageKind, PagerError};
use sr_query::{QuerySpec, SpatialIndex};
use sr_serve::{Client, ServeConfig, Server};
use sr_wire::{Request, Response};

use crate::ops::{Inputs, Op};
use crate::oracle::{Answer, Record};
use crate::plan::{DIM, K};
use crate::runner::{answer_of, request};
use crate::stats::{mean, median};
use crate::sut::WHOLE_POOL_PAGES;
use crate::trace::Tracer;

/// Trials per probe; each reports the median trial.
const TRIALS: usize = 5;

fn time_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

fn median_trial(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..TRIALS).map(|_| f()).collect();
    median(&v)
}

fn f64le(values: impl Iterator<Item = f64>) -> Vec<u8> {
    values.flat_map(f64::to_le_bytes).collect()
}

/// Geometry kernel costs at the workload's dimension and fanouts:
/// ns per point of the default leaf kernel (columnar with early
/// abandon), and ns per branch of the SR-tree's two region bounds.
pub fn geometry(inputs: &Inputs, leaf_fanout: usize, node_fanout: usize) -> (f64, f64) {
    let pts: Vec<&[f32]> = inputs
        .base
        .iter()
        .take(leaf_fanout.max(1))
        .map(|p| p.coords())
        .collect();
    let n = pts.len();
    let coords = f64le((0..DIM).flat_map(|d| pts.iter().map(move |p| f64::from(p[d]))));
    let queries: Vec<&[f32]> = inputs.queries.iter().take(16).map(|q| q.coords()).collect();
    let mut out = Vec::new();
    let mut alive = Vec::new();
    // Abandon against the k-th distance in the block, as a search that
    // already holds k candidates would.
    let thresholds: Vec<f64> = queries
        .iter()
        .map(|q| {
            let _ =
                dist2_columnar_early_abandon(&coords, n, q, f64::INFINITY, &mut out, &mut alive);
            let mut d = out.clone();
            d.sort_by(f64::total_cmp);
            d.get(K.min(n) - 1).copied().unwrap_or(f64::INFINITY)
        })
        .collect();
    let reps = 200;
    let kernel = median_trial(|| {
        time_ns(|| {
            for _ in 0..reps {
                for (q, &thr) in queries.iter().zip(&thresholds) {
                    let r = dist2_columnar_early_abandon(
                        black_box(&coords),
                        n,
                        q,
                        thr,
                        &mut out,
                        &mut alive,
                    );
                    black_box(r.ok());
                }
            }
        }) / (reps * queries.len() * n) as f64
    });

    // Per branch: sphere center, radius, rectangle low and high corners.
    type Branch = (Vec<u8>, f64, Vec<u8>, Vec<u8>);
    let branches: Vec<Branch> = inputs
        .base
        .iter()
        .skip(leaf_fanout)
        .take(node_fanout.max(1))
        .map(|p| {
            let c = p.coords().iter().map(|&x| f64::from(x));
            let r = 0.05;
            (
                f64le(c.clone()),
                r,
                f64le(c.clone().map(|x| x - r)),
                f64le(c.map(|x| x + r)),
            )
        })
        .collect();
    let bound = median_trial(|| {
        time_ns(|| {
            for _ in 0..reps {
                for q in &queries {
                    for (center, r, lo, hi) in &branches {
                        let s = sphere_min_dist2_f64le(black_box(center), *r, q).unwrap_or(0.0);
                        let b = rect_min_dist2_f64le(black_box(lo), hi, q).unwrap_or(0.0);
                        black_box(s.max(b));
                    }
                }
            }
        }) / (reps * queries.len() * branches.len()) as f64
    });
    (kernel, bound)
}

/// `PageFile::read` cost on the workload's own page file: ns per pool
/// hit, and ns per miss (pool disabled, so every read goes to the store).
/// Restores the pool size afterwards.
pub fn pager(pf: &PageFile) -> Result<(f64, f64), String> {
    let pages = pf.num_pages();
    let step = (pages / 2048).max(1);
    let mut sample: Vec<(u64, PageKind)> = Vec::new();
    for id in (1..pages).step_by(step as usize) {
        match pf.read(id, PageKind::Leaf) {
            Ok(_) => sample.push((id, PageKind::Leaf)),
            Err(PagerError::KindMismatch { found, .. }) if found == PageKind::Node.as_u8() => {
                sample.push((id, PageKind::Node));
            }
            Err(_) => {}
        }
    }
    if sample.is_empty() {
        return Err("page file has no tree pages".into());
    }
    let read_all = |pf: &PageFile| -> Result<f64, String> {
        let t = Instant::now();
        for &(id, kind) in &sample {
            black_box(pf.read(id, kind).map_err(|e| format!("probe read: {e}"))?);
        }
        Ok(t.elapsed().as_nanos() as f64 / sample.len() as f64)
    };
    let cap = pf.cache_capacity();
    let pool = |n: usize| pf.set_cache_capacity(n).map_err(|e| format!("pool: {e}"));
    pool(0)?;
    let miss: Vec<f64> = (0..TRIALS)
        .map(|_| read_all(pf))
        .collect::<Result<_, _>>()?;
    // Room for the whole file: the pool is striped by page id, so a
    // pool sized to the sample could still thrash one stripe.
    pool(usize::try_from(pages).unwrap_or(usize::MAX))?;
    read_all(pf)?;
    let hit: Vec<f64> = (0..TRIALS)
        .map(|_| read_all(pf))
        .collect::<Result<_, _>>()?;
    pool(cap)?;
    Ok((median(&hit), median(&miss)))
}

/// `sr_exec::run_query_batch` on a burst of specs minus the same specs
/// run directly, in µs per burst: the median of paired rounds, with the
/// order alternating between rounds. The specs are zero-radius range
/// queries at the burst's query points, which touch only the regions
/// holding each point: with k-NN on uniform data (milliseconds each),
/// the noise of the query work swamped the batch machinery's own cost
/// and the difference came out negative.
pub fn exec_overhead(
    index: &dyn SpatialIndex,
    inputs: &Inputs,
    tracer: &Tracer,
) -> Result<f64, String> {
    let specs: Vec<QuerySpec<'_>> = inputs
        .queries
        .iter()
        .take(crate::plan::BURST_READS)
        .map(|q| QuerySpec::range(q.coords(), 0.0))
        .collect();
    let direct = || -> Result<f64, String> {
        let t = Instant::now();
        for s in &specs {
            black_box(index.query(s, &Noop).map_err(|e| e.to_string())?);
        }
        Ok(t.elapsed().as_nanos() as f64)
    };
    let batch = |round: usize| -> Result<f64, String> {
        let t = Instant::now();
        let _s = tracer.span("exec.run_query_batch", "", round as u64);
        black_box(sr_exec::run_query_batch(index, &specs, 1).map_err(|e| e.to_string())?);
        Ok(t.elapsed().as_nanos() as f64)
    };
    let first = direct()?;
    let rounds = ((4e8 / first.max(1.0)) as usize).clamp(3, 200);
    let mut diffs = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let (b, d) = if r % 2 == 0 {
            let b = batch(r)?;
            (b, direct()?)
        } else {
            let d = direct()?;
            (batch(r)?, d)
        };
        diffs.push(b - d);
    }
    Ok(median(&diffs) / 1e3)
}

/// Wire costs: mean frame sizes over the run's own traffic, and encode /
/// decode ns of the four frame kinds the workloads use.
pub struct WireProbe {
    /// Mean encoded request frame, bytes.
    pub request_bytes: f64,
    /// Mean encoded response frame, bytes.
    pub response_bytes: f64,
    /// `(frame kind, encode ns, decode ns)` for knn, rows, insert, ack.
    pub frames: Vec<(&'static str, f64, f64)>,
}

fn response_of(answer: &Answer) -> Option<Response> {
    match answer {
        Answer::Rows(rows) => Some(sr_wire::rows_response(rows)),
        Answer::Ack(n) => Some(Response::Ack { n: *n }),
        Answer::Failed(_) => None,
    }
}

/// Run the wire probe.
pub fn wire(inputs: &Inputs, records: &[Record], tracer: &Tracer) -> Result<WireProbe, String> {
    let enc = |e: sr_wire::WireError| e.to_string();
    let mut req_sizes = Vec::new();
    let mut resp_sizes = Vec::new();
    for r in records {
        req_sizes.push(
            sr_wire::encode_request(&request(inputs, r.op)?)
                .map_err(enc)?
                .len() as f64,
        );
        if let Some(resp) = response_of(&r.answer) {
            resp_sizes.push(sr_wire::encode_response(&resp).map_err(enc)?.len() as f64);
        }
    }
    let rows = records
        .iter()
        .find_map(|r| match &r.answer {
            Answer::Rows(rows) => Some(rows.clone()),
            _ => None,
        })
        .unwrap_or_default();
    let knn = request(inputs, Op::Knn { q: 0 })?;
    let insert = request(inputs, Op::Insert { id: 0 })?;
    let reps = 2000usize;
    let max = sr_wire::DEFAULT_MAX_BODY;
    let req_cost =
        |name: &'static str, req: &Request| -> Result<(&'static str, f64, f64), String> {
            let bytes = sr_wire::encode_request(req).map_err(enc)?;
            let e = median_trial(|| {
                let _s = tracer.span("wire.encode", name, 0);
                time_ns(|| {
                    for _ in 0..reps {
                        black_box(sr_wire::encode_request(black_box(req)).ok());
                    }
                }) / reps as f64
            });
            let d = median_trial(|| {
                let _s = tracer.span("wire.decode", name, 0);
                time_ns(|| {
                    for _ in 0..reps {
                        black_box(sr_wire::decode_request(black_box(&bytes), max).ok());
                    }
                }) / reps as f64
            });
            Ok((name, e, d))
        };
    let resp_cost =
        |name: &'static str, resp: &Response| -> Result<(&'static str, f64, f64), String> {
            let bytes = sr_wire::encode_response(resp).map_err(enc)?;
            let e = median_trial(|| {
                let _s = tracer.span("wire.encode", name, 0);
                time_ns(|| {
                    for _ in 0..reps {
                        black_box(sr_wire::encode_response(black_box(resp)).ok());
                    }
                }) / reps as f64
            });
            let d = median_trial(|| {
                let _s = tracer.span("wire.decode", name, 0);
                time_ns(|| {
                    for _ in 0..reps {
                        black_box(sr_wire::decode_response(black_box(&bytes), max).ok());
                    }
                }) / reps as f64
            });
            Ok((name, e, d))
        };
    Ok(WireProbe {
        request_bytes: mean(&req_sizes),
        response_bytes: mean(&resp_sizes),
        frames: vec![
            req_cost("knn", &knn)?,
            resp_cost("rows", &sr_wire::rows_response(&rows))?,
            req_cost("insert", &insert)?,
            resp_cost("ack", &Response::Ack { n: 1 })?,
        ],
    })
}

/// Per-kind tree costs on a small in-memory copy of the workload's
/// data, built and queried by `sr_bench` with the paper's layout:
/// `(kind, mean query µs, mean insert µs)`, SR-tree first. The VAMSplit
/// tree is built in bulk, so it has no insert cost.
pub fn kinds(inputs: &Inputs, n: usize) -> Vec<(TreeKind, f64, Option<f64>)> {
    let pts = &inputs.base[..n.min(inputs.base.len())];
    let queries = &inputs.queries[..64.min(inputs.queries.len())];
    [
        TreeKind::Sr,
        TreeKind::Ss,
        TreeKind::Rstar,
        TreeKind::Kdb,
        TreeKind::Vam,
    ]
    .into_iter()
    .map(|kind| {
        let (index, build) = measure_build(kind, pts);
        let query = measure_knn_at_capacity(&index, queries, K, WHOLE_POOL_PAGES);
        let insert_us = TreeKind::DYNAMIC
            .contains(&kind)
            .then_some(build.cpu_ms * 1e3);
        (kind, query.cpu_ms * 1e3, insert_us)
    })
    .collect()
}

/// Serve-layer cost of one request: `(server query µs, client latency
/// minus server query µs, error responses)` over `calls` k-NN requests
/// sent one at a time to a server over `index`.
pub fn serve(
    index: Box<dyn SpatialIndex>,
    inputs: &Inputs,
    calls: usize,
    tracer: &Tracer,
) -> Result<(f64, f64, u64), String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(index, cfg).map_err(|e| format!("serve: {e}"))?;
    let mut client =
        Client::connect(&server.local_addr().to_string()).map_err(|e| e.to_string())?;
    let stats = |c: &mut Client| -> Result<crate::runner::Counters, String> {
        crate::runner::Counters::from_stats_json(&c.stats().map_err(|e| e.to_string())?)
    };
    let before = stats(&mut client)?;
    let mut lat = Vec::with_capacity(calls);
    let mut errors = 0u64;
    for i in 0..calls {
        let op = Op::Knn {
            q: i % inputs.queries.len().max(1),
        };
        let req = request(inputs, op)?;
        let t = Instant::now();
        let resp = {
            let _s = tracer.span("serve.call", "probe", i as u64);
            client.call(&req).map_err(|e| e.to_string())?
        };
        lat.push(t.elapsed().as_nanos() as f64 / 1e3);
        if matches!(answer_of(resp), Answer::Failed(_)) {
            errors += 1;
        }
    }
    let d = stats(&mut client)?.since(&before);
    client.shutdown().map_err(|e| e.to_string())?;
    server.wait().map_err(|e| e.to_string())?;
    let server_us = crate::stats::ratio(d.query_ns_sum as f64, d.query_ns_count as f64) / 1e3;
    Ok((server_us, mean(&lat) - server_us, errors))
}
