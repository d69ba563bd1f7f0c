//! The timed rounds of a run, in process or through the server. Each
//! round runs a closed-loop block, a paced (open-loop) block and a write
//! block; counters are read around every block and summed per kind.

use std::time::{Duration, Instant};

use sr_obs::{Counter, Hist, Noop, Recorder, StatsRecorder};
use sr_query::{IndexError, Neighbor, QuerySpec, SpatialIndex};
use sr_serve::ServeError;
use sr_wire::{Request, Response};

use crate::ops::{Inputs, Op, OpStream};
use crate::oracle::{Answer, Phase, Record};
use crate::plan::{Plan, BURST_READS, K};
use crate::sut::Served;
use crate::trace::Tracer;

/// In a traced run the closed loop alternates traced and untraced blocks
/// of this many requests (bursts, when served), so the tracing overhead
/// is measured under the same host conditions as the traced numbers.
const TRACE_BLOCK: usize = 16;

/// Counters read at a block boundary. In process they come from the
/// pager's `IoStats`/`WalStats` and the run's `StatsRecorder`; served,
/// from the server's `Stats` document.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Logical node + leaf page reads made by k-NN. In process: pager
    /// reads (a closed-loop block makes no others); served: the server's
    /// node + leaf expansion counts, which equal those reads one to one.
    pub knn_reads: u64,
    /// Buffer-pool hits.
    pub cache_hits: u64,
    /// Buffer-pool misses.
    pub cache_misses: u64,
    /// Buffer-pool evictions.
    pub cache_evictions: u64,
    /// WAL page frames appended.
    pub wal_frames: u64,
    /// WAL length in bytes.
    pub wal_bytes: u64,
    /// Query-engine node expansions.
    pub node_expansions: u64,
    /// Query-engine leaf expansions.
    pub leaf_expansions: u64,
    /// Child branches considered.
    pub branches: u64,
    /// Branches pruned.
    pub prunes: u64,
    /// Prunes won by the sphere bound.
    pub prune_sphere: u64,
    /// Prunes won by the rectangle bound.
    pub prune_rect: u64,
    /// Points scored by the leaf kernel.
    pub points_scored: u64,
    /// Points abandoned early by the kernel.
    pub early_abandons: u64,
    /// Queries timed by the engine's `query_ns` histogram.
    pub query_ns_count: u64,
    /// Sum of that histogram.
    pub query_ns_sum: u64,
    /// Live entries.
    pub points: u64,
}

impl Counters {
    /// `self - earlier`, field by field (`points` is kept as is).
    pub fn since(&self, e: &Counters) -> Counters {
        Counters {
            knn_reads: self.knn_reads - e.knn_reads,
            cache_hits: self.cache_hits - e.cache_hits,
            cache_misses: self.cache_misses - e.cache_misses,
            cache_evictions: self.cache_evictions - e.cache_evictions,
            wal_frames: self.wal_frames - e.wal_frames,
            wal_bytes: self.wal_bytes.saturating_sub(e.wal_bytes),
            node_expansions: self.node_expansions - e.node_expansions,
            leaf_expansions: self.leaf_expansions - e.leaf_expansions,
            branches: self.branches - e.branches,
            prunes: self.prunes - e.prunes,
            prune_sphere: self.prune_sphere - e.prune_sphere,
            prune_rect: self.prune_rect - e.prune_rect,
            points_scored: self.points_scored - e.points_scored,
            early_abandons: self.early_abandons - e.early_abandons,
            query_ns_count: self.query_ns_count - e.query_ns_count,
            query_ns_sum: self.query_ns_sum - e.query_ns_sum,
            points: self.points,
        }
    }

    /// Add the deltas `d` to `self`, field by field (`points` takes
    /// `d`'s value).
    pub fn add(&mut self, d: &Counters) {
        self.knn_reads += d.knn_reads;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.cache_evictions += d.cache_evictions;
        self.wal_frames += d.wal_frames;
        self.wal_bytes += d.wal_bytes;
        self.node_expansions += d.node_expansions;
        self.leaf_expansions += d.leaf_expansions;
        self.branches += d.branches;
        self.prunes += d.prunes;
        self.prune_sphere += d.prune_sphere;
        self.prune_rect += d.prune_rect;
        self.points_scored += d.points_scored;
        self.early_abandons += d.early_abandons;
        self.query_ns_count += d.query_ns_count;
        self.query_ns_sum += d.query_ns_sum;
        self.points = d.points;
    }

    /// Snapshot of an in-process index and the run's recorder.
    pub fn local(index: &dyn SpatialIndex, rec: &StatsRecorder) -> Counters {
        let io = index.io_stats();
        let wal = index.pager().wal_stats();
        let mut c = Counters {
            knn_reads: io.tree_reads(),
            cache_hits: io.cache_hits(),
            cache_misses: io.cache_misses(),
            cache_evictions: io.cache_evictions(),
            wal_frames: wal.frames_appended,
            wal_bytes: wal.wal_bytes,
            points: index.len(),
            ..Counters::default()
        };
        let m = rec.snapshot();
        c.node_expansions = m.counter(Counter::NodeExpansions);
        c.leaf_expansions = m.counter(Counter::LeafExpansions);
        c.branches = m.counter(Counter::BranchesConsidered);
        c.prunes = m.counter(Counter::PruneEvents);
        c.prune_sphere = m.counter(Counter::PruneSphere);
        c.prune_rect = m.counter(Counter::PruneRect);
        c.points_scored = m.counter(Counter::PointsScored);
        c.early_abandons = m.counter(Counter::EarlyAbandons);
        let h = m.hist(Hist::QueryNs);
        c.query_ns_count = h.count;
        c.query_ns_sum = h.sum;
        c
    }

    /// Parse the server's `Stats` document.
    pub fn from_stats_json(doc: &str) -> Result<Counters, String> {
        let get = |path: &[&str]| -> Result<u64, String> {
            json_u64(doc, path).ok_or_else(|| format!("stats document lacks {path:?}: {doc}"))
        };
        let io = |k: &str| get(&["\"io\":{", k]);
        let wal = |k: &str| get(&["\"wal\":{", k]);
        let met = |k: &str| get(&["\"metrics\":{", k]);
        Ok(Counters {
            knn_reads: met("\"node_expansions\":")? + met("\"leaf_expansions\":")?,
            cache_hits: io("\"cache_hits\":")?,
            cache_misses: io("\"cache_misses\":")?,
            cache_evictions: io("\"cache_evictions\":")?,
            wal_frames: wal("\"frames_appended\":")?,
            wal_bytes: wal("\"wal_bytes\":")?,
            node_expansions: met("\"node_expansions\":")?,
            leaf_expansions: met("\"leaf_expansions\":")?,
            branches: met("\"branches_considered\":")?,
            prunes: met("\"prune_events\":")?,
            prune_sphere: met("\"prune_sphere\":")?,
            prune_rect: met("\"prune_rect\":")?,
            points_scored: met("\"points_scored\":")?,
            early_abandons: met("\"early_abandons\":")?,
            query_ns_count: get(&["\"metrics\":{", "\"query_ns\":{", "\"count\":"])?,
            query_ns_sum: get(&["\"metrics\":{", "\"query_ns\":{", "\"sum\":"])?,
            points: get(&["\"points\":"])?,
        })
    }
}

/// The unsigned integer after the last of `anchors`, each searched from
/// where the previous one ended.
fn json_u64(doc: &str, anchors: &[&str]) -> Option<u64> {
    let mut at = 0usize;
    for a in anchors {
        at += doc.get(at..)?.find(a)? + a.len();
    }
    let rest = doc.get(at..)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest.get(..end)?.parse().ok()
}

/// What the timed rounds measured, beyond the per-operation records.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Every operation, in issue order.
    pub records: Vec<Record>,
    /// Latency of each closed-loop k-NN, in ns. Served, one sample per
    /// pipelined burst: its k-NN all complete when the burst returns.
    pub closed_ns: Vec<u64>,
    /// Latency of each write, in ns (served: also the write after each
    /// closed-loop burst).
    pub write_ns: Vec<u64>,
    /// Latency of each paced request from its due time, in ns.
    pub paced_ns: Vec<u64>,
    /// k-NN completed per second of each closed-loop block.
    pub closed_rates: Vec<f64>,
    /// Writes completed per second of each write block.
    pub write_rates: Vec<f64>,
    /// Seconds of the final flush after the last round (served: the
    /// drain-and-flush shutdown).
    pub flush_s: f64,
    /// How late each paced request was issued, in ns.
    pub paced_late_ns: Vec<u64>,
    /// Service time (issue to answer) of each paced k-NN, in ns.
    pub paced_knn_service_ns: Vec<u64>,
    /// Closed-loop requests and ns in traced blocks.
    pub traced: (u64, u64),
    /// Closed-loop requests and ns in untraced blocks.
    pub untraced: (u64, u64),
    /// Counter deltas summed over the closed-loop blocks.
    pub closed: Counters,
    /// Counter deltas summed over the paced blocks.
    pub paced: Counters,
    /// Counter deltas summed over the write blocks.
    pub writes: Counters,
    /// Index bytes before the first write.
    pub bytes_before_writes: u64,
    /// Index bytes after the final flush.
    pub final_bytes: u64,
    /// Live points after the final flush.
    pub final_points: u64,
    /// Error responses from the server.
    pub error_responses: u64,
}

impl PhaseLog {
    /// Record one operation.
    pub fn push(&mut self, phase: Phase, op: Op, answer: Answer) {
        self.records.push(Record { phase, op, answer });
    }

    /// Count a closed-loop block's requests and ns as traced or not.
    fn tally(&mut self, traced: bool, requests: u64, ns: u64) {
        let slot = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        slot.0 += requests;
        slot.1 += ns;
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn per_s(ops: usize, since: Instant) -> f64 {
    ops as f64 / since.elapsed().as_secs_f64()
}

fn rows_answer(r: Result<Vec<Neighbor>, IndexError>) -> Answer {
    match r {
        Ok(rows) => Answer::Rows(rows),
        Err(e) => Answer::Failed(e.to_string()),
    }
}

/// Spin until `due`. Spinning rather than sleeping keeps the generator
/// on its CPU: a sleeping thread wakes late and to cold caches often
/// enough on a shared host to move the paced percentiles by tens of
/// percent between runs.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Due times of a paced block: request `i` at `start + i / rate`.
struct Schedule {
    start: Instant,
    rate: f64,
}

impl Schedule {
    fn new(rate: f64) -> Schedule {
        Schedule {
            start: Instant::now() + Duration::from_millis(1),
            rate,
        }
    }

    fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// Whether closed-loop request (burst, when served) `i` falls in a
/// traced block.
fn traced_block(i: usize) -> bool {
    (i / TRACE_BLOCK).is_multiple_of(2)
}

/// Runs the rounds against an in-process index.
pub struct LocalRunner<'a> {
    /// The index.
    pub index: &'a mut dyn SpatialIndex,
    /// The run's plan.
    pub plan: &'a Plan,
    /// Its inputs.
    pub inputs: &'a Inputs,
    /// The tracer.
    pub tracer: &'a Tracer,
    /// The recorder used while tracing (the untraced run passes `Noop`).
    pub rec: &'a StatsRecorder,
}

impl LocalRunner<'_> {
    fn recorder(&self) -> &dyn Recorder {
        if self.tracer.active() {
            self.rec
        } else {
            &Noop
        }
    }

    fn counters(&self) -> Counters {
        Counters::local(&*self.index, self.rec)
    }

    fn knn(&self, req: usize, op: Op) -> Answer {
        let Op::Knn { q } = op else {
            return Answer::Failed(format!("not a read: {op:?}"));
        };
        let Some(query) = self.inputs.queries.get(q) else {
            return Answer::Failed(format!("no query {q}"));
        };
        let spec = QuerySpec::knn(query.coords(), K);
        let _s = self.tracer.span("tree.query", "", req as u64);
        rows_answer(self.index.query(&spec, self.recorder()).map(|o| o.rows))
    }

    /// Every round, calling `between(r)` after round `r`, then the final
    /// flush.
    pub fn run(
        &mut self,
        ops: &mut OpStream,
        log: &mut PhaseLog,
        between: &mut dyn FnMut(usize) -> Result<(), String>,
    ) -> Result<(), String> {
        log.bytes_before_writes = self.bytes();
        for r in 0..self.plan.rounds {
            self.closed(ops, log);
            self.paced(ops, log);
            self.writes(ops, log)?;
            between(r)?;
        }
        let tf = Instant::now();
        {
            let _s = self.tracer.span("pager.flush", "", 0);
            self.index.flush().map_err(|e| format!("flush: {e}"))?;
        }
        log.flush_s = tf.elapsed().as_secs_f64();
        log.final_bytes = self.bytes();
        log.final_points = self.index.len();
        Ok(())
    }

    fn closed(&mut self, ops: &mut OpStream, log: &mut PhaseLog) {
        let before = self.counters();
        let _phase = self.tracer.span("bench.closed", "", 0);
        let block = Instant::now();
        for _ in 0..self.plan.closed {
            let traced = traced_block(log.closed_ns.len());
            self.tracer.set_active(traced);
            let op = ops.next_read();
            let t0 = Instant::now();
            let answer = self.knn(log.records.len(), op);
            let ns = nanos(t0.elapsed());
            if self.tracer.enabled() {
                log.tally(traced, 1, ns);
            }
            log.closed_ns.push(ns);
            log.push(Phase::Closed, op, answer);
        }
        log.closed_rates.push(per_s(self.plan.closed, block));
        self.tracer.set_active(true);
        log.closed.add(&self.counters().since(&before));
    }

    fn paced(&mut self, ops: &mut OpStream, log: &mut PhaseLog) {
        let before = self.counters();
        let _phase = self.tracer.span("bench.paced", "", 0);
        let sched = Schedule::new(self.plan.paced_rate);
        for i in 0..self.plan.paced {
            let due = sched.due(i);
            wait_until(due);
            let began = Instant::now();
            let op = ops.next_read();
            let answer = self.knn(log.records.len(), op);
            let end = Instant::now();
            log.paced_late_ns.push(nanos(began - due));
            log.paced_knn_service_ns.push(nanos(end - began));
            log.paced_ns.push(nanos(end - due));
            log.push(Phase::Paced, op, answer);
        }
        log.paced.add(&self.counters().since(&before));
    }

    fn writes(&mut self, ops: &mut OpStream, log: &mut PhaseLog) -> Result<(), String> {
        let before = self.counters();
        let _phase = self.tracer.span("bench.writes", "", 0);
        let block = Instant::now();
        for _ in 0..self.plan.writes {
            let op = ops.next_write().ok_or("write stream ran dry")?;
            let t0 = Instant::now();
            let answer = write_one(
                &mut *self.index,
                self.inputs,
                op,
                log.records.len(),
                self.tracer,
            );
            log.write_ns.push(nanos(t0.elapsed()));
            log.push(Phase::Writes, op, answer);
        }
        log.write_rates.push(per_s(self.plan.writes, block));
        log.writes.add(&self.counters().since(&before));
        Ok(())
    }

    fn bytes(&self) -> u64 {
        let pager = self.index.pager();
        pager.num_pages() * pager.page_size() as u64
    }
}

/// Apply one write through `SpatialIndex`.
pub fn write_one(
    tree: &mut dyn SpatialIndex,
    inputs: &Inputs,
    op: Op,
    req: usize,
    tracer: &Tracer,
) -> Answer {
    let (id, insert) = match op {
        Op::Insert { id } => (id, true),
        Op::Delete { id } => (id, false),
        Op::Knn { .. } => return Answer::Failed("not a write".into()),
    };
    let Some(p) = inputs.point(id) else {
        return Answer::Failed(format!("no point {id}"));
    };
    if insert {
        let _s = tracer.span("tree.insert", "", req as u64);
        match tree.insert(p.coords(), id) {
            Ok(()) => Answer::Ack(1),
            Err(e) => Answer::Failed(e.to_string()),
        }
    } else {
        let _s = tracer.span("tree.delete", "", req as u64);
        match tree.delete(p.coords(), id) {
            Ok(found) => Answer::Ack(u64::from(found)),
            Err(e) => Answer::Failed(e.to_string()),
        }
    }
}

/// The wire request for `op`.
pub fn request(inputs: &Inputs, op: Op) -> Result<Request, String> {
    let point = |id: u64| {
        inputs
            .point(id)
            .map(|p| p.coords().to_vec())
            .ok_or_else(|| format!("no point {id}"))
    };
    Ok(match op {
        Op::Knn { q } => Request::Knn {
            query: inputs.queries.get(q).ok_or("no query")?.coords().to_vec(),
            k: K as u32,
        },
        Op::Insert { id } => Request::Insert {
            point: point(id)?,
            data: id,
        },
        Op::Delete { id } => Request::Delete {
            point: point(id)?,
            data: id,
        },
    })
}

/// What a response means to the oracle.
pub fn answer_of(resp: Response) -> Answer {
    match resp {
        Response::Rows(rows) => Answer::Rows(
            rows.iter()
                .map(|r| Neighbor {
                    dist2: r.dist * r.dist,
                    data: r.data,
                })
                .collect(),
        ),
        Response::Ack { n } => Answer::Ack(n),
        Response::Error(e) => Answer::Failed(e.to_string()),
        other => Answer::Failed(format!("unexpected response {other:?}")),
    }
}

fn fatal(e: ServeError) -> String {
    format!("connection failed: {e}")
}

/// Runs the rounds through the server.
pub struct ServedRunner<'a> {
    /// Server, client and page file.
    pub served: &'a mut Served,
    /// The run's plan.
    pub plan: &'a Plan,
    /// Its inputs.
    pub inputs: &'a Inputs,
    /// The tracer.
    pub tracer: &'a Tracer,
}

impl ServedRunner<'_> {
    fn counters(&mut self) -> Result<Counters, String> {
        let doc = self.served.client.stats().map_err(fatal)?;
        Counters::from_stats_json(&doc)
    }

    fn push(&self, log: &mut PhaseLog, phase: Phase, op: Op, resp: Response) {
        if matches!(resp, Response::Error(_)) {
            log.error_responses += 1;
        }
        log.push(phase, op, answer_of(resp));
    }

    /// Every round, calling `between(r)` after round `r`, then the
    /// drain-and-flush shutdown.
    pub fn run(
        &mut self,
        ops: &mut OpStream,
        log: &mut PhaseLog,
        between: &mut dyn FnMut(usize) -> Result<(), String>,
    ) -> Result<(), String> {
        log.bytes_before_writes = file_len(&self.served.path);
        for r in 0..self.plan.rounds {
            self.closed(ops, log)?;
            self.paced(ops, log)?;
            self.writes(ops, log)?;
            between(r)?;
        }
        let _s = self.tracer.span("pager.flush", "serve", 0);
        log.flush_s = self.served.shutdown()?;
        log.final_bytes = file_len(&self.served.path);
        log.final_points = log.writes.points;
        Ok(())
    }

    fn closed(&mut self, ops: &mut OpStream, log: &mut PhaseLog) -> Result<(), String> {
        let before = self.counters()?;
        let _phase = self.tracer.span("bench.closed", "", 0);
        let block = Instant::now();
        for _ in 0..self.plan.closed / BURST_READS {
            let traced = traced_block(log.closed_ns.len());
            self.tracer.set_active(traced);
            let burst: Vec<Op> = (0..BURST_READS).map(|_| ops.next_read()).collect();
            let write = ops.next_write().ok_or("write stream ran dry")?;
            let reqs = burst
                .iter()
                .map(|&op| request(self.inputs, op))
                .collect::<Result<Vec<_>, _>>()?;
            let write_req = request(self.inputs, write)?;
            let req = log.records.len() as u64;
            let t0 = Instant::now();
            let resps = {
                let _s = self.tracer.span("serve.pipeline", "", req);
                self.served.client.pipeline(&reqs).map_err(fatal)?
            };
            let ns = nanos(t0.elapsed());
            let t1 = Instant::now();
            let write_resp = {
                let _s = self
                    .tracer
                    .span("serve.call", "write", req + BURST_READS as u64);
                self.served.client.call(&write_req).map_err(fatal)?
            };
            log.write_ns.push(nanos(t1.elapsed()));
            if self.tracer.enabled() {
                log.tally(traced, BURST_READS as u64, ns);
            }
            log.closed_ns.push(ns);
            for (op, resp) in burst.into_iter().zip(resps) {
                self.push(log, Phase::Closed, op, resp);
            }
            self.push(log, Phase::Closed, write, write_resp);
        }
        log.closed_rates.push(per_s(self.plan.closed, block));
        self.tracer.set_active(true);
        log.closed.add(&self.counters()?.since(&before));
        Ok(())
    }

    fn paced(&mut self, ops: &mut OpStream, log: &mut PhaseLog) -> Result<(), String> {
        let before = self.counters()?;
        let _phase = self.tracer.span("bench.paced", "", 0);
        // k-NN only: with the write mix, one split cascade delayed the
        // requests queued behind it and moved the paced p99 by half
        // between runs; write latency has metrics of its own.
        let mut planned = Vec::with_capacity(self.plan.paced);
        for _ in 0..self.plan.paced {
            let op = ops.next_read();
            planned.push((op, request(self.inputs, op)?));
        }
        let sched = Schedule::new(self.plan.paced_rate);
        for (i, (op, req)) in planned.into_iter().enumerate() {
            let due = sched.due(i);
            wait_until(due);
            let began = Instant::now();
            let resp = {
                let _s = self.tracer.span("serve.call", "", log.records.len() as u64);
                self.served.client.call(&req).map_err(fatal)?
            };
            let end = Instant::now();
            log.paced_late_ns.push(nanos(began - due));
            log.paced_knn_service_ns.push(nanos(end - began));
            log.paced_ns.push(nanos(end - due));
            self.push(log, Phase::Paced, op, resp);
        }
        log.paced.add(&self.counters()?.since(&before));
        Ok(())
    }

    fn writes(&mut self, ops: &mut OpStream, log: &mut PhaseLog) -> Result<(), String> {
        let before = self.counters()?;
        let _phase = self.tracer.span("bench.writes", "", 0);
        let block = Instant::now();
        for _ in 0..self.plan.writes {
            let op = ops.next_write().ok_or("write stream ran dry")?;
            let req = request(self.inputs, op)?;
            let t0 = Instant::now();
            let resp = {
                let _s = self
                    .tracer
                    .span("serve.call", "write", log.records.len() as u64);
                self.served.client.call(&req).map_err(fatal)?
            };
            log.write_ns.push(nanos(t0.elapsed()));
            self.push(log, Phase::Writes, op, resp);
        }
        log.write_rates.push(per_s(self.plan.writes, block));
        log.writes.add(&self.counters()?.since(&before));
        Ok(())
    }
}

/// Size of the file at `path` (0 if it cannot be read).
pub fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_document_fields_are_found_in_their_objects() {
        let doc = "{\"schema_version\":1,\"kind\":\"SR-tree\",\"points\":42,\"dim\":16,\
            \"height\":2,\"page_size\":8192,\"io\":{\"node_reads\":5,\"leaf_reads\":6,\
            \"physical_reads\":1,\"physical_writes\":2,\"cache_hits\":7,\"cache_misses\":1,\
            \"cache_evictions\":0,\"cache_capacity\":9},\"wal\":{\"frames_appended\":3,\
            \"commits\":0,\"truncations\":0,\"replays\":0,\"replayed_frames\":0,\
            \"dropped_frames\":0,\"torn_tails\":0,\"wal_bytes\":900},\"metrics\":{\
            \"node_expansions\":4,\"leaf_expansions\":8,\"points_scored\":99,\
            \"branches_considered\":20,\"prune_events\":10,\"prune_sphere\":6,\
            \"prune_rect\":7,\"early_abandons\":11,\"cache_hits\":1000,\"cache_misses\":0,\
            \"query_ns\":{\"count\":2,\"sum\":5000,\"max\":3000,\"mean\":2500.0,\
            \"p50\":2048,\"p99\":3000}}}";
        let c = Counters::from_stats_json(doc).expect("parse");
        assert_eq!(c.points, 42);
        assert_eq!(c.cache_hits, 7, "io.cache_hits, not metrics.cache_hits");
        assert_eq!(c.knn_reads, 12);
        assert_eq!((c.wal_frames, c.wal_bytes), (3, 900));
        assert_eq!((c.query_ns_count, c.query_ns_sum), (2, 5000));
        assert_eq!((c.prunes, c.prune_sphere, c.prune_rect), (10, 6, 7));
    }
}
