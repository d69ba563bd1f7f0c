//! The repository benchmark: three workloads over the SR-tree stack,
//! each reporting end-to-end metrics from an untraced run and per-layer
//! metrics from a traced run. See `README.md` beside this crate.
//!
//! The benchmark measures every layer from outside: it times its own
//! calls into each crate's public functions and reads the counters those
//! crates expose (`IoStats`, `WalStats`, `StatsRecorder`, the server's
//! `Stats` document). All load comes from one thread and at most one
//! connection.

pub mod affinity;
pub mod ops;
pub mod oracle;
pub mod plan;
pub mod probes;
pub mod report;
pub mod runner;
pub mod stats;
pub mod sut;
pub mod trace;

use std::path::{Path, PathBuf};

use sr_obs::StatsRecorder;
use sr_pager::PageFile;
use sr_query::SpatialIndex;
use sr_tree::{SrParams, SrTree};

use crate::ops::{Inputs, Op, OpStream};
use crate::oracle::{Answer, Verdict};
use crate::plan::{Plan, DATA_AREA, DIM, WRITE_PROBE};
use crate::report::{Layers, Metric};
use crate::runner::{LocalRunner, PhaseLog, ServedRunner};
use crate::sut::{Access, SetupTiming};
use crate::trace::Tracer;

/// k-NN calls in the serve probe of workloads that are not served.
const SERVE_PROBE_CALLS: usize = 64;
/// Points per tree in the per-kind probe.
const KIND_PROBE_POINTS: usize = 1000;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Sizes and workload.
    pub plan: Plan,
    /// Input seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Directory for index files and span files.
    pub work_root: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Oracle tally.
    pub verdict: Verdict,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// The span file of a traced run.
    pub spans: Option<PathBuf>,
}

/// A per-run directory, removed with everything in it when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(path: PathBuf) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("work dir {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The run header: what a reader needs to compare two result lines.
pub fn header(cfg: &RunConfig) -> String {
    let p = &cfg.plan;
    let nproc = affinity::cpus();
    format!(
        "# perfbench workload={} seed={} trace={} nproc={nproc} n={} dim={DIM} queries={} \
         rounds={} per_round=closed:{},paced:{}@{}/s,writes:{} setup_reps={} index_files={}",
        p.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        p.n,
        p.queries,
        p.rounds,
        p.closed,
        p.paced,
        p.paced_rate,
        p.writes,
        p.setup_reps,
        if p.file_backed {
            format!(
                "{} (in the run directory, not tmpfs)",
                cfg.work_root.display()
            )
        } else {
            "none (in-memory pager)".to_string()
        },
    )
}

/// Run one workload: set up, run the timed rounds with further timed
/// set-ups spread between them, check every answer, and compute the
/// metrics.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let plan = &cfg.plan;
    let tracer = Tracer::new(cfg.trace);
    let pin = affinity::Pin::first_cpu();
    let work = WorkDir::create(cfg.work_root.join(format!(
        "{}-{}",
        plan.workload.name(),
        std::process::id()
    )))?;
    let spare = work.0.join("spare");
    std::fs::create_dir_all(&spare).map_err(|e| format!("work dir {}: {e}", spare.display()))?;

    let (inputs, mut access, first) = sut::set_up(plan, cfg.seed, &work.0, &tracer)?;
    let mut setups: Vec<SetupTiming> = vec![first];
    let setup_after = plan.setup_after();
    // A further set-up after some rounds: timed like the first, then
    // closed and discarded.
    let mut between = |round: usize| -> Result<(), String> {
        for _ in setup_after.iter().filter(|&&r| r == round) {
            let (_, spare_access, timing) = sut::set_up(plan, cfg.seed, &spare, &tracer)?;
            Access::close(spare_access)?;
            setups.push(timing);
        }
        Ok(())
    };

    let rec = StatsRecorder::new();
    let mut ops = OpStream::new(plan, &inputs, cfg.seed);
    let mut log = PhaseLog::default();
    match &mut access {
        Access::Local(index) => LocalRunner {
            index: index.as_mut(),
            plan,
            inputs: &inputs,
            tracer: &tracer,
            rec: &rec,
        }
        .run(&mut ops, &mut log, &mut between)?,
        Access::Served(served) => ServedRunner {
            served,
            plan,
            inputs: &inputs,
            tracer: &tracer,
        }
        .run(&mut ops, &mut log, &mut between)?,
    }
    // The oracle is not timed and may use both CPUs.
    drop(pin);
    let verdict = {
        let _s = tracer.span("bench.oracle", "", 0);
        oracle::check(&log.records, &inputs)
    };

    if !cfg.trace {
        let metrics = report::end_to_end(&setups, &log, &verdict);
        return Ok(Outcome {
            verdict,
            metrics,
            spans: None,
        });
    }

    let layers = {
        let _pin = affinity::Pin::first_cpu();
        let _s = tracer.span("bench.probes", "", 0);
        layers(plan, access, &inputs, &log, &tracer)?
    };
    let metrics = report::per_layer(&setups, &log, &layers);
    let spans = cfg.work_root.join(format!(
        "spans-{}-seed{}.jsonl",
        plan.workload.name(),
        cfg.seed
    ));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("span file {}: {e}", spans.display()))?;
    drop(work);
    Ok(Outcome {
        verdict,
        metrics,
        spans: Some(spans),
    })
}

fn fanouts(pf: &PageFile) -> (usize, usize) {
    let p = SrParams::derive(pf.capacity(), DIM, DATA_AREA);
    (p.max_leaf, p.max_node)
}

/// Insert the last [`WRITE_PROBE`] fresh points, which the run never
/// writes, then delete them again, through `SpatialIndex` (spans
/// `tree.insert` and `tree.delete`).
fn write_probe(
    index: &mut dyn SpatialIndex,
    inputs: &Inputs,
    tracer: &Tracer,
) -> Result<(), String> {
    let end = (inputs.base.len() + inputs.fresh.len()) as u64;
    let ids = end.saturating_sub(WRITE_PROBE as u64)..end;
    let inserts = ids.clone().map(|id| Op::Insert { id });
    let deletes = ids.map(|id| Op::Delete { id });
    for (req, op) in inserts.chain(deletes).enumerate() {
        match runner::write_one(index, inputs, op, req, tracer) {
            Answer::Ack(1) => {}
            other => return Err(format!("write probe {op:?}: {other:?}")),
        }
    }
    Ok(())
}

/// Gather the probe and shape numbers of a traced run. Consumes the
/// access: the serve probe hands the index to a server.
fn layers(
    plan: &Plan,
    access: Access,
    inputs: &Inputs,
    log: &PhaseLog,
    tracer: &Tracer,
) -> Result<Layers, String> {
    let wire = probes::wire(inputs, &log.records, tracer)?;
    let mut index = match access {
        Access::Local(index) => index,
        Access::Served(served) => {
            // The server has shut down; reopen its file for the probes.
            let tree = SrTree::open(&served.path).map_err(|e| format!("reopen: {e}"))?;
            tree.pager()
                .set_cache_capacity(sut::WHOLE_POOL_PAGES)
                .map_err(|e| e.to_string())?;
            Box::new(tree) as Box<dyn SpatialIndex>
        }
    };
    let height = f64::from(index.height());
    let leaf_pages = index.num_leaves().map_err(|e| e.to_string())? as f64;
    let (leaf_fanout, node_fanout) = fanouts(index.pager());
    let (kernel_ns, bound_ns) = probes::geometry(inputs, leaf_fanout, node_fanout);
    let (hit_ns, miss_ns) = probes::pager(index.pager())?;
    let exec_us = probes::exec_overhead(index.as_ref(), inputs, tracer)?;
    let kinds = probes::kinds(inputs, KIND_PROBE_POINTS);

    let query_us = if plan.served {
        let mut q = log.closed;
        q.add(&log.paced);
        stats::ratio(q.query_ns_sum as f64, q.query_ns_count as f64) / 1e3
    } else {
        tracer.mean_us("tree.query", "").0
    };
    write_probe(index.as_mut(), inputs, tracer)?;
    let serve = if plan.served {
        let knn_service: Vec<f64> = log
            .paced_knn_service_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        (
            query_us,
            stats::mean(&knn_service) - query_us,
            log.error_responses,
        )
    } else {
        probes::serve(index, inputs, SERVE_PROBE_CALLS, tracer)?
    };
    Ok(Layers {
        height,
        leaf_pages,
        query_us,
        insert_us: tracer.mean_us("tree.insert", "").0,
        delete_us: tracer.mean_us("tree.delete", "").0,
        kinds,
        kernel_ns,
        bound_ns,
        hit_ns,
        miss_ns,
        exec_us,
        wire,
        serve,
    })
}

/// Where runs put index files and span files, relative to the directory
/// the benchmark runs in.
pub fn default_work_root() -> &'static Path {
    Path::new(".bench_work")
}
