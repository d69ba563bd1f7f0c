//! The system under test: set-up (generate, build, open) and the two
//! ways a run reaches the index — in process through `SpatialIndex`, or
//! through `sr_serve` on loopback.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sr_geometry::Point;
use sr_obs::Noop;
use sr_pager::{FilePageStore, MemLogStore, PageFile};
use sr_query::{QuerySpec, SpatialIndex};
use sr_serve::{Client, ServeConfig, Server};
use sr_tree::SrTree;

use crate::ops::Inputs;
use crate::plan::{Plan, Pool, DATA_AREA, DIM, K, PAGE_SIZE};
use crate::trace::Tracer;

/// Pool capacity that holds any index this benchmark builds.
pub const WHOLE_POOL_PAGES: usize = 1 << 20;
/// Ageing inserts between checkpoints (bounds the in-memory log).
const AGE_FLUSH_EVERY: usize = 100;

/// `points` paired with their payload ids `0..`.
fn with_ids(points: &[Point]) -> Vec<(Point, u64)> {
    points.iter().cloned().zip(0u64..).collect()
}

/// An index behind a running server.
pub struct Served {
    /// The server; `None` once shut down.
    pub server: Option<Server>,
    /// The load generator's one connection.
    pub client: Client,
    /// The page file the server owns.
    pub path: PathBuf,
}

/// How a run reaches its index.
pub enum Access {
    /// In process.
    Local(Box<dyn SpatialIndex>),
    /// Through the TCP service.
    Served(Served),
}

impl Access {
    /// Shut down a server (draining and flushing it) and wait for it.
    /// Local indexes flush when dropped.
    pub fn close(self) -> Result<(), String> {
        match self {
            Access::Local(_) => Ok(()),
            Access::Served(mut s) => s.shutdown().map(|_| ()),
        }
    }
}

impl Served {
    /// Ask the server to drain and flush, then wait for it to exit.
    /// Returns the seconds that took.
    pub fn shutdown(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        if let Some(server) = self.server.take() {
            server.wait().map_err(|e| format!("server exit: {e}"))?;
        }
        Ok(t.elapsed().as_secs_f64())
    }
}

/// Seconds spent in each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTiming {
    /// Generating the inputs.
    pub generate_s: f64,
    /// Building the index (and flushing it).
    pub build_s: f64,
    /// Opening it, sizing the pool, starting the server, warming up.
    pub open_s: f64,
}

impl SetupTiming {
    /// Whole set-up.
    pub fn total(&self) -> f64 {
        self.generate_s + self.build_s + self.open_s
    }
}

fn remove_index(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(sr_pager::wal_file_path(path));
}

fn page_file(plan: &Plan, path: &Path) -> Result<PageFile, String> {
    let pf = if plan.file_backed {
        remove_index(path);
        PageFile::create_with_page_size(path, PAGE_SIZE)
    } else {
        PageFile::create_in_memory(PAGE_SIZE)
    };
    pf.map_err(|e| format!("page file {}: {e}", path.display()))
}

fn pool_pages(pool: Pool, pages: u64) -> usize {
    match pool {
        Pool::Whole => WHOLE_POOL_PAGES,
        Pool::Fraction(n) => (pages as usize / n.max(1)).max(1),
    }
}

fn warm_up(index: &dyn SpatialIndex, inputs: &Inputs, count: usize) -> Result<(), String> {
    for q in inputs.queries.iter().cycle().take(count) {
        index
            .query(&QuerySpec::knn(q.coords(), K), &Noop)
            .map_err(|e| format!("warm-up query: {e}"))?;
    }
    Ok(())
}

/// One set-up: generate the inputs from `seed`, build the index, open
/// it. Index files go under `dir`.
pub fn set_up(
    plan: &Plan,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
) -> Result<(Inputs, Access, SetupTiming), String> {
    let mut timing = SetupTiming::default();
    let t = Instant::now();
    let inputs = {
        let _s = tracer.span("setup.generate", "", 0);
        Inputs::generate(plan, seed)
    };
    timing.generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let path = dir.join("index.pages");
    let built = {
        let _s = tracer.span("setup.build", "", 0);
        build(plan, &inputs, &path)?
    };
    timing.build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let access = {
        let _s = tracer.span("setup.open", "", 0);
        open(plan, &inputs, built, path)?
    };
    timing.open_s = t.elapsed().as_secs_f64();
    Ok((inputs, access, timing))
}

fn build(plan: &Plan, inputs: &Inputs, path: &Path) -> Result<SrTree, String> {
    let pf = if plan.aged > 0 {
        // The ageing inserts log to memory and checkpoint every
        // AGE_FLUSH_EVERY inserts: logged to the file, they would write
        // hundreds of MB of WAL per set-up.
        remove_index(path);
        let store = FilePageStore::create(path, PAGE_SIZE).map_err(|e| format!("store: {e}"))?;
        PageFile::create_from_parts(Box::new(store), Box::new(MemLogStore::new()))
            .map_err(|e| format!("page file {}: {e}", path.display()))?
    } else {
        page_file(plan, path)?
    };
    let mut tree = SrTree::create_from(pf, DIM, DATA_AREA).map_err(|e| format!("create: {e}"))?;
    let split = inputs.base.len().saturating_sub(plan.aged);
    let (bulk, aged) = inputs.base.split_at(split);
    tree.bulk_load(with_ids(bulk))
        .map_err(|e| format!("bulk load: {e}"))?;
    for (i, (p, id)) in aged.iter().zip(split as u64..).enumerate() {
        tree.insert(p.clone(), id)
            .map_err(|e| format!("ageing insert: {e}"))?;
        if i % AGE_FLUSH_EVERY == AGE_FLUSH_EVERY - 1 {
            tree.flush().map_err(|e| format!("flush: {e}"))?;
        }
    }
    tree.flush().map_err(|e| format!("flush: {e}"))?;
    Ok(tree)
}

fn open(plan: &Plan, inputs: &Inputs, built: SrTree, path: PathBuf) -> Result<Access, String> {
    let index: Box<dyn SpatialIndex> = if plan.file_backed {
        // Close the freshly built file and reopen it, so queries start
        // from the page file alone.
        drop(built);
        Box::new(SrTree::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?)
    } else {
        Box::new(built)
    };
    let pager = index.pager();
    pager
        .set_cache_capacity(pool_pages(plan.pool, pager.num_pages()))
        .map_err(|e| format!("pool: {e}"))?;
    if !plan.served {
        warm_up(index.as_ref(), inputs, plan.warmup)?;
        return Ok(Access::Local(index));
    }
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(index, cfg).map_err(|e| format!("serve: {e}"))?;
    let mut client =
        Client::connect(&server.local_addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    for q in inputs.queries.iter().cycle().take(plan.warmup) {
        client
            .knn(q.coords(), K as u32)
            .map_err(|e| format!("warm-up query: {e}"))?;
    }
    Ok(Access::Served(Served {
        server: Some(server),
        client,
        path,
    }))
}
