//! Exhaustive crash-point recovery: the proving suite for the pager's
//! write-ahead log.
//!
//! For a seeded insert/delete workload on each of the five structures,
//! a clean run first counts every store/log write and every fsync the
//! workload performs. The suite then re-runs the identical workload
//! once per I/O point, crashing at that point — writes are torn to a
//! configurable byte prefix (empty, mid-frame-header, half a page,
//! or fully persisted) and every subsequent I/O fails, modelling a
//! process death. The surviving bytes are reopened like a process
//! restart (WAL scan, torn-tail discard, committed-frame replay) and
//! the recovered tree must answer k-NN and range probes *oracle
//! exactly* against one of the two legal states:
//!
//! * the last committed snapshot (crash between commits rolls forward
//!   to the checkpoint barrier), or
//! * the snapshot a crashed-in-flight commit was writing (a commit is
//!   atomic: it either landed entirely or not at all — never a blend).
//!
//! A typed open failure is acceptable only when *no* tree state was
//! ever durably committed (the crash hit creation itself).

use sr_testkit::{faulted_parts, matches_model, reopen, FaultHandle, Model, TreeKind};
use srtree::dataset::{sample_queries, uniform};
use srtree::geometry::Point;
use srtree::pager::{LogStore, PageFile, PageStore};
use srtree::query::IndexError;

const DIM: usize = 4;
const PAGE: usize = 1024;
const DATA_AREA: usize = 64;
/// Points per workload. Small enough that crashing at every single I/O
/// point stays fast, large enough to force splits in every structure.
const N: usize = 56;
/// Ops between commits — several commit barriers per run, with real
/// uncommitted tails in between.
const FLUSH_EVERY: usize = 12;
const K: usize = 4;
const RADIUS: f64 = 0.45;
const SEED: u64 = 0xC4A5;
/// Small pool so recovered reads exercise both WAL-read and store-read
/// paths instead of staying cache-resident.
const CACHE_PAGES: usize = 8;

/// One step of the scripted workload (indices into the point set).
#[derive(Clone, Copy, Debug)]
enum WlOp {
    Insert(usize),
    Delete(usize),
    Flush,
}

/// Deterministic insert/delete/flush tape: every point inserted, every
/// fourth step deletes an earlier (odd) id exactly once, and a commit
/// barrier lands every `FLUSH_EVERY` inserts plus one at the end.
fn script(n: usize) -> Vec<WlOp> {
    let mut ops = Vec::new();
    for i in 0..n {
        ops.push(WlOp::Insert(i));
        if i % 4 == 3 {
            ops.push(WlOp::Delete(i / 2));
        }
        if (i + 1) % FLUSH_EVERY == 0 {
            ops.push(WlOp::Flush);
        }
    }
    ops.push(WlOp::Flush);
    ops
}

/// What a (possibly crashed) run left behind, oracle-side.
struct Outcome {
    /// Oracle snapshot at the last flush that returned `Ok` — the state
    /// recovery must roll forward to. `None` if no commit ever completed.
    committed: Option<Model>,
    /// Oracle snapshot a *failing* flush was trying to commit. The
    /// in-flight commit may or may not have reached the log before the
    /// crash, so this is the second legal recovery target.
    pending: Option<Model>,
    /// Whether the run hit an error (every armed run must).
    errored: bool,
}

/// Drive the scripted workload over a faulted store pair, mirroring
/// every successful op into the oracle and snapshotting it at commits.
fn run_dynamic(
    kind: TreeKind,
    points: &[Point],
    ops: &[WlOp],
    store: Box<dyn PageStore>,
    log: Box<dyn LogStore>,
) -> Outcome {
    let mut model = Model::new();
    let mut committed: Option<Model> = None;
    let pf = match PageFile::create_from_parts(store, log) {
        Ok(pf) => pf,
        Err(_) => {
            return Outcome {
                committed,
                pending: Some(Model::new()),
                errored: true,
            }
        }
    };
    let _ = pf.set_cache_capacity(CACHE_PAGES);
    let mut tree = match kind.create(pf, DIM, DATA_AREA) {
        Ok(t) => t,
        Err(_) => {
            return Outcome {
                committed,
                pending: Some(Model::new()),
                errored: true,
            }
        }
    };
    // Baseline commit: the empty tree becomes the first durable state.
    if tree.flush().is_err() {
        return Outcome {
            committed,
            pending: Some(model),
            errored: true,
        };
    }
    committed = Some(model.clone());
    for op in ops {
        match *op {
            WlOp::Insert(i) => {
                if tree.insert(points[i].coords(), i as u64).is_err() {
                    return Outcome {
                        committed,
                        pending: None,
                        errored: true,
                    };
                }
                model.insert(points[i].clone(), i as u64);
            }
            WlOp::Delete(i) => match tree.delete(points[i].coords(), i as u64) {
                Ok(hit) => {
                    let oracle_hit = model.delete(&points[i], i as u64);
                    assert_eq!(
                        hit,
                        oracle_hit,
                        "{}: delete({i}) disagreed with oracle",
                        kind.kind_name()
                    );
                }
                Err(_) => {
                    return Outcome {
                        committed,
                        pending: None,
                        errored: true,
                    }
                }
            },
            WlOp::Flush => {
                if tree.flush().is_err() {
                    return Outcome {
                        committed,
                        pending: Some(model),
                        errored: true,
                    };
                }
                committed = Some(model.clone());
            }
        }
    }
    Outcome {
        committed,
        pending: None,
        errored: false,
    }
}

/// Drive `kind`'s workload: the scripted ops for a dynamic tree, the
/// bulk build for the VAMSplit R-tree.
fn run(
    kind: TreeKind,
    points: &[Point],
    ops: &[WlOp],
    store: Box<dyn PageStore>,
    log: Box<dyn LogStore>,
) -> Outcome {
    match kind {
        TreeKind::Vam => run_vam(points, store, log),
        _ => run_dynamic(kind, points, ops, store, log),
    }
}

/// Which I/O point a run crashes at.
#[derive(Clone, Copy, Debug)]
enum CrashPoint {
    /// Crash at the nth write, keeping only a byte prefix of it.
    Write(u64, usize),
    /// Fail the nth sync (fsync barrier) and latch.
    Sync(u64),
}

fn arm(handle: &FaultHandle, point: CrashPoint) {
    match point {
        CrashPoint::Write(w, keep) => handle.crash_at_write(w, keep),
        CrashPoint::Sync(s) => handle.crash_at_sync(s),
    }
}

/// Cycle the torn-write prefix through the interesting shapes: nothing
/// persisted, a cut inside the 17-byte frame header, a cut inside the
/// payload, and the full write persisted before the latch.
fn keep_for(w: u64) -> usize {
    match w % 4 {
        0 => 0,
        1 => 9,
        2 => PAGE / 2,
        _ => usize::MAX,
    }
}

/// Crash one run at `point`, reopen, and check recovery.
fn check_crash_point(
    kind: TreeKind,
    points: &[Point],
    ops: &[WlOp],
    queries: &[Point],
    point: CrashPoint,
) {
    let (store, log, handle, shared) = faulted_parts(PAGE);
    arm(&handle, point);
    let outcome = run(kind, points, ops, store, log);
    assert!(
        outcome.errored && handle.crashed(),
        "{} {point:?}: armed crash never fired",
        kind.kind_name()
    );
    // The "process" is dead; reopen from the surviving bytes. The open
    // replays committed WAL frames and discards the torn tail.
    let pf = match reopen(&shared) {
        Ok(pf) => pf,
        Err(e) => {
            assert!(
                outcome.committed.is_none(),
                "{} {point:?}: store unreadable after a committed state existed: {e}",
                kind.kind_name()
            );
            return;
        }
    };
    let _ = pf.set_cache_capacity(CACHE_PAGES);
    let tree = match TreeKind::open(pf) {
        Ok(t) => t,
        Err(e) => {
            assert!(
                outcome.committed.is_none(),
                "{} {point:?}: tree unopenable after a committed state existed: {e}",
                kind.kind_name()
            );
            return;
        }
    };
    assert_eq!(
        tree.kind_name(),
        kind.kind_name(),
        "{point:?}: reopened as another kind"
    );
    let mut failures = Vec::new();
    for (label, cand) in [
        ("committed", &outcome.committed),
        ("pending", &outcome.pending),
    ] {
        if let Some(m) = cand {
            match matches_model(tree.as_ref(), m, queries, K, RADIUS) {
                Ok(()) => return,
                Err(e) => failures.push(format!("vs {label} ({} pts): {e}", m.len())),
            }
        }
    }
    panic!(
        "{} {point:?}: recovered tree (len {}) matches no legal state: {}",
        kind.kind_name(),
        tree.len(),
        failures.join("; ")
    );
}

/// Count the workload's I/O points with a clean (unfaulted) run, then
/// crash at every single one of them.
fn crash_sweep(kind: TreeKind) {
    let points = uniform(N, DIM, SEED);
    let queries = sample_queries(&points, 6, SEED ^ 0x9E37_79B9);
    let ops = script(N);

    let (store, log, handle, _shared) = faulted_parts(PAGE);
    let clean = run(kind, &points, &ops, store, log);
    assert!(
        !clean.errored,
        "{}: clean run must not error",
        kind.kind_name()
    );
    let io = handle.stats();
    // The VAMSplit build commits once; the dynamic script every
    // FLUSH_EVERY inserts.
    let (min_writes, min_syncs) = match kind {
        TreeKind::Vam => (10, 0),
        _ => (20, 3),
    };
    assert!(
        io.writes > min_writes && io.syncs > min_syncs,
        "{}: workload too small to be interesting ({io:?})",
        kind.kind_name()
    );

    eprintln!(
        "{}: sweeping {} writes + {} syncs",
        kind.kind_name(),
        io.writes,
        io.syncs
    );
    for w in 0..io.writes {
        check_crash_point(
            kind,
            &points,
            &ops,
            &queries,
            CrashPoint::Write(w, keep_for(w)),
        );
    }
    for s in 0..io.syncs {
        check_crash_point(kind, &points, &ops, &queries, CrashPoint::Sync(s));
    }
}

#[test]
fn sr_tree_recovers_from_every_crash_point() {
    crash_sweep(TreeKind::Sr);
}

#[test]
fn ss_tree_recovers_from_every_crash_point() {
    crash_sweep(TreeKind::Ss);
}

#[test]
fn rstar_tree_recovers_from_every_crash_point() {
    crash_sweep(TreeKind::Rstar);
}

#[test]
fn kdb_tree_recovers_from_every_crash_point() {
    crash_sweep(TreeKind::Kdb);
}

#[test]
fn vam_tree_recovers_from_every_crash_point() {
    crash_sweep(TreeKind::Vam);
}

/// Drive the VAMSplit build over a faulted store pair. The static tree
/// has a single commit (the post-build flush), so a crashed build leaves
/// nothing committed and the full point set pending: a recovered open
/// either fails typed or serves the full build.
fn run_vam(points: &[Point], store: Box<dyn PageStore>, log: Box<dyn LogStore>) -> Outcome {
    let mut full = Model::new();
    for (i, p) in points.iter().enumerate() {
        full.insert(p.clone(), i as u64);
    }
    let built = PageFile::create_from_parts(store, log)
        .map_err(IndexError::from)
        .and_then(|pf| {
            let _ = pf.set_cache_capacity(CACHE_PAGES);
            TreeKind::Vam.build(pf, DIM, DATA_AREA, full.live.clone())
        })
        .and_then(|tree| tree.flush());
    let errored = built.is_err();
    Outcome {
        committed: (!errored).then(|| full.clone()),
        pending: errored.then_some(full),
        errored,
    }
}
