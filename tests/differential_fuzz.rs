//! Tier-1 differential fuzzing: seeded op tapes replayed through the
//! SR-, SS-, R*-, K-D-B-, and VAMSplit trees in lock step with a
//! brute-force oracle. Any divergence in k-NN / range answers or any
//! invariant-checker failure panics with a minimized, copy-pastable
//! `SEED=` reproduction line (see `sr_testkit::failure_report`).
//!
//! Set `SRTREE_FUZZ_SEED` (decimal or `0x`-hex) to replay a reported
//! failure; the fixed default seeds below make CI deterministic.

use sr_testkit::{
    check_answer, faulted_parts, fuzz_case, generate, matches_model, reopen, seed_line, DataDist,
    DiffConfig, DiffReport, Model, Op, OpTape, TreeKind, WorkloadSpec,
};
use srtree::geometry::Point;
use srtree::obs::Noop;
use srtree::pager::{PageFile, PageKind};
use srtree::query::{Neighbor, QuerySpec, SpatialIndex};

/// Per-tape op count. The issue floor is 2,000 ops per tape.
const OPS: usize = 2_000;

fn seed_for(default: u64) -> u64 {
    match std::env::var("SRTREE_FUZZ_SEED") {
        Ok(s) => parse_seed(&s).unwrap_or_else(|| panic!("bad SRTREE_FUZZ_SEED {s:?}")),
        Err(_) => default,
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Every tape must actually exercise all four op kinds and run the
/// invariant checkers — a tape that silently degenerated to inserts
/// would pass while testing nothing.
fn assert_exercised(report: &DiffReport, ops: usize) {
    assert_eq!(report.ops, ops);
    assert!(report.inserts > 0, "tape had no inserts: {report:?}");
    assert!(report.deletes > 0, "tape had no deletes: {report:?}");
    assert!(report.knns > 0, "tape had no k-NN queries: {report:?}");
    assert!(report.ranges > 0, "tape had no range queries: {report:?}");
    assert!(report.verifies > 0, "no verify sweeps ran: {report:?}");
    assert!(
        report.vam_rebuilds > 0,
        "VAMSplit never rebuilt: {report:?}"
    );
}

#[test]
fn uniform_tape_has_no_divergence() {
    let spec = WorkloadSpec::standard(OPS, 6, DataDist::Uniform);
    let report = fuzz_case(&spec, seed_for(0xD1FF_0001), &DiffConfig::default());
    assert_exercised(&report, OPS);
}

#[test]
fn clustered_tape_has_no_divergence() {
    let spec = WorkloadSpec::standard(OPS, 8, DataDist::Clustered);
    let report = fuzz_case(&spec, seed_for(0xD1FF_0002), &DiffConfig::default());
    assert_exercised(&report, OPS);
}

#[test]
fn real_sim_tape_has_no_divergence() {
    let spec = WorkloadSpec::standard(OPS, 4, DataDist::RealSim);
    let report = fuzz_case(&spec, seed_for(0xD1FF_0003), &DiffConfig::default());
    assert_exercised(&report, OPS);
}

/// A smaller page size forces deep trees and frequent splits /
/// underflows, the structurally hardest paths; verify after every 100
/// ops to pin a hypothetical violation close to the op that caused it.
#[test]
fn small_page_tape_has_no_divergence() {
    let spec = WorkloadSpec::standard(1_200, 5, DataDist::Clustered);
    let cfg = DiffConfig {
        page_size: 1536,
        verify_every: 100,
        ..DiffConfig::default()
    };
    let report = fuzz_case(&spec, seed_for(0xD1FF_0004), &cfg);
    assert_eq!(report.ops, 1_200);
    assert!(
        report.verifies >= 12,
        "expected dense verify sweeps: {report:?}"
    );
}

/// Ops between commit barriers in the crash-and-recover arm (prime, so
/// barriers drift relative to the tape's own op mix).
const CRASH_ARM_FLUSH_EVERY: usize = 97;

/// Replay `tape.ops[from..]` through one tree and the oracle in lock
/// step, committing every [`CRASH_ARM_FLUSH_EVERY`] steps. Query
/// answers must match the oracle exactly; a divergence panics with
/// `ctx` (which carries the replayable `SEED=` line). An I/O error
/// stops the replay and returns `(Some(step), pending)`, where
/// `pending` is the oracle snapshot a failing *commit* was writing.
/// `committed` tracks the snapshot at the last successful commit.
fn replay_tape(
    tree: &mut dyn SpatialIndex,
    model: &mut Model,
    tape: &OpTape,
    from: usize,
    committed: &mut Model,
    ctx: &str,
) -> (Option<usize>, Option<Model>) {
    for (step, op) in tape.ops.iter().enumerate().skip(from) {
        match op {
            Op::Insert(p, id) => {
                if tree.insert(p.coords(), *id).is_err() {
                    return (Some(step), None);
                }
                model.insert(p.clone(), *id);
            }
            Op::Delete(p, id) => match tree.delete(p.coords(), *id) {
                Ok(hit) => {
                    let oracle_hit = model.delete(p, *id);
                    assert_eq!(hit, oracle_hit, "step {step}: delete disagreed\n{ctx}");
                }
                Err(_) => return (Some(step), None),
            },
            Op::Knn(q, k) => match tree.knn(q.coords(), *k) {
                Ok(got) => check_answer("crash-arm", &got, &model.knn(q.coords(), *k), true)
                    .unwrap_or_else(|e| panic!("step {step}: {e}\n{ctx}")),
                Err(_) => return (Some(step), None),
            },
            Op::Range(q, r) => match tree.range(q.coords(), *r) {
                Ok(got) => check_answer("crash-arm", &got, &model.range(q.coords(), *r), true)
                    .unwrap_or_else(|e| panic!("step {step}: {e}\n{ctx}")),
                Err(_) => return (Some(step), None),
            },
        }
        if (step + 1) % CRASH_ARM_FLUSH_EVERY == 0 {
            if tree.flush().is_err() {
                return (Some(step), Some(model.clone()));
            }
            *committed = model.clone();
        }
    }
    (None, None)
}

/// Crash-and-recover arm: replay a tape on one dynamic structure
/// (seed-rotated), crash at a seed-derived write mid-tape, reopen from
/// the surviving bytes, roll the oracle back to whichever legal state
/// the WAL recovered (last commit, or the in-flight commit), and
/// continue the remainder of the tape — answers must still match the
/// oracle exactly. The `SEED=` line reproduces the whole schedule:
/// tape, structure choice, crash point, and torn-write prefix.
#[test]
fn crash_mid_tape_recovers_and_continues_matching_oracle() {
    let seed = seed_for(0xD1FF_0005);
    let spec = WorkloadSpec::standard(600, 4, DataDist::Uniform);
    let tape = generate(&spec, seed);
    let kind = TreeKind::DYNAMIC[(seed % 4) as usize];
    let ctx = format!("structure={} {}", kind.kind_name(), seed_line(&tape));
    let probes: Vec<Point> = tape
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Insert(p, _) => Some(p.clone()),
            _ => None,
        })
        .take(5)
        .collect();

    // Clean run: learn how many writes the schedule performs before and
    // after the baseline commit, so the crash point always lands
    // mid-tape (creation crashes are tests/crash_recovery.rs territory).
    let (store, log, handle, _shared) = faulted_parts(2048);
    let pf = PageFile::create_from_parts(store, log).unwrap();
    let mut tree = kind.create(pf, tape.dim, 64).unwrap();
    tree.flush().unwrap();
    let writes_at_baseline = handle.stats().writes;
    let mut model = Model::new();
    let mut committed = Model::new();
    let (crashed, _) = replay_tape(tree.as_mut(), &mut model, &tape, 0, &mut committed, &ctx);
    assert!(crashed.is_none(), "clean run errored\n{ctx}");
    let total_writes = handle.stats().writes;
    assert!(
        total_writes > writes_at_baseline + 10,
        "tape too small\n{ctx}"
    );
    drop(tree);

    // Armed run: crash at a seed-derived write with a seed-derived torn
    // prefix, somewhere strictly after the baseline commit.
    let crash_write = writes_at_baseline + seed % (total_writes - writes_at_baseline);
    let keep = match seed % 4 {
        0 => 0,
        1 => 9,
        2 => 1024,
        _ => usize::MAX,
    };
    let (store, log, handle, shared) = faulted_parts(2048);
    handle.crash_at_write(crash_write, keep);
    let pf = PageFile::create_from_parts(store, log).unwrap();
    let mut tree = kind.create(pf, tape.dim, 64).unwrap();
    tree.flush().unwrap();
    let mut model = Model::new();
    let mut committed = Model::new();
    let (crashed_at, pending) =
        replay_tape(tree.as_mut(), &mut model, &tape, 0, &mut committed, &ctx);
    let crashed_at = crashed_at
        .unwrap_or_else(|| panic!("armed crash at write {crash_write} never fired\n{ctx}"));
    assert!(
        handle.crashed(),
        "run errored without the latch firing\n{ctx}"
    );
    drop(tree);

    // Restart: reopen the surviving bytes and identify which legal
    // state the WAL recovered.
    let pf = reopen(&shared)
        .unwrap_or_else(|e| panic!("reopen after crash at step {crashed_at}: {e}\n{ctx}"));
    let mut tree = TreeKind::open(pf)
        .unwrap_or_else(|e| panic!("open after crash at step {crashed_at}: {e}\n{ctx}"));
    let mut candidates = vec![("committed", committed.clone())];
    if let Some(p) = pending {
        candidates.push(("pending", p));
    }
    let mut model = None;
    let mut failures = Vec::new();
    for (label, cand) in candidates {
        match matches_model(tree.as_ref(), &cand, &probes, 5, 0.6) {
            Ok(()) => {
                model = Some(cand);
                break;
            }
            Err(e) => failures.push(format!("vs {label}: {e}")),
        }
    }
    let mut model = model.unwrap_or_else(|| {
        panic!(
            "recovered state after crash at step {crashed_at} matches no legal state: {}\n{ctx}",
            failures.join("; ")
        )
    });

    // Continue the rest of the tape on the recovered tree; the oracle
    // was rolled back to the recovered state, so agreement must hold
    // all the way to the end.
    let mut committed = model.clone();
    let (crashed, _) = replay_tape(
        tree.as_mut(),
        &mut model,
        &tape,
        crashed_at,
        &mut committed,
        &ctx,
    );
    assert!(
        crashed.is_none(),
        "continuation errored after recovery\n{ctx}"
    );
    tree.flush()
        .unwrap_or_else(|e| panic!("final flush: {e}\n{ctx}"));
    matches_model(tree.as_ref(), &model, &probes, 5, 0.6)
        .unwrap_or_else(|e| panic!("end state diverged from oracle: {e}\n{ctx}"));
}

/// Best-first arm: replay a tape on each dynamic tree, and bulk-load the
/// VAMSplit R-tree once from the tape's points, answering every k-NN op
/// in both search orders. The rows must be identical — ids, order and
/// distance bits — and best-first must read no more node and leaf pages
/// than depth-first, since it expands only regions within the final k-th
/// distance, all of which depth-first expands too.
#[test]
fn best_first_matches_depth_first_and_reads_no_more() {
    let seed = seed_for(0xD1FF_0006);
    let tape = generate(&WorkloadSpec::standard(OPS, 6, DataDist::Clustered), seed);
    let ctx = seed_line(&tape);
    let (page, data_area) = (2048, 64);
    let mut knns = 0;
    for kind in TreeKind::DYNAMIC {
        let pf = PageFile::create_in_memory(page).unwrap();
        let mut tree = kind.create(pf, tape.dim, data_area).unwrap();
        for (step, op) in tape.ops.iter().enumerate() {
            match op {
                Op::Insert(p, id) => tree.insert(p.coords(), *id).unwrap(),
                Op::Delete(p, id) => {
                    tree.delete(p.coords(), *id).unwrap();
                }
                Op::Knn(q, k) => {
                    let at = format!("{} step {step}", kind.kind_name());
                    both_orders_agree(tree.as_ref(), q.coords(), *k, &at, &ctx);
                    knns += 1;
                }
                Op::Range(..) => {}
            }
        }
    }
    let points: Vec<(Point, u64)> = (tape.ops.iter())
        .filter_map(|op| match op {
            Op::Insert(p, id) => Some((p.clone(), *id)),
            _ => None,
        })
        .collect();
    let pf = PageFile::create_in_memory(page).unwrap();
    let vam = TreeKind::Vam
        .build(pf, tape.dim, data_area, points)
        .unwrap();
    for (step, op) in tape.ops.iter().enumerate() {
        if let Op::Knn(q, k) = op {
            let at = format!("vam step {step}");
            both_orders_agree(vam.as_ref(), q.coords(), *k, &at, &ctx);
        }
    }
    assert!(knns > 0, "tape had no k-NN queries\n{ctx}");
}

/// Answer one k-NN query best-first (the served order) and depth-first,
/// requiring bit-identical rows and no more best-first page reads.
fn both_orders_agree(tree: &dyn SpatialIndex, q: &[f32], k: usize, at: &str, ctx: &str) {
    let reads = || {
        let io = tree.pager().stats();
        io.logical_reads(PageKind::Node) + io.logical_reads(PageKind::Leaf)
    };
    let rows = |v: Vec<Neighbor>| {
        v.iter()
            .map(|n| (n.data, n.dist2.to_bits()))
            .collect::<Vec<_>>()
    };
    tree.pager().reset_stats();
    let bf = rows(tree.knn(q, k).unwrap());
    let bf_reads = reads();
    tree.pager().reset_stats();
    let depth_first = QuerySpec::knn(q, k).depth_first();
    let df = rows(tree.query(&depth_first, &Noop).unwrap().rows);
    let df_reads = reads();
    assert_eq!(bf, df, "{at}: rows differ\n{ctx}");
    assert!(
        bf_reads <= df_reads,
        "{at}: best-first read {bf_reads} pages, depth-first {df_reads}\n{ctx}"
    );
}

#[test]
fn failure_output_carries_replayable_seed_line() {
    let tape = generate(&WorkloadSpec::standard(50, 4, DataDist::Clustered), 0xBEEF);
    let line = seed_line(&tape);
    assert!(line.contains("SEED=0xbeef"), "not copy-pastable: {line}");
    assert!(
        line.contains("srtool fuzz --seed 0xbeef --ops 50 --dim 4 --dist cluster"),
        "replay command drifted from the CLI grammar: {line}"
    );
}
