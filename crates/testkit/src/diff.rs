//! The differential executor: one op tape, five index structures, one
//! oracle.
//!
//! Every operation on the tape is applied to the four dynamic trees of
//! [`TreeKind::DYNAMIC`] and to the brute-force [`Model`]; queries must
//! agree with the oracle to within floating-point tolerance (and, thanks
//! to the deterministic tie-breaking shared by all structures, in their
//! id lists too). The VAMSplit R-tree is build-only, so it is rebuilt
//! from the model's live set on a configurable query cadence and checked
//! the same way. Each crate's invariant `verify` runs at a configurable
//! interval.
//!
//! On divergence the executor returns a [`Divergence`] naming the step,
//! the structure, and the disagreement; [`minimize`] shrinks the tape to
//! a (locally) minimal failing subsequence, and [`failure_report`]
//! renders both plus the copy-pastable `SEED=` replay line.

use sr_obs::Noop;
use sr_pager::PageFile;
use sr_query::paged::DEFAULT_DATA_AREA;
use sr_query::{Neighbor, QuerySpec, SpatialIndex};

use crate::model::Model;
use crate::workload::{Op, OpTape};
use crate::TreeKind;

/// Distance-squared tolerance for oracle agreement, matching the
/// integration suites.
pub const DIST2_TOL: f64 = 1e-9;

/// Tuning knobs for a differential run.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Page size for every tree (small pages force deep trees and many
    /// splits, which is where bugs live).
    pub page_size: usize,
    /// Run every crate's invariant `verify` after this many operations
    /// (and once at the end). `0` disables interval checks.
    pub verify_every: usize,
    /// Check the (static, rebuilt-from-model) VAMSplit tree on every
    /// Nth query. `0` disables VAM checks.
    pub vam_every: usize,
    /// Also require id-list equality with the oracle, not just
    /// distances. All structures share deterministic tie-breaking, so
    /// this holds and catches payload mix-ups distances cannot.
    pub check_ids: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            page_size: 2048,
            verify_every: 500,
            vam_every: 8,
            check_ids: true,
        }
    }
}

/// What a differential run did (on success).
#[derive(Clone, Copy, Debug, Default)]
pub struct DiffReport {
    /// Operations replayed.
    pub ops: usize,
    /// Inserts applied.
    pub inserts: usize,
    /// Deletes applied (hits and misses).
    pub deletes: usize,
    /// k-NN queries compared.
    pub knns: usize,
    /// Range queries compared.
    pub ranges: usize,
    /// Full five-structure verify sweeps run.
    pub verifies: usize,
    /// VAMSplit rebuilds performed.
    pub vam_rebuilds: usize,
    /// Live entries at the end of the tape.
    pub final_live: usize,
}

/// A disagreement between a structure and the oracle (or an internal
/// error / invariant violation).
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the offending op on the tape (tape length for end-of-run
    /// verification failures).
    pub step: usize,
    /// `insert` / `delete` / `knn` / `range` / `verify`.
    pub op: String,
    /// Which structure disagreed.
    pub structure: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {} ({}): {} diverged: {}",
            self.step, self.op, self.structure, self.detail
        )
    }
}

/// Compare one query answer against the oracle's: equal length, dist²
/// within [`DIST2_TOL`] rank by rank, and (optionally) identical id
/// lists. Every error names `structure`, the tree that answered. Shared
/// by the differential executor and the crash-recovery harness.
pub fn check_answer(
    structure: &'static str,
    got: &[Neighbor],
    want: &[Neighbor],
    check_ids: bool,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{structure}: {} results, oracle has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        if (g.dist2 - w.dist2).abs() >= DIST2_TOL {
            return Err(format!(
                "{structure}: rank {i}: dist2 {} vs oracle {}",
                g.dist2, w.dist2
            ));
        }
    }
    if check_ids {
        let got_ids: Vec<u64> = got.iter().map(|n| n.data).collect();
        let want_ids: Vec<u64> = want.iter().map(|n| n.data).collect();
        if got_ids != want_ids {
            return Err(format!(
                "{structure}: ids {got_ids:?} vs oracle {want_ids:?}"
            ));
        }
    }
    Ok(())
}

/// Replay `tape` through all five structures and the oracle.
///
/// Returns the run's statistics, or the first [`Divergence`] found.
pub fn run_tape(tape: &OpTape, cfg: &DiffConfig) -> Result<DiffReport, Divergence> {
    let mut trees = (TreeKind::DYNAMIC.into_iter())
        .map(|kind| {
            PageFile::create_in_memory(cfg.page_size)
                .map_err(Into::into)
                .and_then(|pf| kind.create(pf, tape.dim, DEFAULT_DATA_AREA))
                .map_err(|e| Divergence {
                    step: 0,
                    op: "create".into(),
                    structure: kind.kind_name(),
                    detail: e.to_string(),
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    // The static VAMSplit tree, dropped whenever the live set changes.
    let mut vam: Option<Box<dyn SpatialIndex>> = None;
    let mut model = Model::new();
    let mut report = DiffReport::default();
    let mut queries_seen = 0usize;

    let div = |step: usize, op: &Op, structure: &'static str, detail: String| Divergence {
        step,
        op: op.tag().into(),
        structure,
        detail,
    };

    for (step, op) in tape.ops.iter().enumerate() {
        let spec = match op {
            Op::Insert(p, id) => {
                for tree in &mut trees {
                    tree.insert(p.coords(), *id)
                        .map_err(|e| div(step, op, tree.kind_name(), e.to_string()))?;
                }
                model.insert(p.clone(), *id);
                vam = None;
                report.inserts += 1;
                None
            }
            Op::Delete(p, id) => {
                let want = model.delete(p, *id);
                for tree in &mut trees {
                    match tree.delete(p.coords(), *id) {
                        Ok(found) if found == want => {}
                        Ok(found) => {
                            return Err(div(
                                step,
                                op,
                                tree.kind_name(),
                                format!("delete returned {found}, oracle says {want}"),
                            ))
                        }
                        Err(e) => return Err(div(step, op, tree.kind_name(), e.to_string())),
                    }
                }
                if want {
                    vam = None;
                }
                report.deletes += 1;
                None
            }
            Op::Knn(q, k) => {
                report.knns += 1;
                Some(QuerySpec::knn(q.coords(), *k))
            }
            Op::Range(q, radius) => {
                report.ranges += 1;
                Some(QuerySpec::range(q.coords(), *radius))
            }
        };
        if let Some(spec) = spec {
            queries_seen += 1;
            let want = model.query(&spec);
            let vam = vam_for_query(&mut vam, &model, cfg, queries_seen, &mut report)
                .map_err(|e| div(step, op, TreeKind::Vam.kind_name(), e))?;
            for tree in trees.iter().map(Box::as_ref).chain(vam) {
                let name = tree.kind_name();
                let got = tree
                    .query(&spec, &Noop)
                    .map_err(|e| div(step, op, name, e.to_string()))?;
                check_answer(name, &got.rows, &want, cfg.check_ids)
                    .map_err(|e| div(step, op, name, e))?;
            }
        }

        if cfg.verify_every > 0 && (step + 1) % cfg.verify_every == 0 {
            verify_fleet(&trees, vam.as_deref(), &model, step + 1)?;
            report.verifies += 1;
        }
        report.ops += 1;
    }

    verify_fleet(&trees, vam.as_deref(), &model, tape.ops.len())?;
    report.verifies += 1;
    report.final_live = model.len();
    Ok(report)
}

/// The VAMSplit tree is static: rebuild it from the oracle's live set
/// when it is stale, on the configured query cadence.
fn vam_for_query<'a>(
    vam: &'a mut Option<Box<dyn SpatialIndex>>,
    model: &Model,
    cfg: &DiffConfig,
    queries_seen: usize,
    report: &mut DiffReport,
) -> Result<Option<&'a dyn SpatialIndex>, String> {
    if cfg.vam_every == 0 || !queries_seen.is_multiple_of(cfg.vam_every) || model.is_empty() {
        return Ok(None);
    }
    if vam.is_none() {
        let pf = PageFile::create_in_memory(cfg.page_size)
            .map_err(|e| format!("rebuild failed: {e}"))?;
        let dim = model.live[0].0.dim();
        let tree = TreeKind::Vam
            .build(pf, dim, DEFAULT_DATA_AREA, model.live.clone())
            .map_err(|e| format!("rebuild failed: {e}"))?;
        *vam = Some(tree);
        report.vam_rebuilds += 1;
    }
    Ok(vam.as_deref())
}

/// Run every structure's invariant checker and compare live counts.
fn verify_fleet(
    trees: &[Box<dyn SpatialIndex>],
    vam: Option<&dyn SpatialIndex>,
    model: &Model,
    step: usize,
) -> Result<(), Divergence> {
    let want = model.len() as u64;
    for tree in trees.iter().map(Box::as_ref).chain(vam) {
        let vdiv = |detail: String| Divergence {
            step,
            op: "verify".into(),
            structure: tree.kind_name(),
            detail,
        };
        tree.verify().map_err(|e| vdiv(e.to_string()))?;
        if tree.len() != want {
            return Err(vdiv(format!("len {}, oracle has {want}", tree.len())));
        }
    }
    Ok(())
}

/// Shrink a failing tape to a locally minimal failing subsequence by
/// bounded chunk removal (a ddmin-style pass): repeatedly try dropping
/// contiguous chunks of halving size, keeping any candidate that still
/// fails. Replays are capped so shrinking cannot dominate a CI run.
pub fn minimize(tape: &OpTape, cfg: &DiffConfig, max_replays: usize) -> OpTape {
    let mut ops = tape.ops.clone();
    let mut replays = 0usize;
    let mut chunk = (ops.len() / 2).max(1);
    while chunk >= 1 && replays < max_replays {
        let mut i = 0;
        let mut shrunk = false;
        while i < ops.len() && replays < max_replays {
            if ops.len() <= 1 {
                break;
            }
            let end = (i + chunk).min(ops.len());
            let mut candidate = ops.clone();
            candidate.drain(i..end);
            if candidate.is_empty() {
                i = end;
                continue;
            }
            let cand_tape = OpTape {
                seed: tape.seed,
                dim: tape.dim,
                dist: tape.dist,
                ops: candidate,
            };
            replays += 1;
            if run_tape(&cand_tape, cfg).is_err() {
                ops = cand_tape.ops;
                shrunk = true;
                // keep i: the next chunk slid into place
            } else {
                i = end;
            }
        }
        if chunk == 1 && !shrunk {
            break;
        }
        chunk = (chunk / 2).max(1);
        if chunk == 1 && ops.len() > 256 {
            // Single-op passes over huge tapes would blow the replay
            // budget without much benefit; stop at chunk level 2.
            break;
        }
    }
    OpTape {
        seed: tape.seed,
        dim: tape.dim,
        dist: tape.dist,
        ops,
    }
}

/// The copy-pastable replay line for a tape.
pub fn seed_line(tape: &OpTape) -> String {
    format!(
        "SEED={:#x} (replay: srtool fuzz --seed {:#x} --ops {} --dim {} --dist {})",
        tape.seed,
        tape.seed,
        tape.ops.len(),
        tape.dim,
        tape.dist.name()
    )
}

/// Render a full failure report: divergence, replay line, and the
/// minimized tape's shape.
pub fn failure_report(original: &OpTape, minimized: &OpTape, d: &Divergence) -> String {
    let mut out = String::new();
    out.push_str(&format!("differential divergence: {d}\n"));
    out.push_str(&format!("{}\n", seed_line(original)));
    out.push_str(&format!(
        "minimized from {} to {} ops; minimal failing tail:\n",
        original.ops.len(),
        minimized.ops.len()
    ));
    for (i, op) in minimized.ops.iter().enumerate().rev().take(10).rev() {
        out.push_str(&format!("  [{i}] {op:?}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, DataDist, WorkloadSpec};

    #[test]
    fn clean_tape_passes() {
        let spec = WorkloadSpec::standard(300, 4, DataDist::Uniform);
        let tape = generate(&spec, 99);
        let report = run_tape(&tape, &DiffConfig::default()).expect("no divergence");
        assert_eq!(report.ops, 300);
        assert!(report.inserts > 0 && report.knns > 0);
        assert!(report.verifies >= 1);
    }

    /// A tape doctored to contain an insert the model never sees would
    /// be caught — simulate by checking that a wrong oracle answer is
    /// detected via check_answer directly.
    #[test]
    fn check_answer_catches_mismatches() {
        let a = Neighbor {
            dist2: 1.0,
            data: 1,
        };
        let b = Neighbor {
            dist2: 2.0,
            data: 1,
        };
        let c = Neighbor {
            dist2: 1.0,
            data: 2,
        };
        assert!(check_answer("x", &[a], &[a], true).is_ok());
        assert!(
            check_answer("x", &[a], &[b], true).is_err(),
            "dist2 differs"
        );
        assert!(check_answer("x", &[a], &[c], true).is_err(), "id differs");
        assert!(check_answer("x", &[a], &[c], false).is_ok(), "ids off");
        assert!(check_answer("x", &[a], &[a, b], true).is_err(), "length");
    }

    #[test]
    fn check_answer_errors_name_the_tree() {
        let a = Neighbor {
            dist2: 1.0,
            data: 1,
        };
        let far = Neighbor {
            dist2: 2.0,
            data: 1,
        };
        let other = Neighbor {
            dist2: 1.0,
            data: 2,
        };
        for (got, want) in [
            (vec![a], vec![a, a]),
            (vec![a], vec![far]),
            (vec![a], vec![other]),
        ] {
            let err = check_answer("SR-tree", &got, &want, true).unwrap_err();
            assert!(err.starts_with("SR-tree: "), "{err}");
        }
    }

    #[test]
    fn minimize_keeps_failures_failing_on_synthetic_case() {
        // Minimization is driven by run_tape; on a passing tape it is a
        // no-op contract-wise (nothing to shrink), so just check the
        // plumbing terminates and preserves tape metadata.
        let spec = WorkloadSpec::standard(50, 2, DataDist::Uniform);
        let tape = generate(&spec, 5);
        let min = minimize(&tape, &DiffConfig::default(), 10);
        assert_eq!(min.seed, tape.seed);
        assert_eq!(min.dim, tape.dim);
    }

    #[test]
    fn seed_line_is_copy_pastable() {
        let spec = WorkloadSpec::standard(10, 2, DataDist::Clustered);
        let tape = generate(&spec, 0xBEEF);
        let line = seed_line(&tape);
        assert!(line.starts_with("SEED=0xbeef"), "{line}");
        assert!(line.contains("srtool fuzz --seed 0xbeef"), "{line}");
        assert!(line.contains("--dist cluster"), "{line}");
    }
}
