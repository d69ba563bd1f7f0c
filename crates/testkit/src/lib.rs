//! Deterministic test harness for the SR-tree reproduction.
//!
//! The paper's evaluation (§5) rests on five index structures answering
//! identical queries over the same page store; this crate is the
//! machinery that keeps them honest:
//!
//! * [`workload`] — seeded, fully materialized operation tapes
//!   (insert / delete / k-NN / range) over the paper's three data
//!   distributions;
//! * [`model`] — the brute-force oracle every structure is compared to;
//! * [`diff`] — the differential executor: replay one tape through the
//!   SR-, SS-, R*-, K-D-B-, and VAMSplit trees, assert agreement with
//!   the oracle, run each tree's invariant `verify` on an interval,
//!   and on failure shrink the tape and print a replayable `SEED=`
//!   line;
//! * [`TreeKind`] — the tree registry (re-exported from `sr_tree`):
//!   creates, builds and reopens each of the five structures as a
//!   `Box<dyn SpatialIndex>`;
//! * [`crash`] — the crash-point recovery harness: a fault-wrapped
//!   store pair whose surviving bytes can be reopened like a process
//!   restart, and oracle-exact recovery checking ([`matches_model`]);
//! * [`stress`] — the seeded-schedule concurrency stress harness:
//!   N threads of deterministic mixed query traffic over one shared
//!   index, yield/spin perturbation drawn from per-thread seeds, and
//!   exact I/O-accounting checks at the join point;
//! * [`TempDir`] — a scoped temp-directory guard for tests that touch
//!   real files;
//! * fault injection — re-exported from `sr_pager` ([`FaultInjector`],
//!   [`FaultHandle`]) so test code needs only this crate.
//!
//! Replay workflow: any failure output contains a line like
//! `SEED=0x2a (replay: srtool fuzz --seed 0x2a --ops 2000 --dim 8
//! --dist uniform)`. Running that command (or re-running the failing
//! test with `SRTREE_FUZZ_SEED=0x2a`) regenerates the identical tape.

#![forbid(unsafe_code)]

pub mod crash;
pub mod diff;
pub mod model;
pub mod stress;
pub mod tempdir;
pub mod workload;

pub use crash::{faulted_parts, matches_model, reopen, SharedParts};
pub use diff::{
    check_answer, failure_report, minimize, run_tape, seed_line, DiffConfig, DiffReport,
    Divergence, DIST2_TOL,
};
pub use model::Model;
pub use sr_pager::{FaultHandle, FaultInjector, FaultKind, FaultStats};
pub use sr_tree::TreeKind;
pub use stress::{run_stress, total_logical_reads, StressConfig, StressReport};
pub use tempdir::TempDir;
pub use workload::{generate, DataDist, Op, OpTape, WorkloadSpec};

/// Run one full differential fuzz case: generate, replay, and on
/// failure minimize + panic with a replayable report.
///
/// This is the entry point the tier-1 tests and `srtool fuzz` share.
pub fn fuzz_case(spec: &WorkloadSpec, seed: u64, cfg: &DiffConfig) -> DiffReport {
    let tape = generate(spec, seed);
    match run_tape(&tape, cfg) {
        Ok(report) => report,
        Err(d) => {
            let minimized = minimize(&tape, cfg, 60);
            panic!("{}", failure_report(&tape, &minimized, &d));
        }
    }
}
