//! Benchmark harness reproducing **every table and figure** of the
//! SR-tree paper's evaluation (§3 and §5).
//!
//! Each experiment is a module under [`experiments`]; the `experiments`
//! binary dispatches on the experiment id (`table1` … `fig19`) and prints
//! the same rows/series the paper reports, plus a CSV copy under
//! `target/experiments/`.
//!
//! Two scales are supported:
//!
//! * **default** — sizes reduced so the full suite runs in minutes;
//! * **`--paper`** — the paper's exact data-set sizes and 1,000-query
//!   workloads.
//!
//! Absolute numbers differ from a 1996 SPARCstation; the *shapes* (who
//! wins, by what factor, where the crossovers fall) are the reproduction
//! target. EXPERIMENTS.md records paper-vs-measured for every id.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod index;
pub mod measure;
pub mod report;

pub use index::{AnyIndex, TreeKind};
pub use measure::{BuildCost, QueryCost, Scale};

/// All experiment ids, in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "ablation", "bulkload",
];

/// Run one experiment by id. `paper` selects the paper-exact scale.
pub fn run_experiment(id: &str, paper: bool) -> Result<(), String> {
    let scale = Scale::new(paper);
    match id {
        "table1" => experiments::table1::run(&scale),
        "table2" => experiments::table2::run(&scale),
        "table3" => experiments::table3::run(&scale),
        "fig3" => experiments::fig3::run(&scale),
        "fig4" => experiments::fig4::run(&scale),
        "fig5" => experiments::fig5::run(&scale),
        "fig6" => experiments::fig6::run(&scale),
        "fig9" => experiments::fig9::run(&scale),
        "fig10" => experiments::fig10::run(&scale),
        "fig11" => experiments::fig11::run(&scale),
        "fig12" => experiments::fig12::run(&scale),
        "fig13" => experiments::fig13::run(&scale),
        "fig14" => experiments::fig14::run(&scale),
        "fig15" => experiments::fig15::run(&scale),
        "fig16" => experiments::fig16::run(&scale),
        "fig17" => experiments::fig17::run(&scale),
        "fig18" => experiments::fig18::run(&scale),
        "fig19" => experiments::fig19::run(&scale),
        "ablation" => experiments::ablation::run(&scale),
        "bulkload" => experiments::bulkload::run(&scale),
        other => Err(format!(
            "unknown experiment {other:?}; known: {}",
            ALL_EXPERIMENTS.join(", ")
        )),
    }
}
