//! One module per table/figure of the paper. Each exposes
//! `run(&Scale) -> Result<(), String>` and prints the rows the paper
//! plots, plus a CSV copy.

pub mod ablation;
pub mod bulkload;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;

use sr_dataset::{real_sim, sample_queries, uniform};
use sr_geometry::Point;

use crate::index::{AnyIndex, TreeKind};
use crate::measure::{measure_knn, Scale, K};
use crate::report::{f, Report};

/// Dimensionality of the paper's §3/§5 size-sweep experiments.
pub const DIM: usize = 16;

/// Deterministic seeds, fixed so every experiment is reproducible.
pub const DATA_SEED: u64 = 0xDA7A;
/// Seed for query sampling.
pub const QUERY_SEED: u64 = 0x9E37;

/// The uniform data set at a given size.
pub fn uniform_data(n: usize) -> Vec<Point> {
    uniform(n, DIM, DATA_SEED)
}

/// The simulated real data set at a given size.
pub fn real_data(n: usize) -> Vec<Point> {
    real_sim(n, DIM, DATA_SEED)
}

/// Shared shape of Figures 3, 4, 10, 11: query CPU time and disk reads
/// vs data-set size for a set of structures.
pub fn query_perf_table(
    id: &str,
    title: &str,
    kinds: &[TreeKind],
    sizes: &[usize],
    gen: impl Fn(usize) -> Vec<Point>,
    scale: &Scale,
) -> Result<(), String> {
    let mut report = Report::new(id, title);
    let mut header = vec!["size".to_string()];
    for k in kinds {
        header.push(format!("{} cpu_ms", k.label()));
        header.push(format!("{} reads", k.label()));
    }
    report.header(header);
    for &n in sizes {
        let points = gen(n);
        let queries = sample_queries(&points, scale.trials(), QUERY_SEED);
        let mut row = vec![n.to_string()];
        for &kind in kinds {
            let index = AnyIndex::build(kind, &points);
            let cost = measure_knn(&index, &queries, K);
            row.push(f(cost.cpu_ms));
            row.push(f(cost.reads));
        }
        report.row(row);
    }
    report.emit()
}
