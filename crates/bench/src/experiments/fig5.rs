//! Figure 5: average volume and average diameter of the leaf-level
//! regions of SS-trees and R*-trees (uniform data set). This is the
//! paper's §3 motivation: rectangles are small but long-diagonal,
//! spheres are short-diameter but huge.

use crate::experiments::uniform_data;
use crate::index::{build_rstar, build_ss};
use crate::measure::Scale;
use crate::report::{f, Report};

pub fn run(scale: &Scale) -> Result<(), String> {
    let mut report = Report::new(
        "fig5",
        "avg leaf-region volume & diameter: SS-tree vs R*-tree (uniform)",
    );
    report.header([
        "size",
        "SS volume",
        "SS diameter",
        "R* volume",
        "R* diameter",
    ]);
    for &n in &scale.uniform_sizes() {
        let points = uniform_data(n);

        let ss = build_ss(&points);
        let spheres = ss.leaf_regions().map_err(|e| e.to_string())?;
        let ss_vol = mean(spheres.iter().map(|s| s.volume()));
        let ss_diam = mean(spheres.iter().map(|s| s.diameter()));

        let rs = build_rstar(&points);
        let rects = rs.leaf_rects().map_err(|e| e.to_string())?;
        let rs_vol = mean(rects.iter().map(|r| r.volume()));
        let rs_diam = mean(rects.iter().map(|r| r.diagonal()));

        report.row([n.to_string(), f(ss_vol), f(ss_diam), f(rs_vol), f(rs_diam)]);
    }
    report.emit()
}

pub(crate) fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
