//! Figure 12: average volume and diameter of the leaf-level regions of
//! R*-trees, SS-trees, and SR-trees (uniform data set). For the SR-tree
//! the sphere and rectangle are measured separately — each is an upper
//! bound on the true intersection region, exactly as the paper reports.

use sr_geometry::Point;

use crate::experiments::fig5::mean;
use crate::experiments::uniform_data;
use crate::index::{build_rstar, build_sr, build_ss};
use crate::measure::Scale;
use crate::report::{f, Report};

pub fn run(scale: &Scale) -> Result<(), String> {
    region_table(
        "fig12",
        "leaf-region volume & diameter incl. SR-tree (uniform)",
        &scale.uniform_sizes(),
        uniform_data,
    )
}

pub(crate) fn region_table(
    id: &str,
    title: &str,
    sizes: &[usize],
    gen: impl Fn(usize) -> Vec<Point>,
) -> Result<(), String> {
    let mut report = Report::new(id, title);
    report.header([
        "size",
        "R* vol",
        "R* diam",
        "SS vol",
        "SS diam",
        "SR rect vol",
        "SR sphere diam",
    ]);
    for &n in sizes {
        let points = gen(n);
        let rs = build_rstar(&points);
        let rects = rs.leaf_rects().map_err(|e| e.to_string())?;
        let rs_vol = mean(rects.iter().map(|r| r.volume()));
        let rs_diam = mean(rects.iter().map(|r| r.diagonal()));

        let ss = build_ss(&points);
        let spheres = ss.leaf_regions().map_err(|e| e.to_string())?;
        let ss_vol = mean(spheres.iter().map(|s| s.volume()));
        let ss_diam = mean(spheres.iter().map(|s| s.diameter()));

        let sr = build_sr(&points);
        let pairs = sr.leaf_regions().map_err(|e| e.to_string())?;
        // Volume upper bound: the bounding rectangle; diameter upper
        // bound: the bounding sphere (the paper's Figure 12/13 markers).
        let sr_vol = mean(pairs.iter().map(|(_, r)| r.volume()));
        let sr_diam = mean(pairs.iter().map(|(s, _)| s.diameter()));

        report.row([
            n.to_string(),
            f(rs_vol),
            f(rs_diam),
            f(ss_vol),
            f(ss_diam),
            f(sr_vol),
            f(sr_diam),
        ]);
    }
    report.emit()
}
