//! Figure 6: the average volume of SS-tree leaf regions when measured by
//! their bounding spheres vs by their (hypothetical) bounding
//! rectangles, with the R*-tree leaf rectangles for comparison — the
//! measurement that motivated adding rectangles to the SS-tree.

use crate::experiments::fig5::mean;
use crate::experiments::uniform_data;
use crate::index::{build_rstar, build_ss};
use crate::measure::Scale;
use crate::report::{f, Report};

pub fn run(scale: &Scale) -> Result<(), String> {
    let mut report = Report::new(
        "fig6",
        "SS-tree leaf volume: bounding spheres vs bounding rectangles (uniform)",
    );
    report.header(["size", "SS sphere vol", "SS rect vol", "R* rect vol"]);
    for &n in &scale.uniform_sizes() {
        let points = uniform_data(n);
        let ss = build_ss(&points);
        let sphere_vol = mean(
            ss.leaf_regions()
                .map_err(|e| e.to_string())?
                .iter()
                .map(|s| s.volume()),
        );
        let rect_vol = mean(
            ss.leaf_rects()
                .map_err(|e| e.to_string())?
                .iter()
                .map(|r| r.volume()),
        );
        let rs = build_rstar(&points);
        let rs_vol = mean(
            rs.leaf_rects()
                .map_err(|e| e.to_string())?
                .iter()
                .map(|r| r.volume()),
        );
        report.row([n.to_string(), f(sphere_vol), f(rect_vol), f(rs_vol)]);
    }
    report.emit()
}
