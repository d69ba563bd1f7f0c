//! Table 1: the maximum number of entries in a node and in a leaf, per
//! structure, derived from the 8 KiB page size.

use sr_geometry::Rect;
use sr_query::paged::{Params, Region};
use sr_tree::kdbtree::KdbRegion;
use sr_tree::sstree::SsRegion;
use sr_tree::SrRegion;

use crate::index::{TreeKind, DATA_AREA, PAGE_SIZE};
use crate::measure::Scale;
use crate::report::Report;

/// Usable payload per page (page header is 5 bytes).
fn page_capacity() -> usize {
    PAGE_SIZE - 5
}

/// The row of `kind`, whose inner entries store an `R`.
fn row<R: Region>(report: &mut Report, dim: usize, kind: TreeKind) {
    let p = Params::<R>::derive(page_capacity(), dim, DATA_AREA);
    report.row([
        dim.to_string(),
        kind.label().into(),
        p.max_node.to_string(),
        p.max_leaf.to_string(),
    ]);
}

pub fn run(_scale: &Scale) -> Result<(), String> {
    let mut report = Report::new(
        "table1",
        "maximum entries per node / leaf (8 KiB pages, 512 B data areas)",
    );
    report.header(["dims", "index", "node", "leaf"]);
    for dim in [8usize, 16, 32, 64] {
        row::<KdbRegion>(&mut report, dim, TreeKind::Kdb);
        row::<Rect>(&mut report, dim, TreeKind::Rstar);
        row::<Rect>(&mut report, dim, TreeKind::Vam);
        row::<SsRegion>(&mut report, dim, TreeKind::Ss);
        row::<SrRegion>(&mut report, dim, TreeKind::Sr);
    }
    report.emit()
}
