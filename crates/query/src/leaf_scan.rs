//! The shared columnar leaf scan — one hot loop for all five trees.
//!
//! Every tree stores its leaves in the same dimension-major layout
//! ([`sr_pager::LeafColumns`]), so the kernel call lives here once
//! instead of five times. The tree's `KnnSource::expand` parses the leaf
//! payload straight off the page buffer and hands the view to
//! [`scan_leaf_columns`], which scores every entry with the early-abandon
//! kernel from `sr-geometry` and pushes survivors into the expansion.

use sr_geometry::{dist2_columnar_early_abandon, GeometryError};
use sr_pager::LeafColumns;

use crate::heap::Neighbor;
use crate::knn::Expansion;

/// Score one leaf's entries against `query`, pushing scored points into
/// `out.points` and crediting early-abandoned entries to `out.abandoned`.
///
/// `prune2` is the search's current pruning threshold (the running k-th
/// candidate's squared distance, or a range query's squared radius). An
/// entry is abandoned only once its partial distance strictly exceeds
/// it, the comparison the [`crate::CandidateSet::offer`] tie-break
/// contract requires; at `+inf` every entry is scored in full.
///
/// The scratch vectors inside `out` are reused across calls, so a whole
/// query's leaf scans allocate at most once.
// srlint: hot
pub fn scan_leaf_columns<N>(
    cols: &LeafColumns<'_>,
    query: &[f32],
    prune2: f64,
    out: &mut Expansion<N>,
) -> Result<(), GeometryError> {
    let abandoned = dist2_columnar_early_abandon(
        cols.coords(),
        cols.len(),
        query,
        prune2,
        &mut out.dist_scratch,
        &mut out.alive_scratch,
    )?;
    out.abandoned += abandoned;
    for ((d, alive), data) in out
        .dist_scratch
        .iter()
        .zip(out.alive_scratch.iter())
        .zip(cols.data_ids())
    {
        if *alive {
            out.points.push(Neighbor { dist2: *d, data });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_pager::{put_leaf_columns, PageCodec};

    fn leaf_payload(dim: usize, entries: &[(Vec<f32>, u64)]) -> Vec<u8> {
        let data_area = 16usize;
        let mut buf = vec![0u8; 4 + entries.len() * (dim * 8 + data_area)];
        let refs: Vec<(&[f32], u64)> = entries.iter().map(|(c, d)| (c.as_slice(), *d)).collect();
        let mut c = PageCodec::new(&mut buf);
        put_leaf_columns(&mut c, dim, data_area, &refs).unwrap();
        buf
    }

    #[test]
    fn unbounded_scan_scores_every_entry() {
        let entries = vec![
            (vec![0.0f32, 0.0], 1u64),
            (vec![3.0, 4.0], 2),
            (vec![-1.0, 1.0], 3),
        ];
        let payload = leaf_payload(2, &entries);
        let cols = LeafColumns::parse(&payload, 2, 16).unwrap();
        let mut out: Expansion<()> = Expansion::default();
        scan_leaf_columns(&cols, &[0.0, 0.0], f64::INFINITY, &mut out).unwrap();
        assert_eq!(out.abandoned, 0);
        let got: Vec<(f64, u64)> = out.points.iter().map(|n| (n.dist2, n.data)).collect();
        assert_eq!(got, vec![(0.0, 1), (25.0, 2), (2.0, 3)]);
    }

    #[test]
    fn early_abandon_drops_only_strictly_worse_entries() {
        // 16 dims so the per-point tail (dims past the columnar head) is
        // exercised; the far entry's head distance already exceeds the
        // threshold, the tied entry must survive.
        let dim = 16;
        let near: Vec<f32> = vec![0.0; dim];
        let far: Vec<f32> = vec![10.0; dim];
        let mut tied: Vec<f32> = vec![0.0; dim];
        tied[dim - 1] = 2.0; // dist2 exactly 4.0
        let entries = vec![(near, 1u64), (far, 2), (tied, 3)];
        let payload = leaf_payload(dim, &entries);
        let cols = LeafColumns::parse(&payload, dim, 16).unwrap();
        let mut out: Expansion<()> = Expansion::default();
        let q = vec![0.0f32; dim];
        scan_leaf_columns(&cols, &q, 4.0, &mut out).unwrap();
        assert_eq!(out.abandoned, 1, "only the far entry is abandoned");
        let got: Vec<(f64, u64)> = out.points.iter().map(|n| (n.dist2, n.data)).collect();
        assert_eq!(got, vec![(0.0, 1), (4.0, 3)], "the tied entry completes");
    }
}
