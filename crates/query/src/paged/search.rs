//! The zero-copy `expand()` every tree's searches run through.

use sr_geometry::dist2;
use sr_pager::{LeafColumns, PageId, PageKind, PageReader};

use super::error::{Result, TreeError};
use super::node::Node;
use super::region::Region;
use super::tree::Paged;
use crate::{scan_leaf_columns, Expansion, KnnSource, LeafScan};

/// The allocation-free leaf fast path: score a parsed columnar view
/// with the shared kernels. The page read and the payload validation
/// stay in the caller — parsing untrusted bytes may fail with a
/// formatted diagnostic, but everything past this boundary must not
/// allocate, lock, or touch the store, and srlint's L10 pass enforces
/// exactly that.
// srlint: hot
fn scan_leaf_fast<N>(
    cols: &LeafColumns<'_>,
    query: &[f32],
    prune2: f64,
    scan: LeafScan,
    out: &mut Expansion<N>,
) -> Result<()> {
    scan_leaf_columns(cols, query, prune2, scan, out).map_err(|e| TreeError::Corrupt(e.to_string()))
}

/// A paged tree as the generic k-NN / range engines see it: node
/// handles are `(page, level)` pairs.
pub struct Source<'a, R: Region> {
    pub(super) tree: &'a Paged<R>,
    pub(super) bound: R::Bound,
    pub(super) scan: LeafScan,
}

impl<R: Region> KnnSource for Source<'_, R> {
    type Node = (PageId, u16);
    type Error = TreeError;

    fn root(&self) -> Result<Option<Self::Node>> {
        Ok(self.tree.root_level().map(|level| (self.tree.root, level)))
    }

    fn expand(
        &self,
        &(id, level): &Self::Node,
        query: &[f32],
        prune2: f64,
        out: &mut Expansion<Self::Node>,
    ) -> Result<()> {
        let dim = self.tree.params.dim;
        if level > 0 {
            // Zero-copy inner expansion: score each child's region
            // straight off the page buffer. Decoding a node page would
            // materialise a heap vector per coordinate block — at bench
            // scale ~10k allocations per query. One logical read per
            // expansion, so `node_expansions == node_reads` holds.
            let payload = self.tree.pager().read(id, PageKind::Node)?;
            let mut r = PageReader::new(&payload);
            let _level = r.get_u16()?;
            let n = r.get_u16()?;
            // The entry count came off the page: bound it by the bytes
            // actually present before it drives the read loop, so a
            // corrupt header fails here with one clear error instead of
            // partway through the entries.
            let need = usize::from(n) * (R::bytes(dim) + 8);
            if need > r.remaining() {
                return Err(TreeError::Corrupt(format!(
                    "inner node claims {n} entries but only {} payload bytes remain",
                    r.remaining()
                )));
            }
            for _ in 0..n {
                let raw = r.get_bytes(R::bytes(dim))?;
                let child = (r.get_u64()?, level - 1);
                R::push_branch(raw, query, self.bound, child, out)?;
            }
            return Ok(());
        }
        if self.scan != LeafScan::Scalar {
            // Columnar fast path: score the leaf straight off the page
            // buffer, never materialising per-entry `Point`s. One read
            // per expansion, same as the scalar path, so the
            // `leaf_expansions == leaf_reads` invariant holds unchanged.
            let payload = self.tree.pager().read(id, PageKind::Leaf)?;
            let cols = LeafColumns::parse(&payload, dim)?;
            return scan_leaf_fast(&cols, query, prune2, self.scan, out);
        }
        match self.tree.read_node(id, level)? {
            Node::Leaf(entries) => {
                for e in &entries {
                    out.push_point(dist2(e.point.coords(), query), e.data);
                }
                Ok(())
            }
            Node::Inner { .. } => Err(TreeError::Corrupt("inner node page at leaf level".into())),
        }
    }
}
