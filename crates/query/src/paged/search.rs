//! The zero-copy `expand()` every tree's searches run through.

use sr_pager::{LeafColumns, PageId, PageKind, PageReader, PagerError};

use super::node::check_level;
use super::region::Region;
use super::tree::Paged;
use super::Result;
use crate::{scan_leaf_columns, Expansion, IndexError, KnnSource};

/// A paged tree as the generic k-NN / range engines see it: node
/// handles are `(page, level)` pairs.
pub struct Source<'a, R: Region> {
    pub(super) tree: &'a Paged<R>,
    pub(super) bound: R::Bound,
}

impl<R: Region> KnnSource for Source<'_, R> {
    type Node = (PageId, u16);

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
            check_level(id, r.get_u16()?, level)?;
            let n = r.get_u16()?;
            // The entry count came off the page: bound it by the bytes
            // actually present before it drives the read loop, so a
            // corrupt header fails here with one clear error instead of
            // partway through the entries.
            let need = usize::from(n) * (R::bytes(dim) + 8);
            if need > r.remaining() {
                return Err(IndexError::Corrupt(format!(
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
        // Columnar leaf scan: score the leaf straight off the page
        // buffer, never materialising per-entry `Point`s. One read per
        // expansion, so `leaf_expansions == leaf_reads` holds too.
        let payload = self.tree.pager().read(id, PageKind::Leaf)?;
        let cols = match LeafColumns::parse(&payload, dim) {
            Ok(cols) => cols,
            Err(e) => {
                // A node payload in a leaf slot fails the parse's own
                // level check: name the misplaced page as `read_node`
                // does, and any other bad leaf as corrupt, not as I/O.
                if let Some(level) = payload.first_chunk() {
                    check_level(id, u16::from_le_bytes(*level), 0)?;
                }
                return Err(match e {
                    PagerError::Corrupt(msg) => IndexError::Corrupt(format!("page {id}: {msg}")),
                    e => IndexError::Pager(e),
                });
            }
        };
        scan_leaf_columns(&cols, query, prune2, out).map_err(|e| IndexError::Corrupt(e.to_string()))
    }
}
