//! The zero-copy `expand()` every tree's searches run through.

use sr_pager::PageId;

use super::node::Layout;
use super::region::Region;
use super::tree::Paged;
use super::Result;
use crate::{scan_leaf_columns, Expansion, IndexError, KnnSource};

/// A paged tree as [`crate::search`] sees it: node handles are
/// `(page, level)` pairs.
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
        // One logical read per expansion, so `node_expansions ==
        // node_reads` and `leaf_expansions == leaf_reads` hold. The page
        // is scored straight off the buffer once `Layout::parse` has
        // checked its header, as every walk does.
        let payload = self.tree.read_payload(id, level)?;
        match Layout::parse(id, level, &payload, &self.tree.params)? {
            // Columnar leaf scan: never materialises per-entry `Point`s.
            Layout::Leaf(cols) => scan_leaf_columns(&cols, query, prune2, out)
                .map_err(|e| IndexError::Corrupt(e.to_string())),
            // Score each child's region in place. Decoding the node would
            // materialise a heap vector per coordinate block — at bench
            // scale ~10k allocations per query.
            Layout::Inner { n, mut rest } => {
                let bytes = R::bytes(self.tree.params.dim);
                for _ in 0..n {
                    let raw = rest.get_bytes(bytes)?;
                    let child = (rest.get_u64()?, level - 1);
                    R::push_branch(raw, query, self.bound, child, out)?;
                }
                Ok(())
            }
        }
    }
}
