//! The zero-copy `expand()` every tree's searches run through.

use sr_pager::PageId;
use sr_query::{scan_leaf_columns, Expansion, IndexError, KnnSource};

use super::node::{in_page, non_finite_leaf, Layout};
use super::region::Region;
use crate::{Result, Tree, TreePolicy};

/// A tree as [`sr_query::search`] sees it: node handles are
/// `(page, level)` pairs, and regions are scored with `bound`.
pub(crate) struct Source<'a, P: TreePolicy> {
    pub(crate) tree: &'a Tree<P>,
    pub(crate) bound: <P::Region as Region>::Bound,
}

impl<P: TreePolicy> KnnSource for Source<'_, P> {
    type Node = (PageId, u16);

    fn root(&self) -> Result<Option<Self::Node>> {
        if self.tree.is_empty() {
            return Ok(None);
        }
        Ok(Some((self.tree.root, self.tree.top_level()?)))
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
            Layout::Leaf(cols) => {
                scan_leaf_columns(&cols, query, prune2, out)
                    .map_err(|e| IndexError::Corrupt(e.to_string()))?;
                // The query is finite, so only a NaN or infinite lane
                // scores a non-finite distance: fail the page as `verify`
                // and `contains` do. Only survivors are checked; an entry
                // abandoned before its bad lane stays unseen.
                if out.points.iter().any(|p| !p.dist2.is_finite()) {
                    return Err(in_page(id, non_finite_leaf()));
                }
                Ok(())
            }
            // Score each child's region in place. Decoding the node would
            // materialise a heap vector per coordinate block — at bench
            // scale ~10k allocations per query.
            Layout::Inner { n, mut rest } => {
                let bytes = P::Region::bytes(self.tree.params.dim);
                for _ in 0..n {
                    let raw = rest.get_bytes(bytes)?;
                    let child = (rest.get_u64()?, level - 1);
                    P::Region::push_branch(raw, query, self.bound, child, out)?;
                }
                Ok(())
            }
        }
    }
}
