//! Capacity parameters, derived from the page size exactly as the paper
//! does (Table 1).
//!
//! On-disk sizes per entry (coordinates are stored as 8-byte floats):
//!
//! * node entry = the region's bytes ([`Region::bytes`]) + child pointer
//!   (8);
//! * leaf entry = point (`D·8`) + data area (512 bytes by default — "the
//!   size of the data area associated to each leaf entry is 512 bytes",
//!   §3.1 — the first 8 of which hold the `u64` payload).
//!
//! At `D = 16` with 8 KiB pages this yields 30 node entries for the
//! rectangle trees, 55 for the SS-tree and 20 for the SR-tree, and 12
//! leaf entries for all of them.

use std::fmt;
use std::marker::PhantomData;

use sr_query::IndexError;

use super::region::Region;
use crate::Result;

/// Per-node header: level (u16) + entry count (u16).
pub(crate) const NODE_HEADER: usize = 4;

/// The paper's per-leaf-entry data area in bytes (§3.1), used by every
/// tree's path and in-memory constructors.
pub const DEFAULT_DATA_AREA: usize = 512;

/// Capacity and policy parameters of a tree whose inner entries hold
/// regions of type `R`.
pub struct Params<R: Region> {
    /// Dimensionality of indexed points.
    pub dim: usize,
    /// Bytes reserved per leaf entry for the data record (≥ 8).
    pub data_area: usize,
    /// Maximum entries in an internal node.
    pub max_node: usize,
    /// Minimum entries in a non-root internal node (40% of max).
    pub min_node: usize,
    /// Maximum entries in a leaf.
    pub max_leaf: usize,
    /// Minimum entries in a non-root leaf (40% of max).
    pub min_leaf: usize,
    /// Entries removed by forced reinsertion (30% of max, ≥ 1).
    pub reinsert_node: usize,
    /// Entries removed by forced reinsertion from a leaf.
    pub reinsert_leaf: usize,
    /// The tree's persisted policy knobs (the SR-tree's ablation
    /// options; `()` elsewhere).
    pub policy: R::Policy,
    region: PhantomData<fn() -> R>,
}

impl<R: Region> Clone for Params<R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R: Region> Copy for Params<R> {}

impl<R: Region> fmt::Debug for Params<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Params")
            .field("dim", &self.dim)
            .field("data_area", &self.data_area)
            .field("max_node", &self.max_node)
            .field("min_node", &self.min_node)
            .field("max_leaf", &self.max_leaf)
            .field("min_leaf", &self.min_leaf)
            .field("policy", &self.policy)
            .finish()
    }
}

impl<R: Region> Params<R> {
    /// Derive parameters from the usable page payload (see
    /// `PageFile::capacity`), the dimensionality, and the per-entry data
    /// area, with the default policy, for a configuration known to fit.
    ///
    /// # Panics
    /// Panics where [`Params::try_derive`] returns an error.
    #[allow(clippy::panic)] // documented contract panic; fallible callers use try_derive
    pub fn derive(page_capacity: usize, dim: usize, data_area: usize) -> Self {
        match Self::try_derive(page_capacity, dim, data_area) {
            Ok(p) => p,
            // Constant configurations only (tests, Table 1, the
            // benchmark); every path that takes a size from a user or a
            // file goes through `try_derive`.
            Err(e) => panic!("{e}"),
        }
    }

    /// Derive parameters from the usable page payload, the
    /// dimensionality, and the per-entry data area, with the default
    /// policy.
    ///
    /// # Errors
    /// [`IndexError::InvalidParams`] unless `dim > 0`, `data_area >= 8`,
    /// and the page holds at least 2 entries per node and per leaf.
    pub fn try_derive(page_capacity: usize, dim: usize, data_area: usize) -> Result<Self> {
        let invalid = IndexError::InvalidParams {
            page_capacity,
            dim,
            data_area,
        };
        if dim == 0 || data_area < 8 {
            return Err(invalid);
        }
        let Some(usable) = page_capacity.checked_sub(NODE_HEADER) else {
            return Err(invalid);
        };
        let max_node = usable / Self::node_entry_bytes(dim);
        let max_leaf = usable / Self::leaf_entry_bytes(dim, data_area);
        if max_node < 2 || max_leaf < 2 {
            return Err(invalid);
        }
        Ok(Params {
            dim,
            data_area,
            max_node,
            min_node: min_fill(max_node),
            max_leaf,
            min_leaf: min_fill(max_leaf),
            reinsert_node: reinsert_count(max_node),
            reinsert_leaf: reinsert_count(max_leaf),
            policy: R::Policy::default(),
            region: PhantomData,
        })
    }

    /// Bytes of one internal-node entry on disk: region + child pointer.
    pub fn node_entry_bytes(dim: usize) -> usize {
        R::bytes(dim) + 8
    }

    /// Bytes of one leaf entry on disk.
    pub fn leaf_entry_bytes(dim: usize, data_area: usize) -> usize {
        8 * dim + data_area
    }

    /// Maximum entries of a node at `level` (0 = leaf).
    pub fn max_at(&self, level: u16) -> usize {
        if level == 0 {
            self.max_leaf
        } else {
            self.max_node
        }
    }

    /// Minimum entries of a non-root node at `level` (0 = leaf).
    pub fn min_at(&self, level: u16) -> usize {
        if level == 0 {
            self.min_leaf
        } else {
            self.min_node
        }
    }
}

/// 40% minimum utilization, as the paper sets for every structure, but at
/// least 2 so splits are possible.
fn min_fill(max: usize) -> usize {
    ((max * 2) / 5).max(2).min(max / 2)
}

/// 30% reinsert fraction, as the paper sets.
fn reinsert_count(max: usize) -> usize {
    ((max * 3) / 10).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_geometry::Rect;

    #[test]
    fn rectangle_capacities_at_16_dimensions() {
        // 8192-byte page, 5-byte page header → 8187 usable.
        let p = Params::<Rect>::derive(8187, 16, 512);
        // node entry = 2*8*16 + 8 = 264 → (8187-4)/264 = 30
        assert_eq!((p.max_node, p.min_node, p.reinsert_node), (30, 12, 9));
        // leaf entry = 8*16 + 512 = 640 → (8187-4)/640 = 12
        assert_eq!((p.max_leaf, p.min_leaf, p.reinsert_leaf), (12, 4, 3));
    }

    #[test]
    fn fanout_shrinks_with_dimensionality() {
        let lo = Params::<Rect>::derive(8187, 8, 512);
        let hi = Params::<Rect>::derive(8187, 64, 512);
        assert!(hi.max_node < lo.max_node);
    }

    #[test]
    fn min_fill_bounds() {
        for max in 2..200 {
            let m = min_fill(max);
            assert!(m >= 1 && m <= max / 2, "max={max} m={m}");
            let r = reinsert_count(max);
            assert!(r >= 1 && max + 1 - r >= m, "max={max} r={r} m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "300-byte page")]
    fn tiny_page_rejected() {
        let _ = Params::<Rect>::derive(300, 64, 512);
    }

    #[test]
    fn try_derive_refuses_what_derive_panics_on() {
        let err = Params::<Rect>::try_derive(300, 64, 512).unwrap_err();
        assert!(matches!(
            err,
            IndexError::InvalidParams {
                page_capacity: 300,
                dim: 64,
                data_area: 512
            }
        ));
        assert!(Params::<Rect>::try_derive(8187, 0, 512).is_err());
        assert!(Params::<Rect>::try_derive(8187, 16, 4).is_err());
        assert!(Params::<Rect>::try_derive(3, 16, 512).is_err());
    }
}
