//! The error type of every paged tree.

use std::fmt;

use sr_pager::PagerError;

use crate::IndexError;

/// Result alias for paged-tree operations.
pub type Result<T> = std::result::Result<T, TreeError>;

/// Errors from tree operations, shared by all five structures.
#[derive(Debug)]
pub enum TreeError {
    /// Underlying page I/O failed.
    Pager(PagerError),
    /// A point of the wrong dimensionality was offered.
    DimensionMismatch {
        /// Dimensionality the tree was created with.
        expected: usize,
        /// Dimensionality of the offending point.
        got: usize,
    },
    /// The page file does not contain this kind of index (bad magic or
    /// incompatible version in the tree metadata).
    NotThisIndex(String),
    /// A range query was asked with a negative or NaN radius.
    InvalidRadius(f64),
    /// The page cannot hold two entries per node and per leaf at this
    /// dimensionality and data area (or `dim` is 0, or the data area is
    /// under the 8-byte payload).
    InvalidParams {
        /// Usable payload bytes per page.
        page_capacity: usize,
        /// The requested dimensionality.
        dim: usize,
        /// The requested per-entry data area in bytes.
        data_area: usize,
    },
    /// A K-D-B-tree page overflowed but no coordinate plane can separate
    /// its entries — more coincident points than fit in one page. The
    /// K-D-B-tree splits *space*, and coincident points cannot be
    /// separated by any plane.
    Unsplittable,
    /// A structural invariant of the tree does not hold — a decoded page
    /// contradicts itself or its parent (empty node, dangling child link,
    /// invalid region geometry, overlapping K-D-B siblings). Always a
    /// sign of on-disk corruption or an internal bug; never raised on
    /// well-formed input.
    Corrupt(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Pager(e) => write!(f, "page I/O failed: {e}"),
            TreeError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: tree is {expected}-d, point is {got}-d"
                )
            }
            TreeError::NotThisIndex(msg) => write!(f, "not a valid index file: {msg}"),
            TreeError::InvalidRadius(r) => {
                write!(f, "invalid range radius {r}: must be non-negative")
            }
            TreeError::InvalidParams {
                page_capacity,
                dim,
                data_area,
            } => write!(
                f,
                "{dim}-d points with {data_area}-byte data areas do not fit two entries \
                 per node and leaf in a {page_capacity}-byte page payload (need dim > 0 \
                 and data area >= 8)"
            ),
            TreeError::Unsplittable => write!(
                f,
                "page overflow cannot be resolved: too many coincident points for one page"
            ),
            TreeError::Corrupt(msg) => write!(f, "tree structure corrupt: {msg}"),
        }
    }
}

impl std::error::Error for TreeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TreeError::Pager(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PagerError> for TreeError {
    fn from(e: PagerError) -> Self {
        TreeError::Pager(e)
    }
}

impl From<TreeError> for IndexError {
    fn from(e: TreeError) -> Self {
        match e {
            TreeError::Pager(p) => IndexError::Pager(p),
            TreeError::DimensionMismatch { expected, got } => {
                IndexError::DimensionMismatch { expected, got }
            }
            TreeError::NotThisIndex(s) => IndexError::NotThisIndex(s),
            TreeError::InvalidRadius(r) => IndexError::InvalidRadius(r),
            TreeError::InvalidParams { .. } => {
                IndexError::Unsupported("page too small for this dimensionality and data area")
            }
            TreeError::Unsplittable => {
                IndexError::Unsupported("K-D-B-tree point page cannot split (coincident points)")
            }
            TreeError::Corrupt(s) => IndexError::Corrupt(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(TreeError::Unsplittable.to_string().contains("coincident"));
        let e = TreeError::DimensionMismatch {
            expected: 16,
            got: 3,
        };
        assert!(e.to_string().contains("16") && e.to_string().contains('3'));
        assert!(matches!(
            IndexError::from(TreeError::Unsplittable),
            IndexError::Unsupported(_)
        ));
    }
}
