//! The unified index API: one trait all five tree structures implement.
//!
//! Everything downstream of the trees — the CLI, the benchmark
//! harness, the batch-query executor — used to dispatch over the concrete
//! tree types with five-arm `match` blocks. [`SpatialIndex`] replaces
//! that: a `Box<dyn SpatialIndex>` (or a generic bound) gives callers the
//! whole read/write surface, and [`IndexError`] is the one error every
//! layer from page decode to this API returns.
//!
//! The trait is deliberately object-safe (recorders are passed as
//! `&dyn Recorder`) and its query methods take `&self`: with the sharded
//! pager underneath, a `dyn SpatialIndex + Sync` is what the parallel
//! batch executor in `sr-exec` fans out over.

use std::fmt;

use sr_obs::{Noop, Recorder};
use sr_pager::{IoStats, PageFile, PagerError};

use crate::heap::Neighbor;
use crate::knn::SearchOrder;

/// What a query wants back: the `k` nearest neighbors, or every point
/// within a radius. Carried by [`QuerySpec`] so one [`SpatialIndex::query`]
/// entry point serves both shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryShape {
    /// The `k` nearest neighbors, ascending by distance.
    Knn {
        /// Number of neighbors requested.
        k: usize,
    },
    /// Every point within `radius`, ascending by distance.
    Range {
        /// Inclusive search radius (must be non-negative and non-NaN).
        radius: f64,
    },
}

/// A fully-specified query: the point, the shape (kNN or range) and the
/// visit order. This is the one argument of [`SpatialIndex::query`],
/// which is what lets the wire layer, the CLI, and the batch executor
/// share a single dispatch path.
///
/// The query point is borrowed, so building a spec is free: batch drivers
/// can construct one per query without cloning coordinate buffers.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec<'q> {
    /// The query point.
    pub point: &'q [f32],
    /// What to return: kNN or range.
    pub shape: QueryShape,
    /// The order a k-NN search visits branches in. Range queries read
    /// the same pages in either order and always run depth-first.
    pub order: SearchOrder,
}

impl<'q> QuerySpec<'q> {
    /// A k-nearest-neighbor spec, answered best-first: the served order,
    /// which reads no more pages than the paper's.
    pub fn knn(point: &'q [f32], k: usize) -> Self {
        QuerySpec {
            point,
            shape: QueryShape::Knn { k },
            order: SearchOrder::BestFirst,
        }
    }

    /// A range spec.
    pub fn range(point: &'q [f32], radius: f64) -> Self {
        QuerySpec {
            point,
            shape: QueryShape::Range { radius },
            order: SearchOrder::DepthFirst,
        }
    }

    /// This spec in the paper's depth-first order (§4.4) — what the
    /// paper-figure harness counts reads in. The answer is the same.
    pub fn depth_first(self) -> Self {
        QuerySpec {
            order: SearchOrder::DepthFirst,
            ..self
        }
    }
}

/// What a query returns. A struct rather than a bare `Vec` so the result
/// surface can grow (e.g. truncation or timing markers) without touching
/// every [`SpatialIndex`] implementation again.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Matching neighbors, ascending by distance (ties by payload id).
    pub rows: Vec<Neighbor>,
}

impl QueryOutput {
    /// Wrap a sorted neighbor list.
    pub fn from_rows(rows: Vec<Neighbor>) -> Self {
        QueryOutput { rows }
    }
}

/// The error of the whole index stack: page decode, the paged core, the
/// five trees, the search and the [`SpatialIndex`] API.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying page I/O failed.
    Pager(PagerError),
    /// A point or query of the wrong dimensionality was offered.
    DimensionMismatch {
        /// Dimensionality the index was created with.
        expected: usize,
        /// Dimensionality of the offending point.
        got: usize,
    },
    /// A point or query with a NaN or infinite coordinate was offered.
    NonFinite {
        /// Position of the first non-finite coordinate.
        axis: usize,
        /// Its value.
        value: f32,
    },
    /// The page file does not contain this kind of index (bad magic or
    /// incompatible version in the tree metadata).
    NotThisIndex(String),
    /// A range query was asked with a negative or NaN radius.
    InvalidRadius(f64),
    /// The operation is not supported by this index structure (e.g.
    /// inserting into the bulk-load-only VAMSplit R-tree, or splitting a
    /// K-D-B-tree point page of coincident points, which no plane can
    /// separate).
    Unsupported(&'static str),
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
    /// A structural invariant of the index does not hold — a decoded page
    /// contradicts itself or its parent (empty node, dangling child link,
    /// misplaced level, invalid region geometry, overlapping K-D-B
    /// siblings). Always a sign of on-disk corruption or an internal bug;
    /// never raised on well-formed input.
    Corrupt(String),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Pager(e) => write!(f, "page I/O failed: {e}"),
            IndexError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: index is {expected}-d, point is {got}-d"
                )
            }
            IndexError::NonFinite { axis, value } => write!(
                f,
                "non-finite coordinate {value} at axis {axis}: points and queries must be finite"
            ),
            IndexError::NotThisIndex(msg) => write!(f, "not a valid index file: {msg}"),
            IndexError::InvalidRadius(r) => {
                write!(f, "invalid range radius {r}: must be non-negative")
            }
            IndexError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            IndexError::InvalidParams {
                page_capacity,
                dim,
                data_area,
            } => write!(
                f,
                "{dim}-d points with {data_area}-byte data areas do not fit two entries \
                 per node and leaf in a {page_capacity}-byte page payload (need dim > 0 \
                 and data area >= 8)"
            ),
            IndexError::Corrupt(msg) => write!(f, "index structure corrupt: {msg}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Pager(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PagerError> for IndexError {
    fn from(e: PagerError) -> Self {
        IndexError::Pager(e)
    }
}

/// A disk-resident spatial index over `f32` points with `u64` payloads.
///
/// Implemented by all five tree structures in the workspace (SR-tree,
/// SS-tree, R\*-tree, K-D-B-tree, VAMSplit R-tree). Queries take `&self`
/// and are safe to call from many threads at once (`Send + Sync` is a
/// supertrait); mutation (`insert`) takes `&mut self` and is therefore
/// exclusive by construction.
pub trait SpatialIndex: Send + Sync {
    /// Short stable name of the index structure (e.g. `"sr"`, `"rstar"`).
    fn kind_name(&self) -> &'static str;

    /// Dimensionality of the indexed points.
    fn dim(&self) -> usize;

    /// Number of stored entries.
    fn len(&self) -> u64;

    /// Whether the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Height of the tree (0 = empty).
    fn height(&self) -> u32;

    /// Total number of leaf pages.
    fn num_leaves(&self) -> Result<u64, IndexError>;

    /// Insert one point. Structures that only support bulk construction
    /// return [`IndexError::Unsupported`].
    fn insert(&mut self, point: &[f32], data: u64) -> Result<(), IndexError>;

    /// Remove one `(point, data)` entry, reporting whether it was
    /// present. Structures without a delete path return
    /// [`IndexError::Unsupported`].
    fn delete(&mut self, point: &[f32], data: u64) -> Result<bool, IndexError> {
        let _ = (point, data);
        Err(IndexError::Unsupported("delete"))
    }

    /// Answer one query. This is the single query entry point: the spec
    /// carries the point and the shape (kNN or range), so every caller —
    /// CLI, wire dispatch, batch executor, fuzzer — goes through the same
    /// method. Results are sorted by ascending distance (ties broken by
    /// payload id).
    fn query(&self, spec: &QuerySpec<'_>, rec: &dyn Recorder) -> Result<QueryOutput, IndexError>;

    /// kNN without instrumentation.
    fn knn(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, IndexError> {
        self.query(&QuerySpec::knn(query, k), &Noop).map(|o| o.rows)
    }

    /// Range query without instrumentation.
    fn range(&self, query: &[f32], radius: f64) -> Result<Vec<Neighbor>, IndexError> {
        self.query(&QuerySpec::range(query, radius), &Noop)
            .map(|o| o.rows)
    }

    /// The pager underneath — for cache-capacity control and I/O
    /// accounting.
    fn pager(&self) -> &PageFile;

    /// Snapshot of the pager's I/O counters.
    fn io_stats(&self) -> IoStats {
        self.pager().stats()
    }

    /// Write back dirty pages and metadata.
    fn flush(&self) -> Result<(), IndexError>;

    /// Check the structure's invariants, returning a one-line summary on
    /// success. Structures without a checker report
    /// [`IndexError::Unsupported`].
    fn verify(&self) -> Result<String, IndexError> {
        Err(IndexError::Unsupported("no invariant checker"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal in-memory implementation to exercise the trait's default
    /// methods and object safety.
    struct BruteIndex {
        pager: PageFile,
        dim: usize,
        points: Vec<(Vec<f32>, u64)>,
    }

    impl SpatialIndex for BruteIndex {
        fn kind_name(&self) -> &'static str {
            "brute"
        }
        fn dim(&self) -> usize {
            self.dim
        }
        fn len(&self) -> u64 {
            self.points.len() as u64
        }
        fn height(&self) -> u32 {
            1
        }
        fn num_leaves(&self) -> Result<u64, IndexError> {
            Ok(1)
        }
        fn insert(&mut self, point: &[f32], data: u64) -> Result<(), IndexError> {
            if point.len() != self.dim {
                return Err(IndexError::DimensionMismatch {
                    expected: self.dim,
                    got: point.len(),
                });
            }
            self.points.push((point.to_vec(), data));
            Ok(())
        }
        fn query(
            &self,
            spec: &QuerySpec<'_>,
            _rec: &dyn Recorder,
        ) -> Result<QueryOutput, IndexError> {
            let flat = self.points.iter().map(|(p, id)| (p.as_slice(), *id));
            let rows = match spec.shape {
                QueryShape::Knn { k } => crate::brute_force_knn(flat, spec.point, k),
                QueryShape::Range { radius } => {
                    if radius.is_nan() || radius < 0.0 {
                        return Err(IndexError::InvalidRadius(radius));
                    }
                    crate::brute_force_range(flat, spec.point, radius)
                }
            };
            Ok(QueryOutput::from_rows(rows))
        }
        fn pager(&self) -> &PageFile {
            &self.pager
        }
        fn flush(&self) -> Result<(), IndexError> {
            Ok(self.pager.flush()?)
        }
    }

    fn sample() -> BruteIndex {
        let mut ix = BruteIndex {
            pager: PageFile::create_in_memory(512).expect("in-memory pager"),
            dim: 2,
            points: Vec::new(),
        };
        for (i, p) in [[0.0f32, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]
            .iter()
            .enumerate()
        {
            ix.insert(p, i as u64).expect("insert");
        }
        ix
    }

    #[test]
    fn trait_object_queries_work() {
        let ix = sample();
        let dynix: &dyn SpatialIndex = &ix;
        assert_eq!(dynix.kind_name(), "brute");
        assert_eq!(dynix.len(), 4);
        assert!(!dynix.is_empty());
        let nn = dynix.knn(&[0.1, 0.1], 2).expect("knn");
        assert_eq!(nn[0].data, 0);
        assert_eq!(nn.len(), 2);
        let within = dynix.range(&[0.0, 0.0], 2.0).expect("range");
        assert_eq!(
            within.iter().map(|n| n.data).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(matches!(
            dynix.range(&[0.0, 0.0], -1.0),
            Err(IndexError::InvalidRadius(_))
        ));
        // default verify is a typed refusal, not a panic
        assert!(matches!(dynix.verify(), Err(IndexError::Unsupported(_))));
        // io_stats default goes through the pager
        let _ = dynix.io_stats();
    }

    #[test]
    fn index_error_display_and_source() {
        let e = IndexError::DimensionMismatch {
            expected: 16,
            got: 2,
        };
        assert!(e.to_string().contains("16"));
        let e: IndexError = PagerError::Corrupt("boom".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(IndexError::Unsupported("x").to_string().contains('x'));
        let e = IndexError::InvalidParams {
            page_capacity: 8187,
            dim: 600,
            data_area: 512,
        };
        assert!(e
            .to_string()
            .starts_with("600-d points with 512-byte data areas"));
    }
}
