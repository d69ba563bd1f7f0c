//! The query search of the SR-tree reproduction.
//!
//! All five tree structures in this workspace answer k-nearest-neighbor
//! queries with the *same* algorithm — the depth-first branch-and-bound
//! search of Roussopoulos, Kelley & Vincent (SIGMOD 1995), exactly as the
//! paper states ("the nearest neighbor search ... is performed by applying
//! the algorithm presented in \[14\]", §4.4). What differs between trees is
//! only the *distance from a query point to a region*:
//!
//! * R\*-tree: `MINDIST` to the bounding rectangle;
//! * SS-tree: distance to the bounding sphere surface;
//! * SR-tree: `max` of the two — the better lower bound that is the whole
//!   point of the paper.
//!
//! To keep that distinction in one place per tree, the search is generic
//! over [`KnnSource`]: a tree exposes its root and a way to *expand* a node
//! into scored child branches or leaf points, and [`search`] does the
//! rest. It is one loop for every query: k-NN and range differ only in
//! where scored points go, and the paper's depth-first order and the
//! best-first extension ([`SearchOrder`]) only in how pending branches
//! are queued. Served k-NN runs best-first, which returns the same rows
//! from fewer pages; [`QuerySpec::depth_first`] asks for the paper's
//! order, which the paper-figure harness counts reads in. Branches carry their bound's provenance ([`RegionBound`]),
//! so the search, given any `sr-obs` recorder, can attribute every prune
//! event to the shape whose bound achieved it — the measurement behind
//! the paper's Figure 8–10 series.
//!
//! [`SpatialIndex`] is the unified, object-safe API all five trees
//! implement on top of this search — the single dispatch surface the
//! CLI, the benchmark harness, and the `sr-exec` batch executor use.
//! [`IndexError`] is the one error of the whole stack: a page decode, a
//! tree operation, the search and the trait all fail with it. The trees
//! themselves — page codec, `expand()`, verification and the one
//! `SpatialIndex` implementation — live in `sr-tree`, which depends on
//! this crate; nothing here knows a page layout.
//!
//! [`scan_leaf_columns`] is the columnar leaf scan every tree's
//! `expand()` runs; [`brute_force_knn`] provides exact linear-scan
//! answers used as ground truth by every correctness test in the
//! workspace.

#![forbid(unsafe_code)]

mod bruteforce;
mod heap;
mod index;
mod knn;
mod leaf_scan;

pub use bruteforce::{brute_force_knn, brute_force_range, pairwise_distance_stats, DistanceStats};
pub use heap::{CandidateSet, Neighbor};
pub use index::{IndexError, QueryOutput, QueryShape, QuerySpec, SpatialIndex};
pub use knn::{search, Branch, Expansion, KnnSource, RegionBound, SearchOrder};
pub use leaf_scan::scan_leaf_columns;
