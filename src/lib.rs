//! Facade crate for the SR-tree reproduction workspace.
//!
//! Re-exports every crate of the reproduction of Katayama & Satoh,
//! *"The SR-tree: An Index Structure for High-Dimensional Nearest Neighbor
//! Queries"* (SIGMOD 1997), so downstream users can depend on a single
//! crate:
//!
//! ```
//! use srtree::tree::SrTree;       // the paper's contribution
//! use srtree::geometry::Point;
//! # let _ = (0, 0);
//! ```
//!
//! The individual crates remain usable on their own; see the workspace
//! README for the architecture overview.

#![forbid(unsafe_code)]

/// Workload generators: uniform, cluster, simulated color-histogram data.
pub use sr_dataset as dataset;
/// Parallel batch-query executor over any `SpatialIndex`.
pub use sr_exec as exec;
/// Geometry kernel: points, rectangles, spheres, MINDIST/MAXDIST.
pub use sr_geometry as geometry;
/// Observability: counters, histograms, span timers behind `Recorder`.
pub use sr_obs as obs;
/// Disk page store: 8 KiB pages, a buffer pool that keeps inner-node pages longest, I/O statistics.
pub use sr_pager as pager;
/// The one k-NN / range search loop, the `SpatialIndex` API and its
/// error, and brute-force ground truth; no page layout.
pub use sr_query as query;
/// TCP query service: thread-per-connection, admission control,
/// batch coalescing, graceful shutdown.
pub use sr_serve as serve;
/// The SR-tree itself (paper §4) and the one generic `Tree<P>` all five
/// structures are policies of, with its page codec and update driver
/// (`tree::paged`) and verify walker (`tree::verify`).
pub use sr_tree as tree;
/// Baseline: the K-D-B-tree (Robinson, SIGMOD 1981).
pub use sr_tree::kdbtree;
/// Baseline: the R\*-tree (Beckmann et al., SIGMOD 1990).
pub use sr_tree::rstar;
/// Baseline: the SS-tree (White & Jain, ICDE 1996).
pub use sr_tree::sstree;
/// Baseline: the VAMSplit R-tree (White & Jain, SPIE 1996), static build.
pub use sr_tree::vamsplit;
/// Typed `Request`/`Response` API, checksummed wire frames, and the
/// shared `execute` entry point the CLI and the server dispatch through.
pub use sr_wire as wire;
