//! The typed request/response model — the values every transport and
//! every dispatcher in the workspace agree on.

use crate::error::RemoteError;

/// One operation against an index. The CLI's offline `knn` / `range` /
/// `insert` subcommands, the server's per-connection loop, and the
/// bench load driver all build these; [`crate::execute`] is the one
/// place they are interpreted.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with `Ack { n: 0 }`.
    Ping,
    /// The `k` nearest neighbors of `query`.
    Knn {
        /// Query point.
        query: Vec<f32>,
        /// Number of neighbors.
        k: u32,
    },
    /// Every point within `radius` of `query`.
    Range {
        /// Query point.
        query: Vec<f32>,
        /// Inclusive search radius.
        radius: f64,
    },
    /// Insert one `(point, data)` entry.
    Insert {
        /// The point.
        point: Vec<f32>,
        /// Payload id stored with it.
        data: u64,
    },
    /// Delete one `(point, data)` entry.
    Delete {
        /// The point.
        point: Vec<f32>,
        /// Payload id it was stored with.
        data: u64,
    },
    /// The index + pager + WAL counters as the `stats --json` schema.
    Stats,
    /// Drain in-flight requests, flush the pager (truncating the WAL),
    /// and stop accepting connections.
    Shutdown,
}

/// One query hit: payload id and Euclidean distance (not squared — the
/// same number the CLI prints).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Payload id.
    pub data: u64,
    /// Euclidean distance from the query point.
    pub dist: f64,
}

/// The answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Query hits, ascending by distance (ties by payload id).
    Rows(Vec<Row>),
    /// Acknowledgement; `n` counts entries written (1 per insert, 1 per
    /// delete that found its entry, 0 otherwise).
    Ack {
        /// Entries affected.
        n: u64,
    },
    /// The `stats --json` document.
    Stats {
        /// A single-line JSON object (see `sr_wire::stats_json`).
        json: String,
    },
    /// The server refused or failed the request, and says why.
    Error(RemoteError),
}
