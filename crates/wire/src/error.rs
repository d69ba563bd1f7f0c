//! Typed failure taxonomy for the wire protocol.

use std::fmt;

/// A frame that could not be decoded (or a value that cannot be
/// encoded). Decoding is total: every torn or bit-flipped input maps to
/// one of these variants, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame failed a checksum, declared an unknown kind, or its
    /// body did not parse as the kind's payload. The connection's
    /// framing can no longer be trusted.
    Corrupt {
        /// What failed, for the operator.
        detail: String,
    },
    /// A frame (or a value being encoded) exceeds the size cap.
    TooLarge {
        /// Declared or computed size in bytes.
        len: u64,
        /// The cap in force.
        max: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Corrupt { detail } => write!(f, "corrupt wire frame: {detail}"),
            WireError::TooLarge { len, max } => {
                write!(f, "wire frame too large: {len} B exceeds the {max} B cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A failure reported *by the remote end* inside a well-formed
/// [`Response::Error`](crate::Response::Error) frame — the server ran
/// (or refused) the request and said why. Distinct from [`WireError`],
/// which means the bytes themselves were bad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The server is at its admission limit; retry later. This is the
    /// typed backpressure signal — an overloaded server answers with
    /// this, it never silently drops a connection.
    Overloaded {
        /// Connections currently admitted.
        active: u64,
        /// The admission limit.
        max: u64,
    },
    /// The server is draining for shutdown and takes no new work.
    ShuttingDown,
    /// A frame exceeded the size cap: the request the server received,
    /// or the answer it would have sent.
    TooLarge {
        /// Declared or computed frame body size in bytes.
        len: u64,
        /// The cap in force.
        max: u64,
    },
    /// The index does not support the operation (e.g. inserting into
    /// the bulk-load-only VAMSplit R-tree).
    Unsupported(String),
    /// The request was well-formed on the wire but semantically invalid
    /// (dimension mismatch, negative radius, write on a read-only path).
    BadRequest(String),
    /// The request was valid but execution failed (I/O error, index
    /// corruption).
    Failed(String),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Overloaded { active, max } => {
                write!(f, "server overloaded: {active} of {max} connections in use")
            }
            RemoteError::ShuttingDown => write!(f, "server is shutting down"),
            RemoteError::TooLarge { len, max } => {
                write!(f, "frame too large: {len} B exceeds the {max} B cap")
            }
            RemoteError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            RemoteError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            RemoteError::Failed(detail) => write!(f, "request failed: {detail}"),
        }
    }
}

impl std::error::Error for RemoteError {}
