//! The typed request/response protocol between `srtool` and the query
//! service in `sr-serve`.
//!
//! This crate is the API redesign at the center of the serving work:
//! instead of per-subcommand argument plumbing, every query-shaped
//! operation in the workspace — the CLI `knn` / `range` / `insert`
//! subcommands, the server's per-connection dispatch, the bench load
//! driver — builds a typed [`Request`] value and hands it to one
//! [`execute`] entry point over `&mut dyn SpatialIndex`. The transport
//! is then *just* an encoding of those values: a checksummed,
//! length-prefixed binary frame format ([`encode_request`],
//! [`decode_request`] and their response twins) patterned on the
//! pager's WAL frames, with the CRC salted by protocol magic + version
//! the same way WAL frames are salted by truncation epoch.
//!
//! Decoding is total: a torn, truncated, or bit-flipped frame decodes
//! to a typed [`WireError`] (or reports [`Decoded::Incomplete`] when
//! more bytes may still arrive) — never a panic, never a silent
//! misparse. `tests/wire_format.rs` pins the byte format the same way
//! the WAL tests do: round-trips, every single-bit flip rejected,
//! every strict prefix incomplete.
//!
//! Deliberately transport-free: no sockets here, only bytes and
//! dispatch. `sr-serve` owns connections, admission control and
//! batching on top of this crate.

#![forbid(unsafe_code)]

mod error;
mod execute;
mod frame;
mod message;
mod stats;

pub use error::{RemoteError, WireError};
pub use execute::{execute, execute_read, oversized_answer, rows_response};
pub use frame::{
    decode_request, decode_response, encode_request, encode_response, Decoded, DEFAULT_MAX_BODY,
    WIRE_MAGIC, WIRE_VERSION,
};
pub use message::{Request, Response, Row};
pub use stats::{io_json, stats_json, stats_json_with, wal_json};
