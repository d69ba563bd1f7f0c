//! TCP query service for the SR-tree reproduction.
//!
//! `sr-serve` puts an index behind a socket: a [`Server`] owns one
//! opened [`SpatialIndex`](sr_query::SpatialIndex), accepts framed
//! [`sr_wire`] requests over plain TCP (standard library only — no
//! async runtime, no protocol dependencies), and answers every frame
//! with exactly one typed response. The interpretation of a request is
//! *not* defined here — it is [`sr_wire::execute`], the same entry
//! point the offline CLI uses, or for a coalesced run its two halves
//! [`sr_wire::lower`] and [`sr_wire::answer`], so a served answer and
//! an offline answer for the same index state are byte-identical, and
//! every request is executed exactly once.
//!
//! What this crate adds on top of the wire layer:
//!
//! * **Threading** — one accept loop, one thread per admitted
//!   connection. Adjacent k-NN/range requests pipelined on one
//!   connection are coalesced into a single [`sr_exec::run_query_batch`]
//!   fan-out under one shared read lock, and each gets its own answer:
//!   a request refused in the run (an over-cap k-NN, a wrong dimension)
//!   is answered with its typed error while its neighbours still run. A
//!   lone request is answered on the connection thread.
//! * **Admission control** — at most `max_conns` connections are
//!   served; the next one is answered with a typed
//!   [`RemoteError::Overloaded`](sr_wire::RemoteError::Overloaded)
//!   frame and closed. Overload is always an answer, never a silent
//!   drop or an unbounded queue.
//! * **Graceful shutdown** — a `Shutdown` request acknowledges, refuses
//!   every request pipelined behind it on its connection with
//!   [`RemoteError::ShuttingDown`](sr_wire::RemoteError::ShuttingDown),
//!   stops admissions, drains in-flight connections, then flushes the index
//!   under the write lock so the WAL checkpoints and a subsequent open
//!   replays zero frames. (Pure-std code cannot catch SIGTERM; abrupt
//!   kills are instead covered by the pager's WAL crash recovery.)
//! * **Service stats** — a `Stats` request answers the same JSON
//!   document as `srtool stats --json` plus a `"metrics"` member
//!   carrying the service-lifetime query counters, folded in from
//!   every batch via [`StatsRecorder::absorb`](sr_obs::StatsRecorder).
//!
//! [`Client`] is the matching blocking connector the CLI `client`
//! subcommand and the benches drive; its [`Client::pipeline`] sends a
//! whole batch before reading any response, which is what lets the
//! server coalesce.

#![forbid(unsafe_code)]

mod client;
mod error;
mod server;

pub use client::Client;
pub use error::ServeError;
pub use server::{ServeConfig, Server};
