//! `srtool` — a command-line interface for the SR-tree reproduction.
//!
//! The library half holds the argument parsing and command execution so
//! they can be unit- and integration-tested; the `srtool` binary is a
//! thin wrapper.
//!
//! ```text
//! srtool gen     --kind uniform|cluster|histogram --n 10000 --dim 16 --seed 7 out.tsv
//! srtool build   --index sr|ss|rstar|kdb|vam --dim 16 index.pages data.tsv
//! srtool insert  index.pages data.tsv
//! srtool knn     index.pages --k 21 --query 0.1,0.2,...     (or --query-id N)
//! srtool range   index.pages --radius 0.5 --query 0.1,0.2,...
//! srtool stats   index.pages
//! srtool verify  index.pages
//! srtool serve   index.pages --addr 127.0.0.1:7878 --threads 4 --max-conns 64
//! srtool client  ping|knn|range|insert|stats|shutdown --addr HOST:PORT ...
//! srtool fuzz    --seed 0xd1ff0001 --ops 2000 --dim 8 --dist uniform|cluster|real
//! srtool lint    [--json] [--root <workspace-root>] [--rule <id>] [--stats]
//! ```
//!
//! Data files are TSV: one point per line, `id <TAB> c0 <TAB> c1 ...`.
//! Exit codes: 0 success, 1 execution failure, 2 usage error, 3 remote
//! (`client`) error — see `srtool --help`.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod data;

pub use args::{parse, ArgError, ClientOp, Command};
pub use commands::CmdError;
pub use data::DataError;

/// Run a parsed command, writing human-readable output to `out`.
pub fn run(cmd: Command, out: &mut dyn std::io::Write) -> Result<(), CmdError> {
    commands::run(cmd, out)
}
