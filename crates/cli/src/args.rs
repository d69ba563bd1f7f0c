//! Hand-rolled argument parsing (the workspace's dependency policy
//! admits no CLI framework; the grammar is small enough not to need
//! one).
//!
//! Every way user input can be malformed maps to a variant of
//! [`ArgError`]; the binary prints the error plus the usage banner and
//! exits non-zero.

use std::fmt;
use std::path::PathBuf;

use sr_testkit::{DataDist, TreeKind};

/// The usage banner printed alongside argument errors.
pub const USAGE: &str =
    "usage: srtool <gen|build|insert|knn|range|stats|verify|serve|client|fuzz|lint> ...\n\
     see `srtool --help`";

/// The `srtool --help` text: command grammar plus the exit-code
/// taxonomy scripts rely on.
pub const HELP: &str = "\
srtool — build, query, and serve SR-tree-family index files

  srtool gen     --kind uniform|cluster|histogram --n 10000 --dim 16 --seed 7 out.tsv
  srtool build   --index sr|ss|rstar|kdb|vam --dim 16 index.pages data.tsv
  srtool insert  index.pages data.tsv
  srtool knn     index.pages --k 21 --query 0.1,0.2,...  (or --batch q.tsv --threads 8)
  srtool range   index.pages --radius 0.5 --query 0.1,0.2,...
  srtool stats   index.pages [--json]
  srtool verify  index.pages
  srtool serve   index.pages [--addr 127.0.0.1:7878] [--threads 4]
                 [--max-conns 64] [--max-batch 128]
  srtool client  ping|knn|range|insert|stats|shutdown --addr HOST:PORT
                 [--k N] [--query v,..] [--batch q.tsv] [--radius R] [--data d.tsv]
  srtool fuzz    --seed 0xd1ff0001 --ops 2000 --dim 8 --dist uniform|cluster|real
  srtool lint    [--json] [--root <workspace-root>] [--rule <id>] [--stats]

Data files are TSV: one point per line, `id <TAB> c0 <TAB> c1 ...`.

`serve` answers typed wire requests over TCP until a `shutdown`
request arrives; it then drains in-flight connections and flushes, so
the index reopens with zero WAL replays. Connections past --max-conns
are answered with a typed `overloaded` error, never silently dropped.

exit codes:
  0  success
  1  execution failure (bad data file, corrupt index, lint findings)
  2  usage error (malformed arguments or semantically invalid input)
  3  remote error (`client` could not reach the server, or the server
     answered with a typed error such as overloaded)";

/// A malformed `srtool` invocation. Each variant pinpoints the flag or
/// argument at fault so the message tells the user what to fix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A flag's value failed to parse or is out of range.
    BadValue { flag: &'static str, detail: String },
    /// A required flag was not given.
    MissingFlag(&'static str),
    /// A flag appeared twice.
    DuplicateFlag(&'static str),
    /// A flag was given with no value after it.
    MissingValue(&'static str),
    /// Wrong number of positional arguments.
    WrongPositionals { want: usize, got: usize },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given"),
            ArgError::UnknownCommand(cmd) => write!(f, "unknown command {cmd:?}"),
            ArgError::BadValue { flag, detail } => write!(f, "bad {flag}: {detail}"),
            ArgError::MissingFlag(flag) => write!(f, "missing {flag}"),
            ArgError::DuplicateFlag(flag) => write!(f, "{flag} given twice"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::WrongPositionals { want, got } => {
                write!(f, "expected {want} positional argument(s), got {got}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Which synthetic data set `gen` produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenKind {
    /// Uniform in the unit cube (§3.1).
    Uniform,
    /// The §5.4 cluster data set.
    Cluster,
    /// Simulated color histograms (the "real data set" stand-in).
    Histogram,
}

impl GenKind {
    fn from_str(s: &str) -> Result<Self, ArgError> {
        match s {
            "uniform" => Ok(GenKind::Uniform),
            "cluster" => Ok(GenKind::Cluster),
            "histogram" | "real" => Ok(GenKind::Histogram),
            other => Err(ArgError::BadValue {
                flag: "--kind",
                detail: format!("unknown data kind {other:?} (uniform|cluster|histogram)"),
            }),
        }
    }
}

/// A fully parsed srtool invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate a TSV data file.
    Gen {
        kind: GenKind,
        n: usize,
        dim: usize,
        seed: u64,
        clusters: usize,
        out: PathBuf,
    },
    /// Create an index file and load a TSV into it.
    Build {
        index: TreeKind,
        dim: usize,
        index_path: PathBuf,
        data_path: PathBuf,
    },
    /// Insert a TSV into an existing (dynamic) index.
    Insert {
        index_path: PathBuf,
        data_path: PathBuf,
    },
    /// k-nearest-neighbor query — one `--query` vector, or a `--batch`
    /// file of query vectors fanned across `--threads` workers.
    Knn {
        index_path: PathBuf,
        k: usize,
        /// Single query vector (`--query`); exclusive with `batch`.
        query: Option<Vec<f32>>,
        /// TSV file of query vectors (`--batch`); exclusive with `query`.
        batch: Option<PathBuf>,
        /// Worker threads for batch mode (>= 1; ignored with `--query`).
        threads: usize,
        /// Emit a per-query metrics line (expansions, prune breakdown,
        /// I/O window) after the results.
        trace: bool,
        /// Machine-readable output: one JSON object instead of TSV rows.
        json: bool,
    },
    /// Range query.
    Range {
        index_path: PathBuf,
        radius: f64,
        query: Vec<f32>,
        trace: bool,
        json: bool,
    },
    /// Print index metadata, parameters, and I/O statistics.
    Stats { index_path: PathBuf, json: bool },
    /// Run the structural-invariant checker.
    Verify { index_path: PathBuf },
    /// Replay a differential-fuzz op tape (opt-in; this is the replay
    /// side of the `SEED=` lines the tier-1 fuzz tests print).
    Fuzz {
        seed: u64,
        ops: usize,
        dim: usize,
        dist: DataDist,
        page_size: usize,
        verify_every: usize,
    },
    /// Run the srlint static-analysis pass over the workspace.
    Lint {
        json: bool,
        root: Option<PathBuf>,
        /// Keep only one family (`L4`) or exact rule (`L4/lock-io`).
        rule: Option<String>,
        /// Append a one-line run summary (files, findings, elapsed ms).
        stats: bool,
    },
    /// Serve an index over TCP until a `shutdown` request drains it.
    Serve {
        index_path: PathBuf,
        /// Listen address (port 0 picks an ephemeral port).
        addr: String,
        /// Worker threads per coalesced query batch.
        threads: usize,
        /// Admission cap: the next connection past this gets a typed
        /// `overloaded` error.
        max_conns: usize,
        /// Most pipelined requests coalesced per batch round.
        max_batch: usize,
    },
    /// Drive a running `serve` instance.
    Client {
        /// Server address, `HOST:PORT`.
        addr: String,
        op: ClientOp,
    },
    /// Print the command grammar and exit-code taxonomy.
    Help,
}

/// One `srtool client` operation.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientOp {
    /// Liveness round-trip.
    Ping,
    /// k-NN — one `--query` vector or a pipelined `--batch` file.
    Knn {
        query: Option<Vec<f32>>,
        k: u32,
        batch: Option<PathBuf>,
    },
    /// Range query.
    Range { query: Vec<f32>, radius: f64 },
    /// Insert a TSV of points.
    Insert { data_path: PathBuf },
    /// Fetch the service stats JSON document.
    Stats,
    /// Ask the server to drain, flush, and exit.
    Shutdown,
}

/// Parse `argv[1..]`.
pub fn parse(args: &[String]) -> Result<Command, ArgError> {
    let mut it = args.iter().map(|s| s.as_str());
    let verb = it.next().ok_or(ArgError::MissingCommand)?;
    let rest: Vec<&str> = it.collect();
    match verb {
        "gen" => parse_gen(&rest),
        "build" => parse_build(&rest),
        "insert" => {
            let pos = positionals(&rest, 2)?;
            Ok(Command::Insert {
                index_path: pos[0].into(),
                data_path: pos[1].into(),
            })
        }
        "knn" => {
            let pos = positionals(&rest, 1)?;
            let k: usize = flag(&rest, "--k")?
                .unwrap_or("21")
                .parse()
                .map_err(bad("--k"))?;
            let query = flag(&rest, "--query")?.map(parse_query).transpose()?;
            let batch = flag(&rest, "--batch")?.map(PathBuf::from);
            match (&query, &batch) {
                (None, None) => return Err(ArgError::MissingFlag("--query")),
                (Some(_), Some(_)) => {
                    return Err(ArgError::BadValue {
                        flag: "--batch",
                        detail: "exclusive with --query: give one or the other".into(),
                    })
                }
                _ => {}
            }
            let threads: usize = flag(&rest, "--threads")?
                .unwrap_or("1")
                .parse()
                .map_err(bad("--threads"))?;
            if threads == 0 {
                return Err(ArgError::BadValue {
                    flag: "--threads",
                    detail: "must be at least 1".into(),
                });
            }
            Ok(Command::Knn {
                index_path: pos[0].into(),
                k,
                query,
                batch,
                threads,
                trace: bool_flag(&rest, "--trace")?,
                json: bool_flag(&rest, "--json")?,
            })
        }
        "range" => {
            let pos = positionals(&rest, 1)?;
            let radius: f64 = flag(&rest, "--radius")?
                .ok_or(ArgError::MissingFlag("--radius"))?
                .parse()
                .map_err(bad("--radius"))?;
            // Reject at parse time so a bad radius is a usage error
            // (exit 2), matching the trees' IndexError::InvalidRadius.
            if radius.is_nan() || radius < 0.0 {
                return Err(ArgError::BadValue {
                    flag: "--radius",
                    detail: format!("{radius} must be non-negative"),
                });
            }
            Ok(Command::Range {
                index_path: pos[0].into(),
                radius,
                query: parse_query(
                    flag(&rest, "--query")?.ok_or(ArgError::MissingFlag("--query"))?,
                )?,
                trace: bool_flag(&rest, "--trace")?,
                json: bool_flag(&rest, "--json")?,
            })
        }
        "stats" => {
            let pos = positionals(&rest, 1)?;
            Ok(Command::Stats {
                index_path: pos[0].into(),
                json: bool_flag(&rest, "--json")?,
            })
        }
        "verify" => {
            let pos = positionals(&rest, 1)?;
            Ok(Command::Verify {
                index_path: pos[0].into(),
            })
        }
        "serve" => parse_serve(&rest),
        "client" => parse_client(&rest),
        "--help" | "-h" | "help" => Ok(Command::Help),
        "fuzz" => parse_fuzz(&rest),
        "lint" => {
            let (mut json, mut stats) = (false, false);
            let mut root = None;
            let mut rule = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    "--stats" => {
                        stats = true;
                        i += 1;
                    }
                    "--root" => {
                        let v = rest.get(i + 1).ok_or(ArgError::MissingValue("--root"))?;
                        root = Some(PathBuf::from(v));
                        i += 2;
                    }
                    "--rule" => {
                        let v = rest.get(i + 1).ok_or(ArgError::MissingValue("--rule"))?;
                        let family = v.split('/').next().unwrap_or("");
                        if !sr_lint::RULE_FAMILIES.contains(&family)
                            || sr_lint::RETIRED_RULES.contains(v)
                        {
                            return Err(ArgError::BadValue {
                                flag: "--rule",
                                detail: format!(
                                    "{v:?} names no live rule family or rule (families: {})",
                                    sr_lint::RULE_FAMILIES.join(", ")
                                ),
                            });
                        }
                        rule = Some((*v).to_string());
                        i += 2;
                    }
                    other => {
                        return Err(ArgError::BadValue {
                            flag: "lint",
                            detail: format!(
                                "unknown argument {other:?} (--json, --root <dir>, --rule <id>, \
                                 --stats)"
                            ),
                        })
                    }
                }
            }
            Ok(Command::Lint {
                json,
                root,
                rule,
                stats,
            })
        }
        other => Err(ArgError::UnknownCommand(other.to_string())),
    }
}

fn parse_gen(rest: &[&str]) -> Result<Command, ArgError> {
    let pos = positionals(rest, 1)?;
    Ok(Command::Gen {
        kind: GenKind::from_str(flag(rest, "--kind")?.unwrap_or("uniform"))?,
        n: flag(rest, "--n")?
            .unwrap_or("10000")
            .parse()
            .map_err(bad("--n"))?,
        dim: flag(rest, "--dim")?
            .unwrap_or("16")
            .parse()
            .map_err(bad("--dim"))?,
        seed: flag(rest, "--seed")?
            .unwrap_or("42")
            .parse()
            .map_err(bad("--seed"))?,
        clusters: flag(rest, "--clusters")?
            .unwrap_or("100")
            .parse()
            .map_err(bad("--clusters"))?,
        out: pos[0].into(),
    })
}

fn parse_index_kind(s: &str) -> Result<TreeKind, ArgError> {
    TreeKind::parse(s).ok_or_else(|| ArgError::BadValue {
        flag: "--index",
        detail: format!("unknown index kind {s:?} (sr|ss|rstar|kdb|vam)"),
    })
}

fn parse_build(rest: &[&str]) -> Result<Command, ArgError> {
    let pos = positionals(rest, 2)?;
    Ok(Command::Build {
        index: parse_index_kind(flag(rest, "--index")?.unwrap_or("sr"))?,
        dim: flag(rest, "--dim")?
            .unwrap_or("16")
            .parse()
            .map_err(bad("--dim"))?,
        index_path: pos[0].into(),
        data_path: pos[1].into(),
    })
}

fn parse_serve(rest: &[&str]) -> Result<Command, ArgError> {
    let pos = positionals(rest, 1)?;
    let threads: usize = flag(rest, "--threads")?
        .unwrap_or("4")
        .parse()
        .map_err(bad("--threads"))?;
    if threads == 0 {
        return Err(ArgError::BadValue {
            flag: "--threads",
            detail: "must be at least 1".into(),
        });
    }
    let max_conns: usize = flag(rest, "--max-conns")?
        .unwrap_or("64")
        .parse()
        .map_err(bad("--max-conns"))?;
    if max_conns == 0 {
        return Err(ArgError::BadValue {
            flag: "--max-conns",
            detail: "must be at least 1".into(),
        });
    }
    let max_batch: usize = flag(rest, "--max-batch")?
        .unwrap_or("128")
        .parse()
        .map_err(bad("--max-batch"))?;
    if max_batch == 0 {
        return Err(ArgError::BadValue {
            flag: "--max-batch",
            detail: "must be at least 1".into(),
        });
    }
    Ok(Command::Serve {
        index_path: pos[0].into(),
        addr: flag(rest, "--addr")?
            .unwrap_or("127.0.0.1:7878")
            .to_string(),
        threads,
        max_conns,
        max_batch,
    })
}

fn parse_client(rest: &[&str]) -> Result<Command, ArgError> {
    let pos = positionals(rest, 1)?;
    let addr = flag(rest, "--addr")?
        .ok_or(ArgError::MissingFlag("--addr"))?
        .to_string();
    let op = match pos[0] {
        "ping" => ClientOp::Ping,
        "knn" => {
            let k: u32 = flag(rest, "--k")?
                .unwrap_or("21")
                .parse()
                .map_err(bad("--k"))?;
            let query = flag(rest, "--query")?.map(parse_query).transpose()?;
            let batch = flag(rest, "--batch")?.map(PathBuf::from);
            match (&query, &batch) {
                (None, None) => return Err(ArgError::MissingFlag("--query")),
                (Some(_), Some(_)) => {
                    return Err(ArgError::BadValue {
                        flag: "--batch",
                        detail: "exclusive with --query: give one or the other".into(),
                    })
                }
                _ => {}
            }
            ClientOp::Knn { query, k, batch }
        }
        "range" => {
            let radius: f64 = flag(rest, "--radius")?
                .ok_or(ArgError::MissingFlag("--radius"))?
                .parse()
                .map_err(bad("--radius"))?;
            if radius.is_nan() || radius < 0.0 {
                return Err(ArgError::BadValue {
                    flag: "--radius",
                    detail: format!("{radius} must be non-negative"),
                });
            }
            ClientOp::Range {
                query: parse_query(
                    flag(rest, "--query")?.ok_or(ArgError::MissingFlag("--query"))?,
                )?,
                radius,
            }
        }
        "insert" => ClientOp::Insert {
            data_path: flag(rest, "--data")?
                .ok_or(ArgError::MissingFlag("--data"))?
                .into(),
        },
        "stats" => ClientOp::Stats,
        "shutdown" => ClientOp::Shutdown,
        other => {
            return Err(ArgError::BadValue {
                flag: "client",
                detail: format!(
                    "unknown operation {other:?} (ping|knn|range|insert|stats|shutdown)"
                ),
            })
        }
    };
    Ok(Command::Client { addr, op })
}

fn parse_fuzz(rest: &[&str]) -> Result<Command, ArgError> {
    positionals(rest, 0)?;
    let dist_s = flag(rest, "--dist")?.unwrap_or("uniform");
    let ops: usize = flag(rest, "--ops")?
        .unwrap_or("2000")
        .parse()
        .map_err(bad("--ops"))?;
    if ops == 0 {
        return Err(ArgError::BadValue {
            flag: "--ops",
            detail: "must be at least 1".into(),
        });
    }
    let dim: usize = flag(rest, "--dim")?
        .unwrap_or("8")
        .parse()
        .map_err(bad("--dim"))?;
    if !(1..=32).contains(&dim) {
        return Err(ArgError::BadValue {
            flag: "--dim",
            detail: format!("{dim} out of range (1..=32)"),
        });
    }
    let page_size: usize = flag(rest, "--page-size")?
        .unwrap_or("2048")
        .parse()
        .map_err(bad("--page-size"))?;
    // 2 KiB guarantees every structure can hold >= 2 entries per node
    // at the paper's 512-byte data areas up to --dim 32.
    if !(2048..=65536).contains(&page_size) {
        return Err(ArgError::BadValue {
            flag: "--page-size",
            detail: format!("{page_size} out of range (2048..=65536)"),
        });
    }
    Ok(Command::Fuzz {
        seed: parse_seed(flag(rest, "--seed")?.unwrap_or("42"))?,
        ops,
        dim,
        dist: DataDist::parse(dist_s).ok_or_else(|| ArgError::BadValue {
            flag: "--dist",
            detail: format!("unknown distribution {dist_s:?} (uniform|cluster|real)"),
        })?,
        page_size,
        verify_every: flag(rest, "--verify-every")?
            .unwrap_or("500")
            .parse()
            .map_err(bad("--verify-every"))?,
    })
}

/// A seed, decimal or `0x`-hex — the failure reports print hex, so the
/// replay line must round-trip both spellings.
fn parse_seed(s: &str) -> Result<u64, ArgError> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(bad("--seed"))
}

/// Flags that take no value (everything else is `--name value`).
const BOOL_FLAGS: &[&str] = &["--trace", "--json"];

/// Extract `--name value` from an argument slice.
fn flag<'a>(rest: &[&'a str], name: &'static str) -> Result<Option<&'a str>, ArgError> {
    let mut found = None;
    let mut i = 0;
    while i < rest.len() {
        if rest[i] == name {
            let v = rest.get(i + 1).ok_or(ArgError::MissingValue(name))?;
            if found.is_some() {
                return Err(ArgError::DuplicateFlag(name));
            }
            found = Some(*v);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(found)
}

/// Whether a valueless flag is present.
fn bool_flag(rest: &[&str], name: &'static str) -> Result<bool, ArgError> {
    match rest.iter().filter(|a| **a == name).count() {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(ArgError::DuplicateFlag(name)),
    }
}

/// Non-flag arguments, validated for count.
fn positionals<'a>(rest: &[&'a str], want: usize) -> Result<Vec<&'a str>, ArgError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        if rest[i].starts_with("--") {
            // Boolean flags occupy one slot, valued flags two.
            i += if BOOL_FLAGS.contains(&rest[i]) { 1 } else { 2 };
        } else {
            out.push(rest[i]);
            i += 1;
        }
    }
    if out.len() != want {
        return Err(ArgError::WrongPositionals {
            want,
            got: out.len(),
        });
    }
    Ok(out)
}

fn parse_query(s: &str) -> Result<Vec<f32>, ArgError> {
    let coords: Result<Vec<f32>, _> = s.split(',').map(|c| c.trim().parse::<f32>()).collect();
    let coords = coords.map_err(bad("--query"))?;
    if coords.is_empty() {
        return Err(ArgError::BadValue {
            flag: "--query",
            detail: "empty query vector".into(),
        });
    }
    Ok(coords)
}

fn bad<E: fmt::Display>(flag: &'static str) -> impl Fn(E) -> ArgError {
    move |e| ArgError::BadValue {
        flag,
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, ArgError> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_gen_defaults() {
        let cmd = p(&["gen", "out.tsv"]).unwrap();
        match cmd {
            Command::Gen {
                kind, n, dim, seed, ..
            } => {
                assert_eq!(kind, GenKind::Uniform);
                assert_eq!((n, dim, seed), (10000, 16, 42));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_gen_with_flags() {
        let cmd = p(&[
            "gen",
            "--kind",
            "cluster",
            "--n",
            "500",
            "--dim",
            "8",
            "--clusters",
            "5",
            "x.tsv",
        ])
        .unwrap();
        match cmd {
            Command::Gen {
                kind,
                n,
                dim,
                clusters,
                out,
                ..
            } => {
                assert_eq!(kind, GenKind::Cluster);
                assert_eq!((n, dim, clusters), (500, 8, 5));
                assert_eq!(out, std::path::PathBuf::from("x.tsv"));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_build() {
        let cmd = p(&["build", "--index", "ss", "--dim", "4", "i.pages", "d.tsv"]).unwrap();
        match cmd {
            Command::Build { index, dim, .. } => {
                assert_eq!(index, TreeKind::Ss);
                assert_eq!(dim, 4);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_knn_query_vector() {
        let cmd = p(&["knn", "i.pages", "--k", "5", "--query", "0.1, 0.2,0.3"]).unwrap();
        match cmd {
            Command::Knn {
                k,
                query,
                batch,
                threads,
                trace,
                json,
                ..
            } => {
                assert_eq!(k, 5);
                assert_eq!(query, Some(vec![0.1, 0.2, 0.3]));
                assert_eq!(batch, None);
                assert_eq!(threads, 1);
                assert!(!trace && !json);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_knn_batch_mode() {
        let cmd = p(&["knn", "i.pages", "--batch", "q.tsv", "--threads", "8"]).unwrap();
        match cmd {
            Command::Knn {
                query,
                batch,
                threads,
                ..
            } => {
                assert_eq!(query, None);
                assert_eq!(batch, Some(PathBuf::from("q.tsv")));
                assert_eq!(threads, 8);
            }
            _ => panic!("wrong command"),
        }
        // --query and --batch are mutually exclusive; one is required.
        assert!(matches!(
            p(&["knn", "i.pages", "--query", "1,2", "--batch", "q.tsv"]),
            Err(ArgError::BadValue {
                flag: "--batch",
                ..
            })
        ));
        assert_eq!(
            p(&["knn", "i.pages", "--threads", "4"]),
            Err(ArgError::MissingFlag("--query"))
        );
        assert!(matches!(
            p(&["knn", "i.pages", "--batch", "q.tsv", "--threads", "0"]),
            Err(ArgError::BadValue {
                flag: "--threads",
                ..
            })
        ));
    }

    #[test]
    fn parse_trace_and_json_flags() {
        // Boolean flags must not swallow the following argument — here
        // `--trace` sits directly before the positional path.
        let cmd = p(&["knn", "--trace", "i.pages", "--json", "--query", "1,2"]).unwrap();
        match cmd {
            Command::Knn {
                index_path,
                trace,
                json,
                ..
            } => {
                assert_eq!(index_path, PathBuf::from("i.pages"));
                assert!(trace && json);
            }
            _ => panic!("wrong command"),
        }
        assert_eq!(
            p(&["knn", "i.pages", "--trace", "--trace", "--query", "1"]),
            Err(ArgError::DuplicateFlag("--trace"))
        );
        match p(&["stats", "i.pages", "--json"]).unwrap() {
            Command::Stats { json, .. } => assert!(json),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn negative_or_nan_radius_is_a_usage_error() {
        for r in ["-1", "-0.5", "NaN"] {
            assert!(
                matches!(
                    p(&["range", "i.pages", "--radius", r, "--query", "1,2"]),
                    Err(ArgError::BadValue {
                        flag: "--radius",
                        ..
                    })
                ),
                "radius {r} must be rejected at parse time"
            );
        }
        // Zero and +inf remain valid radii.
        assert!(p(&["range", "i.pages", "--radius", "0", "--query", "1"]).is_ok());
        assert!(p(&["range", "i.pages", "--radius", "inf", "--query", "1"]).is_ok());
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(
            p(&["knn", "i.pages"]),
            Err(ArgError::MissingFlag("--query"))
        );
        assert_eq!(
            p(&["frobnicate"]),
            Err(ArgError::UnknownCommand("frobnicate".to_string()))
        );
        assert_eq!(p(&[]), Err(ArgError::MissingCommand));
        assert_eq!(
            p(&["gen"]),
            Err(ArgError::WrongPositionals { want: 1, got: 0 })
        );
        assert!(matches!(
            p(&["build", "--index", "nope", "a", "b"]),
            Err(ArgError::BadValue {
                flag: "--index",
                ..
            })
        ));
        assert!(matches!(
            p(&["knn", "i.pages", "--query", "a,b"]),
            Err(ArgError::BadValue {
                flag: "--query",
                ..
            })
        ));
        assert_eq!(
            p(&["range", "i.pages", "--query", "1"]),
            Err(ArgError::MissingFlag("--radius"))
        );
        assert_eq!(
            p(&["knn", "i.pages", "--query"]),
            Err(ArgError::MissingValue("--query"))
        );
    }

    #[test]
    fn error_messages_name_the_flag() {
        let err = p(&["knn", "i.pages", "--k", "many", "--query", "1"]).unwrap_err();
        assert!(matches!(err, ArgError::BadValue { flag: "--k", .. }));
        assert!(err.to_string().starts_with("bad --k:"), "{err}");
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert_eq!(
            p(&["gen", "--n", "1", "--n", "2", "o.tsv"]),
            Err(ArgError::DuplicateFlag("--n"))
        );
    }

    #[test]
    fn parse_lint() {
        assert_eq!(
            p(&["lint"]).unwrap(),
            Command::Lint {
                json: false,
                root: None,
                rule: None,
                stats: false,
            }
        );
        assert_eq!(
            p(&["lint", "--json", "--root", "/tmp/ws"]).unwrap(),
            Command::Lint {
                json: true,
                root: Some(PathBuf::from("/tmp/ws")),
                rule: None,
                stats: false,
            }
        );
        assert_eq!(
            p(&["lint", "--rule", "L4", "--stats"]).unwrap(),
            Command::Lint {
                json: false,
                root: None,
                rule: Some("L4".to_string()),
                stats: true,
            }
        );
        assert_eq!(
            p(&["lint", "--rule", "L4/lock-io"]).unwrap(),
            Command::Lint {
                json: false,
                root: None,
                rule: Some("L4/lock-io".to_string()),
                stats: false,
            }
        );
        assert!(p(&["lint", "--rule", "no-such-family"]).is_err());
        assert!(p(&["lint", "--rule", "L7"]).is_err());
        assert!(p(&["lint", "--rule", "L6/error-conversion"]).is_err());
        assert!(p(&["lint", "--rule", "L3/dead-variant"]).is_err());
        assert!(p(&["lint", "--rule", "L6/swallowed-error"]).is_err());
        assert!(p(&["lint", "--timings"]).is_err());
        assert!(p(&["lint", "--rule"]).is_err());
        assert!(p(&["lint", "--frobnicate"]).is_err());
    }

    #[test]
    fn parse_fuzz_defaults() {
        let cmd = p(&["fuzz"]).unwrap();
        match cmd {
            Command::Fuzz {
                seed,
                ops,
                dim,
                dist,
                page_size,
                verify_every,
            } => {
                assert_eq!((seed, ops, dim), (42, 2000, 8));
                assert_eq!(dist, DataDist::Uniform);
                assert_eq!((page_size, verify_every), (2048, 500));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_fuzz_replay_line_round_trips() {
        // Exactly the spelling `sr_testkit::seed_line` prints.
        let cmd = p(&[
            "fuzz",
            "--seed",
            "0xd1ff0002",
            "--ops",
            "2000",
            "--dim",
            "8",
            "--dist",
            "cluster",
        ])
        .unwrap();
        match cmd {
            Command::Fuzz {
                seed,
                ops,
                dim,
                dist,
                ..
            } => {
                assert_eq!((seed, ops, dim), (0xD1FF_0002, 2000, 8));
                assert_eq!(dist, DataDist::Clustered);
            }
            _ => panic!("wrong command"),
        }
        // Decimal seeds keep working too.
        assert!(matches!(
            p(&["fuzz", "--seed", "7"]).unwrap(),
            Command::Fuzz { seed: 7, .. }
        ));
        assert!(p(&["fuzz", "--dist", "zipf"]).is_err());
        assert!(p(&["fuzz", "--seed", "0xgg"]).is_err());
        assert!(p(&["fuzz", "stray-positional"]).is_err());
        assert!(p(&["fuzz", "--ops", "0"]).is_err());
        assert!(p(&["fuzz", "--dim", "0"]).is_err());
        assert!(p(&["fuzz", "--dim", "33"]).is_err());
        assert!(p(&["fuzz", "--page-size", "64"]).is_err());
    }
}
