//! Malformed-input handling: the binary must reject bad arguments and
//! bad data files with a typed error, a usage hint, and a non-zero
//! exit — never a panic.

use std::path::PathBuf;
use std::process::Output;

use sr_cli::{parse, ArgError};
use sr_pager::{PageFile, PageKind};
use sr_testkit::TempDir;

fn srtool(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_srtool"))
        .args(args)
        .output()
        .unwrap()
}

/// A scratch directory for one test's files, removed when it drops.
fn scratch() -> TempDir {
    TempDir::new("srtool-errors").unwrap()
}

/// Generate `n` uniform 4-d points into `dir` and build an SR-tree over
/// them, returning the index file.
fn sr_index(dir: &TempDir, n: &str, seed: &str) -> PathBuf {
    let (data, index) = (dir.file("points.tsv"), dir.file("index.pages"));
    let (d, i) = (data.to_str().unwrap(), index.to_str().unwrap());
    let gen = srtool(&["gen", "--n", n, "--dim", "4", "--seed", seed, d]);
    assert!(gen.status.success());
    let build = srtool(&["build", "--index", "sr", "--dim", "4", i, d]);
    assert!(build.status.success());
    index
}

fn parse_err(args: &[&str]) -> ArgError {
    parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
}

#[test]
fn no_command_exits_2_with_usage() {
    let out = srtool(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage"), "{stderr}");
    assert!(stderr.contains("no command given"), "{stderr}");
}

#[test]
fn unknown_command_exits_2() {
    let out = srtool(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("frobnicate"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn malformed_flag_value_exits_2() {
    // --n wants a usize; "many" is not one.
    let out = srtool(&["gen", "--n", "many", "--dim", "4", "--seed", "1", "x.tsv"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--n"), "{stderr}");
    assert!(matches!(
        parse_err(&["gen", "--n", "many", "--dim", "4", "--seed", "1", "x.tsv"]),
        ArgError::BadValue { flag: "--n", .. }
    ));
}

#[test]
fn missing_flag_value_exits_2() {
    let out = srtool(&["knn", "index.pages", "--k"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(matches!(
        parse_err(&["knn", "index.pages", "--k"]),
        ArgError::MissingValue("--k")
    ));
}

#[test]
fn malformed_query_vector_exits_2() {
    let out = srtool(&["knn", "index.pages", "--k", "3", "--query", "0.1,zap,0.3"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--query"), "{stderr}");
}

#[test]
fn malformed_data_file_exits_1_with_location() {
    let dir = scratch();
    let data = dir.file("bad.tsv");
    std::fs::write(&data, "1\t0.5\t0.5\nnot-an-id\t0.5\t0.5\n").unwrap();
    let index = dir.file("bad.pages");
    let out = srtool(&[
        "build",
        "--index",
        "sr",
        "--dim",
        "2",
        index.to_str().unwrap(),
        data.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    // The DataError names the file and line of the bad id.
    assert!(stderr.contains(":2:"), "{stderr}");
    assert!(stderr.contains("bad id"), "{stderr}");
}

#[test]
fn negative_radius_exits_2() {
    // Rejected at parse time: a negative (or NaN) search radius is a
    // usage error, not a runtime failure.
    for bad in ["-1", "-0.5", "NaN"] {
        let out = srtool(&[
            "range",
            "index.pages",
            "--radius",
            bad,
            "--query",
            "0.1,0.2",
        ]);
        assert_eq!(out.status.code(), Some(2), "radius {bad}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--radius"), "radius {bad}: {stderr}");
    }
}

#[test]
fn trace_json_emits_metrics_schema() {
    // Build a small index through the binary, query it with
    // --trace --json, and check the structured line's schema: the
    // fields CI depends on must exist with sane values.
    let dir = scratch();
    let data = dir.file("trace.tsv");
    let index = dir.file("trace.pages");
    let gen = srtool(&[
        "gen",
        "--n",
        "800",
        "--dim",
        "8",
        "--seed",
        "11",
        data.to_str().unwrap(),
    ]);
    assert!(gen.status.success());
    let build = srtool(&[
        "build",
        "--index",
        "sr",
        "--dim",
        "8",
        index.to_str().unwrap(),
        data.to_str().unwrap(),
    ]);
    assert!(build.status.success());

    let q = ["0.5"; 8].join(",");
    let out = srtool(&[
        "knn",
        index.to_str().unwrap(),
        "--k",
        "5",
        "--query",
        &q,
        "--trace",
        "--json",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    for field in [
        "\"schema_version\":1",
        "\"cmd\":\"knn\"",
        "\"results\":[",
        "\"trace\":",
        "\"metrics\":",
        "\"node_expansions\":",
        "\"points_scored\":",
        "\"prune_events\":",
        "\"heap_high_water\":",
        "\"query_ns\":",
        "\"io\":",
        "\"cache_hits\":",
        "\"cache_misses\":",
        "\"wal_frames_appended\":",
        "\"wal_replays\":",
        "\"wal_torn_tails\":",
    ] {
        assert!(line.contains(field), "missing {field} in {line}");
    }
    // A fresh open means the query's window did real work.
    let expansions: u64 = extract_u64(line, "\"node_expansions\":");
    assert!(expansions > 0, "{line}");

    // Without --json the trace line moves to stderr and stdout stays TSV.
    let out = srtool(&[
        "knn",
        index.to_str().unwrap(),
        "--k",
        "5",
        "--query",
        &q,
        "--trace",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 5, "{stdout}");
    assert!(!stdout.contains('{'), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("\"metrics\":"), "{stderr}");
}

/// Pull the integer following `key` out of a flat JSON line.
fn extract_u64(line: &str, key: &str) -> u64 {
    let start = line.find(key).map(|i| i + key.len()).unwrap_or(0);
    line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

#[test]
fn unreachable_server_exits_3() {
    // Remote failures get their own exit code so scripts can tell a bad
    // server apart from a bad invocation (2) or a local failure (1).
    // Port 1 on loopback is never listening in the test environment.
    let out = srtool(&["client", "ping", "--addr", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn client_without_addr_exits_2() {
    // A missing --addr is a usage error, not a remote one.
    let out = srtool(&["client", "ping"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(matches!(
        parse_err(&["client", "ping"]),
        ArgError::MissingFlag("--addr")
    ));
}

#[test]
fn help_documents_serving_and_exit_codes() {
    let out = srtool(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "serve",
        "client",
        "--max-conns",
        "exit codes",
        "3",
        "remote",
    ] {
        assert!(stdout.contains(needle), "help missing {needle:?}: {stdout}");
    }
}

#[test]
fn missing_data_file_exits_1() {
    let dir = scratch();
    let index = dir.file("missing.pages");
    let out = srtool(&[
        "build",
        "--index",
        "sr",
        "--dim",
        "2",
        index.to_str().unwrap(),
        "/nonexistent/nope.tsv",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("nope.tsv"), "{stderr}");
}

#[test]
fn dimension_too_large_for_the_page_exits_2() {
    // 600-d points are valid data, but no 8 KiB page holds two 600-d
    // leaf entries: a usage error naming the dimension and the page
    // size, for the dynamic trees and the bulk-loaded one alike.
    let dir = scratch();
    let data = dir.file("wide.tsv");
    let gen = srtool(&[
        "gen",
        "--kind",
        "uniform",
        "--n",
        "10",
        "--dim",
        "600",
        "--seed",
        "3",
        data.to_str().unwrap(),
    ]);
    assert_eq!(gen.status.code(), Some(0));
    for kind in ["sr", "rstar", "vam"] {
        let index = dir.file(&format!("wide-{kind}.pages"));
        let out = srtool(&[
            "build",
            "--index",
            kind,
            "--dim",
            "600",
            index.to_str().unwrap(),
            data.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{kind}: {stderr}");
        assert!(
            stderr.contains("--dim 600") && stderr.contains("8192-byte"),
            "{kind}: {stderr}"
        );
    }
}

#[test]
fn huge_k_answers_every_point_instead_of_aborting() {
    // The largest `k` a wire `Knn` frame can carry (`u32::MAX`) once
    // aborted the process allocating the candidate heap; `srtool serve`
    // answers through the same path.
    let dir = scratch();
    let index = sr_index(&dir, "500", "13");
    let out = srtool(&[
        "knn",
        index.to_str().unwrap(),
        "--k",
        "4294967295",
        "--query",
        "0.1,0.2,0.3,0.4",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8(out.stdout).unwrap().lines().count(), 500);
}

#[test]
fn corrupt_root_entry_count_reads_as_corruption_on_every_path() {
    // An SR-tree file whose root claims more entries than its page
    // holds: one corruption, so `verify` and `knn` must report it with
    // the same line, naming the page, as a corrupt structure rather than
    // a foreign file.
    let dir = scratch();
    let index = sr_index(&dir, "3000", "17");
    let root = {
        // The metadata header: magic, version, dim, data area (u32
        // each), then the root page id (u64).
        let pf = PageFile::open(&index).unwrap();
        let meta = pf.user_meta();
        let root = u64::from_le_bytes(meta[16..24].try_into().unwrap());
        let mut payload = pf.read(root, PageKind::Node).unwrap().to_vec();
        // The inner-node header is (level, n), two little-endian u16s.
        payload[2..4].copy_from_slice(&32767u16.to_le_bytes());
        pf.write(root, PageKind::Node, &payload).unwrap();
        pf.flush().unwrap();
        root
    };
    let index = index.to_str().unwrap();
    let verify = srtool(&["verify", index]);
    let knn = srtool(&["knn", index, "--k", "3", "--query", "0.1,0.2,0.3,0.4"]);
    let (verify_err, knn_err) = (
        String::from_utf8(verify.stderr).unwrap(),
        String::from_utf8(knn.stderr).unwrap(),
    );
    assert_eq!(verify.status.code(), Some(1), "{verify_err}");
    assert_eq!(knn.status.code(), Some(1), "{knn_err}");
    assert_eq!(verify_err, knn_err);
    let line = verify_err.trim_end();
    assert!(
        line.starts_with(&format!("srtool: index structure corrupt: page {root}: ")),
        "{line}"
    );
}

#[test]
fn lint_rejects_unknown_rule_family() {
    // A name outside the `L<n>` scheme, so no future rule family can
    // make it valid, and the retired families and rules.
    for family in [
        "no-such-family",
        "L2",
        "L7",
        "L8",
        "L7/unguarded-access",
        "L1/panic",
        "L6/error-conversion",
        "L3/dead-variant",
        "L6/swallowed-error",
    ] {
        let out = srtool(&["lint", "--rule", family]);
        assert_eq!(out.status.code(), Some(2), "--rule {family}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(family), "{stderr}");
    }
    assert!(matches!(
        parse_err(&["lint", "--rule", "no-such-family"]),
        ArgError::BadValue { flag: "--rule", .. }
    ));
    assert!(matches!(
        parse_err(&["lint", "--rule"]),
        ArgError::MissingValue("--rule")
    ));
}

#[test]
fn lint_rule_filter_and_stats_line() {
    // The workspace is lint-clean, so a filtered run is clean too and
    // the stats line reports the run shape.
    let root = env!("CARGO_MANIFEST_DIR");
    let root = std::path::Path::new(root)
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let out = srtool(&[
        "lint",
        "--root",
        root.to_str().unwrap(),
        "--rule",
        "L4",
        "--stats",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("srlint: 0 violation(s)"), "{stdout}");
    let stats_line = stdout
        .lines()
        .find(|l| l.starts_with("srlint-stats:"))
        .expect("stats line present");
    assert!(stats_line.contains("files="), "{stats_line}");
    assert!(stats_line.contains("elapsed_ms="), "{stats_line}");
    // Only the library crates' sources are lexed: one per `.rs` file.
    let lib_files: u64 = sr_lint::LIB_CRATES
        .iter()
        .map(|c| count_rs_files(&root.join("crates").join(c).join("src")))
        .sum();
    assert_eq!(extract_u64(stats_line, "files="), lib_files, "{stats_line}");
}

fn count_rs_files(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| {
            if p.is_dir() {
                count_rs_files(&p)
            } else {
                u64::from(p.extension().is_some_and(|e| e == "rs"))
            }
        })
        .sum()
}

#[test]
fn lint_json_reports_every_family() {
    let root = env!("CARGO_MANIFEST_DIR");
    let root = std::path::Path::new(root)
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let out = srtool(&["lint", "--root", root.to_str().unwrap(), "--json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    for fam in ["L1", "L3", "L4", "L5", "L6", "L9", "L10"] {
        assert!(
            stdout.contains(&format!("\"{fam}\": 0")),
            "{fam} missing: {stdout}"
        );
    }
    for retired in ["L2", "L7", "L8"] {
        assert!(!stdout.contains(&format!("\"{retired}\"")), "{stdout}");
    }
    assert!(stdout.contains("\"files_scanned\":"), "{stdout}");
}
