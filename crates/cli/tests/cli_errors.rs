//! Malformed-input handling: the binary must reject bad arguments and
//! bad data files with a typed error, a usage hint, and a non-zero
//! exit — never a panic.

use std::path::PathBuf;
use std::process::Output;

use sr_cli::{parse, ArgError};

fn srtool(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_srtool"))
        .args(args)
        .output()
        .unwrap()
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srtool-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
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
    let data = tmpfile("bad.tsv");
    std::fs::write(&data, "1\t0.5\t0.5\nnot-an-id\t0.5\t0.5\n").unwrap();
    let index = tmpfile("bad.pages");
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
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
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
    let data = tmpfile("trace.tsv");
    let index = tmpfile("trace.pages");
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

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
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
    let index = tmpfile("missing.pages");
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
    std::fs::remove_file(&index).ok();
}

#[test]
fn dimension_too_large_for_the_page_exits_2() {
    // 600-d points are valid data, but no 8 KiB page holds two 600-d
    // leaf entries: a usage error naming the dimension and the page
    // size, for the dynamic trees and the bulk-loaded one alike.
    let data = tmpfile("wide.tsv");
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
        let index = tmpfile(&format!("wide-{kind}.pages"));
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
        std::fs::remove_file(&index).ok();
        std::fs::remove_file(format!("{}.wal", index.display())).ok();
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn huge_k_answers_every_point_instead_of_aborting() {
    // The largest `k` a wire `Knn` frame can carry (`u32::MAX`) once
    // aborted the process allocating the candidate heap; `srtool serve`
    // answers through the same path.
    let data = tmpfile("hugek.tsv");
    let index = tmpfile("hugek.pages");
    let gen = srtool(&[
        "gen",
        "--n",
        "500",
        "--dim",
        "4",
        "--seed",
        "13",
        data.to_str().unwrap(),
    ]);
    assert!(gen.status.success());
    let build = srtool(&[
        "build",
        "--index",
        "sr",
        "--dim",
        "4",
        index.to_str().unwrap(),
        data.to_str().unwrap(),
    ]);
    assert!(build.status.success());
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
fn lint_rejects_unknown_rule_family() {
    // A name outside the `L<n>` scheme, so no future rule family can
    // make it valid, and the retired families whose checks rustc and
    // clippy now make.
    for family in ["no-such-family", "L2", "L7", "L8", "L7/unguarded-access"] {
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
    assert!(extract_u64(stats_line, "files=") > 100, "{stats_line}");
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
