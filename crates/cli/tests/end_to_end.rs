//! End-to-end tests of the srtool workflow: gen → build → stats →
//! verify → knn → range → insert, for every index kind, through the
//! library interface the binary wraps.

use sr_cli::{parse, run, Command};

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("srtool-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sh(args: &[&str]) -> Result<String, String> {
    let cmd: Command = parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    run(cmd, &mut out).map_err(|e| e.to_string())?;
    Ok(String::from_utf8(out).unwrap())
}

#[test]
fn full_workflow_for_every_index_kind() {
    let dir = tmpdir();
    let data = dir.join("data.tsv");
    let out = sh(&[
        "gen",
        "--kind",
        "histogram",
        "--n",
        "2000",
        "--dim",
        "16",
        "--seed",
        "5",
        data.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("2000 points"));

    for kind in ["sr", "ss", "rstar", "kdb", "vam"] {
        let index = dir.join(format!("{kind}.pages"));
        let out = sh(&[
            "build",
            "--index",
            kind,
            "--dim",
            "16",
            index.to_str().unwrap(),
            data.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("2000 points loaded"), "{kind}: {out}");

        let out = sh(&["stats", index.to_str().unwrap()]).unwrap();
        assert!(out.contains("2000 points"), "{kind}: {out}");
        assert!(out.contains("16 dimensions"));
        assert!(out.contains("wal:"), "{kind}: {out}");

        // The JSON shape carries the WAL durability counters CI's jq
        // schema check keys on.
        let out = sh(&["stats", "--json", index.to_str().unwrap()]).unwrap();
        for field in [
            "\"io\":",
            "\"wal\":",
            "\"frames_appended\":",
            "\"replays\":",
            "\"torn_tails\":",
            "\"wal_bytes\":",
        ] {
            assert!(out.contains(field), "{kind}: missing {field} in {out}");
        }

        let out = sh(&["verify", index.to_str().unwrap()]).unwrap();
        assert!(out.contains("OK"), "{kind}: {out}");

        // kNN: query a vector near the simplex center.
        let q = vec!["0.0625"; 16].join(",");
        let out = sh(&["knn", index.to_str().unwrap(), "--k", "5", "--query", &q]).unwrap();
        assert_eq!(out.lines().count(), 5, "{kind}: {out}");

        // range with a generous radius returns something.
        let out = sh(&[
            "range",
            index.to_str().unwrap(),
            "--radius",
            "0.5",
            "--query",
            &q,
        ])
        .unwrap();
        assert!(!out.is_empty(), "{kind}");

        std::fs::remove_file(&index).ok();
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn knn_answers_are_identical_across_kinds() {
    let dir = tmpdir();
    let data = dir.join("agree.tsv");
    sh(&[
        "gen",
        "--kind",
        "cluster",
        "--n",
        "1500",
        "--dim",
        "8",
        "--clusters",
        "10",
        "--seed",
        "9",
        data.to_str().unwrap(),
    ])
    .unwrap();
    let q = "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5";
    let mut answers = Vec::new();
    for kind in ["sr", "ss", "rstar", "kdb", "vam"] {
        let index = dir.join(format!("agree-{kind}.pages"));
        sh(&[
            "build",
            "--index",
            kind,
            "--dim",
            "8",
            index.to_str().unwrap(),
            data.to_str().unwrap(),
        ])
        .unwrap();
        answers.push(sh(&["knn", index.to_str().unwrap(), "--k", "7", "--query", q]).unwrap());
        std::fs::remove_file(&index).ok();
    }
    for w in answers.windows(2) {
        assert_eq!(w[0], w[1]);
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn insert_into_existing_index() {
    let dir = tmpdir();
    let a = dir.join("a.tsv");
    let b = dir.join("b.tsv");
    sh(&[
        "gen",
        "--n",
        "500",
        "--dim",
        "4",
        "--seed",
        "1",
        a.to_str().unwrap(),
    ])
    .unwrap();
    // second batch: ids must not collide for the test's sanity, but the
    // index itself does not require uniqueness
    sh(&[
        "gen",
        "--n",
        "300",
        "--dim",
        "4",
        "--seed",
        "2",
        b.to_str().unwrap(),
    ])
    .unwrap();
    let index = dir.join("grow.pages");
    sh(&[
        "build",
        "--index",
        "sr",
        "--dim",
        "4",
        index.to_str().unwrap(),
        a.to_str().unwrap(),
    ])
    .unwrap();
    let out = sh(&["insert", index.to_str().unwrap(), b.to_str().unwrap()]).unwrap();
    assert!(out.contains("index now holds 800"), "{out}");
    let out = sh(&["verify", index.to_str().unwrap()]).unwrap();
    assert!(out.contains("800 points"), "{out}");
    for p in [a, b, index] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn vam_rejects_insert() {
    let dir = tmpdir();
    // Not `vam.pages`: `full_workflow_for_every_index_kind` builds that
    // file in the same directory, on a parallel test thread.
    let data = dir.join("vam-insert.tsv");
    sh(&[
        "gen",
        "--n",
        "200",
        "--dim",
        "4",
        "--seed",
        "3",
        data.to_str().unwrap(),
    ])
    .unwrap();
    let index = dir.join("vam-insert.pages");
    sh(&[
        "build",
        "--index",
        "vam",
        "--dim",
        "4",
        index.to_str().unwrap(),
        data.to_str().unwrap(),
    ])
    .unwrap();
    let err = sh(&["insert", index.to_str().unwrap(), data.to_str().unwrap()]).unwrap_err();
    assert!(err.contains("static"), "{err}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn open_of_garbage_fails_cleanly() {
    let dir = tmpdir();
    let junk = dir.join("junk.pages");
    std::fs::write(&junk, vec![0u8; 4096]).unwrap();
    let err = sh(&["stats", junk.to_str().unwrap()]).unwrap_err();
    assert!(
        err.contains("not a recognizable index file") || err.contains("corrupt"),
        "{err}"
    );
    std::fs::remove_file(&junk).ok();
}

#[test]
fn dim_mismatch_reported_at_build() {
    let dir = tmpdir();
    let data = dir.join("dim.tsv");
    sh(&[
        "gen",
        "--n",
        "50",
        "--dim",
        "4",
        "--seed",
        "3",
        data.to_str().unwrap(),
    ])
    .unwrap();
    let index = dir.join("dim.pages");
    let err = sh(&[
        "build",
        "--index",
        "sr",
        "--dim",
        "8",
        index.to_str().unwrap(),
        data.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(err.contains("4-d"), "{err}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn truncated_index_reports_the_pager_error() {
    let dir = tmpdir();
    let data = dir.join("trunc.tsv");
    sh(&["gen", "--n", "300", "--dim", "4", data.to_str().unwrap()]).unwrap();
    let index = dir.join("trunc.pages");
    sh(&[
        "build",
        "--index",
        "sr",
        "--dim",
        "4",
        index.to_str().unwrap(),
        data.to_str().unwrap(),
    ])
    .unwrap();
    // Cut the file mid-page: the header still reads as a page file, so
    // the error must be the pager's own, not a guess at the tree type.
    let len = std::fs::metadata(&index).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&index)
        .unwrap();
    file.set_len(len - 100).unwrap();
    let err = sh(&["stats", index.to_str().unwrap()]).unwrap_err();
    assert!(
        err.contains("page file corrupt: file length")
            && err.contains("is not a multiple of page size"),
        "{err}"
    );
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
    std::fs::remove_file(dir.join("trunc.pages.wal")).ok();
}
