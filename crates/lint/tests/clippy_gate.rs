//! The panic-freedom gate srlint no longer runs itself: clippy must
//! report every line srlint's retired L1/panic and L2 rules flagged.
//!
//! The test writes a throwaway crate whose library is
//! `fixtures/clippy_gate.rs` and whose `[lints.clippy]` table is the root
//! manifest's `[workspace.lints.clippy]` deny-set plus `as_conversions`
//! (the lint the geometry kernels and page codec deny at module level).
//! It runs `$CARGO clippy --offline` on it with its own target directory
//! and compares the reported `(line, lint)` pairs with the fixture's
//! `//~` markers. Dropping a line from the deny-set fails it, and so
//! does a toolchain without clippy: the gate must not pass by not
//! running.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory removed on drop, pass or fail.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The body of the root manifest's `[workspace.lints.clippy]` table.
fn workspace_clippy_table() -> String {
    let root = manifest_dir().join("../../Cargo.toml");
    let text = std::fs::read_to_string(&root).expect("read root manifest");
    let body: Vec<&str> = text
        .lines()
        .skip_while(|l| l.trim() != "[workspace.lints.clippy]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .collect();
    assert!(
        body.iter().any(|l| l.contains("= \"deny\"")),
        "no [workspace.lints.clippy] deny-set in {}",
        root.display()
    );
    body.join("\n")
}

/// `(line, lint)` for every trailing `//~ lint...` marker, sorted.
fn expected(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        if let Some((_, lints)) = line.split_once("//~") {
            out.extend(lints.split_whitespace().map(|l| (i + 1, l.to_string())));
        }
    }
    out.sort();
    out
}

/// `(line, lint)` for every clippy diagnostic in cargo's JSON message
/// stream, sorted. The line is the primary location in the rendered
/// text (`--> src/lib.rs:LINE:COL`); the lint is the message's code.
fn reported(json: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for msg in json
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-message\""))
    {
        let Some((_, code)) = msg.rsplit_once("\"code\":{\"code\":\"clippy::") else {
            continue;
        };
        let lint = code.split('"').next().unwrap_or_default().to_string();
        let (_, at) = msg.split_once("--> src/lib.rs:").expect("primary location");
        let line = at.split(':').next().unwrap().parse().expect("line number");
        out.push((line, lint));
    }
    out.sort();
    out
}

#[test]
fn clippy_reports_every_line_the_retired_srlint_rules_flagged() {
    let source = std::fs::read_to_string(manifest_dir().join("tests/fixtures/clippy_gate.rs"))
        .expect("read fixture");
    let dir =
        Scratch(std::env::temp_dir().join(format!("srlint-clippy-gate-{}", std::process::id())));
    std::fs::create_dir_all(dir.0.join("src")).expect("create fixture crate");
    let manifest = format!(
        "[package]\nname = \"clippy-gate-fixture\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         publish = false\n\n[workspace]\n\n[lints.clippy]\n{}\nas_conversions = \"deny\"\n",
        workspace_clippy_table()
    );
    std::fs::write(dir.0.join("Cargo.toml"), manifest).expect("write manifest");
    std::fs::write(dir.0.join("src/lib.rs"), &source).expect("write lib.rs");

    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .current_dir(&dir.0)
        .env("CARGO_TARGET_DIR", dir.0.join("target"))
        .output()
        .expect("run cargo clippy");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        reported(&stdout),
        expected(&source),
        "clippy findings differ from the fixture's markers; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn every_denied_lint_has_a_marked_fixture_line() {
    // Dropping a deny line fails the clippy run only if some fixture
    // line trips that lint; a lint without a marked line could leave
    // the deny-set unnoticed.
    let mut denied: Vec<String> = workspace_clippy_table()
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let (name, level) = l.split_once('=')?;
            (level.trim() == "\"deny\"").then(|| name.trim().to_string())
        })
        .collect();
    denied.push("as_conversions".to_string());
    denied.sort();
    let source = std::fs::read_to_string(manifest_dir().join("tests/fixtures/clippy_gate.rs"))
        .expect("read fixture");
    let mut marked: Vec<String> = expected(&source).into_iter().map(|(_, l)| l).collect();
    marked.sort();
    marked.dedup();
    assert_eq!(marked, denied);
}
