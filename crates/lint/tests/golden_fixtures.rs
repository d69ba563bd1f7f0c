//! Golden-file test: the seeded-violation fixtures must produce exactly
//! the diagnostics recorded in `tests/golden/`, byte for byte. CI runs
//! this test and fails on any drift — a pass that silently stops firing
//! (or fires somewhere new) shows up as a golden diff, not a green run.
//!
//! To regenerate after an intentional diagnostic change:
//! `UPDATE_GOLDEN=1 cargo test -p sr-lint --test golden_fixtures`.

use sr_lint::{lint_crates, CrateSources, SourceFile};
use std::path::PathBuf;

/// The seeded-violation fixtures and the display paths they are linted
/// under (the accounting fixture runs under the stats path on purpose).
const FIXTURES: &[(&str, &str)] = &[
    ("l1_assert.rs", "l1_assert.rs"),
    ("l4_locks.rs", "l4_locks.rs"),
    ("l5_ordering.rs", "l5_ordering.rs"),
    ("l5_accounting.rs", "crates/pager/src/stats.rs"),
    ("l6_errors.rs", "l6_errors.rs"),
    ("l9_taint.rs", "l9_taint.rs"),
    ("l10_hot.rs", "l10_hot.rs"),
    ("hatch.rs", "hatch.rs"),
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn render(display_path: &str, source: &str) -> String {
    let krate = CrateSources {
        name: "fixture".to_string(),
        files: vec![SourceFile {
            path: display_path.to_string(),
            source: source.to_string(),
        }],
    };
    let report = lint_crates(&[krate]);
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out.push_str(&format!("hatches_used: {}\n", report.hatches_used));
    out
}

#[test]
fn fixture_diagnostics_match_golden_files() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for (fixture, display_path) in FIXTURES {
        let source = std::fs::read_to_string(fixture_dir().join(fixture)).expect("read fixture");
        let got = render(display_path, &source);
        let golden_path = golden_dir().join(format!("{fixture}.golden"));
        if update {
            std::fs::create_dir_all(golden_dir()).expect("mkdir golden");
            std::fs::write(&golden_path, &got).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden_path.display()));
        if got != want {
            failures.push(format!(
                "== {fixture} drifted from {} ==\n--- golden\n{want}--- actual\n{got}",
                golden_path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn every_new_pass_fires_somewhere_in_the_goldens() {
    // Belt and braces on top of the byte diff: if a golden file were
    // regenerated while a pass was broken, the rules it covers would
    // vanish. Require one diagnostic from each new pass family.
    let mut seen = std::collections::HashSet::new();
    for (fixture, display_path) in FIXTURES {
        let source = std::fs::read_to_string(fixture_dir().join(fixture)).expect("read fixture");
        for line in render(display_path, &source).lines() {
            if let Some(rest) = line.split('[').nth(1) {
                if let Some(rule) = rest.split(']').next() {
                    seen.insert(rule.to_string());
                }
            }
        }
    }
    for rule in [
        "L4/lock-cycle",
        "L4/lock-order",
        "L4/lock-io",
        "L4/guard-escape",
        "L5/ordering",
        "L5/ordering-relaxed",
        "L5/ordering-unused",
        "L6/stale-deprecated",
        "L9/unchecked-length",
        "L9/unchecked-offset",
        "L9/tainted-alloc",
        "L10/hot-alloc",
        "L10/hot-lock",
        "L10/hot-io",
    ] {
        assert!(seen.contains(rule), "no golden fixture exercises {rule}");
    }
}

#[test]
fn fixture_workspace_family_counts_match_golden_json() {
    // The whole fixture set linted as one multi-crate workspace (each
    // fixture its own crate), snapshotting the per-family counts from
    // the `--json` report. Cross-crate call-graph resolution runs here,
    // so a resolver regression shifts a count even when the per-fixture
    // goldens (single-crate) stay put.
    let crates: Vec<_> = FIXTURES
        .iter()
        .map(|(fixture, display_path)| {
            let source =
                std::fs::read_to_string(fixture_dir().join(fixture)).expect("read fixture");
            CrateSources {
                name: fixture.trim_end_matches(".rs").to_string(),
                files: vec![SourceFile {
                    path: display_path.to_string(),
                    source,
                }],
            }
        })
        .collect();
    let json = lint_crates(&crates).to_json();
    let families = json
        .lines()
        .find(|l| l.trim_start().starts_with("\"families\""))
        .expect("families line in JSON report")
        .trim()
        .to_string();
    let golden_path = golden_dir().join("families.json.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{families}\n")).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden_path).expect("read families golden");
    assert_eq!(format!("{families}\n"), want);
}
