//! Self-check: the real workspace passes srlint clean, within the hatch
//! budget, and a seeded violation is caught.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint/ -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint")
        .to_path_buf()
}

#[test]
fn workspace_passes_srlint_clean() {
    let report = sr_lint::lint_workspace(&workspace_root()).expect("lint run");
    assert!(
        report.is_clean(),
        "srlint violations in the workspace:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn query_obs_and_exec_crates_are_under_the_lint_gate() {
    // The query hot path, the observability substrate, the batch
    // executor, and the serving stack must stay under srlint: a
    // regression that drops any of them from the configuration would
    // silently exempt the code most PRs touch.
    for name in ["query", "obs", "exec", "wire", "serve"] {
        assert!(
            sr_lint::LIB_CRATES.contains(&name),
            "{name} missing from LIB_CRATES"
        );
        assert!(
            workspace_root()
                .join("crates")
                .join(name)
                .join("src")
                .is_dir(),
            "crates/{name}/src missing on disk"
        );
    }
}

#[test]
fn hatch_budget_respected() {
    // The L1/assert rule turns every release-mode `assert!` into a hatch
    // site, so each documented contract panic (constructor contracts in
    // sr-geometry, configuration checks in params/store) spends one
    // hatch; the other three are the pager's sanctioned read-through
    // under a shard lock. The budget shrinks as hatches go away, so a
    // freed hatch cannot be spent silently. This test is the only
    // budget gate; CI runs it in the `test` and `lint-goldens` jobs.
    let report = sr_lint::lint_workspace(&workspace_root()).expect("lint run");
    assert!(
        report.hatches_used <= 13,
        "{} hatches in use; the budget is <= 13",
        report.hatches_used
    );
}

#[test]
fn both_panic_freedom_gates_cover_the_same_crates() {
    // The panic-freedom gate is the clippy deny-set in the root
    // manifest, inherited by every crate with `[lints] workspace = true`;
    // srlint's remaining rules (release asserts, typed errors, lock
    // discipline, taint, hot paths) run over LIB_CRATES. A crate under
    // one gate but not the other is half-audited.
    let crates = workspace_root().join("crates");
    let mut clippy_gated: Vec<String> = std::fs::read_dir(&crates)
        .expect("read crates/")
        .filter_map(|e| {
            let dir = e.expect("crates/ entry").path();
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
            let lines: Vec<&str> = manifest.lines().map(str::trim).collect();
            let inherits = lines
                .windows(2)
                .any(|w| w[0] == "[lints]" && w[1] == "workspace = true");
            inherits.then(|| {
                dir.file_name()
                    .expect("dir name")
                    .to_string_lossy()
                    .into_owned()
            })
        })
        .collect();
    clippy_gated.sort();
    let mut linted: Vec<String> = sr_lint::LIB_CRATES.iter().map(|c| c.to_string()).collect();
    linted.sort();
    assert_eq!(clippy_gated, linted);
}

/// Lint the real workspace with `seed` appended to `seed_file` — the
/// shape of a PR that sneaks one bad change into otherwise-clean code.
fn lint_with_seed(seed_file: &str, seed: &str) -> sr_lint::LintReport {
    let root = workspace_root();
    let mut crates = Vec::new();
    let mut seeded = false;
    for name in sr_lint::LIB_CRATES {
        let dir = root.join("crates").join(name).join("src");
        let mut files = Vec::new();
        for entry in walk(&dir) {
            let rel = entry
                .strip_prefix(&root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            let mut source = std::fs::read_to_string(&entry).expect("read source");
            if rel == seed_file {
                source.push('\n');
                source.push_str(seed);
                source.push('\n');
                seeded = true;
            }
            files.push(sr_lint::SourceFile { path: rel, source });
        }
        crates.push(sr_lint::CrateSources {
            name: (*name).to_string(),
            files,
        });
    }
    assert!(seeded, "seed target {seed_file} not found");
    sr_lint::lint_crates(&crates, &[])
}

#[track_caller]
fn assert_fires(report: &sr_lint::LintReport, rule: &str, file: &str) {
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.file == file),
        "seeded {rule} violation in {file} not caught: {:#?}",
        report.diagnostics
    );
}

#[test]
fn seeded_release_assert_fails_the_gate() {
    let report = lint_with_seed(
        "crates/pager/src/pagefile.rs",
        "pub fn seeded(v: u32) -> u32 { assert!(v > 0); v }",
    );
    assert_fires(&report, "L1/assert", "crates/pager/src/pagefile.rs");
}

#[test]
fn seeded_lock_order_inversion_fails_the_gate() {
    // Acquiring the meta mutex while a shard is held inverts the
    // declared `lock-order(meta < shard)` in pagefile.rs.
    let report = lint_with_seed(
        "crates/pager/src/pagefile.rs",
        "impl PageFile {\n    pub fn seeded_order(&self, id: PageId) -> Result<()> {\n        \
         let s = self.shard(id)?.lock();\n        let m = self.meta.lock();\n        \
         drop(m);\n        drop(s);\n        Ok(())\n    }\n}",
    );
    assert_fires(&report, "L4/lock-order", "crates/pager/src/pagefile.rs");
}

#[test]
fn seeded_io_under_guard_fails_the_gate() {
    // A store sync while holding the meta mutex — exactly the pattern
    // this PR moved out of flush() — must be flagged outside the
    // sanctioned read-through.
    let report = lint_with_seed(
        "crates/pager/src/pagefile.rs",
        "impl PageFile {\n    pub fn seeded_io(&self) -> Result<()> {\n        \
         let g = self.meta.lock();\n        self.store.sync()?;\n        \
         drop(g);\n        Ok(())\n    }\n}",
    );
    assert_fires(&report, "L4/lock-io", "crates/pager/src/pagefile.rs");
}

#[test]
fn seeded_unjustified_ordering_fails_the_gate() {
    let report = lint_with_seed(
        "crates/pager/src/store.rs",
        "pub fn seeded_load(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) }",
    );
    assert_fires(&report, "L5/ordering", "crates/pager/src/store.rs");
}

#[test]
fn seeded_swallowed_error_fails_the_gate() {
    // `.ok()` on PageFile::set_user_meta discards a PagerError. (flush
    // would not do here: SpatialIndex::flush returns IndexError, so the
    // name is ambiguous workspace-wide and the registry drops it.)
    let report = lint_with_seed(
        "crates/pager/src/pagefile.rs",
        "pub fn seeded_swallow(pf: &PageFile) {\n    let _ = pf.set_user_meta(&[]).ok();\n}",
    );
    assert_fires(
        &report,
        "L6/swallowed-error",
        "crates/pager/src/pagefile.rs",
    );
}

fn walk(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn seeded_guard_escape_fails_the_gate() {
    let report = lint_with_seed(
        "crates/pager/src/pagefile.rs",
        "impl PageFile {\n    pub fn seeded_escape(&self) -> crate::sync::MutexGuard<'_, MetaState> {\n        \
         self.meta.lock()\n    }\n}",
    );
    assert_fires(&report, "L4/guard-escape", "crates/pager/src/pagefile.rs");
}

/// The line `lint_with_seed` puts the first line of its seed on.
fn seed_line(seed_file: &str) -> u32 {
    let source = std::fs::read_to_string(workspace_root().join(seed_file)).expect("read source");
    u32::try_from(source.lines().count()).expect("line count") + 2
}

#[test]
fn seeded_diagnostics_are_exact() {
    // A seeded violation must be pinpointed: on a clean workspace it is
    // the one finding, on the seeded line, with the expected message.
    let file = "crates/pager/src/pagefile.rs";
    let seed = "impl PageFile {\n    pub fn seeded_io(&self) -> Result<()> {\n        \
                let g = self.meta.lock();\n        self.store.sync()?;\n        \
                drop(g);\n        Ok(())\n    }\n}";
    let report = lint_with_seed(file, seed);
    let found: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule.as_str(), d.file.as_str(), d.line, d.col))
        .collect();
    assert_eq!(
        found,
        vec![("L4/lock-io", file, seed_line(file) + 3, 20)],
        "{:#?}",
        report.diagnostics
    );
    assert_eq!(
        report.diagnostics[0].message,
        "I/O call `sync()` while holding lock `meta`; move the I/O outside the guard \
         (only the sanctioned read-through may hatch this)"
    );

    let file = "crates/pager/src/store.rs";
    let seed = "pub fn seeded_load(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) }";
    let report = lint_with_seed(file, seed);
    let found: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule.as_str(), d.file.as_str(), d.line, d.col))
        .collect();
    assert_eq!(
        found,
        vec![("L5/ordering", file, seed_line(file), 61)],
        "{:#?}",
        report.diagnostics
    );
    assert_eq!(
        report.diagnostics[0].message,
        "`Ordering::Relaxed` without a `// srlint: ordering -- <reason>` note on the \
         enclosing item"
    );
}

#[test]
fn seeded_retired_directive_fails_the_gate() {
    // A `guarded-by` note copied from an old branch must not pass as a
    // comment: the rule it fed is gone, so it is malformed.
    let report = lint_with_seed(
        "crates/pager/src/pagefile.rs",
        "pub struct SeededShared {\n    // srlint: guarded-by(meta)\n    inner: u64,\n}",
    );
    assert_fires(&report, "hatch/malformed", "crates/pager/src/pagefile.rs");
}

/// The files whose `as` casts srlint's retired L2/cast rule audited; each
/// now denies `clippy::as_conversions` outside its tests.
const NO_CAST_FILES: [&str; 6] = [
    "crates/geometry/src/kernel.rs",
    "crates/geometry/src/rect.rs",
    "crates/geometry/src/sphere.rs",
    "crates/geometry/src/vector.rs",
    "crates/pager/src/leaf.rs",
    "crates/pager/src/page.rs",
];

#[test]
fn audited_hot_paths_deny_as_conversions() {
    for file in NO_CAST_FILES {
        let source = std::fs::read_to_string(workspace_root().join(file)).expect("read source");
        assert!(
            source
                .lines()
                .any(|l| l.trim() == "#![cfg_attr(not(test), deny(clippy::as_conversions))]"),
            "{file} no longer denies `as` casts"
        );
    }
}

#[test]
fn narrow_lane_is_the_only_allowed_cast() {
    // The one `as` the denied files may reach goes through one helper; a
    // second `allow(clippy::as_conversions)` is a new unaudited cast.
    let root = workspace_root();
    let mut allows = Vec::new();
    let dirs = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("crates/ entry").path().join("src"))
        .chain([root.join("src")]);
    for dir in dirs {
        for path in walk(&dir) {
            let source = std::fs::read_to_string(&path).expect("read source");
            let lines: Vec<&str> = source.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let attr = line.trim_start();
                if attr.starts_with('#') && attr.contains("allow(clippy::as_conversions") {
                    let rel = path.strip_prefix(&root).expect("under root");
                    let next = lines.get(i + 1).map_or("", |l| l.trim());
                    allows.push((rel.to_string_lossy().replace('\\', "/"), next.to_string()));
                }
            }
        }
    }
    assert_eq!(
        allows,
        vec![(
            "crates/pager/src/page.rs".to_string(),
            "pub fn narrow_lane(lane: &[u8; 8]) -> f32 {".to_string()
        )]
    );
}

#[test]
fn seeded_tainted_alloc_fails_the_gate() {
    // An allocation sized straight from a page-header read, the shape
    // of a decoder that trusts its length prefix.
    let report = lint_with_seed(
        "crates/pager/src/leaf.rs",
        "pub fn seeded_taint(c: &mut PageReader) -> Result<Vec<u8>> {\n    \
         let n = usize::from(c.get_u16()?);\n    Ok(vec![0u8; n])\n}",
    );
    assert_fires(&report, "L9/tainted-alloc", "crates/pager/src/leaf.rs");
}

#[test]
fn seeded_unchecked_length_fails_the_gate() {
    // A wire-decoded count driving `split_at` with no bound check.
    let report = lint_with_seed(
        "crates/wire/src/frame.rs",
        "pub fn seeded_split(r: &mut Reader<'_>, buf: &[u8]) -> Result<(), WireError> {\n    \
         let n = r.u32()? as usize;\n    let (_a, _b) = buf.split_at(n);\n    Ok(())\n}",
    );
    assert_fires(&report, "L9/unchecked-length", "crates/wire/src/frame.rs");
}

#[test]
fn seeded_unchecked_offset_fails_the_gate() {
    // A WAL-decoded word used as a raw index.
    let report = lint_with_seed(
        "crates/pager/src/wal.rs",
        "pub fn seeded_index(buf: &[u8]) -> u8 {\n    \
         let off = rd_u32(buf, 0) as usize;\n    buf[off]\n}",
    );
    assert_fires(&report, "L9/unchecked-offset", "crates/pager/src/wal.rs");
}

#[test]
fn seeded_hot_alloc_fails_the_gate() {
    // A hot-marked kernel entry that clones its input, with the
    // allocation one call away so the chain rides the call graph.
    let report = lint_with_seed(
        "crates/geometry/src/kernel.rs",
        "// srlint: hot\npub fn seeded_hot_outer(xs: &[f32]) -> usize {\n    \
         seeded_inner(xs).len()\n}\n\n\
         pub fn seeded_inner(xs: &[f32]) -> Vec<f32> {\n    xs.to_vec()\n}",
    );
    assert_fires(&report, "L10/hot-alloc", "crates/geometry/src/kernel.rs");
}

#[test]
fn seeded_hot_lock_fails_the_gate() {
    let report = lint_with_seed(
        "crates/pager/src/pagefile.rs",
        "impl PageFile {\n    // srlint: hot\n    pub fn seeded_hot_lock(&self) -> PageId {\n        \
         let g = self.meta.lock();\n        g.free_head\n    }\n}",
    );
    assert_fires(&report, "L10/hot-lock", "crates/pager/src/pagefile.rs");
}

#[test]
fn seeded_hot_io_fails_the_gate() {
    let report = lint_with_seed(
        "crates/pager/src/pagefile.rs",
        "impl PageFile {\n    // srlint: hot\n    pub fn seeded_hot_io(&self) -> Result<()> {\n        \
         self.store.sync()\n    }\n}",
    );
    assert_fires(&report, "L10/hot-io", "crates/pager/src/pagefile.rs");
}

#[test]
fn per_pass_timings_cover_every_phase() {
    // The phase-sharing refactor parses each file once and reuses the
    // artifacts; the per-pass timing table is how a regression (a pass
    // silently re-parsing, or not running at all) becomes visible.
    let report = sr_lint::lint_workspace(&workspace_root()).expect("lint run");
    for phase in ["prep", "callgraph", "L9", "L10", "hygiene"] {
        assert!(
            report.timings.iter().any(|(name, _)| name == phase),
            "no timing recorded for phase {phase}: {:?}",
            report.timings.iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
    }
}
