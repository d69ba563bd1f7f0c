//! srlint — offline static analysis for the SR-tree workspace.
//!
//! A dependency-free lint pass (no `syn`, no registry crates) built on a
//! hand-rolled Rust lexer. It keeps only the checks that neither rustc
//! nor clippy makes: the workspace `[workspace.lints.clippy]` deny-set
//! already rejects `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
//! `unimplemented!` and slice indexing in the same library crates,
//! `#![deny(clippy::as_conversions)]` rejects `as` casts in the geometry
//! kernels and the page codec, the type system enforces which lock
//! guards which state, and `#![forbid(unsafe_code)]` leaves every
//! `Send`/`Sync` impl compiler-derived. Two token passes:
//!
//! * **L1/assert** — no release-mode `assert!` in non-test library
//!   code; every fallible path returns a typed error.
//! * **L3/error-type** — public `Result`-returning functions name
//!   crate-local typed errors.
//!
//! On top of the token passes, a structural parser ([`parser`])
//! recovers the item tree and block structure, feeding three
//! scope-aware passes:
//!
//! * **L4/lock-order, L4/lock-io, L4/lock-cycle, L4/guard-escape**
//!   ([`locks`]) — guard lifetimes modeled from `Mutex`/`RwLock`
//!   bindings; violations of `// srlint: lock-order(a < b) -- reason`
//!   declarations, I/O calls under a guard, cycles in the acquisition
//!   graph, and guards returned out of their function.
//! * **L5/ordering, L5/ordering-relaxed, L5/ordering-unused**
//!   ([`ordering`]) — every atomic `Ordering::` argument needs a
//!   same-item `// srlint: ordering -- reason` note; `Relaxed` on the
//!   accounting files must state its invariant.
//! * **L6/stale-deprecated** ([`rules`]) — `#[deprecated]` items
//!   expire after one PR.
//!
//! A workspace call graph ([`callgraph`]) built over the shared
//! function registry feeds two interprocedural families:
//!
//! * **L9/unchecked-length, L9/unchecked-offset, L9/tainted-alloc**
//!   ([`taint`]) — values produced by untrusted decoders (wire frame
//!   reads, pager leaf/WAL header reads, anything marked
//!   `// srlint: untrusted-source -- reason`) must flow through a
//!   dominating validation (`checked_*`, a comparison against a buffer
//!   length, `try_into`, or `// srlint: validated(<expr>) -- reason`)
//!   before becoming a slice length, byte offset, capacity, or loop
//!   bound. Taint propagates through return values and arguments via
//!   the call graph.
//! * **L10/hot-alloc, L10/hot-lock, L10/hot-io** ([`hot`]) — functions
//!   annotated `// srlint: hot` must be transitively free of heap
//!   allocation, lock acquisition, and store I/O; diagnostics carry the
//!   offending call chain.
//!
//! The escape hatch is `// srlint: allow(<rule>) -- <reason>`, where
//! `<rule>` is the rule id's tail (`assert`, `error-type`,
//! `lock-order`, `lock-io`, `lock-cycle`, `guard-escape`, `ordering`,
//! `ordering-relaxed`, `ordering-unused`, `stale-deprecated`,
//! `unchecked-length`, `unchecked-offset`, `tainted-alloc`,
//! `hot-alloc`, `hot-lock`, `hot-io`). A hatch covers its own line and
//! the next code line; unused or malformed hatches are themselves
//! violations. Used `validated(...)` notes count against the same hatch
//! budget — they are suppressions, just anchored to a value instead of
//! a line.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod hot;
pub mod lexer;
pub mod locks;
pub mod ordering;
pub mod parser;
pub mod rules;
pub mod taint;

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::Lexed;
use parser::{Item, ItemKind};

/// Library crates under srlint (directory names under `crates/`): the
/// same crates the clippy deny-set covers.
pub const LIB_CRATES: &[&str] = &[
    "pager", "geometry", "core", "query", "obs", "exec", "wire", "serve",
];

/// Files feeding the misses == physical-reads accounting: `Relaxed`
/// atomics here need an explicit invariant note (L5).
pub const ACCOUNTING_FILES: &[&str] = &["crates/pager/src/stats.rs"];

/// Built-in I/O function registry for L4's guard-across-I/O rule, on
/// top of `#[doc = "srlint: io"]` markers: std names only, which cannot
/// carry a marker. The workspace's own store methods are marked where
/// they are declared, so a local fn that shares a name such as `grow`
/// is not taken for I/O.
pub const IO_FNS: &[&str] = &[
    "sync",
    "sync_data",
    "read_exact_at",
    "write_all_at",
    "set_len",
    "read_to_string",
];

/// One lexed and parsed source file, threaded through the passes.
/// Everything here is computed exactly once per file and shared by all
/// the passes.
pub struct ParsedFile {
    /// Path relative to the workspace root.
    pub path: String,
    /// Library crate the file belongs to.
    pub krate: String,
    pub lexed: Lexed,
    pub items: Vec<Item>,
    /// Function registry: bodies with signature context and direct
    /// facts, shared by the L4 guard walk, the call graph, and the
    /// L9/L10 passes. Filled once the workspace I/O registry is known.
    pub fns: Vec<callgraph::FnMeta>,
}

impl ParsedFile {
    /// Lex and parse one file.
    pub(crate) fn parse(path: &str, krate: &str, source: &str) -> ParsedFile {
        let lexed = lexer::lex(source);
        let items = parser::parse(&lexed.tokens);
        ParsedFile {
            path: path.to_string(),
            krate: krate.to_string(),
            lexed,
            items,
            fns: Vec::new(),
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Rule id, e.g. `L1/assert`.
    pub rule: String,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A source file handed to the linter.
pub struct SourceFile {
    /// Display path (workspace-relative for real runs).
    pub path: String,
    pub source: String,
}

/// All sources of one library crate.
pub struct CrateSources {
    pub name: String,
    pub files: Vec<SourceFile>,
}

/// The rule families, for per-family reporting and `--rule`. The gaps
/// are retired families whose checks rustc or clippy now make.
pub const RULE_FAMILIES: &[&str] = &["L1", "L3", "L4", "L5", "L6", "L9", "L10"];

/// Retired rules of live families, refused by `--rule` like the
/// retired families: rustc or clippy now make their checks
/// (`L1/panic`, `L6/error-conversion`), or the rule caught nothing its
/// machinery paid for (`L3/dead-variant`, `L6/swallowed-error`).
pub const RETIRED_RULES: &[&str] = &[
    "L1/panic",
    "L3/dead-variant",
    "L6/error-conversion",
    "L6/swallowed-error",
];

/// Result of a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Escape hatches that suppressed at least one finding (including
    /// used `validated(...)` notes — same budget).
    pub hatches_used: usize,
    /// Library source files lexed and parsed.
    pub files_scanned: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Keep only diagnostics of one family (`L4`) or one exact rule id
    /// (`L4/lock-io`). Hatch and file counts are unchanged —
    /// they describe the run, not the filter.
    pub fn retain_rule(&mut self, rule: &str) {
        let prefix = format!("{rule}/");
        self.diagnostics
            .retain(|d| d.rule == rule || d.rule.starts_with(&prefix));
    }

    /// Findings per family, in [`RULE_FAMILIES`] order (zeros included
    /// so CI gates can key on absent families).
    pub fn family_counts(&self) -> Vec<(&'static str, usize)> {
        RULE_FAMILIES
            .iter()
            .map(|fam| {
                let n = self
                    .diagnostics
                    .iter()
                    .filter(|d| d.rule.split('/').next() == Some(fam))
                    .count();
                (*fam, n)
            })
            .collect()
    }

    /// Machine-readable output for CI artifact upload.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  {},\n  \"violations\": [",
            sr_obs::schema_version_field()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&d.file),
                d.line,
                d.col,
                json_str(&d.rule),
                json_str(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            s.push('\n');
            s.push_str("  ");
        }
        s.push_str(&format!(
            "],\n  \"violation_count\": {},\n  \"families\": {{",
            self.diagnostics.len()
        ));
        for (i, (fam, n)) in self.family_counts().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{fam}\": {n}"));
        }
        s.push_str(&format!(
            "}},\n  \"files_scanned\": {},\n  \"hatches_used\": {}\n}}\n",
            self.files_scanned, self.hatches_used
        ));
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lint a set of library crates.
pub fn lint_crates(crates: &[CrateSources]) -> LintReport {
    let mut diags = Vec::new();

    // Prep: lex and parse every file once, then fold the workspace-wide
    // context the passes share — the I/O registry, each fn's direct
    // facts and the call graph.
    let mut files: Vec<ParsedFile> = Vec::new();
    let mut io_fns: HashSet<String> = IO_FNS.iter().map(|s| (*s).to_string()).collect();
    let mut spans = Vec::new();
    for krate in crates {
        let start = files.len();
        for file in &krate.files {
            let f = ParsedFile::parse(&file.path, &krate.name, &file.source);
            collect_io_markers(&f.items, &mut io_fns);
            files.push(f);
        }
        spans.push(start..files.len());
    }
    for f in &mut files {
        f.fns = callgraph::collect_fn_metas(&f.items, &mut f.lexed, &io_fns);
    }
    let graph = callgraph::CallGraph::build(&files);
    let lock_summaries = locks::lock_summaries(&graph, &files);

    // Per-crate passes.
    for span in &spans {
        let crate_files = &mut files[span.clone()];
        let has_alias = crate_files
            .iter()
            .any(|f| rules::has_result_alias(&f.lexed));
        for f in crate_files.iter_mut() {
            rules::l1_assert(&mut f.lexed, &f.path, &mut diags);
            rules::l3_result_signatures(&mut f.lexed, &f.path, has_alias, &mut diags);
        }
        let decls: Vec<(String, String)> = (crate_files.iter().flat_map(|f| &f.lexed.notes))
            .filter(|n| n.kind == lexer::NoteKind::LockOrder)
            .filter_map(|n| n.arg.split_once('<'))
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        let (range, summaries) = (span.clone(), &lock_summaries);
        locks::l4_locks(
            &mut files, range, &graph, summaries, &io_fns, &decls, &mut diags,
        );
        for f in &mut files[span.clone()] {
            let accounting = ACCOUNTING_FILES.contains(&f.path.as_str());
            ordering::l5_ordering(&f.path, &mut f.lexed, &f.items, accounting, &mut diags);
            rules::l6_stale_deprecated(&f.path, &mut f.lexed, &f.items, &mut diags);
        }
    }

    // Workspace-wide interprocedural passes over the call graph.
    taint::l9_taint(&graph, &mut files, &mut diags);
    hot::l10_hot(&graph, &mut files, &mut diags);

    let mut hatches_used = 0;
    for f in &mut files {
        rules::unused_notes(&mut f.lexed, &f.path, &mut diags);
        // Used `validated(...)` notes are suppressions too: same budget.
        hatches_used += (f.lexed.notes.iter())
            .filter(|n| {
                n.used && matches!(n.kind, lexer::NoteKind::Allow | lexer::NoteKind::Validated)
            })
            .count();
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    LintReport {
        diagnostics: diags,
        hatches_used,
        files_scanned: files.len(),
    }
}

/// Add every `#[doc = "srlint: io"]`-marked fn name to the I/O registry.
fn collect_io_markers(items: &[Item], io_fns: &mut HashSet<String>) {
    for item in items {
        if item.kind == ItemKind::Fn && item.has_doc_marker("srlint: io") {
            io_fns.insert(item.name.clone());
        }
        collect_io_markers(&item.children, io_fns);
    }
}

/// Walk the workspace at `root` and lint it with the project
/// configuration ([`LIB_CRATES`]).
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut crates = Vec::new();
    for name in LIB_CRATES {
        let dir = root.join("crates").join(name).join("src");
        let mut files = Vec::new();
        for path in rust_files(&dir)? {
            let rel = rel_path(root, &path);
            files.push(SourceFile {
                source: std::fs::read_to_string(&path)?,
                path: rel,
            });
        }
        crates.push(CrateSources {
            name: (*name).to_string(),
            files,
        });
    }
    Ok(lint_crates(&crates))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under `dir`, sorted for deterministic reports.
fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        if !d.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            let name = path.file_name().map(|n| n.to_string_lossy().to_string());
            if path.is_dir() {
                if name.as_deref() != Some("target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
