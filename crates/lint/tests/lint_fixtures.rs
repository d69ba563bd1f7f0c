//! Exact-diagnostic tests for every srlint rule, run over the fixture
//! files in `tests/fixtures/` (which are parsed, never compiled).

use sr_lint::{lint_crates, CrateSources, Diagnostic, SourceFile};

fn lint_one(path: &str, source: &str) -> Vec<Diagnostic> {
    let krate = CrateSources {
        name: "fixture".to_string(),
        files: vec![SourceFile {
            path: path.to_string(),
            source: source.to_string(),
        }],
    };
    lint_crates(&[krate]).diagnostics
}

fn rules_at(diags: &[Diagnostic]) -> Vec<(String, u32)> {
    diags.iter().map(|d| (d.rule.clone(), d.line)).collect()
}

#[test]
fn l1_flags_release_asserts_and_skips_tests() {
    let diags = lint_one("l1_assert.rs", include_str!("fixtures/l1_assert.rs"));
    // The release-mode assert family — and nothing from the cfg(test)
    // module, `debug_assert!`, the hatched assert, or the `expect` that
    // clippy's deny-set owns.
    assert_eq!(
        rules_at(&diags),
        vec![
            ("L1/assert".to_string(), 7),
            ("L1/assert".to_string(), 8),
            ("L1/assert".to_string(), 9),
        ],
        "{diags:#?}"
    );
    assert_eq!((diags[0].line, diags[0].col), (7, 5));
    assert_eq!(
        diags[0].message,
        "`assert!` panics in release builds; return a typed error, use `debug_assert!`, \
         or hatch a deliberate contract panic"
    );
}

#[test]
fn l3_flags_untyped_results() {
    let diags = lint_one("l3_errors.rs", include_str!("fixtures/l3_errors.rs"));
    assert_eq!(
        rules_at(&diags),
        vec![
            ("L3/error-type".to_string(), 9),
            ("L3/error-type".to_string(), 17),
        ],
        "{diags:#?}"
    );
    assert!(diags[0].message.contains("`stringly`"), "{:?}", diags[0]);
    assert!(diags[0].message.contains("String"), "{:?}", diags[0]);
    assert!(
        diags[1].message.contains("std::io::Result"),
        "{:?}",
        diags[1]
    );
}

#[test]
fn l4_flags_order_violation_io_under_guard_and_cycles() {
    let diags = lint_one("l4_locks.rs", include_str!("fixtures/l4_locks.rs"));
    assert_eq!(
        rules_at(&diags),
        vec![
            // ordered_ok's meta->shard edge plus inverted's shard->meta
            // edge close a cycle in the acquisition graph, reported once
            // at its first site — on top of the declared-order violation.
            ("L4/lock-cycle".to_string(), 12),
            ("L4/lock-order".to_string(), 19),
            ("L4/lock-io".to_string(), 26),
            ("L4/lock-cycle".to_string(), 47),
            ("L4/guard-escape".to_string(), 67),
            ("L4/guard-escape".to_string(), 71),
            ("L4/guard-escape".to_string(), 77),
        ],
        "{diags:#?}"
    );
    assert_eq!(diags[0].col, 28);
    assert_eq!(
        diags[0].message,
        "lock acquisition cycle: meta -> shard -> meta"
    );
    assert_eq!(diags[1].col, 27);
    assert_eq!(
        diags[1].message,
        "lock `meta` acquired while `shard` is held; declared order is `meta < shard`"
    );
    assert_eq!(diags[2].col, 14);
    assert_eq!(
        diags[2].message,
        "I/O call `write_page()` while holding lock `shard`; move the I/O outside the guard \
         (only the sanctioned read-through may hatch this)"
    );
    assert_eq!(
        diags[3].message,
        "lock acquisition cycle: left -> right -> left"
    );
    assert!(
        diags[4].message.contains("escapes `guard_tail()`"),
        "{:?}",
        diags[4]
    );
}

#[test]
fn l5_flags_unjustified_orderings_and_unused_notes() {
    let diags = lint_one("l5_ordering.rs", include_str!("fixtures/l5_ordering.rs"));
    assert_eq!(
        rules_at(&diags),
        vec![
            ("L5/ordering".to_string(), 10),
            ("L5/ordering-unused".to_string(), 23),
        ],
        "std::cmp::Ordering::Less must not match: {diags:#?}"
    );
    assert_eq!(diags[0].col, 42);
    assert_eq!(
        diags[0].message,
        "`Ordering::Relaxed` without a `// srlint: ordering -- <reason>` note on the \
         enclosing item"
    );
    assert_eq!(diags[1].col, 9);
    assert_eq!(
        diags[1].message,
        "srlint ordering note justifies no `Ordering::` use; remove it"
    );
}

#[test]
fn l5_accounting_files_demand_an_invariant_for_relaxed() {
    // The same fixture linted under an accounting path: a note that does
    // not name the invariant is not enough for `Relaxed`.
    let diags = lint_one(
        "crates/pager/src/stats.rs",
        include_str!("fixtures/l5_accounting.rs"),
    );
    assert_eq!(
        rules_at(&diags),
        vec![("L5/ordering-relaxed".to_string(), 12)],
        "{diags:#?}"
    );
    assert_eq!(diags[0].col, 44);
    assert_eq!(
        diags[0].message,
        "`Ordering::Relaxed` on accounting state needs an ordering note stating the \
         invariant it preserves (reason must name the `invariant`)"
    );
    // Under a non-accounting path the very same file is clean.
    let relaxed = lint_one(
        "not_accounting.rs",
        include_str!("fixtures/l5_accounting.rs"),
    );
    assert!(relaxed.is_empty(), "{relaxed:#?}");
}

#[test]
fn l6_flags_stale_deprecations() {
    let diags = lint_one("l6_errors.rs", include_str!("fixtures/l6_errors.rs"));
    assert_eq!(
        rules_at(&diags),
        vec![("L6/stale-deprecated".to_string(), 4)],
        "{diags:#?}"
    );
    assert_eq!(diags[0].col, 8);
    assert!(
        diags[0]
            .message
            .contains("outlived its one-PR grace period"),
        "{:?}",
        diags[0]
    );
}

#[test]
fn stale_deprecation_spares_test_code_and_the_deprecating_hatch() {
    // Test-only shims and the hatched item of the deprecating change
    // stay silent; the unhatched shim beside them does not.
    let source = "#[deprecated(note = \"use new_name\")]\n\
                  // srlint: allow(stale-deprecated) -- deprecated in this change\n\
                  pub fn hatched() {}\n\
                  \n\
                  #[cfg(test)]\n\
                  mod tests {\n\
                      #[deprecated]\n\
                      fn shim() {}\n\
                  }\n\
                  \n\
                  impl Store {\n\
                      #[deprecated]\n\
                      pub fn stale(&self) {}\n\
                  }\n";
    let diags = lint_one("l6_inline.rs", source);
    assert_eq!(
        rules_at(&diags),
        vec![("L6/stale-deprecated".to_string(), 13)],
        "{diags:#?}"
    );
    assert!(diags[0].message.contains("`stale`"), "{:?}", diags[0]);
}

#[test]
fn hatches_suppress_exactly_once_each() {
    let diags = lint_one("hatch.rs", include_str!("fixtures/hatch.rs"));
    assert_eq!(
        rules_at(&diags),
        vec![
            ("hatch/unused".to_string(), 16),
            ("hatch/malformed".to_string(), 21),
            ("L1/assert".to_string(), 22),
        ],
        "{diags:#?}"
    );
}

#[test]
fn clean_file_is_clean() {
    let report = {
        let krate = CrateSources {
            name: "fixture".to_string(),
            files: vec![SourceFile {
                path: "clean.rs".to_string(),
                source: include_str!("fixtures/clean.rs").to_string(),
            }],
        };
        lint_crates(&[krate])
    };
    assert!(report.is_clean(), "{:#?}", report.diagnostics);
    assert_eq!(report.hatches_used, 0);
}

#[test]
fn clippy_owned_lines_raise_nothing_under_srlint() {
    // unwrap/expect, the panic-family macros, indexing and `as` casts
    // are the clippy deny-set's (tests/clippy_gate.rs); srlint must not
    // report the same line a second time.
    let diags = lint_one("clippy_gate.rs", include_str!("fixtures/clippy_gate.rs"));
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn leftover_retired_directives_lint_as_malformed() {
    // `guarded-by` and `send-sync` are no longer directives; one left in
    // the source is a finding, not a silently ignored comment.
    let src = "pub struct S {\n    // srlint: guarded-by(meta)\n    n: u64,\n}\n\
               // srlint: send-sync -- one lock guards it\npub struct T;\n";
    let diags = lint_one("retired.rs", src);
    assert_eq!(
        rules_at(&diags),
        vec![
            ("hatch/malformed".to_string(), 2),
            ("hatch/malformed".to_string(), 5),
        ],
        "{diags:#?}"
    );
    assert_eq!((diags[0].col, diags[1].col), (5, 1));
    assert!(
        diags[0]
            .message
            .starts_with("malformed srlint comment: expected `allow(<rule>)`"),
        "{}",
        diags[0].message
    );
}

#[test]
fn json_output_is_well_formed_and_escaped() {
    let diags = lint_one(
        "weird\"path.rs",
        "pub fn f(x: u32) -> u32 { assert!(x > 0); x }\n",
    );
    assert_eq!(diags.len(), 1);
    let report = sr_lint::LintReport {
        diagnostics: diags,
        hatches_used: 0,
        files_scanned: 1,
    };
    let json = report.to_json();
    assert!(json.contains("\"violation_count\": 1"), "{json}");
    assert!(json.contains("weird\\\"path.rs"), "{json}");
    assert!(json.contains("\"rule\": \"L1/assert\""), "{json}");
    assert!(
        json.contains("\"families\": {\"L1\": 1, \"L3\": 0"),
        "{json}"
    );
    assert!(json.contains("\"files_scanned\": 1"), "{json}");
}

#[test]
fn l4_guard_rebinding_moves_the_held_guard() {
    // `let g2 = g;` must move the guard: the old name no longer
    // releases it, the new name does, and field access through the new
    // name still counts as held.
    let src = "pub struct S {\n    m: Mutex<Inner>,\n}\nimpl S {\n    pub fn f(&self) -> u64 {\n        let g = self.m.lock();\n        let g2 = g;\n        let v = g2.value;\n        drop(g2);\n        v\n    }\n}\n";
    let diags = lint_one("rebind.rs", src);
    assert!(
        diags.iter().all(|d| !d.rule.starts_with("L4/")),
        "rebinding must not confuse the walk: {diags:#?}"
    );
}

#[test]
fn l4_guard_escape_fires_on_tail_return_and_rebind() {
    let src = include_str!("fixtures/l4_locks.rs");
    let diags = lint_one("l4_locks.rs", src);
    let escapes: Vec<u32> = diags
        .iter()
        .filter(|d| d.rule == "L4/guard-escape")
        .map(|d| d.line)
        .collect();
    // guard_tail (bare tail binding), guard_return_stmt (return of a
    // fresh acquisition), rebound_escape (tail of the moved binding);
    // hatched_accessor is suppressed, data_not_guard returns data.
    assert_eq!(escapes, vec![67, 71, 77], "{diags:#?}");
}

#[test]
fn l4_lock_shims_may_return_guards() {
    // Functions named lock/read/write are the std-wrapper shims whose
    // whole point is returning a guard.
    let src = "impl Mutex {\n    pub fn lock(&self) -> MutexGuard<'_, T> {\n        self.0.lock()\n    }\n}\n";
    let diags = lint_one("sync.rs", src);
    assert!(
        diags.iter().all(|d| d.rule != "L4/guard-escape"),
        "shim must be exempt: {diags:#?}"
    );
}

#[test]
fn unbalanced_braces_finish_without_a_panic() {
    // Truncated files: statement ranges must stay inside the token list
    // even when a block never closes. Any diagnostic is acceptable; a
    // panic is not.
    for source in [
        "fn f() { { {",
        "fn f() { if x { return a.lock()",
        "fn f(m: &Mutex<u8>) -> u8 { let g = m.lock(); { g",
    ] {
        let _ = lint_one("crates/pager/src/lib.rs", source);
    }
}
