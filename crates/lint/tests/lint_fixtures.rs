//! Exact-diagnostic tests for every srlint rule, run over the fixture
//! files in `tests/fixtures/` (which are parsed, never compiled).

use sr_lint::{lint_crates, CrateSources, Diagnostic, SourceFile};

fn lint_one(path: &str, source: &str, l2: bool) -> Vec<Diagnostic> {
    let krate = CrateSources {
        name: "fixture".to_string(),
        files: vec![SourceFile {
            path: path.to_string(),
            source: source.to_string(),
            l2,
        }],
    };
    lint_crates(&[krate], &[]).diagnostics
}

fn rules_at(diags: &[Diagnostic]) -> Vec<(String, u32)> {
    diags.iter().map(|d| (d.rule.clone(), d.line)).collect()
}

#[test]
fn l1_flags_every_panic_class_and_skips_tests() {
    let diags = lint_one("l1_panic.rs", include_str!("fixtures/l1_panic.rs"), false);
    let l1: Vec<_> = diags.iter().filter(|d| d.rule == "L1/panic").collect();
    // unwrap, expect, panic!, todo!, unreachable! from L1/panic, then the
    // release-mode assert family from L1/assert — and nothing from the
    // cfg(test) module, the unwrap_or family, `debug_assert!`, or the
    // hatched assert.
    assert_eq!(
        rules_at(&diags.clone()),
        vec![
            ("L1/panic".to_string(), 5),
            ("L1/panic".to_string(), 6),
            ("L1/panic".to_string(), 8),
            ("L1/panic".to_string(), 11),
            ("L1/panic".to_string(), 12),
            ("L1/assert".to_string(), 18),
            ("L1/assert".to_string(), 19),
            ("L1/assert".to_string(), 20),
        ],
        "{diags:#?}"
    );
    // Exact positions and messages for the first two.
    assert_eq!(l1[0].line, 5);
    assert_eq!(l1[0].col, 28);
    assert_eq!(
        l1[0].message,
        "`.unwrap()` can panic in non-test library code; return a typed error instead"
    );
    assert_eq!(
        l1[1].message,
        "`.expect()` can panic in non-test library code; return a typed error instead"
    );
    assert!(
        diags.iter().all(|d| d.line < 32,),
        "cfg(test) module must be exempt: {diags:#?}"
    );
}

#[test]
fn l2_flags_indexing_and_casts_only_in_audited_files() {
    let src = include_str!("fixtures/l2_hotpath.rs");
    let diags = lint_one("l2_hotpath.rs", src, true);
    assert_eq!(
        rules_at(&diags),
        vec![
            ("L2/index".to_string(), 6),
            ("L2/index".to_string(), 6),
            ("L2/cast".to_string(), 6),
        ],
        "{diags:#?}"
    );
    assert_eq!(
        diags[2].message,
        "`as f64` cast in an audited hot path; use `From`/`try_from` or a widening helper"
    );
    // The same file outside the L2 audit raises nothing.
    assert!(lint_one("not_hot.rs", src, false).is_empty());
}

#[test]
fn l3_flags_untyped_results_and_dead_variants() {
    let diags = lint_one("l3_errors.rs", include_str!("fixtures/l3_errors.rs"), false);
    assert_eq!(
        rules_at(&diags),
        vec![
            ("L3/dead-variant".to_string(), 9),
            ("L3/error-type".to_string(), 12),
            ("L3/error-type".to_string(), 20),
        ],
        "{diags:#?}"
    );
    assert_eq!(
        diags[0].message,
        "error variant `FixtureError::Dead` is never constructed; delete it or construct it"
    );
    assert!(diags[1].message.contains("`stringly`"), "{:?}", diags[1]);
    assert!(diags[1].message.contains("String"), "{:?}", diags[1]);
    assert!(
        diags[2].message.contains("std::io::Result"),
        "{:?}",
        diags[2]
    );
}

#[test]
fn dead_variant_constructed_in_another_file_is_live() {
    let krate = CrateSources {
        name: "fixture".to_string(),
        files: vec![SourceFile {
            path: "l3_errors.rs".to_string(),
            source: include_str!("fixtures/l3_errors.rs").to_string(),
            l2: false,
        }],
    };
    // A test elsewhere constructs the dead variant: the census spans the
    // whole workspace, so the variant is live.
    let extra = SourceFile {
        path: "tests/x.rs".to_string(),
        source: "fn t() { let _ = FixtureError::Dead; }".to_string(),
        l2: false,
    };
    let report = lint_crates(&[krate], &[extra]);
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.rule == "L3/dead-variant"),
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn l4_flags_order_violation_io_under_guard_and_cycles() {
    let diags = lint_one("l4_locks.rs", include_str!("fixtures/l4_locks.rs"), false);
    assert_eq!(
        rules_at(&diags),
        vec![
            // The fixture's lock-owning structs carry no send-sync
            // notes, so L8 fires alongside the L4 cases. ordered_ok's
            // meta->shard edge plus inverted's shard->meta edge close a
            // cycle in the acquisition graph, reported once at its
            // first site — on top of the declared-order violation.
            ("L8/missing-note".to_string(), 4),
            ("L4/lock-cycle".to_string(), 12),
            ("L4/lock-order".to_string(), 19),
            ("L4/lock-io".to_string(), 26),
            ("L8/missing-note".to_string(), 39),
            ("L4/lock-cycle".to_string(), 47),
            ("L8/missing-note".to_string(), 60),
            ("L4/guard-escape".to_string(), 67),
            ("L4/guard-escape".to_string(), 71),
            ("L4/guard-escape".to_string(), 77),
        ],
        "{diags:#?}"
    );
    assert_eq!(diags[1].col, 28);
    assert_eq!(
        diags[1].message,
        "lock acquisition cycle: meta -> shard -> meta"
    );
    assert_eq!(diags[2].col, 27);
    assert_eq!(
        diags[2].message,
        "lock `meta` acquired while `shard` is held; declared order is `meta < shard`"
    );
    assert_eq!(diags[3].col, 14);
    assert_eq!(
        diags[3].message,
        "I/O call `write_page()` while holding lock `shard`; move the I/O outside the guard \
         (only the sanctioned read-through may hatch this)"
    );
    assert_eq!(
        diags[5].message,
        "lock acquisition cycle: left -> right -> left"
    );
    assert!(
        diags[7].message.contains("escapes `guard_tail()`"),
        "{:?}",
        diags[7]
    );
}

#[test]
fn l5_flags_unjustified_orderings_and_unused_notes() {
    let diags = lint_one(
        "l5_ordering.rs",
        include_str!("fixtures/l5_ordering.rs"),
        false,
    );
    assert_eq!(
        rules_at(&diags),
        vec![
            ("L8/missing-note".to_string(), 4),
            ("L5/ordering".to_string(), 10),
            ("L5/ordering-unused".to_string(), 23),
        ],
        "std::cmp::Ordering::Less must not match: {diags:#?}"
    );
    assert_eq!(diags[1].col, 42);
    assert_eq!(
        diags[1].message,
        "`Ordering::Relaxed` without a `// srlint: ordering -- <reason>` note on the \
         enclosing item"
    );
    assert_eq!(diags[2].col, 9);
    assert_eq!(
        diags[2].message,
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
        false,
    );
    assert_eq!(
        rules_at(&diags),
        vec![
            ("L8/missing-note".to_string(), 4),
            ("L5/ordering-relaxed".to_string(), 12),
        ],
        "{diags:#?}"
    );
    assert_eq!(diags[1].col, 44);
    assert_eq!(
        diags[1].message,
        "`Ordering::Relaxed` on accounting state needs an ordering note stating the \
         invariant it preserves (reason must name the `invariant`)"
    );
    // Under a non-accounting path the very same file raises no L5 (the
    // atomic-owning struct still owes its send-sync note).
    let relaxed = lint_one(
        "not_accounting.rs",
        include_str!("fixtures/l5_accounting.rs"),
        false,
    );
    assert!(
        relaxed.iter().all(|d| !d.rule.starts_with("L5/")),
        "{relaxed:#?}"
    );
}

#[test]
fn l6_flags_unconverted_question_marks_swallows_and_stale_deprecations() {
    let diags = lint_one("l6_errors.rs", include_str!("fixtures/l6_errors.rs"), false);
    assert_eq!(
        rules_at(&diags),
        vec![
            ("L6/error-conversion".to_string(), 36),
            ("L6/swallowed-error".to_string(), 46),
            ("L6/swallowed-error".to_string(), 47),
            ("L6/stale-deprecated".to_string(), 52),
        ],
        "converts() and mapped() must stay clean: {diags:#?}"
    );
    assert_eq!(diags[0].col, 25);
    assert_eq!(
        diags[0].message,
        "`?` on `make_third()` propagates `ThirdError` but the function returns \
         `Result<_, FixtureError>` and no `From<ThirdError> for FixtureError` chain exists; \
         convert with `map_err` or add the impl"
    );
    assert_eq!(diags[1].col, 26);
    assert!(
        diags[1]
            .message
            .contains("silently discards the `ThirdError`"),
        "{:?}",
        diags[1]
    );
    assert!(
        diags[2].message.contains("`.unwrap_or_default(..)`"),
        "{:?}",
        diags[2]
    );
    assert_eq!(diags[3].col, 8);
    assert!(
        diags[3]
            .message
            .contains("outlived its one-PR grace period"),
        "{:?}",
        diags[3]
    );
}

#[test]
fn hatches_suppress_exactly_once_each() {
    let diags = lint_one("hatch.rs", include_str!("fixtures/hatch.rs"), false);
    assert_eq!(
        rules_at(&diags),
        vec![
            ("hatch/unused".to_string(), 16),
            ("hatch/malformed".to_string(), 21),
            ("L1/panic".to_string(), 22),
        ],
        "{diags:#?}"
    );
}

#[test]
fn clean_file_is_clean_even_under_l2() {
    let report = {
        let krate = CrateSources {
            name: "fixture".to_string(),
            files: vec![SourceFile {
                path: "clean.rs".to_string(),
                source: include_str!("fixtures/clean.rs").to_string(),
                l2: true,
            }],
        };
        lint_crates(&[krate], &[])
    };
    assert!(report.is_clean(), "{:#?}", report.diagnostics);
    assert_eq!(report.hatches_used, 0);
}

#[test]
fn json_output_is_well_formed_and_escaped() {
    let diags = lint_one(
        "weird\"path.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        false,
    );
    assert_eq!(diags.len(), 1);
    let report = sr_lint::LintReport {
        diagnostics: diags,
        hatches_used: 0,
        files_scanned: 1,
        timings: Vec::new(),
    };
    let json = report.to_json();
    assert!(json.contains("\"violation_count\": 1"), "{json}");
    assert!(json.contains("weird\\\"path.rs"), "{json}");
    assert!(json.contains("\"rule\": \"L1/panic\""), "{json}");
    assert!(
        json.contains("\"families\": {\"L1\": 1, \"L2\": 0"),
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
    let diags = lint_one("rebind.rs", src, false);
    assert!(
        diags
            .iter()
            .all(|d| !d.rule.starts_with("L4/") && !d.rule.starts_with("L7/")),
        "rebinding must not confuse the walk: {diags:#?}"
    );
}

#[test]
fn l4_guard_escape_fires_on_tail_return_and_rebind() {
    let src = include_str!("fixtures/l4_locks.rs");
    let diags = lint_one("l4_locks.rs", src, false);
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
    let diags = lint_one("sync.rs", src, false);
    assert!(
        diags.iter().all(|d| d.rule != "L4/guard-escape"),
        "shim must be exempt: {diags:#?}"
    );
}

#[test]
fn l7_exact_diagnostics_from_fixture() {
    let src = include_str!("fixtures/l7_guarded.rs");
    let diags = lint_one("l7_guarded.rs", src, false);
    let l7: Vec<_> = diags.iter().filter(|d| d.rule.starts_with("L7/")).collect();
    assert_eq!(
        l7.iter()
            .map(|d| (d.rule.as_str(), d.line))
            .collect::<Vec<_>>(),
        vec![
            ("L7/unprotected-shared", 8),
            ("L7/bad-annotation", 16),
            ("L7/unguarded-access", 44),
        ],
        "{l7:#?}"
    );
    assert!(
        l7[2].message.contains("`dirty` is guarded by `lock`"),
        "{}",
        l7[2].message
    );
}

#[test]
fn l7_param_typed_as_guarded_struct_assumes_the_lock() {
    // A fn taking &MetaState-style params can only be called under the
    // lock, so field access through the param is clean — but the
    // assumed guard must not satisfy an explicit re-acquisition check
    // or leak into the order graph.
    let src = "pub struct Owner {\n    m: Mutex<Inner>,\n}\npub struct Inner {\n    value: u64, // srlint: guarded-by(m)\n}\nimpl Owner {\n    fn use_inner(&self) -> u64 {\n        let g = self.m.lock();\n        helper(&g)\n    }\n}\npub fn helper(inner: &Inner) -> u64 {\n    inner.value\n}\n";
    let diags = lint_one("assumed.rs", src, false);
    assert!(
        diags.iter().all(|d| d.rule != "L7/unguarded-access"),
        "param-typed access must be assumed held: {diags:#?}"
    );
}

#[test]
fn l8_exact_diagnostics_from_fixture() {
    let src = include_str!("fixtures/l8_sendsync.rs");
    let diags = lint_one("l8_sendsync.rs", src, false);
    let l8: Vec<_> = diags.iter().filter(|d| d.rule.starts_with("L8/")).collect();
    assert_eq!(
        l8.iter()
            .map(|d| (d.rule.as_str(), d.line))
            .collect::<Vec<_>>(),
        vec![
            ("L8/missing-note", 4),
            ("L8/interior-mutability", 20),
            ("L8/unsafe-impl", 36),
            ("L8/send-sync-unused", 41),
        ],
        "{l8:#?}"
    );
    assert!(l8[0].message.contains("`NoNote`"), "{}", l8[0].message);
    assert!(
        l8[2].message.contains("unsafe impl Send"),
        "{}",
        l8[2].message
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
        let _ = lint_one("crates/pager/src/lib.rs", source, false);
    }
}
