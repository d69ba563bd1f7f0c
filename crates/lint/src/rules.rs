//! The three srlint rule passes.
//!
//! * **L1 (panic / assert)** — no `unwrap()` / `expect()` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in non-test library
//!   code, and no release-mode `assert!` / `assert_eq!` / `assert_ne!`
//!   either. Asserts were originally exempt as "caller-contract guards,
//!   not data-dependent paths" — a coverage gap: `Point::new`'s assert
//!   was reachable from decoded page bytes, i.e. from data. Only
//!   `debug_assert*` stays legal (it vanishes in release builds);
//!   deliberate contract panics must hatch with a reason.
//! * **L2 (index / cast)** — no slice indexing `[...]` and no `as`
//!   numeric casts in the audited hot-path files (geometry distance
//!   kernels, pager page codec).
//! * **L3 (error-type / dead-variant)** — every public `fn` returning
//!   `Result` names a typed error, and every declared error-enum variant
//!   is constructed somewhere in the workspace.

use std::collections::HashSet;

use crate::lexer::{close_of, Kind, Lexed, NoteKind, Token};
use crate::Diagnostic;

/// Identifiers that L1 flags when invoked as `.name(`.
const L1_METHODS: &[&str] = &["unwrap", "expect"];
/// Identifiers that L1 flags when invoked as `name!`.
const L1_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Release-mode assert macros the L1 assert pass flags when invoked as
/// `name!`. `debug_assert*` is deliberately absent: it compiles away in
/// release builds and cannot panic on production data.
const L1_ASSERTS: &[&str] = &["assert", "assert_eq", "assert_ne"];
/// Numeric primitive names for the L2 `as`-cast check.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// L1: panic-freedom in non-test library code — no `.unwrap()` /
/// `.expect()`, no aborting macro, and no release-mode assert.
///
/// Asserts were once exempt as caller-contract guards, which let
/// `Point::new`'s `assert!` ship unreviewed: an assert is a panic
/// whenever its input can come from data (decoded pages, parsed files,
/// CLI arguments). Validate with a typed error, use `debug_assert!` for
/// true internal invariants, or hatch a deliberate contract panic with
/// `// srlint: allow(assert) -- <reason>`.
pub fn l1_panic(lexed: &mut Lexed, file: &str, diags: &mut Vec<Diagnostic>) {
    for i in 0..lexed.tokens.len() {
        let t = &lexed.tokens[i];
        if lexed.test_mask[i] || t.kind != Kind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let next = |c: char| lexed.tokens.get(i + 1).is_some_and(|n| n.is_punct(c));
        let (rule, message) = if L1_METHODS.contains(&name) {
            if !(i > 0 && lexed.tokens[i - 1].is_punct('.') && next('(')) {
                continue;
            }
            let m = format!(
                "`.{name}()` can panic in non-test library code; return a typed error instead"
            );
            ("L1/panic", m)
        } else if L1_MACROS.contains(&name) && next('!') {
            let m =
                format!("`{name}!` aborts in non-test library code; return a typed error instead");
            ("L1/panic", m)
        } else if L1_ASSERTS.contains(&name) && next('!') {
            let m = format!(
                "`{name}!` panics in release builds; return a typed error, use `debug_assert!`, \
                 or hatch a deliberate contract panic"
            );
            ("L1/assert", m)
        } else {
            continue;
        };
        let pos = (t.line, t.col);
        lexed.flag(diags, file, pos, rule, message);
    }
}

/// L2: no slice indexing or `as` numeric casts in audited hot-path files.
pub fn l2_hot_path(lexed: &mut Lexed, file: &str, diags: &mut Vec<Diagnostic>) {
    for i in 0..lexed.tokens.len() {
        if lexed.test_mask[i] {
            continue;
        }
        let t = &lexed.tokens[i];
        // Indexing: `[` directly after an expression tail (identifier,
        // closing bracket, or closing paren). Array types/literals follow
        // punctuation instead and stay legal.
        if t.is_punct('[') && i > 0 {
            let prev = &lexed.tokens[i - 1];
            let indexing = prev.kind == Kind::Ident
                && !matches!(prev.text.as_str(), "mut" | "ref" | "return" | "in" | "box")
                || prev.kind == Kind::Num // tuple-field access like `self.0[i]`
                || prev.is_punct(']')
                || prev.is_punct(')');
            if indexing {
                let message = "slice indexing in an audited hot path; use `get`/iterators or a \
                               checked split";
                let pos = (t.line, t.col);
                lexed.flag(diags, file, pos, "L2/index", message.to_string());
                continue;
            }
        }
        if t.is_ident("as") {
            let Some(target) = lexed.tokens.get(i + 1) else {
                continue;
            };
            if target.kind == Kind::Ident && NUMERIC_TYPES.contains(&target.text.as_str()) {
                let message = format!(
                    "`as {}` cast in an audited hot path; use `From`/`try_from` or a widening helper",
                    target.text
                );
                let pos = (t.line, t.col);
                lexed.flag(diags, file, pos, "L2/cast", message);
            }
        }
    }
}

/// An error enum declared in a library crate.
#[derive(Clone, Debug)]
pub struct ErrorEnum {
    pub name: String,
    /// Variant name with the declaration position.
    pub variants: Vec<(String, u32, u32)>,
    pub file: String,
}

/// Collect declarations of enums whose name ends in `Error`.
pub fn collect_error_enums(lexed: &Lexed, file: &str) -> Vec<ErrorEnum> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_ident("enum")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == Kind::Ident && t.text.ends_with("Error")))
        {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        // Find the enum body.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let mut depth = 0usize;
        let mut expect_variant = false;
        let mut variants = Vec::new();
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('{') {
                depth += 1;
                if depth == 1 {
                    expect_variant = true;
                }
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 {
                if t.is_punct(',') {
                    expect_variant = true;
                } else if t.is_punct('#') {
                    // Skip a variant attribute.
                    if toks.get(j + 1).is_some_and(|t| t.is_punct('[')) {
                        j = close_of(toks, j + 1);
                    }
                } else if expect_variant && t.kind == Kind::Ident {
                    variants.push((t.text.clone(), t.line, t.col));
                    expect_variant = false;
                }
            }
            j += 1;
        }
        out.push(ErrorEnum {
            name,
            variants,
            file: file.to_string(),
        });
        i = j + 1;
    }
    out
}

/// Does the file declare a `type Result` alias?
pub fn has_result_alias(lexed: &Lexed) -> bool {
    lexed
        .tokens
        .windows(2)
        .any(|w| w[0].is_ident("type") && w[1].is_ident("Result"))
}

/// Collect `Enum::Variant` value constructions (not match patterns) into
/// `(enum, variant)` pairs. `Self::Variant` records the enum as `"Self"`,
/// which [`l3_dead_variants`] treats as a wildcard.
pub fn collect_constructions(lexed: &Lexed, out: &mut HashSet<(String, String)>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].kind != Kind::Ident {
            continue;
        }
        // Shape: Ident :: Ident, where the second is the variant.
        if !(toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.kind == Kind::Ident))
        {
            continue;
        }
        let enum_name = &toks[i].text;
        let variant = &toks[i + 3].text;
        // Longer paths (a::b::C::V) re-match at each segment; only the
        // final pair matters, and spurious earlier pairs are harmless
        // (they record non-variant names nothing looks up).
        // Skip past a payload to see what follows the construction.
        let mut j = i + 4;
        if toks
            .get(j)
            .is_some_and(|t| t.is_punct('(') || t.is_punct('{'))
        {
            j = close_of(toks, j) + 1;
        }
        // `=> ...` or `= ...` after the path means a match/let pattern,
        // not a construction.
        if toks.get(j).is_some_and(|t| t.is_punct('=')) {
            continue;
        }
        out.insert((enum_name.clone(), variant.clone()));
    }
}

/// L3b: report declared variants never constructed anywhere.
pub fn l3_dead_variants(
    enums: &[ErrorEnum],
    constructed: &HashSet<(String, String)>,
    files: &mut [crate::ParsedFile],
    diags: &mut Vec<Diagnostic>,
) {
    for e in enums {
        for (variant, line, col) in &e.variants {
            let live = constructed.contains(&(e.name.clone(), variant.clone()))
                || constructed.contains(&("Self".to_string(), variant.clone()));
            if live {
                continue;
            }
            // Enums are collected from these files, so the lookup hits.
            if let Some(f) = files.iter_mut().find(|f| f.path == e.file) {
                let message = format!(
                    "error variant `{}::{variant}` is never constructed; delete it or construct it",
                    e.name
                );
                f.lexed
                    .flag(diags, &e.file, (*line, *col), "L3/dead-variant", message);
            }
        }
    }
}

/// L3a: every public `fn` returning `Result` must name a typed error —
/// the crate's `Result` alias, a `*Error` type, an associated
/// `::Error`, or `Infallible`. `String`, `Box<dyn ...>`, and
/// `std::io::Result` are not typed errors.
pub fn l3_result_signatures(
    lexed: &mut Lexed,
    file: &str,
    crate_has_alias: bool,
    diags: &mut Vec<Diagnostic>,
) {
    let mut i = 0;
    while i < lexed.tokens.len() {
        if lexed.test_mask[i] || !lexed.tokens[i].is_ident("pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)` / `pub(in ...)` restriction.
        if lexed.tokens.get(j).is_some_and(|t| t.is_punct('(')) {
            j = close_of(&lexed.tokens, j) + 1;
        }
        // Qualifiers before `fn`.
        while lexed.tokens.get(j).is_some_and(|t| {
            matches!(t.text.as_str(), "const" | "async" | "extern") || t.kind == Kind::Lit
        }) {
            j += 1;
        }
        if !lexed.tokens.get(j).is_some_and(|t| t.is_ident("fn")) {
            i = j.max(i + 1);
            continue;
        }
        let fn_name = lexed
            .tokens
            .get(j + 1)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        j += 2;
        // Generics, then the parameter list.
        for open in ['<', '('] {
            if lexed.tokens.get(j).is_some_and(|t| t.is_punct(open)) {
                j = close_of(&lexed.tokens, j) + 1;
            }
        }
        // Return type, if any.
        if !(lexed.tokens.get(j).is_some_and(|t| t.is_punct('-'))
            && lexed.tokens.get(j + 1).is_some_and(|t| t.is_punct('>')))
        {
            i = j;
            continue;
        }
        let ret_start = j + 2;
        let mut end = ret_start;
        while end < lexed.tokens.len() {
            let t = &lexed.tokens[end];
            if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                break;
            }
            end += 1;
        }
        if let Some(problem) = untyped_result_error(&lexed.tokens[ret_start..end], crate_has_alias)
        {
            let message =
                format!("public fn `{fn_name}` returns {problem}; name a crate-local typed error");
            let pos = (lexed.tokens[i].line, lexed.tokens[i].col);
            lexed.flag(diags, file, pos, "L3/error-type", message);
        }
        i = end;
    }
}

/// Inspect a return-type token slice. Returns a description of the
/// violation when it is a `Result` without a typed error, else `None`.
fn untyped_result_error(ret: &[Token], crate_has_alias: bool) -> Option<String> {
    let pos = ret.iter().position(|t| t.is_ident("Result"))?;
    // `std::io::Result<T>` is typed only by the io module, not the crate.
    let io_qualified = pos >= 2 && ret[pos - 1].is_punct(':') && {
        let head = &ret[..pos - 2];
        head.last().is_some_and(|t| t.is_ident("io"))
    };
    // Split the generic arguments at the top-level comma.
    if !ret.get(pos + 1).is_some_and(|t| t.is_punct('<')) {
        return Some("a bare `Result`".to_string());
    }
    let mut depth = 1i32;
    let mut paren = 0i32;
    let mut j = pos + 2;
    let mut comma = None;
    let close;
    loop {
        let Some(t) = ret.get(j) else {
            close = j;
            break;
        };
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !ret.get(j - 1).is_some_and(|p| p.is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                close = j;
                break;
            }
        } else if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct(',') && depth == 1 && paren == 0 && comma.is_none() {
            comma = Some(j);
        }
        j += 1;
    }
    let Some(comma) = comma else {
        // One-argument `Result<T>`: fine iff it is the crate alias.
        if io_qualified {
            return Some("`std::io::Result`".to_string());
        }
        if crate_has_alias {
            return None;
        }
        return Some("`Result` with no visible error type or crate alias".to_string());
    };
    let err_toks = &ret[comma + 1..close];
    let idents: Vec<&str> = err_toks
        .iter()
        .filter(|t| t.kind == Kind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    if idents
        .iter()
        .any(|s| matches!(*s, "String" | "str" | "Box" | "dyn" | "Vec"))
    {
        return Some(format!("`Result<_, {}>`", idents.join(" ")));
    }
    match idents.last() {
        Some(last) if last.ends_with("Error") || *last == "Infallible" => None,
        Some(last) => Some(format!("`Result<_, {last}>`")),
        None => Some("`Result` with an empty error type".to_string()),
    }
}

/// Report malformed `srlint:` comments and every note that attached to
/// nothing: an unused hatch or note hides future violations (or has
/// gone stale), so it is itself a violation. The L5, L7 and L8 notes
/// report under their own rule, and those findings may be hatched, so
/// they are checked before the hatches themselves.
pub fn unused_notes(lexed: &mut Lexed, file: &str, diags: &mut Vec<Diagnostic>) {
    let mut push = |line, col, rule: &str, message: String| {
        diags.push(Diagnostic {
            file: file.to_string(),
            line,
            col,
            rule: rule.to_string(),
            message,
        })
    };
    for &(line, col) in &lexed.malformed {
        push(
            line,
            col,
            "hatch/malformed",
            "malformed srlint comment: expected `allow(<rule>)`, `ordering`, \
             `lock-order(<a> < <b>)`, `send-sync`, `untrusted-source`, or \
             `validated(<expr>)`, each followed by ` -- <reason>`, or \
             `guarded-by(<lock>)` / `hot` with no reason"
                .to_string(),
        );
    }
    let unused: Vec<_> = lexed.notes.iter().filter(|n| !n.used).cloned().collect();
    for n in unused.iter().filter(|n| n.kind != NoteKind::Allow) {
        let (rule, message) = match n.kind {
            NoteKind::Ordering => (
                "L5/ordering-unused",
                "srlint ordering note justifies no `Ordering::` use; remove it".to_string(),
            ),
            NoteKind::GuardedBy => (
                "L7/bad-annotation",
                format!(
                    "guarded-by({}) note attaches to no struct field; place it on the \
                     field's line or the line above it",
                    n.arg
                ),
            ),
            NoteKind::SendSync => (
                "L8/send-sync-unused",
                "send-sync note attaches to no struct; place it directly above the \
                 struct it vouches for"
                    .to_string(),
            ),
            NoteKind::Untrusted => (
                "hatch/unused",
                "srlint note `untrusted-source` marks no function item; remove it".to_string(),
            ),
            NoteKind::Validated => (
                "hatch/unused",
                "srlint note `validated` validates no questioned value; remove it".to_string(),
            ),
            NoteKind::Hot => (
                "hatch/unused",
                "srlint note `hot` marks no function item; remove it".to_string(),
            ),
            NoteKind::Allow | NoteKind::LockOrder => continue,
        };
        if rule == "hatch/unused" {
            push(n.line, 1, rule, message);
        } else if !lexed.allow(rule.split('/').nth(1).unwrap_or(rule), n.line) {
            push(n.line, n.col, rule, message);
        }
    }
    for n in lexed
        .notes
        .iter()
        .filter(|n| n.kind == NoteKind::Allow && !n.used)
    {
        let message = format!(
            "srlint hatch `allow({})` suppresses nothing; remove it",
            n.arg
        );
        push(n.line, 1, "hatch/unused", message);
    }
}
