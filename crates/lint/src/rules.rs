//! The token-level srlint rule passes.
//!
//! * **L1 (assert)** — no release-mode `assert!` / `assert_eq!` /
//!   `assert_ne!` in non-test library code. Asserts were originally
//!   exempt as "caller-contract guards, not data-dependent paths" — a
//!   coverage gap: `Point::new`'s assert was reachable from decoded page
//!   bytes, i.e. from data. Only `debug_assert*` stays legal (it vanishes
//!   in release builds); deliberate contract panics must hatch with a
//!   reason. (`unwrap`/`expect`/`panic!` and friends, slice indexing and
//!   `as` casts are clippy's: the workspace deny-set and
//!   `clippy::as_conversions` check them with type information.)
//! * **L3 (error-type)** — every public `fn` returning `Result` names a
//!   typed error.
//! * **L6 (stale-deprecated)** — `#[deprecated]` items may live in a
//!   library crate for at most one PR.

use crate::lexer::{close_of, Kind, Lexed, NoteKind, Token};
use crate::parser::Item;
use crate::Diagnostic;

/// Release-mode assert macros L1 flags when invoked as `name!`.
/// `debug_assert*` is deliberately absent: it compiles away in release
/// builds and cannot panic on production data.
const L1_ASSERTS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// L1: no release-mode assert in non-test library code.
///
/// Asserts were once exempt as caller-contract guards, which let
/// `Point::new`'s `assert!` ship unreviewed: an assert is a panic
/// whenever its input can come from data (decoded pages, parsed files,
/// CLI arguments). Validate with a typed error, use `debug_assert!` for
/// true internal invariants, or hatch a deliberate contract panic with
/// `// srlint: allow(assert) -- <reason>`. No lint in the clippy deny-set
/// flags an `assert!`.
pub fn l1_assert(lexed: &mut Lexed, file: &str, diags: &mut Vec<Diagnostic>) {
    for i in 0..lexed.tokens.len() {
        let t = &lexed.tokens[i];
        if lexed.test_mask[i] || t.kind != Kind::Ident || !L1_ASSERTS.contains(&t.text.as_str()) {
            continue;
        }
        if !lexed.tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            continue;
        }
        let message = format!(
            "`{}!` panics in release builds; return a typed error, use `debug_assert!`, \
             or hatch a deliberate contract panic",
            t.text
        );
        let pos = (t.line, t.col);
        lexed.flag(diags, file, pos, "L1/assert", message);
    }
}

/// Does the file declare a `type Result` alias?
pub fn has_result_alias(lexed: &Lexed) -> bool {
    lexed
        .tokens
        .windows(2)
        .any(|w| w[0].is_ident("type") && w[1].is_ident("Result"))
}

/// L3: every public `fn` returning `Result` must name a typed error —
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

/// L6: a `#[deprecated]` item outside test code is stale. The PR that
/// deprecates an item hatches it with `allow(stale-deprecated)`, and
/// the next PR must delete both, so a shim never outlives its callers'
/// migration.
pub fn l6_stale_deprecated(
    file: &str,
    lexed: &mut Lexed,
    items: &[Item],
    diags: &mut Vec<Diagnostic>,
) {
    for item in items {
        let in_test = lexed.test_mask.get(item.first).copied().unwrap_or(false);
        if item.has_attr_ident("deprecated") && !in_test {
            let message = format!(
                "`#[deprecated]` item `{}` has outlived its one-PR grace period; \
                 delete it (hatch with allow(stale-deprecated) only in the PR that \
                 deprecates it)",
                item.name
            );
            let pos = (item.line, item.col);
            lexed.flag(diags, file, pos, "L6/stale-deprecated", message);
        }
        l6_stale_deprecated(file, lexed, &item.children, diags);
    }
}

/// Report malformed `srlint:` comments and every note that attached to
/// nothing: an unused hatch or note hides future violations (or has
/// gone stale), so it is itself a violation. Unused L5 notes report
/// under their own rule, and those findings may be hatched, so they
/// are checked before the hatches themselves.
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
             `lock-order(<a> < <b>)`, `untrusted-source`, or `validated(<expr>)`, \
             each followed by ` -- <reason>`, or `hot` with no reason"
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
