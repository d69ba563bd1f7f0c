//! L6 — scope-aware error discipline (the successor to the L3
//! signature heuristics).
//!
//! A workspace-wide registry maps every public function to the
//! concrete error type it returns (`Result<_, XError>`, or the crate's
//! `Result<T>` alias error; names registered with conflicting errors
//! become ambiguous and drop out). The first of the two rules uses it:
//!
//! * **L6/swallowed-error** — `.ok()`, `.unwrap_or_default()`,
//!   `.unwrap_or(..)`, `.unwrap_or_else(..)` directly on a registry
//!   call silently discards a typed error (`PagerError`, `IndexError`,
//!   `ExecError`, ...); match on it or propagate it.
//! * **L6/stale-deprecated** — `#[deprecated]` items may live in a
//!   library crate for at most one PR: the PR that deprecates an item
//!   hatches it with `allow(stale-deprecated)`, and the next PR must
//!   delete both.
//!
//! There is no check that a `?` converts its error: rustc already
//! rejects one without a `From` conversion (E0277).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{open_of, Kind, Lexed, Token};
use crate::locks::is_acquisition;
use crate::parser::{Item, ItemKind};
use crate::{Diagnostic, ParsedFile};

/// Methods that silently discard a `Result`'s error.
const SWALLOWERS: &[&str] = &["ok", "unwrap_or_default", "unwrap_or", "unwrap_or_else"];

/// Workspace registry of public fallible functions.
#[derive(Debug, Default)]
pub struct ErrorRegistry {
    /// Function name → concrete error type (last path ident).
    fns: BTreeMap<String, String>,
    /// Names registered with conflicting error types: skipped.
    ambiguous: BTreeSet<String>,
}

impl ErrorRegistry {
    /// The registered error type of `name`, unless ambiguous.
    fn error_of(&self, name: &str) -> Option<&str> {
        if self.ambiguous.contains(name) {
            return None;
        }
        self.fns.get(name).map(String::as_str)
    }

    fn register_fn(&mut self, name: &str, error: &str) {
        if self.ambiguous.contains(name) {
            return;
        }
        match self.fns.get(name) {
            Some(e) if e != error => {
                self.fns.remove(name);
                self.ambiguous.insert(name.to_string());
            }
            Some(_) => {}
            None => {
                self.fns.insert(name.to_string(), error.to_string());
            }
        }
    }
}

/// `X` is a concrete crate error type: the last path ident ends with
/// `Error` but is not the bare associated/std `Error`.
fn is_concrete_error(ident: &str) -> bool {
    ident.ends_with("Error") && ident != "Error"
}

/// The crate's `type Result<T> = ... , XError>;` alias error, if any.
pub fn crate_alias_error(files: &[ParsedFile]) -> Option<String> {
    for f in files {
        let mut found = None;
        walk_items(&f.items, false, &mut |item, _| {
            if item.kind == ItemKind::TypeAlias && item.name == "Result" && found.is_none() {
                let err = (item.first..=item.last)
                    .filter_map(|i| f.lexed.tokens.get(i))
                    .rfind(|t| t.kind == Kind::Ident && is_concrete_error(&t.text))
                    .map(|t| t.text.clone());
                found = err;
            }
        });
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Phase 1: feed one crate's public functions into the workspace
/// registry.
pub fn collect_registry(files: &[ParsedFile], alias_error: Option<&str>, reg: &mut ErrorRegistry) {
    for f in files {
        let lexed = &f.lexed;
        walk_items(&f.items, false, &mut |item, in_pub_trait| {
            if lexed.test_mask.get(item.first).copied().unwrap_or(false) {
                return;
            }
            if item.kind != ItemKind::Fn || !(item.is_pub || in_pub_trait) {
                return;
            }
            if let Some(err) = fn_error(item, &lexed.tokens, alias_error) {
                if is_concrete_error(&err) {
                    reg.register_fn(&item.name, &err);
                }
            }
        });
    }
}

/// Walk items recursively; the callback receives whether the item sits
/// directly inside a `pub trait` (its methods are public API).
fn walk_items(items: &[Item], in_pub_trait: bool, f: &mut impl FnMut(&Item, bool)) {
    for item in items {
        f(item, in_pub_trait);
        let child_trait = item.kind == ItemKind::Trait && item.is_pub;
        walk_items(&item.children, child_trait, f);
    }
}

/// The error type named by a fn's return range: the second generic
/// argument of `Result<..>`, or the crate alias for a bare
/// `Result<T>`.
fn fn_error(item: &Item, tokens: &[Token], alias_error: Option<&str>) -> Option<String> {
    let (rs, re) = item.ret?;
    let range = &tokens[rs.min(tokens.len())..re.min(tokens.len())];
    let pos = range.iter().position(|t| t.is_ident("Result"))?;
    // Parse the generic list after `Result`.
    let mut depth = 0usize;
    let mut top_commas = 0usize;
    let mut last_ident_after_comma: Option<String> = None;
    for t in range.iter().skip(pos + 1) {
        match t.kind {
            Kind::Punct('<') => depth += 1,
            Kind::Punct('>') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            Kind::Punct(',') if depth == 1 => {
                top_commas += 1;
                last_ident_after_comma = None;
            }
            Kind::Ident if depth >= 1 && top_commas == 1 => {
                last_ident_after_comma = Some(t.text.clone());
            }
            _ => {}
        }
    }
    if top_commas == 0 {
        return alias_error.map(str::to_string);
    }
    last_ident_after_comma
}

/// Phase 2: check one file's swallowed errors and stale deprecations.
pub fn l6_errors(
    path: &str,
    lexed: &mut Lexed,
    items: &[Item],
    reg: &ErrorRegistry,
    diags: &mut Vec<Diagnostic>,
) {
    // Findings are collected first (the item walk borrows `lexed`), then
    // flagged.
    let mut found: Vec<((u32, u32), &str, String)> = Vec::new();
    // Swallowed typed errors, anywhere in non-test code.
    for k in 0..lexed.tokens.len() {
        let t = &lexed.tokens[k];
        if t.kind != Kind::Ident
            || !SWALLOWERS.contains(&t.text.as_str())
            || lexed.test_mask.get(k).copied().unwrap_or(false)
        {
            continue;
        }
        if k == 0
            || !lexed.tokens[k - 1].is_punct('.')
            || !lexed.tokens.get(k + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        // `.ok()` / `.unwrap_or_default()` take no arguments; reject
        // `.ok_or(..)`-like lookalikes by requiring the empty arg list.
        if matches!(t.text.as_str(), "ok" | "unwrap_or_default")
            && !lexed.tokens.get(k + 2).is_some_and(|n| n.is_punct(')'))
        {
            continue;
        }
        let Some(callee) = call_before(&lexed.tokens, k - 1) else {
            continue;
        };
        if let Some(err) = reg.error_of(&callee) {
            let message = format!(
                "`.{}(..)` silently discards the `{err}` from `{callee}()`; \
                 match on the error or propagate it",
                t.text
            );
            found.push(((t.line, t.col), "L6/swallowed-error", message));
        }
    }

    // Stale `#[deprecated]` items.
    walk_items(items, false, &mut |item, _| {
        if lexed.test_mask.get(item.first).copied().unwrap_or(false) {
            return;
        }
        if item.has_attr_ident("deprecated") {
            let message = format!(
                "`#[deprecated]` item `{}` has outlived its one-PR grace period; \
                 delete it (hatch with allow(stale-deprecated) only in the PR that \
                 deprecates it)",
                item.name
            );
            found.push(((item.line, item.col), "L6/stale-deprecated", message));
        }
    });
    for (pos, rule, message) in found {
        lexed.flag(diags, path, pos, rule, message);
    }
}

/// Name of the call whose closing `)` sits immediately before index
/// `k` (walking over nothing else): `foo(..)` → `foo`. `None` when the
/// preceding token is not a call's `)`, or the call is a lock
/// acquisition rather than a registry candidate.
fn call_before(tokens: &[Token], k: usize) -> Option<String> {
    let close = k.checked_sub(1)?;
    if !tokens.get(close)?.is_punct(')') {
        return None;
    }
    // A zero-argument `.lock()` / `.read()` / `.write()` is a lock
    // acquisition (L4's model), never a call into the registry —
    // `self.0.read()` must not alias `PageFile::read(id, kind)`.
    let name_idx = open_of(tokens, close)?.checked_sub(1)?;
    let name = tokens.get(name_idx)?;
    (name.kind == Kind::Ident && !is_acquisition(tokens, name_idx)).then(|| name.text.clone())
}
