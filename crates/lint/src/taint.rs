//! L9 — untrusted-input taint analysis over the workspace call graph.
//!
//! Values produced by designated untrusted sources — the `sr-wire`
//! reader's scalar decodes, the `sr-pager` leaf/WAL header reads, and
//! any function marked `// srlint: untrusted-source -- reason` — are
//! *tainted*. A tainted value must not reach a sink that panics,
//! over-reads, or allocates unboundedly on a bad input:
//!
//! * **L9/unchecked-offset** — tainted value inside a raw index or
//!   slice bracket (`buf[n]`, `&buf[n..]`): these panic out of range.
//! * **L9/unchecked-length** — tainted loop bound (`for _ in 0..n`) or
//!   argument to a panicking length operation (`split_at`, `chunks`,
//!   `chunks_exact`, `windows`, `copy_within`).
//! * **L9/tainted-alloc** — tainted allocation size
//!   (`with_capacity`, `reserve`, `reserve_exact`, `resize`,
//!   `vec![_; n]`).
//!
//! Taint is cleared by a *dominating validation* earlier in the same
//! function (approximated by token order): a comparison
//! (`<`, `<=`, `>`, `>=`, `==`, `!=`) involving the value, a
//! `checked_*` / `try_into` / `try_from` call in a statement that
//! mentions it, or a `// srlint: validated(<expr>) -- reason` hatch
//! naming it. Total accessors (`get`, `take`) are not sinks — they are
//! the sanctioned pattern.
//!
//! Interprocedural flow rides the call graph: a function whose return
//! expression mentions a tainted value *returns taint* to its callers,
//! and a tainted argument taints the matching callee parameter, to a
//! fixpoint. Known false-negative classes (by design, documented in
//! DESIGN.md §8): taint does not survive struct-field stores or
//! projections (`x.field`), tuple/struct destructuring, or `.len()` /
//! `.is_empty()` projections, and comparison sanitizers are detected
//! syntactically (a generic-argument `<` can mask one).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::lexer::{close_of, split_commas, Kind, Note, NoteKind, Token};
use crate::parser::{Block, Stmt};
use crate::{Diagnostic, ParsedFile};

/// Decoder entry points that are taint sources even without an
/// annotation, keyed by (crate, fn name): the wire reader's scalar
/// decodes and the pager's leaf/WAL header reads.
const BUILTIN_SOURCES: &[(&str, &str)] = &[
    ("wire", "u8"),
    ("wire", "u16"),
    ("wire", "u32"),
    ("wire", "u64"),
    ("wire", "f32"),
    ("wire", "f64"),
    ("pager", "get_u16"),
    ("pager", "rd_u32"),
    ("pager", "rd_u64"),
];

/// Panicking length operations: a tainted argument is a sink.
const LENGTH_SINKS: &[&str] = &[
    "split_at",
    "split_at_mut",
    "chunks",
    "chunks_exact",
    "windows",
    "copy_within",
];

/// Allocation-size operations: a tainted argument is a sink.
const ALLOC_SINKS: &[&str] = &["with_capacity", "reserve", "reserve_exact", "resize"];

/// Statement-level sanitizer calls: a statement mentioning a tainted
/// value through one of these validates it.
fn is_sanitizer_ident(text: &str) -> bool {
    text.starts_with("checked_") || text == "try_into" || text == "try_from"
}

/// One candidate finding, pre-hatch.
struct Finding {
    file: usize,
    line: u32,
    col: u32,
    /// Rule tail: `unchecked-length` / `unchecked-offset` /
    /// `tainted-alloc`.
    tail: &'static str,
    message: String,
}

/// Run the L9 pass over the whole workspace.
pub fn l9_taint(graph: &CallGraph, files: &mut [ParsedFile], diags: &mut Vec<Diagnostic>) {
    let n = graph.defs.len();

    // Sources: built-ins by (crate, name), plus fns an
    // `untrusted-source` note attaches to.
    let is_source: Vec<bool> = (graph.defs.iter().enumerate())
        .map(|(id, def)| {
            BUILTIN_SOURCES.contains(&(def.krate.as_str(), def.name.as_str()))
                || graph.meta(files, id).untrusted
        })
        .collect();

    // Interprocedural fixpoint: which fns return taint, and which
    // params receive tainted arguments. Both sets only grow, so the
    // loop terminates.
    let mut returns_taint = is_source.clone();
    let mut tainted_params: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut validated_used: BTreeSet<(usize, usize)> = BTreeSet::new();
    loop {
        let mut changed = false;
        for id in 0..n {
            let (ret, args) = intra(
                graph,
                files,
                id,
                &returns_taint,
                &tainted_params[id].clone(),
                &mut validated_used,
                None,
            );
            if ret && !returns_taint[id] {
                returns_taint[id] = true;
                changed = true;
            }
            for (callee, pname) in args {
                changed |= tainted_params[callee].insert(pname);
            }
        }
        if !changed {
            break;
        }
    }

    // Reporting pass with the settled summaries.
    let mut findings: Vec<Finding> = Vec::new();
    for (id, params) in tainted_params.iter().enumerate() {
        intra(
            graph,
            files,
            id,
            &returns_taint,
            &params.clone(),
            &mut validated_used,
            Some(&mut findings),
        );
    }

    for (fi, ni) in validated_used {
        files[fi].lexed.notes[ni].used = true;
    }

    findings.sort_by(|a, b| (a.file, a.line, a.col, a.tail).cmp(&(b.file, b.line, b.col, b.tail)));
    findings.dedup_by(|a, b| (a.file, a.line, a.col, a.tail) == (b.file, b.line, b.col, b.tail));
    for f in findings {
        let file = &mut files[f.file];
        // A `validated(<expr>)` note on the sink line suppresses too.
        if !file
            .lexed
            .attach(NoteKind::Validated, |n| n.covers.contains(&f.line))
        {
            let rule = format!("L9/{}", f.tail);
            file.lexed
                .flag(diags, &file.path, (f.line, f.col), &rule, f.message);
        }
    }
}

/// Per-statement walk state.
struct Walk<'a> {
    graph: &'a CallGraph,
    tokens: &'a [Token],
    /// Call-graph node of the walked fn.
    id: usize,
    returns_taint: &'a [bool],
    /// Settled param metadata of every def, for arg→param mapping.
    file: usize,
    fn_name: &'a str,
    /// The file's notes (only `validated` ones are read).
    notes: &'a [Note],
    /// Var name → human-readable origin.
    tainted: BTreeMap<String, String>,
    /// Var name → tainted vars that fed its value (`let need = n * eb`
    /// records `need → {n}`), so validating the derivative also
    /// validates its feeders — `if remaining < need` dominates `n`.
    derived: BTreeMap<String, BTreeSet<String>>,
    arg_taints: Vec<(usize, String)>,
    ret_taint: bool,
}

#[allow(clippy::too_many_arguments)]
fn intra(
    graph: &CallGraph,
    files: &[ParsedFile],
    id: usize,
    returns_taint: &[bool],
    tainted_params: &BTreeSet<String>,
    validated_used: &mut BTreeSet<(usize, usize)>,
    mut findings: Option<&mut Vec<Finding>>,
) -> (bool, Vec<(usize, String)>) {
    let def = &graph.defs[id];
    let fm = graph.meta(files, id);
    let file = &files[def.file];
    let mut w = Walk {
        graph,
        tokens: &file.lexed.tokens,
        id,
        returns_taint,
        file: def.file,
        fn_name: &def.name,
        notes: &file.lexed.notes,
        tainted: BTreeMap::new(),
        derived: BTreeMap::new(),
        arg_taints: Vec::new(),
        ret_taint: false,
    };
    for p in tainted_params {
        w.tainted
            .insert(p.clone(), format!("tainted argument to `{}()`", def.name));
    }
    walk_block(&fm.body, &mut w, files, validated_used, &mut findings, true);
    (w.ret_taint, std::mem::take(&mut w.arg_taints))
}

fn walk_block(
    block: &Block,
    w: &mut Walk<'_>,
    files: &[ParsedFile],
    validated_used: &mut BTreeSet<(usize, usize)>,
    findings: &mut Option<&mut Vec<Finding>>,
    fn_body: bool,
) {
    for (stmt, is_tail) in block.stmts_tail(w.tokens, fn_body) {
        walk_stmt(stmt, w, files, validated_used, findings, is_tail);
    }
}

fn walk_stmt(
    stmt: &Stmt,
    w: &mut Walk<'_>,
    files: &[ParsedFile],
    validated_used: &mut BTreeSet<(usize, usize)>,
    findings: &mut Option<&mut Vec<Finding>>,
    is_tail: bool,
) {
    let head = stmt.head();

    // 1. `validated(<expr>)` notes covering this statement clear the
    //    named variable.
    let first_line = w.tokens.get(stmt.first).map_or(0, |t| t.line);
    let last_line = w.tokens.get(stmt.last).map_or(first_line, |t| t.line);
    for (ni, note) in w.notes.iter().enumerate() {
        let covered = note
            .covers
            .iter()
            .any(|&l| l >= first_line && l <= last_line);
        if note.kind == NoteKind::Validated && covered && w.tainted.contains_key(&note.arg) {
            clear_taint(w, vec![note.arg.clone()]);
            validated_used.insert((w.file, ni));
        }
    }

    // 2. Statement-level sanitizers: a comparison or checked_* /
    //    try_into mention validates every tainted var in the head.
    if has_sanitizer(w.tokens, &head) {
        let mentioned: Vec<String> = w
            .tainted
            .keys()
            .filter(|v| head.iter().any(|&k| w.tokens[k].is_ident(v)))
            .cloned()
            .collect();
        clear_taint(w, mentioned);
    }

    // 3. Sinks (reporting pass only).
    if findings.is_some() {
        scan_sinks(stmt, &head, w, findings);
    }

    // 4. Interprocedural argument taint at call sites in the head.
    for &k in &head {
        let site = w.graph.edges_at(w.id, k);
        if site.is_empty() {
            continue;
        }
        let args = split_commas(w.tokens, k + 1, close_of(w.tokens, k + 1), false);
        for e in site {
            let callee_meta = w.graph.meta(files, e.callee);
            for (ai, (astart, aend)) in args.iter().enumerate() {
                let Some((pname, _)) = callee_meta.params.get(ai) else {
                    continue;
                };
                if range_tainted(w, *astart, *aend).is_some() {
                    w.arg_taints.push((e.callee, pname.clone()));
                }
            }
        }
    }

    // 5. Assignment: `let v = <tainted rhs>` taints v; a plain
    //    `v = <tainted rhs>` re-taints an existing name.
    let rhs_origin = {
        let eq = head.iter().position(|&k| {
            w.tokens[k].is_punct('=')
                && !w.tokens.get(k + 1).is_some_and(|t| t.is_punct('='))
                && !w.tokens.get(k.wrapping_sub(1)).is_some_and(|t| {
                    t.is_punct('=')
                        || t.is_punct('<')
                        || t.is_punct('>')
                        || t.is_punct('!')
                        || t.is_punct('+')
                        || t.is_punct('-')
                        || t.is_punct('*')
                        || t.is_punct('/')
                })
        });
        eq.and_then(|pos| {
            let rhs = &head[pos + 1..];
            rhs_taint(w, rhs).map(|origin| (origin, feeders_in(w, rhs)))
        })
    };
    if let Some((origin, feeders)) = rhs_origin {
        let assigned = if let Some(name) = &stmt.let_name {
            Some(name.clone())
        } else {
            // `v = expr;`: the head starts with the assigned name.
            head.first()
                .map(|&k0| &w.tokens[k0])
                .filter(|t| t.kind == Kind::Ident && !t.is_ident("let"))
                .map(|t| t.text.clone())
        };
        if let Some(name) = assigned {
            w.tainted.insert(name.clone(), origin);
            let mut src = feeders;
            src.remove(&name);
            if !src.is_empty() {
                w.derived.insert(name, src);
            }
        }
    }

    // 6. Return taint: `return <expr>` or the fn tail expression.
    let is_return = w
        .tokens
        .get(stmt.first)
        .is_some_and(|t| t.is_ident("return"));
    if (is_return || is_tail) && !w.ret_taint {
        let expr: Vec<usize> = if is_return {
            head.iter().copied().skip(1).collect()
        } else {
            head.clone()
        };
        if rhs_taint(w, &expr).is_some() {
            w.ret_taint = true;
        }
    }

    // 7. Recurse into nested blocks with the updated state.
    for b in &stmt.blocks {
        walk_block(b, w, files, validated_used, findings, false);
    }
}

/// Does the head contain a comparison operator or sanitizer call?
/// `<`/`>` count only after a value-like token (number, `)`, `]`, or a
/// non-CamelCase identifier), so generic arguments rarely mask; shifts
/// (`<<`, `>>`) and arrows never count.
fn has_sanitizer(tokens: &[Token], head: &[usize]) -> bool {
    for (hi, &k) in head.iter().enumerate() {
        let t = &tokens[k];
        if t.kind == Kind::Ident && is_sanitizer_ident(&t.text) {
            return true;
        }
        let next_same = |c: char| {
            head.get(hi + 1)
                .is_some_and(|&k2| k2 == k + 1 && tokens[k2].is_punct(c))
        };
        let prev_same = |c: char| {
            hi.checked_sub(1)
                .and_then(|p| head.get(p))
                .is_some_and(|&k2| k2 + 1 == k && tokens[k2].is_punct(c))
        };
        if t.is_punct('=') && next_same('=') {
            return true;
        }
        if t.is_punct('!') && next_same('=') {
            return true;
        }
        if (t.is_punct('<') || t.is_punct('>')) && !next_same(t_char(t)) && !prev_same(t_char(t)) {
            let prev_val = hi
                .checked_sub(1)
                .and_then(|p| head.get(p))
                .map(|&k2| &tokens[k2])
                .is_some_and(value_like);
            if prev_val {
                return true;
            }
        }
    }
    false
}

fn t_char(t: &Token) -> char {
    match t.kind {
        Kind::Punct(c) => c,
        _ => ' ',
    }
}

/// Value-like comparison operand: a number, close bracket, or an
/// identifier that is not CamelCase (type names are CamelCase; locals
/// and SCREAMING consts are not).
fn value_like(t: &Token) -> bool {
    match t.kind {
        Kind::Num => true,
        Kind::Punct(')') | Kind::Punct(']') => true,
        Kind::Ident => {
            let mut chars = t.text.chars();
            let first_upper = chars.next().is_some_and(|c| c.is_ascii_uppercase());
            let has_lower = t.text.chars().any(|c| c.is_ascii_lowercase());
            !(first_upper && has_lower)
        }
        _ => false,
    }
}

/// First tainted mention inside `head[range]`, with its origin. A
/// mention is a tainted identifier used as a value: not a field or
/// method *name* (preceded by `.`), not a field projection
/// (`v.field`), and not a `.len()` / `.is_empty()` projection.
fn range_tainted(w: &Walk<'_>, start: usize, end: usize) -> Option<(usize, String, String)> {
    for k in start..end {
        let t = w.tokens.get(k)?;
        if t.kind != Kind::Ident {
            continue;
        }
        if k > 0 && (w.tokens[k - 1].is_punct('.') || w.tokens[k - 1].is_punct(':')) {
            continue;
        }
        let Some(origin) = w.tainted.get(&t.text) else {
            // A call that returns taint also taints the range.
            if w.tokens.get(k + 1).is_some_and(|n| n.is_punct('(')) {
                for e in w.graph.edges_at(w.id, k) {
                    if w.returns_taint[e.callee] {
                        return Some((
                            k,
                            t.text.clone(),
                            format!("return value of `{}()`", w.graph.defs[e.callee].name),
                        ));
                    }
                }
            }
            continue;
        };
        // Projections drop taint: `v.field`, `v.len()`, `v.is_empty()`.
        if w.tokens.get(k + 1).is_some_and(|n| n.is_punct('.')) {
            if let Some(m) = w.tokens.get(k + 2).filter(|m| m.kind == Kind::Ident) {
                let is_call = w.tokens.get(k + 3).is_some_and(|p| p.is_punct('('));
                if !is_call || m.text == "len" || m.text == "is_empty" {
                    continue;
                }
            }
        }
        return Some((k, t.text.clone(), origin.clone()));
    }
    None
}

/// Remove taint from `seeds` and, transitively, from every var that fed
/// their values: `if remaining < need` validates `need` *and* the `n`
/// that `need = n * entry_bytes` was derived from — the comparison
/// bounds the whole derivation chain.
fn clear_taint(w: &mut Walk<'_>, seeds: Vec<String>) {
    let mut work = seeds;
    while let Some(v) = work.pop() {
        if w.tainted.remove(&v).is_some() {
            if let Some(src) = w.derived.get(&v) {
                work.extend(src.iter().cloned());
            }
        }
    }
}

/// Tainted vars used as values in the head-token range, each expanded
/// with its own recorded feeders (for derivation tracking).
fn feeders_in(w: &Walk<'_>, expr: &[usize]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for &k in expr {
        let t = &w.tokens[k];
        if t.kind != Kind::Ident
            || k > 0 && (w.tokens[k - 1].is_punct('.') || w.tokens[k - 1].is_punct(':'))
        {
            continue;
        }
        if w.tainted.contains_key(&t.text) {
            out.insert(t.text.clone());
            if let Some(src) = w.derived.get(&t.text) {
                out.extend(src.iter().cloned());
            }
        }
    }
    out
}

/// Taint of an expression given as head-token indices: a tainted
/// mention anywhere, or a call to a taint-returning fn.
fn rhs_taint(w: &Walk<'_>, expr: &[usize]) -> Option<String> {
    for (i, &k) in expr.iter().enumerate() {
        let t = &w.tokens[k];
        if t.kind != Kind::Ident {
            continue;
        }
        if let Some((_, var, origin)) = range_tainted(w, k, k + 1) {
            return Some(format!("`{var}` ({origin})"));
        }
        // Calls that return taint.
        if expr.get(i + 1).is_some_and(|&k2| k2 == k + 1) && w.tokens[k + 1].is_punct('(') {
            for e in w.graph.edges_at(w.id, k) {
                if w.returns_taint[e.callee] {
                    return Some(format!(
                        "return value of `{}()`",
                        w.graph.defs[e.callee].name
                    ));
                }
            }
        }
    }
    None
}

/// Scan a statement head for the three sink shapes and report tainted
/// flows into them.
fn scan_sinks(
    stmt: &Stmt,
    head: &[usize],
    w: &mut Walk<'_>,
    findings: &mut Option<&mut Vec<Finding>>,
) {
    let Some(out) = findings.as_deref_mut() else {
        return;
    };
    let tokens = w.tokens;
    for (hi, &k) in head.iter().enumerate() {
        let t = &tokens[k];
        // Allocation and length sinks: `name(<args>)` with a tainted
        // argument.
        if t.kind == Kind::Ident && tokens.get(k + 1).is_some_and(|n| n.is_punct('(')) {
            let tail: Option<(&'static str, &'static str)> =
                if ALLOC_SINKS.contains(&t.text.as_str()) {
                    Some(("tainted-alloc", "allocation size"))
                } else if LENGTH_SINKS.contains(&t.text.as_str()) {
                    Some(("unchecked-length", "slice length"))
                } else {
                    None
                };
            if let Some((tail, what)) = tail {
                let close = close_of(tokens, k + 1);
                if let Some((mk, var, origin)) = range_tainted(w, k + 2, close) {
                    push_finding(out, w, mk, tail, &var, &origin, what, &t.text);
                }
            }
        }
        // `vec![expr; n]` with a tainted repeat count.
        if t.is_ident("vec")
            && tokens.get(k + 1).is_some_and(|n| n.is_punct('!'))
            && tokens.get(k + 2).is_some_and(|n| n.is_punct('['))
        {
            let close = close_of(tokens, k + 2);
            if let Some(semi) = (k + 3..close).find(|&j| tokens[j].is_punct(';')) {
                if let Some((mk, var, origin)) = range_tainted(w, semi + 1, close) {
                    push_finding(
                        out,
                        w,
                        mk,
                        "tainted-alloc",
                        &var,
                        &origin,
                        "allocation size",
                        "vec!",
                    );
                }
            }
        }
        // Raw index / slice brackets: `recv[...]` (an ident, `)`, or
        // `]` immediately before the `[` makes it an index, not an
        // array literal).
        if t.is_punct('[') && hi > 0 {
            let prev = &tokens[head[hi - 1]];
            let indexing = matches!(prev.kind, Kind::Ident | Kind::Num)
                || prev.is_punct(')')
                || prev.is_punct(']');
            if indexing && !prev.is_ident("vec") {
                let close = close_of(tokens, k);
                if let Some((mk, var, origin)) = range_tainted(w, k + 1, close) {
                    push_finding(
                        out,
                        w,
                        mk,
                        "unchecked-offset",
                        &var,
                        &origin,
                        "index/slice bound",
                        &prev.text,
                    );
                }
            }
        }
    }
    // Loop bound: `for <pat> in <range with ..> { ... }`.
    let starts_for = tokens.get(stmt.first).is_some_and(|t| t.is_ident("for"));
    if starts_for {
        if let Some(in_pos) = head.iter().position(|&k| tokens[k].is_ident("in")) {
            let rest = &head[in_pos + 1..];
            let has_range = rest
                .windows(2)
                .any(|p| tokens[p[0]].is_punct('.') && tokens[p[1]].is_punct('.'));
            if has_range {
                for &k in rest {
                    // The bound of `0..n` sits right after the range
                    // dots, which `range_tainted` would skip as a
                    // field/method name — look it up directly there.
                    let t = &tokens[k];
                    let after_range =
                        k >= 2 && tokens[k - 1].is_punct('.') && tokens[k - 2].is_punct('.');
                    let hit = if after_range && t.kind == Kind::Ident {
                        w.tainted
                            .get(&t.text)
                            .map(|origin| (k, t.text.clone(), origin.clone()))
                    } else {
                        range_tainted(w, k, k + 1)
                    };
                    if let Some((mk, var, origin)) = hit {
                        push_finding(
                            out,
                            w,
                            mk,
                            "unchecked-length",
                            &var,
                            &origin,
                            "loop bound",
                            "for",
                        );
                        break;
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn push_finding(
    out: &mut Vec<Finding>,
    w: &Walk<'_>,
    mention_tok: usize,
    tail: &'static str,
    var: &str,
    origin: &str,
    what: &str,
    sink_name: &str,
) {
    let t = &w.tokens[mention_tok];
    out.push(Finding {
        file: w.file,
        line: t.line,
        col: t.col,
        tail,
        message: format!(
            "untrusted value `{var}` ({origin}) used as {what} in `{sink_name}` inside \
             `{}()` without a dominating validation; check it against the buffer length \
             (`checked_*`, a `<=` comparison, `try_into`) or mark it \
             `// srlint: validated({var}) -- <reason>`",
            w.fn_name
        ),
    });
}
