//! L4 — lock-discipline analysis over the parsed item tree, plus the
//! held-set walk the L7 guarded-by pass piggybacks on.
//!
//! The pass models guard lifetimes syntactically: a *binding* guard
//! (`let g = x.lock();`, where the acquisition is the whole
//! initializer) lives to the end of its enclosing block or an explicit
//! `drop(g)`, whichever comes first; `let g2 = g;` moves the guard to
//! the new name; any other acquisition is a *temporary* guard that
//! covers the rest of its statement. An acquisition is a zero-argument
//! `.lock()` / `.read()` / `.write()` call; the lock *class* is the
//! receiver name (`self.meta.lock()` → `meta`, `self.shard(id)?.lock()`
//! → `shard`, `self.0.lock()` → `0`).
//!
//! Four rules come out of the model:
//!
//! * **L4/lock-order** — acquiring class `a` while holding class `b`
//!   when a `// srlint: lock-order(a < b) -- reason` declaration says
//!   `a` must come first.
//! * **L4/lock-io** — calling an I/O function (a name in the pager
//!   registry or any function carrying `#[doc = "srlint: io"]`) while
//!   a guard is held. The sanctioned read-through hatches this with
//!   `allow(lock-io)`.
//! * **L4/lock-cycle** — a cycle in the crate-wide acquisition graph
//!   (edges `held → acquired`, including edges induced through direct
//!   calls into functions that acquire locks; callees named `lock` /
//!   `read` / `write` are skipped so the std-wrapper shims do not
//!   alias every lock to their inner class).
//! * **L4/guard-escape** — a guard that leaves its function: `return g`
//!   / a bare `g` tail expression for a held binding, or an acquisition
//!   in return/tail position. Functions named `lock`/`read`/`write`
//!   (the std-wrapper shims, whose whole point is returning a guard)
//!   are exempt.
//!
//! The walk also carries the L7 guarded-by field check ([`crate::guarded`]):
//! at every field access whose receiver type is known (`self` inside an
//! impl, a parameter typed as a guarded struct, a guard binding, or a
//! fresh `.lock()` temporary), the field's declared lock must be in the
//! held set. A function taking a guarded struct by reference starts
//! with that struct's locks *assumed* held — handing out `&MetaState`
//! is only possible while `meta` is locked — and assumed guards do not
//! feed order checks or the acquisition graph.
//!
//! Known approximation, by convention rather than analysis: `drop(g)`
//! releases the guard for the remainder of the function even when the
//! drop sits inside a conditional — pair conditional drops with an
//! immediate `return`.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ops::Range;

use crate::callgraph::{sccs, CallGraph};
use crate::guarded::FieldMaps;
use crate::lexer::{open_of, Kind, Lexed, Token};
use crate::parser::{Block, Part, Stmt};
use crate::{Diagnostic, ParsedFile};

/// Methods whose zero-argument calls acquire a guard.
pub(crate) const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// A held guard during the body walk.
struct Guard {
    class: String,
    /// Binding name for `let`-bound guards; `None` for temporaries.
    binding: Option<String>,
    temp: bool,
    /// Held by assumption (guarded-struct parameter), not by an
    /// acquisition in this body: satisfies L7, invisible to L4.
    assumed: bool,
}

/// What the walk knows about a local name, for L7 receiver resolution.
/// Entries persist to the end of the function (past `drop`), so an
/// access through a dead guard binding still resolves — and fires.
enum Local {
    /// Parameter typed as a struct with guarded fields.
    Guarded(String),
    /// A guard binding for this lock class.
    Guard(String),
}

/// Where an edge was first observed.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Site {
    file: String,
    line: u32,
    col: u32,
}

/// Everything shared across one function walk.
struct WalkCtx<'a> {
    path: &'a str,
    io_fns: &'a HashSet<String>,
    decls: &'a [(String, String)],
    graph: &'a CallGraph,
    /// Call-graph node of the walked fn.
    id: usize,
    /// Per node: the lock classes it acquires, itself or through
    /// same-crate callees ([`lock_summaries`]).
    summaries: &'a [BTreeSet<String>],
    maps: &'a FieldMaps,
    fn_name: String,
    self_ty: Option<String>,
    locals: BTreeMap<String, Local>,
}

/// Per call-graph node, the lock classes it acquires directly or
/// through any chain of same-crate callees. Callees named `lock` /
/// `read` / `write` are skipped so the std-wrapper shims do not alias
/// every lock to their inner class.
pub fn lock_summaries(graph: &CallGraph, files: &[ParsedFile]) -> Vec<BTreeSet<String>> {
    let direct = (0..graph.defs.len()).map(|id| graph.meta(files, id).locks.clone());
    graph.propagate(direct.collect(), |v, e| {
        let (caller, callee) = (&graph.defs[v], &graph.defs[e.callee]);
        caller.krate == callee.krate && !LOCK_METHODS.contains(&callee.name.as_str())
    })
}

/// Run the L4 pass (and the L7 field-access check) over the crate whose
/// files are `files[range]`. `io_fns` is the workspace I/O registry
/// (built-in names plus `#[doc = "srlint: io"]` markers); `decls` the
/// crate's `lock-order(a < b)` declarations; `maps` the crate's
/// field→lock annotations from [`crate::guarded`].
#[allow(clippy::too_many_arguments)]
pub fn l4_locks(
    files: &mut [ParsedFile],
    range: Range<usize>,
    graph: &CallGraph,
    summaries: &[BTreeSet<String>],
    io_fns: &HashSet<String>,
    decls: &[(String, String)],
    maps: &FieldMaps,
    diags: &mut Vec<Diagnostic>,
) {
    // Guard-tracking walk, emitting order/io/escape/guarded diagnostics
    // and collecting the acquisition graph.
    let mut edges: BTreeMap<(String, String), Site> = BTreeMap::new();
    for (id, def) in graph.defs.iter().enumerate() {
        if !range.contains(&def.file) {
            continue;
        }
        // Split borrows: walk the shared fn registry immutably while
        // the lexed side stays mutable for hatch consumption.
        let ParsedFile {
            path, lexed, fns, ..
        } = &mut files[def.file];
        let fm = &fns[def.idx];
        let mut ctx = WalkCtx {
            path,
            io_fns,
            decls,
            graph,
            id,
            summaries,
            maps,
            fn_name: fm.name.clone(),
            self_ty: fm.self_ty.clone(),
            locals: BTreeMap::new(),
        };
        let mut held: Vec<Guard> = Vec::new();
        // A parameter typed as a guarded struct can only exist while
        // that struct's locks are held by the caller.
        for (pname, tidents) in &fm.params {
            let Some(ty) = tidents.iter().find(|t| maps.has_struct(t)) else {
                continue;
            };
            ctx.locals.insert(pname.clone(), Local::Guarded(ty.clone()));
            for class in maps.classes_of(ty) {
                if class != "owner" && !held.iter().any(|g| g.class == class) {
                    held.push(Guard {
                        class,
                        binding: None,
                        temp: false,
                        assumed: true,
                    });
                }
            }
        }
        walk_block(
            &fm.body, &mut ctx, lexed, &mut held, &mut edges, diags, true,
        );
    }

    // Cycles in the acquisition graph.
    report_cycles(&edges, &mut files[range], diags);
}

/// Is the ident at `k` (known to be followed by `(`) a zero-argument
/// lock acquisition method call?
pub(crate) fn is_acquisition(tokens: &[Token], k: usize) -> bool {
    LOCK_METHODS.contains(&tokens[k].text.as_str())
        && k > 0
        && tokens[k - 1].is_punct('.')
        && tokens.get(k + 2).is_some_and(|t| t.is_punct(')'))
}

/// The lock class of the receiver ending at the `.` at `dot`: the
/// nearest name, walking back over `?` and call parentheses.
pub(crate) fn receiver_class(tokens: &[Token], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    loop {
        let t = tokens.get(j)?;
        if t.is_punct('?') {
            j = j.checked_sub(1)?;
            continue;
        }
        if t.is_punct(')') {
            j = open_of(tokens, j)?;
            // The call name before the parens classifies the lock.
            j = j.checked_sub(1)?;
            continue;
        }
        return match t.kind {
            Kind::Ident | Kind::Num => Some(t.text.clone()),
            _ => None,
        };
    }
}

fn walk_block(
    block: &Block,
    ctx: &mut WalkCtx<'_>,
    lexed: &mut Lexed,
    held: &mut Vec<Guard>,
    edges: &mut BTreeMap<(String, String), Site>,
    diags: &mut Vec<Diagnostic>,
    fn_body: bool,
) {
    let base = held.len();
    for (stmt, is_tail) in block.stmts_tail(&lexed.tokens, fn_body) {
        scan_stmt(stmt, ctx, lexed, held, edges, diags, is_tail);
    }
    held.truncate(base);
}

#[allow(clippy::too_many_arguments)]
fn scan_stmt(
    stmt: &Stmt,
    ctx: &mut WalkCtx<'_>,
    lexed: &mut Lexed,
    held: &mut Vec<Guard>,
    edges: &mut BTreeMap<(String, String), Site>,
    diags: &mut Vec<Diagnostic>,
    is_tail: bool,
) {
    // Guard move: `let g2 = g;` renames a held binding guard.
    if let Some(new_name) = &stmt.let_name {
        if let Some(moved) = rebind_source(&lexed.tokens, stmt) {
            if let Some(g) = held
                .iter_mut()
                .find(|g| g.binding.as_deref() == Some(moved.as_str()))
            {
                g.binding = Some(new_name.clone());
                let class = g.class.clone();
                ctx.locals.insert(new_name.clone(), Local::Guard(class));
            }
        }
    }

    let stmt_base = held.len();
    for part in stmt.parts() {
        let k = match part {
            Part::Block(b) => {
                walk_block(b, ctx, lexed, held, edges, diags, false);
                continue;
            }
            Part::Tok(k) => k,
        };
        let Some(t) = lexed.tokens.get(k) else { break };
        let followed_by_paren = lexed.tokens.get(k + 1).is_some_and(|n| n.is_punct('('));
        if t.kind == Kind::Ident && followed_by_paren {
            if is_acquisition(&lexed.tokens, k) {
                let class = receiver_class(&lexed.tokens, k - 1).unwrap_or_default();
                let (line, col) = (t.line, t.col);
                on_acquire(
                    &class, None, ctx.path, line, col, lexed, ctx.decls, held, edges, diags,
                );
                // Binding guard iff this is a `let` initializer and the
                // acquisition is the whole tail of the statement
                // (modulo `?` and the terminator).
                let binding = stmt.let_name.clone().filter(|_| {
                    (k + 3..=stmt.last).all(|j| {
                        lexed
                            .tokens
                            .get(j)
                            .is_none_or(|t| t.is_punct('?') || t.is_punct(';'))
                    })
                });
                if let Some(b) = &binding {
                    ctx.locals.insert(b.clone(), Local::Guard(class.clone()));
                }
                held.push(Guard {
                    class,
                    temp: binding.is_none(),
                    binding,
                    assumed: false,
                });
            } else {
                let name = t.text.clone();
                let (line, col) = (t.line, t.col);
                if name == "drop" {
                    if let Some(arg) = lexed.tokens.get(k + 2).filter(|a| a.kind == Kind::Ident) {
                        let arg = arg.text.clone();
                        held.retain(|g| g.binding.as_deref() != Some(arg.as_str()));
                    }
                } else if held.iter().any(|g| !g.assumed) {
                    if ctx.io_fns.contains(&name) {
                        let classes: Vec<&str> = held
                            .iter()
                            .filter(|g| !g.assumed)
                            .map(|g| g.class.as_str())
                            .collect();
                        let message = format!(
                            "I/O call `{name}()` while holding lock `{}`; move the I/O outside \
                             the guard (only the sanctioned read-through may hatch this)",
                            classes.join("`, `")
                        );
                        lexed.flag(diags, ctx.path, (line, col), "L4/lock-io", message);
                    }
                    if !LOCK_METHODS.contains(&name.as_str()) {
                        let graph = ctx.graph;
                        let classes: BTreeSet<&String> = graph
                            .edges_at(ctx.id, k)
                            .iter()
                            .filter(|e| graph.defs[e.callee].krate == graph.defs[ctx.id].krate)
                            .flat_map(|e| &ctx.summaries[e.callee])
                            .collect();
                        for class in classes {
                            on_acquire(
                                class,
                                Some(&name),
                                ctx.path,
                                line,
                                col,
                                lexed,
                                ctx.decls,
                                held,
                                edges,
                                diags,
                            );
                        }
                    }
                }
            }
        } else if (t.kind == Kind::Ident || t.kind == Kind::Num) && !followed_by_paren {
            check_field_access(k, ctx, lexed, held, diags);
        }
    }

    check_guard_escape(stmt, ctx, lexed, held, diags, is_tail);

    // Temporaries die at the end of their statement; bindings survive
    // to the end of the block.
    let mut idx = stmt_base;
    while idx < held.len() {
        if held[idx].temp {
            held.remove(idx);
        } else {
            idx += 1;
        }
    }
}

/// If `stmt` is `let new = old;` with a bare-identifier initializer,
/// return `old`.
fn rebind_source(tokens: &[Token], stmt: &Stmt) -> Option<String> {
    let mut j = stmt.first + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    if !tokens.get(j + 1)?.is_punct('=') {
        return None;
    }
    let mut last = stmt.last;
    if tokens.get(last).is_some_and(|t| t.is_punct(';')) {
        last = last.checked_sub(1)?;
    }
    if last != j + 2 {
        return None;
    }
    let src = tokens.get(last)?;
    (src.kind == Kind::Ident).then(|| src.text.clone())
}

/// L7/unguarded-access: the field access at token `k` (ident/num with a
/// `.` before it and no call parens after), when its receiver's type is
/// known, must happen with the field's declared lock held.
fn check_field_access(
    k: usize,
    ctx: &mut WalkCtx<'_>,
    lexed: &mut Lexed,
    held: &[Guard],
    diags: &mut Vec<Diagnostic>,
) {
    if k < 2 || !lexed.tokens[k - 1].is_punct('.') {
        return;
    }
    let field = lexed.tokens[k].text.clone();
    let recv = &lexed.tokens[k - 2];
    let required: Option<String> = if recv.is_ident("self") {
        ctx.self_ty
            .as_deref()
            .and_then(|ty| ctx.maps.lock_of(ty, &field))
            .map(str::to_string)
    } else if recv.kind == Kind::Ident {
        match ctx.locals.get(&recv.text) {
            Some(Local::Guarded(ty)) => ctx.maps.lock_of(ty, &field).map(str::to_string),
            Some(Local::Guard(class)) => Some(class.clone()),
            None => None,
        }
    } else if recv.is_punct(')') {
        // `x.lock().field`: the receiver is a fresh temporary guard.
        match open_of(&lexed.tokens, k - 2).and_then(|open| open.checked_sub(1)) {
            Some(m) if is_acquisition(&lexed.tokens, m) => receiver_class(&lexed.tokens, m - 1),
            _ => None,
        }
    } else {
        None
    };
    let Some(class) = required else { return };
    if class == "owner" || held.iter().any(|g| g.class == class) {
        return;
    }
    let (line, col) = (lexed.tokens[k].line, lexed.tokens[k].col);
    let message = format!(
        "field `{field}` is guarded by `{class}`, which is not held here; \
         acquire `{class}` (or restructure so the access happens under the guard)"
    );
    lexed.flag(diags, ctx.path, (line, col), "L7/unguarded-access", message);
}

/// L4/guard-escape: a guard leaving the function via `return` or the
/// tail expression.
fn check_guard_escape(
    stmt: &Stmt,
    ctx: &WalkCtx<'_>,
    lexed: &mut Lexed,
    held: &[Guard],
    diags: &mut Vec<Diagnostic>,
    is_tail: bool,
) {
    // The std-wrapper shims exist to return guards.
    if LOCK_METHODS.contains(&ctx.fn_name.as_str()) {
        return;
    }
    let is_return = lexed
        .tokens
        .get(stmt.first)
        .is_some_and(|t| t.is_ident("return"));
    if !is_return && !is_tail {
        return;
    }
    let mut last = stmt.last;
    if lexed.tokens.get(last).is_some_and(|t| t.is_punct(';')) {
        last = last.saturating_sub(1);
    }
    let expr_first = if is_return {
        stmt.first + 1
    } else {
        stmt.first
    };
    if last < expr_first {
        return;
    }
    // Shape 1: a bare identifier naming a held binding guard.
    let escaped: Option<(String, u32, u32)> = if last == expr_first {
        let t = &lexed.tokens[last];
        held.iter()
            .find(|g| !g.assumed && g.binding.as_deref() == Some(t.text.as_str()))
            .map(|g| (g.class.clone(), t.line, t.col))
    // Shape 2: the returned value IS a fresh acquisition (`return
    // self.meta.lock();` / tail `self.meta.lock()`).
    } else if last >= 2
        && lexed.tokens[last].is_punct(')')
        && is_acquisition(&lexed.tokens, last - 2)
    {
        let m = last - 2;
        receiver_class(&lexed.tokens, m - 1).map(|c| {
            let t = &lexed.tokens[m];
            (c, t.line, t.col)
        })
    } else {
        None
    };
    let Some((class, line, col)) = escaped else {
        return;
    };
    let message = format!(
        "guard for lock `{class}` escapes `{}()`; callers inherit a held lock the \
         analysis cannot see — return the data, not the guard",
        ctx.fn_name
    );
    lexed.flag(diags, ctx.path, (line, col), "L4/guard-escape", message);
}

/// Record edges and check declared orders for one acquisition of
/// `class` (directly, or through a call to `via`). Assumed guards are
/// skipped: they are a caller's obligation, not an acquisition here.
#[allow(clippy::too_many_arguments)]
fn on_acquire(
    class: &str,
    via: Option<&str>,
    path: &str,
    line: u32,
    col: u32,
    lexed: &mut Lexed,
    decls: &[(String, String)],
    held: &[Guard],
    edges: &mut BTreeMap<(String, String), Site>,
    diags: &mut Vec<Diagnostic>,
) {
    for g in held.iter().filter(|g| !g.assumed) {
        edges
            .entry((g.class.clone(), class.to_string()))
            .or_insert(Site {
                file: path.to_string(),
                line,
                col,
            });
        let violated = decls
            .iter()
            .any(|(earlier, later)| earlier == class && later == &g.class);
        if violated {
            let how = match via {
                Some(callee) => format!("call to `{callee}()` acquires lock `{class}`"),
                None => format!("lock `{class}` acquired"),
            };
            let message = format!(
                "{how} while `{}` is held; declared order is `{class} < {}`",
                g.class, g.class
            );
            lexed.flag(diags, path, (line, col), "L4/lock-order", message);
        }
    }
}

/// Detect cycles in the acquisition graph and report one diagnostic
/// per strongly connected component, anchored at its smallest site.
fn report_cycles(
    edges: &BTreeMap<(String, String), Site>,
    files: &mut [ParsedFile],
    diags: &mut Vec<Diagnostic>,
) {
    let classes: BTreeSet<&str> = edges
        .keys()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .collect();
    let classes: Vec<&str> = classes.into_iter().collect();
    let idx = |c: &String| classes.partition_point(|&x| x < c.as_str());
    let mut adj = vec![Vec::new(); classes.len()];
    for (a, b) in edges.keys() {
        adj[idx(a)].push(idx(b));
    }
    // Components on a cycle, in order of their smallest class name.
    let mut cycles: Vec<Vec<usize>> = sccs(&adj)
        .into_iter()
        .filter(|c| c.len() > 1 || adj[c[0]].contains(&c[0]))
        .collect();
    cycles.sort();
    for scc in cycles {
        // Internal edges of the SCC, anchored at the earliest site.
        let site = edges
            .iter()
            .filter(|((a, b), _)| scc.contains(&idx(a)) && scc.contains(&idx(b)))
            .map(|(_, s)| s)
            .min();
        let Some(site) = site else { continue };
        let names: Vec<&str> = scc.iter().map(|&c| classes[c]).collect();
        let message = format!(
            "lock acquisition cycle: {} -> {}",
            names.join(" -> "),
            names[0]
        );
        // Sites come from this crate's files, so the lookup hits.
        if let Some(f) = files.iter_mut().find(|f| f.path == site.file) {
            let pos = (site.line, site.col);
            f.lexed
                .flag(diags, &site.file, pos, "L4/lock-cycle", message);
        }
    }
}
