//! Workspace call graph for the interprocedural passes (L9 taint,
//! L10 hot-path purity), plus the shared per-file function registry
//! every scope-aware pass draws from.
//!
//! The graph is structural, not type-checked. Each function item in
//! every lib crate becomes a node; call sites inside bodies become
//! edges, resolved in order of decreasing precision:
//!
//! 1. **Receiver-typed method calls** — `self.f()` resolves through the
//!    enclosing impl's type, `param.f()` through the parameter's type
//!    identifiers (the same maps L4/L7 use for guard receivers).
//! 2. **Path-qualified calls** — `Ty::f()` resolves against the
//!    registry of `impl Ty` functions.
//! 3. **Name-match degradation** — anything else (trait-object calls,
//!    locals of unknown type, free functions) edges to *every*
//!    workspace function of that name. Over-approximate by design: a
//!    `dyn SpatialIndex` call fans out to all five trees.
//!
//! Lock-method names (`lock`/`read`/`write`) and `drop` never produce
//! name-match edges — the std-wrapper shims would otherwise alias every
//! call through them (the same exclusion L4 applies to its summaries).
//!
//! Each fn's direct facts — the lock classes it acquires and its
//! first allocation, lock and I/O site — are computed once, when the
//! registry is built. Propagation queries ([`CallGraph::reaches`],
//! [`CallGraph::propagate`]) condense the graph into strongly connected
//! components first, so recursion and mutual recursion terminate: an
//! SCC has a fact iff any member has it directly or any out-edge target
//! SCC has it.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use crate::lexer::{close_of, split_commas, Kind, Lexed, NoteKind, Token};
use crate::locks::{is_acquisition, receiver_class};
use crate::parser::{Block, Item, ItemKind};
use crate::ParsedFile;

/// Method names whose call allocates a fresh heap block.
const ALLOC_METHODS: &[&str] = &["to_vec", "collect", "clone"];

/// Macro names that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Indices into [`FnMeta::sites`].
pub const ALLOC: usize = 0;
pub const LOCK: usize = 1;
pub const IO: usize = 2;

/// A direct fact's position and description.
#[derive(Clone, Debug)]
pub struct Site {
    pub line: u32,
    pub col: u32,
    pub desc: String,
}

/// One function definition extracted at prep time and shared across
/// the passes (L4 guard walk, L7, call-graph construction, L9, L10).
#[derive(Clone, Debug)]
pub struct FnMeta {
    pub name: String,
    /// Self type of the enclosing impl, if any.
    pub self_ty: Option<String>,
    /// `(name, type identifier tokens)` per named parameter.
    pub params: Vec<(String, Vec<String>)>,
    pub body: Block,
    /// Position of the fn name.
    pub line: u32,
    pub col: u32,
    /// Whether the item sits inside test-masked code.
    pub is_test: bool,
    /// A `// srlint: hot` note attaches (L10 root).
    pub hot: bool,
    /// A `// srlint: untrusted-source` note attaches (L9 source).
    pub untrusted: bool,
    /// Lock classes the body acquires directly.
    pub locks: BTreeSet<String>,
    /// First direct allocation, lock acquisition and I/O site, indexed
    /// by [`ALLOC`], [`LOCK`] and [`IO`].
    pub sites: [Option<Site>; 3],
}

/// Collect every fn item (with a body) into the shared registry, in
/// item-tree order, tracking the enclosing impl's self type. `io_fns`
/// is the workspace I/O registry. `hot` and `untrusted-source` notes
/// attach here, to a non-test fn starting on a line they cover.
pub fn collect_fn_metas(
    items: &[Item],
    lexed: &mut Lexed,
    io_fns: &HashSet<String>,
) -> Vec<FnMeta> {
    let mut out = Vec::new();
    collect_inner(items, lexed, io_fns, None, &mut out);
    out
}

fn collect_inner(
    items: &[Item],
    lexed: &mut Lexed,
    io_fns: &HashSet<String>,
    self_ty: Option<&str>,
    out: &mut Vec<FnMeta>,
) {
    for item in items {
        if let (ItemKind::Fn, Some(b)) = (item.kind, &item.body) {
            let is_test = lexed.test_mask.get(item.first).copied().unwrap_or(false);
            let start = item.start_line(&lexed.tokens);
            let mut attach = |kind| !is_test && lexed.attach(kind, |n| n.covers.contains(&start));
            let (hot, untrusted) = (attach(NoteKind::Hot), attach(NoteKind::Untrusted));
            let marked = item.has_doc_marker("srlint: io").then(|| Site {
                line: item.line,
                col: item.col,
                desc: format!("`{}()` is `#[doc = \"srlint: io\"]`-marked", item.name),
            });
            let (locks, sites) = body_facts(&lexed.tokens, b, io_fns, marked);
            out.push(FnMeta {
                name: item.name.clone(),
                self_ty: self_ty.map(str::to_string),
                params: fn_params(&lexed.tokens, item.first, b.open),
                body: b.clone(),
                line: item.line,
                col: item.col,
                is_test,
                hot,
                untrusted,
                locks,
                sites,
            });
        }
        let child_self = if item.kind == ItemKind::Impl {
            item.impl_ty.first().map(String::as_str)
        } else {
            self_ty
        };
        collect_inner(&item.children, lexed, io_fns, child_self, out);
    }
}

/// Scan a body once for its direct facts: the lock classes it acquires
/// and its first allocation, lock and I/O site (`io` starts as the
/// fn's own `srlint: io` marker, which outranks any call).
fn body_facts(
    tokens: &[Token],
    body: &Block,
    io_fns: &HashSet<String>,
    io: Option<Site>,
) -> (BTreeSet<String>, [Option<Site>; 3]) {
    let mut locks = BTreeSet::new();
    let mut sites = [None, None, io];
    for k in body.open + 1..body.close.min(tokens.len()) {
        let t = &tokens[k];
        let next_is = |c: char| tokens.get(k + 1).is_some_and(|x| x.is_punct(c));
        if t.kind != Kind::Ident {
            continue;
        }
        let (fact, desc) = if ALLOC_MACROS.contains(&t.text.as_str()) && next_is('!') {
            (ALLOC, format!("`{}!` expansion", t.text))
        } else if !next_is('(') {
            continue;
        } else if t.text == "new"
            && k >= 3
            && tokens[k - 1].is_punct(':')
            && tokens[k - 2].is_punct(':')
            && (tokens[k - 3].is_ident("Vec") || tokens[k - 3].is_ident("Box"))
        {
            (ALLOC, format!("`{}::new()`", tokens[k - 3].text))
        } else if ALLOC_METHODS.contains(&t.text.as_str()) && k > 0 && tokens[k - 1].is_punct('.') {
            (ALLOC, format!("`.{}()`", t.text))
        } else if is_acquisition(tokens, k) {
            let class = receiver_class(tokens, k - 1);
            locks.extend(class.clone());
            (
                LOCK,
                format!("`.{}()` on `{}`", t.text, class.unwrap_or_default()),
            )
        } else if io_fns.contains(&t.text) {
            (IO, format!("I/O call `{}()`", t.text))
        } else {
            continue;
        };
        sites[fact].get_or_insert(Site {
            line: t.line,
            col: t.col,
            desc,
        });
    }
    (locks, sites)
}

/// Parse `(name, type idents)` for each named parameter of a fn item:
/// the first `(`..`)` group after the `fn` keyword outside generic
/// brackets. `self` receivers and non-trivial patterns are skipped.
pub(crate) fn fn_params(
    tokens: &[Token],
    item_first: usize,
    body_open: usize,
) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let mut j = item_first;
    while j < body_open && !tokens[j].is_ident("fn") {
        j += 1;
    }
    let mut angle = 0usize;
    let mut open = None;
    for (k, t) in tokens.iter().enumerate().take(body_open).skip(j) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = angle.saturating_sub(1);
        } else if t.is_punct('(') && angle == 0 {
            open = Some(k);
            break;
        }
    }
    let Some(open) = open else { return out };
    let close = close_of(&tokens[..body_open], open);
    for (seg, end) in split_commas(tokens, open, close, true) {
        // One parameter in [seg, end): `mut? name : type...`.
        let mut p = seg;
        if tokens.get(p).is_some_and(|t| t.is_ident("mut")) {
            p += 1;
        }
        if let Some(name) = tokens.get(p).filter(|t| t.kind == Kind::Ident) {
            if tokens.get(p + 1).is_some_and(|t| t.is_punct(':')) {
                let tidents = tokens[p + 2..end]
                    .iter()
                    .filter(|t| t.kind == Kind::Ident)
                    .map(|t| t.text.clone())
                    .collect();
                out.push((name.text.clone(), tidents));
            }
        }
    }
    out
}

/// One graph node: which file and which entry of that file's shared
/// `fns` registry it refers to, with the name/type copied out so graph
/// queries do not need the file list.
#[derive(Clone, Debug)]
pub struct Def {
    /// Index into the parsed-file slice the graph was built from.
    pub file: usize,
    /// Index into that file's `fns` vector.
    pub idx: usize,
    pub name: String,
    pub self_ty: Option<String>,
    /// Crate the file belongs to.
    pub krate: String,
}

/// One resolved call edge, anchored at its call-site token.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Callee node id.
    pub callee: usize,
    /// Token index of the callee name at the call site.
    pub token: usize,
    pub line: u32,
    pub col: u32,
}

/// Call names that never produce name-match edges: the std lock
/// methods and `drop` (the same exclusion L4 applies), plus method
/// names ubiquitous on std containers — an untyped `out.clear()` on a
/// `Vec` must not alias every workspace fn that happens to be called
/// `clear`. Workspace functions with these names still resolve through
/// typed receivers (`self.f()`, a typed param, `Ty::f()`); only the
/// name-match fallback is cut. This is a documented false-negative
/// class: an untyped call to a workspace fn named e.g. `insert` is
/// invisible to the graph.
const NO_NAME_MATCH: &[&str] = &[
    "lock",
    "read",
    "write",
    "drop",
    "clear",
    "len",
    "is_empty",
    "take",
    "min",
    "max",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "contains",
    "iter",
    "next",
    "extend",
    "resize",
    "reserve",
    "from",
    "into",
    "new",
    "default",
    "fmt",
    "to_string",
    "eq",
    "cmp",
    "hash",
    "as_ref",
    "deref",
];

/// The workspace call graph.
pub struct CallGraph {
    pub defs: Vec<Def>,
    /// Per-node outgoing edges, in body token order.
    pub calls: Vec<Vec<Edge>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_ty: BTreeMap<(String, String), Vec<usize>>,
}

impl CallGraph {
    /// Build the graph over parsed files. Test-masked functions are
    /// excluded.
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let mut defs = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_ty: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (mi, fm) in f.fns.iter().enumerate() {
                if fm.is_test {
                    continue;
                }
                let id = defs.len();
                by_name.entry(fm.name.clone()).or_default().push(id);
                if let Some(ty) = &fm.self_ty {
                    by_ty
                        .entry((ty.clone(), fm.name.clone()))
                        .or_default()
                        .push(id);
                }
                defs.push(Def {
                    file: fi,
                    idx: mi,
                    name: fm.name.clone(),
                    self_ty: fm.self_ty.clone(),
                    krate: f.krate.clone(),
                });
            }
        }
        let mut graph = CallGraph {
            defs,
            calls: Vec::new(),
            by_name,
            by_ty,
        };
        let mut calls = Vec::with_capacity(graph.defs.len());
        for id in 0..graph.defs.len() {
            calls.push(graph.scan_calls(files, id));
        }
        graph.calls = calls;
        graph
    }

    pub fn meta<'a>(&self, files: &'a [ParsedFile], id: usize) -> &'a FnMeta {
        &files[self.defs[id].file].fns[self.defs[id].idx]
    }

    /// All call edges out of `id`, one per (site, callee) pair.
    fn scan_calls(&self, files: &[ParsedFile], id: usize) -> Vec<Edge> {
        let def = &self.defs[id];
        let fm = &files[def.file].fns[def.idx];
        let tokens = &files[def.file].lexed.tokens;
        let mut out = Vec::new();
        for k in fm.body.open + 1..fm.body.close.min(tokens.len()) {
            let t = &tokens[k];
            if t.kind != Kind::Ident || !tokens.get(k + 1).is_some_and(|n| n.is_punct('(')) {
                continue;
            }
            for callee in self.resolve_call(tokens, fm, k) {
                if out
                    .iter()
                    .any(|e: &Edge| e.token == k && e.callee == callee)
                {
                    continue;
                }
                out.push(Edge {
                    callee,
                    token: k,
                    line: t.line,
                    col: t.col,
                });
            }
        }
        out
    }

    /// Resolve the call whose callee name is the ident at `k` (followed
    /// by `(`) inside `caller`'s body. Returns every candidate callee.
    pub fn resolve_call(&self, tokens: &[Token], caller: &FnMeta, k: usize) -> Vec<usize> {
        let name = tokens[k].text.as_str();
        // Method call: `recv.name(...)`.
        if k >= 2 && tokens[k - 1].is_punct('.') {
            let recv = &tokens[k - 2];
            if recv.is_ident("self") {
                if let Some(ty) = &caller.self_ty {
                    if let Some(ids) = self.by_ty.get(&(ty.clone(), name.to_string())) {
                        return ids.clone();
                    }
                }
            } else if recv.kind == Kind::Ident {
                if let Some((_, tidents)) = caller.params.iter().find(|(p, _)| p == &recv.text) {
                    for ty in tidents {
                        if let Some(ids) = self.by_ty.get(&(ty.clone(), name.to_string())) {
                            return ids.clone();
                        }
                    }
                }
            }
            // Unknown receiver (trait object, local, chained call):
            // degrade to name-match.
            return self.name_match(name);
        }
        // Path-qualified call: `Ty::name(...)`.
        if k >= 3 && tokens[k - 1].is_punct(':') && tokens[k - 2].is_punct(':') {
            if let Some(ty) = tokens.get(k - 3).filter(|t| t.kind == Kind::Ident) {
                if let Some(ids) = self.by_ty.get(&(ty.text.clone(), name.to_string())) {
                    return ids.clone();
                }
            }
            return self.name_match(name);
        }
        // Free call.
        self.name_match(name)
    }

    fn name_match(&self, name: &str) -> Vec<usize> {
        if NO_NAME_MATCH.contains(&name) {
            return Vec::new();
        }
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Callee lists per node, keeping only the edges `follow` accepts.
    pub fn adj(&self, follow: impl Fn(usize, &Edge) -> bool) -> Vec<Vec<usize>> {
        let edges = self.calls.iter().enumerate();
        edges
            .map(|(v, es)| {
                es.iter()
                    .filter(|e| follow(v, e))
                    .map(|e| e.callee)
                    .collect()
            })
            .collect()
    }

    /// For each node, whether it reaches (itself included) a node with
    /// `direct[..]` set, walking call edges.
    pub fn reaches(&self, direct: &[bool]) -> Vec<bool> {
        fold_reach(&self.adj(|_, _| true), direct.to_vec(), |a, b| *a |= *b)
    }

    /// For each node, the union of `direct` over every node it reaches
    /// (itself included) along the edges `follow` accepts.
    pub fn propagate(
        &self,
        direct: Vec<BTreeSet<String>>,
        follow: impl Fn(usize, &Edge) -> bool,
    ) -> Vec<BTreeSet<String>> {
        fold_reach(&self.adj(follow), direct, |a, b| {
            a.extend(b.iter().cloned())
        })
    }

    /// Shortest call chain (BFS over edges) from `from` to any node
    /// with `direct[..]` set, as a node-id path including both ends.
    /// `None` when unreachable. `from` itself counts when direct.
    pub fn path_to(&self, from: usize, direct: &[bool]) -> Option<Vec<usize>> {
        if direct.get(from).copied().unwrap_or(false) {
            return Some(vec![from]);
        }
        let n = self.defs.len();
        let mut prev = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[from] = true;
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            for e in &self.calls[v] {
                let w = e.callee;
                if seen[w] {
                    continue;
                }
                seen[w] = true;
                prev[w] = v;
                if direct.get(w).copied().unwrap_or(false) {
                    let mut path = vec![w];
                    let mut cur = w;
                    while prev[cur] != usize::MAX {
                        cur = prev[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(w);
            }
        }
        None
    }

    /// The run of `id`'s edges anchored at call-site token `k` (edges
    /// are sorted by token; name-match fan-out shares one site).
    pub fn edges_at(&self, id: usize, k: usize) -> &[Edge] {
        let edges = &self.calls[id];
        let start = edges.partition_point(|e| e.token < k);
        &edges[start..edges.partition_point(|e| e.token <= k)]
    }

    /// The edge in `from`'s body that begins the chain toward `next`
    /// (for anchoring interprocedural diagnostics at a call site).
    pub fn edge_to(&self, from: usize, next: usize) -> Option<&Edge> {
        self.calls[from].iter().find(|e| e.callee == next)
    }
}

/// Strongly connected components of `adj`, emitted callees-first:
/// every out-edge of a component targets an earlier-emitted component
/// (iterative Tarjan, so recursion in the analyzed code cannot overflow
/// the analyzer's stack).
pub fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next-edge cursor).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if let Some(&w) = adj[v].get(*cursor) {
                *cursor += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// `direct` joined, per node, over every node it reaches along `adj`
/// (itself included). Tarjan emits callee components before callers,
/// so one forward pass over the components settles the DAG.
fn fold_reach<T: Clone>(adj: &[Vec<usize>], direct: Vec<T>, join: impl Fn(&mut T, &T)) -> Vec<T> {
    let sccs = sccs(adj);
    let mut comp_of = vec![0usize; adj.len()];
    for (ci, comp) in sccs.iter().enumerate() {
        for &v in comp {
            comp_of[v] = ci;
        }
    }
    let mut acc: Vec<T> = Vec::with_capacity(sccs.len());
    for comp in &sccs {
        let mut fact = direct[comp[0]].clone();
        for &v in comp {
            join(&mut fact, &direct[v]);
            for &w in &adj[v] {
                if let Some(earlier) = acc.get(comp_of[w]) {
                    join(&mut fact, earlier);
                }
            }
        }
        acc.push(fact);
    }
    comp_of.iter().map(|&c| acc[c].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(sources: &[(&str, &str, &str)]) -> (CallGraph, Vec<ParsedFile>) {
        let mut files: Vec<ParsedFile> = sources
            .iter()
            .map(|(krate, path, src)| ParsedFile::parse(path, krate, false, src))
            .collect();
        for f in &mut files {
            f.fns = collect_fn_metas(&f.items, &mut f.lexed, &HashSet::new());
        }
        (CallGraph::build(&files), files)
    }

    fn id_of(graph: &CallGraph, name: &str) -> usize {
        graph
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("no fn named {name}"))
    }

    #[test]
    fn receiver_typed_call_resolves_through_param_type() {
        let (graph, _) = build(&[(
            "a",
            "a/src/lib.rs",
            "pub struct Codec {}\n\
             impl Codec { pub fn decode(&self) {} }\n\
             pub struct Other {}\n\
             impl Other { pub fn decode(&self) {} }\n\
             pub fn run(c: &Codec) { c.decode(); }\n",
        )]);
        let run = id_of(&graph, "run");
        let callees: Vec<&str> = graph.calls[run]
            .iter()
            .map(|e| graph.defs[e.callee].name.as_str())
            .collect();
        assert_eq!(callees, ["decode"]);
        // Typed resolution picked Codec::decode, not Other::decode.
        assert_eq!(
            graph.defs[graph.calls[run][0].callee].self_ty.as_deref(),
            Some("Codec")
        );
    }

    #[test]
    fn trait_object_call_degrades_to_name_match() {
        let (graph, _) = build(&[(
            "a",
            "a/src/lib.rs",
            "pub trait Index { fn query(&self); }\n\
             pub struct TreeA {}\n\
             impl Index for TreeA { fn query(&self) {} }\n\
             pub struct TreeB {}\n\
             impl Index for TreeB { fn query(&self) {} }\n\
             pub fn dispatch(idx: &dyn Index) { idx.query(); }\n",
        )]);
        let dispatch = id_of(&graph, "dispatch");
        // The dyn receiver resolves to no single impl, so the call fans
        // out to every `query` in the registry.
        assert_eq!(graph.calls[dispatch].len(), 2);
    }

    #[test]
    fn cross_crate_call_resolves_through_workspace_registry() {
        let (graph, _) = build(&[
            (
                "pager",
                "pager/src/lib.rs",
                "pub struct PageBuf {}\n\
                 impl PageBuf { pub fn header(&self) -> u16 { 0 } }\n",
            ),
            (
                "core",
                "core/src/lib.rs",
                "use pager::PageBuf;\n\
                 pub fn read(buf: &PageBuf) { buf.header(); }\n",
            ),
        ]);
        let read = id_of(&graph, "read");
        assert_eq!(graph.calls[read].len(), 1);
        let callee = &graph.defs[graph.calls[read][0].callee];
        assert_eq!(
            (callee.krate.as_str(), callee.name.as_str()),
            ("pager", "header")
        );
    }

    #[test]
    fn recursion_and_mutual_recursion_terminate_in_one_scc() {
        let (graph, _) = build(&[(
            "a",
            "a/src/lib.rs",
            "pub fn ping(n: u32) { pong(n); }\n\
             pub fn pong(n: u32) { ping(n); }\n\
             pub fn rec(n: u32) { rec(n); }\n\
             pub fn leaf() {}\n",
        )]);
        let sccs = sccs(&graph.adj(|_, _| true));
        let ping = id_of(&graph, "ping");
        let pong = id_of(&graph, "pong");
        let rec = id_of(&graph, "rec");
        let cyc: Vec<&Vec<usize>> = sccs.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(cyc.len(), 1);
        assert_eq!(*cyc[0], {
            let mut v = vec![ping, pong];
            v.sort_unstable();
            v
        });
        // Self-recursion stays a singleton SCC but still terminates in
        // reachability queries.
        let mut direct = vec![false; graph.defs.len()];
        direct[id_of(&graph, "leaf")] = true;
        let reach = graph.reaches(&direct);
        assert!(!reach[rec], "self-recursive fn never reaches leaf");
        assert!(!reach[ping] && !reach[pong]);
    }

    #[test]
    fn reaches_propagates_transitively_and_path_is_reconstructible() {
        let (graph, _) = build(&[(
            "a",
            "a/src/lib.rs",
            "pub fn top() { mid(); }\n\
             pub fn mid() { bottom(); }\n\
             pub fn bottom() { let v: Vec<u32> = Vec::new(); drop(v); }\n\
             pub fn other() {}\n",
        )]);
        let top = id_of(&graph, "top");
        let bottom = id_of(&graph, "bottom");
        let mut direct = vec![false; graph.defs.len()];
        direct[bottom] = true;
        let reach = graph.reaches(&direct);
        assert!(reach[top] && reach[bottom]);
        assert!(!reach[id_of(&graph, "other")]);
        let path = graph.path_to(top, &direct).expect("path exists");
        let names: Vec<&str> = path.iter().map(|&v| graph.defs[v].name.as_str()).collect();
        assert_eq!(names, ["top", "mid", "bottom"]);
    }

    #[test]
    fn lock_methods_never_name_match() {
        let (graph, _) = build(&[(
            "a",
            "a/src/lib.rs",
            "pub fn read() {}\n\
             pub fn caller(x: &u32) { let _ = x.read(); }\n",
        )]);
        let caller = id_of(&graph, "caller");
        assert!(graph.calls[caller].is_empty());
    }
}
