//! L10 — hot-path purity over the workspace call graph.
//!
//! Functions annotated `// srlint: hot` (the distance kernels and the
//! shared columnar leaf scan) are *hot
//! regions*: the per-point and per-query costs perfbench measures
//! (`geometry.kernel_ns_per_point`, `tree.query_us`) live or dies on
//! them staying allocation-free and lock-free. The pass checks the
//! property *transitively*: a hot root must not reach, through any call
//! chain the graph resolves, a function that
//!
//! * **allocates** (`Vec::new`, `Box::new`, `.to_vec()`, `.collect()`,
//!   `.clone()`, `format!`, `vec!`) — `L10/hot-alloc`;
//! * **acquires a lock** (a zero-argument `.lock()` / `.read()` /
//!   `.write()` call, the same shape L4 models) — `L10/hot-lock`;
//! * **performs store I/O** (a call to a name in the L4 I/O registry,
//!   or a function carrying `#[doc = "srlint: io"]`) — `L10/hot-io`.
//!
//! Diagnostics carry the full call chain and anchor at the first call
//! site inside the hot root (or the offending operation itself when it
//! is direct), so an `allow(hot-*)` hatch sits where the decision is
//! made. Amortized growth (`push`, `resize`, `reserve` on
//! caller-provided scratch) is deliberately outside the ban list: the
//! hot contract is "no fresh heap blocks, no blocking", not "no writes
//! into reusable buffers".

use crate::callgraph::{CallGraph, ALLOC, IO, LOCK};
use crate::{Diagnostic, ParsedFile};

/// The three families: rule tail, what is banned, and the index of the
/// fn's direct site ([`crate::callgraph::FnMeta::sites`]).
const FAMILIES: &[(&str, &str, usize)] = &[
    ("hot-alloc", "heap allocation", ALLOC),
    ("hot-lock", "lock acquisition", LOCK),
    ("hot-io", "store I/O", IO),
];

/// Run the L10 pass over the whole workspace.
pub fn l10_hot(graph: &CallGraph, files: &mut [ParsedFile], diags: &mut Vec<Diagnostic>) {
    let n = graph.defs.len();
    let roots: Vec<usize> = (0..n).filter(|&id| graph.meta(files, id).hot).collect();
    let mut findings: Vec<(usize, u32, u32, &'static str, String)> = Vec::new();
    for &(tail, what, fact) in FAMILIES {
        let site = |id: usize| graph.meta(files, id).sites[fact].as_ref();
        let flags: Vec<bool> = (0..n).map(|id| site(id).is_some()).collect();
        let reach = graph.reaches(&flags);
        for &root in &roots {
            if !reach[root] {
                continue;
            }
            let Some(path) = graph.path_to(root, &flags) else {
                continue;
            };
            let offender = *path.last().unwrap_or(&root);
            let Some(op) = site(offender) else {
                continue;
            };
            let chain: Vec<&str> = path.iter().map(|&v| graph.defs[v].name.as_str()).collect();
            let root_def = &graph.defs[root];
            let (line, col, how) = if path.len() == 1 {
                (
                    op.line,
                    op.col,
                    format!("{} on the hot path: {}", what, op.desc),
                )
            } else {
                let e = graph.edge_to(root, path[1]);
                let (l, c) = e.map_or((op.line, op.col), |e| (e.line, e.col));
                (
                    l,
                    c,
                    format!(
                        "reaches {} in `{}()` (call chain: {}): {} at {}:{}",
                        what,
                        graph.defs[offender].name,
                        chain.join(" -> "),
                        op.desc,
                        files[graph.defs[offender].file].path,
                        op.line,
                    ),
                )
            };
            findings.push((
                root_def.file,
                line,
                col,
                tail,
                format!(
                    "hot fn `{}()` {how}; hot regions must stay free of allocation, \
                     locks, and store I/O — restructure, or hatch with `allow({})`",
                    root_def.name, tail
                ),
            ));
        }
    }

    findings.sort_by(|a, b| (a.0, a.1, a.2, a.3).cmp(&(b.0, b.1, b.2, b.3)));
    for (fi, line, col, tail, message) in findings {
        let f = &mut files[fi];
        f.lexed
            .flag(diags, &f.path, (line, col), &format!("L10/{tail}"), message);
    }
}
