//! L8 — Send/Sync boundary audit.
//!
//! The batch executor (`sr-exec`) shares trees and the pager across a
//! `std::thread::scope`; anything that crosses that boundary is relied
//! on for `Send + Sync`. Under the workspace-wide `forbid(unsafe_code)`
//! those impls are always compiler-derived, so the audit is about
//! *visibility*: every boundary type must carry an item-scoped
//! `// srlint: send-sync -- <reason>` note stating why concurrent
//! access is sound, and the note is what arms the L7 unprotected-shared
//! check on its fields.
//!
//! Rules:
//!
//! * **L8/unsafe-impl** — a literal `unsafe impl Send/Sync`. Must be
//!   zero in this workspace; if one ever appears it needs a hatch with
//!   a reason, which is exactly the paper trail we want.
//! * **L8/missing-note** — a struct that crosses the pool boundary
//!   (the known executor-shared types) or owns synchronization state
//!   (lock/atomic fields) without a send-sync note.
//! * **L8/interior-mutability** — a raw-pointer / `Cell` / `RefCell` /
//!   `UnsafeCell` / `Rc` field in a (would-be) noted struct: these
//!   defeat or forbid `Sync` and need restructuring, not a note.
//! * **L8/send-sync-unused** — a note attached to no struct (reported
//!   with the other unused notes, [`crate::rules::unused_notes`]).

use crate::parser::{Item, ItemKind};
use crate::{Diagnostic, ParsedFile};

/// Types handed across the executor's thread scope: the pager, the
/// stats recorder, and the five tree structs behind `SpatialIndex`.
pub const BOUNDARY_TYPES: &[&str] = &[
    "PageFile",
    "StatsRecorder",
    "SrTree",
    "SsTree",
    "RstarTree",
    "KdbTree",
    "VamTree",
];

/// Run the L8 audit over one file.
pub fn l8_boundary(f: &mut ParsedFile, diags: &mut Vec<Diagnostic>) {
    let ParsedFile {
        path,
        lexed,
        items,
        structs,
        ..
    } = f;
    // Literal `unsafe impl Send/Sync`.
    let mut unsafe_impls = Vec::new();
    find_unsafe_impls(items, lexed, &mut unsafe_impls);
    for (pos, trait_name, ty) in unsafe_impls {
        let message = format!(
            "`unsafe impl {trait_name}` for `{ty}`: hand-written thread-safety claims \
             are forbidden here; make the type structurally Send/Sync instead"
        );
        lexed.flag(diags, path, pos, "L8/unsafe-impl", message);
    }

    for s in structs.iter() {
        let owns_sync = s.fields.iter().any(|fld| {
            fld.type_idents
                .iter()
                .any(|t| t.starts_with("Atomic") || t == "Mutex" || t == "RwLock" || t == "Condvar")
        });
        let needs_note = BOUNDARY_TYPES.contains(&s.name.as_str()) || owns_sync;
        if needs_note && !s.has_note {
            let why = if owns_sync {
                "owns synchronization state"
            } else {
                "crosses the executor thread boundary"
            };
            let message = format!(
                "`{}` {why} but has no `// srlint: send-sync -- <reason>` note stating \
                 why concurrent access is sound",
                s.name
            );
            lexed.flag(diags, path, (s.line, s.col), "L8/missing-note", message);
        }
        if !(needs_note || s.has_note) {
            continue;
        }
        for fld in &s.fields {
            let bad = fld.has_raw_ptr
                || fld
                    .type_idents
                    .iter()
                    .any(|t| t == "Cell" || t == "RefCell" || t == "UnsafeCell" || t == "Rc");
            if bad {
                let message = format!(
                    "field `{}` of boundary type `{}` uses non-Sync interior \
                     mutability (raw pointer / Cell / RefCell / Rc); use a lock or atomic",
                    fld.name, s.name
                );
                lexed.flag(
                    diags,
                    path,
                    (fld.line, fld.col),
                    "L8/interior-mutability",
                    message,
                );
            }
        }
    }
}

fn find_unsafe_impls(
    items: &[Item],
    lexed: &crate::lexer::Lexed,
    out: &mut Vec<((u32, u32), String, String)>,
) {
    for item in items {
        if item.kind == ItemKind::Impl
            && item.is_unsafe
            && !lexed.test_mask.get(item.first).copied().unwrap_or(false)
        {
            if let Some(t) = item
                .impl_trait
                .iter()
                .find(|t| *t == "Send" || *t == "Sync")
            {
                out.push(((item.line, item.col), t.clone(), item.impl_ty.join("::")));
            }
        }
        find_unsafe_impls(&item.children, lexed, out);
    }
}
