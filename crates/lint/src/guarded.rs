//! L7 — guarded-by annotations: which lock protects which struct field.
//!
//! Struct fields carry `// srlint: guarded-by(<lock>)` notes (own line
//! above the field, or trailing on the field's line). The pass builds a
//! field→lock map per struct; the L4 held-set walk ([`crate::locks`])
//! then checks every field access whose receiver type it can resolve.
//!
//! `<lock>` must name something the crate actually locks: an
//! acquisition class observed anywhere in the crate (`self.meta.lock()`
//! → `meta`), a lock-typed field name, or the reserved pseudo-lock
//! `owner` — "written only during construction or through `&mut self`;
//! a reader holding `&self` can never observe a write", the idiom every
//! tree struct's `params`/`root`/`height`/`count` follow. `owner` is
//! always satisfied; it exists so L7/unprotected-shared can distinguish
//! "audited, safe by ownership" from "nobody looked".
//!
//! Rules emitted here:
//!
//! * **L7/bad-annotation** — a guarded-by note naming no known lock, or
//!   attaching to no struct field.
//! * **L7/unprotected-shared** — a field of a send-sync-noted struct
//!   that is neither guarded-by-annotated nor of a self-protecting type
//!   (`Mutex`/`RwLock`/`Condvar`, `Atomic*`, or another noted struct).
//!
//! (L7/unguarded-access is emitted from the walk in `locks.rs`.)

use std::collections::BTreeSet;

use crate::lexer::{close_of, split_commas, Kind, Lexed, Note, NoteKind, Token};
use crate::parser::{Item, ItemKind};
use crate::{Diagnostic, ParsedFile};

/// One named struct field.
#[derive(Clone, Debug)]
pub struct FieldInfo {
    pub name: String,
    pub line: u32,
    pub col: u32,
    /// Identifier tokens of the field type (`Arc<Mutex<Vec<u8>>>` →
    /// `["Arc", "Mutex", "Vec", "u8"]`).
    pub type_idents: Vec<String>,
    /// The type contains a raw pointer (`*const` / `*mut`).
    pub has_raw_ptr: bool,
    /// Lock named by an attached guarded-by note.
    pub guarded_by: Option<String>,
}

/// One struct with named fields (tuple and unit structs are skipped —
/// the guarded-by grammar is per named field).
#[derive(Clone, Debug)]
pub struct StructInfo {
    pub name: String,
    pub line: u32,
    pub col: u32,
    /// First and last line of the item (attrs through closing brace).
    pub start_line: u32,
    pub end_line: u32,
    pub fields: Vec<FieldInfo>,
    /// Set by `sendsync::collect_noted` when a send-sync note attaches.
    pub has_note: bool,
}

/// Field→lock maps for every annotated struct in one crate.
#[derive(Clone, Debug, Default)]
pub struct FieldMaps {
    by_struct: std::collections::BTreeMap<String, std::collections::BTreeMap<String, String>>,
}

impl FieldMaps {
    /// The lock guarding `field` of struct `ty`, if annotated.
    pub fn lock_of(&self, ty: &str, field: &str) -> Option<&str> {
        self.by_struct.get(ty)?.get(field).map(String::as_str)
    }

    /// Does `ty` have any guarded fields?
    pub fn has_struct(&self, ty: &str) -> bool {
        self.by_struct.contains_key(ty)
    }

    /// Distinct lock classes guarding fields of `ty`.
    pub fn classes_of(&self, ty: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .by_struct
            .get(ty)
            .map(|m| m.values().cloned().collect::<BTreeSet<_>>())
            .unwrap_or_default()
            .into_iter()
            .collect();
        out.sort();
        out
    }
}

/// Collect every named-field struct in the file, attaching its notes:
/// guarded-by notes to fields (first by the note's own line, a trailing
/// comment, then by the covered next code line), and send-sync notes to
/// the struct whose span contains them or that starts on the next code
/// line. Runs once per file at parse time.
pub fn collect_structs(lexed: &mut Lexed, items: &[Item]) -> Vec<StructInfo> {
    let mut out = Vec::new();
    collect_structs_rec(lexed, items, &mut out);
    for exact in [true, false] {
        for fld in out.iter_mut().flat_map(|s| s.fields.iter_mut()) {
            if fld.guarded_by.is_some() {
                continue;
            }
            // Only the first matching note attaches; a second one stays
            // unused and is reported as an orphan.
            let line = fld.line;
            lexed.attach(NoteKind::GuardedBy, |n| {
                let on = if exact {
                    n.covers[0] == line
                } else {
                    n.covers.contains(&line)
                };
                let take = on && !n.used && fld.guarded_by.is_none();
                if take {
                    fld.guarded_by = Some(n.arg.clone());
                }
                take
            });
        }
    }
    for s in out.iter_mut() {
        let (start, end) = (s.start_line, s.end_line);
        let hit = |n: &Note| !n.used && ((start..=end).contains(&n.line) || start == n.covers[1]);
        s.has_note = lexed.attach(NoteKind::SendSync, hit);
    }
    out
}

fn collect_structs_rec(lexed: &Lexed, items: &[Item], out: &mut Vec<StructInfo>) {
    for item in items {
        if item.kind == ItemKind::Struct
            && !lexed.test_mask.get(item.first).copied().unwrap_or(false)
        {
            if let Some(s) = scan_struct(&lexed.tokens, item) {
                out.push(s);
            }
        }
        collect_structs_rec(lexed, &item.children, out);
    }
}

/// Token-scan one struct item for its named fields. Returns `None` for
/// tuple and unit structs.
fn scan_struct(tokens: &[Token], item: &Item) -> Option<StructInfo> {
    // Find the body delimiter after the struct name: `{` means named
    // fields; `(` or `;` means tuple/unit (skipped). Scan starts past
    // the `struct` keyword (attributes like `#[derive(...)]` carry
    // parens) and ignores generic brackets, which may nest parens in
    // bounds.
    let last = item.last.min(tokens.len() - 1);
    let mut k = item.first;
    while k <= last && !tokens[k].is_ident("struct") {
        k += 1;
    }
    let mut open = None;
    let mut angle = 0usize;
    let body_scan = tokens
        .iter()
        .enumerate()
        .take(last + 1)
        .skip((k + 2).min(last + 1));
    for (j, t) in body_scan {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = angle.saturating_sub(1);
        } else if angle == 0 {
            if t.is_punct('{') {
                open = Some(j);
                break;
            }
            if t.is_punct('(') || t.is_punct(';') {
                return None;
            }
        }
    }
    let open = open?;
    let close = item.last; // parser ends struct items at the matching `}`
    let mut fields = Vec::new();
    for (seg, end) in split_commas(tokens, open, close, true) {
        // Within [seg, end): skip attributes and visibility, then
        // expect `name : type...`.
        let mut p = seg;
        while p < end {
            if tokens[p].is_punct('#') && tokens.get(p + 1).is_some_and(|t| t.is_punct('[')) {
                p = close_of(&tokens[..end], p + 1) + 1;
            } else if tokens[p].is_ident("pub") {
                p += 1;
                if tokens.get(p).is_some_and(|t| t.is_punct('(')) {
                    p = close_of(&tokens[..end], p) + 1;
                }
            } else {
                break;
            }
        }
        if p < end
            && tokens[p].kind == Kind::Ident
            && tokens.get(p + 1).is_some_and(|t| t.is_punct(':'))
        {
            let ty = &tokens[p + 2..end];
            fields.push(FieldInfo {
                name: tokens[p].text.clone(),
                line: tokens[p].line,
                col: tokens[p].col,
                type_idents: ty
                    .iter()
                    .filter(|t| t.kind == Kind::Ident)
                    .map(|t| t.text.clone())
                    .collect(),
                has_raw_ptr: ty
                    .iter()
                    .zip(ty.iter().skip(1))
                    .any(|(a, b)| a.is_punct('*') && (b.is_ident("const") || b.is_ident("mut"))),
                guarded_by: None,
            });
        }
    }
    Some(StructInfo {
        name: item.name.clone(),
        line: item.line,
        col: item.col,
        start_line: tokens[item.first].line,
        end_line: tokens[item.last.min(tokens.len() - 1)].line,
        fields,
        has_note: false,
    })
}

/// Every acquisition class observed in the crate's fns, test code
/// included (`self.meta.lock()` contributes `meta`) — the vocabulary
/// valid guarded-by names come from, alongside lock-typed field names.
pub fn acquisition_classes(files: &[ParsedFile]) -> BTreeSet<String> {
    let fns = files.iter().flat_map(|f| &f.fns);
    fns.flat_map(|fm| fm.locks.iter().cloned()).collect()
}

/// Types that protect themselves: a field of one of these needs no
/// guarded-by note.
fn self_protecting(type_idents: &[String], noted: &BTreeSet<String>) -> bool {
    type_idents.iter().any(|t| {
        t.starts_with("Atomic")
            || t == "Mutex"
            || t == "RwLock"
            || t == "Condvar"
            || noted.contains(t)
    })
}

/// Validate guarded-by annotations crate-wide and build the field→lock
/// maps: L7/bad-annotation for unknown lock names and orphaned notes.
pub fn l7_annotations(
    files: &mut [ParsedFile],
    classes: &BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
) -> FieldMaps {
    // Lock-typed field names anywhere in the crate are also valid
    // guarded-by targets (a lock may be declared but only ever
    // acquired through a helper the class scan attributes elsewhere).
    let mut lock_fields: BTreeSet<String> = BTreeSet::new();
    for f in files.iter() {
        for s in &f.structs {
            for fld in &s.fields {
                if fld
                    .type_idents
                    .iter()
                    .any(|t| t == "Mutex" || t == "RwLock" || t == "Condvar")
                {
                    lock_fields.insert(fld.name.clone());
                }
            }
        }
    }

    let mut maps = FieldMaps::default();
    for f in files.iter_mut() {
        for s in &f.structs {
            for fld in &s.fields {
                let Some(lock) = &fld.guarded_by else {
                    continue;
                };
                let known = lock == "owner" || classes.contains(lock) || lock_fields.contains(lock);
                if !known {
                    let message = format!(
                        "guarded-by names unknown lock `{lock}`; expected an acquisition \
                         class seen in this crate, a Mutex/RwLock field name, or `owner`"
                    );
                    let pos = (fld.line, fld.col);
                    f.lexed
                        .flag(diags, &f.path, pos, "L7/bad-annotation", message);
                    continue;
                }
                maps.by_struct
                    .entry(s.name.clone())
                    .or_default()
                    .insert(fld.name.clone(), lock.clone());
            }
        }
    }
    maps
}

/// L7/unprotected-shared: every field of a send-sync-noted struct must
/// be guarded, atomic/lock-typed, or itself a noted struct.
pub fn l7_unprotected(f: &mut ParsedFile, noted: &BTreeSet<String>, diags: &mut Vec<Diagnostic>) {
    for s in f.structs.iter().filter(|s| s.has_note) {
        for fld in &s.fields {
            if fld.guarded_by.is_some() || self_protecting(&fld.type_idents, noted) {
                continue;
            }
            let message = format!(
                "`{}` crosses thread boundaries (send-sync note) but field `{}` is \
                 neither guarded-by-annotated nor of a self-protecting type; annotate the \
                 lock that guards it (or `owner` if only written through `&mut self`)",
                s.name, fld.name
            );
            let pos = (fld.line, fld.col);
            f.lexed
                .flag(diags, &f.path, pos, "L7/unprotected-shared", message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn structs_of(src: &str) -> Vec<StructInfo> {
        let mut lexed = lex(src);
        let items = crate::parser::parse(&lexed.tokens);
        collect_structs(&mut lexed, &items)
    }

    #[test]
    fn named_fields_are_collected_with_types() {
        let s = structs_of(
            "pub struct PageFile {\n    pub(crate) shards: Vec<Mutex<LruCache>>,\n    page_size: usize,\n}\n",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "PageFile");
        assert_eq!(s[0].fields.len(), 2);
        assert_eq!(s[0].fields[0].name, "shards");
        assert!(s[0].fields[0].type_idents.contains(&"Mutex".to_string()));
        assert_eq!(s[0].fields[1].name, "page_size");
    }

    #[test]
    fn tuple_and_unit_structs_are_skipped() {
        assert!(structs_of("pub struct Wrapper(Mutex<u32>);\npub struct Marker;\n").is_empty());
    }

    #[test]
    fn guarded_note_attaches_above_and_trailing() {
        let s = structs_of(
            "struct S {\n    // srlint: guarded-by(meta)\n    a: u64,\n    b: u64, // srlint: guarded-by(wal)\n    c: u64,\n}\n",
        );
        assert_eq!(s[0].fields[0].guarded_by.as_deref(), Some("meta"));
        assert_eq!(s[0].fields[1].guarded_by.as_deref(), Some("wal"));
        assert_eq!(s[0].fields[2].guarded_by, None);
    }

    #[test]
    fn generic_field_types_do_not_split_fields() {
        let s = structs_of("struct S {\n    m: HashMap<PageId, (u64, u32)>,\n    n: u32,\n}\n");
        assert_eq!(s[0].fields.len(), 2);
        assert_eq!(s[0].fields[1].name, "n");
    }

    #[test]
    fn raw_pointer_fields_are_detected() {
        let s = structs_of("struct S {\n    p: *mut u8,\n    q: u32,\n}\n");
        assert!(s[0].fields[0].has_raw_ptr);
        assert!(!s[0].fields[1].has_raw_ptr);
    }
}
