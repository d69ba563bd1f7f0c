//! L5 — atomic-ordering audit.
//!
//! Every `Ordering::<variant>` argument in library code must be
//! justified by a `// srlint: ordering -- <reason>` note attached to
//! the same item. A note attaches to the innermost item containing its
//! line, and covers everything nested inside that item — so a note
//! just inside an `impl` justifies the whole impl, while a trailing
//! note on a statement justifies only that function. On the accounting
//! files (the counters behind the paper's misses == physical-reads
//! exactness claim), `Relaxed` additionally requires the note's reason
//! to spell out the invariant (the reason must contain the word
//! `invariant`). Notes that justify nothing are themselves flagged
//! (L5/ordering-unused, reported by [`crate::rules::unused_notes`]).
//!
//! Only the five atomic variants are matched, so `std::cmp::Ordering`
//! paths (`Ordering::Less` and friends, heavy in the query crates)
//! never trip the rule.

use crate::lexer::{Kind, Lexed, NoteKind};
use crate::parser::Item;
use crate::Diagnostic;

/// Atomic variants of `std::sync::atomic::Ordering`.
const ATOMIC_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Line span of an item (attributes included).
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn contains(&self, line: u32) -> bool {
        self.start <= line && line <= self.end
    }

    fn len(&self) -> u32 {
        self.end.saturating_sub(self.start)
    }
}

/// Innermost item span containing `line`, if any.
fn innermost(spans: &[Span], line: u32) -> Option<Span> {
    spans
        .iter()
        .filter(|s| s.contains(line))
        .min_by_key(|s| s.len())
        .copied()
}

fn collect_spans(items: &[Item], lexed: &Lexed, out: &mut Vec<Span>) {
    for item in items {
        out.push(Span {
            start: item.start_line(&lexed.tokens),
            end: item.end_line(&lexed.tokens),
        });
        collect_spans(&item.children, lexed, out);
    }
}

/// Run the L5 pass over one parsed file. `accounting` marks files
/// feeding the misses == physical-reads bookkeeping.
pub fn l5_ordering(
    path: &str,
    lexed: &mut Lexed,
    items: &[Item],
    accounting: bool,
    diags: &mut Vec<Diagnostic>,
) {
    let mut spans = Vec::new();
    collect_spans(items, lexed, &mut spans);

    // Precompute each note's coverage span (whole file when the note
    // sits outside every item).
    let note_spans: Vec<(usize, Option<Span>)> = (lexed.notes.iter().enumerate())
        .filter(|(_, n)| n.kind == NoteKind::Ordering)
        .map(|(i, n)| (i, innermost(&spans, n.line)))
        .collect();

    // Find `Ordering::<atomic variant>` uses outside test code.
    let mut sites: Vec<(u32, u32, String)> = Vec::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind != Kind::Ident || !ATOMIC_VARIANTS.contains(&t.text.as_str()) {
            continue;
        }
        let path_ok = i >= 3
            && lexed.tokens[i - 1].is_punct(':')
            && lexed.tokens[i - 2].is_punct(':')
            && lexed.tokens[i - 3].is_ident("Ordering");
        if !path_ok || lexed.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        sites.push((t.line, t.col, t.text.clone()));
    }

    for (line, col, variant) in sites {
        // A note covers the site when the note's own item (or the whole
        // file, for top-level notes) contains the site's line.
        let mut justified = false;
        let mut invariant_note = false;
        for &(i, span) in &note_spans {
            if span.is_none_or(|s| s.contains(line)) {
                let n = &mut lexed.notes[i];
                n.used = true;
                justified = true;
                invariant_note |= n.reason.contains("invariant");
            }
        }
        if !justified {
            let message = format!(
                "`Ordering::{variant}` without a `// srlint: ordering -- <reason>` \
                 note on the enclosing item"
            );
            lexed.flag(diags, path, (line, col), "L5/ordering", message);
        } else if accounting && variant == "Relaxed" && !invariant_note {
            let message = "`Ordering::Relaxed` on accounting state needs an ordering note \
                           stating the invariant it preserves (reason must name the \
                           `invariant`)";
            lexed.flag(
                diags,
                path,
                (line, col),
                "L5/ordering-relaxed",
                message.to_string(),
            );
        }
    }
}
