//! A structural recursive-descent parser over the lexer's token stream.
//!
//! This is not a Rust grammar: it recovers exactly the structure the
//! scope-aware passes need — the item tree (functions, impls, traits,
//! mods, type aliases) with attributes, plus a brace-matched block tree whose statements are
//! segmented at `;` / `,` boundaries. Everything else (patterns,
//! expressions, generics) stays a flat token range that the passes
//! inspect with local patterns. The parser never fails: unrecognized
//! constructs are skipped token by token, so a partially parsed file
//! still yields every item the passes can anchor to.

use crate::lexer::{close_of, Kind, Token};

/// Item classes the passes distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Struct,
    Enum,
    Impl,
    Trait,
    Mod,
    TypeAlias,
    Const,
    Static,
    Use,
    MacroDef,
}

/// One `#[...]` (or `#![...]`) attribute ahead of an item.
#[derive(Clone, Debug)]
pub struct Attr {
    /// Identifier tokens inside the brackets, in order.
    pub idents: Vec<String>,
    /// String-literal texts inside the brackets (quotes included).
    pub strs: Vec<String>,
    pub line: u32,
}

impl Attr {
    /// Does any string literal in this attribute contain `needle`?
    pub fn str_contains(&self, needle: &str) -> bool {
        self.strs.iter().any(|s| s.contains(needle))
    }
}

/// A brace-delimited block with its statements segmented.
#[derive(Clone, Debug)]
pub struct Block {
    /// Token index of the `{`.
    pub open: usize,
    /// Token index of the matching `}` (or one past the last token).
    pub close: usize,
    pub stmts: Vec<Stmt>,
}

/// One statement: a token range `[first, last]` (inclusive) with any
/// nested blocks parsed out. The range includes the nested blocks'
/// tokens; walkers that want "head" tokens skip the block ranges.
#[derive(Clone, Debug)]
pub struct Stmt {
    pub first: usize,
    pub last: usize,
    /// Bound name for `let <name> = ...` / `let mut <name> = ...`.
    pub let_name: Option<String>,
    /// Nested `{ ... }` blocks inside this statement, in source order.
    pub blocks: Vec<Block>,
}

/// One piece of a statement in source order: a head token (outside
/// every nested block), or a whole nested block.
pub enum Part<'a> {
    Tok(usize),
    Block(&'a Block),
}

impl Block {
    /// The statements, each with whether it is the tail expression of a
    /// fn body (`fn_body`): the last statement, not ended by `;`.
    pub fn stmts_tail(&self, tokens: &[Token], fn_body: bool) -> Vec<(&Stmt, bool)> {
        let n = self.stmts.len();
        let tail = |si, s: &Stmt| {
            fn_body && si + 1 == n && !tokens.get(s.last).is_some_and(|t| t.is_punct(';'))
        };
        (self.stmts.iter().enumerate())
            .map(|(si, s)| (s, tail(si, s)))
            .collect()
    }
}

impl Stmt {
    /// The statement's head tokens and nested blocks, in source order.
    pub fn parts(&self) -> impl Iterator<Item = Part<'_>> + '_ {
        let (mut k, mut bi) = (self.first, 0);
        std::iter::from_fn(move || {
            if k > self.last {
                return None;
            }
            if let Some(b) = self.blocks.get(bi).filter(|b| b.open == k) {
                k = b.close + 1;
                bi += 1;
                return Some(Part::Block(b));
            }
            k += 1;
            Some(Part::Tok(k - 1))
        })
    }

    /// The head tokens: [`Stmt::parts`] without the nested blocks.
    pub fn head(&self) -> Vec<usize> {
        self.parts()
            .filter_map(|p| match p {
                Part::Tok(k) => Some(k),
                Part::Block(_) => None,
            })
            .collect()
    }
}

/// One parsed item.
#[derive(Clone, Debug)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name; empty for impls.
    pub name: String,
    pub attrs: Vec<Attr>,
    /// Token index of the first token (attributes included).
    pub first: usize,
    /// Token index of the last token (`}` or `;`).
    pub last: usize,
    /// Position of the name (or the introducing keyword for impls).
    pub line: u32,
    pub col: u32,
    /// Function body (fns only).
    pub body: Option<Block>,
    /// Nested items (impl/trait/mod bodies).
    pub children: Vec<Item>,
    /// Identifier tokens of the implemented type: `Ty` of
    /// `impl Trait for Ty`, or the sole path of an inherent impl.
    pub impl_ty: Vec<String>,
}

impl Item {
    /// First source line covered by the item (attributes included).
    pub fn start_line(&self, tokens: &[Token]) -> u32 {
        tokens.get(self.first).map_or(self.line, |t| t.line)
    }

    /// Last source line covered by the item.
    pub fn end_line(&self, tokens: &[Token]) -> u32 {
        tokens.get(self.last).map_or(self.line, |t| t.line)
    }

    /// Does any attribute carry the given marker identifier
    /// (e.g. `deprecated`)?
    pub fn has_attr_ident(&self, ident: &str) -> bool {
        self.attrs
            .iter()
            .any(|a| a.idents.iter().any(|i| i == ident))
    }

    /// Does any `#[doc = "..."]` attribute contain the marker text?
    pub fn has_doc_marker(&self, marker: &str) -> bool {
        self.attrs
            .iter()
            .any(|a| a.idents.iter().any(|i| i == "doc") && a.str_contains(marker))
    }
}

/// Keywords that introduce items (after visibility/qualifiers).
const ITEM_KWS: &[(&str, ItemKind)] = &[
    ("fn", ItemKind::Fn),
    ("struct", ItemKind::Struct),
    ("enum", ItemKind::Enum),
    ("impl", ItemKind::Impl),
    ("trait", ItemKind::Trait),
    ("mod", ItemKind::Mod),
    ("type", ItemKind::TypeAlias),
    ("const", ItemKind::Const),
    ("static", ItemKind::Static),
    ("use", ItemKind::Use),
    ("macro_rules", ItemKind::MacroDef),
];

/// Qualifier keywords that may precede the item keyword.
const QUALIFIERS: &[&str] = &["pub", "unsafe", "async", "extern", "default", "crate"];

/// Parse a whole file's token stream into an item tree.
pub fn parse(tokens: &[Token]) -> Vec<Item> {
    parse_items(tokens, 0, tokens.len())
}

/// Parse the items in `[start, end)`.
fn parse_items(tokens: &[Token], start: usize, end: usize) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = start;
    while i < end {
        // Collect leading attributes (inner `#![...]` ones included —
        // they anchor file-level context but attach to nothing).
        let item_first = i;
        let mut attrs = Vec::new();
        while i < end && tokens[i].is_punct('#') {
            let inner = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
            let open = if inner { i + 2 } else { i + 1 };
            if !tokens.get(open).is_some_and(|t| t.is_punct('[')) {
                break;
            }
            let close = close_of(&tokens[..end], open);
            attrs.push(read_attr(tokens, open + 1, close));
            i = close + 1;
        }
        if i >= end {
            break;
        }

        // Visibility and qualifiers.
        let mut q = i;
        while q < end && tokens[q].kind == Kind::Ident {
            let t = tokens[q].text.as_str();
            if t == "pub" {
                q += 1;
                // `pub(crate)` / `pub(super)` etc.
                if q < end && tokens[q].is_punct('(') {
                    q = close_of(&tokens[..end], q) + 1;
                }
            } else if QUALIFIERS.contains(&t) {
                q += 1;
                // `extern "C"`.
                if t == "extern" && q < end && tokens[q].kind == Kind::Lit {
                    q += 1;
                }
            } else {
                break;
            }
        }

        // The item keyword. `const` doubles as a qualifier (`const fn`),
        // so prefer a following `fn` when present.
        let Some(kw_tok) = tokens.get(q).filter(|_| q < end) else {
            break;
        };
        let mut kind = None;
        if kw_tok.kind == Kind::Ident {
            if kw_tok.text == "const" && tokens.get(q + 1).is_some_and(|t| t.is_ident("fn")) {
                q += 1;
                kind = Some(ItemKind::Fn);
            } else {
                kind = ITEM_KWS
                    .iter()
                    .find(|(k, _)| *k == kw_tok.text)
                    .map(|&(_, k)| k);
            }
        }
        let Some(kind) = kind else {
            // Not an item start (stray token or unsupported construct):
            // skip one token and resynchronize.
            i = i.max(q) + 1;
            continue;
        };
        let kw_idx = q;
        i = q + 1;

        // Name (impls have none).
        let mut name = String::new();
        let (mut line, mut col) = (tokens[kw_idx].line, tokens[kw_idx].col);
        if kind != ItemKind::Impl {
            if let Some(t) = tokens.get(i).filter(|t| t.kind == Kind::Ident) {
                name = t.text.clone();
                line = t.line;
                col = t.col;
                i += 1;
            }
        }

        // Scan the signature to the body `{` or the terminating `;`,
        // collecting what the passes need along the way.
        let mut impl_trait = Vec::new();
        let mut impl_ty = Vec::new();
        let mut seen_for = false;
        let mut sig_end = end; // index of `{` or `;`
        let mut has_body = false;
        let mut where_seen = false;
        let mut j = i;
        while j < end {
            let t = &tokens[j];
            if t.is_punct('{') {
                sig_end = j;
                has_body = true;
                break;
            }
            if t.is_punct(';') {
                sig_end = j;
                break;
            }
            if t.is_punct('(') || t.is_punct('[') {
                // Skip parameter lists / array types wholesale so `;`
                // and `{` inside them never terminate the signature.
                j = close_of(&tokens[..end], j) + 1;
                continue;
            }
            if kind == ItemKind::Impl && t.kind == Kind::Ident && !where_seen {
                if t.text == "for" {
                    seen_for = true;
                } else if t.text != "where" {
                    if seen_for {
                        impl_ty.push(t.text.clone());
                    } else {
                        impl_trait.push(t.text.clone());
                    }
                }
            }
            where_seen |= t.is_ident("where");
            j += 1;
        }
        if kind == ItemKind::Impl && !seen_for {
            // Inherent impl: the collected path names the type.
            impl_ty = std::mem::take(&mut impl_trait);
        }

        // The body (or none).
        let mut body = None;
        let mut children = Vec::new();
        let last;
        if has_body {
            let close = close_of(&tokens[..end], sig_end);
            match kind {
                ItemKind::Fn => body = Some(parse_block(tokens, sig_end, end)),
                ItemKind::Impl | ItemKind::Trait | ItemKind::Mod => {
                    children = parse_items(tokens, sig_end + 1, close.min(end));
                }
                _ => {}
            }
            last = close.min(end.saturating_sub(1));
            i = close + 1;
        } else {
            last = sig_end.min(end.saturating_sub(1));
            i = sig_end + 1;
        }

        items.push(Item {
            kind,
            name,
            attrs,
            first: item_first,
            last,
            line,
            col,
            body,
            children,
            impl_ty,
        });
    }
    items
}

/// Read the contents of an attribute between `[` and `]`.
fn read_attr(tokens: &[Token], start: usize, end: usize) -> Attr {
    let mut idents = Vec::new();
    let mut strs = Vec::new();
    let line = tokens.get(start.saturating_sub(1)).map_or(0, |t| t.line);
    for t in tokens.iter().take(end.min(tokens.len())).skip(start) {
        match t.kind {
            Kind::Ident => idents.push(t.text.clone()),
            Kind::Lit => strs.push(t.text.clone()),
            _ => {}
        }
    }
    Attr { idents, strs, line }
}

/// Parse the block opening at `open` (a `{`), segmenting statements at
/// `;` and `,` at bracket depth zero and treating every nested brace
/// pair as a child block.
fn parse_block(tokens: &[Token], open: usize, end: usize) -> Block {
    let close = close_of(&tokens[..end], open);
    let mut stmts = Vec::new();
    let mut j = open + 1;
    while j < close {
        let first = j;
        let mut blocks = Vec::new();
        let mut depth = 0usize; // ( and [ nesting
        let mut last = first;
        let mut k = j;
        while k < close {
            let t = &tokens[k];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct('{') {
                let bclose = close_of(&tokens[..close], k);
                blocks.push(parse_block(tokens, k, close));
                // A control-flow statement ends at its block's `}`
                // unless an `else` (or method/`?` chain) continues it.
                let lead = tokens[first].text.as_str();
                let ends_stmt = depth == 0
                    && matches!(lead, "if" | "while" | "for" | "loop" | "match" | "unsafe")
                    && !tokens
                        .get(bclose + 1)
                        .is_some_and(|n| n.is_ident("else") || n.is_punct('.') || n.is_punct('?'));
                k = bclose;
                last = k;
                if ends_stmt {
                    break;
                }
                k += 1;
                continue;
            } else if depth == 0 && (t.is_punct(';') || t.is_punct(',')) {
                last = k;
                break;
            }
            last = k;
            k += 1;
        }
        // An unclosed nested block ends at this block's own `close`,
        // which may be one past the last token; a statement never
        // includes its block's closing token.
        let last = last.min(close - 1);
        let let_name = stmt_let_name(tokens, first, last);
        stmts.push(Stmt {
            first,
            last,
            let_name,
            blocks,
        });
        j = last.max(first) + 1;
    }
    Block { open, close, stmts }
}

/// Extract the bound name of a `let` statement (`let x`, `let mut x`,
/// `let Some(x)` and other non-trivial patterns yield `None`).
fn stmt_let_name(tokens: &[Token], first: usize, last: usize) -> Option<String> {
    if !tokens.get(first)?.is_ident("let") {
        return None;
    }
    let mut j = first + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = tokens.get(j).filter(|t| t.kind == Kind::Ident)?;
    // Require a plain binding: the next token must be `=` or `:` —
    // `let Some(g)` / tuple patterns are not guard-shaped.
    let next = tokens.get(j + 1)?;
    if j <= last && (next.is_punct('=') || next.is_punct(':')) {
        Some(name.text.clone())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> (Vec<Item>, Vec<Token>) {
        let l = lex(src);
        let items = parse(&l.tokens);
        (items, l.tokens)
    }

    #[test]
    fn items_and_visibility() {
        let (items, _) = parse_src(
            "pub fn f() -> u32 { 1 }\nfn g() {}\npub(crate) struct S;\npub enum E { A }\n",
        );
        let kinds: Vec<_> = items.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (ItemKind::Fn, "f"),
                (ItemKind::Fn, "g"),
                (ItemKind::Struct, "S"),
                (ItemKind::Enum, "E"),
            ]
        );
    }

    #[test]
    fn impl_blocks_nest_methods() {
        let (items, _) = parse_src(
            "impl Foo {\n    pub fn a(&self) {}\n    fn b(&self) -> Result<u32, MyError> { Ok(1) }\n}\n",
        );
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].impl_ty, vec!["Foo"]);
        assert_eq!(items[0].children.len(), 2);
        assert_eq!(items[0].children[1].name, "b");
    }

    #[test]
    fn from_impl_paths() {
        let (items, _) = parse_src("impl From<PagerError> for TreeError { fn from(e: PagerError) -> Self { Self::Pager(e) } }\n");
        assert_eq!(items[0].impl_ty, vec!["TreeError"]);
    }

    #[test]
    fn statements_segment_and_let_binds() {
        let (items, toks) = parse_src(
            "fn f() {\n    let g = m.lock();\n    g.push(1);\n    if x { a(); } else { b(); }\n    drop(g);\n}\n",
        );
        let body = items[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 4);
        assert_eq!(body.stmts[0].let_name.as_deref(), Some("g"));
        assert!(body.stmts[1].let_name.is_none());
        assert_eq!(body.stmts[2].blocks.len(), 2, "if and else blocks");
        assert!(toks[body.stmts[3].first].is_ident("drop"));
    }

    #[test]
    fn match_arms_segment_at_commas() {
        let (items, _) = parse_src("fn f() { match x { A => a(), B => { b(); } } }\n");
        let body = items[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 1);
        let m = &body.stmts[0].blocks[0];
        assert!(m.stmts.len() >= 2, "arms split into statements");
    }

    #[test]
    fn doc_marker_attr_is_visible() {
        let (items, _) = parse_src("#[doc = \"srlint: io\"]\nfn read_page() {}\n");
        assert!(items[0].has_doc_marker("srlint: io"));
        assert!(!items[0].has_doc_marker("srlint: pure"));
    }

    #[test]
    fn trait_methods_without_bodies() {
        let (items, _) = parse_src(
            "pub trait Store {\n    #[doc = \"srlint: io\"]\n    fn read_page(&self) -> Result<(), IoError>;\n    fn page_size(&self) -> usize;\n}\n",
        );
        assert_eq!(items[0].kind, ItemKind::Trait);
        assert_eq!(items[0].children.len(), 2);
        assert!(items[0].children[0].has_doc_marker("srlint: io"));
        assert!(items[0].children[0].body.is_none());
    }
}
