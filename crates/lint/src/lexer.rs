//! A hand-rolled Rust lexer, just deep enough for the srlint rules.
//!
//! The lexer does not aim to be a full Rust grammar: it produces a flat
//! token stream (identifiers, numbers, literals, single-character
//! punctuation) with exact line/column positions, strips comments so
//! rule passes never match inside them (string literals keep their
//! source text so attribute markers like `#[doc = "srlint: io"]` stay
//! visible, but they lex as a single `Lit` token), extracts every
//! `// srlint:` directive into one [`Note`] list, and computes a
//! per-token "test code" mask by matching `#[cfg(test)]` / `#[test]` /
//! `#[bench]` attributes to the item that follows them. It also holds
//! the token toolkit every pass shares: [`close_of`], [`open_of`] and
//! [`split_commas`].

use crate::Diagnostic;

/// Token classes the rule passes distinguish.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (possibly including a fractional part).
    Num,
    /// String, raw-string, byte-string, or char literal (content dropped).
    Lit,
    /// Lifetime such as `'a`.
    Lifetime,
    /// One punctuation character.
    Punct(char),
}

/// One token with its source position (1-based line and column).
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: Kind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Token {
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct(c)
    }

    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }
}

/// The delimiter pair a token opens or closes.
fn pair(t: &Token) -> Option<(char, char)> {
    match t.kind {
        Kind::Punct('(' | ')') => Some(('(', ')')),
        Kind::Punct('[' | ']') => Some(('[', ']')),
        Kind::Punct('{' | '}') => Some(('{', '}')),
        Kind::Punct('<' | '>') => Some(('<', '>')),
        _ => None,
    }
}

/// Index of the delimiter closing the `(`, `[`, `{` or `<` at `open`,
/// counting only delimiters of the same kind (a `>` after `-` closes
/// nothing), or `tokens.len()` when it is unbalanced. Pass a shorter
/// slice to stop the search early.
pub fn close_of(tokens: &[Token], open: usize) -> usize {
    let Some((o, c)) = tokens.get(open).and_then(pair) else {
        return tokens.len();
    };
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) && !(c == '>' && j > 0 && tokens[j - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len()
}

/// Index of the delimiter opening the one that closes at `close`,
/// walking backwards; `None` when it is unbalanced.
pub fn open_of(tokens: &[Token], close: usize) -> Option<usize> {
    let (o, c) = pair(tokens.get(close)?)?;
    let mut depth = 0usize;
    for j in (0..=close).rev() {
        if tokens[j].is_punct(c) {
            depth += 1;
        } else if tokens[j].is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// The non-empty comma-separated ranges `[start, end)` between the
/// delimiters at `open` and `close`, splitting only at nesting depth
/// zero. `angles` counts `<`/`>` as nesting (types), which call
/// arguments must not (comparisons).
pub fn split_commas(
    tokens: &[Token],
    open: usize,
    close: usize,
    angles: bool,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut seg = open + 1;
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().take(close).skip(open + 1) {
        match t.kind {
            Kind::Punct('(' | '[' | '{') => depth += 1,
            Kind::Punct('<') if angles => depth += 1,
            Kind::Punct(')' | ']' | '}') => depth = depth.saturating_sub(1),
            Kind::Punct('>') if angles => depth = depth.saturating_sub(1),
            Kind::Punct(',') if depth == 0 => {
                if k > seg {
                    out.push((seg, k));
                }
                seg = k + 1;
            }
            _ => {}
        }
    }
    if close > seg {
        out.push((seg, close));
    }
    out
}

/// The `// srlint:` directive kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoteKind {
    /// `allow(<rule>) -- <reason>`: an escape hatch.
    Allow,
    /// `ordering -- <reason>`: justifies the enclosing item's atomics (L5).
    Ordering,
    /// `lock-order(<a> < <b>) -- <reason>`: `a` is taken before `b` (L4).
    LockOrder,
    /// `untrusted-source -- <reason>`: a fn returning attacker bytes (L9).
    Untrusted,
    /// `validated(<expr>) -- <reason>`: a sanitizer hatch (L9).
    Validated,
    /// `hot`: a fn that must stay allocation-, lock- and I/O-free (L10).
    Hot,
}

/// Each directive: keyword, kind, whether it takes a `(<arg>)`, and
/// whether it needs a ` -- <reason>` tail (the others take no tail).
const DIRECTIVES: &[(&str, NoteKind, bool, bool)] = &[
    ("allow", NoteKind::Allow, true, true),
    ("lock-order", NoteKind::LockOrder, true, true),
    ("validated", NoteKind::Validated, true, true),
    ("untrusted-source", NoteKind::Untrusted, false, true),
    ("ordering", NoteKind::Ordering, false, true),
    ("hot", NoteKind::Hot, false, false),
];

/// One `// srlint:` directive. Every kind covers its own line (trailing
/// comment) and the line of the next token after it (preceding
/// comment); the passes attach it to an item or a diagnostic there.
#[derive(Clone, Debug)]
pub struct Note {
    pub kind: NoteKind,
    /// The parenthesized argument: the rule tail, `earlier<later`, or
    /// the validated expression; empty for other kinds.
    pub arg: String,
    pub reason: String,
    /// Lines the note covers: its own and the next code line.
    pub covers: [u32; 2],
    pub line: u32,
    pub col: u32,
    /// Set by the pass the note attaches to, or by a suppressed finding.
    pub used: bool,
}

/// A lexed source file.
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub notes: Vec<Note>,
    /// Positions of comments that start with `srlint:` but do not parse
    /// as a well-formed directive.
    pub malformed: Vec<(u32, u32)>,
    /// `true` for tokens inside `#[cfg(test)]` / `#[test]` items.
    pub test_mask: Vec<bool>,
}

impl Lexed {
    /// Consume a hatch for `rule` covering `line`, if one exists.
    pub fn allow(&mut self, rule: &str, line: u32) -> bool {
        let hatch = self
            .notes
            .iter_mut()
            .find(|n| n.kind == NoteKind::Allow && n.arg == rule && n.covers.contains(&line));
        hatch.map(|n| n.used = true).is_some()
    }

    /// Report a finding of `rule` (`L4/lock-io`) at `pos`, unless a
    /// hatch for the rule's tail (`lock-io`) covers its line.
    pub fn flag(
        &mut self,
        diags: &mut Vec<Diagnostic>,
        file: &str,
        (line, col): (u32, u32),
        rule: &str,
        message: String,
    ) {
        if !self.allow(rule.split_once('/').map_or(rule, |(_, tail)| tail), line) {
            diags.push(Diagnostic {
                file: file.to_string(),
                line,
                col,
                rule: rule.to_string(),
                message,
            });
        }
    }

    /// Attach notes of `kind` to an item: mark every note `hit` accepts
    /// as used, and say whether there was one.
    pub fn attach(&mut self, kind: NoteKind, mut hit: impl FnMut(&Note) -> bool) -> bool {
        let mut any = false;
        for n in self.notes.iter_mut().filter(|n| n.kind == kind) {
            if hit(n) {
                n.used = true;
                any = true;
            }
        }
        any
    }
}

/// Lex a whole source file.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut notes: Vec<Note> = Vec::new();
    let mut malformed = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    while i < chars.len() {
        let c = chars[i];
        let (tl, tc) = (line, col);
        let mut tok = |kind: Kind, text: String| {
            tokens.push(Token {
                kind,
                text,
                line: tl,
                col: tc,
            })
        };
        match c {
            '\n' => {
                line += 1;
                col = 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                col += 1;
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                // Line comment: scan to end of line, check for a directive.
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                // Past the `/` and `!` markers and blanks, only a
                // `srlint:` comment is collected and parsed.
                let mut k = start;
                while k < j && matches!(chars[k], '/' | '!') {
                    k += 1;
                }
                while k < j && chars[k].is_whitespace() {
                    k += 1;
                }
                if "srlint:".chars().eq(chars[k..j].iter().copied().take(7)) {
                    let rest: String = chars[k + 7..j].iter().collect();
                    match parse_directive(&rest, tl, tc) {
                        Some(note) => notes.push(note),
                        None => malformed.push((tl, tc)),
                    }
                }
                col += (j - i) as u32;
                i = j;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comment, possibly nested.
                let mut depth = 1;
                let mut j = i + 2;
                col += 2;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                        col += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                        col += 2;
                    } else {
                        if chars[j] == '\n' {
                            line += 1;
                            col = 1;
                        } else {
                            col += 1;
                        }
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                let j = scan_string(&chars, i, &mut line, &mut col);
                // Keep the literal's source text (quotes included) so
                // attribute markers such as `#[doc = "srlint: io"]`
                // remain visible to the passes; the token still lexes
                // as one `Lit`, so rules never match inside it.
                tok(Kind::Lit, chars[i..j.min(chars.len())].iter().collect());
                i = j;
            }
            '\'' => {
                // Char literal or lifetime.
                if chars.get(i + 1) == Some(&'\\')
                    || (chars.get(i + 2) == Some(&'\'')
                        && chars.get(i + 1).is_some_and(|&n| n != '\''))
                {
                    // '\x'-style escape or 'c'.
                    let mut j = i + 1;
                    if chars[j] == '\\' {
                        j += 2; // skip the escaped char
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1; // \u{...} etc.
                        }
                    } else {
                        j += 1;
                    }
                    j += 1; // closing quote
                    col += (j - i) as u32;
                    tok(Kind::Lit, String::new());
                    i = j;
                } else {
                    // Lifetime: consume ident chars after the quote.
                    let mut j = i + 1;
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    col += (j - i) as u32;
                    tok(Kind::Lifetime, String::new());
                    i = j;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                // Raw/byte string prefixes lex as literals, not idents.
                if let Some(j) = scan_prefixed_string(&chars, i, &mut line, &mut col) {
                    tok(Kind::Lit, chars[i..j.min(chars.len())].iter().collect());
                    i = j;
                    continue;
                }
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                col += (j - i) as u32;
                tok(Kind::Ident, chars[i..j].iter().collect());
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < chars.len() {
                    let d = chars[j];
                    if d.is_alphanumeric() || d == '_' {
                        j += 1;
                    } else if d == '.'
                        && chars.get(j + 1).is_some_and(|n| n.is_ascii_digit())
                        && !chars[i..j].contains(&'.')
                    {
                        // One fractional point; leaves `0..n` as three tokens.
                        j += 1;
                    } else {
                        break;
                    }
                }
                col += (j - i) as u32;
                tok(Kind::Num, chars[i..j].iter().collect());
                i = j;
            }
            c => {
                col += 1;
                tok(Kind::Punct(c), String::new());
                i += 1;
            }
        }
    }

    // A note also covers the line of the first token after it.
    for n in &mut notes {
        let next = tokens.partition_point(|t| (t.line, t.col) < (n.line, n.col));
        n.covers[1] = tokens.get(next).map_or(n.line, |t| t.line);
    }
    let test_mask = test_mask(&tokens);
    Lexed {
        tokens,
        notes,
        malformed,
        test_mask,
    }
}

/// Parse the tail of a `// srlint:` comment found at `line`/`col`
/// against [`DIRECTIVES`]; `None` when it is malformed.
fn parse_directive(rest: &str, line: u32, col: u32) -> Option<Note> {
    let rest = rest.trim();
    let &(kw, kind, takes_arg, reasoned) = DIRECTIVES.iter().find(|d| rest.starts_with(d.0))?;
    let mut tail = rest.get(kw.len()..)?;
    let mut arg = String::new();
    if takes_arg {
        // The argument may itself contain call parens
        // (`validated(buf.len())`), so find the balancing close.
        let inner = tail.strip_prefix('(')?;
        let mut depth = 1usize;
        let close = inner.find(|c| {
            depth = match c {
                '(' => depth + 1,
                ')' => depth - 1,
                _ => depth,
            };
            depth == 0
        })?;
        arg = note_arg(kind, inner.get(..close)?.trim())?;
        tail = inner.get(close + 1..)?;
    }
    let reason = if reasoned {
        let reason = tail.trim_start().strip_prefix("--")?.trim();
        (!reason.is_empty()).then(|| reason.to_string())?
    } else if tail.trim().is_empty() {
        // `hot` documents itself: no reason tail, and no trailing text
        // either (so `hotfix`-style prose never parses as a directive).
        String::new()
    } else {
        return None;
    };
    Some(Note {
        kind,
        arg,
        reason,
        covers: [line, line],
        line,
        col,
        used: false,
    })
}

/// Validate a directive argument: a rule tail (`[A-Za-z0-9-]+`), an
/// `a < b` pair of `[A-Za-z0-9_]+` lock names, or any non-empty
/// validated expression.
fn note_arg(kind: NoteKind, arg: &str) -> Option<String> {
    let name = |s: &str, extra: char| {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == extra)
    };
    let ok = match kind {
        NoteKind::Allow => name(arg, '-'),
        NoteKind::LockOrder => {
            let (a, b) = arg.split_once('<')?;
            let (a, b) = (a.trim(), b.trim());
            return (name(a, '_') && name(b, '_')).then(|| format!("{a}<{b}"));
        }
        _ => !arg.is_empty(),
    };
    ok.then(|| arg.to_string())
}

/// Scan a plain `"..."` string starting at `start`; returns the index
/// just past the closing quote and updates line/col.
fn scan_string(chars: &[char], start: usize, line: &mut u32, col: &mut u32) -> usize {
    let mut j = start + 1;
    *col += 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                // A `\`-newline continuation starts a new source line.
                if chars.get(j + 1) == Some(&'\n') {
                    *line += 1;
                    *col = 1;
                } else {
                    *col += 2;
                }
                j += 2;
            }
            '"' => {
                *col += 1;
                return j + 1;
            }
            '\n' => {
                *line += 1;
                *col = 1;
                j += 1;
            }
            _ => {
                *col += 1;
                j += 1;
            }
        }
    }
    j
}

/// Scan `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `b'x'` starting at an
/// alphabetic char; returns `None` when the chars do not begin such a
/// literal.
fn scan_prefixed_string(
    chars: &[char],
    start: usize,
    line: &mut u32,
    col: &mut u32,
) -> Option<usize> {
    let mut j = start;
    let mut raw = false;
    match chars[j] {
        'b' => {
            j += 1;
            if chars.get(j) == Some(&'\'') {
                // Byte char literal b'x' / b'\n'.
                let mut k = j + 1;
                if chars.get(k) == Some(&'\\') {
                    // Skip the backslash AND the escaped char, so
                    // b'\'' does not stop at the escaped quote.
                    k += 2;
                }
                while k < chars.len() && chars[k] != '\'' {
                    k += 1;
                }
                *col += (k + 1 - start) as u32;
                return Some(k + 1);
            }
            if chars.get(j) == Some(&'r') {
                raw = true;
                j += 1;
            }
        }
        'r' => {
            raw = true;
            j += 1;
        }
        _ => return None,
    }
    let mut hashes = 0usize;
    if raw {
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    if !raw {
        *col += (j - start) as u32;
        return Some(scan_string(chars, j, line, col));
    }
    // Raw string: scan to `"` followed by `hashes` hashes.
    *col += (j + 1 - start) as u32;
    let mut k = j + 1;
    while k < chars.len() {
        if chars[k] == '\n' {
            *line += 1;
            *col = 1;
            k += 1;
            continue;
        }
        *col += 1;
        if chars[k] == '"'
            && chars[k + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            *col += hashes as u32;
            return Some(k + 1 + hashes);
        }
        k += 1;
    }
    Some(k)
}

/// Mark every token belonging to a `#[cfg(test)]` / `#[test]` /
/// `#[bench]` item (the attribute, any stacked attributes, and the item
/// body up to its closing brace or semicolon).
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let n = tokens.len();
    let mut mask = vec![false; n];
    let mut i = 0;
    while i < n {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        let inner = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let open = if inner { i + 2 } else { i + 1 };
        if !tokens.get(open).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let close = close_of(tokens, open);
        if !attr_is_test(&tokens[open + 1..close.min(n)]) {
            i = close + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test code.
            for m in mask.iter_mut() {
                *m = true;
            }
            return mask;
        }
        // Skip any further stacked attributes, then the attached item.
        let mut j = close + 1;
        while j < n && tokens[j].is_punct('#') && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            j = close_of(tokens, j + 1) + 1;
        }
        let mut depth = 0usize;
        while j < n {
            if tokens[j].is_punct('{') {
                depth += 1;
            } else if tokens[j].is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            } else if tokens[j].is_punct(';') && depth == 0 {
                break;
            }
            j += 1;
        }
        for m in mask.iter_mut().take((j + 1).min(n)).skip(i) {
            *m = true;
        }
        i = j + 1;
    }
    mask
}

/// Does the attribute token slice mark test-only code? `test` or `bench`
/// must appear, and `not` must not (so `#[cfg(not(test))]` stays live).
fn attr_is_test(attr: &[Token]) -> bool {
    let mut saw_test = false;
    for t in attr {
        if t.kind == Kind::Ident {
            match t.text.as_str() {
                "test" | "bench" => saw_test = true,
                "not" => return false,
                _ => {}
            }
        }
    }
    saw_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_and_positions() {
        let l = lex("let x = foo.unwrap();\n");
        let unwrap = l.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!((unwrap.line, unwrap.col), (1, 13));
    }

    #[test]
    fn string_continuation_advances_the_line() {
        // A `\`-newline inside a string literal starts a new source line.
        let l = lex("const S: &str = \"a \\\n    b \\\n    c\";\nfn f() {\n    x.unwrap();\n}\n");
        let unwrap = l.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!((unwrap.line, unwrap.col), (5, 7));
        let f = l.tokens.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!((f.line, f.col), (4, 1));
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let l = lex("// unwrap()\nlet s = \"panic!()\"; /* todo!() */\n");
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("panic")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("todo")));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { r#\"unwrap()\"# ; x }");
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(l.tokens.iter().any(|t| t.kind == Kind::Lifetime));
    }

    /// Lexes `src` and checks it yields exactly one well-formed, unused note
    /// of `kind` on line 1 with the given argument, reason and covered lines.
    fn assert_note(src: &str, kind: NoteKind, arg: &str, reason: &str, covers: [u32; 2]) {
        let l = lex(src);
        assert!(l.malformed.is_empty(), "{src:?} parsed as malformed");
        assert_eq!(l.notes.len(), 1, "{src:?}");
        let n = &l.notes[0];
        assert_eq!(
            (n.kind, n.arg.as_str(), n.reason.as_str()),
            (kind, arg, reason)
        );
        assert_eq!((n.covers, n.line, n.used), (covers, 1, false), "{src:?}");
    }

    /// Lexes `src` and checks it is reported as malformed, not parsed as a note.
    fn assert_malformed(src: &str) {
        let l = lex(src);
        assert!(l.notes.is_empty(), "{src:?} parsed as a note");
        assert_eq!(l.malformed.len(), 1, "{src:?}");
    }

    #[test]
    fn hatch_parses_and_covers_next_code_line() {
        let src = "// srlint: allow(panic) -- tested invariant\nx.unwrap();\n";
        assert_note(src, NoteKind::Allow, "panic", "tested invariant", [1, 2]);
    }

    #[test]
    fn hatch_trailing_comment_covers_own_line() {
        let src = "assert!(n > 0); // srlint: allow(assert) -- caller contract\n";
        assert_note(src, NoteKind::Allow, "assert", "caller contract", [1, 1]);
    }

    #[test]
    fn hatch_without_reason_is_malformed() {
        assert_malformed("// srlint: allow(panic)\nx.unwrap();\n");
    }

    #[test]
    fn hatch_without_a_rule_name_is_malformed() {
        assert_malformed("// srlint: allow() -- reason\nx.unwrap();\n");
        assert_malformed("// srlint: allow(lock io) -- reason\nx.unwrap();\n");
        assert_malformed("// srlint: allow -- reason\nx.unwrap();\n");
    }

    #[test]
    fn ordering_directive_parses_with_reason() {
        let src = "// srlint: ordering -- monotonic counter, no sync needed\nx.load(Ordering::Relaxed);\n";
        let reason = "monotonic counter, no sync needed";
        assert_note(src, NoteKind::Ordering, "", reason, [1, 2]);
    }

    #[test]
    fn ordering_directive_without_reason_is_malformed() {
        assert_malformed("// srlint: ordering\nx.load(Ordering::Relaxed);\n");
    }

    #[test]
    fn lock_order_directive_parses() {
        let src = "// srlint: lock-order(meta < shard) -- meta decides, shard caches\n";
        let reason = "meta decides, shard caches";
        assert_note(src, NoteKind::LockOrder, "meta<shard", reason, [1, 1]);
    }

    #[test]
    fn lock_order_directive_without_reason_is_malformed() {
        assert_malformed("// srlint: lock-order(meta < shard)\n");
    }

    #[test]
    fn retired_directive_kinds_are_malformed() {
        // `guarded-by` and `send-sync` re-proved what the type system
        // already enforces; a leftover annotation must not pass silently.
        for retired in ["guarded-by(meta)", "send-sync -- lock-striped"] {
            assert_malformed(&format!("// srlint: {retired}\nstruct S {{}}\n"));
        }
    }

    #[test]
    fn untrusted_source_covers_next_code_line() {
        let src = "// srlint: untrusted-source -- reads attacker bytes\nfn u32(&mut self) {}\n";
        assert_note(src, NoteKind::Untrusted, "", "reads attacker bytes", [1, 2]);
    }

    #[test]
    fn untrusted_source_without_reason_is_malformed() {
        assert_malformed("// srlint: untrusted-source\nfn u32(&mut self) {}\n");
    }

    #[test]
    fn validated_parses_expr_with_nested_parens() {
        let src = "// srlint: validated(n.min(cap())) -- header check above\nlet m = n;\n";
        let reason = "header check above";
        assert_note(src, NoteKind::Validated, "n.min(cap())", reason, [1, 2]);
    }

    #[test]
    fn validated_without_reason_or_expr_is_malformed() {
        assert_malformed("// srlint: validated(n)\nlet m = n;\n");
        assert_malformed("// srlint: validated() -- reason\nlet m = n;\n");
    }

    #[test]
    fn hot_covers_next_code_line() {
        let src = "// srlint: hot\nfn dist2(a: &[f64]) -> f64 { 0.0 }\n";
        assert_note(src, NoteKind::Hot, "", "", [1, 2]);
    }

    #[test]
    fn hot_with_trailing_text_is_malformed() {
        assert_malformed("// srlint: hot path here\nfn f() {}\n");
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn live2() {}\n";
        let l = lex(src);
        for (t, &m) in l.tokens.iter().zip(&l.test_mask) {
            if t.is_ident("unwrap") {
                assert!(m, "unwrap inside cfg(test) must be masked");
            }
            if t.is_ident("live") || t.is_ident("live2") {
                assert!(!m, "{} wrongly masked", t.text);
            }
        }
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let l = lex(src);
        let unwrap = l.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!l.test_mask[unwrap]);
    }

    #[test]
    fn raw_string_with_hashes_spans_inner_quotes() {
        // The `"#` inside must not close the literal (two hashes open it).
        let l = lex("let s = r##\"quote \"# unwrap() here\"##; after();\n");
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        let after = l.tokens.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 1);
        let lit = l.tokens.iter().find(|t| t.kind == Kind::Lit).unwrap();
        assert!(lit.text.starts_with("r##\"") && lit.text.ends_with("\"##"));
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let l = lex("/* outer /* inner unwrap() */ still comment */ live();\n");
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("still")));
        let live = l.tokens.iter().find(|t| t.is_ident("live")).unwrap();
        assert_eq!((live.line, live.col), (1, 48));
    }

    #[test]
    fn char_literals_containing_quotes_do_not_open_strings() {
        // If '"' opened a string, the trailing unwrap() would be hidden.
        let l = lex("let q = '\"'; let e = '\\''; let b = b'\\''; x.unwrap();\n");
        let unwrap = l.tokens.iter().find(|t| t.is_ident("unwrap"));
        assert!(unwrap.is_some(), "unwrap() swallowed by a char literal");
        assert!(l.tokens.iter().filter(|t| t.kind == Kind::Lit).count() >= 3);
    }

    #[test]
    fn string_literals_keep_source_text() {
        let l = lex("#[doc = \"srlint: io\"]\nfn read_page() {}\n");
        let lit = l.tokens.iter().find(|t| t.kind == Kind::Lit).unwrap();
        assert_eq!(lit.text, "\"srlint: io\"");
    }

    #[test]
    fn delimiter_matchers_skip_nesting_and_arrows() {
        let l = lex("f(a, g(b, c), [d, e]) < T<Fn() -> U, V> >");
        let t = &l.tokens;
        let close = close_of(t, 1);
        assert!(t[close].is_punct(')'));
        assert_eq!(open_of(t, close), Some(1));
        let names = |r: &[(usize, usize)]| {
            r.iter()
                .map(|&(s, _)| t[s].text.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&split_commas(t, 1, close, false)), ["a", "g", ""]);
        let angle = t.iter().position(|x| x.is_punct('<')).unwrap() + 2;
        assert_eq!(close_of(t, angle), t.len() - 2, "`->` closes nothing");
        assert_eq!(
            close_of(&t[..5], 1),
            5,
            "an unbalanced open runs to the end"
        );
    }
}
