//! A small comment/string/raw-string-aware Rust lexer.
//!
//! The analyzer does not need a full parse tree — every rule it
//! enforces is a lexical contract ("this identifier may not appear
//! here", "this line needs a justification comment"). What it *does*
//! need is to never be fooled by Rust's literal syntax: a `HashMap`
//! inside a doc comment, a `//` inside a string, a `"` inside a nested
//! block comment, or a `thread::spawn` inside a raw-string fixture must
//! not fire a rule.
//!
//! [`scan`] therefore produces three views of a source file:
//!
//! 1. `code` — a byte-for-byte copy of the input in which every comment
//!    and every string/char-literal *content* has been blanked with
//!    spaces (newlines are preserved, so offsets and line numbers are
//!    stable). Rules do substring/identifier searches on this view and
//!    can never match inside a literal or comment.
//! 2. `comments` — the comment spans with their original text, for the
//!    `// dapc-allow(rule): reason` and `// ordering:` annotation
//!    lookups.
//! 3. `strings` — every string/byte-string/char literal with its
//!    *decoded* bytes (escape sequences resolved), for the
//!    snapshot-magic rule which must read version bytes like `\x02`.
//!
//! The lexer also brace-matches `#[cfg(test)]` / `#[test]` items on the
//! blanked view (safe: braces inside literals are blanked) so rules can
//! exempt inline test code.

/// Kind of string-ish literal collected by the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrKind {
    /// `"..."`
    Str,
    /// `b"..."`
    ByteStr,
    /// `r"..."` / `r#"..."#`
    RawStr,
    /// `br"..."` / `br#"..."#`
    RawByteStr,
    /// `'x'`
    Char,
    /// `b'x'`
    ByteChar,
}

impl StrKind {
    /// True for the byte-string forms (`b"..."`, `br"..."`), the only
    /// literals that can spell a snapshot magic.
    pub fn is_byte_str(self) -> bool {
        matches!(self, StrKind::ByteStr | StrKind::RawByteStr)
    }
}

/// A string/char literal span with its decoded content bytes.
#[derive(Debug, Clone)]
pub struct StrLit {
    pub kind: StrKind,
    /// Byte offset of the opening delimiter (prefix included).
    pub start: usize,
    /// Byte offset one past the closing delimiter.
    pub end: usize,
    /// 1-indexed line of `start`.
    pub line: u32,
    /// Content bytes with escape sequences decoded (raw strings are
    /// taken verbatim). `\u{…}` escapes are encoded as UTF-8.
    pub bytes: Vec<u8>,
}

/// A comment span with its original text (delimiters included).
#[derive(Debug, Clone)]
pub struct Comment {
    pub start: usize,
    pub end: usize,
    /// 1-indexed line of `start`.
    pub line: u32,
    /// 1-indexed line of the last byte (block comments span lines).
    pub end_line: u32,
    pub text: String,
}

/// Result of scanning one source file. See the module docs for the
/// three views.
#[derive(Debug)]
pub struct Scan {
    pub code: Vec<u8>,
    pub comments: Vec<Comment>,
    pub strings: Vec<StrLit>,
    /// Byte offset of the start of each line (line N is 1-indexed as
    /// `line_starts[N-1]`).
    pub line_starts: Vec<usize>,
    /// Sorted, non-overlapping byte ranges covered by `#[cfg(test)]` /
    /// `#[test]` items.
    pub test_spans: Vec<(usize, usize)>,
}

impl Scan {
    /// 1-indexed line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> u32 {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }

    /// Whether `offset` falls inside a `#[cfg(test)]` / `#[test]` item.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// Concatenated text of all comments that start on `line`
    /// (1-indexed); empty string if the line has none.
    pub fn comment_text_on_line(&self, line: u32) -> String {
        let mut out = String::new();
        for c in &self.comments {
            if c.line <= line && line <= c.end_line {
                out.push_str(&c.text);
                out.push('\n');
            }
        }
        out
    }

    /// Whether `line` (1-indexed) contains nothing but whitespace and
    /// comment text — used to walk upward through a justification
    /// comment block.
    pub fn line_is_comment_only(&self, line: u32) -> bool {
        let Some(&start) = self.line_starts.get(line as usize - 1) else {
            return false;
        };
        let end = self
            .line_starts
            .get(line as usize)
            .copied()
            .unwrap_or(self.code.len());
        let has_comment = self
            .comments
            .iter()
            .any(|c| c.line <= line && line <= c.end_line);
        has_comment
            && self.code[start..end]
                .iter()
                .all(|&b| b == b' ' || b == b'\t' || b == b'\n' || b == b'\r')
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scan `src` into the three views. Never fails: malformed input
/// (unterminated literals or comments) is blanked to end of file, which
/// is the conservative choice for a linter — nothing in the unparsed
/// tail can fire a rule.
pub fn scan(src: &[u8]) -> Scan {
    let mut code = src.to_vec();
    let mut comments = Vec::new();
    let mut strings = Vec::new();

    let mut line_starts = vec![0usize];
    for (i, &b) in src.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |offset: usize, starts: &[usize]| -> u32 {
        match starts.binary_search(&offset) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    };

    let n = src.len();
    let mut i = 0usize;
    while i < n {
        let b = src[i];
        // Line comment (also doc comments `///`, `//!`).
        if b == b'/' && i + 1 < n && src[i + 1] == b'/' {
            let start = i;
            while i < n && src[i] != b'\n' {
                i += 1;
            }
            comments.push(Comment {
                start,
                end: i,
                line: line_of(start, &line_starts),
                end_line: line_of(i.saturating_sub(1).max(start), &line_starts),
                text: String::from_utf8_lossy(&src[start..i]).into_owned(),
            });
            blank(&mut code, start, i);
            continue;
        }
        // Block comment, possibly nested.
        if b == b'/' && i + 1 < n && src[i + 1] == b'*' {
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if src[i] == b'/' && i + 1 < n && src[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if src[i] == b'*' && i + 1 < n && src[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            comments.push(Comment {
                start,
                end: i,
                line: line_of(start, &line_starts),
                end_line: line_of(i.saturating_sub(1).max(start), &line_starts),
                text: String::from_utf8_lossy(&src[start..i]).into_owned(),
            });
            blank(&mut code, start, i);
            continue;
        }
        // Identifier or prefixed literal (r"", b"", br"", b'', c"").
        if is_ident_start(b) {
            let start = i;
            while i < n && is_ident_continue(src[i]) {
                i += 1;
            }
            let ident = &src[start..i];
            // Raw identifier `r#name` — consume and continue.
            if ident == b"r" && i < n && src[i] == b'#' && i + 1 < n && is_ident_start(src[i + 1]) {
                i += 1;
                while i < n && is_ident_continue(src[i]) {
                    i += 1;
                }
                continue;
            }
            let raw = matches!(ident, b"r" | b"br" | b"cr");
            let next = src.get(i).copied();
            if raw && (next == Some(b'"') || next == Some(b'#')) {
                let kind = if ident == b"br" {
                    StrKind::RawByteStr
                } else {
                    StrKind::RawStr
                };
                if let Some(lit) = lex_raw_string(src, start, i, kind, &line_starts) {
                    i = lit.end;
                    blank(&mut code, lit.start, lit.end);
                    strings.push(lit);
                }
                continue;
            }
            if matches!(ident, b"b" | b"c") && next == Some(b'"') {
                let kind = if ident == b"b" {
                    StrKind::ByteStr
                } else {
                    StrKind::Str
                };
                let lit = lex_quoted(src, start, i, kind, &line_starts);
                i = lit.end;
                blank(&mut code, lit.start, lit.end);
                strings.push(lit);
                continue;
            }
            if ident == b"b" && next == Some(b'\'') {
                let lit = lex_char(src, start, i, StrKind::ByteChar, &line_starts);
                i = lit.end;
                blank(&mut code, lit.start, lit.end);
                strings.push(lit);
                continue;
            }
            continue;
        }
        // Plain string.
        if b == b'"' {
            let lit = lex_quoted(src, i, i, StrKind::Str, &line_starts);
            i = lit.end;
            blank(&mut code, lit.start, lit.end);
            strings.push(lit);
            continue;
        }
        // Char literal vs lifetime/label.
        if b == b'\'' {
            if i + 1 < n && src[i + 1] == b'\\' {
                let lit = lex_char(src, i, i, StrKind::Char, &line_starts);
                i = lit.end;
                blank(&mut code, lit.start, lit.end);
                strings.push(lit);
                continue;
            }
            if i + 2 < n && src[i + 2] == b'\'' && src[i + 1] != b'\'' {
                // 'x' — a one-character literal ('a', '"', '{', …).
                let lit = lex_char(src, i, i, StrKind::Char, &line_starts);
                i = lit.end;
                blank(&mut code, lit.start, lit.end);
                strings.push(lit);
                continue;
            }
            // Lifetime or label: consume the quote and the identifier.
            i += 1;
            while i < n && is_ident_continue(src[i]) {
                i += 1;
            }
            continue;
        }
        i += 1;
    }

    let test_spans = find_test_spans(&code);
    Scan {
        code,
        comments,
        strings,
        line_starts,
        test_spans,
    }
}

/// Blank `code[start..end]` with spaces, preserving newlines so line
/// numbers and offsets survive.
fn blank(code: &mut [u8], start: usize, end: usize) {
    let end = end.min(code.len());
    for b in &mut code[start..end] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// Lex a `"…"`-delimited (possibly prefixed) string starting with its
/// prefix at `start` and the opening quote at `quote`.
fn lex_quoted(src: &[u8], start: usize, quote: usize, kind: StrKind, starts: &[usize]) -> StrLit {
    let n = src.len();
    let mut i = quote + 1;
    let mut bytes = Vec::new();
    while i < n {
        match src[i] {
            b'"' => {
                i += 1;
                break;
            }
            b'\\' => {
                let (decoded, len) = decode_escape(&src[i..]);
                bytes.extend_from_slice(&decoded);
                i += len;
            }
            b => {
                bytes.push(b);
                i += 1;
            }
        }
    }
    StrLit {
        kind,
        start,
        end: i,
        line: line_at(start, starts),
        bytes,
    }
}

/// Lex `r"…"` / `r#"…"#` / `br#"…"#` with any number of hashes. The
/// prefix starts at `start`; `after_prefix` points at the first `#` or
/// `"`. Returns `None` if this turns out not to be a raw string (e.g.
/// `r#` followed by something other than `"` after the hashes — a raw
/// identifier was already handled by the caller, so this is a stray
/// `#`; treat it as ordinary code).
fn lex_raw_string(
    src: &[u8],
    start: usize,
    after_prefix: usize,
    kind: StrKind,
    starts: &[usize],
) -> Option<StrLit> {
    let n = src.len();
    let mut i = after_prefix;
    let mut hashes = 0usize;
    while i < n && src[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || src[i] != b'"' {
        return None;
    }
    i += 1;
    let content_start = i;
    // Find `"` followed by `hashes` hashes.
    while i < n {
        if src[i] == b'"' {
            let mut j = i + 1;
            let mut h = 0usize;
            while j < n && h < hashes && src[j] == b'#' {
                h += 1;
                j += 1;
            }
            if h == hashes {
                return Some(StrLit {
                    kind,
                    start,
                    end: j,
                    line: line_at(start, starts),
                    bytes: src[content_start..i].to_vec(),
                });
            }
        }
        i += 1;
    }
    Some(StrLit {
        kind,
        start,
        end: n,
        line: line_at(start, starts),
        bytes: src[content_start..].to_vec(),
    })
}

/// Lex a char/byte-char literal; the opening quote is at `quote`.
fn lex_char(src: &[u8], start: usize, quote: usize, kind: StrKind, starts: &[usize]) -> StrLit {
    let n = src.len();
    let mut i = quote + 1;
    let mut bytes = Vec::new();
    if i < n {
        if src[i] == b'\\' {
            let (decoded, len) = decode_escape(&src[i..]);
            bytes.extend_from_slice(&decoded);
            i += len;
        } else {
            bytes.push(src[i]);
            i += 1;
        }
    }
    if i < n && src[i] == b'\'' {
        i += 1;
    }
    StrLit {
        kind,
        start,
        end: i,
        line: line_at(start, starts),
        bytes,
    }
}

fn line_at(offset: usize, starts: &[usize]) -> u32 {
    match starts.binary_search(&offset) {
        Ok(i) => i as u32 + 1,
        Err(i) => i as u32,
    }
}

/// Decode one escape sequence at the head of `tail` (which begins with
/// `\`). Returns the decoded bytes and the consumed length.
fn decode_escape(tail: &[u8]) -> (Vec<u8>, usize) {
    match tail.get(1) {
        Some(b'x') => {
            let hi = tail.get(2).and_then(|b| (*b as char).to_digit(16));
            let lo = tail.get(3).and_then(|b| (*b as char).to_digit(16));
            match (hi, lo) {
                (Some(h), Some(l)) => (vec![(h * 16 + l) as u8], 4),
                _ => (vec![b'\\'], 1),
            }
        }
        Some(b'u') => {
            // \u{…}: consume through the closing brace, decode as UTF-8.
            let mut j = 2;
            let mut value = 0u32;
            if tail.get(j) == Some(&b'{') {
                j += 1;
                while let Some(&b) = tail.get(j) {
                    if b == b'}' {
                        j += 1;
                        break;
                    }
                    if let Some(d) = (b as char).to_digit(16) {
                        value = value.saturating_mul(16).saturating_add(d);
                    }
                    j += 1;
                }
            }
            let decoded = char::from_u32(value)
                .map(|c| c.to_string().into_bytes())
                .unwrap_or_default();
            (decoded, j)
        }
        Some(b'n') => (vec![b'\n'], 2),
        Some(b't') => (vec![b'\t'], 2),
        Some(b'r') => (vec![b'\r'], 2),
        Some(b'0') => (vec![0], 2),
        Some(b'\\') => (vec![b'\\'], 2),
        Some(b'\'') => (vec![b'\''], 2),
        Some(b'"') => (vec![b'"'], 2),
        Some(b'\n') => (Vec::new(), 2), // line-continuation escape
        Some(&other) => (vec![other], 2),
        None => (vec![b'\\'], 1),
    }
}

/// Find `#[cfg(test)]` / `#[test]` items on the blanked view and return
/// the byte span each governs (attribute through the end of the
/// following item — matched braces, or the terminating semicolon).
fn find_test_spans(code: &[u8]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for pat in [&b"#[cfg(test)]"[..], &b"#[test]"[..]] {
        let mut from = 0usize;
        while let Some(pos) = find_sub(code, pat, from) {
            from = pos + pat.len();
            let end = item_end(code, pos + pat.len());
            spans.push((pos, end));
        }
    }
    spans.sort_unstable();
    // Merge overlaps (e.g. `#[test]` fns inside a `#[cfg(test)]` mod).
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (s, e) in spans {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// End of the item that starts after an attribute: the `}` that closes
/// its first top-level brace, or a `;` outside every bracket that comes
/// first (attribute on a `use`/`const`/macro-call item). A `;` inside
/// `(…)` or `[…]`, as in `[u8; 2]`, does not end it.
fn item_end(code: &[u8], mut i: usize) -> usize {
    let n = code.len();
    let mut depth = 0usize;
    while i < n {
        match code[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    n
}

/// First occurrence of `needle` in `haystack[from..]`.
pub fn find_sub(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (from..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}
