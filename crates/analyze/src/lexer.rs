//! A lightweight Rust *lexeme* scanner — just enough lexing to let the
//! lints reason about source text without false positives from comments
//! and string literals.
//!
//! The scanner produces a [`Lexed`] view of one file:
//!
//! - `mask`: the source with every comment and every string/char-literal
//!   *content* blanked to spaces (newlines preserved, literal delimiters
//!   kept), so byte offsets and line numbers in the mask equal those in
//!   the original. Lints search the mask and can never match text inside
//!   a comment or a string.
//! - `comments`: every comment with its starting line and full text —
//!   this is how the `// ORDERING:` adjacency rule is checked.
//!
//! Handled: `//` line comments (incl. doc comments), nested `/* */`
//! block comments, `"…"` strings with escapes, raw strings `r"…"` /
//! `r#"…"#` (any number of hashes), byte strings `b"…"` / `br#"…"#`,
//! char and byte-char literals (`'x'`, `b'\n'`), and the char-literal
//! vs. lifetime (`'a`) ambiguity.

/// One comment in the scanned file.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the comment's first character.
    pub line: usize,
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
}

/// The lexed view of one source file. See the [module docs](self).
#[derive(Debug)]
pub struct Lexed {
    /// Source with comments and literal contents blanked (same length
    /// and line structure as the input).
    pub mask: String,
    /// All comments, in file order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Lines (1-based) of every comment whose text contains `marker`.
    /// A multi-line block comment marks every line it spans.
    pub fn comment_lines_with(&self, marker: &str) -> Vec<usize> {
        let mut out = Vec::new();
        for c in &self.comments {
            if c.text.contains(marker) {
                for (i, _) in c.text.lines().enumerate() {
                    out.push(c.line + i);
                }
            }
        }
        out
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scan `src` into its [`Lexed`] view. Never fails: unterminated
/// constructs are treated as running to end-of-file (the real compiler
/// rejects them; the linter must still not panic on them).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut mask = Vec::with_capacity(b.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Push `n` bytes of blank (preserving newlines) from b[i..i+n].
    let blank = |mask: &mut Vec<u8>, line: &mut usize, bytes: &[u8]| {
        for &c in bytes {
            if c == b'\n' {
                mask.push(b'\n');
                *line += 1;
            } else {
                mask.push(b' ');
            }
        }
    };

    while i < b.len() {
        let c = b[i];
        let prev_ident = i > 0 && is_ident(b[i - 1]);

        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            comments.push(Comment {
                line,
                text: String::from_utf8_lossy(&b[start..i]).into_owned(),
            });
            blank(&mut mask, &mut line, &b[start..i]);
            continue;
        }
        // Block comment (nested).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            comments.push(Comment {
                line: start_line,
                text: String::from_utf8_lossy(&b[start..i]).into_owned(),
            });
            blank(&mut mask, &mut line, &b[start..i]);
            continue;
        }
        // Raw (and byte-raw) strings: r"…", r#"…"#, br#"…"#.
        if (c == b'r' || c == b'b') && !prev_ident {
            let mut j = i;
            if b[j] == b'b' && j + 1 < b.len() && b[j + 1] == b'r' {
                j += 1;
            }
            if b[j] == b'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < b.len() && b[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < b.len() && b[k] == b'"' {
                    // Prefix bytes (r / br + hashes) stay visible.
                    mask.extend_from_slice(&b[i..=k]);
                    let content_start = k + 1;
                    let mut e = content_start;
                    'raw: while e < b.len() {
                        if b[e] == b'"' {
                            let mut h = 0usize;
                            while e + 1 + h < b.len() && b[e + 1 + h] == b'#' && h < hashes {
                                h += 1;
                            }
                            if h == hashes {
                                break 'raw;
                            }
                        }
                        e += 1;
                    }
                    blank(&mut mask, &mut line, &b[content_start..e.min(b.len())]);
                    // Closing quote + hashes.
                    let close_end = (e + 1 + hashes).min(b.len());
                    mask.extend_from_slice(&b[e.min(b.len())..close_end]);
                    i = close_end;
                    continue;
                }
            }
            // Plain byte string b"…" falls through to the string arm via
            // the check below; a bare identifier starting with r/b falls
            // through to the default arm.
        }
        // Normal (and byte) strings.
        if c == b'"' || (c == b'b' && !prev_ident && i + 1 < b.len() && b[i + 1] == b'"') {
            let q = if c == b'b' { i + 1 } else { i };
            mask.extend_from_slice(&b[i..=q]);
            let mut e = q + 1;
            while e < b.len() {
                if b[e] == b'\\' {
                    e = (e + 2).min(b.len());
                    continue;
                }
                if b[e] == b'"' {
                    break;
                }
                e += 1;
            }
            blank(&mut mask, &mut line, &b[q + 1..e.min(b.len())]);
            if e < b.len() {
                mask.push(b'"');
                e += 1;
            }
            i = e;
            continue;
        }
        // Char literal vs. lifetime. `b'x'` byte chars too.
        if c == b'\'' || (c == b'b' && !prev_ident && i + 1 < b.len() && b[i + 1] == b'\'') {
            let q = if c == b'b' { i + 1 } else { i };
            // Lifetime: 'ident not closed by a quote right after.
            let is_char = if q + 1 >= b.len() {
                false
            } else if b[q + 1] == b'\\' {
                true
            } else if !is_ident(b[q + 1]) {
                // e.g. '(' — a char literal of punctuation.
                true
            } else {
                // 'x' (closing quote right after one ident char) is a
                // char; 'abc / 'static is a lifetime.
                q + 2 < b.len() && b[q + 2] == b'\''
            };
            if is_char {
                mask.extend_from_slice(&b[i..=q]);
                let mut e = q + 1;
                while e < b.len() {
                    if b[e] == b'\\' {
                        e = (e + 2).min(b.len());
                        continue;
                    }
                    if b[e] == b'\'' {
                        break;
                    }
                    e += 1;
                }
                blank(&mut mask, &mut line, &b[q + 1..e.min(b.len())]);
                if e < b.len() {
                    mask.push(b'\'');
                    e += 1;
                }
                i = e;
                continue;
            }
        }

        if c == b'\n' {
            line += 1;
        }
        mask.push(c);
        i += 1;
    }

    Lexed {
        mask: String::from_utf8_lossy(&mask).into_owned(),
        comments,
    }
}

/// `#[cfg(test)]`-gated spans of a masked file, as 1-based inclusive
/// line ranges. The attribute covers the item that follows: a brace
/// block (`mod tests { … }`, a gated `fn`) runs to its matching close;
/// an item that ends with `;` before any brace (a gated `use`) runs to
/// that semicolon.
pub fn test_spans(mask: &str) -> Vec<(usize, usize)> {
    let b = mask.as_bytes();
    let mut spans = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < b.len() {
        if b[i] == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'#' && mask[i..].starts_with("#[cfg(test)]") {
            let start_line = line;
            let mut j = i + "#[cfg(test)]".len();
            let mut l = line;
            let mut depth = 0usize;
            let mut opened = false;
            while j < b.len() {
                match b[j] {
                    b'\n' => l += 1,
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            break;
                        }
                    }
                    b';' if !opened => break,
                    _ => {}
                }
                j += 1;
            }
            spans.push((start_line, l));
            line = l;
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// True when `line` falls inside any of `spans` (inclusive ranges).
pub fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_masked() {
        let src = r##"let x = "unsafe { }"; // unsafe comment
let r = r#"Ordering::Relaxed"#;
/* unsafe
   block */ let y = 'u';
"##;
        let lx = lex(src);
        assert!(!lx.mask.contains("unsafe"));
        assert!(!lx.mask.contains("Relaxed"));
        assert_eq!(lx.mask.len(), src.len());
        assert!(lx.mask.starts_with("let x = \"          \";"));
        assert_eq!(lx.comments.len(), 2);
        assert_eq!(lx.comments[1].line, 3);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { x }";
        let lx = lex(src);
        // Nothing blanked: no literals at all.
        assert_eq!(lx.mask, src);
    }

    #[test]
    fn escaped_quotes_and_byte_strings() {
        let src = r#"let a = "he said \"hi\""; let b = b"\x00"; let c = '\'';"#;
        let lx = lex(src);
        assert!(!lx.mask.contains("hi"));
        assert!(!lx.mask.contains("x00"));
        assert!(lx.mask.ends_with("let c = '  ';"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still */ code";
        let lx = lex(src);
        assert!(lx.mask.ends_with(" code"));
        assert!(!lx.mask.contains("inner"));
        assert_eq!(lx.comments.len(), 1);
    }

    #[test]
    fn raw_string_with_hashes_and_quotes_inside() {
        let src = r###"let s = r#"contains "quotes" and # signs"#; tail"###;
        let lx = lex(src);
        assert!(!lx.mask.contains("quotes"));
        assert!(lx.mask.ends_with("tail"));
    }

    #[test]
    fn cfg_test_spans_cover_mod_blocks() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let spans = test_spans(&lex(src).mask);
        assert_eq!(spans, vec![(2, 5)]);
        assert!(in_spans(&spans, 4));
        assert!(!in_spans(&spans, 6));
    }
}
