//! Shared low-level helpers for the lint arms: a token iterator over a
//! masked source, function-span detection, brace matching, and the
//! FNV-1a content hash used by the unsafe audit.

/// One token of a masked source: an identifier/number word or a single
/// punctuation character, with its 1-based line.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok<'a> {
    /// Token text (word or one punctuation char).
    pub text: &'a str,
    /// 1-based source line.
    pub line: usize,
    /// Byte offset of the token's first character.
    pub offset: usize,
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenize a masked source (comments/strings already blanked) into
/// words and punctuation.
pub fn tokens(mask: &str) -> Vec<Tok<'_>> {
    let b = mask.as_bytes();
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if is_word(c) {
            let start = i;
            while i < b.len() && is_word(b[i]) {
                i += 1;
            }
            out.push(Tok {
                text: &mask[start..i],
                line,
                offset: start,
            });
        } else {
            out.push(Tok {
                text: &mask[i..i + 1],
                line,
                offset: i,
            });
            i += 1;
        }
    }
    out
}

/// Function bodies in a token stream: `(start_line, end_line)` covering
/// the `fn` keyword through the body's closing brace. Functions without
/// a body (trait method signatures) are skipped.
pub fn fn_spans(toks: &[Tok<'_>]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "fn" {
            let start_line = toks[i].line;
            // Scan to the body `{`, or a `;` ending a bodiless signature.
            // Generic bounds / where clauses contain no braces before the
            // body in this codebase's style.
            let mut j = i + 1;
            let mut found = None;
            while j < toks.len() {
                match toks[j].text {
                    "{" => {
                        found = Some(j);
                        break;
                    }
                    ";" => break,
                    _ => j += 1,
                }
            }
            if let Some(open) = found {
                if let Some(close) = matching_brace(toks, open) {
                    spans.push((start_line, toks[close].line));
                    // Nested fns are re-discovered by the outer loop, so
                    // advance past the `fn` token only.
                }
            }
        }
        i += 1;
    }
    spans
}

/// Index of the `}` matching the `{` at token index `open`.
pub fn matching_brace(toks: &[Tok<'_>], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// The innermost function span containing `line`, if any.
pub fn enclosing_fn(spans: &[(usize, usize)], line: usize) -> Option<(usize, usize)> {
    spans
        .iter()
        .filter(|&&(a, b)| line >= a && line <= b)
        .min_by_key(|&&(a, b)| b - a)
        .copied()
}

/// FNV-1a 64-bit over `bytes` with all ASCII whitespace runs collapsed
/// to a single space — the hash survives a pure re-format but changes
/// whenever the code itself changes.
pub fn fnv64_normalized(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut in_ws = false;
    for &b in bytes {
        let b = if b.is_ascii_whitespace() {
            if in_ws {
                continue;
            }
            in_ws = true;
            b' '
        } else {
            in_ws = false;
            b
        };
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 1-based line number of byte `offset` in `src`.
pub fn line_of(src: &str, offset: usize) -> usize {
    1 + src.as_bytes()[..offset.min(src.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_and_fn_spans() {
        let src = "fn a() {\n  let x = 1;\n}\nstruct S;\nfn b() { {} }\n";
        let toks = tokens(src);
        let spans = fn_spans(&toks);
        assert_eq!(spans, vec![(1, 3), (5, 5)]);
        assert_eq!(enclosing_fn(&spans, 2), Some((1, 3)));
        assert_eq!(enclosing_fn(&spans, 4), None);
    }

    #[test]
    fn hash_ignores_reformat_but_not_content() {
        let a = fnv64_normalized(b"unsafe { foo(x,  y) }");
        let b = fnv64_normalized(b"unsafe {\n    foo(x,\n  y) }");
        let c = fnv64_normalized(b"unsafe { foo(x, z) }");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
