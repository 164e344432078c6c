//! SQL tokenizer.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use nodb_common::{NoDbError, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (normalized to lowercase; originals carry no
    /// case significance in this dialect).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `?` — a positional parameter placeholder (index assigned by the
    /// parser in order of appearance).
    Question,
    /// `$N` — an explicitly numbered parameter placeholder (1-based).
    Param(u32),
    /// `.`
    Dot,
}

impl Token {
    /// Is this the keyword `kw` (case-insensitive; `kw` must be lowercase)?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s == kw)
    }
}

/// Tokenize SQL text. Comments (`-- …`) are skipped.
///
/// The scan walks bytes, but every token boundary it cuts at follows an
/// ASCII byte, so each cut falls on a character boundary and a string
/// literal's non-ASCII text is copied through as the UTF-8 it was.
pub fn lex(sql: &str) -> Result<Vec<Token>> {
    let b = sql.as_bytes();
    let at = |k: usize| b.get(k).copied();
    let text = |start: usize, end: usize| {
        sql.get(start..end)
            .ok_or_else(|| NoDbError::sql(format!("token at byte {start} splits a character")))
    };
    let mut i = 0;
    let mut out = Vec::new();
    while let Some(c) = at(i) {
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if at(i + 1) == Some(b'-') => {
                while at(i).is_some_and(|c| c != b'\n') {
                    i += 1;
                }
            }
            b'(' => {
                out.push(Token::LParen);
                i += 1;
            }
            b')' => {
                out.push(Token::RParen);
                i += 1;
            }
            b',' => {
                out.push(Token::Comma);
                i += 1;
            }
            b';' => {
                out.push(Token::Semi);
                i += 1;
            }
            b'+' => {
                out.push(Token::Plus);
                i += 1;
            }
            b'-' => {
                out.push(Token::Minus);
                i += 1;
            }
            b'*' => {
                out.push(Token::Star);
                i += 1;
            }
            b'/' => {
                out.push(Token::Slash);
                i += 1;
            }
            b'=' => {
                out.push(Token::Eq);
                i += 1;
            }
            b'!' if at(i + 1) == Some(b'=') => {
                out.push(Token::NotEq);
                i += 2;
            }
            b'<' => match at(i + 1) {
                Some(b'=') => {
                    out.push(Token::LtEq);
                    i += 2;
                }
                Some(b'>') => {
                    out.push(Token::NotEq);
                    i += 2;
                }
                _ => {
                    out.push(Token::Lt);
                    i += 1;
                }
            },
            b'>' => {
                if at(i + 1) == Some(b'=') {
                    out.push(Token::GtEq);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            b'?' => {
                out.push(Token::Question);
                i += 1;
            }
            b'$' => {
                let start = i + 1;
                let mut j = start;
                while at(j).is_some_and(|c| c.is_ascii_digit()) {
                    j += 1;
                }
                if j == start {
                    return Err(NoDbError::sql(
                        "expected a parameter number after `$` (e.g. `$1`)",
                    ));
                }
                let text = text(start, j)?;
                let n: u32 = text
                    .parse()
                    .map_err(|_| NoDbError::sql(format!("bad parameter number `${text}`")))?;
                if n == 0 {
                    return Err(NoDbError::sql("parameter numbers start at $1"));
                }
                out.push(Token::Param(n));
                i = j;
            }
            b'\'' => {
                // Copy each run between quotes as a whole UTF-8 slice.
                let mut s = String::new();
                i += 1;
                let mut run = i;
                loop {
                    match at(i) {
                        None => return Err(NoDbError::sql("unterminated string literal")),
                        Some(b'\'') => {
                            s.push_str(text(run, i)?);
                            if at(i + 1) == Some(b'\'') {
                                s.push('\'');
                                i += 2;
                                run = i;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(_) => i += 1,
                    }
                }
                out.push(Token::Str(s));
            }
            b'.' if at(i + 1).is_some_and(|c| c.is_ascii_digit()) => {
                // .5 style float
                let start = i;
                i += 1;
                while at(i).is_some_and(|c| c.is_ascii_digit()) {
                    i += 1;
                }
                let text = text(start, i)?;
                let v: f64 = text
                    .parse()
                    .map_err(|_| NoDbError::sql(format!("bad number `{text}`")))?;
                out.push(Token::Float(v));
            }
            b'.' => {
                out.push(Token::Dot);
                i += 1;
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                let digits = |i: &mut usize| {
                    while at(*i).is_some_and(|c| c.is_ascii_digit()) {
                        *i += 1;
                    }
                };
                digits(&mut i);
                if at(i) == Some(b'.') {
                    // `1.5`, or `1.` style
                    is_float = true;
                    i += 1;
                    digits(&mut i);
                }
                if matches!(at(i), Some(b'e' | b'E')) {
                    is_float = true;
                    i += 1;
                    if matches!(at(i), Some(b'+' | b'-')) {
                        i += 1;
                    }
                    digits(&mut i);
                }
                let text = text(start, i)?;
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| NoDbError::sql(format!("bad number `{text}`")))?;
                    out.push(Token::Float(v));
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => out.push(Token::Int(v)),
                        Err(_) => {
                            let v: f64 = text
                                .parse()
                                .map_err(|_| NoDbError::sql(format!("bad number `{text}`")))?;
                            out.push(Token::Float(v));
                        }
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while at(i).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                    i += 1;
                }
                out.push(Token::Ident(text(start, i)?.to_ascii_lowercase()));
            }
            _ => {
                let other = sql
                    .get(i..)
                    .and_then(|r| r.chars().next())
                    .unwrap_or('\u{FFFD}');
                return Err(NoDbError::sql(format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_keywords_and_operators() {
        let toks = lex("SELECT a, b FROM t WHERE x <= 5 AND y <> 'it''s'").unwrap();
        assert_eq!(toks[0], Token::Ident("select".into()));
        assert!(toks.contains(&Token::LtEq));
        assert!(toks.contains(&Token::NotEq));
        assert!(toks.contains(&Token::Str("it's".into())));
    }

    #[test]
    fn lexes_numbers() {
        let toks = lex("1 2.5 100.00 .5 1e3 3.2e-2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(1),
                Token::Float(2.5),
                Token::Float(100.0),
                Token::Float(0.5),
                Token::Float(1000.0),
                Token::Float(0.032),
            ]
        );
    }

    #[test]
    fn minus_is_a_token_not_a_sign() {
        let toks = lex("1-2").unwrap();
        assert_eq!(toks, vec![Token::Int(1), Token::Minus, Token::Int(2)]);
    }

    #[test]
    fn skips_comments() {
        let toks = lex("select -- comment here\n 1").unwrap();
        assert_eq!(toks, vec![Token::Ident("select".into()), Token::Int(1)]);
    }

    #[test]
    fn qualified_names_use_dot() {
        let toks = lex("t.col").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t".into()),
                Token::Dot,
                Token::Ident("col".into())
            ]
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(lex("select 'unterminated").is_err());
        assert!(lex("select @").is_err());
    }

    #[test]
    fn string_literals_keep_their_utf8() {
        let toks = lex("name = 'café' or s = 'x''€''𝄞'").unwrap();
        assert!(toks.contains(&Token::Str("café".into())));
        assert!(toks.contains(&Token::Str("x'€'𝄞".into())));
        // An unquoted non-ASCII character is named as itself.
        let err = lex("select café").unwrap_err().to_string();
        assert!(err.contains("`é`"), "{err}");
    }

    #[test]
    fn lexes_parameter_placeholders() {
        let toks = lex("a = ? and b = $2").unwrap();
        assert!(toks.contains(&Token::Question));
        assert!(toks.contains(&Token::Param(2)));
        // `$` needs digits, and numbering is 1-based.
        assert!(lex("a = $").is_err());
        assert!(lex("a = $0").is_err());
        assert!(lex("a = $x").is_err());
    }
}
