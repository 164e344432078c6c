//! Keyed-record tokenization for JSON Lines.
//!
//! A JSONL record is one line holding a JSON object. Unlike CSV, fields
//! are *keyed* rather than ordered: the tokenizer walks the object once,
//! matching top-level keys against the schema-declared attribute names,
//! and records the byte position where each declared value token starts.
//! Those positions feed the same positional map the CSV scan uses — a
//! map jump lands on the value token and [`JsonFormat::parse_at`]
//! converts it without re-walking the object.
//!
//! Semantics (shared with `nodb-common`'s coercion rules):
//!
//! * A **missing key** or a JSON **`null`** is SQL NULL.
//! * A **string** value is unescaped and then coerced by
//!   [`Value::parse_field`] exactly like a CSV field — `"42"` converts to
//!   the integer 42 for an `int` column, and `""` is NULL (matching the
//!   empty CSV field).
//! * **Numbers** and **booleans** coerce from their token text the same
//!   way.
//! * **Nested** objects/arrays are rejected for scalar columns.
//! * When a declared key appears more than once, the *first* occurrence
//!   supplies the value (so selective tokenizing may stop early without
//!   changing results).
//!
//! Tokenization is *selective* in the paper's sense: the walk stops as
//! soon as every requested attribute has been located.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::HashMap;

use nodb_common::{swar, DataType, LineFormat, NoDbError, Result, Schema, Value, NO_POSITION};

/// JSON Lines records whose top-level keys name the attributes of a
/// declared schema.
#[derive(Debug, Clone)]
pub struct JsonFormat {
    keys: Vec<String>,
    /// key bytes → attribute ordinal (first declaration wins; schema
    /// rejects duplicates anyway).
    by_key: HashMap<Vec<u8>, usize>,
}

impl JsonFormat {
    /// A format matching the given top-level keys, in attribute order.
    pub fn new(keys: Vec<String>) -> JsonFormat {
        let by_key = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.as_bytes().to_vec(), i))
            .collect();
        JsonFormat { keys, by_key }
    }

    /// A format whose keys are the schema's field names — the
    /// "schema-declared fields pulled from top-level JSON keys" contract
    /// of `NoDb::register_jsonl`.
    pub fn from_schema(schema: &Schema) -> JsonFormat {
        JsonFormat::new(schema.fields().iter().map(|f| f.name.clone()).collect())
    }

    /// The declared keys, in attribute order.
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// Walk the object's top-level pairs, calling `visit(ordinal,
    /// value_start)` for each (ordinal is `None` for undeclared keys).
    /// A `true` from `visit` stops the walk early — the selective-
    /// tokenizing hook; the remainder of the record is then *not*
    /// validated, exactly like a CSV scan that stops at the last needed
    /// field.
    fn walk_object<F>(&self, line: &[u8], mut visit: F) -> Result<()>
    where
        F: FnMut(Option<usize>, u32) -> bool,
    {
        let mut i = skip_ws(line, 0);
        if line.get(i) != Some(&b'{') {
            return Err(NoDbError::parse(format!(
                "expected `{{` at offset {i} of a JSONL record"
            )));
        }
        i = skip_ws(line, i + 1);
        if line.get(i) == Some(&b'}') {
            return expect_end(line, i + 1);
        }
        loop {
            if line.get(i) != Some(&b'"') {
                return Err(NoDbError::parse(format!(
                    "expected a string key at offset {i}"
                )));
            }
            let (key_end, key_escaped) = scan_string(line, i)?;
            #[expect(clippy::indexing_slicing, reason = "scan_string found both quotes")]
            let key_bytes = &line[i + 1..key_end - 1];
            let ord = if key_escaped {
                self.by_key.get(&unescape(key_bytes)?).copied()
            } else {
                self.by_key.get(key_bytes).copied()
            };
            i = skip_ws(line, key_end);
            if line.get(i) != Some(&b':') {
                return Err(NoDbError::parse(format!(
                    "expected `:` after key at offset {i}"
                )));
            }
            i = skip_ws(line, i + 1);
            if visit(ord, i as u32) {
                return Ok(());
            }
            i = skip_value(line, i)?;
            i = skip_ws(line, i);
            match line.get(i) {
                Some(b',') => i = skip_ws(line, i + 1),
                Some(b'}') => return expect_end(line, i + 1),
                _ => {
                    return Err(NoDbError::parse(format!(
                        "expected `,` or `}}` at offset {i}"
                    )))
                }
            }
        }
    }
}

impl LineFormat for JsonFormat {
    fn positions_upto(&self, line: &[u8], upto: usize, out: &mut Vec<u32>) -> Result<usize> {
        let base = out.len();
        out.resize(base + upto + 1, NO_POSITION);
        let mut found = 0usize;
        self.walk_object(line, |ord, value_start| {
            // Ordinals past `upto` fall off the end of `out`.
            if let Some(slot) = ord.and_then(|o| out.get_mut(base + o)) {
                if *slot == NO_POSITION {
                    *slot = value_start;
                    found += 1;
                    // Selective tokenizing: stop once every requested
                    // attribute is located.
                    return found == upto + 1;
                }
            }
            false
        })?;
        Ok(upto + 1)
    }

    fn parse_at(&self, line: &[u8], start: u32, dtype: DataType) -> Result<Value> {
        if start == NO_POSITION {
            return Ok(Value::Null);
        }
        let i = start as usize;
        match line.get(i) {
            Some(b'"') => {
                let (end, escaped) = scan_string(line, i)?;
                #[expect(clippy::indexing_slicing, reason = "scan_string found both quotes")]
                let inner = &line[i + 1..end - 1];
                if escaped {
                    Value::parse_field(&unescape(inner)?, dtype)
                } else {
                    Value::parse_field(inner, dtype)
                }
            }
            Some(b'n') => {
                expect_literal(line, i, b"null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                expect_literal(line, i, b"true")?;
                Value::parse_field(b"true", dtype)
            }
            Some(b'f') => {
                expect_literal(line, i, b"false")?;
                Value::parse_field(b"false", dtype)
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "number_end scans from i to at most the end"
            )]
            Some(b'-') | Some(b'0'..=b'9') => {
                Value::parse_field(&line[i..number_end(line, i)], dtype)
            }
            Some(b'{') | Some(b'[') => Err(NoDbError::parse(format!(
                "nested JSON value at offset {i} cannot convert to a scalar column"
            ))),
            Some(c) => Err(NoDbError::parse(format!(
                "unexpected byte `{}` at offset {i}",
                *c as char
            ))),
            None => Err(NoDbError::parse(format!(
                "value position {i} is past the end of the record"
            ))),
        }
    }

    fn advance(
        &self,
        line: &[u8],
        _from_start: u32,
        _from_idx: usize,
        to_idx: usize,
    ) -> Result<u32> {
        // Keys are unordered, so the anchor position cannot shorten the
        // walk the way delimiter counting does for CSV; the cheapest
        // correct move is a single-key scan that stops at the target's
        // first occurrence (no allocation, no bookkeeping for the other
        // attributes). A missing key reads as NULL via NO_POSITION.
        let mut pos = NO_POSITION;
        self.walk_object(line, |ord, value_start| {
            if ord == Some(to_idx) {
                pos = value_start;
                true
            } else {
                false
            }
        })?;
        Ok(pos)
    }
}

fn skip_ws(line: &[u8], mut i: usize) -> usize {
    while matches!(line.get(i), Some(b' ') | Some(b'\t')) {
        i += 1;
    }
    i
}

/// After the closing `}`, only whitespace may follow on the line.
fn expect_end(line: &[u8], i: usize) -> Result<()> {
    let rest = skip_ws(line, i);
    if rest != line.len() {
        return Err(NoDbError::parse(format!(
            "trailing content after the record at offset {rest}"
        )));
    }
    Ok(())
}

/// `i` points at an opening quote; returns (index just past the closing
/// quote, whether any escape was seen).
#[expect(
    clippy::indexing_slicing,
    reason = "i is clamped to the line, and j = i + off lies inside the searched rest"
)]
fn scan_string(line: &[u8], start: usize) -> Result<(usize, bool)> {
    debug_assert_eq!(line.get(start), Some(&b'"'));
    // SWAR jump to the next structural byte: everything between a `"` and
    // a `\` is plain string payload the scanner never has to look at.
    let mut i = start + 1;
    let mut escaped = false;
    while let Some(off) = swar::find_byte2(&line[i.min(line.len())..], b'"', b'\\') {
        let j = i + off;
        if line[j] == b'"' {
            return Ok((j + 1, escaped));
        }
        // Backslash: the escaped byte after it is skipped unexamined, so
        // an escaped quote never terminates the scan.
        escaped = true;
        i = j + 2;
    }
    Err(NoDbError::parse(format!(
        "unterminated string starting at offset {start}"
    )))
}

/// Skip one JSON value token starting at `i`; returns the index just past
/// it.
fn skip_value(line: &[u8], i: usize) -> Result<usize> {
    match line.get(i) {
        Some(b'"') => scan_string(line, i).map(|(end, _)| end),
        Some(b'{') | Some(b'[') => skip_composite(line, i),
        Some(b't') => expect_literal(line, i, b"true").map(|()| i + 4),
        Some(b'f') => expect_literal(line, i, b"false").map(|()| i + 5),
        Some(b'n') => expect_literal(line, i, b"null").map(|()| i + 4),
        Some(b'-') | Some(b'0'..=b'9') => Ok(number_end(line, i)),
        Some(c) => Err(NoDbError::parse(format!(
            "unexpected byte `{}` at offset {i}",
            *c as char
        ))),
        None => Err(NoDbError::parse(format!(
            "unexpected end of record at offset {i}"
        ))),
    }
}

/// Skip a nested object/array (values of undeclared keys); strings inside
/// are honoured so braces in text do not confuse the depth count.
fn skip_composite(line: &[u8], start: usize) -> Result<usize> {
    let mut depth = 0usize;
    let mut i = start;
    while let Some(&b) = line.get(i) {
        match b {
            b'"' => {
                i = scan_string(line, i)?.0;
                continue;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    Err(NoDbError::parse(format!(
        "unterminated nested value starting at offset {start}"
    )))
}

fn expect_literal(line: &[u8], i: usize, lit: &[u8]) -> Result<()> {
    if line.get(i..i + lit.len()) == Some(lit) {
        Ok(())
    } else {
        Err(NoDbError::parse(format!(
            "malformed literal at offset {i} (expected `{}`)",
            String::from_utf8_lossy(lit)
        )))
    }
}

/// First index past a number token (lenient: exact validation happens in
/// `Value::parse_field`).
fn number_end(line: &[u8], mut i: usize) -> usize {
    while matches!(
        line.get(i),
        Some(b'0'..=b'9') | Some(b'-') | Some(b'+') | Some(b'.') | Some(b'e') | Some(b'E')
    ) {
        i += 1;
    }
    i
}

/// Decode JSON string escapes (`\" \\ \/ \b \f \n \r \t \uXXXX`,
/// including surrogate pairs) into raw bytes.
pub fn unescape(bytes: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        if b != b'\\' {
            out.push(b);
            i += 1;
            continue;
        }
        let Some(&e) = bytes.get(i + 1) else {
            return Err(NoDbError::parse("dangling escape at end of string"));
        };
        i += 2;
        match e {
            b'"' => out.push(b'"'),
            b'\\' => out.push(b'\\'),
            b'/' => out.push(b'/'),
            b'b' => out.push(0x08),
            b'f' => out.push(0x0c),
            b'n' => out.push(b'\n'),
            b'r' => out.push(b'\r'),
            b't' => out.push(b'\t'),
            b'u' => {
                let hi = hex4(bytes, i)?;
                i += 4;
                let ch = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a `\uXXXX` low surrogate must follow.
                    if bytes.get(i) != Some(&b'\\') || bytes.get(i + 1) != Some(&b'u') {
                        return Err(NoDbError::parse("lone high surrogate in \\u escape"));
                    }
                    let lo = hex4(bytes, i + 2)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(NoDbError::parse("invalid low surrogate in \\u escape"));
                    }
                    i += 6;
                    char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                        .ok_or_else(|| NoDbError::parse("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(NoDbError::parse("lone low surrogate in \\u escape"));
                } else {
                    char::from_u32(hi).ok_or_else(|| NoDbError::parse("invalid \\u escape"))?
                };
                let mut buf = [0u8; 4];
                out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
            }
            other => {
                return Err(NoDbError::parse(format!(
                    "unknown escape `\\{}`",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

fn hex4(bytes: &[u8], i: usize) -> Result<u32> {
    let Some(digits) = bytes.get(i..i + 4) else {
        return Err(NoDbError::parse("truncated \\u escape"));
    };
    let mut v = 0u32;
    for &b in digits {
        let d = (b as char)
            .to_digit(16)
            .ok_or_else(|| NoDbError::parse("non-hex digit in \\u escape"))?;
        v = v * 16 + d;
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt3() -> JsonFormat {
        JsonFormat::new(vec!["a".into(), "b".into(), "c".into()])
    }

    fn positions(f: &JsonFormat, line: &[u8], upto: usize) -> Vec<u32> {
        let mut out = Vec::new();
        assert_eq!(f.positions_upto(line, upto, &mut out).unwrap(), upto + 1);
        out
    }

    #[test]
    fn locates_declared_keys_in_any_order() {
        let f = fmt3();
        let line = br#"{"b": 2, "c": "x", "a": 10}"#;
        let pos = positions(&f, line, 2);
        assert_eq!(
            f.parse_at(line, pos[0], DataType::Int32).unwrap(),
            Value::Int32(10)
        );
        assert_eq!(
            f.parse_at(line, pos[1], DataType::Int32).unwrap(),
            Value::Int32(2)
        );
        assert_eq!(
            f.parse_at(line, pos[2], DataType::Text).unwrap(),
            Value::Text("x".into())
        );
    }

    #[test]
    fn missing_keys_and_nulls_are_sql_null() {
        let f = fmt3();
        let line = br#"{"a": null, "c": 3}"#;
        let pos = positions(&f, line, 2);
        assert_eq!(pos[1], NO_POSITION, "missing key has no position");
        assert_eq!(
            f.parse_at(line, pos[0], DataType::Int32).unwrap(),
            Value::Null
        );
        assert_eq!(
            f.parse_at(line, pos[1], DataType::Int32).unwrap(),
            Value::Null
        );
        assert_eq!(
            f.parse_at(line, pos[2], DataType::Int32).unwrap(),
            Value::Int32(3)
        );
        // An empty object is a row of NULLs, trailing whitespace allowed.
        let pos = positions(&f, b"{}  ", 2);
        assert_eq!(pos, vec![NO_POSITION; 3]);
    }

    #[test]
    fn undeclared_and_nested_values_are_skipped() {
        let f = fmt3();
        let line = br#"{"zz": {"a": [1, "}{"], "deep": true}, "b": 7}"#;
        let pos = positions(&f, line, 2);
        assert_eq!(pos[0], NO_POSITION, "nested `a` must not match");
        assert_eq!(
            f.parse_at(line, pos[1], DataType::Int32).unwrap(),
            Value::Int32(7)
        );
    }

    #[test]
    fn first_occurrence_of_a_duplicate_key_wins() {
        let f = fmt3();
        let line = br#"{"a": 1, "a": 2}"#;
        let pos = positions(&f, line, 0);
        assert_eq!(
            f.parse_at(line, pos[0], DataType::Int32).unwrap(),
            Value::Int32(1)
        );
    }

    #[test]
    fn escaped_keys_and_values_decode() {
        let f = JsonFormat::new(vec!["the key".into()]);
        // The key carries a unicode space escape and must still match
        // "the key"; the value mixes simple escapes, a BMP escape (é)
        // and a surrogate pair (😀). Double backslashes below are Rust
        // escaping — the JSON bytes hold single-backslash escapes.
        let line = "{\"the\\u0020key\": \"a\\\"b\\\\c\\nd\\u00e9\\ud83d\\ude00\"}".as_bytes();
        let pos = positions(&f, line, 0);
        assert_eq!(
            f.parse_at(line, pos[0], DataType::Text).unwrap(),
            Value::Text("a\"b\\c\nd\u{e9}\u{1f600}".into())
        );
        // Raw UTF-8 passes through untouched.
        let raw = "{\"the key\": \"caf\u{e9} \u{1f680}\"}".as_bytes();
        let pos = positions(&f, raw, 0);
        assert_eq!(
            f.parse_at(raw, pos[0], DataType::Text).unwrap(),
            Value::Text("caf\u{e9} \u{1f680}".into())
        );
        // Broken escapes are rejected.
        for bad in [r#"{"the key": "\ud83d"}"#, r#"{"the key": "\q"}"#] {
            let pos = positions(&f, bad.as_bytes(), 0);
            assert!(f.parse_at(bad.as_bytes(), pos[0], DataType::Text).is_err());
        }
    }

    #[test]
    fn string_coercion_matches_csv_fields() {
        let f = fmt3();
        let line = br#"{"a": "42", "b": "", "c": "1996-03-13"}"#;
        let pos = positions(&f, line, 2);
        assert_eq!(
            f.parse_at(line, pos[0], DataType::Int32).unwrap(),
            Value::Int32(42)
        );
        // Empty string == empty CSV field == NULL.
        assert_eq!(
            f.parse_at(line, pos[1], DataType::Text).unwrap(),
            Value::Null
        );
        assert!(matches!(
            f.parse_at(line, pos[2], DataType::Date).unwrap(),
            Value::Date(_)
        ));
    }

    #[test]
    fn bool_and_float_tokens_coerce() {
        let f = fmt3();
        let line = br#"{"a": true, "b": false, "c": -2.5e1}"#;
        let pos = positions(&f, line, 2);
        assert_eq!(
            f.parse_at(line, pos[0], DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            f.parse_at(line, pos[1], DataType::Bool).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            f.parse_at(line, pos[2], DataType::Float64).unwrap(),
            Value::Float64(-25.0)
        );
    }

    #[test]
    fn selective_tokenizing_stops_after_requested_attrs() {
        // Malformed *after* `a`: requesting only `a` (attr 0, which
        // appears first) must succeed; requesting more must fail.
        let f = fmt3();
        let line = br#"{"a": 1, "b": }"#;
        let mut out = Vec::new();
        assert!(f.positions_upto(line, 0, &mut out).is_ok());
        let mut out = Vec::new();
        assert!(f.positions_upto(line, 2, &mut out).is_err());
    }

    #[test]
    fn malformed_records_error_with_offsets() {
        let f = fmt3();
        let cases: &[&[u8]] = &[
            b"",
            b"[1, 2]",
            br#"{"a" 1}"#,
            br#"{"a": 1,}"#,
            br#"{"a": 1} x"#,
            br#"{"a": "unterminated}"#,
            br#"{"a": tru}"#,
            br#"{a: 1}"#,
            br#"{"a": 1"#,
        ];
        for c in cases {
            let mut out = Vec::new();
            let err = f.positions_upto(c, 2, &mut out).unwrap_err();
            assert!(
                err.to_string().contains("offset"),
                "error for {:?} should carry an offset: {err}",
                String::from_utf8_lossy(c)
            );
        }
    }

    #[test]
    fn nested_value_for_declared_scalar_errors() {
        let f = fmt3();
        let line = br#"{"a": [1, 2]}"#;
        let pos = positions(&f, line, 0);
        assert!(f.parse_at(line, pos[0], DataType::Int32).is_err());
    }

    #[test]
    fn advance_retokenizes_to_target() {
        let f = fmt3();
        let line = br#"{"c": 30, "a": 1}"#;
        let pos = positions(&f, line, 2);
        // From any anchor, advance lands where full tokenization does.
        assert_eq!(f.advance(line, pos[0], 0, 2).unwrap(), pos[2]);
        assert_eq!(f.advance(line, pos[2], 2, 1).unwrap(), NO_POSITION);
    }
}

/// The SWAR string scanner against a byte-at-a-time reference (the
/// pre-SWAR loop), over arbitrary string payloads: escapes (including
/// trailing lone backslashes), escaped quotes, unicode multi-byte
/// sequences, and tails straddling the 8-byte word boundary.
#[cfg(test)]
mod swar_props {
    use super::*;
    use proptest::prelude::*;

    fn ref_scan_string(line: &[u8], start: usize) -> Result<(usize, bool)> {
        let mut i = start + 1;
        let mut escaped = false;
        while i < line.len() {
            match line[i] {
                b'"' => return Ok((i + 1, escaped)),
                b'\\' => {
                    escaped = true;
                    i += 2;
                }
                _ => i += 1,
            }
        }
        Err(NoDbError::parse(format!(
            "unterminated string starting at offset {start}"
        )))
    }

    /// String payloads heavy in structural bytes, plus arbitrary bytes
    /// (so unicode continuation bytes and every lane value appear).
    fn payload() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![Just(b'"'), Just(b'\\'), Just(0xe2u8), any::<u8>()],
            0..64,
        )
    }

    proptest! {
        #[test]
        fn scan_string_matches_reference(tail in payload(), close in any::<bool>()) {
            let mut line = vec![b'"'];
            line.extend_from_slice(&tail);
            if close {
                line.push(b'"');
            }
            let got = scan_string(&line, 0);
            let want = ref_scan_string(&line, 0);
            match (got, want) {
                (Ok(g), Ok(w)) => prop_assert_eq!(g, w),
                (Err(_), Err(_)) => {}
                (g, w) => prop_assert!(false, "diverged: {:?} vs {:?}", g, w),
            }
        }

        /// End-to-end: positions_upto + parse_at over escaped/unicode
        /// strings keep behaving like the schema walk they replace.
        #[test]
        fn parse_round_trips_escaped_strings(s in "[a-z\"\\\\\u{e9}\u{4e16} ]{0,24}") {
            let encoded = {
                let mut e = String::from("{\"k\":\"");
                for c in s.chars() {
                    match c {
                        '"' => e.push_str("\\\""),
                        '\\' => e.push_str("\\\\"),
                        c => e.push(c),
                    }
                }
                e.push_str("\"}");
                e
            };
            let f = JsonFormat::new(vec!["k".to_string()]);
            let mut out = Vec::new();
            let n = f.positions_upto(encoded.as_bytes(), 0, &mut out).unwrap();
            prop_assert_eq!(n, 1);
            let v = f
                .parse_at(encoded.as_bytes(), out[0], DataType::Text)
                .unwrap();
            // The empty string is NULL, matching the empty CSV field.
            let want = if s.is_empty() { Value::Null } else { Value::Text(s) };
            prop_assert_eq!(v, want);
        }
    }
}
