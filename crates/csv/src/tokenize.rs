//! Field tokenization primitives.
//!
//! All functions operate on a single line (no terminating newline) and work
//! with *start offsets*: the byte index where a field's value begins. This
//! matches the paper's positional map, which stores positions of attribute
//! starts and reconstructs a value as "the characters that appear between
//! two positions" (§4.2).
//!
//! Delimiter searches go through the word-at-a-time scanners in
//! [`nodb_common::swar`] rather than byte-at-a-time loops; proptests below
//! pin them to scalar reference behavior.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use nodb_common::swar;

/// Tokenize the start offsets of fields `0..=upto`, appending them to
/// `out`. Scanning stops as soon as the start of field `upto` is known —
/// the paper's *selective tokenizing* (§4.1): a query needing attributes 4
/// and 8 tokenizes each tuple only up to attribute 8.
///
/// Returns the number of field starts appended (may be fewer than
/// `upto + 1` if the line has fewer fields).
pub fn tokenize_upto(line: &[u8], delim: u8, upto: usize, out: &mut Vec<u32>) -> usize {
    let before = out.len();
    out.push(0);
    if upto == 0 {
        return 1;
    }
    let mut found = 1;
    for i in swar::ByteFinder::new(line, delim) {
        out.push(i as u32 + 1);
        found += 1;
        if found > upto {
            break;
        }
    }
    out.len() - before
}

/// Tokenize start offsets of *all* fields on the line.
pub fn tokenize_all(line: &[u8], delim: u8, out: &mut Vec<u32>) -> usize {
    tokenize_upto(line, delim, usize::MAX - 1, out)
}

/// Number of fields on the line (1 + number of delimiters).
pub fn count_fields(line: &[u8], delim: u8) -> usize {
    1 + swar::count_byte(line, delim)
}

/// End offset (exclusive) of the field starting at `start`: scans forward
/// to the next delimiter or end of line.
pub fn field_end(line: &[u8], delim: u8, start: u32) -> u32 {
    let s = start as usize;
    #[expect(clippy::indexing_slicing, reason = "clamped to line.len()")]
    let rest = &line[s.min(line.len())..];
    match swar::find_byte(rest, delim) {
        Some(off) => (s + off) as u32,
        None => line.len() as u32,
    }
}

/// The bytes of the field starting at `start` (none when `start` lies
/// past the end of the line).
pub fn field_at(line: &[u8], delim: u8, start: u32) -> &[u8] {
    let end = field_end(line, delim, start);
    line.get(start as usize..end as usize).unwrap_or_default()
}

/// Incremental *forward* parsing (§4.2): given the known start of field
/// `from_idx`, return the start of field `to_idx > from_idx` by scanning
/// only the bytes in between. Returns `None` if the line ends first.
pub fn advance_forward(
    line: &[u8],
    delim: u8,
    from_start: u32,
    from_idx: usize,
    to_idx: usize,
) -> Option<u32> {
    debug_assert!(to_idx >= from_idx);
    let remaining = to_idx - from_idx;
    if remaining == 0 {
        return Some(from_start);
    }
    let from = (from_start as usize).min(line.len());
    #[expect(clippy::indexing_slicing, reason = "clamped to line.len()")]
    let rest = &line[from..];
    swar::ByteFinder::new(rest, delim)
        .nth(remaining - 1)
        .map(|i| (from + i) as u32 + 1)
}

/// Incremental *backward* parsing (§4.2: "jumps initially to the position
/// of the 12th attribute and tokenizes backwards"): given the known start
/// of field `from_idx`, return the start of field `to_idx < from_idx`.
pub fn advance_backward(
    line: &[u8],
    delim: u8,
    from_start: u32,
    from_idx: usize,
    to_idx: usize,
) -> Option<u32> {
    debug_assert!(to_idx <= from_idx);
    let remaining = from_idx - to_idx;
    if remaining == 0 {
        return Some(from_start);
    }
    // from_start points just past a delimiter (or 0). Walk left over
    // `remaining` additional delimiters; the target field starts right
    // after the (remaining+1)-th delimiter counted from here.
    let mut seen = 0usize;
    let mut end = from_start as usize;
    while let Some(i) = line.get(..end).and_then(|l| swar::rfind_byte(l, delim)) {
        seen += 1;
        if seen == remaining + 1 {
            return Some(i as u32 + 1);
        }
        end = i;
    }
    if seen == remaining {
        Some(0)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const LINE: &[u8] = b"aa,b,,dddd,e";

    #[test]
    fn tokenize_all_finds_every_start() {
        let mut out = Vec::new();
        let n = tokenize_all(LINE, b',', &mut out);
        assert_eq!(n, 5);
        assert_eq!(out, vec![0, 3, 5, 6, 11]);
    }

    #[test]
    fn tokenize_upto_stops_early() {
        let mut out = Vec::new();
        let n = tokenize_upto(LINE, b',', 2, &mut out);
        assert_eq!(n, 3);
        assert_eq!(out, vec![0, 3, 5]);
    }

    #[test]
    fn tokenize_upto_handles_short_lines() {
        let mut out = Vec::new();
        let n = tokenize_upto(b"x,y", b',', 5, &mut out);
        assert_eq!(n, 2);
    }

    #[test]
    fn field_extraction() {
        assert_eq!(field_at(LINE, b',', 0), b"aa");
        assert_eq!(field_at(LINE, b',', 3), b"b");
        assert_eq!(field_at(LINE, b',', 5), b"");
        assert_eq!(field_at(LINE, b',', 6), b"dddd");
        assert_eq!(field_at(LINE, b',', 11), b"e");
    }

    #[test]
    fn starts_past_the_line_end_find_nothing() {
        // A stale position (the line got shorter) must not panic.
        let end = LINE.len() as u32;
        assert_eq!(field_at(LINE, b',', end + 5), b"");
        assert_eq!(advance_forward(LINE, b',', end + 5, 1, 3), None);
        assert_eq!(advance_backward(LINE, b',', end + 5, 3, 1), None);
    }

    #[test]
    fn empty_line_is_one_empty_field() {
        let mut out = Vec::new();
        assert_eq!(tokenize_all(b"", b',', &mut out), 1);
        assert_eq!(field_at(b"", b',', 0), b"");
        assert_eq!(count_fields(b"", b','), 1);
    }

    #[test]
    fn forward_navigation_from_anchor() {
        // Know field 1 starts at 3; find field 3.
        assert_eq!(advance_forward(LINE, b',', 3, 1, 3), Some(6));
        assert_eq!(advance_forward(LINE, b',', 3, 1, 1), Some(3));
        assert_eq!(advance_forward(LINE, b',', 3, 1, 9), None);
    }

    #[test]
    fn backward_navigation_from_anchor() {
        // Know field 3 starts at 6; find field 1.
        assert_eq!(advance_backward(LINE, b',', 6, 3, 1), Some(3));
        // ... and field 0.
        assert_eq!(advance_backward(LINE, b',', 6, 3, 0), Some(0));
        assert_eq!(advance_backward(LINE, b',', 6, 3, 3), Some(6));
    }

    proptest! {
        /// Forward/backward navigation from any anchor must agree with a
        /// full tokenization.
        #[test]
        fn navigation_agrees_with_full_tokenize(
            fields in proptest::collection::vec("[a-z]{0,6}", 1..12),
            from in 0usize..12,
            to in 0usize..12,
        ) {
            let line = fields.join(",").into_bytes();
            let mut starts = Vec::new();
            tokenize_all(&line, b',', &mut starts);
            let n = starts.len();
            prop_assume!(from < n && to < n);
            let anchor = starts[from];
            let got = if to >= from {
                advance_forward(&line, b',', anchor, from, to)
            } else {
                advance_backward(&line, b',', anchor, from, to)
            };
            prop_assert_eq!(got, Some(starts[to]));
        }

        /// Selective tokenization is a prefix of full tokenization.
        #[test]
        fn selective_is_prefix_of_full(
            fields in proptest::collection::vec("[a-z]{0,4}", 1..10),
            upto in 0usize..10,
        ) {
            let line = fields.join(",").into_bytes();
            let mut full = Vec::new();
            tokenize_all(&line, b',', &mut full);
            let mut sel = Vec::new();
            tokenize_upto(&line, b',', upto, &mut sel);
            let expect = full.len().min(upto + 1);
            prop_assert_eq!(&sel[..], &full[..expect]);
        }

        /// Extracted fields match a straightforward split.
        #[test]
        fn fields_match_split(fields in proptest::collection::vec("[a-z]{0,5}", 1..10)) {
            let line = fields.join(",").into_bytes();
            let mut starts = Vec::new();
            tokenize_all(&line, b',', &mut starts);
            prop_assert_eq!(starts.len(), fields.len());
            for (i, f) in fields.iter().enumerate() {
                prop_assert_eq!(field_at(&line, b',', starts[i]), f.as_bytes());
            }
        }
    }

    /// The SWAR tokenizers against byte-at-a-time reference
    /// implementations (the pre-SWAR code), over arbitrary bytes: all
    /// 256 values appear, so CRLF pairs, quotes, unicode continuation
    /// bytes and high-bit lanes are exercised, and lengths straddle the
    /// 8-byte word boundary (empty and short tails included).
    mod swar_vs_scalar {
        use super::*;

        fn ref_tokenize_upto(line: &[u8], delim: u8, upto: usize, out: &mut Vec<u32>) -> usize {
            let before = out.len();
            out.push(0);
            if upto == 0 {
                return 1;
            }
            let mut found = 1;
            for (i, &b) in line.iter().enumerate() {
                if b == delim {
                    out.push(i as u32 + 1);
                    found += 1;
                    if found > upto {
                        break;
                    }
                }
            }
            out.len() - before
        }

        fn ref_advance_forward(
            line: &[u8],
            delim: u8,
            from_start: u32,
            from_idx: usize,
            to_idx: usize,
        ) -> Option<u32> {
            let mut remaining = to_idx - from_idx;
            if remaining == 0 {
                return Some(from_start);
            }
            let mut i = from_start as usize;
            while i < line.len() {
                if line[i] == delim {
                    remaining -= 1;
                    if remaining == 0 {
                        return Some(i as u32 + 1);
                    }
                }
                i += 1;
            }
            None
        }

        fn ref_advance_backward(
            line: &[u8],
            delim: u8,
            from_start: u32,
            from_idx: usize,
            to_idx: usize,
        ) -> Option<u32> {
            let remaining = from_idx - to_idx;
            if remaining == 0 {
                return Some(from_start);
            }
            let mut seen = 0usize;
            let mut i = from_start as usize;
            while i > 0 {
                i -= 1;
                if line[i] == delim {
                    seen += 1;
                    if seen == remaining + 1 {
                        return Some(i as u32 + 1);
                    }
                }
            }
            if seen == remaining {
                Some(0)
            } else {
                None
            }
        }

        /// Arbitrary bytes with the delimiter mixed in often enough for
        /// multi-match words.
        fn raw_line() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(
                prop_oneof![Just(b','), Just(b'\r'), Just(b'"'), any::<u8>()],
                0..80,
            )
        }

        proptest! {
            #[test]
            fn tokenize_matches_reference(line in raw_line(), upto in 0usize..12) {
                let mut got = Vec::new();
                let mut want = Vec::new();
                let n_got = tokenize_upto(&line, b',', upto, &mut got);
                let n_want = ref_tokenize_upto(&line, b',', upto, &mut want);
                prop_assert_eq!(n_got, n_want);
                prop_assert_eq!(got, want);
            }

            #[test]
            fn count_fields_matches_reference(line in raw_line()) {
                let want = 1 + line.iter().filter(|&&b| b == b',').count();
                prop_assert_eq!(count_fields(&line, b','), want);
            }

            #[test]
            fn field_end_matches_reference(line in raw_line(), start in 0usize..90) {
                prop_assume!(start <= line.len());
                let want = match line[start..].iter().position(|&b| b == b',') {
                    Some(off) => (start + off) as u32,
                    None => line.len() as u32,
                };
                prop_assert_eq!(field_end(&line, b',', start as u32), want);
            }
        }

        proptest! {
            #[test]
            fn navigation_matches_reference(
                line in raw_line(),
                from in 0usize..10,
                to in 0usize..10,
            ) {
                let mut starts = Vec::new();
                tokenize_all(&line, b',', &mut starts);
                let n = starts.len();
                prop_assume!(from < n && to < n);
                let anchor = starts[from];
                if to >= from {
                    prop_assert_eq!(
                        advance_forward(&line, b',', anchor, from, to),
                        ref_advance_forward(&line, b',', anchor, from, to)
                    );
                } else {
                    prop_assert_eq!(
                        advance_backward(&line, b',', anchor, from, to),
                        ref_advance_backward(&line, b',', anchor, from, to)
                    );
                }
            }
        }
    }
}
