//! The record-tokenizer abstraction behind format-generic in-situ scans.
//!
//! NoDB's adaptive machinery — the end-of-line index, the positional map,
//! the binary cache, line-aligned chunk splitting — is about *lines* and
//! *positions within lines*, not about commas. [`LineFormat`] captures the
//! three operations the scan actually needs from a concrete file format:
//!
//! 1. find the byte positions where attribute values start on a line
//!    ([`LineFormat::positions_upto`]),
//! 2. convert the value at a known position ([`LineFormat::parse_at`]),
//! 3. navigate from one known position to another attribute
//!    ([`LineFormat::advance`] — the paper's incremental parsing from a
//!    positional-map anchor, §4.2).
//!
//! `nodb-csv` implements it for character-delimited files, `nodb-json`
//! for JSON Lines and `nodb-fits` for FITS binary tables; the scan
//! operator in `nodb-core` is written against the trait only, so one
//! adaptive runtime serves every format. A format adds only how its
//! records are framed ([`LineFormat::framing`]).
//!
//! # Null / missing-value semantics
//!
//! All formats funnel value conversion through
//! [`Value::parse_field`](crate::Value::parse_field), so type coercion is
//! defined once, here in `nodb-common`: empty raw content is SQL NULL, and
//! textual content is parsed according to the declared [`DataType`].
//! Formats whose records are keyed rather than ordered (JSON Lines) may
//! lack an attribute entirely; they report [`NO_POSITION`] for it, and
//! [`LineFormat::parse_at`] maps that to NULL. The positional map stores
//! `NO_POSITION` like any other offset, so "the attribute is absent on
//! this row" is itself positional knowledge that warm scans reuse.

use crate::error::Result;
use crate::types::DataType;
use crate::value::Value;

/// Sentinel start offset: the attribute has no value on this record (for
/// example a missing key in a JSON Lines object). [`LineFormat::parse_at`]
/// turns it into [`Value::Null`]; position collectors store it verbatim.
pub const NO_POSITION: u32 = u32::MAX;

/// How a format's records sit in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Lines: a record ends at a `\n` (stripped with one `\r` before it)
    /// or at the end of the file.
    Newline,
    /// Records of `width` bytes, back to back over the file bytes
    /// `[start, end)`, stripped of nothing; a file shorter than `end` is
    /// cut short inside its data.
    Fixed {
        /// Bytes per record.
        width: usize,
        /// Where the first record starts.
        start: u64,
        /// Where the last record ends.
        end: u64,
    },
}

/// A raw-file format: how to locate and convert attribute values on one
/// record (a line with its newline stripped, or one fixed-width record).
///
/// Implementations must be cheap to share (`Send + Sync`): one format
/// value is consulted concurrently by every concurrent query on the
/// table.
pub trait LineFormat: std::fmt::Debug + Send + Sync {
    /// Append the start offsets of the values of attributes `0..=upto` to
    /// `out`, returning how many were appended.
    ///
    /// Formats with *ordered* fields (CSV) may stop scanning early — the
    /// paper's selective tokenizing — and return fewer than `upto + 1`
    /// when the record is short; the scan reports that as a field-count
    /// parse error. Formats with *keyed* records (JSON Lines) append
    /// [`NO_POSITION`] for declared attributes absent from the record and
    /// return `upto + 1`, erroring only on malformed records. Errors
    /// carry byte offsets relative to the line start; the scan adds
    /// file/row/absolute-byte context.
    fn positions_upto(&self, line: &[u8], upto: usize, out: &mut Vec<u32>) -> Result<usize>;

    /// Convert the value starting at byte `start` of `line` into a
    /// [`Value`] of `dtype`. `start == NO_POSITION` yields
    /// [`Value::Null`]. The implementation finds the value's end itself
    /// (delimiter, token boundary, closing quote, ...).
    fn parse_at(&self, line: &[u8], start: u32, dtype: DataType) -> Result<Value>;

    /// Given the known start of attribute `from_idx`, locate the start of
    /// attribute `to_idx` on the same line — the positional-map anchor
    /// jump. Ordered formats scan just the bytes between the two fields
    /// (forwards or backwards); keyed formats may re-tokenize the record.
    fn advance(&self, line: &[u8], from_start: u32, from_idx: usize, to_idx: usize) -> Result<u32>;

    /// How records are framed in the file.
    fn framing(&self) -> Framing {
        Framing::Newline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NoDbError;

    /// A toy fixed-width format (3 bytes per attribute) proving the trait
    /// is implementable outside the CSV/JSON crates.
    #[derive(Debug)]
    struct Fixed3;

    impl LineFormat for Fixed3 {
        fn positions_upto(&self, line: &[u8], upto: usize, out: &mut Vec<u32>) -> Result<usize> {
            let fields = line.len() / 3;
            let n = fields.min(upto + 1);
            out.extend((0..n).map(|i| (i * 3) as u32));
            Ok(n)
        }

        fn parse_at(&self, line: &[u8], start: u32, dtype: DataType) -> Result<Value> {
            if start == NO_POSITION {
                return Ok(Value::Null);
            }
            let s = start as usize;
            Value::parse_field(&line[s..s + 3], dtype)
        }

        fn advance(
            &self,
            _line: &[u8],
            from_start: u32,
            from_idx: usize,
            to_idx: usize,
        ) -> Result<u32> {
            let delta = 3 * (to_idx as i64 - from_idx as i64);
            u32::try_from(from_start as i64 + delta)
                .map_err(|_| NoDbError::parse("advance out of range"))
        }
    }

    #[test]
    fn trait_is_object_safe_and_usable() {
        let f: &dyn LineFormat = &Fixed3;
        let mut out = Vec::new();
        assert_eq!(f.positions_upto(b"001002003", 1, &mut out).unwrap(), 2);
        assert_eq!(out, vec![0, 3]);
        assert_eq!(
            f.parse_at(b"001002003", 3, DataType::Int32).unwrap(),
            Value::Int32(2)
        );
        assert_eq!(f.advance(b"001002003", 0, 0, 2).unwrap(), 6);
        assert_eq!(f.framing(), Framing::Newline);
        assert_eq!(
            f.parse_at(b"", NO_POSITION, DataType::Text).unwrap(),
            Value::Null
        );
    }
}
