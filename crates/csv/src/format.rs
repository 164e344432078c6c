//! [`LineFormat`] implementation for character-delimited files.
//!
//! This is the thin adapter between the format-generic scan core in
//! `nodb-core` and the CSV tokenization primitives in [`crate::tokenize`]:
//! positions come from selective tokenization, values are the verbatim
//! bytes between delimiters coerced by
//! [`Value::parse_field`](nodb_common::Value::parse_field), and anchor
//! navigation counts delimiters forwards or backwards (§4.2, incremental
//! parsing in both directions).

use nodb_common::{DataType, LineFormat, NoDbError, Result, Value, NO_POSITION};

use crate::tokenize;
use crate::CsvOptions;

/// Character-delimited records: fields appear in schema order, separated
/// by a single delimiter byte, no quoting (see the crate docs).
#[derive(Debug, Clone, Copy)]
pub struct CsvFormat {
    delim: u8,
}

impl CsvFormat {
    /// A format for the given physical layout (only the delimiter matters
    /// to tokenization; header handling lives in the scan).
    pub fn new(opts: CsvOptions) -> CsvFormat {
        CsvFormat {
            delim: opts.delimiter,
        }
    }

    /// The field delimiter.
    pub fn delimiter(&self) -> u8 {
        self.delim
    }
}

impl LineFormat for CsvFormat {
    fn positions_upto(&self, line: &[u8], upto: usize, out: &mut Vec<u32>) -> Result<usize> {
        Ok(tokenize::tokenize_upto(line, self.delim, upto, out))
    }

    fn parse_at(&self, line: &[u8], start: u32, dtype: DataType) -> Result<Value> {
        if start == NO_POSITION {
            return Ok(Value::Null);
        }
        Value::parse_field(tokenize::field_at(line, self.delim, start), dtype)
    }

    fn advance(&self, line: &[u8], from_start: u32, from_idx: usize, to_idx: usize) -> Result<u32> {
        let res = if from_idx <= to_idx {
            tokenize::advance_forward(line, self.delim, from_start, from_idx, to_idx)
        } else {
            tokenize::advance_backward(line, self.delim, from_start, from_idx, to_idx)
        };
        res.ok_or_else(|| {
            NoDbError::parse(format!("record has too few fields for attribute {to_idx}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &[u8] = b"aa,7,,1.5";

    #[test]
    fn positions_match_tokenizer() {
        let f = CsvFormat::new(CsvOptions::default());
        let mut out = Vec::new();
        assert_eq!(f.positions_upto(LINE, 3, &mut out).unwrap(), 4);
        assert_eq!(out, vec![0, 3, 5, 6]);
        out.clear();
        // Short record: fewer starts than requested, not an error (the
        // scan turns the shortfall into a located field-count error).
        assert_eq!(f.positions_upto(b"x", 3, &mut out).unwrap(), 1);
    }

    #[test]
    fn parse_at_coerces_and_handles_null() {
        let f = CsvFormat::new(CsvOptions::default());
        assert_eq!(
            f.parse_at(LINE, 3, DataType::Int32).unwrap(),
            Value::Int32(7)
        );
        // Empty field and NO_POSITION are both NULL.
        assert_eq!(f.parse_at(LINE, 5, DataType::Int32).unwrap(), Value::Null);
        assert_eq!(
            f.parse_at(LINE, NO_POSITION, DataType::Int32).unwrap(),
            Value::Null
        );
        assert!(f.parse_at(LINE, 0, DataType::Int32).is_err());
    }

    #[test]
    fn advance_navigates_both_directions() {
        let f = CsvFormat::new(CsvOptions::default());
        assert_eq!(f.advance(LINE, 3, 1, 3).unwrap(), 6);
        assert_eq!(f.advance(LINE, 6, 3, 1).unwrap(), 3);
        assert_eq!(f.advance(LINE, 3, 1, 1).unwrap(), 3);
        assert!(f.advance(LINE, 3, 1, 9).is_err());
    }
}
