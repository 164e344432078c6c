//! [`LineFormat`] implementation for FITS binary tables.
//!
//! Binary rows have a fixed width, so every attribute sits at a known
//! offset — "parsing may not be required since each tuple and attribute
//! is usually located in a well-known location; techniques such as
//! caching become more important" (§5.3). The in-situ scan in
//! `nodb-core` reads a FITS table like any other raw file, framing its
//! records by stride ([`Framing::Fixed`]): positions are the column
//! offsets, a value is decoded from its big-endian bytes, and the cache
//! carries the adaptation.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use nodb_common::{DataType, Framing, LineFormat, NoDbError, Result, Value, NO_POSITION};

use crate::reader::FitsTable;
use crate::types::FitsType;

/// The records of one FITS binary table: its column offsets and types,
/// and where its rows lie in the file.
#[derive(Debug, Clone)]
pub struct FitsFormat {
    /// Per column, in file order (so by ascending offset): where it
    /// starts in a row, and its type.
    columns: Vec<(u32, FitsType)>,
    framing: Framing,
}

impl FitsFormat {
    /// The format of `table`'s rows.
    pub fn new(table: &FitsTable) -> Result<FitsFormat> {
        let too_far = |name| NoDbError::parse(format!("column `{name}` starts past 4 GiB"));
        let columns = (table.columns.iter())
            .map(|c| {
                Ok((
                    u32::try_from(c.offset).map_err(|_| too_far(&c.name))?,
                    c.ftype,
                ))
            })
            .collect::<Result<_>>()?;
        Ok(FitsFormat {
            columns,
            framing: Framing::Fixed {
                width: table.row_bytes,
                start: table.data_start,
                end: table.data_end()?,
            },
        })
    }
}

impl LineFormat for FitsFormat {
    fn positions_upto(&self, _line: &[u8], upto: usize, out: &mut Vec<u32>) -> Result<usize> {
        let n = self.columns.len().min(upto.saturating_add(1));
        out.extend(self.columns.iter().take(n).map(|&(at, _)| at));
        Ok(n)
    }

    fn parse_at(&self, line: &[u8], start: u32, _dtype: DataType) -> Result<Value> {
        if start == NO_POSITION {
            return Ok(Value::Null);
        }
        let i = self.columns.binary_search_by_key(&start, |&(at, _)| at);
        let (_, ftype) = (i.ok().and_then(|i| self.columns.get(i)))
            .ok_or_else(|| NoDbError::parse(format!("no column starts at byte {start}")))?;
        ftype.decode(line.get(start as usize..).unwrap_or_default())
    }

    fn advance(&self, _line: &[u8], _from: u32, _from_idx: usize, to_idx: usize) -> Result<u32> {
        let to = self.columns.get(to_idx).map(|&(at, _)| at);
        to.ok_or_else(|| {
            NoDbError::parse(format!("record has too few fields for attribute {to_idx}"))
        })
    }

    fn framing(&self) -> Framing {
        self.framing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::FitsTableWriter;
    use nodb_common::{Row, TempDir};

    #[test]
    fn positions_are_offsets_and_values_decode_big_endian() {
        let td = TempDir::new("fits-format").unwrap();
        let p = td.file("t.fits");
        let cols = vec![
            ("id".into(), FitsType::J),
            ("tag".into(), FitsType::A(4)),
            ("x".into(), FitsType::E),
        ];
        let mut w = FitsTableWriter::create(&p, cols).unwrap();
        let row = [
            Value::Int32(-7),
            Value::Text("ab".into()),
            Value::Float64(1.5),
        ];
        w.write_row(&Row(row.to_vec())).unwrap();
        w.finish().unwrap();
        let t = FitsTable::open(&p).unwrap();
        let f = FitsFormat::new(&t).unwrap();
        let start = t.data_start;
        let framing = Framing::Fixed {
            width: 12,
            start,
            end: start + 12,
        };
        assert_eq!(f.framing(), framing);

        let bytes = std::fs::read(&p).unwrap();
        let line = &bytes[start as usize..][..12];
        let mut out = Vec::new();
        assert_eq!(f.positions_upto(line, 1, &mut out).unwrap(), 2);
        assert_eq!(f.positions_upto(line, 9, &mut out).unwrap(), 3);
        assert_eq!(out, [0, 4, 0, 4, 8]);
        for (at, want) in [0, 4, 8].into_iter().zip(&row) {
            let dtype = want.data_type().unwrap();
            assert_eq!(&f.parse_at(line, at, dtype).unwrap(), want);
        }
        assert_eq!(
            f.parse_at(line, NO_POSITION, DataType::Int32).unwrap(),
            Value::Null
        );
        assert!(f.parse_at(line, 2, DataType::Int32).is_err());
        assert!(f.parse_at(&line[..6], 4, DataType::Text).is_err());
        assert_eq!(f.advance(line, 0, 0, 2).unwrap(), 8);
        assert!(f.advance(line, 0, 0, 3).is_err());
    }
}
