//! FITS reading: header parsing and random row access.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use nodb_common::{Field, NoDbError, Result, Row, Schema};

use crate::types::FitsType;
use crate::{BLOCK, CARD};

/// One parsed column.
#[derive(Debug, Clone)]
pub struct FitsColumn {
    /// Column name (TTYPEn).
    pub name: String,
    /// Column type (TFORMn).
    pub ftype: FitsType,
    /// Byte offset inside a row.
    pub offset: usize,
}

/// A parsed FITS binary table (header only; data read on demand).
#[derive(Debug, Clone)]
pub struct FitsTable {
    path: PathBuf,
    /// Columns in file order.
    pub columns: Vec<FitsColumn>,
    /// Bytes per row.
    pub row_bytes: usize,
    /// Rows in the table.
    pub rows: u64,
    /// Byte offset of the first data row.
    pub data_start: u64,
}

/// A header card's keyword (bytes 0–8) and, when bytes 8–10 are `= `,
/// its value up to any `/` comment. Split as bytes, so any byte anywhere
/// is safe; each part is then read lossily.
fn parse_card(card: &[u8]) -> (String, String) {
    let text = |b: &[u8]| String::from_utf8_lossy(b).trim().to_string();
    let key = text(card.get(..8).unwrap_or(card));
    let value = match card.get(8..) {
        Some([b'=', b' ', rest @ ..]) => text(rest.split(|&b| b == b'/').next().unwrap_or(rest)),
        _ => String::new(),
    };
    (key, value)
}

impl FitsTable {
    /// Open and parse the headers of `path`.
    pub fn open(path: &Path) -> Result<FitsTable> {
        let mut f = File::open(path)?;
        // Skip primary HDU (header blocks until END; NAXIS=0 ⇒ no data).
        let primary_cards = read_header(&mut f)?;
        let naxis: usize = header_value(&primary_cards, "NAXIS")?
            .parse()
            .map_err(|_| NoDbError::parse("bad NAXIS"))?;
        if naxis != 0 {
            return Err(NoDbError::parse(
                "only empty primary HDUs are supported (tables live in extensions)",
            ));
        }
        // BINTABLE extension header.
        let ext_cards = read_header(&mut f)?;
        let xt = header_value(&ext_cards, "XTENSION")?;
        if !xt.contains("BINTABLE") {
            return Err(NoDbError::parse(format!(
                "expected BINTABLE extension, found {xt}"
            )));
        }
        let row_bytes: usize = header_value(&ext_cards, "NAXIS1")?
            .parse()
            .map_err(|_| NoDbError::parse("bad NAXIS1"))?;
        if row_bytes == 0 {
            return Err(NoDbError::parse("NAXIS1 is 0: rows must have bytes"));
        }
        let rows: u64 = header_value(&ext_cards, "NAXIS2")?
            .parse()
            .map_err(|_| NoDbError::parse("bad NAXIS2"))?;
        let tfields: usize = header_value(&ext_cards, "TFIELDS")?
            .parse()
            .map_err(|_| NoDbError::parse("bad TFIELDS"))?;
        let mut columns = Vec::with_capacity(tfields);
        let mut offset = 0usize;
        for i in 1..=tfields {
            let name = header_value(&ext_cards, &format!("TTYPE{i}"))?
                .trim_matches('\'')
                .trim()
                .to_string();
            let ftype = FitsType::parse_tform(&header_value(&ext_cards, &format!("TFORM{i}"))?)?;
            if ftype.width() == 0 {
                return Err(NoDbError::parse(format!("column `{name}` has no bytes")));
            }
            columns.push(FitsColumn {
                name,
                ftype,
                offset,
            });
            offset += ftype.width();
        }
        if offset != row_bytes {
            return Err(NoDbError::parse(format!(
                "row width mismatch: TFORMs sum to {offset}, NAXIS1 is {row_bytes}"
            )));
        }
        let table = FitsTable {
            path: path.to_path_buf(),
            columns,
            row_bytes,
            rows,
            data_start: f.stream_position()?,
        };
        table.data_end()?;
        Ok(table)
    }

    /// Byte offset one past the last row: an error when NAXIS2 × NAXIS1
    /// rows reach past the largest file offset.
    pub fn data_end(&self) -> Result<u64> {
        let bytes = self.rows.checked_mul(self.row_bytes as u64);
        let end = bytes.and_then(|b| b.checked_add(self.data_start));
        end.ok_or_else(|| {
            NoDbError::parse(format!(
                "NAXIS2 = {} rows of NAXIS1 = {} bytes overflow a file offset",
                self.rows, self.row_bytes
            ))
        })
    }

    /// Engine-side schema of this table.
    pub fn schema(&self) -> Result<Schema> {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Field::new(c.name.clone(), c.ftype.data_type()))
                .collect(),
        )
    }

    /// Sequentially read rows `[from, to)`, decoding only `cols` (file
    /// ordinals) into rows in that order.
    pub fn read_rows(&self, from: u64, to: u64, cols: &[usize]) -> Result<Vec<Row>> {
        let to = to.min(self.rows);
        if from >= to {
            return Ok(Vec::new());
        }
        let mut f = File::open(&self.path)?;
        f.seek(SeekFrom::Start(
            self.data_start + from * self.row_bytes as u64,
        ))?;
        let n = (to - from) as usize;
        let mut buf = vec![0u8; n * self.row_bytes];
        f.read_exact(&mut buf)?;
        let columns = (cols.iter())
            .map(|&c| {
                (self.columns.get(c)).ok_or_else(|| NoDbError::plan(format!("no column #{c}")))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut out = Vec::with_capacity(n);
        for image in buf.chunks_exact(self.row_bytes) {
            let mut row = Row::with_capacity(cols.len());
            for c in &columns {
                row.push(c.ftype.decode(image.get(c.offset..).unwrap_or_default())?);
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Column ordinal by name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

fn read_header(f: &mut File) -> Result<Vec<(String, String)>> {
    let mut cards = Vec::new();
    loop {
        let mut block = [0u8; BLOCK];
        f.read_exact(&mut block)?;
        for i in 0..(BLOCK / CARD) {
            let c = &block[i * CARD..(i + 1) * CARD];
            let (key, value) = parse_card(c);
            if key == "END" {
                return Ok(cards);
            }
            if !key.is_empty() {
                cards.push((key, value));
            }
        }
    }
}

fn header_value(cards: &[(String, String)], key: &str) -> Result<String> {
    cards
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .ok_or_else(|| NoDbError::parse(format!("missing header card `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::FitsTableWriter;
    use nodb_common::{DataType, TempDir, Value};
    use proptest::prelude::*;

    fn write_sample(rows: i32) -> (TempDir, std::path::PathBuf) {
        let td = TempDir::new("fits").unwrap();
        let p = td.file("t.fits");
        let mut w = FitsTableWriter::create(
            &p,
            vec![
                ("id".into(), FitsType::J),
                ("big".into(), FitsType::K),
                ("flux".into(), FitsType::D),
                ("mag".into(), FitsType::E),
                ("tag".into(), FitsType::A(6)),
            ],
        )
        .unwrap();
        for i in 0..rows {
            w.write_row(&Row(vec![
                Value::Int32(i),
                Value::Int64(i as i64 * 1_000_000_007),
                Value::Float64(i as f64 * 0.25),
                Value::Float64(i as f64 * 0.5),
                Value::Text(format!("s{i:04}")),
            ]))
            .unwrap();
        }
        w.finish().unwrap();
        (td, p)
    }

    #[test]
    fn header_roundtrip() {
        let (_td, p) = write_sample(10);
        let t = FitsTable::open(&p).unwrap();
        assert_eq!(t.rows, 10);
        assert_eq!(t.columns.len(), 5);
        assert_eq!(t.row_bytes, 4 + 8 + 8 + 4 + 6);
        assert_eq!(t.col_index("FLUX"), Some(2));
        let s = t.schema().unwrap();
        assert_eq!(s.field(2).dtype, DataType::Float64);
        assert_eq!(s.field(4).dtype, DataType::Text);
    }

    #[test]
    fn values_roundtrip() {
        let (_td, p) = write_sample(50);
        let t = FitsTable::open(&p).unwrap();
        let rows = t.read_rows(0, 50, &[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[7].get(0), &Value::Int32(7));
        assert_eq!(rows[7].get(1), &Value::Int64(7 * 1_000_000_007));
        assert_eq!(rows[7].get(2), &Value::Float64(1.75));
        assert_eq!(rows[7].get(3), &Value::Float64(3.5));
        assert_eq!(rows[7].get(4), &Value::Text("s0007".into()));
    }

    #[test]
    fn projected_and_ranged_reads() {
        let (_td, p) = write_sample(30);
        let t = FitsTable::open(&p).unwrap();
        let rows = t.read_rows(10, 13, &[2]).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], Row(vec![Value::Float64(2.5)]));
        // Clamped at table end.
        assert_eq!(t.read_rows(28, 99, &[0]).unwrap().len(), 2);
        assert!(t.read_rows(5, 5, &[0]).unwrap().is_empty());
    }

    /// Rewrite the first header card keyed `key` with `f`.
    fn patch_card(p: &Path, key: &str, f: impl FnOnce(&mut [u8])) {
        let mut bytes = std::fs::read(p).unwrap();
        let prefix = format!("{key:<8}=");
        let mut cards = (0..bytes.len()).step_by(CARD);
        let at = cards.find(|&i| bytes[i..].starts_with(prefix.as_bytes()));
        let at = at.unwrap();
        f(&mut bytes[at..at + CARD]);
        std::fs::write(p, bytes).unwrap();
    }

    fn open_err(p: &Path) -> String {
        match FitsTable::open(p) {
            Err(NoDbError::Parse(m)) => m,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    /// A non-ASCII byte at card offset 6 once made the header parser
    /// slice through a character and panic.
    #[test]
    fn non_ascii_header_byte_is_a_typed_error() {
        for (key, at, want) in [
            ("NAXIS1", 6, "missing header card `NAXIS1`"),
            ("NAXIS2", 9, "bad NAXIS2"),
        ] {
            let (_td, p) = write_sample(3);
            patch_card(&p, key, |c| c[at] = 0xC3);
            assert!(open_err(&p).contains(want), "{key}");
        }
    }

    /// Rows of no bytes would frame records by a stride of 0.
    #[test]
    fn zero_width_rows_and_columns_are_rejected() {
        let td = TempDir::new("fits").unwrap();
        let p = td.file("t.fits");
        let w = FitsTableWriter::create(&p, vec![("s".into(), FitsType::A(0))]).unwrap();
        w.finish().unwrap();
        assert!(open_err(&p).contains("NAXIS1 is 0"));
        let cols = vec![("id".into(), FitsType::J), ("s".into(), FitsType::A(0))];
        let w = FitsTableWriter::create(&p, cols).unwrap();
        w.finish().unwrap();
        assert!(open_err(&p).contains("`s` has no bytes"));
    }

    #[test]
    fn rows_past_the_largest_offset_are_rejected() {
        let (_td, p) = write_sample(3);
        let rows = format!("{:>20}", u64::MAX / 8);
        patch_card(&p, "NAXIS2", |c| c[10..30].copy_from_slice(rows.as_bytes()));
        assert!(open_err(&p).contains("overflow"));
    }

    proptest! {
        #[test]
        fn random_float_tables_roundtrip(
            vals in proptest::collection::vec(any::<i32>().prop_map(|x| x as f64 / 17.0), 1..100)
        ) {
            let td = TempDir::new("fits").unwrap();
            let p = td.file("t.fits");
            let mut w = FitsTableWriter::create(
                &p, vec![("v".into(), FitsType::D)]).unwrap();
            for v in &vals {
                w.write_row(&Row(vec![Value::Float64(*v)])).unwrap();
            }
            w.finish().unwrap();
            let t = FitsTable::open(&p).unwrap();
            let rows = t.read_rows(0, vals.len() as u64, &[0]).unwrap();
            for (r, v) in rows.iter().zip(&vals) {
                prop_assert_eq!(r.get(0), &Value::Float64(*v));
            }
        }
    }
}
