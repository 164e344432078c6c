//! Buffered CSV writing.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use nodb_common::{Result, Row};

use crate::CsvOptions;

/// A buffered writer producing delimiter-separated lines.
pub struct CsvWriter {
    out: BufWriter<File>,
    delim: u8,
    rows: u64,
}

impl CsvWriter {
    /// Create (truncate) `path` for writing.
    pub fn create(path: &Path, opts: CsvOptions) -> Result<CsvWriter> {
        Ok(CsvWriter {
            out: BufWriter::with_capacity(1 << 20, File::create(path)?),
            delim: opts.delimiter,
            rows: 0,
        })
    }

    /// Open `path` for appending (the paper's external-update scenario,
    /// §4.5).
    pub fn append(path: &Path, opts: CsvOptions) -> Result<CsvWriter> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        Ok(CsvWriter {
            out: BufWriter::with_capacity(1 << 20, file),
            delim: opts.delimiter,
            rows: 0,
        })
    }

    /// Write one row from pre-rendered field strings.
    pub fn write_fields<S: AsRef<str>>(&mut self, fields: &[S]) -> Result<()> {
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                self.out.write_all(&[self.delim])?;
            }
            self.out.write_all(f.as_ref().as_bytes())?;
        }
        self.out.write_all(b"\n")?;
        self.rows += 1;
        Ok(())
    }

    /// Write one row of [`nodb_common::Value`]s using their CSV rendering.
    pub fn write_row(&mut self, row: &Row) -> Result<()> {
        for (i, v) in row.values().iter().enumerate() {
            if i > 0 {
                self.out.write_all(&[self.delim])?;
            }
            self.out.write_all(v.to_csv_field().as_bytes())?;
        }
        self.out.write_all(b"\n")?;
        self.rows += 1;
        Ok(())
    }

    /// Flush buffered output.
    pub fn finish(mut self) -> Result<u64> {
        self.out.flush()?;
        Ok(self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::{TempDir, Value};

    #[test]
    fn writes_delimited_lines() {
        let td = TempDir::new("nodb-csv").unwrap();
        let p = td.file("w.csv");
        let mut w = CsvWriter::create(&p, CsvOptions::default()).unwrap();
        w.write_fields(&["1", "a", ""]).unwrap();
        w.write_row(&Row(vec![
            Value::Int32(2),
            Value::Text("b".into()),
            Value::Null,
        ]))
        .unwrap();
        assert_eq!(w.finish().unwrap(), 2);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "1,a,\n2,b,\n");
    }

    #[test]
    fn append_extends_existing_file() {
        let td = TempDir::new("nodb-csv").unwrap();
        let p = td.file("w.csv");
        {
            let mut w = CsvWriter::create(&p, CsvOptions::pipe()).unwrap();
            w.write_fields(&["1", "x"]).unwrap();
            w.finish().unwrap();
        }
        {
            let mut w = CsvWriter::append(&p, CsvOptions::pipe()).unwrap();
            w.write_fields(&["2", "y"]).unwrap();
            w.finish().unwrap();
        }
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "1|x\n2|y\n");
    }
}
