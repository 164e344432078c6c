//! Buffered JSON Lines writing (the inverse of the tokenizer).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use nodb_common::{NoDbError, Result, Row, Schema, Value};

/// Physical layout options for written JSONL files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlOptions {
    /// Leave NULL attributes out of the object entirely instead of
    /// writing an explicit `"key": null` — both decode to SQL NULL, and
    /// the differential tests exercise the two layouts against each
    /// other.
    pub omit_nulls: bool,
}

/// A buffered writer producing one JSON object per line, keyed by the
/// schema's field names.
pub struct JsonlWriter {
    out: BufWriter<File>,
    keys: Vec<String>,
    omit_nulls: bool,
    rows: u64,
    buf: String,
}

impl JsonlWriter {
    /// Create (truncate) `path` for writing rows of `schema`.
    pub fn create(path: &Path, schema: &Schema, opts: JsonlOptions) -> Result<JsonlWriter> {
        Self::from_file(File::create(path)?, schema, opts)
    }

    /// Open `path` for appending (the external-update scenario, §4.5).
    pub fn append(path: &Path, schema: &Schema, opts: JsonlOptions) -> Result<JsonlWriter> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        Self::from_file(file, schema, opts)
    }

    fn from_file(file: File, schema: &Schema, opts: JsonlOptions) -> Result<JsonlWriter> {
        Ok(JsonlWriter {
            out: BufWriter::with_capacity(1 << 20, file),
            keys: schema.fields().iter().map(|f| f.name.clone()).collect(),
            omit_nulls: opts.omit_nulls,
            rows: 0,
            buf: String::new(),
        })
    }

    /// Write one row; its values must match the schema arity.
    pub fn write_row(&mut self, row: &Row) -> Result<()> {
        if row.values().len() != self.keys.len() {
            return Err(NoDbError::internal(format!(
                "row has {} values, schema declares {} fields",
                row.values().len(),
                self.keys.len()
            )));
        }
        self.buf.clear();
        self.buf.push('{');
        let mut first = true;
        for (k, v) in self.keys.iter().zip(row.values()) {
            if v.is_null() && self.omit_nulls {
                continue;
            }
            if !first {
                self.buf.push(',');
            }
            first = false;
            write_json_string(&mut self.buf, k);
            self.buf.push(':');
            write_json_value(&mut self.buf, v);
        }
        self.buf.push_str("}\n");
        self.out.write_all(self.buf.as_bytes())?;
        self.rows += 1;
        Ok(())
    }

    /// Flush buffered output.
    pub fn finish(mut self) -> Result<u64> {
        self.out.flush()?;
        Ok(self.rows)
    }
}

/// Render one value as a JSON token whose text coerces back to the same
/// [`Value`] via the tokenizer + `Value::parse_field`.
fn write_json_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int32(_) | Value::Int64(_) => out.push_str(&v.to_csv_field()),
        Value::Float64(f) if f.is_finite() => out.push_str(&v.to_csv_field()),
        // Non-finite floats are not JSON numbers; their text form (which
        // `parse_field` reads back) goes into a string.
        Value::Float64(_) => write_json_string(out, &v.to_csv_field()),
        Value::Text(s) => write_json_string(out, s),
        Value::Date(d) => write_json_string(out, &d.to_string()),
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::{Date, TempDir};

    fn schema() -> Schema {
        Schema::parse("id int, note text, score double, day date, ok bool").unwrap()
    }

    #[test]
    fn writes_one_object_per_line() {
        let td = TempDir::new("nodb-json").unwrap();
        let p = td.file("w.jsonl");
        let mut w = JsonlWriter::create(&p, &schema(), JsonlOptions::default()).unwrap();
        w.write_row(&Row(vec![
            Value::Int32(1),
            Value::Text("a\"b".into()),
            Value::Float64(2.5),
            Value::Date(Date::parse("1996-03-13").unwrap()),
            Value::Bool(true),
        ]))
        .unwrap();
        w.write_row(&Row(vec![
            Value::Int32(2),
            Value::Null,
            Value::Float64(4.0),
            Value::Null,
            Value::Bool(false),
        ]))
        .unwrap();
        assert_eq!(w.finish().unwrap(), 2);
        let text = std::fs::read_to_string(&p).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"id\":1,\"note\":\"a\\\"b\",\"score\":2.5,\"day\":\"1996-03-13\",\"ok\":true}"
        );
        assert_eq!(
            lines[1],
            "{\"id\":2,\"note\":null,\"score\":4.0,\"day\":null,\"ok\":false}"
        );
    }

    #[test]
    fn omit_nulls_drops_keys() {
        let td = TempDir::new("nodb-json").unwrap();
        let p = td.file("w.jsonl");
        let s = Schema::parse("a int, b int").unwrap();
        let mut w = JsonlWriter::create(&p, &s, JsonlOptions { omit_nulls: true }).unwrap();
        w.write_row(&Row(vec![Value::Null, Value::Int32(7)]))
            .unwrap();
        w.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"b\":7}\n");
    }

    #[test]
    fn append_extends_existing_file() {
        let td = TempDir::new("nodb-json").unwrap();
        let p = td.file("w.jsonl");
        let s = Schema::parse("a int").unwrap();
        {
            let mut w = JsonlWriter::create(&p, &s, JsonlOptions::default()).unwrap();
            w.write_row(&Row(vec![Value::Int32(1)])).unwrap();
            w.finish().unwrap();
        }
        {
            let mut w = JsonlWriter::append(&p, &s, JsonlOptions::default()).unwrap();
            w.write_row(&Row(vec![Value::Int32(2)])).unwrap();
            w.finish().unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            "{\"a\":1}\n{\"a\":2}\n"
        );
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let td = TempDir::new("nodb-json").unwrap();
        let p = td.file("w.jsonl");
        let s = Schema::parse("a int, b int").unwrap();
        let mut w = JsonlWriter::create(&p, &s, JsonlOptions::default()).unwrap();
        assert!(w.write_row(&Row(vec![Value::Int32(1)])).is_err());
    }

    #[test]
    fn control_chars_are_escaped() {
        let mut out = String::new();
        write_json_string(&mut out, "a\u{1}b\tc");
        assert_eq!(out, "\"a\\u0001b\\tc\"");
    }
}
