//! Property tests for the JSONL substrate.
//!
//! **Round-trip**: generated `Value` rows → `JsonlWriter` → `LineReader`
//! → tokenizer → values, over escapes, unicode, nulls (explicit and
//! omitted keys), CRLF line endings and missing trailing newlines.

use proptest::prelude::*;

use nodb_common::{DataType, LineFormat, Row, Schema, Value};
use nodb_csv::lines::LineReader;
use nodb_json::{JsonFormat, JsonlOptions, JsonlWriter};

const DTYPES: [DataType; 4] = [
    DataType::Int32,
    DataType::Text,
    DataType::Bool,
    DataType::Float64,
];

fn schema() -> Schema {
    Schema::parse("i int, t text, b bool, f double").unwrap()
}

type GenRow = (Option<i32>, Option<Vec<char>>, Option<bool>, Option<i32>);

/// What the tokenizer must give back for a generated row. The single
/// intentional normalization: an empty string reads as NULL (exactly
/// like the empty CSV field it corresponds to).
fn expected(row: &GenRow) -> Vec<Value> {
    vec![
        row.0.map_or(Value::Null, Value::Int32),
        match &row.1 {
            Some(cs) if !cs.is_empty() => Value::Text(cs.iter().collect()),
            _ => Value::Null,
        },
        row.2.map_or(Value::Null, Value::Bool),
        row.3
            .map_or(Value::Null, |v| Value::Float64(v as f64 / 64.0)),
    ]
}

fn as_values(row: &GenRow) -> Row {
    let mut v = expected(row);
    // Write the empty string as itself; it must *read back* as NULL.
    if let Some(cs) = &row.1 {
        if cs.is_empty() {
            v[1] = Value::Text(String::new());
        }
    }
    Row(v)
}

fn write_body(rows: &[GenRow], omit_nulls: bool, crlf: bool, trailing: bool) -> Vec<u8> {
    let td = nodb_common::TempDir::new("nodb-json-prop").unwrap();
    let p = td.file("r.jsonl");
    let mut w = JsonlWriter::create(&p, &schema(), JsonlOptions { omit_nulls }).unwrap();
    for r in rows {
        w.write_row(&as_values(r)).unwrap();
    }
    w.finish().unwrap();
    let mut body = std::fs::read(&p).unwrap();
    if crlf {
        let mut out = Vec::with_capacity(body.len() + rows.len());
        for &b in &body {
            if b == b'\n' {
                out.push(b'\r');
            }
            out.push(b);
        }
        body = out;
    }
    if !trailing {
        while matches!(body.last(), Some(b'\n') | Some(b'\r')) {
            body.pop();
        }
    }
    body
}

/// Read every record of `path` through `LineReader` + the tokenizer.
fn read_all(path: &std::path::Path) -> Vec<Vec<Value>> {
    let format = JsonFormat::from_schema(&schema());
    let mut r = LineReader::open(path).unwrap();
    let mut line = Vec::new();
    let mut out = Vec::new();
    while r.next_line(&mut line).unwrap().is_some() {
        let mut starts = Vec::new();
        format
            .positions_upto(&line, DTYPES.len() - 1, &mut starts)
            .unwrap();
        out.push(
            starts
                .iter()
                .zip(DTYPES)
                .map(|(&s, dt)| format.parse_at(&line, s, dt).unwrap())
                .collect(),
        );
    }
    out
}

fn row_strategy() -> impl Strategy<Value = GenRow> {
    (
        proptest::option::of(any::<i32>()),
        proptest::option::of(proptest::collection::vec(any::<char>(), 0..8)),
        proptest::option::of(any::<bool>()),
        proptest::option::of(any::<i32>()),
    )
}

proptest! {
    /// writer → tokenizer → values is the identity (modulo the empty-
    /// string-is-NULL rule), whatever the layout knobs.
    #[test]
    fn jsonl_roundtrip(
        rows in proptest::collection::vec(row_strategy(), 0..25),
        omit_nulls in any::<bool>(),
        crlf in any::<bool>(),
        trailing in any::<bool>(),
    ) {
        let body = write_body(&rows, omit_nulls, crlf, trailing);
        let td = nodb_common::TempDir::new("nodb-json-prop").unwrap();
        let p = td.file("t.jsonl");
        std::fs::write(&p, &body).unwrap();
        let got = read_all(&p);
        prop_assert_eq!(got.len(), rows.len());
        for (g, r) in got.iter().zip(&rows) {
            prop_assert_eq!(g, &expected(r));
        }
    }
}
