//! Property tests for the JSONL substrate.
//!
//! 1. **Round-trip**: generated `Value` rows → `JsonlWriter` → tokenizer →
//!    values, over escapes, unicode, nulls (explicit and omitted keys),
//!    CRLF line endings and missing trailing newlines.
//! 2. **Chunking**: `nodb_csv::split_line_aligned` — the format-agnostic
//!    line splitter behind parallel cold scans — partitions JSONL bodies
//!    into exactly-covering, record-aligned chunks (the JSONL mirror of
//!    the CSV chunking proptest).
//! 3. **Shared-source chunks**: chunks read through one shared
//!    `ByteSource` feed the tokenizer the whole file's record offsets, key
//!    positions and values.

use proptest::prelude::*;

use nodb_common::{ByteSource, DataType, IoBackend, LineFormat, Row, Schema, Value};
use nodb_csv::lines::{split_line_aligned, split_line_aligned_src, LineReader};
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

    /// Line-aligned chunking over JSONL bodies covers every byte exactly
    /// once, never splits a record, and reading the chunks in order
    /// reproduces the whole file's records — the invariant parallel cold
    /// scans rely on, independent of format.
    #[test]
    fn jsonl_chunking_partitions_records_exactly(
        rows in proptest::collection::vec(row_strategy(), 0..30),
        trailing in any::<bool>(),
        chunks in 1usize..9,
    ) {
        let body = write_body(&rows, false, false, trailing);
        let td = nodb_common::TempDir::new("nodb-json-prop").unwrap();
        let p = td.file("t.jsonl");
        std::fs::write(&p, &body).unwrap();
        let len = body.len() as u64;

        let ranges = split_line_aligned(&p, 0, len, chunks).unwrap();
        // Exact coverage: contiguous, non-empty, spanning [0, len).
        let mut covered = 0u64;
        for r in &ranges {
            prop_assert_eq!(r.start, covered);
            prop_assert!(r.end > r.start);
            covered = r.end;
        }
        prop_assert_eq!(covered, len);
        // Boundaries fall just past record terminators.
        for r in ranges.iter().skip(1) {
            prop_assert_eq!(body[r.start as usize - 1], b'\n');
        }
        // Chunked reads tokenize to exactly the whole-file records.
        let whole = read_all(&p);
        let format = JsonFormat::from_schema(&schema());
        let mut chunked = Vec::new();
        for range in &ranges {
            let mut r = LineReader::open_range(&p, *range).unwrap();
            let mut line = Vec::new();
            while r.next_line(&mut line).unwrap().is_some() {
                let mut starts = Vec::new();
                format.positions_upto(&line, DTYPES.len() - 1, &mut starts).unwrap();
                chunked.push(
                    starts
                        .iter()
                        .zip(DTYPES)
                        .map(|(&s, dt)| format.parse_at(&line, s, dt).unwrap())
                        .collect::<Vec<_>>(),
                );
            }
        }
        prop_assert_eq!(chunked, whole);
    }

    /// Chunks read through one shared source tokenize like the whole
    /// file: over arbitrary generated files (escapes, unicode, omitted
    /// keys, CRLF, missing trailing newline, empty files, more chunks than
    /// records) the per-chunk line offsets, tokenizer key positions and
    /// parsed values concatenate to the whole file's, whether each chunk
    /// re-opens the file or all of them share one source.
    #[test]
    fn jsonl_shared_source_chunks_tokenize_like_the_whole_file(
        rows in proptest::collection::vec(row_strategy(), 0..30),
        omit_nulls in any::<bool>(),
        crlf in any::<bool>(),
        trailing in any::<bool>(),
        chunks in 1usize..9,
    ) {
        let body = write_body(&rows, omit_nulls, crlf, trailing);
        let td = nodb_common::TempDir::new("nodb-json-prop").unwrap();
        let p = td.file("t.jsonl");
        std::fs::write(&p, &body).unwrap();
        let len = body.len() as u64;
        let format = JsonFormat::from_schema(&schema());

        // (line offset, key positions, values) per record.
        let tokenize_reader = |r: &mut LineReader| {
            let mut out = Vec::new();
            let mut line = Vec::new();
            while let Some(off) = r.next_line(&mut line).unwrap() {
                let line = line.as_slice();
                let mut starts = Vec::new();
                format.positions_upto(line, DTYPES.len() - 1, &mut starts).unwrap();
                let vals: Vec<Value> = starts
                    .iter()
                    .zip(DTYPES)
                    .map(|(&s, dt)| format.parse_at(line, s, dt).unwrap())
                    .collect();
                out.push((off, starts, vals));
            }
            out
        };
        let whole = tokenize_reader(&mut LineReader::open(&p).unwrap());
        prop_assert_eq!(whole.len(), rows.len());

        let src = std::sync::Arc::new(ByteSource::open(&p, IoBackend::Read).unwrap());
        let ranges = split_line_aligned_src(&src, 0, len, chunks).unwrap();
        prop_assert_eq!(&ranges, &split_line_aligned(&p, 0, len, chunks).unwrap());
        let mut private = Vec::new();
        let mut shared = Vec::new();
        for range in &ranges {
            private.extend(tokenize_reader(
                &mut LineReader::open_range(&p, *range).unwrap(),
            ));
            shared.extend(tokenize_reader(&mut LineReader::from_source(
                std::sync::Arc::clone(&src),
                *range,
            )));
        }
        prop_assert_eq!(&private, &whole);
        prop_assert_eq!(&shared, &whole);
    }
}
