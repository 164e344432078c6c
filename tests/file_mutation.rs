//! A raw file that shrinks under an open cursor.
//!
//! NoDB keeps the raw file as the only truth (§4), so a change to it must
//! never make the engine invent a row or crash. A cursor streams
//! `select a, b from t`; after its first row the file is cut to a line
//! boundary, and the cursor is drained. The process survives, every row
//! the cursor returns is a row of the original file, in order, and the
//! cursor ends either cleanly or with a typed I/O error. A fresh query
//! then answers exactly the truncated file.
//!
//! The file is larger than the line reader's buffer, so a cold scan must
//! read again after the cut; a warm scan reads each map-covered block's
//! bytes only when it reaches the block. Both therefore meet the cut,
//! except the chunk-parallel cold scan, which reads the whole file before
//! it hands out its first row. CSV and JSON Lines, at one and four
//! cold-scan threads.

use nodb::common::{NoDbError, Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig};
use nodb::csv::CsvOptions;

const ROWS: usize = 120_000;
/// Rows left after the cut.
const KEPT: usize = ROWS / 2;

fn line(i: usize, jsonl: bool) -> String {
    if jsonl {
        format!("{{\"a\":{i},\"b\":{}}}\n", 3 * i)
    } else {
        format!("{i},{}\n", 3 * i)
    }
}

fn row(i: usize) -> Row {
    Row(vec![Value::Int32(i as i32), Value::Int32(3 * i as i32)])
}

/// Cut the file under a cursor that has returned one row, drain it, and
/// query afresh. `warm` first indexes every line start with `COUNT(*)`,
/// so the cursor runs through the map-assisted path.
fn truncate_under_cursor(jsonl: bool, threads: usize, warm: bool) {
    let ctx = format!(
        "{} threads={threads} {}",
        if jsonl { "jsonl" } else { "csv" },
        if warm { "warm" } else { "cold" }
    );
    let td = TempDir::new("nodb-file-mutation").unwrap();
    let path = td.file(if jsonl { "t.jsonl" } else { "t.csv" });
    let text: String = (0..ROWS).map(|i| line(i, jsonl)).collect();
    std::fs::write(&path, &text).unwrap();
    let cut: usize = (0..KEPT).map(|i| line(i, jsonl).len()).sum();

    let schema = Schema::parse("a int, b int").unwrap();
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.scan_threads = threads;
    let mut db = NoDb::new(cfg).unwrap();
    if jsonl {
        db.register_jsonl("t", &path, schema, AccessMode::InSitu)
    } else {
        db.register_csv(
            "t",
            &path,
            schema,
            CsvOptions::default(),
            AccessMode::InSitu,
        )
    }
    .unwrap();
    if warm {
        let count = db.query("select count(*) from t").unwrap();
        assert_eq!(count.rows[0].get(0), &Value::Int64(ROWS as i64), "{ctx}");
    }

    let mut cursor = db.query_stream("select a, b from t").unwrap();
    assert_eq!(cursor.next().unwrap().unwrap(), row(0), "{ctx}");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(cut as u64)
        .unwrap();
    let mut returned = 1;
    let mut end = None;
    for r in cursor {
        match r {
            Ok(r) => {
                assert!(returned < ROWS, "{ctx}: more rows than the file held");
                assert_eq!(r, row(returned), "{ctx}: not the original file's row");
                returned += 1;
            }
            Err(e) => {
                end = Some(e);
                break;
            }
        }
    }
    match end {
        None => assert!(
            !warm && threads > 1,
            "{ctx}: ended cleanly after {returned} rows without reading past the cut"
        ),
        Some(NoDbError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{ctx}: {e}")
        }
        Some(e) => panic!("{ctx}: ended with an error other than a short read: {e}"),
    }

    let rows = db.query("select a, b from t").unwrap().rows;
    assert_eq!(rows.len(), KEPT, "{ctx}");
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r, &row(i), "{ctx}: fresh query, row {i}");
    }
    let count = db.query("select count(*) from t").unwrap();
    assert_eq!(count.rows[0].get(0), &Value::Int64(KEPT as i64), "{ctx}");
}

#[test]
fn truncation_under_a_cold_cursor() {
    for jsonl in [false, true] {
        for threads in [1, 4] {
            truncate_under_cursor(jsonl, threads, false);
        }
    }
}

#[test]
fn truncation_under_a_warm_cursor() {
    for jsonl in [false, true] {
        for threads in [1, 4] {
            truncate_under_cursor(jsonl, threads, true);
        }
    }
}
