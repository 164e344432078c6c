//! Differential proof that the format-generic scan core treats CSV and
//! JSON Lines as *the same table*: the identical logical rows are written
//! in both physical layouts, every query of a shared corpus (filters,
//! aggregates, joins, LIMIT, EXISTS) runs against both, and results must
//! match row for row — cold, warm, after `drop_aux` and re-warmed.
//! Beyond results, the adaptive machinery must
//! *behave* identically: positional-map/cache hit counters and pointer
//! counts are format-independent, because the map stores positions and
//! the cache stores converted values, neither of which depends on how
//! bytes were laid out.
//!
//! Also covered here (error-path normalization): malformed records in
//! either format must surface `nodb-common` parse errors that name the
//! file, the row and the byte offset of the record.

use std::path::{Path, PathBuf};

use nodb::common::{Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig, ScanMetrics};
use nodb::csv::{CsvOptions, CsvWriter};
use nodb::json::{JsonlOptions, JsonlWriter};

const T_SCHEMA: &str = "id int, grp text, score double, flag bool, day date, note text, big bigint";
const U_SCHEMA: &str = "uid int, bonus int";

/// The shared query corpus: every shape the engine supports, hitting
/// overlapping attribute sets so the positional map re-combines chunks
/// and the cache fills incrementally.
const QUERIES: &[&str] = &[
    "select id, note from t where score > 6.0",
    "select grp, count(*), sum(score) from t group by grp order by grp",
    "select count(*) from t",
    "select id, flag, day from t order by id limit 13",
    "select min(score), max(score), sum(big) from t where id >= 100",
    "select count(*) from t where note is null",
    "select id, bonus from t join u on id = uid where bonus > 50 order by id, bonus",
    "select count(*) from t where exists (select * from u where uid = id)",
    "select grp, count(*) from t where grp = 'beta' and score < 9.0 group by grp order by grp",
];

/// Deterministic mixed-type rows with NULLs sprinkled into every column.
/// Text stays free of delimiters/newlines (a CSV physical limitation);
/// everything else — quotes, backslashes, tabs, unicode — is fair game
/// and exercises JSON escaping against CSV verbatim bytes.
fn t_rows(n: usize) -> Vec<Row> {
    let groups = ["alpha", "beta", "gamma", "delta"];
    let notes = [
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "tab\there",
        "caf\u{e9} \u{2603}",
        "",
    ];
    (0..n)
        .map(|i| {
            let null = |k: usize| i % k == k - 1;
            Row(vec![
                Value::Int32(i as i32),
                if null(13) {
                    Value::Null
                } else {
                    Value::Text(groups[i % groups.len()].into())
                },
                if null(7) {
                    Value::Null
                } else {
                    Value::Float64((i % 100) as f64 / 8.0)
                },
                if null(17) {
                    Value::Null
                } else {
                    Value::Bool(i % 3 == 0)
                },
                if null(11) {
                    Value::Null
                } else {
                    Value::Date(
                        nodb::common::Date::parse(&format!("2020-01-{:02}", 1 + i % 28)).unwrap(),
                    )
                },
                if null(5) {
                    Value::Null
                } else {
                    Value::Text(notes[i % notes.len()].into())
                },
                Value::Int64(1_000_000_000_000 + i as i64 * 37),
            ])
        })
        .collect()
}

fn u_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row(vec![
                Value::Int32((i * 2) as i32), // joins with every even t.id
                Value::Int32((i % 120) as i32),
            ])
        })
        .collect()
}

fn write_csv(path: &Path, schema: &Schema, rows: &[Row]) {
    let _ = schema;
    let mut w = CsvWriter::create(path, CsvOptions::default()).unwrap();
    for r in rows {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();
}

fn write_jsonl(path: &Path, schema: &Schema, rows: &[Row], opts: JsonlOptions) {
    let mut w = JsonlWriter::create(path, schema, opts).unwrap();
    for r in rows {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();
}

struct Fixture {
    _td: TempDir,
    t_csv: PathBuf,
    t_jsonl: PathBuf,
    t_jsonl_sparse: PathBuf,
    u_csv: PathBuf,
    u_jsonl: PathBuf,
    t_schema: Schema,
    u_schema: Schema,
}

fn fixture(rows: usize) -> Fixture {
    let td = TempDir::new("nodb-fmt-eq").unwrap();
    let t_schema = Schema::parse(T_SCHEMA).unwrap();
    let u_schema = Schema::parse(U_SCHEMA).unwrap();
    let t = t_rows(rows);
    let u = u_rows(rows / 2);
    let f = Fixture {
        t_csv: td.file("t.csv"),
        t_jsonl: td.file("t.jsonl"),
        t_jsonl_sparse: td.file("t_sparse.jsonl"),
        u_csv: td.file("u.csv"),
        u_jsonl: td.file("u.jsonl"),
        t_schema,
        u_schema,
        _td: td,
    };
    write_csv(&f.t_csv, &f.t_schema, &t);
    write_jsonl(&f.t_jsonl, &f.t_schema, &t, JsonlOptions::default());
    // The same rows with NULL keys *omitted* instead of explicit `null`.
    write_jsonl(
        &f.t_jsonl_sparse,
        &f.t_schema,
        &t,
        JsonlOptions { omit_nulls: true },
    );
    write_csv(&f.u_csv, &f.u_schema, &u);
    write_jsonl(&f.u_jsonl, &f.u_schema, &u, JsonlOptions::default());
    f
}

fn config() -> NoDbConfig {
    let mut cfg = NoDbConfig::postgres_raw();
    // Small blocks so the corpus spans many positional-map blocks.
    cfg.posmap_block_rows = 256;
    cfg
}

fn csv_engine(f: &Fixture) -> NoDb {
    let mut db = NoDb::new(config()).unwrap();
    db.register_csv(
        "t",
        &f.t_csv,
        f.t_schema.clone(),
        CsvOptions::default(),
        AccessMode::InSitu,
    )
    .unwrap();
    db.register_csv(
        "u",
        &f.u_csv,
        f.u_schema.clone(),
        CsvOptions::default(),
        AccessMode::InSitu,
    )
    .unwrap();
    db
}

fn jsonl_engine(f: &Fixture, sparse: bool) -> NoDb {
    let mut db = NoDb::new(config()).unwrap();
    let t_path = if sparse {
        &f.t_jsonl_sparse
    } else {
        &f.t_jsonl
    };
    db.register_jsonl("t", t_path, f.t_schema.clone(), AccessMode::InSitu)
        .unwrap();
    db.register_jsonl("u", &f.u_jsonl, f.u_schema.clone(), AccessMode::InSitu)
        .unwrap();
    db
}

fn run_corpus(label: &str, csv: &NoDb, jsonl: &NoDb) {
    for q in QUERIES {
        let a = csv.query(q).unwrap();
        let b = jsonl.query(q).unwrap();
        assert_eq!(a.rows, b.rows, "{label}: `{q}`");
    }
}

/// The format-independent slice of the work counters: how many values
/// came from the map, an anchor, the cache, and conversion. (Byte/field
/// tokenization totals legitimately differ — JSONL lines are longer and
/// carry keys.)
fn hit_behavior(m: &ScanMetrics) -> (u64, u64, u64, u64, u64) {
    (
        m.scans,
        m.rows_emitted,
        m.fields_parsed,
        m.fields_from_cache,
        m.fields_via_map,
    )
}

fn assert_same_behavior(label: &str, csv: &NoDb, jsonl: &NoDb) {
    for table in ["t", "u"] {
        let mc = csv.metrics(table).unwrap();
        let mj = jsonl.metrics(table).unwrap();
        assert_eq!(
            hit_behavior(&mc),
            hit_behavior(&mj),
            "{label}: `{table}` (scans, rows, parsed, from_cache, via_map)"
        );
        assert_eq!(
            mc.fields_via_anchor, mj.fields_via_anchor,
            "{label}: `{table}` anchor jumps"
        );
        let ac = csv.aux_info(table).unwrap();
        let aj = jsonl.aux_info(table).unwrap();
        assert_eq!(
            ac.posmap_pointers, aj.posmap_pointers,
            "{label}: `{table}` positional pointers"
        );
        assert_eq!(ac.stats_attrs, aj.stats_attrs, "{label}: `{table}` stats");
    }
}

/// The tentpole acceptance test: CSV and JSONL produce identical results
/// and identical adaptive behavior across the whole lifecycle — cold →
/// warm → drop_aux → re-warm.
#[test]
fn csv_and_jsonl_agree_across_the_adaptivity_lifecycle() {
    let f = fixture(1000);
    let csv = csv_engine(&f);
    let jsonl = jsonl_engine(&f, false);

    run_corpus("cold", &csv, &jsonl);
    run_corpus("warm", &csv, &jsonl);
    assert_same_behavior("warm", &csv, &jsonl);

    csv.drop_aux("t").unwrap();
    csv.drop_aux("u").unwrap();
    jsonl.drop_aux("t").unwrap();
    jsonl.drop_aux("u").unwrap();

    run_corpus("re-cold", &csv, &jsonl);
    run_corpus("re-warm", &csv, &jsonl);
    assert_same_behavior("re-warm", &csv, &jsonl);
}

/// Omitting null keys from the objects must read back exactly like
/// explicit `"key": null` — and, transitively, like CSV.
#[test]
fn omitted_null_keys_match_explicit_nulls() {
    let f = fixture(400);
    let explicit = jsonl_engine(&f, false);
    let sparse = jsonl_engine(&f, true);
    for q in QUERIES {
        let a = explicit.query(q).unwrap();
        let b = sparse.query(q).unwrap();
        assert_eq!(a.rows, b.rows, "sparse vs explicit nulls: `{q}`");
    }
    // Warm pass too: missing-key knowledge lives in the positional map.
    for q in QUERIES {
        assert_eq!(
            explicit.query(q).unwrap().rows,
            sparse.query(q).unwrap().rows,
            "warm sparse vs explicit nulls: `{q}`"
        );
    }
}

/// ExternalFiles (the no-aux straw man) also runs both formats.
#[test]
fn external_files_mode_serves_jsonl() {
    let f = fixture(300);
    let mut db = NoDb::new(NoDbConfig::baseline()).unwrap();
    db.register_jsonl(
        "t",
        &f.t_jsonl,
        f.t_schema.clone(),
        AccessMode::ExternalFiles,
    )
    .unwrap();
    let mut csv = NoDb::new(NoDbConfig::baseline()).unwrap();
    csv.register_csv(
        "t",
        &f.t_csv,
        f.t_schema.clone(),
        CsvOptions::default(),
        AccessMode::ExternalFiles,
    )
    .unwrap();
    for q in &QUERIES[..6] {
        assert_eq!(
            csv.query(q).unwrap().rows,
            db.query(q).unwrap().rows,
            "external files: `{q}`"
        );
    }
}

/// Loaded mode is CSV-only; JSONL registration must say so up front.
#[test]
fn jsonl_rejects_loaded_mode() {
    let f = fixture(10);
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    let err = db
        .register_jsonl("t", &f.t_jsonl, f.t_schema.clone(), AccessMode::Loaded)
        .unwrap_err();
    assert!(err.to_string().contains("Loaded"), "{err}");
}

// ----- error-path normalization (file / row / byte diagnostics) ----------

#[test]
fn malformed_csv_reports_file_row_and_byte() {
    let td = TempDir::new("nodb-fmt-err").unwrap();
    let p = td.file("bad.csv");
    // Row 1 (starting at byte 4) has one field; the query needs two.
    std::fs::write(&p, "1,a\n2\n3,c\n").unwrap();
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_csv(
        "t",
        &p,
        Schema::parse("a int, b text").unwrap(),
        CsvOptions::default(),
        AccessMode::InSitu,
    )
    .unwrap();
    let err = db.query("select a, b from t").unwrap_err().to_string();
    assert!(err.contains("bad.csv"), "{err}");
    assert!(err.contains("row 1"), "{err}");
    assert!(err.contains("byte 4"), "{err}");
    assert!(err.contains("need at least 2"), "{err}");
}

#[test]
fn malformed_jsonl_reports_file_row_and_byte() {
    let td = TempDir::new("nodb-fmt-err").unwrap();
    let p = td.file("bad.jsonl");
    // Row 1 starts at byte 8 and is truncated mid-object.
    std::fs::write(&p, "{\"a\":1}\n{\"a\": \n{\"a\":3}\n").unwrap();
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_jsonl("t", &p, Schema::parse("a int").unwrap(), AccessMode::InSitu)
        .unwrap();
    let err = db.query("select a from t").unwrap_err().to_string();
    assert!(err.contains("bad.jsonl"), "{err}");
    assert!(err.contains("row 1"), "{err}");
    assert!(err.contains("byte 8"), "{err}");
}

#[test]
fn unconvertible_values_name_the_column_in_both_formats() {
    let td = TempDir::new("nodb-fmt-err").unwrap();
    let cp = td.file("bad.csv");
    std::fs::write(&cp, "1\nxyz\n").unwrap();
    let jp = td.file("bad.jsonl");
    std::fs::write(&jp, "{\"a\":1}\n{\"a\":\"xyz\"}\n").unwrap();
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    let schema = Schema::parse("a int").unwrap();
    db.register_csv(
        "tc",
        &cp,
        schema.clone(),
        CsvOptions::default(),
        AccessMode::InSitu,
    )
    .unwrap();
    db.register_jsonl("tj", &jp, schema, AccessMode::InSitu)
        .unwrap();
    for (table, file) in [("tc", "bad.csv"), ("tj", "bad.jsonl")] {
        let err = db
            .query(&format!("select a from {table}"))
            .unwrap_err()
            .to_string();
        assert!(err.contains(file), "{err}");
        assert!(err.contains("column `a`"), "{err}");
        assert!(err.contains("row 1"), "{err}");
        assert!(err.contains("bad int"), "{err}");
    }
}

/// A record far past the first block fails with a diagnostic naming the
/// file, its global row and its byte offset.
#[test]
fn cold_scan_errors_carry_file_row_and_byte() {
    let td = TempDir::new("nodb-fmt-err").unwrap();
    let p = td.file("bad.jsonl");
    let mut body = String::new();
    for i in 0..500 {
        body.push_str(&format!("{{\"a\":{i}}}\n"));
    }
    let byte = body.len();
    body.push_str("{\"a\": oops}\n");
    std::fs::write(&p, body).unwrap();
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.posmap_block_rows = 64;
    let mut db = NoDb::new(cfg).unwrap();
    db.register_jsonl("t", &p, Schema::parse("a int").unwrap(), AccessMode::InSitu)
        .unwrap();
    let err = db.query("select a from t").unwrap_err().to_string();
    assert!(err.contains("bad.jsonl"), "{err}");
    assert!(err.contains(&format!("row 500, byte {byte}:")), "{err}");
}
