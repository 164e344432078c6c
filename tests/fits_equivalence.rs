//! Differential proof that a FITS binary table is read by the same
//! in-situ scan as a CSV file: the same NULL-free rows are written in
//! both layouts, and every query of a shared corpus gives the same
//! answer from both — under every auxiliary-structure configuration and
//! the external-files baseline, cold, warm, after `drop_aux` and
//! re-warmed. The scan's value counters agree as well, except that a
//! FITS table keeps no positional map: its positions are computed.
//!
//! Also covered: a FITS file cut short inside its data fails with one
//! located error in every mode, a FITS table obeys a cache budget, and
//! SQL over FITS agrees with the procedural (CFITSIO-style) baseline.

use std::path::{Path, PathBuf};

use nodb::common::{ByteSize, Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig};
use nodb::csv::{CsvOptions, CsvWriter};
use nodb::fits::procedural::ProcAgg;
use nodb::fits::{FitsTable, FitsTableWriter, FitsType, ProceduralFits};

const SCHEMA: &str = "id int, big bigint, x double, tag text";
const ROWS: usize = 10_000;

/// Filters, projections, aggregates, grouping, ordering and LIMIT over
/// overlapping column sets, so the cache fills column by column.
const QUERIES: &[&str] = &[
    "select id, tag from t where x > 1200.0 order by id",
    "select tag, count(*), sum(big) from t group by tag order by tag",
    "select count(*) from t",
    "select min(x), max(x), avg(x), sum(id) from t where id >= 100",
    "select id, big, x, tag from t order by id limit 13",
    "select count(*) from t where tag = 'beta' and x < 600.0",
    "select big, tag from t where id < 5 order by big desc",
    "select id from t where big > 1000000200000 and tag <> 'alpha' order by id limit 20",
];

fn rows(n: usize) -> Vec<Row> {
    let tags = ["alpha", "beta", "gamma", "delta", "epsilon"];
    (0..n)
        .map(|i| {
            Row(vec![
                Value::Int32(i as i32),
                Value::Int64(1_000_000_000_000 + i as i64 * 37),
                Value::Float64(i as f64 / 8.0),
                Value::Text(tags[i % tags.len()].into()),
            ])
        })
        .collect()
}

struct Files {
    _td: TempDir,
    csv: PathBuf,
    fits: PathBuf,
}

fn files(n: usize) -> Files {
    let td = TempDir::new("nodb-fits-eq").unwrap();
    let (csv, fits) = (td.file("t.csv"), td.file("t.fits"));
    let rows = rows(n);
    let mut w = CsvWriter::create(&csv, CsvOptions::default()).unwrap();
    for r in &rows {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();
    let cols = [
        ("id", FitsType::J),
        ("big", FitsType::K),
        ("x", FitsType::D),
        ("tag", FitsType::A(8)),
    ];
    let mut w = FitsTableWriter::create(&fits, cols.map(|(n, t)| (n.into(), t)).to_vec()).unwrap();
    for r in &rows {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();
    Files { _td: td, csv, fits }
}

/// The configurations compared: every auxiliary-structure variant in
/// situ, and the external-files baseline.
fn cells() -> Vec<(&'static str, NoDbConfig, AccessMode)> {
    vec![
        (
            "postgres_raw",
            NoDbConfig::postgres_raw(),
            AccessMode::InSitu,
        ),
        ("pm_only", NoDbConfig::pm_only(), AccessMode::InSitu),
        ("cache_only", NoDbConfig::cache_only(), AccessMode::InSitu),
        ("baseline", NoDbConfig::baseline(), AccessMode::InSitu),
        (
            "external",
            NoDbConfig::postgres_raw(),
            AccessMode::ExternalFiles,
        ),
    ]
}

fn csv_engine(path: &Path, config: NoDbConfig, mode: AccessMode) -> NoDb {
    let mut db = NoDb::new(config).unwrap();
    let schema = Schema::parse(SCHEMA).unwrap();
    db.register_csv("t", path, schema, CsvOptions::default(), mode)
        .unwrap();
    db
}

fn fits_engine(path: &Path, config: NoDbConfig, mode: AccessMode) -> NoDb {
    let mut db = NoDb::new(config).unwrap();
    db.register_fits("t", path, mode).unwrap();
    db
}

fn answer(db: &NoDb, sql: &str) -> Vec<String> {
    let r = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    r.rows.iter().map(|r| r.to_string()).collect()
}

#[test]
fn fits_and_csv_answer_alike_in_every_mode() {
    let f = files(ROWS);
    for (label, config, mode) in cells() {
        let csv = csv_engine(&f.csv, config.clone(), mode);
        let fits = fits_engine(&f.fits, config, mode);
        for pass in ["cold", "warm", "dropped", "rewarmed"] {
            if pass == "dropped" {
                csv.drop_aux("t").unwrap();
                fits.drop_aux("t").unwrap();
            }
            for sql in QUERIES {
                let want = answer(&csv, sql);
                assert_eq!(answer(&fits, sql), want, "{label} {pass}: {sql}");
            }
        }
        if mode == AccessMode::ExternalFiles {
            // Nothing is kept: a second scan tokenizes exactly what the
            // first did, and no value comes from a map, an anchor or the
            // cache.
            for db in [&csv, &fits] {
                let before = db.metrics("t").unwrap();
                answer(db, QUERIES[0]);
                let once = db.metrics("t").unwrap();
                answer(db, QUERIES[0]);
                let twice = db.metrics("t").unwrap();
                assert_eq!(
                    twice.fields_tokenized - once.fields_tokenized,
                    once.fields_tokenized - before.fields_tokenized,
                    "{label}"
                );
                assert_eq!(
                    (
                        twice.fields_via_map,
                        twice.fields_via_anchor,
                        twice.fields_from_cache
                    ),
                    (0, 0, 0),
                    "{label}"
                );
            }
            continue;
        }
        // Values come from the file or the cache alike; positions come
        // from the map only for CSV.
        let (c, m) = (csv.metrics("t").unwrap(), fits.metrics("t").unwrap());
        assert_eq!(m.scans, c.scans, "{label}");
        assert_eq!(m.rows_emitted, c.rows_emitted, "{label}");
        assert_eq!(m.fields_parsed, c.fields_parsed, "{label}");
        assert_eq!(m.fields_from_cache, c.fields_from_cache, "{label}");
        assert_eq!((m.fields_via_map, m.fields_via_anchor), (0, 0), "{label}");
        let (c, a) = (csv.aux_info("t").unwrap(), fits.aux_info("t").unwrap());
        assert_eq!(a.cache_bytes, c.cache_bytes, "{label}");
        assert_eq!(a.stats_attrs, c.stats_attrs, "{label}");
        assert_eq!(a.posmap_bytes, 0, "{label}: positions are computed");
    }
}

/// The planner sees a FITS table's statistics as it sees a CSV table's.
#[test]
fn fits_tables_collect_planner_statistics() {
    let f = files(ROWS);
    let csv = csv_engine(&f.csv, NoDbConfig::postgres_raw(), AccessMode::InSitu);
    let fits = fits_engine(&f.fits, NoDbConfig::postgres_raw(), AccessMode::InSitu);
    let sql = "select tag from t where x < 100.0";
    assert_eq!(fits.explain(sql).unwrap(), csv.explain(sql).unwrap());
    for db in [&csv, &fits] {
        db.query("select id, big, x, tag from t").unwrap();
    }
    assert_eq!(fits.aux_info("t").unwrap().stats_attrs, 4);
    assert_eq!(fits.explain(sql).unwrap(), csv.explain(sql).unwrap());
}

/// A file cut short inside its data region fails the same located way
/// under every configuration, on the first query and again on the next.
#[test]
fn fits_cut_short_fails_typed_and_located_in_every_mode() {
    let f = files(ROWS);
    let t = FitsTable::open(&f.fits).unwrap();
    let row = 5_000u64;
    let at = t.data_start + row * t.row_bytes as u64;
    let file = std::fs::OpenOptions::new().write(true).open(&f.fits);
    file.unwrap().set_len(at + 3).unwrap();
    let want = format!(
        "parse error: {}, row {row}, byte {at}: the file ends at byte {}, inside its data, \
         which ends at byte {}",
        f.fits.display(),
        at + 3,
        t.data_end().unwrap()
    );
    for (label, config, mode) in cells() {
        let db = fits_engine(&f.fits, config, mode);
        for _ in 0..2 {
            let err = db.query("select sum(x) from t").unwrap_err().to_string();
            assert_eq!(err, want, "{label}");
        }
    }
}

#[test]
fn fits_table_stays_within_its_cache_budget() {
    let f = files(ROWS);
    let full = fits_engine(&f.fits, NoDbConfig::postgres_raw(), AccessMode::InSitu);
    for sql in QUERIES {
        full.query(sql).unwrap();
    }
    let full_bytes = full.aux_info("t").unwrap().cache_bytes;
    let budget = ByteSize(full_bytes as u64 / 3);
    let config = NoDbConfig {
        cache_budget: Some(budget),
        ..NoDbConfig::postgres_raw()
    };
    let capped = fits_engine(&f.fits, config, AccessMode::InSitu);
    for _ in 0..2 {
        for sql in QUERIES {
            assert_eq!(answer(&capped, sql), answer(&full, sql), "{sql}");
            let cached = capped.aux_info("t").unwrap().cache_bytes;
            assert!(
                cached <= budget.bytes() as usize,
                "{sql}: {cached} > {budget:?}"
            );
        }
    }
}

#[test]
fn fits_scan_projects_and_filters() {
    let f = files(ROWS);
    let db = fits_engine(&f.fits, NoDbConfig::postgres_raw(), AccessMode::InSitu);
    let r = db.query("select id, x from t where id < 100").unwrap();
    assert_eq!(r.rows.len(), 100);
    assert_eq!(r.rows[5], Row(vec![Value::Int32(5), Value::Float64(0.625)]));
}

/// A repeated scan of a column reads no raw byte; a new column reads
/// the file again.
#[test]
fn fits_second_scan_is_served_from_cache() {
    let f = files(ROWS);
    let db = fits_engine(&f.fits, NoDbConfig::postgres_raw(), AccessMode::InSitu);
    db.query("select sum(x) from t").unwrap();
    let (read1, parsed1) = (db.profile("t").unwrap().io_bytes, db.metrics("t").unwrap());
    assert!(read1 > 0);
    assert!(db.aux_info("t").unwrap().cache_bytes > 0);
    db.query("select sum(x) from t").unwrap();
    let m = db.metrics("t").unwrap();
    assert_eq!(db.profile("t").unwrap().io_bytes, read1, "no raw byte read");
    assert_eq!(m.fields_parsed, parsed1.fields_parsed);
    assert_eq!(m.fields_from_cache, ROWS as u64);
    db.query("select sum(big) from t").unwrap();
    assert!(db.profile("t").unwrap().io_bytes > read1);
    assert_eq!(db.metrics("t").unwrap().fields_parsed, 2 * ROWS as u64);
}

#[test]
fn fits_agrees_with_the_procedural_baseline() {
    let f = files(ROWS);
    let db = fits_engine(&f.fits, NoDbConfig::postgres_raw(), AccessMode::InSitu);
    let mut proc = ProceduralFits::open(&f.fits).unwrap();
    for (agg, sql) in [
        (ProcAgg::Max, "select max(x) from t"),
        (ProcAgg::Min, "select min(x) from t"),
    ] {
        let got = db.query(sql).unwrap().rows[0].get(0).as_f64();
        assert_eq!(got, Some(proc.aggregate("x", agg).unwrap()), "{sql}");
    }
}

#[test]
fn fits_tables_cannot_be_loaded() {
    let f = files(10);
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    let err = db
        .register_fits("t", &f.fits, AccessMode::Loaded)
        .unwrap_err();
    assert!(err.to_string().contains("only CSV tables"), "{err}");
}
