//! Session-API coverage: prepared statements with parameter binding and
//! lazy query cursors.
//!
//! Two properties are proved here:
//!
//! * **Differential** — a statement prepared once and executed with
//!   bound parameters returns rows identical to the equivalent SQL with
//!   the values inlined as literals, across cold→warm transitions and
//!   CSV and JSONL physical layouts. Preparation
//!   happens once per statement; nothing about re-execution may leak
//!   into results.
//! * **Laziness** — `query_stream` pulls rows through the Volcano tree
//!   on demand, so a `LIMIT k` (or an early-dropped cursor) provably
//!   stops the underlying raw-file scan early ([`ScanMetrics`] shows a
//!   fraction of the file's bytes/rows touched), and the auxiliary
//!   structures the partial scan *did* build keep serving the next
//!   query.

use std::path::{Path, PathBuf};

use nodb::common::{Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig, Params};
use nodb::csv::{CsvOptions, CsvWriter};
use nodb::json::{JsonlOptions, JsonlWriter};

const SCHEMA: &str = "id int, grp text, score double, day date, big bigint";

/// Deterministic mixed-type rows (with NULLs) shared by both layouts.
fn data_rows(n: usize) -> Vec<Row> {
    let groups = ["alpha", "beta", "gamma", "delta", "epsilon"];
    (0..n)
        .map(|i| {
            Row(vec![
                Value::Int32(i as i32),
                if i % 13 == 12 {
                    Value::Null
                } else {
                    Value::Text(groups[i % groups.len()].into())
                },
                if i % 7 == 6 {
                    Value::Null
                } else {
                    Value::Float64((i % 1000) as f64 / 8.0)
                },
                Value::Date(
                    nodb::common::Date::parse(&format!("2026-{:02}-{:02}", 1 + i % 12, 1 + i % 28))
                        .unwrap(),
                ),
                Value::Int64(1_000_000_000_000 + i as i64 * 37),
            ])
        })
        .collect()
}

struct Fixture {
    _td: TempDir,
    csv: PathBuf,
    jsonl: PathBuf,
    schema: Schema,
}

fn fixture(rows: usize) -> Fixture {
    let td = TempDir::new("nodb-prepared").unwrap();
    let schema = Schema::parse(SCHEMA).unwrap();
    let data = data_rows(rows);
    let csv = td.file("t.csv");
    let mut w = CsvWriter::create(&csv, CsvOptions::default()).unwrap();
    for r in &data {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();
    let jsonl = td.file("t.jsonl");
    let mut w = JsonlWriter::create(&jsonl, &schema, JsonlOptions::default()).unwrap();
    for r in &data {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();
    Fixture {
        _td: td,
        csv,
        jsonl,
        schema,
    }
}

fn engine(f: &Fixture, format: &str) -> NoDb {
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    match format {
        "csv" => db
            .register_csv(
                "t",
                &f.csv,
                f.schema.clone(),
                CsvOptions::default(),
                AccessMode::InSitu,
            )
            .unwrap(),
        "jsonl" => db
            .register_jsonl("t", &f.jsonl, f.schema.clone(), AccessMode::InSitu)
            .unwrap(),
        other => panic!("unknown format {other}"),
    }
    db
}

/// One parameterized statement, its literal-inlined twin, and the
/// bindings to sweep. `{0}`/`{1}` in the literal template are replaced
/// textually with each binding.
struct Case {
    prepared: &'static str,
    literal: &'static str,
    bindings: &'static [&'static [&'static str]],
}

const CASES: &[Case] = &[
    Case {
        prepared: "select id, score from t where big < ? order by id",
        literal: "select id, score from t where big < {0} order by id",
        bindings: &[&["1000000001000"], &["1000000200000"], &["999999999999"]],
    },
    Case {
        prepared: "select grp, count(*) n, sum(score) from t \
                   where score between $1 and $2 group by grp order by grp",
        literal: "select grp, count(*) n, sum(score) from t \
                  where score between {0} and {1} group by grp order by grp",
        bindings: &[&["10.0", "50.0"], &["0.0", "124.875"], &["90.0", "20.0"]],
    },
    Case {
        prepared: "select count(*) from t where day >= ? and grp = ?",
        literal: "select count(*) from t where day >= date {0} and grp = {1}",
        bindings: &[
            &["2026-06-01", "alpha"],
            &["2026-01-01", "delta"],
            &["2026-12-01", "nope"],
        ],
    },
    Case {
        prepared: "select id from t where id = $1 or big < $2 order by id",
        literal: "select id from t where id = {0} or big < {1} order by id",
        bindings: &[&["17", "1000000000500"], &["4000", "1000000000000"]],
    },
    // Parameters inside an IN list (desugared to an OR-chain at bind
    // time) — the common "WHERE key IN (?, ?)" client shape.
    Case {
        prepared: "select id, grp from t where grp in (?, ?) order by id",
        literal: "select id, grp from t where grp in ({0}, {1}) order by id",
        bindings: &[
            &["alpha", "gamma"],
            &["beta", "beta"],
            &["nope", "also-nope"],
        ],
    },
    Case {
        prepared: "select count(*) from t where id not in ($1, $2, $3)",
        literal: "select count(*) from t where id not in ({0}, {1}, {2})",
        bindings: &[&["0", "1", "2"], &["5999", "17", "40000"]],
    },
    // A parameter as the LIKE pattern, typed Text at bind time.
    Case {
        prepared: "select id from t where grp like ? order by id",
        literal: "select id from t where grp like {0} order by id",
        bindings: &[&["al%"], &["%ta"], &["%e%"], &["delta"]],
    },
];

/// Render one literal binding into the template (strings/dates quoted).
fn inline(template: &str, binding: &[&str]) -> String {
    let mut out = template.to_string();
    for (i, v) in binding.iter().enumerate() {
        let needs_quotes = v.parse::<f64>().is_err();
        let rendered = if needs_quotes {
            format!("'{v}'")
        } else {
            (*v).to_string()
        };
        out = out.replace(&format!("{{{i}}}"), &rendered);
    }
    out
}

/// Bind one textual value as a typed parameter (ints as Int64, floats
/// as Float64, everything else as text — exactly the types literal SQL
/// would produce; dates coerce from text via the bind-time type).
fn params_of(binding: &[&str]) -> Params {
    let mut p = Params::new();
    for v in binding {
        if let Ok(i) = v.parse::<i64>() {
            p.push(i);
        } else if let Ok(f) = v.parse::<f64>() {
            p.push(f);
        } else {
            p.push(*v);
        }
    }
    p
}

/// The core differential matrix: CSV & JSONL, each
/// statement prepared once and swept over its bindings twice — first
/// against a cold table (no aux structures), then warm (map + cache +
/// stats populated by the first sweep, so the refreshed plans run
/// against different statistics). Every execution must equal its
/// literal-inlined twin on a separate, same-config engine.
#[test]
fn prepared_equals_literal_cold_and_warm() {
    let f = fixture(6_000);
    for format in ["csv", "jsonl"] {
        let prepared_db = engine(&f, format);
        let literal_db = engine(&f, format);
        for case in CASES {
            let stmt = prepared_db.prepare(case.prepared).unwrap();
            for pass in ["cold", "warm"] {
                for binding in case.bindings {
                    let got = stmt.query(&params_of(binding)).unwrap();
                    let want = literal_db.query(&inline(case.literal, binding)).unwrap();
                    assert_eq!(
                        got.rows, want.rows,
                        "{format}/{pass}: `{}` bound {binding:?}",
                        case.prepared
                    );
                    assert_eq!(got.schema.types(), want.schema.types());
                }
            }
        }
    }
}

/// Re-executing a prepared statement must also agree with itself across
/// formats (same logical table): one statement per engine, three
/// executions each, all row-identical.
#[test]
fn prepared_reexecution_is_stable_across_engines() {
    let f = fixture(4_000);
    let sql = "select grp, count(*) from t where score < ? group by grp order by grp";
    let p = Params::new().bind(60.0);
    let mut reference: Option<Vec<Row>> = None;
    for format in ["csv", "jsonl"] {
        let db = engine(&f, format);
        let stmt = db.prepare(sql).unwrap();
        for round in 0..3 {
            let rows = stmt.query(&p).unwrap().rows;
            match &reference {
                None => reference = Some(rows),
                Some(want) => assert_eq!(&rows, want, "{format} round {round}"),
            }
        }
    }
}

/// LIMIT k through `query_stream` provably stops the cold scan early:
/// the engine tokenizes a small prefix of the file (block granularity),
/// not the whole of it — and the partially built auxiliary structures
/// serve the next query instead of being thrown away.
#[test]
fn limit_stops_the_scan_early_and_partial_aux_survives() {
    let f = fixture(40_000);
    for format in ["csv", "jsonl"] {
        let path: &Path = if format == "csv" { &f.csv } else { &f.jsonl };
        let file_len = std::fs::metadata(path).unwrap().len();
        // Single-threaded: the sequential cold path streams
        // block-at-a-time (the parallel pass stages the whole tail and
        // deliberately trades LIMIT early-exit for throughput).
        let db = engine(&f, format);

        let cursor = db.query_stream("select id, grp from t limit 25").unwrap();
        let rows: Vec<Row> = cursor.map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 25, "{format}");

        let m = db.metrics("t").unwrap();
        // 25 rows need one 4096-row positional-map block, i.e. a small
        // fraction of the 40k-row file, in bytes and in rows.
        assert!(
            m.bytes_tokenized * 4 < file_len,
            "{format}: tokenized {} of {file_len} bytes — scan did not stop early",
            m.bytes_tokenized
        );
        assert!(
            m.rows_emitted < 10_000,
            "{format}: {} rows pulled through the scan",
            m.rows_emitted
        );

        // The prefix the scan DID cover left usable aux structures…
        let aux = db.aux_info("t").unwrap();
        assert!(aux.posmap_pointers > 0, "{format}: no positions kept");

        // …and the next (full) query both is correct and reuses them.
        let full = db
            .query("select count(*), min(id), max(id) from t")
            .unwrap();
        assert_eq!(
            full.rows[0],
            Row(vec![
                Value::Int64(40_000),
                Value::Int32(0),
                Value::Int32(39_999)
            ]),
            "{format}"
        );
        let m2 = db.metrics("t").unwrap();
        assert!(
            m2.fields_via_map + m2.fields_from_cache > 0,
            "{format}: full query did not reuse the partial aux structures"
        );
    }
}

/// Dropping a cursor mid-stream (no LIMIT in the SQL at all) stops the
/// scan just the same — the consumer, not the query shape, decides how
/// much work happens.
#[test]
fn abandoned_cursor_stops_the_scan() {
    let f = fixture(40_000);
    let db = engine(&f, "csv");
    let file_len = std::fs::metadata(&f.csv).unwrap().len();

    let mut cursor = db.query_stream("select id from t").unwrap();
    for _ in 0..10 {
        cursor.next().unwrap().unwrap();
    }
    drop(cursor);

    let m = db.metrics("t").unwrap();
    assert!(
        m.bytes_tokenized * 4 < file_len,
        "tokenized {} of {file_len} bytes after abandoning the cursor",
        m.bytes_tokenized
    );
    // The engine remains fully usable; the file was not left mid-state.
    let r = db.query("select count(*) from t").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(40_000));
}

/// Statements prepared before any statistics exist keep working as the
/// table warms up, and parameter re-binding sees refreshed plans (the
/// staleness the execute-time optimizer pass exists to prevent). The
/// observable contract: results never change, only the work profile.
#[test]
fn statement_outlives_cold_to_warm_transition() {
    let f = fixture(8_000);
    let db = engine(&f, "csv");
    let stmt = db
        .prepare("select grp, sum(score) from t where id < ? group by grp order by grp")
        .unwrap();
    // Cold execution populates aux structures…
    let cold = stmt.query(&Params::new().bind(6_000i64)).unwrap();
    // …warm re-execution of the SAME statement object with a DIFFERENT
    // binding reads through map/cache.
    let warm = stmt.query(&Params::new().bind(6_000i64)).unwrap();
    assert_eq!(cold.rows, warm.rows);
    let m = db.metrics("t").unwrap();
    assert!(
        m.fields_via_map + m.fields_from_cache > 0,
        "warm re-execution did not touch the aux structures"
    );
    let other = stmt.query(&Params::new().bind(100i64)).unwrap();
    let literal = db
        .query("select grp, sum(score) from t where id < 100 group by grp order by grp")
        .unwrap();
    assert_eq!(other.rows, literal.rows);
}
