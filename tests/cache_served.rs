//! Answers of the batch executor — and of cache-served blocks in
//! particular — against an engine that keeps no auxiliary structure at
//! all (`NoDbConfig::baseline()`, which re-reads and re-parses the raw
//! file for every query). A map-covered block whose WHERE columns are
//! completely cached and whose SELECT columns all have a cache entry is
//! formed column at a time from the cache rather than row by row from
//! the file; every row it emits must still be the baseline's, across
//!
//! * a corpus of every operator the engine lowers, over CSV and JSON
//!   Lines × 1 and 4 cold-scan worker threads × both I/O substrates
//!   (`Read` and `Mmap`), cold (structure-building) and warm
//!   (structure-serving),
//! * cache-served blocks, the fallback from them to the row kernel when
//!   a SELECT column has a hole, and a LIMIT across both, and
//! * a LIMIT over a join whose filter fails on a later match.

use std::path::PathBuf;

use nodb::common::{IoBackend, Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig, ScanMetrics};
use nodb::csv::{CsvOptions, CsvWriter};
use nodb::json::{JsonlOptions, JsonlWriter};

const SCHEMA: &str = "id int, grp text, score double, flag bool, note text, big bigint";
const U_SCHEMA: &str = "uid int, bonus int";
const ROWS: usize = 997; // prime: no block or batch size divides it evenly

/// Every operator the engine lowers: selective scans, plain and grouped
/// aggregation (both strategies reachable), projection expressions,
/// short-circuiting predicates over nullable columns, sort, LIMIT
/// (early-exit), DISTINCT, join, EXISTS.
const QUERIES: &[&str] = &[
    "select id, note from t where score > 6.0",
    "select count(*) from t",
    "select grp, count(*), sum(score), min(big) from t group by grp order by grp",
    "select sum(score), max(score), count(big) from t where id >= 100",
    "select id, score * 2.0 + 1.0 from t where flag order by id limit 17",
    "select count(*) from t where grp is null or score < 3.0",
    "select count(*) from t where id <> 0 and big / id > 0",
    "select distinct grp from t order by grp",
    "select id, bonus from t join u on id = uid where bonus > 50 order by id, bonus",
    "select count(*) from t where exists (select * from u where uid = id)",
    "select id from t where note like 'with%' order by id",
    "select id, case when score > 9.0 then 'hi' when score > 4.0 then 'mid' else 'lo' end \
     from t where id < 40 order by id",
];

fn t_rows(n: usize) -> Vec<Row> {
    let groups = ["alpha", "beta", "gamma", "delta"];
    let notes = ["plain", "with \"quotes\"", "back\\slash", "caf\u{e9}", ""];
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
                Value::Int32((i * 2) as i32),
                Value::Int32((i % 120) as i32),
            ])
        })
        .collect()
}

struct Fixture {
    _td: TempDir,
    t_csv: PathBuf,
    t_jsonl: PathBuf,
    u_csv: PathBuf,
    schema: Schema,
    u_schema: Schema,
}

fn fixture() -> Fixture {
    let td = TempDir::new("nodb-cache-served").unwrap();
    let schema = Schema::parse(SCHEMA).unwrap();
    let u_schema = Schema::parse(U_SCHEMA).unwrap();
    let t = t_rows(ROWS);
    let u = u_rows(ROWS / 2);
    let f = Fixture {
        t_csv: td.file("t.csv"),
        t_jsonl: td.file("t.jsonl"),
        u_csv: td.file("u.csv"),
        schema,
        u_schema,
        _td: td,
    };
    let mut w = CsvWriter::create(&f.t_csv, CsvOptions::default()).unwrap();
    for r in &t {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();
    let mut w = JsonlWriter::create(&f.t_jsonl, &f.schema, JsonlOptions::default()).unwrap();
    for r in &t {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();
    let mut w = CsvWriter::create(&f.u_csv, CsvOptions::default()).unwrap();
    for r in &u {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();
    f
}

fn config(scan_threads: usize, io: IoBackend) -> NoDbConfig {
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.scan_threads = scan_threads;
    cfg.io_backend = io;
    // Small map blocks so batches straddle block boundaries and the
    // 4-thread runs cut real chunks out of this corpus.
    cfg.posmap_block_rows = 128;
    cfg
}

fn engine(f: &Fixture, cfg: NoDbConfig, jsonl: bool) -> NoDb {
    let mut db = NoDb::new(cfg).unwrap();
    if jsonl {
        db.register_jsonl("t", &f.t_jsonl, f.schema.clone(), AccessMode::InSitu)
            .unwrap();
    } else {
        db.register_csv(
            "t",
            &f.t_csv,
            f.schema.clone(),
            CsvOptions::default(),
            AccessMode::InSitu,
        )
        .unwrap();
    }
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

/// The corpus over format × threads × I/O backend, each engine run cold
/// then warm, row for row against the aux-free baseline.
#[test]
fn corpus_matches_the_aux_free_baseline() {
    let f = fixture();
    for jsonl in [false, true] {
        let reference = engine(&f, NoDbConfig::baseline(), jsonl);
        let want: Vec<Vec<Row>> = QUERIES
            .iter()
            .map(|q| reference.query(q).unwrap().rows)
            .collect();
        for threads in [1usize, 4] {
            for io in [IoBackend::Read, IoBackend::Mmap] {
                let db = engine(&f, config(threads, io), jsonl);
                let ctx = format!(
                    "{} threads={threads} io={io:?}",
                    if jsonl { "jsonl" } else { "csv" }
                );
                for pass in ["cold", "warm"] {
                    for (q, want) in QUERIES.iter().zip(&want) {
                        let got = db.query(q).unwrap().rows;
                        assert_eq!(&got, want, "{ctx} {pass}: rows differ for `{q}`");
                    }
                }
            }
        }
    }
}

/// An engine whose positional map is off, checked against one that keeps
/// no auxiliary structure. With the map on, its chunk re-combination rule
/// (a block whose columns sit in different chunks collects a new one, and
/// a collecting block is never cache-served) would decide which blocks
/// these cases serve from the cache.
struct Pair {
    db: NoDb,
    reference: NoDb,
}

impl Pair {
    fn new(f: &Fixture) -> Pair {
        let cached_only = NoDbConfig {
            enable_posmap: false,
            ..config(1, IoBackend::Read)
        };
        Pair {
            db: engine(f, cached_only, false),
            reference: engine(f, NoDbConfig::baseline(), false),
        }
    }

    /// Run `q` on both engines: rows must match the reference. Returns
    /// the rows and the engine's `t` counters before and after.
    fn step(&self, q: &str) -> (Vec<Row>, ScanMetrics, ScanMetrics) {
        let before = self.db.metrics("t").unwrap();
        let want = self.reference.query(q).unwrap().rows;
        assert_eq!(
            self.db.query(q).unwrap().rows,
            want,
            "rows differ for `{q}`"
        );
        (want, before, self.db.metrics("t").unwrap())
    }
}

/// Queries over cached columns: NULLs in WHERE and SELECT columns, a
/// conjunct that divides by a column its predecessor guards, text `IN`,
/// `LIKE` and `BETWEEN`, and `COUNT(*)`.
const CACHED_QUERIES: &[&str] = &[
    "select grp, score, flag from t where score is null or grp is null",
    "select id, note from t where flag",
    "select id, big from t where id <> 0 and 1000 / id > 100 order by id",
    "select id from t where grp in ('alpha', 'gamma') and note like 'with%' order by id",
    "select id, grp from t where grp between 'beta' and 'delta' and note not like 'p%'",
    "select count(*) from t",
    "select count(*) from t where score > 5.0",
    "select grp, count(*), sum(big) from t where score between 2.0 and 9.0 \
     group by grp order by grp",
];

/// Once their columns are cached, map-covered blocks are formed column at
/// a time (cache-served); their rows must not tell.
#[test]
fn cache_served_blocks_are_bit_identical() {
    let f = fixture();
    let pair = Pair::new(&f);
    for pass in ["cold", "warm", "served"] {
        for q in CACHED_QUERIES {
            let (_, before, after) = pair.step(q);
            if pass == "served" {
                // Nothing comes from the file.
                assert_eq!(after.fields_parsed, before.fields_parsed, "`{q}` re-parsed");
                assert_eq!(after.fields_tokenized, before.fields_tokenized, "`{q}`");
            }
        }
    }
}

/// A SELECT column cached only for the rows a narrow predicate kept has
/// holes on the rows a wider one keeps: those blocks fall back to the row
/// kernel, which parses the holes from the file.
#[test]
fn select_column_holes_fall_back_to_the_row_kernel() {
    let f = fixture();
    let pair = Pair::new(&f);
    pair.step("select note from t where id < 100");
    let (rows, before, after) = pair.step("select id, note from t where id < 500 order by id");
    assert_eq!(rows.len(), 500);
    assert!(after.fields_parsed > before.fields_parsed, "{after:?}");
    assert!(
        after.fields_from_cache > before.fields_from_cache,
        "{after:?}"
    );
    // Now every survivor is cached: served without touching the file.
    let (_, before, after) = pair.step("select id, note from t where id < 500 order by id");
    assert_eq!(after.fields_parsed, before.fields_parsed);
}

/// A LIMIT that takes the tail of a row-kernel block and the head of a
/// cache-served one emits them in file order, pumping no further block.
#[test]
fn limit_spans_a_row_block_then_a_cache_served_block() {
    let f = fixture();
    let pair = Pair::new(&f);
    // Block 1 (rows 128..255 at 128-row blocks) gets `note` cached;
    // block 0 gets none, so it stays with the row kernel.
    pair.step("select id, note from t where id >= 128 and id < 256");
    let (rows, before, after) = pair.step("select id, note from t where id >= 100 limit 40");
    let ids: Vec<Value> = rows.iter().map(|r| r.get(0).clone()).collect();
    assert_eq!(ids, (100..140).map(Value::Int32).collect::<Vec<_>>());
    // Block 0's 28 survivors parse `note` from the file; block 1 parses
    // nothing, and the scan stops there.
    assert_eq!(after.fields_parsed - before.fields_parsed, 28);
    assert_eq!(after.rows_emitted - before.rows_emitted, 28 + 128);
}

/// `LIMIT 1` over a join whose cross-table filter divides by zero on a
/// later match (`bonus = 5`, six matches in): the first match passes, so
/// the LIMIT never lets the join evaluate the filter on the failing one.
/// Without the LIMIT the query fails.
#[test]
fn limit_over_a_join_stops_before_a_failing_match() {
    let f = fixture();
    let q = "select id, bonus from t join u on id = uid \
             where 1000 / (bonus - 5 + id - uid) < 0";
    let db = engine(&f, config(1, IoBackend::Read), false);
    let rows = db.query(&format!("{q} limit 1")).unwrap().rows;
    assert_eq!(rows.len(), 1);
    let err = db.query(q).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}
