//! Answers of the batch executor — and of cache-served blocks in
//! particular — against an engine that keeps no auxiliary structure at
//! all (`NoDbConfig::baseline()`, which re-reads and re-parses the raw
//! file for every query). A map-covered block whose WHERE columns are
//! completely cached and whose SELECT columns all have a cache entry is
//! formed column at a time from the cache rather than row by row from
//! the file; every row it emits must still be the baseline's, across
//!
//! * a corpus of every operator the engine lowers, over CSV and JSON
//!   Lines × 1 and 4 cold-scan worker threads, cold (structure-building)
//!   and warm (structure-serving),
//! * constant conjuncts, which the binder plans as written and which
//!   must answer like their constant-free twins,
//! * cache-served blocks, the fallback from them to the row kernel when
//!   a SELECT column has a hole, and a LIMIT across both,
//! * a LIMIT over a join whose filter fails on a later match, and
//! * a short record, which fails with the same located error under
//!   every access mode and auxiliary configuration.

use std::path::PathBuf;

use nodb::common::{Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig, ScanMetrics};
use nodb::csv::{CsvOptions, CsvWriter};
use nodb::json::{JsonlOptions, JsonlWriter};

const SCHEMA: &str = "id int, grp text, score double, flag bool, note text, big bigint";
const U_SCHEMA: &str = "uid int, bonus int";
const ROWS: usize = 997; // prime: no block or batch size divides it evenly

/// Every operator the engine lowers: selective scans, plain and grouped
/// aggregation (both strategies reachable), projection expressions,
/// short-circuiting predicates over nullable columns, sort, LIMIT
/// (early-exit), DISTINCT, join, EXISTS; then scan filters of every shape
/// (int/float/text comparison on early and late columns, LIKE prefix,
/// suffix and infix, IS NULL, cross-column OR) and constant conjuncts.
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
    "select id, note from t where grp = 'alpha'",
    "select id from t where score > 9.0 order by id",
    "select count(*) from t where big > 1000000010000",
    "select id, big from t where id >= 900 and score < 6.0",
    "select count(*) from t where note like '%slash'",
    "select count(*) from t where note like '%qu%'",
    "select count(*) from t where grp is null",
    "select id from t where score is not null and score < 0.5 order by id",
    "select grp, count(*), sum(score) from t group by grp order by grp",
    "select distinct flag from t order by flag",
    "select count(*) from t where grp = 'beta' or big < 1000000000500",
    CONSTANT_TWINS[0].0,
    CONSTANT_TWINS[1].0,
    CONSTANT_TWINS[2].0,
    CONSTANT_TWINS[3].0,
    CONSTANT_FALSE_JOIN,
];

/// Queries with constant conjuncts, each next to the constant-free query
/// it must answer exactly like.
const CONSTANT_TWINS: &[(&str, &str)] = &[
    (
        "select id from t where id > 10 + 5 and 1 = 1 order by id limit 7",
        "select id from t where id > 15 order by id limit 7",
    ),
    (
        "select count(*) from t where 1 = 2 or score > 11.0",
        "select count(*) from t where score > 11.0",
    ),
    (
        "select count(*) from t where not (id < 900)",
        "select count(*) from t where id >= 900",
    ),
    (
        "select id, bonus from t join u on id = uid where 1 = 1 order by id, bonus",
        "select id, bonus from t join u on id = uid order by id, bonus",
    ),
];

/// A constant FALSE conjunct over a join: no rows.
const CONSTANT_FALSE_JOIN: &str = "select id, bonus from t join u on id = uid where 1 = 2";

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

fn config(scan_threads: usize) -> NoDbConfig {
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.scan_threads = scan_threads;
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

/// The corpus over format × threads, each engine run cold
/// then warm, row for row against the aux-free baseline. Both files hold
/// the same rows, so the CSV and JSONL baselines must agree first.
#[test]
fn corpus_matches_the_aux_free_baseline() {
    let f = fixture();
    let baseline = |jsonl| -> Vec<Vec<Row>> {
        let reference = engine(&f, NoDbConfig::baseline(), jsonl);
        QUERIES
            .iter()
            .map(|q| reference.query(q).unwrap().rows)
            .collect()
    };
    let want = baseline(false);
    for (q, (csv, jsonl)) in QUERIES.iter().zip(want.iter().zip(&baseline(true))) {
        assert_eq!(csv, jsonl, "csv and jsonl baselines differ for `{q}`");
    }
    for jsonl in [false, true] {
        for threads in [1usize, 4] {
            let db = engine(&f, config(threads), jsonl);
            let ctx = format!("{} threads={threads}", if jsonl { "jsonl" } else { "csv" });
            for pass in ["cold", "warm"] {
                for (q, want) in QUERIES.iter().zip(&want) {
                    let got = db.query(q).unwrap().rows;
                    assert_eq!(&got, want, "{ctx} {pass}: rows differ for `{q}`");
                }
            }
        }
    }
}

/// Constant conjuncts are planned as written (a scan filter of the first
/// FROM table) and change no answer: each query answers like its
/// constant-free twin, on the aux-free baseline and on a full engine cold
/// and warm, and a FALSE conjunct empties a join.
#[test]
fn constant_conjuncts_answer_like_their_constant_free_twins() {
    let f = fixture();
    let engines = [
        ("baseline", engine(&f, NoDbConfig::baseline(), false)),
        ("postgres_raw", engine(&f, config(4), false)),
    ];
    for (name, db) in &engines {
        for pass in ["cold", "warm"] {
            for (q, twin) in CONSTANT_TWINS {
                let want = db.query(twin).unwrap().rows;
                assert!(!want.is_empty(), "{name} {pass}: `{twin}` is empty");
                assert_eq!(db.query(q).unwrap().rows, want, "{name} {pass}: `{q}`");
            }
            let rows = db.query(CONSTANT_FALSE_JOIN).unwrap().rows;
            assert!(rows.is_empty(), "{name} {pass}: {rows:?}");
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
            ..config(1)
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
    let db = engine(&f, config(1), false);
    let rows = db.query(&format!("{q} limit 1")).unwrap().rows;
    assert_eq!(rows.len(), 1);
    let err = db.query(q).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

/// One answer per query whatever the configuration. The third line of a
/// 4-column file is short (`9,9`) and fails `c0 < 5`; every access mode
/// and every auxiliary configuration must tokenize that row through `c3`
/// and report the same located error, rather than some of them skipping
/// the row because the WHERE clause rejects it. It must do so cold, and
/// warm after a narrower query (`select c0 from t`) left the map or the
/// cache holding `c0` only: the map-assisted kernel then reaches `c3`
/// through an anchor or by tokenizing, and must fail the way the cold
/// kernel does.
#[test]
fn short_record_fails_alike_under_every_config() {
    let td = TempDir::new("nodb-short-record").unwrap();
    let path = td.file("t.csv");
    std::fs::write(&path, "1,10,100,1000\n2,20,200,2000\n9,9\n3,30,300,3000\n").unwrap();
    let schema = Schema::parse("c0 int, c1 int, c2 int, c3 int").unwrap();
    let q = "select c3 from t where c0 < 5";

    let configs = [
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
            NoDbConfig::baseline(),
            AccessMode::ExternalFiles,
        ),
    ];
    // (history, the query run first)
    let histories = [
        ("cold", None),
        ("warm after a narrower query", Some("select c0 from t")),
    ];
    let mut errors = Vec::new();
    for (history, first) in histories {
        for (name, cfg, mode) in &configs {
            if first.is_some() && *name == "cache_only" {
                // Without a map, the warm scan reads `c0` from the cache
                // and drops the short row unread: it answers three rows
                // (ROADMAP item 4).
                continue;
            }
            let ctx = format!("{name}, {history}");
            let mut cfg = cfg.clone();
            // One worker, so the error names its global row.
            cfg.scan_threads = 1;
            let mut db = NoDb::new(cfg).unwrap();
            db.register_csv("t", &path, schema.clone(), CsvOptions::default(), *mode)
                .unwrap();
            if let Some(first) = first {
                db.query(first).unwrap();
            }
            let err = match db.query(q) {
                Ok(r) => panic!("{ctx}: answered {} rows", r.rows.len()),
                Err(e) => e.to_string(),
            };
            assert!(
                err.contains("row 2") && err.contains("record has 2 fields, need at least 4"),
                "{ctx}: {err}"
            );
            errors.push((ctx, err));
        }
    }
    for (ctx, err) in &errors[1..] {
        assert_eq!(err, &errors[0].1, "{ctx} vs {}", errors[0].0);
    }
}
