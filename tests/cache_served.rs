//! Answers of the batch executor — and of cache-served blocks in
//! particular — against an engine that keeps no auxiliary structure at
//! all (`NoDbConfig::baseline()`, which re-reads and re-parses the raw
//! file for every query). Every block is formed column at a time by one
//! kernel, which takes each value from the cache when the cache holds it
//! and from the file otherwise; a block whose values are all cached never
//! touches the file. Every row it emits must still be the baseline's,
//! across
//!
//! * a corpus of every operator the engine lowers, over CSV and JSON
//!   Lines, cold (structure-building) and warm (structure-serving),
//! * constant conjuncts, which the binder plans as written and which
//!   must answer like their constant-free twins,
//! * cache-served blocks, holes in a cached SELECT column (parsed from
//!   the file), and a LIMIT across a block that parses and one the cache
//!   serves,
//! * a LIMIT over a join whose filter fails on a later match, and
//! * malformed records, which fail with the same located error under
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
    // A constant conjunct is the only filter of a scan that projects no
    // column; a cold scan must apply it too.
    (
        "select count(*) from t where 1 = 2",
        "select count(*) from t where id < 0",
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

fn config() -> NoDbConfig {
    let mut cfg = NoDbConfig::postgres_raw();
    // Small map blocks so batches straddle block boundaries.
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

/// The corpus over both formats, each engine run cold
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
        let db = engine(&f, config(), jsonl);
        let ctx = if jsonl { "jsonl" } else { "csv" };
        for pass in ["cold", "warm"] {
            for (q, want) in QUERIES.iter().zip(&want) {
                let got = db.query(q).unwrap().rows;
                assert_eq!(&got, want, "{ctx} {pass}: rows differ for `{q}`");
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
        ("postgres_raw", engine(&f, config(), false)),
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
            ..config()
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
/// holes on the rows a wider one keeps: the kernel parses exactly those
/// holes from the file and takes every other value from the cache.
#[test]
fn select_column_holes_are_parsed_from_the_file() {
    let f = fixture();
    let pair = Pair::new(&f);
    pair.step("select note from t where id < 100");
    let (rows, before, after) = pair.step("select id, note from t where id < 500 order by id");
    assert_eq!(rows.len(), 500);
    // `note` on rows 100..499; `id` on all 997 rows and `note` on rows
    // 0..99 from the cache.
    assert_eq!(after.fields_parsed - before.fields_parsed, 400);
    assert_eq!(after.fields_from_cache - before.fields_from_cache, 1097);
    // Now every survivor is cached: served without touching the file.
    let (_, before, after) = pair.step("select id, note from t where id < 500 order by id");
    assert_eq!(after.fields_parsed, before.fields_parsed);
}

/// A LIMIT that takes the tail of a block that parses from the file and
/// the head of a cache-served one emits them in file order, pumping no
/// further block.
#[test]
fn limit_spans_a_parsing_block_then_a_cache_served_block() {
    let f = fixture();
    let pair = Pair::new(&f);
    // Block 1 (rows 128..255 at 128-row blocks) gets `note` cached;
    // block 0 gets none, so its survivors parse `note` from the file.
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
    let db = engine(&f, config(), false);
    let rows = db.query(&format!("{q} limit 1")).unwrap().rows;
    assert_eq!(rows.len(), 1);
    let err = db.query(q).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

/// One answer per query whatever the configuration, for two malformed
/// 4-column files and `select c3 from t where c0 < 5`:
///
/// * The third line is short (`9,9`) and fails `c0 < 5`. Every access
///   mode and every auxiliary configuration must tokenize that row
///   through `c3` and report the same located error, rather than some of
///   them skipping the row because the WHERE clause rejects it.
/// * The second line's `c3` is not a number, and the third line is short
///   again. The second line qualifies, so converting its `c3` fails
///   before the short third line is reached: rows fail in file order
///   however the kernel orders its phases.
///
/// Each must hold cold, and warm after a narrower query (`select c0 from
/// t`) left the map or the cache holding `c0` only: the map-assisted scan
/// then reaches `c3` through an anchor or by tokenizing, and must fail
/// the way the cold scan does.
#[test]
fn short_record_fails_alike_under_every_config() {
    let td = TempDir::new("nodb-short-record").unwrap();
    let schema = Schema::parse("c0 int, c1 int, c2 int, c3 int").unwrap();
    let q = "select c3 from t where c0 < 5";
    // (file, what every error says)
    let cases: [(&str, &[&str]); 2] = [
        (
            "1,10,100,1000\n2,20,200,2000\n9,9\n3,30,300,3000\n",
            &["row 2", "record has 2 fields, need at least 4"],
        ),
        (
            "1,10,100,1000\n2,20,200,abc\n9,9\n3,30,300,3000\n",
            &["row 1, byte 14: column `c3`: bad int `abc`"],
        ),
    ];

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
    for (case, (body, expected)) in cases.iter().enumerate() {
        let path = td.file(&format!("t{case}.csv"));
        std::fs::write(&path, body).unwrap();
        let mut errors = Vec::new();
        for (history, first) in histories {
            for (name, cfg, mode) in &configs {
                if case == 0 && first.is_some() && *name == "cache_only" {
                    // Without a map, the warm scan reads `c0` from the
                    // cache and drops the short row unread: it answers
                    // three rows (ROADMAP item 3).
                    continue;
                }
                let ctx = format!("case {case}: {name}, {history}");
                let mut db = NoDb::new(cfg.clone()).unwrap();
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
                    expected.iter().all(|want| err.contains(want)),
                    "{ctx}: {err}"
                );
                errors.push((ctx, err));
            }
        }
        for (ctx, err) in &errors[1..] {
            assert_eq!(err, &errors[0].1, "{ctx} vs {}", errors[0].0);
        }
    }
}

/// `_` is one character, not one byte: the fixture's notes hold `café`,
/// whose `é` is two bytes, and `like 'caf_'` must find every one of them
/// (and `like 'caf__'` none), on the baseline and on a full engine, cold
/// and warm.
#[test]
fn like_underscore_takes_one_utf8_character() {
    let f = fixture();
    let cafe = t_rows(ROWS)
        .iter()
        .filter(|r| r.get(4) == &Value::Text("caf\u{e9}".into()))
        .count();
    assert!(cafe > 0);
    let count = |db: &NoDb, q: &str| db.query(q).unwrap().rows[0].get(0).clone();
    for (name, cfg) in [
        ("baseline", NoDbConfig::baseline()),
        ("postgres_raw", config()),
    ] {
        let db = engine(&f, cfg, false);
        for pass in ["cold", "warm"] {
            let one = count(&db, "select count(*) from t where note like 'caf_'");
            assert_eq!(one, Value::Int64(cafe as i64), "{name} {pass}");
            let two = count(&db, "select count(*) from t where note like 'caf__'");
            assert_eq!(two, Value::Int64(0), "{name} {pass}");
        }
    }
}

/// Rows of the selection table: two full 4096-row blocks and a ragged
/// third. `keep` is 0 on every row of each third 64-row word, NULL on
/// every eleventh row and otherwise 1 but on every seventh row, so that
/// `keep = 1` drops whole words and keeps ragged runs; `c` is the row
/// number, NULL on every thirteenth row; `b` is small, but for one row
/// where doubling it overflows.
const SEL_ROWS: usize = 2 * 4096 + 808;
const SEL_SCHEMA: &str = "id int, keep int, c int, b bigint";
const OVERFLOW_ROW: usize = 4600;

fn sel_row(i: usize) -> Row {
    let keep = match i {
        _ if (i / 64) % 3 == 1 => Value::Int32(0),
        _ if i % 11 == 3 => Value::Null,
        _ => Value::Int32(i32::from(!i.is_multiple_of(7))),
    };
    let c = if i % 13 == 6 {
        Value::Null
    } else {
        Value::Int32(i as i32)
    };
    let b = if i == OVERFLOW_ROW {
        i64::MAX / 2 + 1
    } else {
        i as i64
    };
    Row(vec![Value::Int32(i as i32), keep, c, Value::Int64(b)])
}

/// Does conjunct 1 (`keep = 1`) keep row `i`, and is its `c` a value?
fn kept(i: usize) -> bool {
    let r = sel_row(i);
    r.get(1) == &Value::Int32(1) && !r.get(2).is_null()
}

/// A conjunct runs only on the rows the conjuncts before it kept, over
/// cache-served blocks too, where the selection reads the cache's own
/// columns: a division by zero on a row `keep = 1` drops never raises,
/// and one on a kept row raises the error of the earliest failing kept
/// row (a division by zero before the overflowing row, the overflow
/// after it). Every answer and error is the aux-free baseline's, over CSV
/// and JSON Lines, cold, warm and after `drop_aux`.
#[test]
fn conjuncts_run_on_the_rows_earlier_ones_kept() {
    let td = TempDir::new("nodb-selection").unwrap();
    let schema = Schema::parse(SEL_SCHEMA).unwrap();
    let rows: Vec<Row> = (0..SEL_ROWS).map(sel_row).collect();
    let (csv, jsonl) = (td.file("s.csv"), td.file("s.jsonl"));
    let mut w = CsvWriter::create(&csv, CsvOptions::default()).unwrap();
    rows.iter().for_each(|r| w.write_row(r).unwrap());
    w.finish().unwrap();
    let mut w = JsonlWriter::create(&jsonl, &schema, JsonlOptions::default()).unwrap();
    rows.iter().for_each(|r| w.write_row(r).unwrap());
    w.finish().unwrap();

    // A dropped row in a dropped word of the ragged third block, and the
    // kept rows on either side of the overflowing one.
    let dropped = 2 * 4096 + 2 * 64 + 10;
    assert!(!kept(dropped) && !sel_row(dropped).get(2).is_null());
    let before = (0..OVERFLOW_ROW).rev().find(|&i| kept(i)).unwrap();
    let after = (OVERFLOW_ROW + 1..).find(|&i| kept(i)).unwrap();
    assert!(kept(OVERFLOW_ROW) && before / 128 == after / 128);
    let passing = (0..SEL_ROWS).filter(|&i| kept(i) && i > dropped).count();
    let division =
        |k| format!("select count(*), sum(c) from t where keep = 1 and 100 / (c - {k}) > 0");
    let both = |k| format!("select count(*) from t where keep = 1 and 100 / (c - {k}) + b * 2 > 0");
    let cases = [
        (division(dropped), Ok(passing)),
        (both(before), Err("division by zero")),
        (both(after), Err("integer overflow")),
    ];

    for path in [&csv, &jsonl] {
        let engine = |cfg: NoDbConfig| {
            let mut db = NoDb::new(cfg).unwrap();
            match path == &jsonl {
                true => db.register_jsonl("t", path, schema.clone(), AccessMode::InSitu),
                false => {
                    let opts = CsvOptions::default();
                    db.register_csv("t", path, schema.clone(), opts, AccessMode::InSitu)
                }
            }
            .unwrap();
            db
        };
        let (db, reference) = (
            engine(NoDbConfig::postgres_raw()),
            engine(NoDbConfig::baseline()),
        );
        for pass in ["cold", "warm", "after drop_aux"] {
            if pass == "after drop_aux" {
                db.drop_aux("t").unwrap();
            }
            for (q, want) in &cases {
                let ctx = format!("{} {pass}: `{q}`", path.display());
                let got = db.query(q).map(|r| r.rows).map_err(|e| e.to_string());
                let base = reference
                    .query(q)
                    .map(|r| r.rows)
                    .map_err(|e| e.to_string());
                assert_eq!(got, base, "{ctx}");
                match (want, &got) {
                    (Ok(n), Ok(rows)) => {
                        assert_eq!(rows[0].get(0), &Value::Int64(*n as i64), "{ctx}")
                    }
                    (Err(kind), Err(e)) => assert!(e.contains(kind), "{ctx}: {e}"),
                    _ => panic!("{ctx}: {got:?}"),
                }
            }
        }
        let cached = db.metrics("t").unwrap();
        assert!(
            cached.fields_from_cache > 0,
            "{}: nothing served",
            path.display()
        );
    }
}
