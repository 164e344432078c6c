//! Differential proof that the binder's predicate normalizer —
//! constant folding, boolean simplification, tautology and
//! contradiction elimination, and the projection pruning they allow —
//! is an *identity* transformation on everything the user can observe:
//! for a shared query corpus, an engine with `enable_rewrite = true`
//! (normalizer on) must produce rows **bit-identical** to one with it
//! off, and must leave behind bit-identical auxiliary structures
//! (positional-map pointers/bytes, cache bytes, analyzed attributes),
//! across
//!
//! * CSV and JSON Lines physical layouts,
//! * 1 and 4 cold-scan worker threads,
//! * both I/O substrates (`Read` and `Mmap`),
//! * cold (structure-building) and warm (structure-serving) scans.
//!
//! The scan itself does not consult the switch: it tokenizes every row
//! up to the highest attribute it needs and evaluates conjuncts only
//! after that, so a malformed record fails the same way under every
//! access mode and configuration (the final test).

use std::path::PathBuf;

use nodb::common::{IoBackend, Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig};
use nodb::csv::{CsvOptions, CsvWriter};
use nodb::json::{JsonlOptions, JsonlWriter};

const SCHEMA: &str = "id int, grp text, score double, flag bool, note text, big bigint";
const ROWS: usize = 997; // prime: chunk and batch boundaries never align

/// Every rewrite the normalizer performs has queries here that trigger
/// it, next to plain scan filters of every shape (int/float/text
/// comparison, LIKE, IS NULL) that it must leave as they are.
const QUERIES: &[&str] = &[
    // Comparisons on every affinity, early and late columns.
    "select id, note from t where grp = 'alpha'",
    "select id from t where score > 9.0 order by id",
    "select count(*) from t where big > 1000000010000",
    "select id, big from t where id >= 900 and score < 6.0",
    // LIKE prefix, suffix and general patterns.
    "select id from t where note like 'with%' order by id",
    "select count(*) from t where note like '%slash'",
    "select count(*) from t where note like '%qu%'",
    // IS NULL / IS NOT NULL.
    "select count(*) from t where grp is null",
    "select id from t where score is not null and score < 0.5 order by id",
    // Constant folding and boolean simplification.
    "select id from t where id > 10 + 5 and 1 = 1 order by id limit 7",
    "select count(*) from t where 1 = 2 or score > 11.0",
    "select count(*) from t where not (id < 900)",
    // Projection pruning: wide intermediate, narrow output.
    "select grp, count(*), sum(score) from t group by grp order by grp",
    "select distinct flag from t order by flag",
    // Shapes the normalizer must leave alone: disjunctions across columns,
    // expressions over the column, row-crossing operators.
    "select count(*) from t where grp = 'beta' or big < 1000000000500",
    "select count(*) from t where id <> 0 and big / id > 0",
    "select id, score * 2.0 + 1.0 from t where flag order by id limit 17",
];

fn data_rows() -> Vec<Row> {
    let groups = ["alpha", "beta", "gamma", "delta"];
    let notes = ["plain", "with \"quotes\"", "back\\slash", "caf\u{e9}", ""];
    (0..ROWS)
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

struct Fixture {
    _td: TempDir,
    csv: PathBuf,
    jsonl: PathBuf,
    schema: Schema,
}

fn fixture() -> Fixture {
    let td = TempDir::new("nodb-pushdown-eq").unwrap();
    let schema = Schema::parse(SCHEMA).unwrap();
    let data = data_rows();
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

fn config(rewrite: bool, threads: usize, io: IoBackend) -> NoDbConfig {
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.enable_rewrite = rewrite;
    cfg.scan_threads = threads;
    cfg.io_backend = io;
    // Small map blocks so multi-threaded runs cut real chunks out of
    // this corpus and batches straddle block boundaries.
    cfg.posmap_block_rows = 128;
    cfg
}

fn engine(f: &Fixture, cfg: NoDbConfig, jsonl: bool) -> NoDb {
    let mut db = NoDb::new(cfg).unwrap();
    if jsonl {
        db.register_jsonl("t", &f.jsonl, f.schema.clone(), AccessMode::InSitu)
            .unwrap();
    } else {
        db.register_csv(
            "t",
            &f.csv,
            f.schema.clone(),
            CsvOptions::default(),
            AccessMode::InSitu,
        )
        .unwrap();
    }
    db
}

/// The auxiliary-structure footprint after some queries. Rows must be
/// identical *and* the structures left behind must be identical — a
/// rewrite that changed what the positional map or cache absorbed
/// would poison every later query's performance profile.
fn aux(db: &NoDb) -> (usize, u64, usize, usize) {
    let a = db.aux_info("t").unwrap();
    (
        a.posmap_bytes,
        a.posmap_pointers,
        a.cache_bytes,
        a.stats_attrs,
    )
}

fn assert_lockstep(plain: &NoDb, rewritten: &NoDb, ctx: &str) {
    for q in QUERIES {
        let want = plain.query(q).unwrap();
        let got = rewritten.query(q).unwrap();
        assert_eq!(want.rows, got.rows, "{ctx}: rows differ for `{q}`");
        assert_eq!(
            aux(plain),
            aux(rewritten),
            "{ctx}: aux structures diverge after `{q}`"
        );
    }
}

/// The main differential matrix: rewrite on vs off over format ×
/// threads × I/O backend, each pair run cold then warm.
#[test]
fn rewrite_pipeline_is_invisible_in_rows_and_aux() {
    let f = fixture();
    for jsonl in [false, true] {
        for threads in [1usize, 4] {
            for io in [IoBackend::Read, IoBackend::Mmap] {
                let plain = engine(&f, config(false, threads, io), jsonl);
                let rewritten = engine(&f, config(true, threads, io), jsonl);
                let ctx = format!(
                    "{} threads={threads} io={io:?}",
                    if jsonl { "jsonl" } else { "csv" }
                );
                assert_lockstep(&plain, &rewritten, &format!("{ctx} cold"));
                assert_lockstep(&plain, &rewritten, &format!("{ctx} warm"));
            }
        }
    }
}

/// One answer per query whatever the configuration. The third line of a
/// 4-column file is short (`9,9`) and fails `c0 < 5`; every access mode,
/// every auxiliary configuration and both normalizer settings must
/// tokenize that row through `c3` and report the same located error,
/// rather than some of them skipping the row because the WHERE clause
/// rejects it.
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
    let mut errors = Vec::new();
    for (name, cfg, mode) in configs {
        for rewrite in [true, false] {
            let mut cfg = cfg.clone();
            cfg.enable_rewrite = rewrite;
            // One worker, so the error names its global row.
            cfg.scan_threads = 1;
            let mut db = NoDb::new(cfg).unwrap();
            db.register_csv("t", &path, schema.clone(), CsvOptions::default(), mode)
                .unwrap();
            let ctx = format!("{name} rewrite={rewrite}");
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
