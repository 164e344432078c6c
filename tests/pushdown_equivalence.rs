//! Differential proof that the rewrite pipeline — constant folding,
//! boolean simplification, projection pruning, and predicate pushdown
//! into the tokenizer — is an *identity* transformation on everything
//! the user can observe: for a shared query corpus, an engine with
//! `enable_rewrite = true` must produce rows **bit-identical** to one
//! with the pipeline disabled, and must leave behind bit-identical
//! auxiliary structures (positional-map pointers/bytes, cache bytes,
//! analyzed attributes), across
//!
//! * CSV and JSON Lines physical layouts,
//! * 1 and 4 cold-scan worker threads,
//! * both I/O substrates (`Read` and `Mmap`),
//! * cold (structure-building) and warm (structure-serving) scans.
//!
//! What *may* differ is the work: the final test proves the point of
//! the whole feature with counters, not wall clock — under a no-aux
//! config a selective predicate on an early column makes the scan
//! tokenize **strictly fewer** fields, because rows rejected at the
//! predicate frontier never have their remaining fields located.

use std::path::PathBuf;

use nodb::common::{IoBackend, Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig};
use nodb::csv::{CsvOptions, CsvWriter};
use nodb::json::{JsonlOptions, JsonlWriter};

const SCHEMA: &str = "id int, grp text, score double, flag bool, note text, big bigint";
const ROWS: usize = 997; // prime: chunk and batch boundaries never align

/// Every rewrite the pipeline performs has queries here that trigger
/// it; every pushdown fast path (int/float/text comparison, LIKE
/// prefix/suffix, IS NULL) has a conjunct that reaches the tokenizer.
const QUERIES: &[&str] = &[
    // Comparison pushdown on every affinity, early and late columns.
    "select id, note from t where grp = 'alpha'",
    "select id from t where score > 9.0 order by id",
    "select count(*) from t where big > 1000000010000",
    "select id, big from t where id >= 900 and score < 6.0",
    // LIKE prefix / suffix fast paths and the general fallback.
    "select id from t where note like 'with%' order by id",
    "select count(*) from t where note like '%slash'",
    "select count(*) from t where note like '%qu%'",
    // IS NULL / IS NOT NULL against the raw field slice.
    "select count(*) from t where grp is null",
    "select id from t where score is not null and score < 0.5 order by id",
    // Constant folding and boolean simplification.
    "select id from t where id > 10 + 5 and 1 = 1 order by id limit 7",
    "select count(*) from t where 1 = 2 or score > 11.0",
    "select count(*) from t where not (id < 900)",
    // Projection pruning: wide intermediate, narrow output.
    "select grp, count(*), sum(score) from t group by grp order by grp",
    "select distinct flag from t order by flag",
    // Shapes pushdown must leave alone: disjunctions across columns,
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

/// The work proof. Under a no-aux config (nothing to populate, so the
/// lean-scan guard permits early rejection) a selective predicate on
/// an early column with a late output column must make the scan
/// tokenize strictly fewer fields than the same query without the
/// rewrite pipeline: rows rejected at the predicate frontier never
/// have their trailing fields located. This is the NoDB selective-
/// tokenization idea extended below the row boundary — the counters
/// prove the saved work exists rather than inferring it from time.
#[test]
fn pushdown_tokenizes_strictly_fewer_fields_on_a_no_aux_scan() {
    let f = fixture();
    // `grp` is attribute 1; `note`/`big` are attributes 4 and 5. A row
    // failing `grp = 'alpha'` ends tokenization at attribute 1 under
    // pushdown; without it the scan must locate through attribute 5.
    let q = "select note, big from t where grp = 'alpha'";

    let run = |rewrite: bool| {
        let mut cfg = NoDbConfig::baseline();
        cfg.enable_rewrite = rewrite;
        let db = engine(&f, cfg, false);
        let rows = db.query(q).unwrap().rows;
        (rows, db.metrics("t").unwrap())
    };
    let (want, off) = run(false);
    let (got, on) = run(true);

    assert_eq!(want, got, "pushdown changed the result");
    assert_eq!(off.rows_rejected_early, 0, "{off:?}");
    assert_eq!(off.fields_skipped_early, 0, "{off:?}");
    assert!(
        on.rows_rejected_early > 0,
        "no rows rejected at the predicate frontier: {on:?}"
    );
    assert!(
        on.fields_skipped_early > 0,
        "no fields skipped by early rejection: {on:?}"
    );
    assert!(
        on.fields_tokenized < off.fields_tokenized,
        "pushdown did not reduce tokenization: on={} off={}",
        on.fields_tokenized,
        off.fields_tokenized
    );
    // The skipped fields account exactly for the difference: nothing
    // else about the scan's field location work may change.
    assert_eq!(
        on.fields_tokenized + on.fields_skipped_early,
        off.fields_tokenized,
        "on={on:?} off={off:?}"
    );
}
