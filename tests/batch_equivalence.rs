//! Differential proof that vectorized batch execution is an *identity*
//! transformation on everything observable: for a shared query corpus,
//! an engine running the batch pull path (`batch_rows > 0`) must produce
//! rows **bit-identical** to the classic row-at-a-time Volcano pull
//! (`batch_rows = 0`) — and must do exactly the same *work*: the full
//! [`ScanMetrics`] counter set and the auxiliary-structure footprint
//! (positional-map pointers/bytes, cache bytes, analyzed attributes)
//! have to match counter for counter, across
//!
//! * CSV and JSON Lines physical layouts,
//! * cold (structure-building) and warm (structure-serving) scans,
//! * 1 and 4 cold-scan worker threads,
//! * both I/O substrates (`Read` and `Mmap`),
//! * batch sizes that divide the row count and ones that straddle
//!   positional-map block boundaries (3, 1024),
//! * prepared statements re-executed with bound parameters,
//! * cache-served blocks (formed column at a time from the cache), the
//!   fallback from them to the row kernel, and a LIMIT across both,
//! * a LIMIT over a join whose filter fails on a later match, and
//! * the query server with concurrent clients.
//!
//! This is the acceptance gate for the batch path: any divergence —
//! a float summed in a different order, a row tokenized that the row
//! path skipped, a LIMIT that pumped one block too many — fails here.

use std::path::PathBuf;
use std::sync::Arc;

use nodb::common::{IoBackend, Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig, Params, ScanMetrics};
use nodb::csv::{CsvOptions, CsvWriter};
use nodb::json::{JsonlOptions, JsonlWriter};
use nodb::server::{NodbClient, NodbServer, ServerConfig};

const SCHEMA: &str = "id int, grp text, score double, flag bool, note text, big bigint";
const U_SCHEMA: &str = "uid int, bonus int";
const ROWS: usize = 997; // prime: no batch size divides it evenly

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
    let td = TempDir::new("nodb-batch-eq").unwrap();
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

fn config(batch_rows: usize, scan_threads: usize, io: IoBackend) -> NoDbConfig {
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.batch_rows = batch_rows;
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

/// The whole observable state of a table after some queries: every work
/// counter plus the auxiliary-structure footprint.
fn observe(db: &NoDb, table: &str) -> (ScanMetrics, usize, u64, usize, usize) {
    let m = db.metrics(table).unwrap();
    let a = db.aux_info(table).unwrap();
    (
        m,
        a.posmap_bytes,
        a.posmap_pointers,
        a.cache_bytes,
        a.stats_attrs,
    )
}

fn assert_lockstep(row_db: &NoDb, batch_db: &NoDb, ctx: &str) {
    for q in QUERIES {
        // Run the same query on both engines, then compare rows *and*
        // the cumulative observable state, so divergence is pinned to
        // the first query (and pass) that caused it.
        let want = row_db.query(q).unwrap();
        let got = batch_db.query(q).unwrap();
        assert_eq!(want.rows, got.rows, "{ctx}: rows differ for `{q}`");
        for table in ["t", "u"] {
            assert_eq!(
                observe(row_db, table),
                observe(batch_db, table),
                "{ctx}: work/aux state differs after `{q}` on `{table}`"
            );
        }
    }
}

/// The main differential matrix: batch vs row over format × threads ×
/// I/O backend, each pair run cold then warm.
#[test]
fn batch_path_is_bit_identical_to_row_path() {
    let f = fixture();
    for jsonl in [false, true] {
        for threads in [1usize, 4] {
            for io in [IoBackend::Read, IoBackend::Mmap] {
                let row_db = engine(&f, config(0, threads, io), jsonl);
                let batch_db = engine(&f, config(1024, threads, io), jsonl);
                let ctx = format!(
                    "{} threads={threads} io={io:?}",
                    if jsonl { "jsonl" } else { "csv" }
                );
                assert_lockstep(&row_db, &batch_db, &format!("{ctx} cold"));
                assert_lockstep(&row_db, &batch_db, &format!("{ctx} warm"));
            }
        }
    }
}

/// Tiny batches maximize batch-boundary traffic: 997 rows in batches of
/// 3 exercises the "queue bigger than one batch" and "tail smaller than
/// one batch" paths on every scan, and aggregation drains see hundreds
/// of partial batches. Must still be an identity.
#[test]
fn tiny_batches_are_bit_identical_too() {
    let f = fixture();
    let row_db = engine(&f, config(0, 1, IoBackend::Read), false);
    let batch_db = engine(&f, config(3, 1, IoBackend::Read), false);
    assert_lockstep(&row_db, &batch_db, "csv tiny-batch cold");
    assert_lockstep(&row_db, &batch_db, "csv tiny-batch warm");
}

/// Prepared statements re-executed with bound parameters run the same
/// cached plan through the batched cursor; results and work counters
/// must match a row-mode engine executing the identical sequence.
#[test]
fn prepared_statements_match_under_batch_mode() {
    let f = fixture();
    let row_db = engine(&f, config(0, 1, IoBackend::Read), false);
    let batch_db = engine(&f, config(1024, 1, IoBackend::Read), false);
    let sql = "select grp, count(*), sum(score) from t where id >= ? and score < ? \
               group by grp order by grp";
    let row_stmt = row_db.prepare(sql).unwrap();
    let batch_stmt = batch_db.prepare(sql).unwrap();
    for (lo, hi) in [(0i64, 100.0f64), (250, 9.5), (700, 3.25), (0, 100.0)] {
        let params = Params::from(vec![Value::Int64(lo), Value::Float64(hi)]);
        let want = row_stmt.execute(&params).unwrap().collect().unwrap();
        let got = batch_stmt.execute(&params).unwrap().collect().unwrap();
        assert_eq!(want.rows, got.rows, "prepared ({lo}, {hi})");
        assert_eq!(
            observe(&row_db, "t"),
            observe(&batch_db, "t"),
            "prepared ({lo}, {hi}): work/aux state"
        );
    }
}

/// LIMIT under batch mode must keep its early exit: the cursor only
/// requests as many rows as the limit needs, so a cold scan stops after
/// the same prefix of the file as the row path (identical byte and
/// tokenization counters prove it — not just identical rows).
#[test]
fn limit_early_exit_is_preserved() {
    let f = fixture();
    let row_db = engine(&f, config(0, 1, IoBackend::Read), false);
    let batch_db = engine(&f, config(1024, 1, IoBackend::Read), false);
    let sql = "select id, note from t limit 5";
    assert_eq!(
        row_db.query(sql).unwrap().rows,
        batch_db.query(sql).unwrap().rows
    );
    let (m_row, ..) = observe(&row_db, "t");
    let (m_batch, ..) = observe(&batch_db, "t");
    assert_eq!(m_row, m_batch, "LIMIT work counters");
    // And it really was early exit, not a full scan on both sides.
    let full = std::fs::metadata(&f.t_csv).unwrap().len();
    assert!(
        m_batch.bytes_tokenized < full,
        "LIMIT 5 tokenized the whole file ({} of {full} bytes)",
        m_batch.bytes_tokenized
    );
}

/// The server serves batched engines to concurrent clients: answers on
/// the wire must be bit-identical to an embedded row-mode engine.
#[test]
fn server_under_batch_mode_serves_identical_answers() {
    const CLIENTS: usize = 4;
    const REPS: usize = 3;
    let f = fixture();
    let reference = engine(&f, config(0, 1, IoBackend::Read), false);
    let expected: Vec<nodb::core::QueryResult> = QUERIES
        .iter()
        .map(|q| reference.query(q).unwrap())
        .collect();

    let shared = Arc::new(engine(&f, config(1024, 1, IoBackend::Read), false));
    let server = NodbServer::bind_tcp(
        Arc::clone(&shared),
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: CLIENTS,
            max_connections: CLIENTS + 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    let expected = Arc::new(expected);
    let workers: Vec<_> = (0..CLIENTS)
        .map(|w| {
            let addr = addr.clone();
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = NodbClient::connect(&addr).unwrap();
                for _rep in 0..REPS {
                    for step in 0..QUERIES.len() {
                        let qi = (step + w) % QUERIES.len();
                        let got = client.query(QUERIES[qi]).unwrap();
                        assert_eq!(got.rows, expected[qi].rows, "client {w}: `{}`", QUERIES[qi]);
                    }
                }
                client.close().unwrap();
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    handle.shutdown();
    let stats = serving.join().unwrap().unwrap();
    assert_eq!(stats.queries_failed, 0);
    assert_eq!(
        stats.queries_executed,
        (CLIENTS * REPS * QUERIES.len()) as u64
    );
}

/// Engines that pull the same queries row by row, in 1024-row batches and
/// in 3-row batches, checked against an engine that keeps no auxiliary
/// structure. Their positional map is off: its chunk re-combination rule
/// (a block whose columns sit in different chunks collects a new one, and
/// a collecting block is never cache-served) would otherwise decide
/// which blocks these cases serve from the cache.
struct Lockstep {
    pulls: Vec<NoDb>,
    reference: NoDb,
}

impl Lockstep {
    fn new(f: &Fixture) -> Lockstep {
        let cached_only = |batch_rows| NoDbConfig {
            enable_posmap: false,
            ..config(batch_rows, 1, IoBackend::Read)
        };
        Lockstep {
            pulls: [0, 1024, 3]
                .map(|b| engine(f, cached_only(b), false))
                .into(),
            reference: engine(f, NoDbConfig::baseline(), false),
        }
    }

    /// Run `q` on every engine: rows must match the reference and every
    /// counter must match across pull styles. Returns the rows and the
    /// `t` counters before and after.
    fn step(&self, q: &str) -> (Vec<Row>, ScanMetrics, ScanMetrics) {
        let before = self.pulls[0].metrics("t").unwrap();
        let want = self.reference.query(q).unwrap().rows;
        for db in &self.pulls {
            assert_eq!(db.query(q).unwrap().rows, want, "rows differ for `{q}`");
            for table in ["t", "u"] {
                assert_eq!(
                    observe(&self.pulls[0], table),
                    observe(db, table),
                    "work/aux state differs after `{q}` on `{table}`"
                );
            }
        }
        (want, before, self.pulls[0].metrics("t").unwrap())
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
/// a time (cache-served) under both pull styles; rows and counters must
/// not tell.
#[test]
fn cache_served_blocks_are_bit_identical() {
    let f = fixture();
    let dbs = Lockstep::new(&f);
    for pass in ["cold", "warm", "served"] {
        for q in CACHED_QUERIES {
            let (_, before, after) = dbs.step(q);
            if pass == "served" {
                // Nothing comes from the file, and the pushed-down screen
                // (which rejects rows on fully cached blocks the row
                // kernel forms) never runs.
                assert_eq!(after.fields_parsed, before.fields_parsed, "`{q}` re-parsed");
                assert_eq!(after.fields_tokenized, before.fields_tokenized, "`{q}`");
                assert_eq!(
                    after.rows_rejected_early, before.rows_rejected_early,
                    "`{q}`"
                );
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
    let dbs = Lockstep::new(&f);
    dbs.step("select note from t where id < 100");
    let (rows, before, after) = dbs.step("select id, note from t where id < 500 order by id");
    assert_eq!(rows.len(), 500);
    assert!(after.fields_parsed > before.fields_parsed, "{after:?}");
    assert!(
        after.fields_from_cache > before.fields_from_cache,
        "{after:?}"
    );
    // Now every survivor is cached: served without touching the file.
    let (_, before, after) = dbs.step("select id, note from t where id < 500 order by id");
    assert_eq!(after.fields_parsed, before.fields_parsed);
}

/// A LIMIT that takes the tail of a row-kernel block and the head of a
/// cache-served one emits them in file order, pumping no further block.
#[test]
fn limit_spans_a_row_block_then_a_cache_served_block() {
    let f = fixture();
    let dbs = Lockstep::new(&f);
    // Block 1 (rows 128..255 at 128-row blocks) gets `note` cached;
    // block 0 gets none, so it stays with the row kernel.
    dbs.step("select id, note from t where id >= 128 and id < 256");
    let (rows, before, after) = dbs.step("select id, note from t where id >= 100 limit 40");
    let ids: Vec<Value> = rows.iter().map(|r| r.get(0).clone()).collect();
    assert_eq!(ids, (100..140).map(Value::Int32).collect::<Vec<_>>());
    // Block 0's 28 survivors parse `note` from the file; block 1 parses
    // nothing, and the scan stops there.
    assert_eq!(after.fields_parsed - before.fields_parsed, 28);
    assert_eq!(after.rows_emitted - before.rows_emitted, 28 + 128);
}

/// `LIMIT 1` over a join whose cross-table filter divides by zero on a
/// later match (`bonus = 5`, six matches in): the first match passes, so
/// no pull style evaluates the filter, or scans, further than the row
/// path. Without the LIMIT every style fails.
#[test]
fn limit_over_a_join_probes_no_further_than_the_row_path() {
    let f = fixture();
    let q = "select id, bonus from t join u on id = uid \
             where 1000 / (bonus - 5 + id - uid) < 0";
    let dbs: Vec<NoDb> = [0, 1024, 3]
        .map(|b| engine(&f, config(b, 1, IoBackend::Read), false))
        .into();
    let limited = format!("{q} limit 1");
    let rows: Vec<Vec<Row>> = dbs
        .iter()
        .map(|db| db.query(&limited).unwrap().rows)
        .collect();
    assert_eq!(rows[0].len(), 1);
    for (db, got) in dbs.iter().zip(&rows) {
        assert_eq!(got, &rows[0]);
        for table in ["t", "u"] {
            assert_eq!(observe(&dbs[0], table), observe(db, table), "`{table}`");
        }
    }
    for db in &dbs {
        let err = db.query(q).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }
}

/// `NODB_BATCH_ROWS` typos fail loudly at engine construction, exactly
/// like `NODB_IO_BACKEND` — a broken CI matrix entry cannot silently
/// flip the execution style. (Env mutation: keep this in one test so
/// nothing else in this binary races it.)
#[test]
fn malformed_batch_rows_env_fails_at_construction() {
    let path = path_to_self_env();
    let out = std::process::Command::new(path)
        .env("NODB_BATCH_ROWS", "many")
        .args([
            "--ignored",
            "--exact",
            "env_probe_constructs_engine",
            "--nocapture",
        ])
        .output()
        .unwrap();
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("invalid NODB_BATCH_ROWS"),
        "expected a loud config error, got:\n{text}"
    );
}

/// Helper target for the subprocess test above: constructing an engine
/// under the poisoned environment must error, and we print that error.
#[test]
#[ignore]
fn env_probe_constructs_engine() {
    match NoDb::new(NoDbConfig::postgres_raw()) {
        Ok(_) => println!("engine constructed"),
        Err(e) => println!("construction failed: {e}"),
    }
}

fn path_to_self_env() -> PathBuf {
    // The running test binary re-invokes itself with a poisoned env.
    std::env::current_exe().unwrap()
}
