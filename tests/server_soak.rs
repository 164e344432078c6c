//! Many-connection soak of the query server.
//!
//! One shared `NoDb` behind a TCP server, ≥16 concurrent clients each
//! running a mixed statement workload over a CSV *and* a JSONL table,
//! repeatedly (so early statements hit a cold engine and later ones a
//! warm one). Every result must be **bit-identical** to what a direct
//! embedded `query()` over the same files returns, and after the soak
//! the shared table's aux counters must show warm-path work — i.e. the
//! positional maps / caches built by some clients' queries actually
//! served the others (the server-side amortization the paper's model
//! implies).
//!
//! CI runs this with a hard timeout: a deadlocked worker pool fails the
//! job rather than hanging it.

use std::path::PathBuf;
use std::sync::Arc;

use nodb::common::{Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig, Params};
use nodb::csv::{CsvOptions, CsvWriter};
use nodb::json::{JsonlOptions, JsonlWriter};
use nodb::server::{NodbClient, NodbServer, ServerConfig};

const SCHEMA: &str = "id int, grp text, score double, big bigint";
const ROWS: usize = 4000;
const CLIENTS: usize = 16;
const REPS: usize = 3;

/// Deterministic mixed-type rows (with NULLs) shared by both layouts.
fn data_rows() -> Vec<Row> {
    let groups = ["alpha", "beta", "gamma", "delta", "epsilon"];
    (0..ROWS)
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
    let td = TempDir::new("nodb-server-soak").unwrap();
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

fn engine(f: &Fixture) -> NoDb {
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_csv(
        "t_csv",
        &f.csv,
        f.schema.clone(),
        CsvOptions::default(),
        AccessMode::InSitu,
    )
    .unwrap();
    db.register_jsonl("t_jsonl", &f.jsonl, f.schema.clone(), AccessMode::InSitu)
        .unwrap();
    db
}

/// The soak workload: parameterized statements over both formats, every
/// one with a deterministic row order so "bit-identical" is assertable.
/// `.0` is the SQL (sent repeatedly → exercises the server's
/// per-connection statement cache), `.1` the parameter sets cycled
/// through per repetition.
fn workload() -> Vec<(&'static str, Vec<Vec<Value>>)> {
    let texts = |gs: &[&str]| -> Vec<Vec<Value>> {
        gs.iter().map(|g| vec![Value::Text((*g).into())]).collect()
    };
    vec![
        (
            "select id, grp, score from t_csv where id < 700 order by id",
            vec![vec![]],
        ),
        (
            "select grp, count(*) n, sum(score) s from t_csv group by grp order by grp",
            vec![vec![]],
        ),
        (
            "select id, big from t_csv where grp = ? order by id limit 40",
            texts(&["alpha", "beta", "gamma"]),
        ),
        (
            "select id, grp, score, big from t_jsonl where id >= ? and id < ? order by id",
            vec![
                vec![Value::Int32(100), Value::Int32(180)],
                vec![Value::Int32(2000), Value::Int32(2050)],
            ],
        ),
        (
            "select count(*) c, max(big) m from t_jsonl where grp in (?, ?)",
            vec![
                vec![Value::Text("delta".into()), Value::Text("epsilon".into())],
                vec![Value::Text("alpha".into()), Value::Text("nope".into())],
            ],
        ),
        (
            "select id from t_jsonl where grp like ? order by id limit 25",
            texts(&["%ta", "al%"]),
        ),
    ]
}

fn assert_bit_identical(got: &nodb::core::QueryResult, want: &nodb::core::QueryResult, ctx: &str) {
    assert_eq!(
        got.schema.fields(),
        want.schema.fields(),
        "{ctx}: schema mismatch"
    );
    assert_eq!(got.rows.len(), want.rows.len(), "{ctx}: row count mismatch");
    for (i, (g, w)) in got.rows.iter().zip(&want.rows).enumerate() {
        // Value's PartialEq is exact (no float tolerance), which is the
        // point: the wire carries f64 bits verbatim.
        assert_eq!(g, w, "{ctx}: row {i} differs");
    }
}

/// A `Cancel` frame mid-stream must stop the server's raw scan early
/// (the cursor-drop path), keep the connection usable for further
/// statements, and be visible in the server's counters — unlike the
/// sever-the-socket fallback, which poisons the client.
#[test]
fn cancel_aborts_stream_without_severing_the_connection() {
    const BIG_ROWS: usize = 150_000;
    let td = TempDir::new("nodb-cancel").unwrap();
    let schema = Schema::parse(SCHEMA).unwrap();
    let csv = td.file("wide.csv");
    let mut w = CsvWriter::create(&csv, CsvOptions::default()).unwrap();
    for i in 0..BIG_ROWS {
        w.write_row(&Row(vec![
            Value::Int32(i as i32),
            Value::Text(format!("g{}", i % 5)),
            Value::Float64(i as f64 / 8.0),
            Value::Int64(1_000_000_000_000 + i as i64),
        ]))
        .unwrap();
    }
    w.finish().unwrap();

    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_csv(
        "wide",
        &csv,
        schema,
        CsvOptions::default(),
        AccessMode::InSitu,
    )
    .unwrap();
    let shared = Arc::new(db);
    let server =
        NodbServer::bind_tcp(Arc::clone(&shared), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    let mut client = NodbClient::connect(&addr).unwrap();
    // No ORDER BY: sorting would drain the whole scan before the first
    // row leaves the server, and there would be nothing left to cancel.
    let mut stream = client
        .stream("select id, grp, score, big from wide", &[])
        .unwrap();
    for row in stream.by_ref().take(100) {
        row.unwrap();
    }
    let streamed = stream.cancel().unwrap();
    assert!(
        streamed >= 100,
        "server must have streamed at least what the client read, got {streamed}"
    );

    // The scan stopped early: the table emitted far fewer tuples than it
    // holds. (Read before the follow-up query, which scans everything.)
    let emitted = shared.metrics("wide").unwrap().rows_emitted;
    assert!(
        emitted < BIG_ROWS as u64,
        "cancel did not stop the scan: {emitted} of {BIG_ROWS} rows emitted"
    );

    // The connection survives and carries further statements.
    let r = client.query("select count(*) from wide").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(BIG_ROWS as i64));

    // A cancel that loses the race (stream already done) still works:
    // exactly one Cancelled comes back and the connection stays in sync.
    let mut s = client
        .stream("select id from wide where id < 3", &[])
        .unwrap();
    for row in s.by_ref() {
        row.unwrap();
    }
    assert_eq!(s.cancel().unwrap(), 3);
    let r = client
        .query("select count(*) from wide where id < 10")
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(10));

    client.close().unwrap();
    handle.shutdown();
    let stats = serving.join().unwrap().unwrap();
    assert_eq!(stats.queries_cancelled, 1, "{stats:?}");
    assert_eq!(stats.queries_failed, 0, "{stats:?}");
}

#[test]
fn soak_many_clients_share_one_engine() {
    let f = fixture();

    // Expected answers from a plain embedded engine over the same files.
    let reference = engine(&f);
    let mut expected: Vec<Vec<nodb::core::QueryResult>> = Vec::new();
    for (sql, param_sets) in workload() {
        let stmt = reference.prepare(sql).unwrap();
        expected.push(
            param_sets
                .iter()
                .map(|ps| {
                    stmt.execute(&Params::from(ps.clone()))
                        .unwrap()
                        .collect()
                        .unwrap()
                })
                .collect(),
        );
    }

    // The served engine starts cold: nothing has scanned its tables.
    let shared = Arc::new(engine(&f));
    let server = NodbServer::bind_tcp(
        Arc::clone(&shared),
        "127.0.0.1:0",
        ServerConfig {
            // Soak runs Busy-free: every client must get real answers.
            max_inflight: CLIENTS,
            max_connections: CLIENTS + 4,
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
                let work = workload();
                let mut client = NodbClient::connect(&addr).unwrap();
                // Each client cycles the whole workload REPS times over
                // one connection; the statement texts repeat, so the
                // server's per-connection prepared cache gets hit, and
                // different clients interleave cold/warm scans freely.
                for rep in 0..REPS {
                    for step in 0..work.len() {
                        // Stagger which statement each client starts
                        // with so the same table sees concurrent scans.
                        let qi = (step + w) % work.len();
                        let (sql, param_sets) = &work[qi];
                        for (pi, ps) in param_sets.iter().enumerate() {
                            let got = client.query_params(sql, ps).unwrap();
                            assert_bit_identical(
                                &got,
                                &expected[qi][pi],
                                &format!("client {w}, rep {rep}, stmt {qi}, params {pi}"),
                            );
                        }
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

    // Everybody served, nobody turned away, nothing failed.
    let queries_per_client: u64 = workload()
        .iter()
        .map(|(_, ps)| ps.len() as u64)
        .sum::<u64>()
        * REPS as u64;
    assert_eq!(stats.connections_served, CLIENTS as u64);
    assert_eq!(stats.connections_rejected, 0);
    assert_eq!(stats.queries_rejected, 0);
    assert_eq!(stats.queries_failed, 0);
    assert_eq!(stats.queries_executed, queries_per_client * CLIENTS as u64);

    // Cross-client amortization: with 16 clients hammering the same two
    // tables, the overwhelming share of field accesses must have been
    // served by the aux structures (positional map jumps, anchored
    // incremental parses, or the binary value cache) rather than by
    // re-tokenizing raw bytes — one client's cold scan warmed the rest.
    for table in ["t_csv", "t_jsonl"] {
        let m = shared.metrics(table).unwrap();
        let warm = m.fields_via_map + m.fields_via_anchor + m.fields_from_cache;
        assert!(
            m.scans >= (CLIENTS * REPS) as u64,
            "{table}: expected many scans, saw {}",
            m.scans
        );
        assert!(
            warm > 0,
            "{table}: no warm-path field accesses at all (map/anchor/cache)"
        );
        assert!(
            warm > m.fields_tokenized,
            "{table}: warm-path accesses ({warm}) should dominate raw tokenization ({}) across {} scans",
            m.fields_tokenized,
            m.scans
        );
    }
}
