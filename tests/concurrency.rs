//! Concurrency guarantees of the lock-split table runtime: `NoDb::query`
//! takes `&self` and is safe to call from any number of threads at once,
//! whether the table is cold (concurrent scans race to build the
//! auxiliary structures) or warm (scans read the positional map and
//! cache under shared locks). Results must always be what a
//! single-threaded engine produces, and after a warm-up the work
//! counters must match the single-threaded run bit-for-bit.

use std::path::PathBuf;
use std::sync::Arc;

use nodb_common::{Row, Schema, TempDir};
use nodb_core::{AccessMode, NoDb, NoDbConfig};
use nodb_csv::{CsvOptions, MicroGen};
use nodb_json::JsonlGen;

fn micro(rows: usize, cols: usize) -> (TempDir, PathBuf, Schema) {
    let td = TempDir::new("nodb-conc").unwrap();
    let p = td.file("t.csv");
    let spec = MicroGen::default().rows(rows).cols(cols).seed(11);
    spec.write_to(&p).unwrap();
    let schema = spec.schema();
    (td, p, schema)
}

/// The JSONL twin of [`micro`]: same seed ⇒ same logical table.
fn micro_jsonl(rows: usize, cols: usize) -> (TempDir, PathBuf, Schema) {
    let td = TempDir::new("nodb-conc").unwrap();
    let p = td.file("t.jsonl");
    let spec = JsonlGen::default().rows(rows).cols(cols).seed(11);
    spec.write_to(&p).unwrap();
    let schema = spec.schema();
    (td, p, schema)
}

fn engine(cfg: NoDbConfig, p: &std::path::Path, s: &Schema) -> NoDb {
    let mut db = NoDb::new(cfg).unwrap();
    db.register_csv("t", p, s.clone(), CsvOptions::default(), AccessMode::InSitu)
        .unwrap();
    db
}

fn engine_jsonl(cfg: NoDbConfig, p: &std::path::Path, s: &Schema) -> NoDb {
    let mut db = NoDb::new(cfg).unwrap();
    db.register_jsonl("t", p, s.clone(), AccessMode::InSitu)
        .unwrap();
    db
}

/// The mixed per-thread workload: projections, filters and aggregates.
/// The attribute sets are pairwise identical-or-disjoint on purpose: the
/// positional map's re-combination rule (§4.2) re-collects a chunk when a
/// query's attributes span *different* chunks, so overlapping sets would
/// keep re-collecting forever in an order-dependent way and no
/// single-threaded metric baseline could exist. Disjoint sets reach a
/// steady state where warm metrics are exactly additive.
const WORKLOAD: [&str; 6] = [
    "select c0, c5 from t where c2 < 500000000",
    "select c1 from t",
    "select count(*) from t",
    "select sum(c3), min(c4), max(c4) from t",
    "select c6 from t where c7 > 250000000",
    "select count(*) from t where c8 < 250000000 or c9 > 750000000",
];

/// N threads hammer one *cold* table with mixed queries; every result
/// must equal the single-threaded reference. This exercises concurrent
/// sequential scans racing to build the EOL index, map and cache.
#[test]
fn concurrent_cold_queries_match_reference() {
    let (_td, p, schema) = micro(3000, 10);
    let reference = engine(NoDbConfig::postgres_raw(), &p, &schema);
    let expected: Vec<Vec<Row>> = WORKLOAD
        .iter()
        .map(|q| reference.query(q).unwrap().rows)
        .collect();

    let shared = Arc::new(engine(NoDbConfig::postgres_raw(), &p, &schema));
    std::thread::scope(|s| {
        for t in 0..8 {
            let shared = Arc::clone(&shared);
            let expected = &expected;
            s.spawn(move || {
                // Each thread starts at a different query so the cold
                // race takes different shapes.
                for i in 0..WORKLOAD.len() {
                    let qi = (t + i) % WORKLOAD.len();
                    let got = shared.query(WORKLOAD[qi]).unwrap();
                    assert_eq!(got.rows, expected[qi], "thread {t}, `{}`", WORKLOAD[qi]);
                }
            });
        }
    });
    // The aux structures the race built serve a correct final answer.
    let r = shared.query("select count(*) from t").unwrap();
    assert_eq!(
        r.rows,
        reference.query("select count(*) from t").unwrap().rows
    );
}

/// After a warm-up, N threads × M rounds of mixed queries produce
/// results *and* cumulative scan metrics identical to the same sequence
/// run single-threaded: warm reads are pure shared-lock cache/map hits,
/// so the counters are order-independent. The warm-up is two passes —
/// the first builds the structures, the second fills the cache holes
/// that selective parsing left — so the concurrent rounds start from the
/// steady state.
#[test]
fn concurrent_warm_queries_match_single_threaded_bit_for_bit() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 3;
    const WARMUP: usize = 2;
    let (_td, p, schema) = micro(2000, 10);

    // Reference: warm-up + THREADS × ROUNDS sequential repetitions.
    let reference = engine(NoDbConfig::postgres_raw(), &p, &schema);
    let mut expected: Vec<Vec<Row>> = Vec::new();
    for q in WORKLOAD {
        expected.push(reference.query(q).unwrap().rows);
    }
    for _ in 0..WARMUP - 1 {
        for q in WORKLOAD {
            reference.query(q).unwrap();
        }
    }
    for _ in 0..THREADS * ROUNDS {
        for q in WORKLOAD {
            reference.query(q).unwrap();
        }
    }
    let expected_metrics = reference.metrics("t").unwrap();

    // Concurrent engine: same warm-up, then the repetitions in parallel.
    let shared = Arc::new(engine(NoDbConfig::postgres_raw(), &p, &schema));
    for _ in 0..WARMUP {
        for q in WORKLOAD {
            shared.query(q).unwrap();
        }
    }
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let shared = Arc::clone(&shared);
            let expected = &expected;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    for (qi, q) in WORKLOAD.iter().enumerate() {
                        let got = shared.query(q).unwrap();
                        assert_eq!(got.rows, expected[qi], "thread {t}, `{q}`");
                    }
                }
            });
        }
    });
    let got_metrics = shared.metrics("t").unwrap();
    assert_eq!(
        got_metrics, expected_metrics,
        "warm concurrent execution must do exactly the single-threaded work"
    );
}

/// Many cold scans at once, then a warm pass: once the racing scans have
/// built the structures, the totals stabilize.
#[test]
fn concurrent_queries_with_parallel_scans() {
    let (_td, p, schema) = micro(4000, 10);
    let reference = engine(NoDbConfig::postgres_raw(), &p, &schema);
    let expected: Vec<Vec<Row>> = WORKLOAD
        .iter()
        .map(|q| reference.query(q).unwrap().rows)
        .collect();

    let shared = Arc::new(engine(NoDbConfig::postgres_raw(), &p, &schema));
    std::thread::scope(|s| {
        for t in 0..4 {
            let shared = Arc::clone(&shared);
            let expected = &expected;
            s.spawn(move || {
                for i in 0..WORKLOAD.len() {
                    let qi = (t + i) % WORKLOAD.len();
                    let got = shared.query(WORKLOAD[qi]).unwrap();
                    assert_eq!(got.rows, expected[qi], "thread {t}, `{}`", WORKLOAD[qi]);
                }
            });
        }
    });
    // Once warm, the totals stabilize: two more passes add cache-served
    // work only.
    let m1 = shared.metrics("t").unwrap();
    for q in WORKLOAD {
        shared.query(q).unwrap();
    }
    let m2 = shared.metrics("t").unwrap();
    assert_eq!(
        m2.fields_parsed, m1.fields_parsed,
        "warm pass re-parses nothing"
    );
    assert_eq!(m2.bytes_tokenized, m1.bytes_tokenized);
}

/// Cold race on a JSONL table: 8 threads hammer one shared engine with
/// scans racing to build the EOL index, positional map and cache. Every
/// result, cold and warm, must equal the single-threaded reference over
/// the CSV twin of the file (same generator seed, same logical table).
#[test]
fn jsonl_concurrent_cold_queries_match_reference() {
    let (_tdc, pc, schema_csv) = micro(3000, 10);
    let (_td, p, schema) = micro_jsonl(3000, 10);
    let reference = engine(NoDbConfig::postgres_raw(), &pc, &schema_csv);
    let expected: Vec<Vec<Row>> = WORKLOAD
        .iter()
        .map(|q| reference.query(q).unwrap().rows)
        .collect();

    let shared = Arc::new(engine_jsonl(NoDbConfig::postgres_raw(), &p, &schema));
    std::thread::scope(|s| {
        for t in 0..8 {
            let shared = Arc::clone(&shared);
            let expected = &expected;
            s.spawn(move || {
                for i in 0..WORKLOAD.len() {
                    let qi = (t + i) % WORKLOAD.len();
                    let got = shared.query(WORKLOAD[qi]).unwrap();
                    assert_eq!(got.rows, expected[qi], "thread {t}, `{}`", WORKLOAD[qi]);
                }
            });
        }
    });
    // Once warm, another pass is pure map/cache reads: no re-parsing.
    let m1 = shared.metrics("t").unwrap();
    for (q, want) in WORKLOAD.iter().zip(&expected) {
        assert_eq!(&shared.query(q).unwrap().rows, want, "warm `{q}`");
    }
    let m2 = shared.metrics("t").unwrap();
    assert_eq!(
        m2.fields_parsed, m1.fields_parsed,
        "warm pass re-parses nothing"
    );
}

/// Dropping auxiliary structures while other threads query must never
/// produce wrong rows — worst case a scan rebuilds from scratch. A drop
/// landing between a cold pass's tokenizing and its merge must not mark
/// the freshly-emptied EOL index complete (which would freeze the row
/// count at 0 for every later query).
#[test]
fn drop_aux_under_concurrent_queries_is_safe() {
    let (_td, p, schema) = micro(1500, 6);
    let reference = engine(NoDbConfig::postgres_raw(), &p, &schema);
    let expected = reference.query("select count(*) from t").unwrap().rows;

    let shared = Arc::new(engine(NoDbConfig::postgres_raw(), &p, &schema));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let shared = Arc::clone(&shared);
            let expected = &expected;
            s.spawn(move || {
                for _ in 0..6 {
                    let got = shared.query("select count(*) from t").unwrap();
                    assert_eq!(&got.rows, expected);
                }
            });
        }
        let dropper = Arc::clone(&shared);
        s.spawn(move || {
            for _ in 0..6 {
                dropper.drop_aux("t").unwrap();
                std::thread::yield_now();
            }
        });
    });
    // The index left behind answers correctly afterwards too.
    let got = shared.query("select count(*) from t").unwrap();
    assert_eq!(&got.rows, &expected, "after");
}
