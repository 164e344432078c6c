//! Differential proof for the auxiliary-structure memory budgets.
//!
//! Three properties, each load-bearing for the budget feature:
//!
//! 1. **Budgets unset ⇒ nothing changes.** An engine with no budgets
//!    and one with slack budgets (far above the working set) must be
//!    bit-identical on everything observable: rows, the full
//!    [`ScanMetrics`] counter set, and the auxiliary footprint. The
//!    enforcement machinery must be pure overheadless observation until
//!    a budget actually binds.
//! 2. **Budgets set ⇒ answers identical, footprint bounded.** Under
//!    budgets sized at half the measured working set, every query still
//!    returns the exact rows of the unbudgeted engine — in-situ scans
//!    fall back to the raw file for evicted state — while the posmap
//!    and cache stay at or under their caps, across CSV/JSONL × 1/4
//!    scan threads.
//! 3. **Eviction is workload-driven, not blind.** With a cache budget
//!    that can hold roughly half the touched columns, the columns a
//!    workload hammers must keep serving from cache while the
//!    one-off column gets evicted (paper §4.3: the cache holds "the
//!    most frequently accessed" data).
//!
//! Plus the config-hygiene gate: malformed `NODB_POSMAP_BUDGET` /
//! `NODB_CACHE_BUDGET` values fail loudly at engine construction.

use std::path::PathBuf;

use nodb::common::{ByteSize, Row, Schema, TempDir, Value};
use nodb::core::{AccessMode, NoDb, NoDbConfig, ScanMetrics};
use nodb::csv::{CsvOptions, CsvWriter};
use nodb::json::{JsonlOptions, JsonlWriter};

const SCHEMA: &str = "id int, grp text, score double, flag bool, note text, big bigint";
const ROWS: usize = 997;

/// Touches every column at least once, with different access shapes:
/// selective scans, aggregation, sort, LIMIT early-exit.
const QUERIES: &[&str] = &[
    "select id, note from t where score > 6.0",
    "select grp, count(*), sum(score), min(big) from t group by grp order by grp",
    "select id, score * 2.0 + 1.0 from t where flag order by id limit 17",
    "select count(*) from t where grp is null or score < 3.0",
    "select distinct grp from t order by grp",
    "select id from t where note like 'with%' order by id",
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

struct Fixture {
    _td: TempDir,
    t_csv: PathBuf,
    t_jsonl: PathBuf,
    schema: Schema,
}

fn fixture() -> Fixture {
    let td = TempDir::new("nodb-budget-diff").unwrap();
    let schema = Schema::parse(SCHEMA).unwrap();
    let t = t_rows(ROWS);
    let f = Fixture {
        t_csv: td.file("t.csv"),
        t_jsonl: td.file("t.jsonl"),
        schema,
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
    f
}

fn config(
    scan_threads: usize,
    posmap_budget: Option<ByteSize>,
    cache_budget: Option<ByteSize>,
) -> NoDbConfig {
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.scan_threads = scan_threads;
    // Small map blocks so a sub-working-set budget has many chunks to
    // choose victims from (and the 4-thread runs cut real chunks).
    cfg.posmap_block_rows = 128;
    cfg.posmap_budget = posmap_budget;
    cfg.cache_budget = cache_budget;
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
    db
}

/// Everything observable about a table: work counters + aux footprint.
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

/// Property 1: an engine whose budgets never bind is indistinguishable
/// from one with no budgets at all — rows, every `ScanMetrics` counter,
/// and the aux footprint, cold and warm, across the whole matrix.
#[test]
fn slack_budgets_are_bit_identical_to_no_budgets() {
    let f = fixture();
    let slack = Some(ByteSize::gb(1));
    for jsonl in [false, true] {
        for threads in [1usize, 4] {
            let free = engine(&f, config(threads, None, None), jsonl);
            let capped = engine(&f, config(threads, slack, slack), jsonl);
            let ctx = format!("{} threads={threads}", if jsonl { "jsonl" } else { "csv" });
            for pass in ["cold", "warm"] {
                for q in QUERIES {
                    let want = free.query(q).unwrap();
                    let got = capped.query(q).unwrap();
                    assert_eq!(want.rows, got.rows, "{ctx} {pass}: rows for `{q}`");
                    assert_eq!(
                        observe(&free, "t"),
                        observe(&capped, "t"),
                        "{ctx} {pass}: state after `{q}`"
                    );
                }
            }
        }
    }
}

/// Property 2: budgets at half the measured working set still answer
/// every query identically while the posmap and cache footprints stay
/// at or under their caps.
#[test]
fn tight_budgets_bound_aux_without_changing_answers() {
    let f = fixture();
    for jsonl in [false, true] {
        for threads in [1usize, 4] {
            let ctx = format!("{} threads={threads}", if jsonl { "jsonl" } else { "csv" });
            // Reference run measures the unbudgeted working set.
            let free = engine(&f, config(threads, None, None), jsonl);
            for q in QUERIES {
                free.query(q).unwrap();
            }
            let (_, full_pm, _, full_cache, _) = observe(&free, "t");
            assert!(full_pm > 0 && full_cache > 0, "{ctx}: fixture too small");
            let pm_budget = ByteSize((full_pm / 2) as u64);
            let cache_budget = ByteSize((full_cache / 2) as u64);

            let capped = engine(
                &f,
                config(threads, Some(pm_budget), Some(cache_budget)),
                jsonl,
            );
            for pass in ["cold", "warm"] {
                for q in QUERIES {
                    let want = free.query(q).unwrap();
                    let got = capped.query(q).unwrap();
                    assert_eq!(want.rows, got.rows, "{ctx} {pass}: rows for `{q}`");
                    let (_, pm, _, cache, _) = observe(&capped, "t");
                    assert!(
                        pm <= pm_budget.bytes() as usize,
                        "{ctx} {pass}: posmap {pm} B over budget {pm_budget} after `{q}`"
                    );
                    assert!(
                        cache <= cache_budget.bytes() as usize,
                        "{ctx} {pass}: cache {cache} B over budget {cache_budget} after `{q}`"
                    );
                }
            }
        }
    }
}

/// Property 3: under a cache budget of half the touched working set, a
/// column the workload hammers keeps serving from cache while a column
/// touched once gets evicted — eviction follows workload heat, not
/// blind recency.
#[test]
fn hot_columns_outlive_cold_ones_under_cache_pressure() {
    let f = fixture();
    let hot_q = "select sum(score) from t";
    let cold_q = "select min(big) from t";

    // Measure the two-column working set on an unbudgeted engine.
    let probe = engine(&f, config(1, None, None), false);
    probe.query(hot_q).unwrap();
    probe.query(cold_q).unwrap();
    let (_, _, _, working_set, _) = observe(&probe, "t");
    assert!(working_set > 0, "fixture too small");

    // Budget for roughly one of the two columns.
    let budget = ByteSize((working_set / 2) as u64);
    let db = engine(&f, config(1, None, Some(budget)), false);

    // The workload: hammer `score`, touch `big` once. Heat for `score`
    // ends up far above `big`'s, so enforcement keeps `score` resident.
    for _ in 0..8 {
        db.query(hot_q).unwrap();
    }
    db.query(cold_q).unwrap();

    // Warm probes: delta of cache-served fields for one more run each.
    let before = db.metrics("t").unwrap();
    db.query(hot_q).unwrap();
    let mid = db.metrics("t").unwrap();
    db.query(cold_q).unwrap();
    let after = db.metrics("t").unwrap();

    let hot_from_cache = mid.fields_from_cache - before.fields_from_cache;
    let cold_from_cache = after.fields_from_cache - mid.fields_from_cache;
    assert!(
        hot_from_cache > cold_from_cache,
        "hot column should out-hit the cold one: hot {hot_from_cache} vs cold {cold_from_cache} \
         (budget {budget}, working set {working_set} B)"
    );
    // And the hot column really is warm, not merely warmer than zero.
    assert!(
        hot_from_cache > 0,
        "hot column fell out of cache under a half-working-set budget"
    );
}

/// `NODB_POSMAP_BUDGET` typos fail loudly at engine construction — a
/// broken deployment cannot silently run unbounded. (Env mutation via
/// subprocess so nothing in this binary races it.)
#[test]
fn malformed_posmap_budget_env_fails_at_construction() {
    let text = probe_with_env("NODB_POSMAP_BUDGET", "lots");
    assert!(
        text.contains("invalid NODB_POSMAP_BUDGET"),
        "expected a loud config error, got:\n{text}"
    );
}

/// Same for `NODB_CACHE_BUDGET`.
#[test]
fn malformed_cache_budget_env_fails_at_construction() {
    let text = probe_with_env("NODB_CACHE_BUDGET", "12qb");
    assert!(
        text.contains("invalid NODB_CACHE_BUDGET"),
        "expected a loud config error, got:\n{text}"
    );
}

fn probe_with_env(var: &str, value: &str) -> String {
    // The running test binary re-invokes itself with a poisoned env.
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .env(var, value)
        .args([
            "--ignored",
            "--exact",
            "env_probe_constructs_engine",
            "--nocapture",
        ])
        .output()
        .unwrap();
    format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// Helper target for the subprocess probes above: constructing an
/// engine under the poisoned environment must error, and we print it.
#[test]
#[ignore]
fn env_probe_constructs_engine() {
    match NoDb::new(NoDbConfig::postgres_raw()) {
        Ok(_) => println!("engine constructed"),
        Err(e) => println!("construction failed: {e}"),
    }
}
