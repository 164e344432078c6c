//! Property-based cross-engine equivalence: for randomly generated
//! select-project queries, every engine variant must return exactly what
//! the straw-man external-files scan returns.
//!
//! This is the load-bearing invariant of the reproduction — the paper's
//! performance claims are only meaningful because all systems compute the
//! same answers.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use nodb_common::{Schema, TempDir, Value};
use nodb_core::{AccessMode, NoDb, NoDbConfig};
use nodb_csv::{CsvOptions, MicroGen};

const COLS: usize = 20;
const ROWS: usize = 700;

/// One shared generated file for the whole property run (generation
/// dominates runtime otherwise).
fn shared_file() -> &'static (TempDir, PathBuf, Schema) {
    static FILE: OnceLock<(TempDir, PathBuf, Schema)> = OnceLock::new();
    FILE.get_or_init(|| {
        let td = TempDir::new("nodb-prop").unwrap();
        let p = td.file("t.csv");
        let spec = MicroGen::default().rows(ROWS).cols(COLS).seed(99);
        spec.write_to(&p).unwrap();
        let schema = spec.schema();
        (td, p, schema)
    })
}

fn engine(config: NoDbConfig, mode: AccessMode) -> NoDb {
    let (_td, p, schema) = shared_file();
    let mut db = NoDb::new(config).unwrap();
    db.register_csv("t", p, schema.clone(), CsvOptions::default(), mode)
        .unwrap();
    db
}

/// A random query description.
#[derive(Debug, Clone)]
struct QuerySpec {
    select_cols: Vec<usize>,
    predicate: Option<(usize, &'static str, u32)>,
    aggregate: bool,
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (
        proptest::collection::vec(0..COLS, 1..5),
        proptest::option::of((
            0..COLS,
            prop_oneof![
                Just("<"),
                Just("<="),
                Just(">"),
                Just(">="),
                Just("="),
                Just("<>")
            ],
            0u32..1_000_000_000,
        )),
        any::<bool>(),
    )
        .prop_map(|(mut select_cols, predicate, aggregate)| {
            select_cols.sort_unstable();
            select_cols.dedup();
            QuerySpec {
                select_cols,
                predicate,
                aggregate,
            }
        })
}

fn render(q: &QuerySpec) -> String {
    let select = if q.aggregate {
        q.select_cols
            .iter()
            .map(|c| format!("sum(c{c}), max(c{c})"))
            .collect::<Vec<_>>()
            .join(", ")
    } else {
        q.select_cols
            .iter()
            .map(|c| format!("c{c}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut sql = format!("select {select} from t");
    if let Some((col, op, lit)) = &q.predicate {
        sql.push_str(&format!(" where c{col} {op} {lit}"));
    }
    sql
}

fn canon(rows: &[nodb_common::Row]) -> Vec<String> {
    let mut v: Vec<String> = rows
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v {
                    Value::Float64(f) => format!("{f:.4}"),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case runs several engines × 2 passes over the file
        ..ProptestConfig::default()
    })]

    #[test]
    fn all_variants_compute_identical_answers(q in query_strategy()) {
        let sql = render(&q);
        let reference = engine(NoDbConfig::baseline(), AccessMode::ExternalFiles)
            .query(&sql)
            .unwrap();
        let expect = canon(&reference.rows);
        for (label, cfg) in [
            ("pm+c", NoDbConfig::postgres_raw()),
            ("pm", NoDbConfig::pm_only()),
            ("c", NoDbConfig::cache_only()),
        ] {
            let db = engine(cfg, AccessMode::InSitu);
            // Two passes: cold (builds structures) and warm (uses them).
            let cold = canon(&db.query(&sql).unwrap().rows);
            let warm = canon(&db.query(&sql).unwrap().rows);
            prop_assert_eq!(&cold, &expect, "{} cold: {}", label, sql);
            prop_assert_eq!(&warm, &expect, "{} warm: {}", label, sql);
        }
    }

    #[test]
    fn loaded_mode_matches_in_situ(q in query_strategy()) {
        let sql = render(&q);
        let insitu = engine(NoDbConfig::postgres_raw(), AccessMode::InSitu);
        let mut loaded = engine(NoDbConfig::postgres_raw(), AccessMode::Loaded);
        loaded.load_table("t").unwrap();
        let a = canon(&insitu.query(&sql).unwrap().rows);
        let b = canon(&loaded.query(&sql).unwrap().rows);
        prop_assert_eq!(a, b, "{}", sql);
    }
}

/// Interleaving different queries must not corrupt the structures a prior
/// query built (regression guard for partial cache columns).
#[test]
fn interleaved_queries_stay_consistent() {
    let db = engine(NoDbConfig::postgres_raw(), AccessMode::InSitu);
    let reference = engine(NoDbConfig::baseline(), AccessMode::ExternalFiles);
    let queries = [
        "select c3 from t where c1 < 250000000",
        "select c1, c5, c9 from t",
        "select c3 from t where c1 >= 250000000",
        "select sum(c3) from t",
        "select c5 from t where c3 = 0",
        "select c0, c19 from t where c9 between 100000000 and 500000000",
        "select c3 from t where c1 < 250000000",
    ];
    for (i, sql) in queries.iter().enumerate() {
        let got = canon(&db.query(sql).unwrap().rows);
        let want = canon(&reference.query(sql).unwrap().rows);
        assert_eq!(got, want, "query #{i}: {sql}");
    }
}

/// Hash joins, semi/anti joins, hash aggregation and DISTINCT over
/// thousands of distinct keys — far more than a key index starts with
/// buckets, so every table grows and rehashes many times — with a key
/// that is `bigint` on one side and `int` on the other, and NULL keys.
/// In-situ (cold and warm) and loaded engines must
/// all give the answers computed here directly from the data.
#[test]
fn joins_and_groups_over_many_keys_match_a_direct_computation() {
    use std::collections::{BTreeMap, BTreeSet};

    use nodb_common::Row;
    use nodb_csv::CsvWriter;

    const KEYS: i64 = 3000;
    const FACTS: i64 = 9000;
    let td = TempDir::new("nodb-many-keys").unwrap();
    let (d_path, f_path) = (td.file("d.csv"), td.file("f.csv"));
    let label = |k: i64| format!("L{}", k % 37);
    // Fact `j`: key (7j mod KEYS) — every key three times — except every
    // 500th, whose key is NULL; value j mod 100, in quarters.
    let fact = |j: i64| {
        (
            (j % 500 != 499).then_some(j * 7 % KEYS),
            (j % 100) as f64 / 4.0,
        )
    };
    let mut w = CsvWriter::create(&d_path, CsvOptions::default()).unwrap();
    for k in 0..KEYS {
        w.write_row(&Row(vec![Value::Int32(k as i32), Value::Text(label(k))]))
            .unwrap();
    }
    w.finish().unwrap();
    let mut w = CsvWriter::create(&f_path, CsvOptions::default()).unwrap();
    for j in 0..FACTS {
        let (k, v) = fact(j);
        w.write_row(&Row(vec![Value::from(k), Value::Float64(v)]))
            .unwrap();
    }
    w.finish().unwrap();

    let show = |k: Option<i64>| k.map_or("NULL".to_string(), |k| k.to_string());
    let mut by_key: BTreeMap<Option<i64>, (i64, f64)> = BTreeMap::new();
    let mut by_label: BTreeMap<String, (i64, f64)> = BTreeMap::new();
    let mut big_keys = BTreeSet::new();
    for j in 0..FACTS {
        let (k, v) = fact(j);
        let e = by_key.entry(k).or_default();
        e.0 += 1;
        e.1 += v;
        if let Some(k) = k {
            let e = by_label.entry(label(k)).or_default();
            e.0 += 1;
            e.1 += v;
            if v > 20.0 {
                big_keys.insert(k);
            }
        }
    }
    let with_facts: BTreeSet<i64> = by_key.keys().flatten().copied().collect();
    let lines = |it: Vec<String>| {
        let mut v = it;
        v.sort();
        v
    };
    let cases: Vec<(&str, Vec<String>)> = vec![
        (
            "select fk, count(*), sum(v) from f group by fk",
            lines(
                by_key
                    .iter()
                    .map(|(k, (n, s))| format!("{}|{n}|{s:.4}", show(*k)))
                    .collect(),
            ),
        ),
        (
            "select label, count(*), sum(v) from f, d where fk = dk group by label",
            lines(
                by_label
                    .iter()
                    .map(|(l, (n, s))| format!("{l}|{n}|{s:.4}"))
                    .collect(),
            ),
        ),
        (
            "select count(*) from d where exists (select * from f where fk = dk and v > 20)",
            vec![big_keys.len().to_string()],
        ),
        (
            "select count(*) from d where not exists (select * from f where fk = dk)",
            vec![(KEYS as usize - with_facts.len()).to_string()],
        ),
        (
            "select distinct fk from f",
            lines(by_key.keys().map(|k| show(*k)).collect()),
        ),
    ];

    let schemas = [
        ("d", &d_path, "dk int, label text"),
        ("f", &f_path, "fk bigint, v double"),
    ];
    let open = |mode: AccessMode| {
        let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
        for (name, path, schema) in schemas {
            db.register_csv(
                name,
                path,
                Schema::parse(schema).unwrap(),
                CsvOptions::default(),
                mode,
            )
            .unwrap();
        }
        if mode == AccessMode::Loaded {
            for (name, ..) in schemas {
                db.load_table(name).unwrap();
            }
        }
        db
    };
    let engines = [
        ("in-situ", open(AccessMode::InSitu)),
        ("loaded", open(AccessMode::Loaded)),
    ];
    for pass in ["cold", "warm"] {
        for (sql, want) in &cases {
            for (label, db) in &engines {
                let got = canon(&db.query(sql).unwrap().rows);
                assert_eq!(&got, want, "{label} {pass}: {sql}");
            }
        }
    }
}
