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

use nodb_common::{Row, Schema, TempDir, Value};
use nodb_core::{AccessMode, EngineProfile, NoDb, NoDbConfig};
use nodb_csv::{CsvOptions, CsvWriter, MicroGen};
use nodb_fits::{FitsTableWriter, FitsType};

const COLS: usize = 20;
const ROWS: usize = 700;

/// The loaded engine's three storage profiles.
const PROFILES: [EngineProfile; 3] = [
    EngineProfile::PostgresLike,
    EngineProfile::MySqlLike,
    EngineProfile::DbmsXLike,
];

/// A configuration whose loaded tables use `profile`.
fn loaded_config(profile: EngineProfile) -> NoDbConfig {
    NoDbConfig {
        loaded_profile: profile,
        ..NoDbConfig::postgres_raw()
    }
}

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
        let a = canon(&insitu.query(&sql).unwrap().rows);
        for profile in PROFILES {
            let mut loaded = engine(loaded_config(profile), AccessMode::Loaded);
            loaded.load_table("t").unwrap();
            let b = canon(&loaded.query(&sql).unwrap().rows);
            prop_assert_eq!(&a, &b, "{:?}: {}", profile, sql);
        }
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

/// One leaf contract: the in-situ CSV scan, the heap under each storage
/// profile and the FITS leaf, over the same rows, apply their pushed-down
/// conjuncts in order, each to the rows the earlier ones passed. So every
/// leaf gives the same answer, or the same error, on conjuncts that guard
/// one another, that fail on a surviving row, or that yield NULL.
#[test]
fn every_leaf_applies_the_same_conjuncts() {
    const N: i32 = 5000;
    // `c` cycles through -3..=3, so a seventh of the rows have c = 0.
    let c = |id: i32| id % 7 - 3;
    let rows: Vec<Row> = (0..N)
        .map(|id| {
            Row(vec![
                Value::Int32(id),
                Value::Int32(c(id)),
                Value::Float64(f64::from(id) / 8.0),
            ])
        })
        .collect();
    let td = TempDir::new("nodb-one-leaf").unwrap();
    let (csv, fits) = (td.file("t.csv"), td.file("t.fits"));
    let mut w = CsvWriter::create(&csv, CsvOptions::default()).unwrap();
    for r in &rows {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();
    let cols = [("id", FitsType::J), ("c", FitsType::J), ("x", FitsType::D)];
    let mut w = FitsTableWriter::create(&fits, cols.map(|(n, t)| (n.into(), t)).to_vec()).unwrap();
    for r in &rows {
        w.write_row(r).unwrap();
    }
    w.finish().unwrap();

    let schema = Schema::parse("id int, c int, x double").unwrap();
    let csv_engine = |config: NoDbConfig, mode: AccessMode| {
        let mut db = NoDb::new(config).unwrap();
        db.register_csv("t", &csv, schema.clone(), CsvOptions::default(), mode)
            .unwrap();
        if mode == AccessMode::Loaded {
            db.load_table("t").unwrap();
        }
        db
    };
    let mut leaves = vec![(
        "in-situ".to_string(),
        csv_engine(NoDbConfig::postgres_raw(), AccessMode::InSitu),
    )];
    for profile in PROFILES {
        let db = csv_engine(loaded_config(profile), AccessMode::Loaded);
        leaves.push((format!("{profile:?}"), db));
    }
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_fits("t", &fits, AccessMode::InSitu).unwrap();
    leaves.push(("fits".to_string(), db));

    let guarded = (0..N).filter(|&id| c(id) != 0 && 10 / c(id) > 1).count();
    let null_free = (0..N).filter(|&id| c(id) == 1).count();
    let cases = [
        // The second conjunct divides by zero on exactly the rows the
        // first rejects: it must never see them.
        (
            "select count(*), sum(x) from t where c <> 0 and 10 / c > 1",
            Some(guarded),
        ),
        // Rows with c = 0 pass the first conjunct and fail the second.
        ("select count(*) from t where c <> 1 and 10 / c > 1", None),
        // The comparison is NULL for c <= 0, and so is its negation: only
        // the rows with c = 1 pass.
        (
            "select count(*) from t where not (case when c > 0 then c end > 1)",
            Some(null_free),
        ),
        // NULL comparisons reach the output as NULL.
        (
            "select id, case when c > 0 then c end > 1 from t where id < 20 order by id",
            None,
        ),
    ];
    for pass in ["cold", "warm"] {
        for (sql, count) in &cases {
            let answers: Vec<(&str, Result<Vec<String>, String>)> = leaves
                .iter()
                .map(|(label, db)| {
                    let got = db.query(sql).map(|r| canon(&r.rows));
                    (label.as_str(), got.map_err(|e| e.to_string()))
                })
                .collect();
            let (_, want) = &answers[0];
            for (label, got) in &answers {
                assert_eq!(got, want, "{label} {pass}: {sql}");
            }
            match (count, want) {
                (Some(n), Ok(rows)) => {
                    let got = rows[0].split('|').next();
                    assert_eq!(got, Some(n.to_string().as_str()), "{pass}: {sql}");
                }
                (Some(_), Err(e)) => panic!("{pass}: {sql} must answer, got {e}"),
                (None, _) => {}
            }
        }
    }
    // The unguarded division is the one typed error on every leaf.
    let err = leaves[0].1.query(cases[1].0).unwrap_err().to_string();
    assert!(err.contains("division by zero"), "{err}");
}

/// Over an aggregate's output (HAVING and a grouped SELECT list), every
/// operator binds as it does in WHERE: BETWEEN, LIKE, IN and IS NULL over
/// group keys and aggregate results answer exactly like their spelled-out
/// twins, in situ, loaded and as external files.
#[test]
fn aggregate_outputs_bind_like_any_expression() {
    // Group `k` holds `count` rows, so the group sizes run 1 to 5.
    let groups = [
        ("xa", 1),
        ("xb", 2),
        ("xc", 3),
        ("ya", 4),
        ("yb", 5),
        ("za", 2),
    ];
    let td = TempDir::new("nodb-agg-outputs").unwrap();
    let csv = td.file("t.csv");
    let mut w = CsvWriter::create(&csv, CsvOptions::default()).unwrap();
    let mut v = 0;
    for (k, count) in groups {
        for _ in 0..count {
            v += 7;
            w.write_row(&Row(vec![Value::Text(k.into()), Value::Int32(v)]))
                .unwrap();
        }
    }
    w.finish().unwrap();
    let schema = Schema::parse("k text, v int").unwrap();
    let twins = [
        (
            "select k, count(*) from t group by k having count(*) between 2 and 3",
            "select k, count(*) from t group by k having count(*) >= 2 and count(*) <= 3",
        ),
        (
            "select k, sum(v) from t group by k having k like 'x%'",
            "select k, sum(v) from t where k like 'x%' group by k",
        ),
        (
            "select k, count(*) from t group by k having k in ('xb', 'yb', 'none')",
            "select k, count(*) from t where k in ('xb', 'yb', 'none') group by k",
        ),
        (
            "select k, sum(v) from t group by k having sum(v) is not null",
            "select k, sum(v) from t group by k",
        ),
        (
            "select k, count(*) in (1, 2) from t group by k",
            "select k, count(*) = 1 or count(*) = 2 from t group by k",
        ),
    ];
    for (config, mode) in [
        (NoDbConfig::postgres_raw(), AccessMode::InSitu),
        (NoDbConfig::postgres_raw(), AccessMode::Loaded),
        (NoDbConfig::baseline(), AccessMode::ExternalFiles),
    ] {
        let mut db = NoDb::new(config).unwrap();
        db.register_csv("t", &csv, schema.clone(), CsvOptions::default(), mode)
            .unwrap();
        if mode == AccessMode::Loaded {
            db.load_table("t").unwrap();
        }
        for (sql, twin) in twins {
            let got = canon(&db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows);
            let want = canon(&db.query(twin).unwrap().rows);
            assert_eq!(got, want, "{mode:?}: {sql}");
            assert!(!got.is_empty(), "{mode:?}: {sql}");
        }
        // The filters keep some groups and drop others.
        let kept = db.query(twins[0].0).unwrap().rows.len();
        assert_eq!(kept, 3, "{mode:?}");
    }
}
