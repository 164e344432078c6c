//! End-to-end TPC-H: all eight evaluation queries must run and produce
//! identical results across every engine mode (the paper's controlled
//! comparison depends on this).

use std::path::Path;

use nodb_common::{DataType, TempDir, Value};
use nodb_core::{AccessMode, NoDb, NoDbConfig, Params, QueryResult};
use nodb_csv::CsvOptions;
use nodb_tpch::{queries, TpchGen};

const SCALE: f64 = 0.002;

fn generate(dir: &Path) {
    TpchGen::new(SCALE, 1234).generate_all(dir).unwrap();
}

fn engine(dir: &Path, config: NoDbConfig, mode: AccessMode) -> NoDb {
    let mut db = NoDb::new(config).unwrap();
    for t in TpchGen::table_names() {
        db.register_csv(
            t,
            &dir.join(format!("{t}.tbl")),
            TpchGen::schema(t).unwrap(),
            CsvOptions::pipe(),
            mode,
        )
        .unwrap();
    }
    if mode == AccessMode::Loaded {
        for t in TpchGen::table_names() {
            db.load_table(t).unwrap();
        }
    }
    db
}

/// Sort rows textually for order-insensitive comparison (queries without
/// ORDER BY have no defined order).
fn canon(r: &QueryResult) -> Vec<String> {
    let mut v: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            row.values()
                .iter()
                .map(|v| match v {
                    // Compare floats with tolerance via rounding.
                    Value::Float64(f) => format!("{:.4}", f),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    v.sort();
    v
}

#[test]
fn all_eight_queries_run_in_situ() {
    let td = TempDir::new("tpch-it").unwrap();
    generate(td.path());
    let db = engine(td.path(), NoDbConfig::postgres_raw(), AccessMode::InSitu);
    for (id, sql) in queries::all() {
        let r = db.query(sql).unwrap_or_else(|e| panic!("{id} failed: {e}"));
        match id {
            // Q1 groups by (returnflag, linestatus): at most 2×3 combos
            // exist in the data (R/A/N × O/F).
            "Q1" => {
                assert!(
                    (1..=6).contains(&r.rows.len()),
                    "{id}: {} rows",
                    r.rows.len()
                );
                assert_eq!(r.schema.len(), 10);
            }
            "Q3" => assert!(r.rows.len() <= 10, "{id} respects LIMIT"),
            "Q4" => {
                assert!(
                    (1..=5).contains(&r.rows.len()),
                    "{id}: {} rows",
                    r.rows.len()
                );
                // Priorities come back sorted.
                let names: Vec<&str> = r.rows.iter().map(|x| x.get(0).as_str().unwrap()).collect();
                let mut sorted = names.clone();
                sorted.sort();
                assert_eq!(names, sorted, "{id} ordering");
            }
            "Q6" | "Q14" | "Q19" => assert_eq!(r.rows.len(), 1, "{id} scalar result"),
            "Q10" => assert!(r.rows.len() <= 20, "{id} respects LIMIT"),
            "Q12" => assert!((1..=2).contains(&r.rows.len()), "{id}"),
            _ => {}
        }
    }
}

#[test]
fn q1_aggregates_are_consistent() {
    let td = TempDir::new("tpch-it").unwrap();
    generate(td.path());
    let db = engine(td.path(), NoDbConfig::postgres_raw(), AccessMode::InSitu);
    let r = db.query(queries::Q1).unwrap();
    for row in &r.rows {
        let sum_qty = row
            .get(2)
            .as_i64()
            .or(row.get(2).as_f64().map(|f| f as i64));
        let count = row.get(9).as_i64().unwrap();
        let avg_qty = row.get(6).as_f64().unwrap();
        // sum/count == avg within float noise.
        let sum_qty = sum_qty
            .map(|s| s as f64)
            .unwrap_or_else(|| row.get(2).as_f64().unwrap());
        assert!(
            (sum_qty / count as f64 - avg_qty).abs() < 1e-6,
            "avg consistency: {row}"
        );
        // Discounted price <= base price.
        let base = row.get(3).as_f64().unwrap();
        let disc = row.get(4).as_f64().unwrap();
        assert!(disc <= base);
    }
}

#[test]
fn in_situ_external_and_loaded_agree_on_every_query() {
    let td = TempDir::new("tpch-it").unwrap();
    generate(td.path());
    let insitu = engine(td.path(), NoDbConfig::postgres_raw(), AccessMode::InSitu);
    let external = engine(td.path(), NoDbConfig::baseline(), AccessMode::ExternalFiles);
    let loaded = engine(td.path(), NoDbConfig::postgres_raw(), AccessMode::Loaded);
    for (id, sql) in queries::all() {
        let a = canon(
            &insitu
                .query(sql)
                .unwrap_or_else(|e| panic!("{id} insitu: {e}")),
        );
        let b = canon(
            &external
                .query(sql)
                .unwrap_or_else(|e| panic!("{id} external: {e}")),
        );
        let c = canon(
            &loaded
                .query(sql)
                .unwrap_or_else(|e| panic!("{id} loaded: {e}")),
        );
        assert_eq!(a, b, "{id}: in-situ vs external");
        assert_eq!(a, c, "{id}: in-situ vs loaded");
    }
}

#[test]
fn warm_runs_agree_with_cold_runs() {
    let td = TempDir::new("tpch-it").unwrap();
    generate(td.path());
    let db = engine(td.path(), NoDbConfig::postgres_raw(), AccessMode::InSitu);
    for (id, sql) in queries::all() {
        let cold = canon(&db.query(sql).unwrap());
        let warm = canon(&db.query(sql).unwrap());
        assert_eq!(cold, warm, "{id}: warm run must match cold run");
    }
}

#[test]
fn pm_only_variant_matches_pm_c() {
    let td = TempDir::new("tpch-it").unwrap();
    generate(td.path());
    let pm = engine(td.path(), NoDbConfig::pm_only(), AccessMode::InSitu);
    let pmc = engine(td.path(), NoDbConfig::postgres_raw(), AccessMode::InSitu);
    for (id, sql) in [
        ("Q1", queries::Q1),
        ("Q6", queries::Q6),
        ("Q14", queries::Q14),
    ] {
        let a = canon(&pm.query(sql).unwrap());
        let b = canon(&pmc.query(sql).unwrap());
        assert_eq!(a, b, "{id}");
    }
}

#[test]
fn q19_uses_a_real_join_not_a_cross_product() {
    let td = TempDir::new("tpch-it").unwrap();
    generate(td.path());
    let db = engine(td.path(), NoDbConfig::postgres_raw(), AccessMode::InSitu);
    let plan = db.explain(queries::Q19).unwrap();
    assert!(
        plan.contains("Join on=[("),
        "OR factoring must expose the equi-join:\n{plan}"
    );
}

/// The schema a statement reports is the type of every value it yields:
/// `Int32 + Int32` is `Int64`, `Date − Date` is `Int64`, and a CASE
/// widens its integer branch to its float branch — whether the rows come
/// off the raw file, the warm cache or heap pages.
#[test]
fn statement_schema_types_match_returned_values() {
    let td = TempDir::new("tpch-it").unwrap();
    generate(td.path());
    let sql = "select l_linenumber + l_linenumber, o_orderdate - date '1995-01-01', \
               case when o_orderkey > 3 then 1 else 0.5 end \
               from lineitem, orders where l_orderkey = o_orderkey and o_orderkey < 6";
    for (config, mode) in [
        (NoDbConfig::postgres_raw(), AccessMode::InSitu),
        (NoDbConfig::baseline(), AccessMode::ExternalFiles),
        (NoDbConfig::postgres_raw(), AccessMode::Loaded),
    ] {
        let db = engine(td.path(), config, mode);
        let stmt = db.prepare(sql).unwrap();
        let declared: Vec<_> = stmt.schema().fields().iter().map(|f| f.dtype).collect();
        assert_eq!(
            declared,
            [DataType::Int64, DataType::Int64, DataType::Float64],
            "{mode:?}"
        );
        // Cold, then warm (served from the cache where there is one).
        for _ in 0..2 {
            let rows = stmt.query(&Params::new()).unwrap().rows;
            assert!(!rows.is_empty(), "{mode:?}");
            for row in &rows {
                let got: Vec<_> = row.values().iter().map(Value::data_type).collect();
                assert_eq!(
                    got,
                    declared.iter().map(|&t| Some(t)).collect::<Vec<_>>(),
                    "{mode:?}: {row}"
                );
            }
        }
    }
    // A CASE that mixes text and a number has no one type: a bind error
    // that names where it is.
    let db = engine(td.path(), NoDbConfig::postgres_raw(), AccessMode::InSitu);
    let err = db
        .prepare("select case when o_orderkey > 3 then 'big' else 0 end as size from orders")
        .unwrap_err()
        .to_string();
    assert!(err.contains("`size`") && err.contains("CASE"), "{err}");
}
