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

/// The exact EXPLAIN text of every TPC-H query, cold (no statistics yet)
/// and after one execution (statistics collected on the fly). A planner
/// refactor must leave every line as it is.
#[test]
fn plans_are_pinned() {
    let td = TempDir::new("tpch-it").unwrap();
    generate(td.path());
    let db = engine(td.path(), NoDbConfig::postgres_raw(), AccessMode::InSitu);
    let mut got = String::new();
    for (id, sql) in queries::all() {
        let cold = db.explain(sql).unwrap();
        db.query(sql).unwrap();
        let warm = db.explain(sql).unwrap();
        got.push_str(&format!("-- {id} cold\n{cold}-- {id} warm\n{warm}"));
    }
    assert_eq!(got, PINNED_PLANS);
}

const PINNED_PLANS: &str = "\
-- Q1 cold
Sort [#0, #1]
  Project [#0, #1, #2, #3, #4, #5, #6, #7, #8, #9]
    HashAggregate group=[4, 5] aggs=8
      Scan lineitem proj=[4, 5, 6, 7, 8, 9, 10] filters=[(#6 <= 1998-09-02)] (~333 rows)
-- Q1 warm
Sort [#0, #1]
  Project [#0, #1, #2, #3, #4, #5, #6, #7, #8, #9]
    HashAggregate group=[4, 5] aggs=8
      Scan lineitem proj=[4, 5, 6, 7, 8, 9, 10] filters=[(#6 <= 1998-09-02)] (~11900 rows)
-- Q3 cold
Limit 10
  Sort [#1 desc, #2]
    Project [#0, #3, #1, #2]
      HashAggregate group=[6, 4, 5] aggs=1
        InnerJoin on=[(2, 0)] (~248 rows)
          InnerJoin on=[(0, 1)] (~8 rows)
            Scan customer proj=[0, 6] filters=[(#1 = BUILDING)] (~5 rows)
            Scan orders proj=[0, 1, 4, 7] filters=[(#2 < 1995-03-15)] (~333 rows)
          Scan lineitem proj=[0, 5, 6, 10] filters=[(#3 > 1995-03-15)] (~5957 rows)
-- Q3 warm
Limit 10
  Sort [#1 desc, #2]
    Project [#0, #3, #1, #2]
      HashAggregate group=[6, 4, 5] aggs=1
        InnerJoin on=[(2, 0)] (~10381 rows)
          InnerJoin on=[(0, 1)] (~349 rows)
            Scan customer proj=[0, 6] filters=[(#1 = BUILDING)] (~47 rows)
            Scan orders proj=[0, 1, 4, 7] filters=[(#2 < 1995-03-15)] (~1472 rows)
          Scan lineitem proj=[0, 5, 6, 10] filters=[(#3 > 1995-03-15)] (~5957 rows)
-- Q4 cold
Sort [#0]
  Project [#0, #1]
    HashAggregate group=[2] aggs=1
      SemiJoin on=[(0, 0)] (~308 rows)
        Scan orders proj=[0, 4, 5] filters=[(#1 >= 1993-07-01), (#1 < 1993-10-01)] (~617 rows)
        Scan lineitem proj=[0, 11, 12] filters=[(#1 < #2)] (~3967 rows)
-- Q4 warm
Sort [#0]
  Project [#0, #1]
    HashAggregate group=[2] aggs=1
      SemiJoin on=[(0, 0)] (~308 rows)
        Scan orders proj=[0, 4, 5] filters=[(#1 >= 1993-07-01), (#1 < 1993-10-01)] (~617 rows)
        Scan lineitem proj=[0, 11, 12] filters=[(#1 < #2)] (~3967 rows)
-- Q6 cold
Project [#0]
  PlainAggregate group=[] aggs=1
    Scan lineitem proj=[4, 5, 6, 10] filters=[(#3 >= 1994-01-01), (#3 < 1995-01-01), #2 BETWEEN 0.05 AND 0.07, (#0 < 24)] (~138 rows)
-- Q6 warm
Project [#0]
  PlainAggregate group=[] aggs=1
    Scan lineitem proj=[4, 5, 6, 10] filters=[(#3 >= 1994-01-01), (#3 < 1995-01-01), #2 BETWEEN 0.05 AND 0.07, (#0 < 24)] (~138 rows)
-- Q10 cold
Limit 20
  Sort [#2 desc]
    Project [#0, #1, #7, #2, #4, #5, #3, #6]
      HashAggregate group=[7, 8, 12, 11, 15, 9, 13] aggs=1
        InnerJoin on=[(10, 0)] (~1519 rows)
          InnerJoin on=[(5, 0)] (~304 rows)
            InnerJoin on=[(0, 0)] (~203 rows)
              Scan lineitem proj=[0, 5, 6, 8] filters=[(#3 = R)] (~60 rows)
              Scan orders proj=[0, 1, 4] filters=[(#2 >= 1993-10-01), (#2 < 1994-01-01)] (~681 rows)
            Scan customer proj=[0, 1, 2, 3, 4, 5, 7] (~300 rows)
          Scan nation proj=[0, 1] (~1000 rows)
-- Q10 warm
Limit 20
  Sort [#2 desc]
    Project [#0, #1, #7, #2, #4, #5, #3, #6]
      HashAggregate group=[6, 7, 11, 10, 5, 8, 12] aggs=1
        InnerJoin on=[(0, 9)] (~108 rows)
          Scan lineitem proj=[0, 5, 6, 8] filters=[(#3 = R)] (~60 rows)
          InnerJoin on=[(2, 1)] (~364 rows)
            InnerJoin on=[(0, 3)] (~161 rows)
              Scan nation proj=[0, 1] (~25 rows)
              Scan customer proj=[0, 1, 2, 3, 4, 5, 7] (~300 rows)
            Scan orders proj=[0, 1, 4] filters=[(#2 >= 1993-10-01), (#2 < 1994-01-01)] (~681 rows)
-- Q12 cold
Sort [#0]
  Project [#0, #1, #2]
    HashAggregate group=[4] aggs=2
      InnerJoin on=[(0, 0)] (~61 rows)
        Scan lineitem proj=[0, 10, 11, 12, 14] filters=[#4 IN (MAIL, SHIP), (#2 < #3), (#1 < #2), (#3 >= 1994-01-01), (#3 < 1995-01-01)] (~4 rows)
        Scan orders proj=[0, 5] (~3000 rows)
-- Q12 warm
Sort [#0]
  Project [#0, #1, #2]
    HashAggregate group=[4] aggs=2
      InnerJoin on=[(0, 0)] (~112 rows)
        Scan lineitem proj=[0, 10, 11, 12, 14] filters=[#4 IN (MAIL, SHIP), (#2 < #3), (#1 < #2), (#3 >= 1994-01-01), (#3 < 1995-01-01)] (~112 rows)
        Scan orders proj=[0, 5] (~3000 rows)
-- Q14 cold
Project [((100.0 * #0) / #1)]
  PlainAggregate group=[] aggs=2
    InnerJoin on=[(0, 0)] (~14886 rows)
      Scan part proj=[0, 4] (~1000 rows)
      Scan lineitem proj=[1, 5, 6, 10] filters=[(#3 >= 1995-09-01), (#3 < 1995-10-01)] (~2977 rows)
-- Q14 warm
Project [((100.0 * #0) / #1)]
  PlainAggregate group=[] aggs=2
    InnerJoin on=[(0, 0)] (~2977 rows)
      Scan part proj=[0, 4] (~400 rows)
      Scan lineitem proj=[1, 5, 6, 10] filters=[(#3 >= 1995-09-01), (#3 < 1995-10-01)] (~2977 rows)
-- Q19 cold
Project [#0]
  PlainAggregate group=[] aggs=1
    Filter (((#1 <= 20) AND ((#1 >= 10) AND (#9 IN (MED BAG, MED BOX, MED PKG, MED PACK) AND ((#7 = Brand#23) AND #8 BETWEEN 1 AND 10)))) OR (((#1 <= 11) AND ((#1 >= 1) AND (#9 IN (SM CASE, SM BOX, SM PACK, SM PKG) AND ((#7 = Brand#12) AND #8 BETWEEN 1 AND 5)))) OR ((#1 <= 30) AND ((#1 >= 20) AND (#9 IN (LG CASE, LG BOX, LG PACK, LG PKG) AND ((#7 = Brand#34) AND #8 BETWEEN 1 AND 15))))))
      InnerJoin on=[(0, 0)] (~8 rows)
        Scan lineitem proj=[1, 4, 5, 6, 13, 14] filters=[#5 IN (AIR, AIR REG), (#4 = DELIVER IN PERSON)] (~8 rows)
        Scan part proj=[0, 3, 5, 6] (~400 rows)
-- Q19 warm
Project [#0]
  PlainAggregate group=[] aggs=1
    Filter (((#5 <= 20) AND ((#5 >= 10) AND (#3 IN (MED BAG, MED BOX, MED PKG, MED PACK) AND ((#1 = Brand#23) AND #2 BETWEEN 1 AND 10)))) OR (((#5 <= 11) AND ((#5 >= 1) AND (#3 IN (SM CASE, SM BOX, SM PACK, SM PKG) AND ((#1 = Brand#12) AND #2 BETWEEN 1 AND 5)))) OR ((#5 <= 30) AND ((#5 >= 20) AND (#3 IN (LG CASE, LG BOX, LG PACK, LG PKG) AND ((#1 = Brand#34) AND #2 BETWEEN 1 AND 15))))))
      InnerJoin on=[(0, 0)] (~416 rows)
        Scan part proj=[0, 3, 5, 6] (~400 rows)
        Scan lineitem proj=[1, 4, 5, 6, 13, 14] filters=[#5 IN (AIR, AIR REG), (#4 = DELIVER IN PERSON)] (~416 rows)
";
