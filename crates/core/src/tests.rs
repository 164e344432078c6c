//! Engine-level unit tests: correctness of in-situ execution and the
//! adaptive behaviours the paper claims.

use std::path::PathBuf;

use nodb_common::{Schema, TempDir, Value};
use nodb_csv::{CsvOptions, MicroGen};

use crate::{AccessMode, NoDb, NoDbConfig};

fn micro_file(rows: usize, cols: usize) -> (TempDir, PathBuf, Schema) {
    let td = TempDir::new("nodb-core-test").unwrap();
    let p = td.file("micro.csv");
    let spec = MicroGen::default().rows(rows).cols(cols).seed(7);
    spec.write_to(&p).unwrap();
    let schema = spec.schema();
    (td, p, schema)
}

fn engine_with(
    config: NoDbConfig,
    path: &std::path::Path,
    schema: &Schema,
    mode: AccessMode,
) -> NoDb {
    let mut db = NoDb::new(config).unwrap();
    db.register_csv("t", path, schema.clone(), CsvOptions::default(), mode)
        .unwrap();
    db
}

#[test]
fn engine_is_send_and_sync() {
    // `NoDb::query(&self)` is served concurrently from many threads;
    // this fails to compile if any table state loses thread safety.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NoDb>();
}

#[test]
fn first_query_without_loading() {
    let (_td, p, schema) = micro_file(300, 10);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    let r = db
        .query("select c0, c5 from t where c2 < 500000000")
        .unwrap();
    assert!(!r.rows.is_empty());
    assert_eq!(r.schema.len(), 2);
    for row in &r.rows {
        assert_eq!(row.len(), 2);
    }
}

#[test]
fn all_variants_agree_with_external_baseline() {
    let (_td, p, schema) = micro_file(500, 12);
    let queries = [
        "select c0 from t",
        "select c1, c7 from t where c3 < 300000000",
        "select sum(c2), count(*), min(c4), max(c4), avg(c6) from t",
        "select c11 from t where c0 between 100000000 and 900000000",
        "select count(*) from t where c5 < 100000000 or c6 > 900000000",
    ];
    let configs: Vec<(&str, NoDbConfig)> = vec![
        ("pm+c", NoDbConfig::postgres_raw()),
        ("pm", NoDbConfig::pm_only()),
        ("c", NoDbConfig::cache_only()),
        ("baseline", NoDbConfig::baseline()),
    ];
    for q in queries {
        let reference = engine_with(
            NoDbConfig::baseline(),
            &p,
            &schema,
            AccessMode::ExternalFiles,
        )
        .query(q)
        .unwrap();
        for (label, cfg) in &configs {
            let db = engine_with(cfg.clone(), &p, &schema, AccessMode::InSitu);
            // Run twice: the second run exercises the map/cache paths.
            let first = db.query(q).unwrap();
            let second = db.query(q).unwrap();
            assert_eq!(first.rows, reference.rows, "{label} first run of `{q}`");
            assert_eq!(second.rows, reference.rows, "{label} second run of `{q}`");
        }
    }
}

#[test]
fn loaded_mode_agrees_and_requires_load() {
    let (_td, p, schema) = micro_file(400, 6);
    let mut db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::Loaded);
    // Querying before loading is an error mentioning the fix.
    let err = db.query("select c0 from t").unwrap_err().to_string();
    assert!(err.contains("load_table"), "{err}");
    let report = db.load_table("t").unwrap();
    assert_eq!(report.rows, 400);
    let loaded = db
        .query("select c0, c3 from t where c1 < 400000000")
        .unwrap();

    let insitu = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    let expect = insitu
        .query("select c0, c3 from t where c1 < 400000000")
        .unwrap();
    assert_eq!(loaded.rows, expect.rows);
}

#[test]
fn second_query_does_less_tokenization_work() {
    let (_td, p, schema) = micro_file(2000, 20);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    db.query("select c10, c15 from t").unwrap();
    let m1 = db.metrics("t").unwrap();
    db.query("select c10, c15 from t").unwrap();
    let m2 = db.metrics("t").unwrap();
    let first_tokenized = m1.fields_tokenized;
    let second_tokenized = m2.fields_tokenized - m1.fields_tokenized;
    assert!(
        second_tokenized == 0,
        "second identical query should tokenize nothing \
         (first={first_tokenized}, second={second_tokenized})"
    );
    // Values came from the cache, not re-parsing.
    assert!(m2.fields_from_cache > 0);
    assert_eq!(
        m2.fields_parsed, m1.fields_parsed,
        "no re-conversion on the second query"
    );
}

#[test]
fn pm_only_uses_map_positions_on_second_query() {
    let (_td, p, schema) = micro_file(1000, 20);
    let db = engine_with(NoDbConfig::pm_only(), &p, &schema, AccessMode::InSitu);
    db.query("select c5, c12 from t").unwrap();
    let m1 = db.metrics("t").unwrap();
    assert_eq!(m1.fields_via_map, 0, "first query has no map yet");
    db.query("select c5, c12 from t").unwrap();
    let m2 = db.metrics("t").unwrap();
    assert!(
        m2.fields_via_map > 0,
        "second query must jump via map positions"
    );
    // Without the cache, values are re-parsed every time.
    assert!(m2.fields_parsed > m1.fields_parsed);
    assert_eq!(m2.fields_from_cache, 0);
}

#[test]
fn anchored_navigation_for_neighbouring_attribute() {
    let (_td, p, schema) = micro_file(800, 30);
    let db = engine_with(NoDbConfig::pm_only(), &p, &schema, AccessMode::InSitu);
    db.query("select c10 from t").unwrap();
    // c11 is not indexed, but c10 is: expect anchored navigation, not
    // full tokenization.
    db.query("select c11 from t").unwrap();
    let m = db.metrics("t").unwrap();
    assert!(
        m.fields_via_anchor > 0,
        "expected anchor-based incremental parsing: {m:?}"
    );
}

#[test]
fn baseline_mode_never_learns() {
    let (_td, p, schema) = micro_file(500, 10);
    let db = engine_with(
        NoDbConfig::baseline(),
        &p,
        &schema,
        AccessMode::ExternalFiles,
    );
    let a = db.query("select c2 from t").unwrap();
    let b = db.query("select c2 from t").unwrap();
    assert_eq!(a.rows, b.rows);
    // External tables expose no runtime to inspect.
    assert!(db.metrics("t").is_err());
}

#[test]
fn aux_info_reports_structures() {
    let (_td, p, schema) = micro_file(600, 8);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    db.query("select c1 from t where c0 < 500000000").unwrap();
    let info = db.aux_info("t").unwrap();
    assert!(info.posmap_pointers > 0);
    assert!(info.posmap_bytes > 0);
    assert!(info.cache_bytes > 0);
    assert!(info.stats_attrs >= 1, "WHERE attribute must get stats");
}

#[test]
fn stats_influence_plans_but_not_results() {
    let (_td, p, schema) = micro_file(1200, 6);
    // With stats.
    let with = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    with.query("select c0 from t").unwrap(); // collect stats
    let plan_with = with
        .plan("select c1, count(*) from t group by c1")
        .unwrap()
        .explain();
    // Without stats.
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.enable_stats = false;
    let without = engine_with(cfg, &p, &schema, AccessMode::InSitu);
    let plan_without = without
        .plan("select c1, count(*) from t group by c1")
        .unwrap()
        .explain();
    assert!(plan_with.contains("HashAggregate"), "{plan_with}");
    assert!(plan_without.contains("SortAggregate"), "{plan_without}");
    let a = with
        .query("select c1, count(*) from t group by c1 order by c1")
        .unwrap();
    let b = without
        .query("select c1, count(*) from t group by c1 order by c1")
        .unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn append_is_visible_without_reregistration() {
    let td = TempDir::new("nodb-core-test").unwrap();
    let p = td.file("m.csv");
    let spec = MicroGen::default().rows(100).cols(4).seed(3);
    spec.write_to(&p).unwrap();
    let schema = spec.schema();
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    let before = db.query("select count(*) from t").unwrap();
    assert_eq!(before.rows[0].get(0), &Value::Int64(100));
    spec.append_to(&p, 50).unwrap();
    let after = db.query("select count(*) from t").unwrap();
    assert_eq!(
        after.rows[0].get(0),
        &Value::Int64(150),
        "appended rows must be immediately visible (§4.5)"
    );
    // Aux structures for the old region still work.
    let r = db.query("select c0 from t where c1 < 500000000").unwrap();
    assert!(!r.rows.is_empty());
}

#[test]
fn append_mid_block_keeps_positions_correct() {
    // Regression: a sequential pass resuming mid-block (the appended
    // tail) must not insert a block-anchored chunk for rows it did not
    // start at, or later map jumps land on the wrong bytes. Its cache
    // columns hold the rows before it as holes, which the columns the
    // first query cached fill (`CachedColumn::absorb`). At 64 rows a
    // block, the 30 appended rows resume block 1 at its row 36 and then
    // start block 2.
    let configs = [
        NoDbConfig::pm_only(),
        NoDbConfig::cache_only(),
        NoDbConfig::postgres_raw(),
    ];
    for (config, block_rows) in configs.iter().flat_map(|c| [(c, None), (c, Some(64))]) {
        let td = TempDir::new("nodb-core-test").unwrap();
        let p = td.file("m.csv");
        let spec = MicroGen::default().rows(100).cols(6).seed(9);
        spec.write_to(&p).unwrap();
        let schema = spec.schema();
        let mut config = config.clone();
        if let Some(b) = block_rows {
            config.posmap_block_rows = b;
        }
        let case = format!(
            "posmap {} cache {} block {block_rows:?}",
            config.enable_posmap, config.enable_cache
        );
        let db = engine_with(config.clone(), &p, &schema, AccessMode::InSitu);
        let q = "select c2, c4 from t";
        let before = db.query(q).unwrap(); // builds map and cache for rows 0..100
        spec.append_to(&p, 30).unwrap();
        let grown = db.query(q).unwrap(); // mapped 0..100, sequential 100..130
        assert_eq!(grown.rows.len(), 130, "{case}");
        assert_eq!(&grown.rows[..100], &before.rows[..], "{case}");
        // The third run reads rows 0..100 via map positions or the
        // cache; values must be unchanged (a mis-anchored chunk or a
        // misplaced cache row would corrupt them).
        let again = db.query(q).unwrap();
        assert_eq!(again.rows, grown.rows, "{case}");
        if config.enable_cache {
            // Every value now comes from the cache: the tail's holes
            // were filled.
            let parsed = db.metrics("t").unwrap().fields_parsed;
            let fourth = db.query(q).unwrap();
            assert_eq!(fourth.rows, grown.rows, "{case}");
            let m = db.metrics("t").unwrap();
            assert_eq!(m.fields_parsed, parsed, "{case}: a value was re-parsed");
        }
    }
}

#[test]
fn in_place_edit_invalidates_aux() {
    let td = TempDir::new("nodb-core-test").unwrap();
    let p = td.file("m.csv");
    std::fs::write(&p, "1,10\n2,20\n3,30\n").unwrap();
    let schema = Schema::parse("a int, b int").unwrap();
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    let r = db.query("select b from t where a = 2").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int32(20));
    // Rewrite the file in place with different (shorter) content.
    std::fs::write(&p, "1,11\n2,22\n").unwrap();
    let r = db.query("select b from t where a = 2").unwrap();
    assert_eq!(
        r.rows[0].get(0),
        &Value::Int32(22),
        "stale aux must be dropped"
    );
}

#[test]
fn posmap_budget_is_respected_during_queries() {
    let (_td, p, schema) = micro_file(3000, 30);
    let mut cfg = NoDbConfig::pm_only();
    cfg.posmap_budget = Some(nodb_common::ByteSize::kb(32));
    cfg.posmap_block_rows = 512;
    let db = engine_with(cfg, &p, &schema, AccessMode::InSitu);
    for i in 0..6 {
        let c = i * 4;
        db.query(&format!("select c{c} from t")).unwrap();
        let info = db.aux_info("t").unwrap();
        assert!(
            info.posmap_bytes <= 32_000,
            "budget violated: {} bytes",
            info.posmap_bytes
        );
    }
}

#[test]
fn cache_budget_is_respected() {
    let (_td, p, schema) = micro_file(3000, 30);
    let mut cfg = NoDbConfig::cache_only();
    cfg.cache_budget = Some(nodb_common::ByteSize::kb(64));
    let db = engine_with(cfg, &p, &schema, AccessMode::InSitu);
    for i in 0..6 {
        let c = i * 4;
        db.query(&format!("select c{c} from t")).unwrap();
        let info = db.aux_info("t").unwrap();
        assert!(
            info.cache_bytes <= 64_000,
            "budget violated: {} bytes",
            info.cache_bytes
        );
    }
}

#[test]
fn count_star_after_indexing_reads_no_bytes() {
    let (_td, p, schema) = micro_file(1000, 5);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    db.query("select c0 from t").unwrap();
    let m1 = db.metrics("t").unwrap();
    let r = db.query("select count(*) from t").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(1000));
    let m2 = db.metrics("t").unwrap();
    assert_eq!(
        m2.bytes_tokenized, m1.bytes_tokenized,
        "row count must come from the EOL index"
    );
}

#[test]
fn drop_aux_resets_and_rebuilds() {
    let (_td, p, schema) = micro_file(300, 6);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    db.query("select c0 from t").unwrap();
    assert!(db.aux_info("t").unwrap().posmap_pointers > 0);
    db.drop_aux("t").unwrap();
    assert_eq!(db.aux_info("t").unwrap().posmap_pointers, 0);
    // Next query rebuilds from scratch and still answers correctly.
    let r = db.query("select count(*) from t").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(300));
}

#[test]
fn selective_parsing_skips_nonqualifying_select_attrs() {
    let (_td, p, schema) = micro_file(1000, 10);
    // ~10% selectivity filter: SELECT attribute c7 should be parsed only
    // for qualifying rows, whichever way the scan locates its fields.
    let q = "select c7 from t where c1 < 100000000";
    // (name, config, runs, query run first). After `select c1 from t`
    // the WHERE column comes from the cache and c7 from the file.
    let cases = [
        ("baseline", NoDbConfig::baseline(), 1, None),
        ("pm_only", NoDbConfig::pm_only(), 2, None),
        (
            "cache_only",
            NoDbConfig::cache_only(),
            1,
            Some("select c1 from t"),
        ),
        (
            "postgres_raw",
            NoDbConfig::postgres_raw(),
            1,
            Some("select c1 from t"),
        ),
    ];
    for (name, cfg, runs, first) in cases {
        let db = engine_with(cfg, &p, &schema, AccessMode::InSitu);
        if let Some(first) = first {
            db.query(first).unwrap();
        }
        let mut before = db.metrics("t").unwrap();
        // pm_only's second run is warm: positions come from the map.
        for run in 0..runs {
            db.query(q).unwrap();
            let after = db.metrics("t").unwrap();
            let qualifying = after.rows_emitted - before.rows_emitted;
            let parsed = after.fields_parsed - before.fields_parsed;
            let from_cache = after.fields_from_cache - before.fields_from_cache;
            if first.is_some() {
                // c1 from the cache for all rows; c7 parsed only for
                // qualifying.
                assert_eq!(qualifying, 107, "{name}");
                assert_eq!(parsed, qualifying, "{name}");
                assert_eq!(from_cache, 1000, "{name}");
            } else {
                // c1 parsed for all rows; c7 only for qualifying.
                assert_eq!(parsed, 1000 + qualifying, "{name} run {run}");
            }
            assert!(qualifying < 300, "selectivity sanity: {qualifying}");
            before = after;
        }
    }
}

#[test]
fn register_errors() {
    let (_td, p, schema) = micro_file(10, 3);
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_csv(
        "t",
        &p,
        schema.clone(),
        CsvOptions::default(),
        AccessMode::InSitu,
    )
    .unwrap();
    // Duplicate name.
    assert!(db
        .register_csv(
            "T",
            &p,
            schema.clone(),
            CsvOptions::default(),
            AccessMode::InSitu
        )
        .is_err());
    // Unknown table in query.
    assert!(db.query("select x from missing").is_err());
}

#[test]
fn header_rows_are_skipped_in_situ() {
    let td = TempDir::new("nodb-core-test").unwrap();
    let p = td.file("h.csv");
    std::fs::write(&p, "a,b\n1,10\n2,20\n3,30\n").unwrap();
    let schema = Schema::parse("a int, b int").unwrap();
    let opts = CsvOptions {
        has_header: true,
        ..CsvOptions::default()
    };
    for mode in [AccessMode::InSitu, AccessMode::ExternalFiles] {
        for cfg in [
            NoDbConfig::postgres_raw(),
            NoDbConfig::pm_only(),
            NoDbConfig::cache_only(),
            NoDbConfig::baseline(),
        ] {
            let mut db = NoDb::new(cfg).unwrap();
            db.register_csv("t", &p, schema.clone(), opts, mode)
                .unwrap();
            // Twice: the second run exercises the mapped/cached paths.
            for _ in 0..2 {
                let r = db.query("select count(*), min(a), max(b) from t").unwrap();
                assert_eq!(r.rows[0].get(0), &Value::Int64(3), "{mode:?}");
                assert_eq!(r.rows[0].get(1), &Value::Int32(1));
                assert_eq!(r.rows[0].get(2), &Value::Int32(30));
                let r = db.query("select b from t where a = 2").unwrap();
                assert_eq!(r.rows[0].get(0), &Value::Int32(20));
            }
        }
    }
}

#[test]
fn header_skip_survives_appends() {
    let td = TempDir::new("nodb-core-test").unwrap();
    let p = td.file("h.csv");
    std::fs::write(&p, "a,b\n1,10\n2,20\n").unwrap();
    let schema = Schema::parse("a int, b int").unwrap();
    let opts = CsvOptions {
        has_header: true,
        ..CsvOptions::default()
    };
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_csv("t", &p, schema, opts, AccessMode::InSitu)
        .unwrap();
    let r = db.query("select count(*) from t").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(2));
    // Appended rows are data rows (no second header).
    let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
    std::io::Write::write_all(&mut f, b"3,30\n").unwrap();
    drop(f);
    let r = db.query("select sum(b) from t").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(60));
}

/// The cold kernel is asked for one block of rows at a time: "asked for
/// N, got N" must not be mistaken for (or hide) the end of the file.
/// Files that end exactly on a block boundary, hold no rows at all, or
/// lack the final newline, in both formats.
#[test]
fn cold_scan_block_boundaries() {
    const BLOCK: usize = 64;
    let schema = Schema::parse("a int, b int, c text").unwrap();
    let b_of = |i: usize| (i * 7) % 13;
    let csv_line = |i: usize| format!("{i},{},w{i}", b_of(i));
    let json_line = |i: usize| format!("{{\"a\":{i},\"b\":{},\"c\":\"w{i}\"}}", b_of(i));
    // (name, data rows, final newline, header line)
    let shapes = [
        ("exact multiple of the block", 2 * BLOCK, true, false),
        ("empty file", 0, true, false),
        ("header only", 0, true, true),
        ("no trailing newline", BLOCK + 36, false, false),
    ];
    let queries = [
        "select a, c from t where b < 5",
        "select count(*), sum(a) from t",
        "select count(*) from t",
    ];
    let td = TempDir::new("nodb-core-test").unwrap();
    for (shape, n, final_newline, header) in shapes {
        for jsonl in [false, true] {
            if jsonl && header {
                continue; // JSON Lines files have no header line.
            }
            let mut lines: Vec<String> = (0..n)
                .map(|i| if jsonl { json_line(i) } else { csv_line(i) })
                .collect();
            if header {
                lines.insert(0, "a,b,c".to_string());
            }
            let mut text = lines.join("\n");
            if final_newline && !lines.is_empty() {
                text.push('\n');
            }
            let p = td.file(if jsonl { "b.jsonl" } else { "b.csv" });
            std::fs::write(&p, &text).unwrap();
            // Expected answers straight from the generating data.
            let kept: Vec<Vec<Value>> = (0..n)
                .filter(|&i| b_of(i) < 5)
                .map(|i| vec![Value::Int32(i as i32), Value::Text(format!("w{i}"))])
                .collect();
            let sum = match n {
                0 => Value::Null,
                _ => Value::Int64((0..n as i64).sum()),
            };
            let what = format!("{shape}, jsonl={jsonl}");
            let make = || {
                let mut cfg = NoDbConfig::postgres_raw();
                cfg.posmap_block_rows = BLOCK;
                let mut db = NoDb::new(cfg).unwrap();
                if jsonl {
                    db.register_jsonl("t", &p, schema.clone(), AccessMode::InSitu)
                        .unwrap();
                } else {
                    let opts = CsvOptions {
                        has_header: header,
                        ..CsvOptions::default()
                    };
                    db.register_csv("t", &p, schema.clone(), opts, AccessMode::InSitu)
                        .unwrap();
                }
                db
            };
            let expected = [
                kept,
                vec![vec![Value::Int64(n as i64), sum]],
                vec![vec![Value::Int64(n as i64)]],
            ];
            let db = make();
            // Cold, then warm: the same answers.
            for pass in ["cold", "warm"] {
                for (q, want) in queries.iter().zip(&expected) {
                    let got = db.query(q).unwrap();
                    let got: Vec<Vec<Value>> = got.rows.iter().map(|r| r.0.clone()).collect();
                    assert_eq!(&got, want, "{what}, {pass} `{q}`");
                }
            }
            // The cold pass completed the EOL index: counting again
            // reads nothing.
            let before = db.metrics("t").unwrap().bytes_tokenized;
            let count = db.query(queries[2]).unwrap();
            assert_eq!(count.rows[0].get(0), &Value::Int64(n as i64), "{what}");
            assert_eq!(db.metrics("t").unwrap().bytes_tokenized, before, "{what}");
            // A cold LIMIT stops after the first block.
            if n > BLOCK {
                let db = make();
                let first = db.query("select a from t limit 1").unwrap();
                assert_eq!(first.rows[0].get(0), &Value::Int32(0), "{what}");
                let block_bytes: usize = lines.iter().take(BLOCK).map(|l| l.len() + 1).sum();
                let m = db.metrics("t").unwrap();
                assert_eq!(m.bytes_tokenized, block_bytes as u64, "{what}");
            }
            // A cold pass sizes its cache columns to the block's end and
            // cuts them to the rows it saw: they are the columns a
            // map-covered pass builds, byte for byte.
            let (cold, mapped) = (make(), make());
            mapped.query(queries[2]).unwrap(); // indexes lines, caches nothing
            cold.query(queries[0]).unwrap();
            mapped.query(queries[0]).unwrap();
            let cache_bytes = |db: &NoDb| db.aux_info("t").unwrap().cache_bytes;
            assert_eq!(cache_bytes(&cold), cache_bytes(&mapped), "{what}");
        }
    }
}

#[test]
fn empty_and_growing_files() {
    let td = TempDir::new("nodb-core-test").unwrap();
    let p = td.file("grow.csv");
    std::fs::write(&p, "").unwrap();
    let schema = Schema::parse("a int, b int").unwrap();
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_csv("t", &p, schema, CsvOptions::default(), AccessMode::InSitu)
        .unwrap();
    // Zero-length file: the scan sees no rows.
    let r = db.query("select count(*) from t").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(0));
    // Appended rows are picked up by the next query.
    let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
    std::io::Write::write_all(&mut f, b"1,10\n2,20\n").unwrap();
    drop(f);
    let r = db.query("select sum(b) from t").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(30));
}

#[test]
fn idle_time_prebuilds_structures() {
    use crate::IdleFocus;
    use std::time::Duration;

    let (_td, p, schema) = micro_file(2000, 20);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    // Generous budget: the whole file gets covered.
    let report = db
        .exploit_idle_time("t", Duration::from_secs(30), IdleFocus::AllAttributes)
        .unwrap();
    assert!(report.completed);
    assert_eq!(report.rows_processed, 2000);
    assert!(report.pointers_added > 0);
    assert!(report.cache_bytes_added > 0);
    // The first user query now behaves like a warm one: nothing parsed.
    let m_before = db.metrics("t").unwrap();
    db.query("select c3, c17 from t").unwrap();
    let m_after = db.metrics("t").unwrap();
    assert_eq!(
        m_after.fields_parsed, m_before.fields_parsed,
        "idle work must make the first query cache-resident"
    );
}

#[test]
fn idle_time_respects_zero_budget() {
    use crate::IdleFocus;
    use std::time::Duration;

    let (_td, p, schema) = micro_file(5000, 30);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    let report = db
        .exploit_idle_time("t", Duration::ZERO, IdleFocus::AllAttributes)
        .unwrap();
    assert!(!report.completed);
    assert!(report.rows_processed < 5000);
    // Partial structures are valid: queries still answer correctly.
    let r = db.query("select count(*) from t").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(5000));
}

#[test]
fn idle_time_focuses_on_workload_attributes() {
    use crate::IdleFocus;
    use std::time::Duration;

    let (_td, p, schema) = micro_file(1500, 30);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    // Teach the engine a workload (stats on c2 only).
    db.query("select c2 from t").unwrap();
    let before = db.aux_info("t").unwrap();
    db.exploit_idle_time("t", Duration::from_secs(30), IdleFocus::WorkloadAttributes)
        .unwrap();
    let after = db.aux_info("t").unwrap();
    // c2 was already fully covered by the query, so focused idle work
    // adds nothing beyond what the workload built.
    assert_eq!(after.cache_bytes, before.cache_bytes);
    // Loaded tables refuse.
    let mut loaded = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    loaded
        .register_csv("t", &p, schema, CsvOptions::default(), AccessMode::Loaded)
        .unwrap();
    assert!(loaded
        .exploit_idle_time("t", Duration::from_secs(1), IdleFocus::AllAttributes)
        .is_err());
}

#[test]
fn distinct_and_having_work_end_to_end() {
    let td = TempDir::new("nodb-core-test").unwrap();
    let p = td.file("m.csv");
    std::fs::write(
        &p,
        "a,1\na,2\nb,3\nb,4\nb,5\nc,6\na,1\n", // duplicate (a,1) row
    )
    .unwrap();
    let schema = Schema::parse("k text, v int").unwrap();
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_csv("t", &p, schema, CsvOptions::default(), AccessMode::InSitu)
        .unwrap();

    // DISTINCT over whole rows.
    let r = db
        .query("select distinct k, v from t order by k, v")
        .unwrap();
    assert_eq!(r.rows.len(), 6, "duplicate (a,1) collapsed");
    // DISTINCT over a single column.
    let r = db.query("select distinct k from t order by k").unwrap();
    assert_eq!(
        r.rows
            .iter()
            .map(|x| x.get(0).as_str().unwrap().to_string())
            .collect::<Vec<_>>(),
        vec!["a", "b", "c"]
    );

    // HAVING on an aggregate that is also projected.
    let r = db
        .query("select k, count(*) n from t group by k having count(*) >= 2 order by k")
        .unwrap();
    assert_eq!(r.rows.len(), 2); // a (3), b (3)

    // HAVING on an aggregate that is NOT in the select list.
    let r = db
        .query("select k from t group by k having sum(v) > 5 order by k")
        .unwrap();
    // Sums: a = 1+2+1 = 4, b = 12, c = 6 -> only b and c qualify.
    let names: Vec<&str> = r.rows.iter().map(|x| x.get(0).as_str().unwrap()).collect();
    assert_eq!(names, vec!["b", "c"]);

    // HAVING mixed with group key comparison.
    let r = db
        .query("select k, sum(v) s from t group by k having k <> 'c' order by s desc")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0].get(0).as_str().unwrap(), "b");
}

// ----- session API: prepared statements, cursors, drop_table ------------

#[test]
fn prepared_statement_matches_literal_sql() {
    let (_td, p, schema) = micro_file(600, 8);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    let stmt = db
        .prepare("select c0, c5 from t where c2 < ? order by c0")
        .unwrap();
    assert_eq!(stmt.param_count(), 1);
    assert_eq!(stmt.schema().len(), 2);
    for bound in [100_000_000i64, 500_000_000, 900_000_000] {
        let prepared = stmt.query(&crate::Params::new().bind(bound)).unwrap();
        let literal = db
            .query(&format!(
                "select c0, c5 from t where c2 < {bound} order by c0"
            ))
            .unwrap();
        assert_eq!(prepared.rows, literal.rows, "bound = {bound}");
        assert_eq!(prepared.schema.types(), literal.schema.types());
    }
}

#[test]
fn prepared_statement_validates_parameters() {
    let (_td, p, schema) = micro_file(50, 4);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    let stmt = db.prepare("select c0 from t where c1 < ?").unwrap();
    // Wrong arity, both directions.
    assert!(stmt.execute(&crate::Params::new()).is_err());
    assert!(stmt
        .execute(&crate::Params::new().bind(1i64).bind(2i64))
        .is_err());
    // Type mismatch against the inferred (int) type.
    let err = stmt
        .execute(&crate::Params::new().bind("not a number"))
        .unwrap_err()
        .to_string();
    assert!(err.contains("parameter $1"), "{err}");
    // A statement with placeholders cannot run through plain query().
    assert!(db.query("select c0 from t where c1 < ?").is_err());
    // Gapped $N numbering is rejected at prepare time.
    assert!(db.prepare("select c0 from t where c1 < $2").is_err());
}

#[test]
fn prepared_date_parameters_accept_text() {
    let td = TempDir::new("nodb-core-test").unwrap();
    let p = td.file("dates.csv");
    std::fs::write(&p, "2026-01-01,5\n2026-02-01,7\n2026-03-01,9\n").unwrap();
    let schema = Schema::parse("day date, v int").unwrap();
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_csv("t", &p, schema, CsvOptions::default(), AccessMode::InSitu)
        .unwrap();
    let stmt = db.prepare("select v from t where day >= ?").unwrap();
    // Text coerces to a date (exactly what `date '…'` would inline)...
    let r = stmt
        .query(&crate::Params::new().bind("2026-02-01"))
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // ...and malformed text fails loudly at execute time.
    assert!(stmt
        .query(&crate::Params::new().bind("02/01/2026"))
        .is_err());
}

#[test]
fn query_stream_is_lazy_and_keeps_partial_aux() {
    let (_td, p, schema) = micro_file(20_000, 6);
    let file_len = std::fs::metadata(&p).unwrap().len();
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);

    // Pull three rows, then drop the cursor mid-scan.
    let mut cursor = db.query_stream("select c0, c1 from t").unwrap();
    assert_eq!(cursor.columns(), vec!["c0", "c1"]);
    for _ in 0..3 {
        cursor.next().unwrap().unwrap();
    }
    drop(cursor);

    // The scan stopped after its first block(s): a small fraction of
    // the file was tokenized, and the aux structures cover exactly the
    // consumed prefix — which still serves the next query.
    let m = db.metrics("t").unwrap();
    assert!(
        m.bytes_tokenized < file_len / 2,
        "tokenized {} of {file_len} bytes",
        m.bytes_tokenized
    );
    let aux = db.aux_info("t").unwrap();
    assert!(aux.posmap_pointers > 0, "partial scan built no positions");
    let full = db.query("select count(*) from t").unwrap();
    assert_eq!(full.rows[0].get(0), &Value::Int64(20_000));
}

#[test]
fn profile_exec_time_reconciles_with_wall_clock() {
    let (_td, p, schema) = micro_file(5000, 12);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);

    // A blocking aggregate does all its work inside the first `next()`;
    // that call is timed exactly, not scaled by the sampling stride.
    let cursor = db.query_stream("select sum(c1), count(*) from t").unwrap();
    let t = std::time::Instant::now();
    let (result, profile) = cursor.collect_with_profile().unwrap();
    let wall_ns = t.elapsed().as_nanos() as u64;
    assert_eq!(result.rows[0].get(1), &Value::Int64(5000));
    assert!(
        profile.exec_ns >= wall_ns / 2 && profile.exec_ns <= wall_ns * 2,
        "exec_ns {} vs wall-clock {wall_ns} ns",
        profile.exec_ns
    );

    // A streamed query over five positional-map blocks pulls twenty
    // batches; each pull is timed exactly (none is sampled and scaled),
    // so its `exec_ns` reconciles with wall-clock as well.
    let (_td, p, schema) = micro_file(20_000, 12);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    let mut cursor = db.query_stream("select c0, c11 from t").unwrap();
    let t = std::time::Instant::now();
    cursor.next().unwrap().unwrap();
    let first_pull_ns = cursor.profile().exec_ns;
    assert_eq!(cursor.by_ref().count(), 19_999);
    let wall_ns = t.elapsed().as_nanos() as u64;
    let exec_ns = cursor.profile().exec_ns;
    assert!(exec_ns > first_pull_ns, "later pulls pump later blocks");
    assert!(
        exec_ns >= wall_ns / 2 && exec_ns <= wall_ns * 2,
        "streamed exec_ns {exec_ns} vs wall-clock {wall_ns} ns"
    );
}

#[test]
fn statement_explain_reflects_current_stats() {
    let (_td, p, schema) = micro_file(2_000, 4);
    let db = engine_with(NoDbConfig::postgres_raw(), &p, &schema, AccessMode::InSitu);
    let stmt = db.prepare("select c0 from t where c1 < ?").unwrap();
    let params = crate::Params::new().bind(500_000_000i64);
    let cold = stmt.explain(&params).unwrap().render();
    // No statistics yet: the default 1000-row table guess times the
    // default inequality selectivity.
    assert!(cold.contains("~333 rows"), "default estimate: {cold}");
    // Execute once: the scan collects statistics on the fly.
    stmt.query(&params).unwrap();
    let warm = stmt.explain(&params).unwrap().render();
    assert!(
        !warm.contains("~333 rows") && warm.contains("Scan t"),
        "estimates must pick up adaptive stats: {warm}"
    );
}

#[test]
fn drop_table_releases_and_frees_the_name() {
    let (_td, p, schema) = micro_file(500, 6);
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_csv(
        "t",
        &p,
        schema.clone(),
        CsvOptions::default(),
        AccessMode::InSitu,
    )
    .unwrap();
    db.query("select c0 from t").unwrap();
    assert!(db.aux_info("t").unwrap().posmap_pointers > 0);

    db.drop_table("T").unwrap(); // names are case-insensitive
    assert!(db.query("select c0 from t").is_err());
    assert!(db.metrics("t").is_err());
    assert!(db.drop_table("t").is_err(), "double drop is an error");

    // The name is free again, and the new table starts cold.
    db.register_csv("t", &p, schema, CsvOptions::default(), AccessMode::InSitu)
        .unwrap();
    assert_eq!(db.aux_info("t").unwrap().posmap_pointers, 0);
    assert_eq!(db.query("select count(*) from t").unwrap().rows.len(), 1);
}

#[test]
fn drop_table_removes_loaded_heap_storage() {
    let (_td, p, schema) = micro_file(200, 4);
    let data_td = TempDir::new("nodb-core-heap").unwrap();
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.data_dir = Some(data_td.path().to_path_buf());
    let mut db = NoDb::new(cfg).unwrap();
    db.register_csv("t", &p, schema, CsvOptions::default(), AccessMode::Loaded)
        .unwrap();
    db.load_table("t").unwrap();
    let heap = data_td.path().join("heap").join("t.heap");
    let overflow = data_td.path().join("heap").join("t.ovf");
    assert!(heap.exists());
    assert!(overflow.exists(), "loader always creates the overflow file");
    db.drop_table("t").unwrap();
    assert!(!heap.exists(), "heap file must be deleted on drop");
    assert!(!overflow.exists(), "overflow file must be deleted on drop");
    assert!(db.query("select c0 from t").is_err());
}

/// Once the cache holds every projected column, a map-covered block is
/// served from it alone: it takes no positional-map snapshot, inserts
/// no chunk and reads no raw byte, and it answers as the cold scan did,
/// under every configuration.
#[test]
fn cache_served_blocks_skip_the_map_and_the_file() {
    let (_td, p, schema) = micro_file(300, 8);
    let fill = "select c1, c3 from t";
    let queries = [
        "select c1 from t where c3 < 500000000",
        "select c3, c1 from t where c1 > c3 order by c3 limit 7",
        "select count(*), sum(c1), min(c3) from t",
        "select count(*) from t",
    ];
    let configs = [
        ("pm_only", NoDbConfig::pm_only()),
        ("cache_only", NoDbConfig::cache_only()),
        ("postgres_raw", NoDbConfig::postgres_raw()),
    ];
    for (label, base) in configs {
        // 64-row blocks, and no map budget: an evicted chunk would
        // re-collect its block instead of leaving it to the cache.
        let config = NoDbConfig {
            posmap_block_rows: 64,
            posmap_budget: None,
            ..base
        };
        let cached = config.enable_cache;
        let open = || engine_with(config.clone(), &p, &schema, AccessMode::InSitu);
        for q in queries {
            let cold = open().query(q).unwrap().rows;
            let db = open();
            db.query(fill).unwrap();
            let map_stats = |db: &NoDb| {
                (db.entry("t").unwrap().runtime.as_ref())
                    .unwrap()
                    .posmap
                    .read()
                    .stats()
            };
            let (map, io, metrics) = (map_stats(&db), db.profile("t").unwrap(), db.metrics("t"));
            assert_eq!(db.query(q).unwrap().rows, cold, "{label}: {q}");
            if !cached {
                continue;
            }
            let after = map_stats(&db);
            assert_eq!(
                (after.snapshots, after.inserts),
                (map.snapshots, map.inserts),
                "{label}: {q}"
            );
            assert_eq!(
                db.profile("t").unwrap().io_bytes,
                io.io_bytes,
                "{label}: {q}"
            );
            let (before, now) = (metrics.unwrap(), db.metrics("t").unwrap());
            assert_eq!(now.fields_parsed, before.fields_parsed, "{label}: {q}");
            assert_eq!(
                now.fields_tokenized, before.fields_tokenized,
                "{label}: {q}"
            );
        }
    }
}
