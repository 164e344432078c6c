//! Micro-benchmarks of the individual substrates: tokenizer, positional
//! map, cache, tuple codec, expression evaluation and operators. These
//! quantify the per-mechanism costs behind the figure-level results
//! (e.g. how much a map jump saves over re-tokenizing a line).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use nodb_cache::{CacheConfig, ColumnBuilder, RawCache};
use nodb_common::{ByteSize, DataType, IoBackend, LineFormat, Row, Schema, TempDir, Value};
use nodb_core::{AccessMode, NoDb, NoDbConfig, Params};
use nodb_csv::tokenize;
use nodb_csv::{CsvOptions, MicroGen};
use nodb_exec::ops::{HashAggOp, HashJoinOp, Operator, RowsOp, SortAggOp};
use nodb_exec::{eval, eval_predicate, DEFAULT_BATCH_ROWS};
use nodb_json::{JsonFormat, JsonlGen};
use nodb_posmap::{BlockCollector, PosMapConfig, PositionalMap};
use nodb_server::protocol::{read_frame, Frame};
use nodb_server::{NodbClient, NodbServer, ServerConfig};
use nodb_sql::expr::AggExpr;
use nodb_sql::{AggFunc, BinOp, BoundExpr, JoinKind};
use nodb_stats::StatsBuilder;

/// A 150-field CSV line like the micro-benchmark's.
fn sample_line() -> Vec<u8> {
    (0..150)
        .map(|i| ((i * 7919 + 13) % 1_000_000_000).to_string())
        .collect::<Vec<_>>()
        .join(",")
        .into_bytes()
}

fn bench_tokenizer(c: &mut Criterion) {
    let line = sample_line();
    let mut g = c.benchmark_group("substrate_tokenizer");
    g.throughput(Throughput::Bytes(line.len() as u64));
    g.bench_function("tokenize_all_150_fields", |b| {
        let mut out = Vec::with_capacity(160);
        b.iter(|| {
            out.clear();
            tokenize::tokenize_all(&line, b',', &mut out)
        });
    });
    g.bench_function("selective_tokenize_upto_10", |b| {
        let mut out = Vec::with_capacity(16);
        b.iter(|| {
            out.clear();
            tokenize::tokenize_upto(&line, b',', 10, &mut out)
        });
    });
    g.bench_function("anchored_advance_5_fields", |b| {
        let mut starts = Vec::new();
        tokenize::tokenize_all(&line, b',', &mut starts);
        let anchor = starts[100];
        b.iter(|| tokenize::advance_forward(&line, b',', anchor, 100, 105));
    });
    g.finish();
}

fn bench_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_conversion");
    g.bench_function("parse_int_field", |b| {
        b.iter(|| Value::parse_field(b"123456789", DataType::Int32).expect("int"));
    });
    g.bench_function("parse_float_field", |b| {
        b.iter(|| Value::parse_field(b"12345.6789", DataType::Float64).expect("float"));
    });
    g.bench_function("parse_date_field", |b| {
        b.iter(|| Value::parse_field(b"1996-03-13", DataType::Date).expect("date"));
    });
    g.finish();
}

fn bench_posmap(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_posmap");
    // A populated map: 32 blocks × 4096 rows × 8 attrs.
    let mut map = PositionalMap::new(PosMapConfig::default());
    for block in 0..32u64 {
        let mut col = BlockCollector::new(block, (0..8).collect());
        for r in 0..4096u32 {
            let offs: Vec<u32> = (0..8).map(|a| a * 12 + r % 7).collect();
            col.push_row(&offs);
        }
        map.insert(col.build());
    }
    g.bench_function("fetch_block_exact", |b| {
        b.iter(|| map.fetch_block(7, &[2, 5]));
    });
    g.bench_function("fetch_block_anchor", |b| {
        b.iter(|| map.fetch_block(7, &[20])); // uncovered -> nearest anchor
    });
    g.bench_function("insert_chunk_4096x8", |b| {
        b.iter_batched(
            || {
                let mut col = BlockCollector::new(99, (0..8).collect());
                for r in 0..4096u32 {
                    let offs: Vec<u32> = (0..8).map(|a| a * 12 + r % 7).collect();
                    col.push_row(&offs);
                }
                col.build()
            },
            |chunk| map.insert(chunk),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_cache");
    let mut cache = RawCache::new(CacheConfig::default());
    let mut b1 = ColumnBuilder::new(0, 3, DataType::Int32, 4096);
    for i in 0..4096 {
        b1.set(i, &Value::Int32(i as i32));
    }
    cache.insert(b1.build());
    g.bench_function("lookup_hit", |b| {
        b.iter(|| cache.get(0, 3).expect("hit").get(1234));
    });
    g.bench_function("lookup_miss", |b| {
        b.iter(|| cache.get(9, 9).is_none());
    });
    g.bench_function("build_and_insert_4096_ints", |b| {
        b.iter_batched(
            || {
                let mut bu = ColumnBuilder::new(1, 1, DataType::Int32, 4096);
                for i in 0..4096 {
                    bu.set(i, &Value::Int32(i as i32));
                }
                bu.build()
            },
            |col| cache.insert(col),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_stats");
    g.bench_function("offer_value", |b| {
        let mut builder = StatsBuilder::new(DataType::Int32);
        let mut i = 0i32;
        b.iter(|| {
            i = i.wrapping_add(977);
            builder.offer(&Value::Int32(i));
        });
    });
    g.finish();
}

fn bench_exec(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_exec");
    let row = Row(vec![
        Value::Int32(5),
        Value::Float64(2.5),
        Value::Text("PROMO ANODIZED TIN".into()),
    ]);
    let expr = BoundExpr::Binary {
        op: BinOp::Mul,
        left: Box::new(BoundExpr::Col(0)),
        right: Box::new(BoundExpr::Binary {
            op: BinOp::Sub,
            left: Box::new(BoundExpr::Lit(Value::Float64(1.0))),
            right: Box::new(BoundExpr::Col(1)),
        }),
    };
    g.bench_function("eval_arith_expr", |b| {
        b.iter(|| eval(&expr, &row).expect("eval"));
    });
    let like = BoundExpr::Like {
        expr: Box::new(BoundExpr::Col(2)),
        pattern: Box::new(BoundExpr::Lit(Value::Text("PROMO%".into()))),
        negated: false,
    };
    g.bench_function("eval_like", |b| {
        b.iter(|| eval_predicate(&like, &row).expect("eval"));
    });

    let data: Vec<Row> = (0..10_000)
        .map(|i| Row(vec![Value::Int64(i % 50), Value::Int64(i)]))
        .collect();
    let aggs = vec![AggExpr {
        func: AggFunc::Sum,
        arg: Some(BoundExpr::Col(1)),
    }];
    g.bench_function("hash_agg_10k_rows_50_groups", |b| {
        b.iter_batched(
            || Box::new(RowsOp::new(data.clone())),
            |input| {
                let mut op = HashAggOp::new(input, vec![0], aggs.clone());
                while op.next_batch(DEFAULT_BATCH_ROWS).expect("agg").is_some() {}
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("sort_agg_10k_rows_50_groups", |b| {
        b.iter_batched(
            || Box::new(RowsOp::new(data.clone())),
            |input| {
                let mut op = SortAggOp::new(input, vec![0], aggs.clone());
                while op.next_batch(DEFAULT_BATCH_ROWS).expect("agg").is_some() {}
            },
            BatchSize::SmallInput,
        );
    });

    let build: Vec<Row> = (0..1000).map(|i| Row(vec![Value::Int64(i)])).collect();
    let probe: Vec<Row> = (0..10_000)
        .map(|i| Row(vec![Value::Int64(i % 2000)]))
        .collect();
    g.bench_function("hash_join_1k_x_10k", |b| {
        b.iter_batched(
            || {
                (
                    Box::new(RowsOp::new(build.clone())),
                    Box::new(RowsOp::new(probe.clone())),
                )
            },
            |(l, r)| {
                let mut op = HashJoinOp::new(l, r, vec![(0, 0)], None, JoinKind::Inner);
                while op.next_batch(DEFAULT_BATCH_ROWS).expect("join").is_some() {}
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_storage(c: &mut Criterion) {
    use nodb_storage::tuple;
    let schema =
        Schema::parse("a int, b bigint, c double, d date, e text, f text").expect("schema");
    let row = Row(vec![
        Value::Int32(42),
        Value::Int64(1 << 40),
        Value::Float64(3.25),
        Value::Date(nodb_common::Date(9000)),
        Value::Text("DELIVER IN PERSON".into()),
        Value::Text("carefully final deposits".into()),
    ]);
    let mut g = c.benchmark_group("substrate_storage");
    g.bench_function("tuple_encode", |b| {
        let mut buf = Vec::new();
        b.iter(|| tuple::encode(&row, &schema, 24, &mut buf).expect("encode"));
    });
    let mut buf = Vec::new();
    tuple::encode(&row, &schema, 24, &mut buf).expect("encode");
    g.bench_function("tuple_decode_full", |b| {
        b.iter(|| tuple::decode_projected(&buf, &schema, 24, &[0, 1, 2, 3, 4, 5]).expect("decode"));
    });
    g.bench_function("tuple_decode_projected_2_of_6", |b| {
        b.iter(|| tuple::decode_projected(&buf, &schema, 24, &[0, 4]).expect("decode"));
    });
    g.finish();
}

/// Thread scaling of the in-situ scan (ISSUE 2 acceptance): cold scans
/// with 1/2/4/8 chunk workers, and warm (map/cache-resident) reads for
/// reference. Cold wall time should drop as `scan_threads` grows while
/// results stay byte-identical (asserted by the test suite; here we
/// sanity-check the row count so a broken merge cannot silently "win").
fn bench_scan_threads(c: &mut Criterion) {
    const ROWS: usize = 20_000;
    let td = TempDir::new("nodb-bench-scan").expect("tempdir");
    let path = td.file("scale.csv");
    let spec = MicroGen::default().rows(ROWS).cols(20).seed(42);
    spec.write_to(&path).expect("write");
    let schema = spec.schema();
    let query = "select c0, c9 from t where c4 < 500000000";

    let mut g = c.benchmark_group("substrate_scan_threads");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let mut cfg = NoDbConfig::postgres_raw();
        cfg.scan_threads = threads;
        let mut db = NoDb::new(cfg).expect("engine");
        db.register_csv(
            "t",
            &path,
            schema.clone(),
            CsvOptions::default(),
            AccessMode::InSitu,
        )
        .expect("register");

        // Sanity outside the timed body: a broken merge must not "win".
        let r = db.query(query).expect("query");
        assert!(!r.rows.is_empty() && r.rows.len() < ROWS);
        g.bench_function(format!("cold_scan/{threads}threads"), |b| {
            b.iter_batched(
                || db.drop_aux("t").expect("drop aux"),
                |()| db.query(query).expect("query").rows.len(),
                BatchSize::SmallInput,
            );
        });
        // Warm once so the warm benchmark reads a built map + cache.
        db.drop_aux("t").expect("drop aux");
        db.query(query).expect("warm-up");
        g.bench_function(format!("warm_scan/{threads}threads"), |b| {
            b.iter(|| db.query(query).expect("query").rows.len());
        });
    }
    g.finish();
}

/// The JSONL substrate (ISSUE 3): keyed-record tokenization cost against
/// the CSV tokenizer's, plus cold (1 and 4 workers) and warm in-situ
/// scans over a JSONL table holding the same logical rows as the CSV
/// micro table. Warm reads go through the positional map and cache, so
/// they should converge with CSV's warm numbers — that gap is the whole
/// point of the adaptive structures being format-independent.
fn bench_jsonl(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_jsonl");

    // Tokenizer: a 150-key object line, full and selective walks.
    let keys: Vec<String> = (0..150).map(|i| format!("c{i}")).collect();
    let format = JsonFormat::new(keys.clone());
    let line: Vec<u8> = {
        let fields: Vec<String> = (0..150)
            .map(|i| format!("\"c{i}\":{}", (i * 7919 + 13) % 1_000_000_000))
            .collect();
        format!("{{{}}}", fields.join(",")).into_bytes()
    };
    g.throughput(Throughput::Bytes(line.len() as u64));
    g.bench_function("tokenize_all_150_keys", |b| {
        let mut out = Vec::with_capacity(160);
        b.iter(|| {
            out.clear();
            format
                .positions_upto(&line, 149, &mut out)
                .expect("tokenize")
        });
    });
    g.bench_function("selective_tokenize_upto_10", |b| {
        let mut out = Vec::with_capacity(16);
        b.iter(|| {
            out.clear();
            format
                .positions_upto(&line, 10, &mut out)
                .expect("tokenize")
        });
    });

    // Engine-level: cold and warm scans, single- and multi-worker.
    const ROWS: usize = 20_000;
    let td = TempDir::new("nodb-bench-jsonl").expect("tempdir");
    let path = td.file("scale.jsonl");
    let spec = JsonlGen::default().rows(ROWS).cols(20).seed(42);
    let file_bytes = spec.write_to(&path).expect("write");
    // Re-anchor the group throughput: the per-line annotation above must
    // not leak onto whole-file scan numbers.
    g.throughput(Throughput::Bytes(file_bytes));
    let schema = spec.schema();
    let query = "select c0, c9 from t where c4 < 500000000";
    g.sample_size(10);
    for threads in [1usize, 4] {
        let mut cfg = NoDbConfig::postgres_raw();
        cfg.scan_threads = threads;
        let mut db = NoDb::new(cfg).expect("engine");
        db.register_jsonl("t", &path, schema.clone(), AccessMode::InSitu)
            .expect("register");
        let r = db.query(query).expect("query");
        assert!(!r.rows.is_empty() && r.rows.len() < ROWS);
        g.bench_function(format!("cold_scan/{threads}threads"), |b| {
            b.iter_batched(
                || db.drop_aux("t").expect("drop aux"),
                |()| db.query(query).expect("query").rows.len(),
                BatchSize::SmallInput,
            );
        });
        db.drop_aux("t").expect("drop aux");
        db.query(query).expect("warm-up");
        g.bench_function(format!("warm_scan/{threads}threads"), |b| {
            b.iter(|| db.query(query).expect("query").rows.len());
        });
    }
    g.finish();
}

/// The I/O-substrate group (ISSUE 4): buffered-`read` vs `mmap` under
/// the same scans. Cold scans measure the raw tokenization path (where
/// the zero-copy mapping should win — fewer syscalls, no double
/// buffering); warm scans measure map/cache-resident reads (where the
/// backends should converge, since the raw file is barely touched).
/// CSV and JSONL hold the same logical rows; 1 vs 4 scan threads shows
/// the mapping being shared across chunk workers instead of each worker
/// re-reading through its own buffer. Row counts are asserted equal
/// across every combination outside the timed bodies, so a diverging
/// backend cannot silently "win".
fn bench_io_backend(c: &mut Criterion) {
    const ROWS: usize = 12_000;
    let td = TempDir::new("nodb-bench-io").expect("tempdir");
    let csv_path = td.file("io.csv");
    let csv_spec = MicroGen::default().rows(ROWS).cols(20).seed(7);
    csv_spec.write_to(&csv_path).expect("write csv");
    let csv_schema = csv_spec.schema();
    let jsonl_path = td.file("io.jsonl");
    let jsonl_spec = JsonlGen::default().rows(ROWS).cols(20).seed(7);
    jsonl_spec.write_to(&jsonl_path).expect("write jsonl");
    let jsonl_schema = jsonl_spec.schema();
    let query = "select c0, c9 from t where c4 < 500000000";

    let mut g = c.benchmark_group("substrate_io_backend");
    g.sample_size(10);
    let mut expected_rows: Option<usize> = None;
    for (fmt, path, schema) in [
        ("csv", &csv_path, &csv_schema),
        ("jsonl", &jsonl_path, &jsonl_schema),
    ] {
        for backend in [IoBackend::Read, IoBackend::Mmap] {
            for threads in [1usize, 4] {
                let mut cfg = NoDbConfig::postgres_raw();
                cfg.scan_threads = threads;
                cfg.io_backend = backend;
                let mut db = NoDb::new(cfg).expect("engine");
                if fmt == "csv" {
                    db.register_csv(
                        "t",
                        path,
                        schema.clone(),
                        CsvOptions::default(),
                        AccessMode::InSitu,
                    )
                    .expect("register");
                } else {
                    db.register_jsonl("t", path, schema.clone(), AccessMode::InSitu)
                        .expect("register");
                }
                let n = db.query(query).expect("query").rows.len();
                assert!(n > 0 && n < ROWS);
                match expected_rows {
                    None => expected_rows = Some(n),
                    Some(e) => assert_eq!(n, e, "{fmt}/{backend}/{threads}: rows diverged"),
                }
                g.bench_function(format!("cold_scan/{fmt}/{backend}/{threads}threads"), |b| {
                    b.iter_batched(
                        || db.drop_aux("t").expect("drop aux"),
                        |()| db.query(query).expect("query").rows.len(),
                        BatchSize::SmallInput,
                    );
                });
                // Warm once so the warm benchmark reads a built map + cache.
                db.drop_aux("t").expect("drop aux");
                db.query(query).expect("warm-up");
                g.bench_function(format!("warm_scan/{fmt}/{backend}/{threads}threads"), |b| {
                    b.iter(|| db.query(query).expect("query").rows.len());
                });
            }
        }
    }
    g.finish();
}

/// Prepared-statement amortization (ISSUE 5): one-shot `NoDb::query`
/// — which lexes, parses, binds and optimizes every call — against
/// `Statement::execute` on a statement prepared once, which only
/// substitutes parameters, refreshes stats-driven choices and rebuilds
/// the operator tree. Cold scans are dominated by raw-file work (the
/// two should converge); warm scans are where the per-call preparation
/// tax shows, so `warm_prepared` should sit measurably under
/// `warm_one_shot`. `prepare_only` prices the amortized work itself.
/// Row counts are asserted identical outside the timed bodies.
fn bench_prepared(c: &mut Criterion) {
    const ROWS: usize = 6_000;
    let td = TempDir::new("nodb-bench-prepared").expect("tempdir");
    let csv_path = td.file("p.csv");
    let csv_spec = MicroGen::default().rows(ROWS).cols(20).seed(11);
    csv_spec.write_to(&csv_path).expect("write csv");
    let csv_schema = csv_spec.schema();
    let jsonl_path = td.file("p.jsonl");
    let jsonl_spec = JsonlGen::default().rows(ROWS).cols(20).seed(11);
    jsonl_spec.write_to(&jsonl_path).expect("write jsonl");
    let jsonl_schema = jsonl_spec.schema();
    let literal = "select c0, c9 from t where c4 < 500000000";
    let parameterized = "select c0, c9 from t where c4 < ?";

    let mut g = c.benchmark_group("substrate_prepared");
    g.sample_size(10);
    for (fmt, path, schema) in [
        ("csv", &csv_path, &csv_schema),
        ("jsonl", &jsonl_path, &jsonl_schema),
    ] {
        let mut db = NoDb::new(NoDbConfig::postgres_raw()).expect("engine");
        if fmt == "csv" {
            db.register_csv(
                "t",
                path,
                schema.clone(),
                CsvOptions::default(),
                AccessMode::InSitu,
            )
            .expect("register");
        } else {
            db.register_jsonl("t", path, schema.clone(), AccessMode::InSitu)
                .expect("register");
        }
        let db = db; // freeze the catalog; statements borrow it
        let stmt = db.prepare(parameterized).expect("prepare");
        let params = Params::new().bind(500_000_000i64);

        // Differential sanity outside the timed bodies: the prepared
        // path must not "win" by returning different rows.
        let a = stmt.query(&params).expect("prepared").rows;
        let b = db.query(literal).expect("literal").rows;
        assert!(!a.is_empty() && a == b, "{fmt}: prepared != literal");

        g.bench_function(format!("prepare_only/{fmt}"), |b| {
            b.iter(|| db.prepare(parameterized).expect("prepare"));
        });
        g.bench_function(format!("cold_scan_one_shot/{fmt}"), |b| {
            b.iter_batched(
                || db.drop_aux("t").expect("drop aux"),
                |()| db.query(literal).expect("query").rows.len(),
                BatchSize::SmallInput,
            );
        });
        g.bench_function(format!("cold_scan_prepared/{fmt}"), |b| {
            b.iter_batched(
                || db.drop_aux("t").expect("drop aux"),
                |()| stmt.query(&params).expect("query").rows.len(),
                BatchSize::SmallInput,
            );
        });
        // Warm once so both warm benchmarks read built structures.
        db.drop_aux("t").expect("drop aux");
        db.query(literal).expect("warm-up");
        g.bench_function(format!("warm_one_shot/{fmt}"), |b| {
            b.iter(|| db.query(literal).expect("query").rows.len());
        });
        g.bench_function(format!("warm_prepared/{fmt}"), |b| {
            b.iter(|| stmt.query(&params).expect("query").rows.len());
        });
        // Streaming execute without materialization: the cursor is
        // drained by count, never collected into a Vec.
        g.bench_function(format!("warm_prepared_stream/{fmt}"), |b| {
            b.iter(|| {
                stmt.execute(&params)
                    .expect("execute")
                    .fold(0usize, |n, r| {
                        r.expect("row");
                        n + 1
                    })
            });
        });
    }
    g.finish();
}

/// The columnar expression evaluator priced against row-at-a-time `eval`
/// on a full 1024-row batch of a typical arithmetic-filter expression.
fn bench_batch(c: &mut Criterion) {
    use nodb_exec::{eval_predicate_batch, ValueBatch};

    let mut g = c.benchmark_group("substrate_batch");

    // Micro: predicate over 1024 rows, columnar vs row-at-a-time.
    let rows: Vec<Row> = (0..1024)
        .map(|i| Row(vec![Value::Int64(i % 97), Value::Float64(i as f64 / 8.0)]))
        .collect();
    let batch = ValueBatch::from_rows(rows.clone());
    let pred = BoundExpr::Binary {
        op: BinOp::And,
        left: Box::new(BoundExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(BoundExpr::Col(0)),
            right: Box::new(BoundExpr::Lit(Value::Int64(10))),
        }),
        right: Box::new(BoundExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(BoundExpr::Col(1)),
            right: Box::new(BoundExpr::Lit(Value::Float64(100.0))),
        }),
    };
    g.bench_function("eval_predicate_1024/columnar", |b| {
        b.iter(|| eval_predicate_batch(&pred, &batch).expect("eval"));
    });
    g.bench_function("eval_predicate_1024/row_at_a_time", |b| {
        b.iter(|| {
            rows.iter()
                .map(|r| eval_predicate(&pred, r).expect("eval"))
                .filter(|&k| k)
                .count()
        });
    });
    g.finish();
}

/// The server path priced against its embedded equivalent: protocol
/// frame codec micro-costs, then whole-query round-trips over loopback
/// TCP — cold (aux dropped per iteration) and warm (map/cache-resident)
/// — next to the same statement on the engine directly. The spread
/// between `warm_query/tcp` and `warm_query/embedded` is the wire tax;
/// `cold_scan/*` pairs gate the raw-scan path like every other group.
fn bench_server(c: &mut Criterion) {
    const ROWS: usize = 6_000;
    let td = TempDir::new("nodb-bench-server").expect("tempdir");
    let path = td.file("s.csv");
    let spec = MicroGen::default().rows(ROWS).cols(20).seed(23);
    spec.write_to(&path).expect("write csv");
    let schema = spec.schema();
    let query = "select c0, c9 from t where c4 < 500000000";

    let mut g = c.benchmark_group("substrate_server");
    g.sample_size(10);

    // Protocol codec micro-costs: one 20-column row frame.
    let row_frame = Frame::Row(Row((0..20).map(Value::Int64).collect()));
    let row_bytes = row_frame.to_bytes().expect("encode");
    g.throughput(Throughput::Bytes(row_bytes.len() as u64));
    g.bench_function("encode_row", |b| {
        let mut buf = Vec::with_capacity(row_bytes.len());
        b.iter(|| {
            buf.clear();
            row_frame.encode(&mut buf).expect("encode");
            buf.len()
        });
    });
    g.bench_function("decode_row", |b| {
        b.iter(|| {
            read_frame(&mut &row_bytes[..])
                .expect("read")
                .expect("frame")
        });
    });

    // Whole-query round-trips over loopback TCP vs the embedded engine.
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).expect("engine");
    db.register_csv(
        "t",
        &path,
        schema.clone(),
        CsvOptions::default(),
        AccessMode::InSitu,
    )
    .expect("register");
    let db = std::sync::Arc::new(db);
    let server = NodbServer::bind_tcp(
        std::sync::Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    let mut client = NodbClient::connect(&addr).expect("connect");

    // Differential sanity outside the timed bodies.
    let over_wire = client.query(query).expect("server query").rows;
    let embedded = db.query(query).expect("embedded query").rows;
    assert!(
        !over_wire.is_empty() && over_wire == embedded,
        "server result diverged from embedded"
    );

    g.bench_function("cold_scan/tcp", |b| {
        b.iter_batched(
            || db.drop_aux("t").expect("drop aux"),
            |()| client.query(query).expect("query").rows.len(),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("cold_scan/embedded", |b| {
        b.iter_batched(
            || db.drop_aux("t").expect("drop aux"),
            |()| db.query(query).expect("query").rows.len(),
            BatchSize::SmallInput,
        );
    });
    // Warm once so both warm benchmarks read built structures.
    db.drop_aux("t").expect("drop aux");
    db.query(query).expect("warm-up");
    g.bench_function("warm_query/tcp", |b| {
        b.iter(|| client.query(query).expect("query").rows.len());
    });
    g.bench_function("warm_query/embedded", |b| {
        b.iter(|| db.query(query).expect("query").rows.len());
    });

    client.close().expect("close");
    handle.shutdown();
    serving
        .join()
        .expect("server thread")
        .expect("server result");
    g.finish();
}

/// Cost of living under an auxiliary-structure budget (ISSUE 8): the
/// same warm workload on an unbudgeted engine, one whose budgets never
/// bind (pure enforcement overhead — should be noise), and one capped
/// at half the measured working set (evicted state is re-read from the
/// raw file, pricing the budget's I/O tax). Cold scans bound the
/// build-plus-enforce path. Row counts are asserted identical outside
/// the timed bodies.
fn bench_budget(c: &mut Criterion) {
    const ROWS: usize = 8_000;
    let td = TempDir::new("nodb-bench-budget").expect("tempdir");
    let csv_path = td.file("b.csv");
    let csv_spec = MicroGen::default().rows(ROWS).cols(20).seed(23);
    csv_spec.write_to(&csv_path).expect("write csv");
    let csv_schema = csv_spec.schema();
    let query = "select c0, c9 from t where c4 < 500000000";

    let engine = |posmap: Option<ByteSize>, cache: Option<ByteSize>| {
        let mut cfg = NoDbConfig::postgres_raw();
        cfg.scan_threads = 1;
        cfg.io_backend = IoBackend::Read;
        cfg.posmap_budget = posmap;
        cfg.cache_budget = cache;
        let mut db = NoDb::new(cfg).expect("engine");
        db.register_csv(
            "t",
            &csv_path,
            csv_schema.clone(),
            CsvOptions::default(),
            AccessMode::InSitu,
        )
        .expect("register");
        db
    };

    // Measure the unbudgeted working set to size the binding budgets.
    let free = engine(None, None);
    let expected = free.query(query).expect("probe").rows.len();
    assert!(expected > 0 && expected < ROWS);
    let aux = free.aux_info("t").expect("aux");
    let half_pm = ByteSize((aux.posmap_bytes / 2) as u64);
    let half_cache = ByteSize((aux.cache_bytes / 2) as u64);
    let slack = Some(ByteSize::gb(1));

    let mut g = c.benchmark_group("substrate_budget");
    g.sample_size(10);
    for (name, db) in [
        ("unbudgeted", free),
        ("slack_budget", engine(slack, slack)),
        ("half_working_set", engine(Some(half_pm), Some(half_cache))),
    ] {
        assert_eq!(
            db.query(query).expect("query").rows.len(),
            expected,
            "{name}"
        );
        g.bench_function(format!("cold_scan/{name}"), |b| {
            b.iter_batched(
                || db.drop_aux("t").expect("drop aux"),
                |()| db.query(query).expect("query").rows.len(),
                BatchSize::SmallInput,
            );
        });
        db.drop_aux("t").expect("drop aux");
        db.query(query).expect("warm-up");
        g.bench_function(format!("warm_scan/{name}"), |b| {
            b.iter(|| db.query(query).expect("query").rows.len());
        });
    }
    g.finish();
}

criterion_group!(
    substrates,
    bench_tokenizer,
    bench_parse,
    bench_posmap,
    bench_cache,
    bench_stats,
    bench_exec,
    bench_storage,
    bench_scan_threads,
    bench_jsonl,
    bench_io_backend,
    bench_prepared,
    bench_batch,
    bench_server,
    bench_budget
);
criterion_main!(substrates);
