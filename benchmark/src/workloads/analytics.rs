//! `warm_analytics`: TPC-H on warmed in-situ tables (the paper's
//! Figure 10).
//!
//! All eight tables are registered in situ and warmed in set-up; one
//! operation is one round of Q1, Q3, Q4, Q6, Q10, Q12, Q14 and Q19 as
//! prepared statements. Scans are served from the cache, so filters, hash
//! joins, hash and sort aggregates, sorting and planning dominate: the
//! workload on which the row-versus-batch and planner decisions must
//! show, and on which a change to the scan kernel must show nothing.

use std::path::PathBuf;
use std::time::Instant;

use nodb_core::{AccessMode, NoDb, NoDbConfig, Params, Statement};
use nodb_csv::CsvOptions;
use nodb_tpch::{queries, TpchGen};

use super::{
    execute, prime, setup_repeats, text, Budget, Counters, Env, Measured, OpLog, Pass, Res,
    SetupClock,
};
use crate::datagen::identify;
use crate::oracle::Answer;
use crate::stats::median_of;
use crate::trace::{durations_ms, Tracer};

/// TPC-H scale factor at `--scale 1` (about 10 MB over the eight tables;
/// `lineitem` has about 60 000 rows).
const BASE_SCALE_FACTOR: f64 = 0.01;

/// Span name and metric of each query of a round, in round order.
const QUERIES: [(&str, &str); 8] = [
    ("exec.tpch_q1", "exec.tpch_q1_ms"),
    ("exec.tpch_q3", "exec.tpch_q3_ms"),
    ("exec.tpch_q4", "exec.tpch_q4_ms"),
    ("exec.tpch_q6", "exec.tpch_q6_ms"),
    ("exec.tpch_q10", "exec.tpch_q10_ms"),
    ("exec.tpch_q12", "exec.tpch_q12_ms"),
    ("exec.tpch_q14", "exec.tpch_q14_ms"),
    ("exec.tpch_q19", "exec.tpch_q19_ms"),
];

/// Filter plus aggregate over every row of the fully cached `lineitem`.
const WARM_SCAN_SQL: &str =
    "select sum(l_quantity), count(*) from lineitem where l_discount < 0.05";

/// Rounds of the loaded baseline in the traced pass.
const LOADED_ROUNDS: usize = 3;

type Tables = Vec<(String, PathBuf)>;

/// A default engine with every table registered in `mode`.
fn engine(tables: &Tables, mode: AccessMode) -> Res<NoDb> {
    let mut db = NoDb::new(NoDbConfig::default()).map_err(text)?;
    for (name, path) in tables {
        let schema = TpchGen::schema(name).map_err(text)?;
        db.register_csv(name, path, schema, CsvOptions::pipe(), mode)
            .map_err(text)?;
    }
    Ok(db)
}

fn prepare_all<'db>(db: &'db NoDb, tr: &mut Tracer) -> Res<Vec<Statement<'db>>> {
    queries::all()
        .into_iter()
        .map(|(_, sql)| tr.leaf("sql.prepare", || db.prepare(sql)).map_err(text))
        .collect()
}

/// One round: every query once, each in its own span, each checked.
/// Returns how many queries answered correctly.
fn round(stmts: &[Statement<'_>], expected: &[Answer], tr: &mut Tracer) -> usize {
    let none = Params::new();
    stmts
        .iter()
        .zip(QUERIES)
        .zip(expected)
        .filter(|((stmt, (span, _)), want)| {
            let result = tr.nested(span, |tr| execute(stmt, &none, tr));
            matches!(&result, Ok((answer, _)) if answer == *want)
        })
        .count()
}

pub fn run(env: &Env, budget: Budget, trace: bool) -> Res<Pass> {
    let dir = env.dir.join("tpch");
    let generator = TpchGen::new(BASE_SCALE_FACTOR * env.scale, env.seed);
    let tables: Tables =
        env.generate(|| generator.generate_all(&dir).map_err(std::io::Error::other))?;
    let mut pass = Pass {
        block_ops: 5,
        clients: 1,
        ..Pass::default()
    };
    for (name, path) in &tables {
        let file = env.generate(|| identify(path))?;
        pass.raw_bytes += file.bytes;
        env.note_input(&format!("tpch/{name}.tbl"), &file);
    }
    let lineitem_rows = generator
        .row_counts()
        .into_iter()
        .find(|(name, _)| *name == "lineitem")
        .map_or(0, |(_, rows)| rows);

    // Expected answers from an engine that keeps no auxiliary structure.
    let expected = env.expect(|| {
        let oracle = engine(&tables, AccessMode::ExternalFiles)?;
        let stmts = prepare_all(&oracle, &mut Tracer::off())?;
        stmts
            .iter()
            .map(|s| {
                execute(s, &Params::new(), &mut Tracer::off())
                    .map(|(answer, _)| answer)
                    .map_err(text)
            })
            .collect()
    })?;

    // Set-up: read the files once, build the engine, prepare, and run one
    // cold round plus the warm-scan statement, which leaves every column a
    // later round touches in the cache.
    let set_up = |clock: &mut SetupClock| -> Res<NoDb> {
        for (_, path) in &tables {
            clock.time(|| prime(path))?;
        }
        clock.time(|| {
            let db = engine(&tables, AccessMode::InSitu)?;
            let stmts = prepare_all(&db, &mut Tracer::off())?;
            round(&stmts, &expected, &mut Tracer::off());
            db.query(WARM_SCAN_SQL).map_err(text)?;
            drop(stmts);
            Ok(db)
        })
    };
    let mut db = None;
    for _ in 0..setup_repeats(trace) {
        let mut clock = SetupClock::default();
        db = Some(set_up(&mut clock)?);
        pass.setup_s.push(clock.seconds());
    }
    let db = db.expect("set-up runs at least once");
    let names: Vec<&str> = tables.iter().map(|(n, _)| n.as_str()).collect();
    // Preparing again for the measured phase repeats work set-up has
    // already been charged for; in the traced pass it yields the
    // `sql.prepare` spans.
    let mut tr = Tracer::new(Instant::now(), 0, trace);
    let stmts = prepare_all(&db, &mut tr)?;
    let warm_scan = db.prepare(WARM_SCAN_SQL).map_err(text)?;

    let before = Counters::snapshot(&db, &names)?;
    let mut ops = OpLog::default();
    let started = Instant::now();
    let mut rounds = 0;
    while budget.allows(rounds, started) {
        tr.enabled = trace && rounds % 2 == 0;
        let t = Instant::now();
        let correct = tr.op("op", |tr| round(&stmts, &expected, tr));
        ops.record(t, 0, tr.enabled, correct == stmts.len());
        if tr.enabled {
            tr.op("exec.warm_scan", |tr| {
                execute(&warm_scan, &Params::new(), tr)
            })
            .map_err(text)?;
        }
        rounds += 1;
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.counters = Counters::snapshot(&db, &names)?.since(&before);

    if trace {
        for (span, metric) in QUERIES {
            let ms = durations_ms(tr.spans(), span);
            pass.layer
                .push(Measured::new(metric, median_of(&ms), ms.len()));
        }
        let warm = durations_ms(tr.spans(), "exec.warm_scan");
        pass.layer.push(Measured::new(
            "exec.warm_rows_per_s",
            lineitem_rows as f64 / (median_of(&warm) / 1e3),
            warm.len(),
        ));
        let in_situ_ms = median_of(&ops.ms);
        pass.layer.extend(loaded_baseline(
            &tables,
            &expected,
            in_situ_ms,
            &mut pass.notes,
        )?);
    }
    pass.ops = ops;
    pass.tracers = vec![tr];
    Ok(pass)
}

/// The paper's loaded baseline on the same files: load every table, then
/// run the same rounds. For context only; nothing gates on it.
fn loaded_baseline(
    tables: &Tables,
    expected: &[Answer],
    in_situ_round_ms: f64,
    notes: &mut Vec<String>,
) -> Res<Vec<Measured>> {
    let mut db = engine(tables, AccessMode::Loaded)?;
    let t = Instant::now();
    for (name, _) in tables {
        db.load_table(name).map_err(text)?;
    }
    let load_s = t.elapsed().as_secs_f64();
    let stmts = prepare_all(&db, &mut Tracer::off())?;
    let mut round_ms = Vec::new();
    for _ in 0..LOADED_ROUNDS {
        let t = Instant::now();
        round(&stmts, expected, &mut Tracer::off());
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let loaded_ms = median_of(&round_ms);
    notes.push(format!(
        "core.warm_vs_loaded_ratio = in-situ warm round {in_situ_round_ms:.3} ms / loaded round {loaded_ms:.3} ms"
    ));
    Ok(vec![
        Measured::new("storage.tpch_load_s", load_s, 1),
        Measured::new("storage.tpch_round_ms", loaded_ms, round_ms.len()),
        Measured::new(
            "core.warm_vs_loaded_ratio",
            in_situ_round_ms / loaded_ms,
            round_ms.len(),
        ),
    ])
}
