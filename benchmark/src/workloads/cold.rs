//! `cold_first_query`: the paper's data-to-query time.
//!
//! One operation builds a fresh engine, registers `wide.csv` in situ and
//! answers one aggregate over four of its 150 columns. Reading, line
//! splitting, tokenizing, converting and *populating* the positional map
//! and cache do nearly all the work; planning and operators almost none.
//! The page cache is hot (set-up reads the file once).

use std::time::Instant;

use nodb_common::Schema;
use nodb_core::NoDbConfig;

use super::{
    prime, query, setup_repeats, text, wide_engine, Budget, Counters, Env, Measured, OpLog, Pass,
    Res, SetupClock,
};
use crate::datagen::{wide_schema, WIDE_VALUE_RANGE};
use crate::oracle::{WideKind, WideQuery};
use crate::stats::median_of;
use crate::trace::{child_sums_ms, Tracer};

const WARM_UP_OPS: usize = 2;

/// `select sum(c7), sum(c70), sum(c140), count(*) from t where c35 < 100000000`
fn the_query() -> WideQuery {
    WideQuery {
        kind: WideKind::Aggregate,
        attrs: vec![7, 70, 140],
        pred_attr: 35,
        threshold: WIDE_VALUE_RANGE / 10,
    }
}

pub fn run(env: &Env, budget: Budget, trace: bool) -> Res<Pass> {
    let wide = env.wide()?;
    let path = wide.file.path.as_path();
    let schema = Schema::parse(&wide_schema()).map_err(text)?;
    let wanted = the_query();
    let sql = wanted.sql();
    let expected = env.expect(|| {
        crate::oracle::eval_wide(path, std::slice::from_ref(&wanted), &[wide.rows]).map_err(text)
    })?[0];

    // One operation; returns the engine so that its counters can be read
    // after the clock has stopped.
    let cold_op = |tr: &mut Tracer| {
        tr.op("op", |tr| {
            let db = wide_engine(NoDbConfig::default(), path, &schema, tr)?;
            let (answer, profile) = query(&db, &sql, tr)?;
            Ok::<_, nodb_common::NoDbError>((db, answer, profile))
        })
    };

    let mut pass = Pass {
        raw_bytes: wide.file.bytes,
        block_ops: 10,
        clients: 1,
        ..Pass::default()
    };
    for _ in 0..setup_repeats(trace) {
        let mut clock = SetupClock::default();
        clock.time(|| prime(path))?;
        for _ in 0..WARM_UP_OPS {
            clock.time(|| cold_op(&mut Tracer::off())).map_err(text)?;
        }
        pass.setup_s.push(clock.seconds());
    }

    let mut tr = Tracer::new(Instant::now(), 0, false);
    let mut ops = OpLog::default();
    let mut coverage = Vec::new();
    let started = Instant::now();
    // One round is one operation; tracing alternates, so that both kinds
    // of operation see the same machine conditions.
    let mut round = 0;
    while budget.allows(round, started) {
        tr.enabled = trace && round % 2 == 0;
        round += 1;
        let t = Instant::now();
        let result = cold_op(&mut tr);
        let wall_ns = t.elapsed().as_nanos() as f64;
        let ok = matches!(&result, Ok((_, answer, _)) if *answer == expected);
        ops.record(t, 0, tr.enabled, ok);
        let Ok((db, _, profile)) = result else {
            continue;
        };
        pass.counters = Counters::snapshot(&db, &["t"])?;
        if trace {
            let scan = profile.scan;
            let accounted = scan.io_ns + scan.tokenize_ns + scan.parse_ns + profile.exec_ns;
            coverage.push(accounted as f64 / wall_ns);
            // The same query again on the now warm engine; not an
            // operation of the workload. It follows every operation of the
            // traced pass, with spans on or off, so that both kinds of
            // operation start from the same state.
            tr.op("warm_op", |tr| query(&db, &sql, tr)).map_err(text)?;
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.ops = ops;

    if trace {
        let scan = ["core.cursor.first_row", "core.cursor.drain"];
        let cold = child_sums_ms(tr.spans(), "op", &scan);
        let warm = child_sums_ms(tr.spans(), "warm_op", &scan);
        if cold.is_empty() || warm.is_empty() {
            return Err("traced cold pass recorded no scan spans".to_string());
        }
        pass.layer = vec![
            Measured::new("core.scan.cold_ms", median_of(&cold), cold.len()),
            Measured::new("core.scan.warm_ms", median_of(&warm), warm.len()),
            Measured::new(
                "core.profile_coverage",
                median_of(&coverage),
                coverage.len(),
            ),
        ];
    }
    pass.tracers = vec![tr];
    Ok(pass)
}
