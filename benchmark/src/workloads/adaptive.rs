//! `adaptive_sequence`: the paper's adaptive curve (Figures 5 and 7).
//!
//! Fresh engines each answer the same sequence of forty queries
//! over `wide.csv`; one operation is one ad-hoc query (prepare, execute,
//! stream), the first query of every engine included. As a sequence
//! proceeds, work shifts from tokenizing and converting to positional-map
//! jumps and cache hits: `ops_per_s` is the cumulative-time number of
//! Figure 7, the p95 of an operation the price of touching unmapped attributes.

use std::time::Instant;

use nodb_common::Schema;
use nodb_core::NoDbConfig;

use super::{
    prime, query, setup_repeats, text, wide_engine, wide_sequence, Budget, Counters, Env, OpLog,
    Pass, Res, SetupClock, SEQUENCE_LEN,
};
use crate::datagen::wide_schema;
use crate::trace::Tracer;

pub fn run(env: &Env, budget: Budget, trace: bool) -> Res<Pass> {
    let wide = env.wide()?;
    let path = wide.file.path.as_path();
    let schema = Schema::parse(&wide_schema()).map_err(text)?;
    let sequence = wide_sequence();
    let sqls: Vec<String> = sequence.iter().map(|q| q.sql()).collect();
    let expected = env.expect(|| {
        crate::oracle::eval_wide(path, &sequence, &vec![wide.rows; sequence.len()]).map_err(text)
    })?;

    let mut pass = Pass {
        raw_bytes: wide.file.bytes,
        // One engine answering the whole sequence.
        block_ops: SEQUENCE_LEN,
        clients: 1,
        ..Pass::default()
    };
    for _ in 0..setup_repeats(trace) {
        let mut clock = SetupClock::default();
        clock.time(|| prime(path))?;
        clock
            .time(|| wide_engine(NoDbConfig::default(), path, &schema, &mut Tracer::off()))
            .map_err(text)?;
        pass.setup_s.push(clock.seconds());
    }

    let mut tr = Tracer::new(Instant::now(), 0, false);
    let mut ops = OpLog::default();
    let started = Instant::now();
    let mut round = 0;
    // One round is one engine answering the whole sequence: a partial
    // sequence would change the mix of cold and warm queries.
    while budget.allows(round, started) {
        tr.enabled = trace && round % 2 == 0;
        let db = wide_engine(NoDbConfig::default(), path, &schema, &mut tr).map_err(text)?;
        for (i, (sql, want)) in sqls.iter().zip(&expected).enumerate() {
            let t = Instant::now();
            let result = tr.op("op", |tr| query(&db, sql, tr));
            let ok = matches!(&result, Ok((answer, _)) if answer == want);
            ops.record(t, i, tr.enabled, ok);
        }
        pass.counters = Counters::snapshot(&db, &["t"])?;
        round += 1;
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.ops = ops;
    pass.tracers = vec![tr];
    Ok(pass)
}
