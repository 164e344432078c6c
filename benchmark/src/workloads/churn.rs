//! `churn_sequence`: the adaptive sequence under memory budgets and
//! appends.
//!
//! The same forty queries run on a scratch copy of the first 80 % of
//! `wide.csv`, the positional map and the cache are each limited to a
//! quarter of what they grow to unbudgeted, and after every eighth query
//! 1 % more rows are appended from the held-back tail. This uses
//! `posmap`, `cache` and the scan differently from `adaptive_sequence`:
//! insert, evict and extend-on-append beside lookup, with a working set
//! larger than the program's caches. A gain elsewhere that is bought with
//! eviction thrash, re-tokenizing after appends or per-query file checks
//! shows here as a loss.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use nodb_common::{ByteSize, Schema};
use nodb_core::NoDbConfig;

use super::{
    prime, query, setup_repeats, text, wide_engine, wide_sequence, Budget, Counters, Env, OpLog,
    Pass, Res, SetupClock, SEQUENCE_LEN,
};
use crate::datagen::{wide_schema, WideFile};
use crate::json::Json;
use crate::oracle::Answer;
use crate::trace::Tracer;

/// The subcommand under which this binary runs [`size`] in a process of
/// its own.
pub const SIZE_SUBCOMMAND: &str = "size-churn";

/// Rows are appended after every this-many queries.
const APPEND_EVERY: usize = 8;

/// How many rows query `i` of the sequence can see.
fn visible_rows(wide: &WideFile, i: usize) -> usize {
    let base = wide.rows * 80 / 100;
    let step = (wide.rows / 100).max(1);
    base + (i / APPEND_EVERY) * step
}

/// The scratch file and the source it grows from.
struct Scratch<'a> {
    wide: &'a WideFile,
    source: File,
    path: std::path::PathBuf,
}

impl Scratch<'_> {
    /// Cut the scratch file back to its first 80 % (creating it on first
    /// use). Only called while no engine has the file open or mapped.
    fn reset(&mut self) -> std::io::Result<()> {
        let base_rows = visible_rows(self.wide, 0);
        match OpenOptions::new().write(true).open(&self.path) {
            Ok(existing) => existing.set_len(self.wide.row_starts[base_rows]),
            Err(_) => {
                File::create(&self.path)?;
                self.append_rows(0, base_rows)
            }
        }
    }

    /// Copy rows `from..to` of the source to the end of the scratch file.
    fn append_rows(&mut self, from: usize, to: usize) -> std::io::Result<()> {
        let (start, end) = (self.wide.row_starts[from], self.wide.row_starts[to]);
        let mut out = OpenOptions::new().append(true).open(&self.path)?;
        self.source.seek(SeekFrom::Start(start))?;
        std::io::copy(&mut (&mut self.source).take(end - start), &mut out)?;
        out.flush()
    }
}

/// One engine's run through the sequence and its appends. Operations are
/// logged to `ops`, checked against `expected` where it is given (without
/// it only an error fails an operation); returns the engine's counters at
/// the end.
fn run_rep(
    scratch: &mut Scratch<'_>,
    config: NoDbConfig,
    schema: &Schema,
    sqls: &[String],
    expected: Option<&[Answer]>,
    tr: &mut Tracer,
    ops: &mut OpLog,
) -> Res<Counters> {
    let wide = scratch.wide;
    scratch.reset().map_err(text)?;
    let db = wide_engine(config, &scratch.path, schema, tr).map_err(text)?;
    for (i, sql) in sqls.iter().enumerate() {
        if i > 0 && i % APPEND_EVERY == 0 {
            scratch
                .append_rows(visible_rows(wide, i - 1), visible_rows(wide, i))
                .map_err(text)?;
        }
        let t = Instant::now();
        let result = tr.op("op", |tr| query(&db, sql, tr));
        let ok = matches!(&result, Ok((answer, _)) if expected.is_none_or(|e| e[i] == *answer));
        ops.record(t, i, tr.enabled, ok);
    }
    Counters::snapshot(&db, &["t"])
}

fn scratch_of<'a>(env: &Env, wide: &'a WideFile) -> Res<Scratch<'a>> {
    Ok(Scratch {
        wide,
        source: File::open(&wide.file.path).map_err(text)?,
        path: env.dir.join("churn.csv"),
    })
}

/// What the sequence and its appends cost an engine without budgets.
struct Unbudgeted {
    posmap_bytes: u64,
    cache_bytes: u64,
    /// Conversions an engine that never evicts needs.
    fields_parsed: u64,
}

const UNBUDGETED_FIELDS: [&str; 3] = ["posmap_bytes", "cache_bytes", "fields_parsed"];

/// The body of [`SIZE_SUBCOMMAND`]: run the identical sequence and appends
/// once on a default engine and print what it grew to, as one JSON object.
/// It is the harness's sizing work, not the program's set-up, and it runs
/// in its own process so that neither `setup_s` nor the `VmHWM` of the
/// measuring process contains an engine that was never budgeted.
pub fn size(env: &Env) -> Res<()> {
    let wide = env.wide()?;
    let schema = Schema::parse(&wide_schema()).map_err(text)?;
    let sqls: Vec<String> = wide_sequence().iter().map(|q| q.sql()).collect();
    let mut ops = OpLog::default();
    let counters = run_rep(
        &mut scratch_of(env, wide)?,
        NoDbConfig::default(),
        &schema,
        &sqls,
        None,
        &mut Tracer::off(),
        &mut ops,
    )?;
    if ops.failed > 0 {
        return Err(format!("{} queries of the sizing pass failed", ops.failed));
    }
    let values = [
        counters.posmap_bytes,
        counters.cache_bytes,
        counters.scan.fields_parsed,
    ];
    println!(
        "{}",
        Json::obj(
            UNBUDGETED_FIELDS
                .iter()
                .zip(values)
                .map(|(name, v)| (*name, Json::Num(v as f64)))
        )
    );
    Ok(())
}

/// Run [`size`] for this seed and scale in a child process and wait for it.
fn size_in_child(env: &Env) -> Res<Unbudgeted> {
    let output = Command::new(std::env::current_exe().map_err(text)?)
        .arg(SIZE_SUBCOMMAND)
        .args(["--seed", &env.seed.to_string()])
        .args(["--scale", &env.scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(text)?;
    if !output.status.success() {
        return Err(format!("{SIZE_SUBCOMMAND} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let doc = Json::parse(stdout.lines().last().unwrap_or_default())?;
    let field = |name: &str| {
        doc.get(name)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("{SIZE_SUBCOMMAND} printed no `{name}`"))
    };
    let [posmap_bytes, cache_bytes, fields_parsed] = UNBUDGETED_FIELDS.map(field);
    Ok(Unbudgeted {
        posmap_bytes: posmap_bytes?,
        cache_bytes: cache_bytes?,
        fields_parsed: fields_parsed?,
    })
}

pub fn run(env: &Env, budget: Budget, trace: bool) -> Res<Pass> {
    let wide = env.wide()?;
    let schema = Schema::parse(&wide_schema()).map_err(text)?;
    let sequence = wide_sequence();
    let sqls: Vec<String> = sequence.iter().map(|q| q.sql()).collect();
    let limits: Vec<usize> = (0..sequence.len()).map(|i| visible_rows(wide, i)).collect();
    // The scratch file is always a prefix of wide.csv, so the oracle reads
    // wide.csv itself and stops each query at the rows it could see.
    let expected =
        env.expect(|| crate::oracle::eval_wide(&wide.file.path, &sequence, &limits).map_err(text))?;
    let mut scratch = scratch_of(env, wide)?;

    let unbudgeted = size_in_child(env)?;
    let posmap_budget = ByteSize(unbudgeted.posmap_bytes / 4);
    let cache_budget = ByteSize(unbudgeted.cache_bytes / 4);
    let config = || NoDbConfig {
        posmap_budget: Some(posmap_budget),
        cache_budget: Some(cache_budget),
        ..NoDbConfig::default()
    };
    let mut pass = Pass {
        raw_bytes: wide.row_starts[visible_rows(wide, 0)],
        // One engine answering the whole sequence.
        block_ops: SEQUENCE_LEN,
        clients: 1,
        ..Pass::default()
    };
    pass.notes.push(format!(
        "churn budgets: posmap_budget={} bytes (unbudgeted {}), cache_budget={} bytes (unbudgeted {})",
        posmap_budget.bytes(),
        unbudgeted.posmap_bytes,
        cache_budget.bytes(),
        unbudgeted.cache_bytes
    ));

    // Set-up is what a user of a budgeted engine pays before the first
    // query: the file in the page cache and the engine constructed.
    for _ in 0..setup_repeats(trace) {
        scratch.reset().map_err(text)?;
        let mut clock = SetupClock::default();
        clock.time(|| prime(&scratch.path))?;
        clock
            .time(|| wide_engine(config(), &scratch.path, &schema, &mut Tracer::off()))
            .map_err(text)?;
        pass.setup_s.push(clock.seconds());
    }

    let mut tr = Tracer::new(Instant::now(), 0, false);
    let mut ops = OpLog::default();
    let started = Instant::now();
    let mut round = 0;
    while budget.allows(round, started) {
        tr.enabled = trace && round % 2 == 0;
        pass.counters = run_rep(
            &mut scratch,
            config(),
            &schema,
            &sqls,
            Some(&expected),
            &mut tr,
            &mut ops,
        )?;
        round += 1;
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.ops = ops;
    pass.tracers = vec![tr];
    pass.reparsed_fields = pass
        .counters
        .scan
        .fields_parsed
        .saturating_sub(unbudgeted.fields_parsed);
    Ok(pass)
}
