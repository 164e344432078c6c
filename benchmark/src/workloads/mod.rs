//! What the five workloads share: the per-process environment (seed,
//! scale, generated inputs, harness clocks), the result of one pass, and
//! the traced wrappers around the engine's public API.
//!
//! Every engine is built from `NoDbConfig::default()`; `churn_sequence`
//! alone sets the two budget fields, as its definition says.

pub mod adaptive;
pub mod analytics;
pub mod churn;
pub mod cold;
pub mod server;

use std::cell::{Cell, OnceCell, RefCell};
use std::path::{Path, PathBuf};
use std::time::Instant;

use nodb_common::{ByteSource, IoBackend, NoDbError, Schema};
use nodb_core::{
    AccessMode, AuxInfo, NoDb, NoDbConfig, Params, QueryProfile, ScanMetrics, Statement,
};
use nodb_csv::CsvOptions;

use crate::datagen::{self, InputFile, WideFile, WIDE_COLS, WIDE_VALUE_RANGE};
use crate::oracle::{Answer, WideKind, WideQuery};
use crate::rng::Rng;
use crate::trace::Tracer;

/// The harness reports failures as text: a failure to set up ends the run
/// with a non-zero exit, and a failed operation is counted, not raised.
pub type Res<T> = Result<T, String>;

/// `map_err` adapter for the engine's and the OS's error types.
pub fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Set-up is repeated this often in an untraced run and `setup_s` is the
/// median, because one set-up is too short to be a steady number. A traced
/// run reports no `setup_s` and sets up once.
pub fn setup_repeats(trace: bool) -> usize {
    if trace {
        1
    } else {
        5
    }
}

/// How long a pass measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// The untraced pass: whole rounds until this many seconds have passed.
    Seconds(f64),
    /// The traced pass: a fixed number of rounds, so counters repeat
    /// exactly; tracing is on in every other round.
    Rounds(usize),
}

impl Budget {
    /// Should round number `done` (0-based) still start?
    pub fn allows(self, done: usize, started: Instant) -> bool {
        match self {
            Budget::Seconds(s) => done == 0 || started.elapsed().as_secs_f64() < s,
            Budget::Rounds(n) => done < n,
        }
    }
}

/// One value the harness prints, with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Measured {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Measured {
        Measured {
            name,
            value,
            samples,
        }
    }
}

/// Timings and outcomes of the operations of one pass.
#[derive(Debug, Default)]
pub struct OpLog {
    pub ms: Vec<f64>,
    /// When each operation started.
    pub at: Vec<Instant>,
    /// Whether spans were recorded during the operation.
    pub traced: Vec<bool>,
    /// Which of the workload's kinds of operation this was (position in
    /// the query sequence, request class; 0 where all are alike). The
    /// tracing overhead compares like with like.
    pub kind: Vec<u32>,
    pub failed: u64,
}

impl OpLog {
    pub fn record(&mut self, started: Instant, kind: usize, traced: bool, ok: bool) {
        self.ms.push(started.elapsed().as_secs_f64() * 1e3);
        self.at.push(started);
        self.kind.push(kind as u32);
        self.traced.push(traced);
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: OpLog) {
        self.ms.extend(other.ms);
        self.at.extend(other.at);
        self.kind.extend(other.kind);
        self.traced.extend(other.traced);
        self.failed += other.failed;
    }
}

/// Scan counters and auxiliary footprint of the in-situ tables of a
/// workload, summed over its tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub scan: ScanMetrics,
    pub posmap_bytes: u64,
    pub posmap_pointers: u64,
    pub cache_bytes: u64,
}

impl Counters {
    /// Snapshot `tables` of `db` through the public counters.
    pub fn snapshot(db: &NoDb, tables: &[&str]) -> Res<Counters> {
        let mut c = Counters::default();
        for t in tables {
            c.scan.merge(&db.metrics(t).map_err(text)?);
            let AuxInfo {
                posmap_bytes,
                posmap_pointers,
                cache_bytes,
                ..
            } = db.aux_info(t).map_err(text)?;
            c.posmap_bytes += posmap_bytes as u64;
            c.posmap_pointers += posmap_pointers;
            c.cache_bytes += cache_bytes as u64;
        }
        Ok(c)
    }

    /// The scan work done since `earlier`; the footprint stays the later one.
    pub fn since(mut self, earlier: &Counters) -> Counters {
        let (s, e) = (&mut self.scan, &earlier.scan);
        s.scans -= e.scans;
        s.rows_emitted -= e.rows_emitted;
        s.fields_tokenized -= e.fields_tokenized;
        s.fields_via_map -= e.fields_via_map;
        s.fields_via_anchor -= e.fields_via_anchor;
        s.fields_parsed -= e.fields_parsed;
        s.fields_from_cache -= e.fields_from_cache;
        s.bytes_tokenized -= e.bytes_tokenized;
        s.rows_rejected_early -= e.rows_rejected_early;
        s.fields_skipped_early -= e.fields_skipped_early;
        self
    }
}

/// Everything one pass of one workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds inside the program's set-up calls, one per repetition.
    pub setup_s: Vec<f64>,
    pub ops: OpLog,
    /// How many consecutive operations make one block of identical work
    /// (see `stats::quiet_median`).
    pub block_ops: usize,
    /// How many clients ran the operations side by side (1 when embedded).
    pub clients: usize,
    /// Wall-clock seconds of the measured phase.
    pub wall_s: f64,
    /// Bytes of the raw files the workload's tables are registered on.
    pub raw_bytes: u64,
    /// Scan work of the measured phase and the footprint at its end. For
    /// workloads that build a fresh engine per round, those of one round.
    pub counters: Counters,
    /// Conversions redone because a budget evicted their result
    /// (`cache.reparsed_fields`); 0 wherever no budget is set.
    pub reparsed_fields: u64,
    pub tracers: Vec<Tracer>,
    /// Per-layer metrics only this workload can measure.
    pub layer: Vec<Measured>,
    /// Facts worth printing with the result (derived budgets, bases of
    /// ratios).
    pub notes: Vec<String>,
}

/// The per-process environment of a run.
pub struct Env {
    pub seed: u64,
    pub scale: f64,
    /// Scratch directory of this process, removed when the run ends.
    pub dir: PathBuf,
    /// Test switch: flip one oracle answer, which must surface as a failed
    /// operation and a non-zero exit.
    pub corrupt_oracle: bool,
    /// Seconds spent generating inputs and computing expected answers;
    /// neither is part of `setup_s`.
    pub datagen_s: Cell<f64>,
    pub oracle_s: Cell<f64>,
    /// Identity of every input generated so far, for the fingerprint.
    pub inputs: RefCell<Vec<(String, InputFile)>>,
    wide: OnceCell<WideFile>,
}

impl Env {
    pub fn new(seed: u64, scale: f64, dir: PathBuf, corrupt_oracle: bool) -> Env {
        Env {
            seed,
            scale,
            dir,
            corrupt_oracle,
            datagen_s: Cell::new(0.0),
            oracle_s: Cell::new(0.0),
            inputs: RefCell::new(Vec::new()),
            wide: OnceCell::new(),
        }
    }

    /// `base` rows at this run's scale, at least `floor`.
    pub fn scaled(&self, base: usize, floor: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(floor)
    }

    /// Run a generator, charging its time to `harness.datagen_s`.
    pub fn generate<T>(&self, f: impl FnOnce() -> std::io::Result<T>) -> Res<T> {
        let t = Instant::now();
        let out = f().map_err(text);
        self.datagen_s
            .set(self.datagen_s.get() + t.elapsed().as_secs_f64());
        out
    }

    /// Record an input's identity under `name`.
    pub fn note_input(&self, name: &str, file: &InputFile) {
        self.inputs
            .borrow_mut()
            .push((name.to_string(), file.clone()));
    }

    /// `wide.csv`, generated on first use.
    pub fn wide(&self) -> Res<&WideFile> {
        if self.wide.get().is_none() {
            let rows = self.scaled(datagen::WIDE_ROWS, 200);
            let wide = self.generate(|| datagen::gen_wide(&self.dir, self.seed, rows))?;
            self.note_input("wide.csv", &wide.file);
            let _ = self.wide.set(wide);
        }
        Ok(self.wide.get().expect("set above"))
    }

    /// Compute expected answers, charging the time to `harness.oracle_s`
    /// and applying the corruption switch to the first answer.
    pub fn expect(&self, f: impl FnOnce() -> Res<Vec<Answer>>) -> Res<Vec<Answer>> {
        let t = Instant::now();
        let mut answers = f()?;
        self.oracle_s
            .set(self.oracle_s.get() + t.elapsed().as_secs_f64());
        if self.corrupt_oracle {
            if let Some(first) = answers.first_mut() {
                first.checksum ^= 1;
            }
        }
        Ok(answers)
    }
}

/// Accumulates the seconds spent inside the program's set-up calls.
#[derive(Debug, Default)]
pub struct SetupClock(f64);

impl SetupClock {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0 += t.elapsed().as_secs_f64();
        out
    }

    pub fn seconds(&self) -> f64 {
        self.0
    }
}

/// Read `path` once, front to back, through the program's own I/O layer.
/// Every workload does this in set-up, so inputs are in the page cache
/// before timing starts (the fingerprint says so).
pub fn prime(path: &Path) -> Res<u64> {
    let src = ByteSource::open(path, IoBackend::Read).map_err(text)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut offset = 0u64;
    loop {
        let n = src.read_at(offset, &mut buf).map_err(text)?;
        if n == 0 {
            return Ok(offset);
        }
        std::hint::black_box(&buf[..n]);
        offset += n as u64;
    }
}

/// A fresh default engine with `wide.csv`-shaped `path` registered in situ
/// as table `t`.
pub fn wide_engine(
    config: NoDbConfig,
    path: &Path,
    schema: &Schema,
    tr: &mut Tracer,
) -> Result<NoDb, NoDbError> {
    let mut db = tr.leaf("core.new", || NoDb::new(config))?;
    tr.leaf("core.register", || {
        db.register_csv(
            "t",
            path,
            schema.clone(),
            CsvOptions::default(),
            AccessMode::InSitu,
        )
    })?;
    Ok(db)
}

/// Execute a prepared statement, streaming and checksumming its rows (they
/// are never collected). Spans: `core.session.execute` until the cursor
/// is returned, `core.cursor.first_row`, `core.cursor.drain`.
pub fn execute(
    stmt: &Statement<'_>,
    params: &Params,
    tr: &mut Tracer,
) -> Result<(Answer, QueryProfile), NoDbError> {
    let mut cursor = tr.leaf("core.session.execute", || stmt.execute(params))?;
    let mut answer = Answer::default();
    if let Some(first) = tr.leaf("core.cursor.first_row", || cursor.next()) {
        answer.add_row(&first?);
        tr.leaf("core.cursor.drain", || {
            for row in cursor.by_ref() {
                answer.add_row(&row?);
            }
            Ok::<(), NoDbError>(())
        })?;
    }
    Ok((answer, cursor.profile()))
}

/// Prepare and execute one ad-hoc statement (`sql.prepare` + [`execute`]).
pub fn query(db: &NoDb, sql: &str, tr: &mut Tracer) -> Result<(Answer, QueryProfile), NoDbError> {
    let stmt = tr.leaf("sql.prepare", || db.prepare(sql))?;
    execute(&stmt, &Params::new(), tr)
}

/// Queries per sequence of `adaptive_sequence` and `churn_sequence`.
pub const SEQUENCE_LEN: usize = 40;
/// A sequence visits these windows of thirty columns, five queries each.
const EPOCH_WINDOWS: [usize; 8] = [2, 4, 0, 3, 1, 4, 2, 0];
const WINDOW_COLS: usize = WIDE_COLS / 5;
/// The columns of a sequence are drawn with this seed, not with `--seed`.
/// The shape of a sequence is part of the workload: which columns a query
/// names decides how far every line is tokenized and what a budget evicts,
/// and sequences drawn with `--seed` differed by up to a factor of two in
/// fields tokenized (12.3 to 22.0 million on `churn_sequence`), which made
/// the workload a different one for every seed. `--seed` decides the
/// values in `wide.csv`, and so every answer.
const SHAPE_SEED: u64 = 1;

/// The query sequence over `wide.csv` (the shape of the paper's Figures 5
/// and 7): eight epochs of five queries; each query projects or sums five
/// to ten random attributes of its epoch's window and filters on one more
/// at 10 % selectivity.
pub fn wide_sequence() -> Vec<WideQuery> {
    let mut rng = Rng::new(SHAPE_SEED, 10);
    (0..SEQUENCE_LEN)
        .map(|i| {
            let base = EPOCH_WINDOWS[i / 5] * WINDOW_COLS;
            // Draw without replacement: one predicate column, then the rest.
            let mut pool: Vec<usize> = (base..base + WINDOW_COLS).collect();
            let mut draw = |rng: &mut Rng| pool.swap_remove(rng.below(pool.len() as u64) as usize);
            let pred_attr = draw(&mut rng);
            let mut attrs: Vec<usize> = (0..5 + i % 6).map(|_| draw(&mut rng)).collect();
            attrs.sort_unstable();
            WideQuery {
                kind: if i % 2 == 0 {
                    WideKind::Project
                } else {
                    WideKind::Aggregate
                },
                attrs,
                pred_attr,
                threshold: WIDE_VALUE_RANGE / 10,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_keeps_its_shape() {
        let a = wide_sequence();
        assert_eq!(a, wide_sequence());
        assert_eq!(a.len(), SEQUENCE_LEN);
        for (i, q) in a.iter().enumerate() {
            let base = EPOCH_WINDOWS[i / 5] * WINDOW_COLS;
            assert_eq!(q.attrs.len(), 5 + i % 6);
            assert!(q
                .attrs
                .iter()
                .chain([&q.pred_attr])
                .all(|&c| (base..base + WINDOW_COLS).contains(&c)));
            assert!(!q.attrs.contains(&q.pred_attr));
        }
    }

    #[test]
    fn budget_runs_at_least_one_round() {
        let long_ago = Instant::now() - std::time::Duration::from_secs(5);
        assert!(Budget::Seconds(1.0).allows(0, long_ago));
        assert!(!Budget::Seconds(1.0).allows(1, long_ago));
        assert!(Budget::Rounds(2).allows(1, long_ago));
        assert!(!Budget::Rounds(2).allows(2, long_ago));
    }
}
