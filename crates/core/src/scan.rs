//! The PostgresRaw in-situ scan operator (§4).
//!
//! This operator is where the paper's techniques meet:
//!
//! * **Selective tokenizing** — sequential passes stop scanning a tuple at
//!   the last attribute the query needs.
//! * **Selective parsing** — WHERE attributes are converted first; SELECT
//!   attributes only for qualifying tuples.
//! * **Selective tuple formation** — emitted rows carry only the
//!   projected attributes.
//! * **Positional map** — once the end-of-line index covers a block, the
//!   scan jumps to known attribute positions (or the nearest indexed
//!   anchor, tokenizing forward/backward) instead of re-tokenizing from
//!   the line start; positions computed along the way are fed back.
//! * **Cache** — values converted for this query are inserted; future
//!   queries read them without touching the raw file.
//! * **Statistics** — a sample of parsed values feeds the optimizer on
//!   first touch of each attribute.
//!
//! # One block kernel
//!
//! Every row is formed by one kernel (`scan/kernel.rs`) over a *run*:
//! consecutive rows of one positional-map block (default 4096 tuples)
//! whose raw lines sit in one buffer. A value comes from one of four
//! sources, best first: the cache, the exact positional map, an indexed
//! anchor, or tokenizing the line. The kernel fills a typed column per
//! WHERE attribute over the run (an attribute the cache holds is read in
//! place, not copied), runs each conjunct through the batch evaluator
//! over the rows the earlier ones passed (selective parsing as a
//! selection vector), only then fills the SELECT attributes of the
//! survivors, and gathers every column once, at the final selection. Each value converted from the file is written once into
//! its column's typed cache builder, and also goes to the statistics
//! sampler; on a collecting block its position goes to the map chunk. A
//! run the cache answers in full reads no raw byte (§4.3).
//!
//! A "line" is a record as the format frames it ([`Framing`]): up to a
//! newline (CSV, JSON Lines) or a fixed-width row (FITS, whose computed
//! positions need no positional map).
//!
//! * **Errors keep file order.** When several rows of a run fail, the
//!   error names the earliest, as forming the rows one at a time would:
//!   each phase visits only the rows before the earliest failure found so
//!   far, so an earlier row's SELECT conversion error wins over a later
//!   row's short record. Cold runs tokenize every row up to the highest
//!   projected attribute before converting anything, so a record too
//!   short for it fails whatever the WHERE clause would decide.
//!
//! Each pump forms one block, or the rest of one, into a column-major
//! [`ValueBatch`], handed out in slices of the size each `next_batch`
//! call asks for. Cold and map-covered blocks stage into the same
//! per-block `ChunkScan` — one [`BlockCollector`] for the map chunk, one
//! [`ColumnBuilder`] per cache column, both by block row — and are
//! published by one function, `publish`.
//!
//! # Concurrency
//!
//! The table runtime is lock-split ([`RawTableRuntime`]); any number of
//! scans may run against one table at once:
//!
//! * **Warm (map-covered) blocks** look up their cache columns first,
//!   once per attribute, under shared locks. A block those columns answer
//!   whole, and whose map chunks need no re-collecting, is served from the
//!   cache: it takes no map snapshot, copies no line bounds and is
//!   formed as one run that reads no raw byte — it only stamps its
//!   chunks' recency, as a snapshot would. Other warm blocks
//!   snapshot their temporary map and line bounds, release the locks, and
//!   form their runs — the lines of at most `RANGE_READ` raw bytes each —
//!   holding nothing.
//! * **Cold regions** are one sequential pass (§4.1), on the querying
//!   thread: a persistent [`LineReader`] feeds `process_cold` the rest of
//!   one positional-map block per pump. Besides the block's stage it
//!   records the EOL segment it read, while holding no lock. A pass that
//!   resumes mid-block (an appended tail) collects no map chunk, and its
//!   cache columns hold the rows before it as holes.
//! * **Publishing** a block's stage takes one positional-map write
//!   section (the EOL segment, the completion mark and the map chunk)
//!   and then one cache write section (the columns), so the EOL index,
//!   the map and the cache fill in file order. An abandoned cursor stops
//!   the scan — and bounds its memory — at block granularity, and every
//!   row has its global id, so every located error names it.
//! * Concurrent cold scans of the same region are safe: the EOL index
//!   ignores re-recorded rows, newer map chunks shadow identical older
//!   ones, and cache merges fill holes with equal values.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use nodb_cache::{CachedColumn, ColumnBuilder};
use nodb_common::{
    ByteSource, DataType, Framing, IoBackend, LineFormat, NoDbError, Result, Schema, Value,
};
use nodb_csv::lines::{LineReader, LineRun};
use nodb_exec::{BatchQueue, Operator, ValueBatch};
use nodb_posmap::{AttrPositions, BlockCollector};
use nodb_sql::BoundExpr;
use nodb_stats::StatsBuilder;

use crate::profile::{self, PhaseProfile, PhaseProfileAtomic};
use crate::runtime::{RawTableRuntime, ScanMetrics};

mod kernel;
use kernel::{require_fields, Kernel, Positions, Run};

/// Which auxiliary structures this scan may read and write.
#[derive(Debug, Clone, Copy)]
pub struct AuxFlags {
    /// Use/populate the positional map's attribute chunks.
    pub posmap: bool,
    /// Use/populate the binary cache.
    pub cache: bool,
    /// Keep the end-of-line index between queries (the minimal map; on
    /// for every variant except the external-files straw man).
    pub eol: bool,
    /// Collect statistics.
    pub stats: bool,
}

/// Immutable per-scan context (kept apart from the mutable scan state so
/// helpers can borrow it freely).
struct Ctx {
    schema: Schema,
    /// The raw file being scanned (also names error locations).
    path: PathBuf,
    /// The record tokenizer: how attribute values are located and
    /// converted on one record (CSV, JSON Lines, FITS, ...).
    format: Arc<dyn LineFormat>,
    /// Projected table attributes, ascending.
    projection: Vec<usize>,
    /// Their types: the scan's batch columns.
    types: Vec<DataType>,
    /// The conjuncts over a batch of the WHERE columns alone (ordinals
    /// into `where_locals`).
    where_filters: Vec<BoundExpr>,
    /// Whether the file's first line is a header to skip.
    has_header: bool,
    /// Projected columns the conjuncts read, ascending.
    where_locals: Vec<usize>,
    /// The other projected columns.
    select_locals: Vec<usize>,
}

/// Every how many rows a scan offers one row's values to the statistics
/// builders.
pub(crate) const STATS_SAMPLE_STRIDE: u64 = 16;

/// Most raw bytes a map-covered run reads at once, so that the rows they
/// hold are still in the core's cache when they are formed. On
/// `adaptive_sequence`, reading a whole block at once or 1 MiB at a time
/// cost more CPU per operation; 64 KiB was no better.
const RANGE_READ: u64 = 256 << 10;

/// Most lines a cold run tokenizes before it converts any, so that the
/// lines and their positions are still in the core's cache when the
/// run's values are converted.
const RUN_LINES: usize = 128;

/// The in-situ scan operator.
pub struct InSituScanOp {
    runtime: Arc<RawTableRuntime>,
    flags: AuxFlags,
    ctx: Ctx,

    /// The accumulator of the query this scan belongs to, captured from
    /// the thread-local installed by `Statement::execute` at operator
    /// construction time (`None` for scans built outside a query, e.g.
    /// idle-time exploitation).
    query_profile: Option<Arc<PhaseProfileAtomic>>,

    prepared: bool,
    done: bool,
    /// Rows formed by the last pump, waiting to be pulled.
    out: BatchQueue,
    /// The raw file as map-covered runs read it, opened at the first
    /// one (reopened once the index reaches past its length).
    src: Option<ByteSource>,
    /// Raw bytes of the map-covered run being formed, reused across runs.
    run_buf: Vec<u8>,
    reader: Option<LineReader>,
    next_row: u64,
    /// Positional-map block granularity, read once in [`prepare`] (the
    /// value is fixed at runtime construction) so cold passes never
    /// acquire the map lock just to size a block.
    block_rows: u64,
    /// Byte offset of row `next_row` whenever `reader` is `None` — lets
    /// the scan continue privately if the shared EOL index is dropped or
    /// rebuilt underneath it (re-records are ignored as out-of-order).
    resume_byte: u64,
    stat_builders: Vec<(usize, StatsBuilder)>,
}

impl InSituScanOp {
    /// Create a scan. `format` is the record tokenizer for the file's
    /// physical layout; `has_header` skips the file's first line.
    /// `projection` must be ascending table ordinals; `filters` are bound
    /// against the projection layout.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        runtime: Arc<RawTableRuntime>,
        path: PathBuf,
        schema: Schema,
        format: Arc<dyn LineFormat>,
        has_header: bool,
        projection: Vec<usize>,
        filters: Vec<BoundExpr>,
        flags: AuxFlags,
    ) -> InSituScanOp {
        let types = projection.iter().map(|&a| schema.field(a).dtype).collect();
        let mut where_set = std::collections::BTreeSet::new();
        for f in &filters {
            f.referenced_columns(&mut where_set);
        }
        let where_locals: Vec<usize> = where_set.iter().copied().collect();
        let select_locals = (0..projection.len())
            .filter(|i| !where_set.contains(i))
            .collect();
        // Every referenced column is in `where_locals`; an out-of-range
        // ordinal would surface as a typed evaluation error.
        let to_where = |i: usize| {
            where_locals
                .iter()
                .position(|&w| w == i)
                .unwrap_or(usize::MAX)
        };
        let where_filters = filters.iter().map(|f| f.map_columns(&to_where)).collect();
        InSituScanOp {
            runtime,
            flags,
            ctx: Ctx {
                schema,
                path,
                format,
                projection,
                types,
                where_filters,
                has_header,
                where_locals,
                select_locals,
            },
            query_profile: profile::current_query(),
            prepared: false,
            done: false,
            out: BatchQueue::default(),
            src: None,
            run_buf: Vec::new(),
            reader: None,
            next_row: 0,
            block_rows: 0,
            resume_byte: 0,
            stat_builders: Vec::new(),
        }
    }

    fn prepare(&mut self) -> Result<()> {
        let file_len = std::fs::metadata(&self.ctx.path)?.len();
        self.runtime.observe_file_len(file_len)?;
        self.runtime.metrics.add(&ScanMetrics {
            scans: 1,
            ..ScanMetrics::default()
        });
        // Block granularity is fixed at runtime construction; read it
        // here (posmap before stats, per the lock DAG) instead of
        // re-acquiring the map lock per cold pass.
        self.block_rows = self.runtime.posmap.read().block_rows() as u64;

        // Workload log: one touch per projected attribute per scan (file
        // ordinals, not projection-local ones). Pure observation — with
        // no budget set nothing ever consults it.
        let touched: Vec<u32> = self.ctx.projection.iter().map(|&a| a as u32).collect();
        self.runtime.workload.record_touches(&touched);

        // Statistics: only for attributes whose values this scan parses
        // for *every* tuple (WHERE attributes always; SELECT attributes
        // only when there is no predicate), and without stats yet.
        if self.flags.stats {
            let candidates: Vec<usize> = if self.ctx.where_filters.is_empty() {
                (0..self.ctx.projection.len()).collect()
            } else {
                self.ctx.where_locals.clone()
            };
            let stats = self.runtime.stats.lock();
            #[expect(clippy::indexing_slicing, reason = "a local indexes the projection")]
            for local in candidates {
                let attr = self.ctx.projection[local] as u32;
                if !stats.has_column(attr) {
                    self.stat_builders
                        .push((local, StatsBuilder::new(self.ctx.types[local])));
                }
            }
        }
        self.prepared = true;
        Ok(())
    }

    /// Publish a block's/pass's locally accumulated phase deltas to the
    /// table's cumulative profile and (when this scan belongs to a
    /// query) the query's.
    fn add_profile(&self, p: &PhaseProfile) {
        if p.is_empty() {
            return;
        }
        self.runtime.profile.add(p);
        if let Some(q) = &self.query_profile {
            q.add(p);
        }
    }

    /// A reader of the file's records from byte `at`. Opened at the start
    /// of the file, it skips what precedes the data — a header line, or
    /// the bytes before a fixed-width region, which the reader starts
    /// at — and anchors the EOL base past it, so that data row 0 starts
    /// after it.
    fn open_reader(&self, at: u64) -> Result<LineReader> {
        let mut reader = LineReader::open_at(&self.ctx.path, at, self.ctx.format.framing())?;
        if at == 0 {
            if self.ctx.has_header {
                reader.next_line(&mut Vec::new())?;
            }
            if self.flags.eol && reader.offset() > 0 {
                let mut pm = self.runtime.posmap.write();
                pm.eol_mut().set_base(reader.offset());
            }
        }
        Ok(reader)
    }

    /// Cold region (§4.1): rows past the end-of-line frontier (`indexed`
    /// rows ending at byte `frontier`, one snapshot of the shared index).
    /// Reads the rest of the block from the persistent reader a run of
    /// lines at a time, tokenizes each run's rows and forms them through
    /// the block kernel, staging the EOL segment, positions, values and
    /// statistics samples while holding no lock; then publishes.
    ///
    /// Each row is tokenized exactly once, by one
    /// [`LineFormat::positions_upto`] call up to the highest projected
    /// attribute, before any value of its run is converted: a record too
    /// short for that attribute is a located error whatever the WHERE
    /// clause would decide, so a row is tokenized, converted and failed
    /// the same way under every access mode and auxiliary configuration.
    fn process_cold(&mut self, indexed: u64, frontier: u64) -> Result<()> {
        let first_row = self.next_row;
        if self.reader.is_none() {
            // Start at the frontier, unless the shared EOL index was
            // dropped/rebuilt underneath us (e.g. `drop_aux` mid-query):
            // then continue privately from our own offset; records from
            // here are out-of-order for the fresh index and ignored.
            let start = if self.flags.eol && indexed < first_row {
                self.resume_byte
            } else {
                frontier
            };
            self.reader = Some(self.open_reader(start)?);
        }
        let block = first_row / self.block_rows;
        let first = (first_row % self.block_rows) as usize;
        // Keep every position tokenized along the way (§4.2, "all
        // positions from 1 to 15 may be kept"). Chunk storage is anchored
        // at block starts, so a pass resuming mid-block (the tail of an
        // appended file) must not collect — the mapped path re-collects
        // the grown block from its start later.
        let stride = self.ctx.projection.last().map_or(0, |&a| a + 1);
        let collect = self.flags.posmap && first == 0 && stride > 0;
        let block_rows = self.block_rows as usize;
        let mut out = ChunkScan {
            collector: collect.then(|| BlockCollector::new(block, (0..stride as u32).collect())),
            ..self.stage(block, first, block_rows, &[])
        };
        let ctx = &self.ctx;
        // Opened above; hot-path modules are panic-free (this module
        // denies clippy's panic lints).
        let reader =
            (self.reader.as_mut()).ok_or_else(|| NoDbError::internal("scan reader not opened"))?;
        let mut kernel = Kernel {
            ctx,
            cached: &[],
            builders: &mut out.builders,
            samples: &mut out.samples,
            metrics: &mut out.metrics,
            scratch: Vec::new(),
        };
        // Bytes a record spans beyond the line the format reads.
        let newline = u64::from(ctx.format.framing() == Framing::Newline);
        let mut line_starts = Vec::new();
        let mut bounds: Vec<u64> = Vec::new();
        // Per run, each row's projected attributes' positions.
        let mut starts: Vec<u32> = Vec::with_capacity(ctx.projection.len() * RUN_LINES);
        let mut r = first;
        while r < block_rows {
            let started = Instant::now();
            let (id, at) = (block * self.block_rows + r as u64, reader.offset());
            let lines = (reader.next_lines((block_rows - r).min(RUN_LINES), &mut bounds))
                .map_err(|e| e.at_raw_location(&ctx.path, id, Some(at)))?;
            out.profile.io_ns += started.elapsed().as_nanos() as u64;
            if lines.is_empty() {
                break;
            }
            line_starts.extend_from_slice(lines.starts());
            let started = Instant::now();
            let n = lines.len();
            let mut run = Run::new(lines, r, id);
            starts.clear();
            let collector = &mut out.collector;
            let tokenize = |k: &mut Kernel, line: &[u8], _| {
                k.metrics.bytes_tokenized += line.len() as u64 + newline;
                // Pure row counting (e.g. COUNT(*)) tokenizes nothing.
                if stride > 0 {
                    k.scratch.clear();
                    let found = ctx
                        .format
                        .positions_upto(line, stride - 1, &mut k.scratch)?;
                    k.metrics.fields_tokenized += require_fields(found, stride)? as u64;
                    if let Some(c) = collector.as_mut() {
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "scratch holds stride positions"
                        )]
                        c.push_row(&k.scratch[..stride]);
                    }
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "scratch holds stride positions, and every attr is below stride"
                    )]
                    starts.extend(ctx.projection.iter().map(|&a| k.scratch[a]));
                }
                Ok(())
            };
            kernel.ahead(&mut run, tokenize)?;
            out.profile.tokenize_ns += started.elapsed().as_nanos() as u64;
            let started = Instant::now();
            run.positions = Positions::Table(&starts);
            out.emitted.push(kernel.form(&mut run)?);
            out.profile.parse_ns += started.elapsed().as_nanos() as u64;
            r += n;
        }
        out.rows = r - first;
        out.eof = r < block_rows;
        out.eol = Some((line_starts, reader.offset()));
        // Sequential tokenization reads exactly the bytes it tokenizes.
        out.profile.io_bytes = out.metrics.bytes_tokenized;
        out.profile.tokenize_bytes = out.metrics.bytes_tokenized;
        self.publish(out)
    }

    /// An empty stage for the rows of `block` from block row `first`: a
    /// cache column builder for `rows` block rows per projected column
    /// the cache does not hold complete (`cached`, by projected column;
    /// none with the cache off), and a sample list per statistics builder.
    fn stage(
        &self,
        block: u64,
        first: usize,
        rows: usize,
        cached: &[Option<Arc<CachedColumn>>],
    ) -> ChunkScan {
        let ctx = &self.ctx;
        #[expect(clippy::indexing_slicing, reason = "a local indexes the projection")]
        let builder = |local: usize| {
            let complete = cached.get(local).and_then(Option::as_ref);
            (self.flags.cache && !complete.is_some_and(|c| c.is_complete())).then(|| {
                let attr = ctx.projection[local] as u32;
                ColumnBuilder::new(block, attr, ctx.types[local], rows)
            })
        };
        ChunkScan {
            block,
            first,
            rows: 0,
            eol: None,
            eof: false,
            emitted: Vec::new(),
            collector: None,
            builders: (0..ctx.projection.len()).map(builder).collect(),
            samples: self
                .stat_builders
                .iter()
                .map(|(l, _)| (*l, Vec::new()))
                .collect(),
            metrics: ScanMetrics::default(),
            profile: PhaseProfile::default(),
        }
    }

    /// Publish one pump's block: its rows to the output and its samples
    /// to the statistics builders; build its map chunk and cache columns
    /// holding nothing, then fold the EOL segment and the chunk in one
    /// positional-map write section and the columns in one cache write
    /// section (lock DAG: posmap before cache).
    fn publish(&mut self, mut staged: ChunkScan) -> Result<()> {
        let runtime = Arc::clone(&self.runtime);
        let first_row = staged.block * self.block_rows + staged.first as u64;
        let end_row = first_row + staged.rows as u64;
        for ((_, builder), (_, samples)) in self.stat_builders.iter_mut().zip(staged.samples) {
            samples.iter().for_each(|v| builder.offer(v));
        }
        self.out.push(ValueBatch::concat(staged.emitted)?);
        let chunk = (staged.collector)
            .filter(|c| c.rows() > 0)
            .map(BlockCollector::build);
        let extent = staged.first + staged.rows;
        let columns: Vec<CachedColumn> = (staged.builders.into_iter().flatten())
            .filter_map(|b| b.finish(extent))
            .collect();
        let eol = staged.eol.filter(|_| self.flags.eol);
        // Scans that maintain no positional state (the external-files /
        // baseline profile) have nothing to write into the map: skip the
        // write lock so concurrent baseline queries never serialize on
        // state they do not touch.
        if eol.is_some() || chunk.is_some() {
            let mut pm = runtime.posmap.write();
            if let Some((starts, end)) = eol {
                pm.eol_mut().absorb_segment(first_row, &starts, end);
                // Completing fixes the row count, so only do it when our
                // segment actually reached the index — after a drop_aux
                // between tokenization and publish (or while continuing
                // privately past a dropped index) it is gap-ignored, and
                // completing an emptied index would freeze row_count at 0
                // for every other query.
                if staged.eof && pm.eol().indexed_rows() == end_row {
                    pm.eol_mut().set_complete();
                }
            }
            if let Some(chunk) = chunk {
                pm.insert(chunk);
            }
        }
        if !columns.is_empty() {
            let mut cache = runtime.cache.write();
            for c in columns {
                cache.insert(c);
            }
        }
        staged.profile.parse_values = staged.metrics.fields_parsed;
        self.add_profile(&staged.profile);
        runtime.metrics.add(&staged.metrics);
        self.next_row = end_row;
        self.done = staged.eof;
        Ok(())
    }

    /// Map-assisted region: the EOL index covers these rows. The block's
    /// cache columns are looked up first: a block they answer whole (and
    /// whose map chunks need no re-collecting) is formed from them alone.
    /// Any other block snapshots what it needs under shared locks and
    /// forms its runs without holding any lock.
    fn process_mapped_block(&mut self) -> Result<()> {
        let runtime = Arc::clone(&self.runtime);
        let needed: Vec<u32> = self.ctx.projection.iter().map(|&a| a as u32).collect();

        let pm = runtime.posmap.read();
        let block = pm.block_of(self.next_row);
        let block_start = block * self.block_rows;
        let covered = pm.eol().indexed_rows();
        if self.next_row >= covered {
            // Raced with an invalidation; pump re-dispatches.
            return Ok(());
        }
        let cov_end = covered.min(block_start + self.block_rows);
        let rows = (cov_end - block_start) as usize;
        debug_assert!(rows > 0, "mapped block must cover at least one row");
        // The end of the block's last line.
        let end_bound = pm
            .eol()
            .start_of(cov_end)
            .unwrap_or_else(|| pm.eol().frontier());
        let map = self.flags.posmap && !needed.is_empty();
        // Re-collect when the combination rule fires *or* the block grew
        // past existing chunks (append, §4.5).
        let collect = map
            && (pm.should_collect(block, &needed)
                || needed
                    .iter()
                    .any(|&a| (pm.covered_rows(block, a) as u64) < (cov_end - block_start)));
        // One lookup per attribute, under the map's read lock (lock DAG:
        // posmap before cache), so cache recency counts each once.
        let cached: Vec<Option<Arc<CachedColumn>>> = if self.flags.cache {
            let cache = runtime.cache.read();
            needed.iter().map(|&a| cache.get_shared(block, a)).collect()
        } else {
            vec![None; needed.len()]
        };
        if !collect
            && cached
                .iter()
                .all(|c| c.as_ref().is_some_and(|c| c.covers(rows)))
        {
            // The chunks it would have read stay as recent as if it had.
            if map {
                pm.touch_block(block, &needed);
            }
            drop(pm);
            return self.form_served(block, rows, end_bound, &cached);
        }
        // Each row's line start, then the end of the block's last line.
        let mut bounds: Vec<u64> = pm
            .eol()
            .starts(block_start, cov_end)
            .ok_or_else(|| NoDbError::internal("EOL coverage changed mid-scan"))?
            .to_vec();
        bounds.push(end_bound);
        let entries = match map {
            true => pm.fetch_block(block, &needed).entries,
            false => vec![AttrPositions::None; needed.len()],
        };
        drop(pm);

        // Columns the cache holds complete get no builder: warm queries
        // must not pay for the cache they benefit from.
        let mut out = ChunkScan {
            rows,
            collector: collect.then(|| BlockCollector::new(block, needed)),
            ..self.stage(block, 0, rows, &cached)
        };
        let ctx = &self.ctx;
        let mut kernel = Kernel {
            ctx,
            cached: &cached,
            builders: &mut out.builders,
            samples: &mut out.samples,
            metrics: &mut out.metrics,
            scratch: Vec::new(),
        };
        let mut positions: Vec<u32> = Vec::new();
        let prof = &mut out.profile;
        let started = Instant::now();
        // The source must reach the block's end: open it, or reopen it
        // once the file grew past the length it was opened with.
        let src = match &mut self.src {
            Some(src) if src.len() >= end_bound => src,
            slot => slot.insert(ByteSource::open(&ctx.path, IoBackend::Read)?),
        };
        prof.io_ns += started.elapsed().as_nanos() as u64;
        // A block whose WHERE columns the cache holds complete, and whose
        // SELECT columns it holds at least in part, is one run: it reads
        // the file only for a survivor's missing SELECT value. Other
        // blocks are cut into runs of the lines that fit one read of
        // `RANGE_READ` bytes (and at least one line).
        let cached_at = |l: usize| cached.get(l).and_then(Option::as_ref);
        let one_run = !collect
            && ctx
                .where_locals
                .iter()
                .all(|&l| cached_at(l).is_some_and(|c| c.covers(rows)))
            && ctx.select_locals.iter().all(|&l| cached_at(l).is_some());
        let mut r0 = 0;
        while r0 < rows {
            let mut r1 = if one_run { rows } else { r0 + 1 };
            #[expect(clippy::indexing_slicing, reason = "bounds holds rows + 1 entries")]
            while r1 < rows && bounds[r1 + 1] - bounds[r0] <= RANGE_READ {
                r1 += 1;
            }
            let framing = ctx.format.framing();
            #[expect(clippy::indexing_slicing, reason = "bounds holds rows + 1 entries")]
            let lines = LineRun::unread(&bounds[r0..=r1], src, &mut self.run_buf, framing);
            let mut run = Run::new(lines, r0, block_start + r0 as u64);
            run.positions = Positions::Map(&entries);
            if let Some(c) = out.collector.as_mut() {
                positions.clear();
                let resolve = |k: &mut Kernel, line: &[u8], r| {
                    let row = positions.len();
                    for (entry, &attr) in entries.iter().zip(&ctx.projection) {
                        positions.push(k.position(line, attr, entry, r)?);
                    }
                    #[expect(clippy::indexing_slicing, reason = "row was positions.len()")]
                    c.push_row(&positions[row..]);
                    Ok(())
                };
                kernel.ahead(&mut run, resolve)?;
                run.positions = Positions::Table(&positions);
            }
            out.emitted.push(kernel.form(&mut run)?);
            prof.io_ns += run.lines.read_ns;
            prof.io_bytes += run.lines.read_bytes;
            r0 = r1;
        }
        prof.parse_ns += (started.elapsed().as_nanos() as u64).saturating_sub(prof.io_ns);
        self.resume_byte = end_bound;
        self.publish(out)
    }

    /// Form the block's first `rows` rows, every projected column of
    /// which `cached` holds complete, as one run that reads no raw byte,
    /// and publish it.
    fn form_served(
        &mut self,
        block: u64,
        rows: usize,
        end_bound: u64,
        cached: &[Option<Arc<CachedColumn>>],
    ) -> Result<()> {
        let started = Instant::now();
        let mut out = ChunkScan {
            rows,
            ..self.stage(block, 0, rows, cached)
        };
        let mut kernel = Kernel {
            ctx: &self.ctx,
            cached,
            builders: &mut out.builders,
            samples: &mut out.samples,
            metrics: &mut out.metrics,
            scratch: Vec::new(),
        };
        let mut run = Run::served(rows, block * self.block_rows);
        out.emitted.push(kernel.form(&mut run)?);
        out.profile.parse_ns += started.elapsed().as_nanos() as u64;
        self.resume_byte = end_bound;
        self.publish(out)
    }

    fn finish_stats(&mut self) {
        if !self.flags.stats || self.stat_builders.is_empty() {
            return;
        }
        let row_count = self.runtime.posmap.read().eol().row_count();
        let mut stats = self.runtime.stats.lock();
        if let Some(n) = row_count {
            stats.set_row_count(n);
        }
        let hint = row_count.map(|n| n as f64);
        for (local, b) in self.stat_builders.drain(..) {
            #[expect(clippy::indexing_slicing, reason = "a local indexes the projection")]
            let attr = self.ctx.projection[local] as u32;
            if !stats.has_column(attr) && b.offered() > 0 {
                stats.set_column(attr, b.finalize(hint));
            }
        }
    }

    fn pump(&mut self) -> Result<()> {
        if !self.prepared {
            self.prepare()?;
        }
        while self.out.is_empty() && !self.done {
            let (complete, indexed, frontier) = {
                let pm = self.runtime.posmap.read();
                (
                    pm.eol().is_complete(),
                    pm.eol().indexed_rows(),
                    pm.eol().frontier(),
                )
            };
            if complete && self.next_row == indexed {
                self.done = true;
                break;
            }
            if self.flags.eol && self.next_row < indexed {
                // A sequential reader opened earlier is stale once the
                // map covers our position; remember where it stood so a
                // later private resume starts at the right byte (the
                // mapped path keeps `resume_byte` current from there).
                if let Some(r) = self.reader.take() {
                    self.resume_byte = r.offset();
                }
                self.process_mapped_block()?;
            } else {
                self.process_cold(indexed, frontier)?;
            }
        }
        if self.done {
            self.finish_stats();
        }
        Ok(())
    }
}

impl Operator for InSituScanOp {
    /// Hand out whatever qualifying rows the last block pump produced, up
    /// to `max_rows`, as one column-major batch; pump the next block only
    /// once they are all gone. A pump forms exactly one positional-map
    /// block (or the rest of one) whatever `max_rows` is, so scan metrics
    /// and auxiliary-structure contents do not depend on it.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        loop {
            if let Some(b) = self.out.pop_batch(max_rows) {
                return Ok(Some(b));
            }
            if self.done {
                return Ok(None);
            }
            self.pump()?;
            if self.out.is_empty() && self.done {
                return Ok(None);
            }
        }
    }
}

/// Everything one pump formed from one block, or the rest of one,
/// staged privately; [`InSituScanOp::publish`] folds it into the shared
/// state.
struct ChunkScan {
    /// The block, and the block row of the first row formed (0 on a
    /// map-covered block, where a pump forms the block from its start).
    block: u64,
    first: usize,
    /// Rows formed.
    rows: usize,
    /// A cold pass's EOL segment: each row's line start, then the byte
    /// one past the last line read (none on a map-covered block).
    eol: Option<(Vec<u64>, u64)>,
    /// Whether a cold pass consumed the file's last line.
    eof: bool,
    /// Qualifying rows, one batch per run, in order.
    emitted: Vec<ValueBatch>,
    /// The block's map chunk, on a collecting block.
    collector: Option<BlockCollector>,
    /// Per projected column, its cache column builder, by block row.
    builders: Vec<Option<ColumnBuilder>>,
    /// Per stat builder (parallel to the op's `stat_builders`), its
    /// projected column and sampled values.
    samples: Vec<(usize, Vec<Value>)>,
    /// Work done by this pump.
    metrics: ScanMetrics,
    /// Phase timings/volumes accumulated by this pump.
    profile: PhaseProfile,
}
