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
//! Internally the scan works block-at-a-time (one positional-map block,
//! default 4096 tuples) for locality: each pump forms one block's
//! qualifying rows into a column-major [`ValueBatch`], which the scan
//! hands out in slices of the size each `next_batch` call asks for.
//!
//! # Concurrency
//!
//! The table runtime is lock-split ([`RawTableRuntime`]); any number of
//! scans may run against one table at once:
//!
//! * **Warm (map-covered) regions** are read under *shared* locks: the
//!   per-block temporary map and the cache columns are snapshotted, the
//!   locks released, and rows produced without holding anything. Freshly
//!   collected chunks/columns are merged back in short write sections.
//! * **Cold regions** have one kernel, `scan_chunk`: it tokenizes and
//!   parses a run of lines into private staging (EOL segment,
//!   positional-map segment, cache stage, sampled statistics, qualifying
//!   rows) while holding no lock, and one merge folds the staging into
//!   the shared structures in a short write section, in file order. Two
//!   dispatch modes feed it. With `scan_threads > 1` the whole
//!   un-indexed byte range is split into line-aligned chunks
//!   ([`nodb_csv::lines::split_line_aligned_src`]) and a scoped worker
//!   runs the kernel over each; the merge walks the chunks in file order
//!   so rows are emitted exactly as a single-threaded scan would emit
//!   them. With one thread (or when continuing privately past a dropped
//!   index) a persistent reader is fed through the same kernel one
//!   positional-map block per pump, so an abandoned cursor stops the
//!   scan — and bounds its memory — at block granularity.
//! * **Cache-served blocks** are the third dispatch mode: a map-covered
//!   block collecting no positional-map chunk, whose WHERE columns are
//!   completely cached and whose SELECT columns all have a cache entry,
//!   is formed column at a time instead of row by row. Each WHERE column
//!   is copied once from its typed cache column, the conjuncts run in
//!   order through the batch evaluator (each over the rows the earlier
//!   ones passed — the row kernel's short-circuit), and the SELECT
//!   columns' typed values are gathered for the survivors only. A
//!   survivor that hits a hole in a SELECT column sends the block back to
//!   the row kernel, and the abandoned attempt records no metrics. A block whose needed
//!   columns are all completely cached (or that needs none, as
//!   `COUNT(*)` does) is always cache-served, so it never touches the raw
//!   file — the paper's "avoid raw file access altogether" (§4.3) — and
//!   the row kernel always reads each line it forms.
//! * Concurrent cold scans of the same region are safe: the EOL index
//!   ignores re-recorded rows, newer map chunks shadow identical older
//!   ones, and cache merges fill holes with equal values.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use nodb_cache::{CachedColumn, ChunkStage, ColumnBuilder};
use nodb_common::{
    ByteSource, Column, DataType, IoBackend, LineFormat, NoDbError, Result, Row, Schema, Value,
};
use nodb_csv::lines::{split_line_aligned_src, ByteRange, LineReader, SlidingWindow};
use nodb_exec::{eval_predicate, eval_predicate_batch, BatchQueue, Operator, ValueBatch};
use nodb_posmap::{AttrPositions, BlockCollector, SegmentCollector};
use nodb_sql::BoundExpr;
use nodb_stats::StatsBuilder;

use crate::profile::{self, PhaseProfile, PhaseProfileAtomic, SampledClock};
use crate::runtime::{RawTableRuntime, ScanMetrics};
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
/// helpers and chunk workers can borrow it freely).
struct Ctx {
    schema: Schema,
    /// The raw file being scanned (also names error locations).
    path: PathBuf,
    /// The record tokenizer: how attribute values are located and
    /// converted on one line (CSV, JSON Lines, ...).
    format: Arc<dyn LineFormat>,
    /// Projected table attributes, ascending.
    projection: Vec<usize>,
    /// Their types: the scan's batch columns.
    types: Vec<DataType>,
    /// Conjuncts bound to projection-space ordinals.
    filters: Vec<BoundExpr>,
    /// The same conjuncts over a batch of the WHERE columns alone
    /// (ordinals into `where_locals`), for cache-served blocks.
    where_filters: Vec<BoundExpr>,
    /// Whether the file's first line is a header to skip.
    has_header: bool,
    /// Resolved I/O substrate (`Read` or `Mmap`, never `Auto`): how every
    /// reader/window this scan opens reaches the raw bytes. Purely a
    /// transport choice — results and metrics are identical across
    /// backends.
    io: IoBackend,
    where_locals: Vec<usize>,
    select_locals: Vec<usize>,
    sample_stride: u64,
}

impl Ctx {
    fn dtype(&self, local: usize) -> DataType {
        self.types[local]
    }
}

/// Unwrap an `Option` held by a control-flow invariant (a reader or
/// window opened earlier in the pass) with a located internal error
/// instead of a panic — hot-path modules are panic-free (enforced by
/// `nodb-analyze`'s panic-path arm).
fn held<T>(opt: Option<T>, what: &'static str) -> Result<T> {
    opt.ok_or_else(|| NoDbError::internal(format!("scan invariant violated: {what}")))
}

/// The in-situ scan operator.
pub struct InSituScanOp {
    runtime: Arc<RawTableRuntime>,
    flags: AuxFlags,
    /// Cold-scan worker threads (resolved; ≥ 1).
    threads: usize,
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
    window: Option<SlidingWindow>,
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
    /// against the projection layout. `threads` is the cold-scan fan-out,
    /// clamped to ≥ 1 — resolve a 0-means-auto config with
    /// [`crate::NoDbConfig::effective_scan_threads`] first. `io` is the
    /// I/O substrate; `Auto` is resolved here
    /// ([`IoBackend::resolve`]).
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
        sample_stride: u64,
        threads: usize,
        io: IoBackend,
    ) -> InSituScanOp {
        let threads = threads.max(1);
        let types = projection.iter().map(|&a| schema.field(a).dtype).collect();
        InSituScanOp {
            runtime,
            flags,
            threads,
            ctx: Ctx {
                schema,
                path,
                format,
                projection,
                types,
                filters,
                where_filters: Vec::new(),
                has_header,
                io: io.resolve(),
                where_locals: Vec::new(),
                select_locals: Vec::new(),
                sample_stride: sample_stride.max(1),
            },
            query_profile: profile::current_query(),
            prepared: false,
            done: false,
            out: BatchQueue::default(),
            window: None,
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

        let mut where_set = std::collections::BTreeSet::new();
        for f in &self.ctx.filters {
            f.referenced_columns(&mut where_set);
        }
        self.ctx.where_locals = where_set.iter().copied().collect();
        self.ctx.select_locals = (0..self.ctx.projection.len())
            .filter(|i| !where_set.contains(i))
            .collect();
        let where_locals = &self.ctx.where_locals;
        // Every referenced column is in `where_locals`; an out-of-range
        // ordinal would surface as a typed evaluation error.
        let to_where = |i: usize| {
            where_locals
                .iter()
                .position(|&w| w == i)
                .unwrap_or(usize::MAX)
        };
        self.ctx.where_filters = self
            .ctx
            .filters
            .iter()
            .map(|f| f.map_columns(&to_where))
            .collect();

        // Workload log: one touch per projected attribute per scan (file
        // ordinals, not projection-local ones). Pure observation — with
        // no budget set nothing ever consults it.
        let touched: Vec<u32> = self.ctx.projection.iter().map(|&a| a as u32).collect();
        self.runtime.workload.record_touches(&touched);

        // Statistics: only for attributes whose values this scan parses
        // for *every* tuple (WHERE attributes always; SELECT attributes
        // only when there is no predicate), and without stats yet.
        if self.flags.stats {
            let candidates: Vec<usize> = if self.ctx.filters.is_empty() {
                (0..self.ctx.projection.len()).collect()
            } else {
                self.ctx.where_locals.clone()
            };
            let stats = self.runtime.stats.lock();
            for local in candidates {
                let attr = self.ctx.projection[local] as u32;
                if !stats.has_column(attr) {
                    self.stat_builders
                        .push((local, StatsBuilder::new(self.ctx.dtype(local))));
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

    /// Skip the header line when `reader` stands at the start of a file
    /// that has one, anchoring the EOL base past it so that data row 0
    /// starts after the header.
    fn skip_header(&self, reader: &mut LineReader) -> Result<()> {
        if self.ctx.has_header && reader.offset() == 0 {
            let mut hdr = Vec::new();
            if reader.next_line(&mut hdr)?.is_some() && self.flags.eol {
                let mut pm = self.runtime.posmap.write();
                pm.eol_mut().set_base(reader.offset());
            }
        }
        Ok(())
    }

    /// Cold region: rows past the end-of-line frontier (`indexed` rows
    /// ending at byte `frontier`, one snapshot of the shared index).
    /// Runs [`scan_chunk`] lock-free — fanned out over the whole
    /// un-indexed tail, or over one positional-map block of the
    /// persistent reader — and merges what it staged.
    fn process_cold(&mut self, indexed: u64, frontier: u64) -> Result<()> {
        let first_row = self.next_row;
        let stat_locals: Vec<usize> = self.stat_builders.iter().map(|(l, _)| *l).collect();
        let ctx = &self.ctx;
        let mut flags = self.flags;
        let fan_out =
            self.threads > 1 && self.reader.is_none() && (!flags.eol || indexed == first_row);
        let (outputs, eof) = if fan_out {
            // One source for the whole pass: opened (and, on the mmap
            // backend, mapped) once; the header probe, the boundary
            // probe and every worker slice the same handle, and the
            // length snapshot keeps split and workers consistent under
            // concurrent appends.
            let src = Arc::new(ByteSource::open(&ctx.path, ctx.io)?);
            let file_len = src.len();
            let mut head = LineReader::from_source(
                Arc::clone(&src),
                ByteRange {
                    start: frontier,
                    end: u64::MAX,
                },
            );
            self.skip_header(&mut head)?;
            let ranges = split_line_aligned_src(&src, head.offset(), file_len, self.threads)?;
            let results: Vec<Result<ChunkScan>> = std::thread::scope(|s| {
                let handles: Vec<_> = ranges
                    .iter()
                    .map(|&range| {
                        let stat_locals = &stat_locals;
                        let mut reader = LineReader::from_source(Arc::clone(&src), range);
                        // Workers cannot know global row ids: the merge
                        // supplies them chunk by chunk.
                        s.spawn(move || {
                            scan_chunk(ctx, &mut reader, u64::MAX, None, flags, stat_locals)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err(NoDbError::internal("scan worker panicked")))
                    })
                    .collect()
            });
            (results.into_iter().collect::<Result<Vec<_>>>()?, true)
        } else {
            if self.reader.is_none() {
                // The shared EOL index was dropped/rebuilt underneath us
                // (e.g. `drop_aux` mid-query): continue privately from
                // our own offset; records from here are out-of-order for
                // the fresh index and ignored.
                let start = if flags.eol && indexed < first_row {
                    self.resume_byte
                } else {
                    frontier
                };
                let mut reader = LineReader::open_at_with(&ctx.path, start, ctx.io)?;
                self.skip_header(&mut reader)?;
                self.reader = Some(reader);
            }
            // Keep every position tokenized along the way (§4.2, "all
            // positions from 1 to 15 may be kept"). Chunk storage is
            // anchored at block starts, so a pass resuming mid-block (the
            // tail of an appended file) must not collect — the mapped
            // path re-collects the grown block from its start later.
            flags.posmap &= first_row.is_multiple_of(self.block_rows);
            let limit = self.block_rows - first_row % self.block_rows;
            let reader = held(self.reader.as_mut(), "reader opened above")?;
            let chunk = scan_chunk(ctx, reader, limit, Some(first_row), flags, &stat_locals)?;
            let eof = (chunk.line_starts.len() as u64) < limit;
            (vec![chunk], eof)
        };
        self.merge(first_row, outputs, eof)
    }

    /// Fold a cold pass's staging (chunks in file order, the first
    /// starting at global row `first_row`) into the shared structures:
    /// cut it into block-aligned map chunks and cache columns without
    /// holding anything, then EOL segments and map chunks in one
    /// positional-map write section and the columns in one cache write
    /// section (lock DAG: posmap before cache). `eof` says the pass
    /// consumed the file's last line.
    fn merge(&mut self, first_row: u64, outputs: Vec<ChunkScan>, eof: bool) -> Result<()> {
        let runtime = Arc::clone(&self.runtime);
        let block_rows = self.block_rows as usize;
        let mut metrics = ScanMetrics::default();
        let mut prof = PhaseProfile::default();
        let mut eol_segments = Vec::with_capacity(outputs.len());
        let mut seg_acc: Option<SegmentCollector> = None;
        let mut stage_acc: Option<ChunkStage> = None;
        let mut emitted = Vec::with_capacity(outputs.len());
        let mut rows: u64 = 0;
        for o in outputs {
            if let Some(seg) = o.posmap {
                match seg_acc.as_mut() {
                    Some(acc) => acc.append(seg),
                    None => seg_acc = Some(seg),
                }
            }
            if let Some(stage) = o.cache {
                match stage_acc.as_mut() {
                    Some(acc) => acc.append(stage, rows as u32),
                    None => stage_acc = Some(stage),
                }
            }
            for ((_, builder), samples) in self.stat_builders.iter_mut().zip(o.stat_samples) {
                for v in samples {
                    builder.offer(&v);
                }
            }
            emitted.push(o.emitted);
            metrics.merge(&o.metrics);
            prof.merge(&o.profile);
            let base_row = first_row + rows;
            rows += o.line_starts.len() as u64;
            eol_segments.push((base_row, o.line_starts, o.end));
        }
        self.out.push(ValueBatch::concat(emitted)?);
        let chunks = seg_acc.map_or_else(Vec::new, |s| s.into_chunks(first_row, block_rows));
        let columns =
            stage_acc.map_or_else(Vec::new, |s| s.into_columns(first_row, rows, block_rows));
        // Scans that maintain no positional state (the external-files /
        // baseline profile) have nothing to write into the map: skip the
        // write lock so concurrent baseline queries never serialize on
        // state they do not touch.
        if self.flags.eol || self.flags.posmap {
            let mut pm = runtime.posmap.write();
            if self.flags.eol {
                for (base_row, line_starts, end) in &eol_segments {
                    pm.eol_mut().absorb_segment(*base_row, line_starts, *end);
                }
                // Completing fixes the row count, so only do it when our
                // segments actually reached the index — after a drop_aux
                // between tokenization and merge (or while continuing
                // privately past a dropped index) they are gap-ignored,
                // and completing an emptied index would freeze row_count
                // at 0 for every other query.
                if eof && pm.eol().indexed_rows() == first_row + rows {
                    pm.eol_mut().set_complete();
                }
            }
            for chunk in chunks {
                pm.insert(chunk);
            }
        }
        if !columns.is_empty() {
            let mut cache = runtime.cache.write();
            for c in columns {
                cache.insert(c);
            }
        }
        self.add_profile(&prof);
        runtime.metrics.add(&metrics);
        self.next_row = first_row + rows;
        self.done = eof;
        Ok(())
    }

    /// Map-assisted region: the EOL index covers these rows. Everything
    /// the block needs is snapshotted under shared locks; rows are then
    /// produced without holding any lock.
    fn process_mapped_block(&mut self) -> Result<()> {
        let runtime = Arc::clone(&self.runtime);
        let mut metrics = ScanMetrics::default();
        let mut prof = PhaseProfile::default();
        let mut clock = SampledClock::default();
        let needed: Vec<u32> = self.ctx.projection.iter().map(|&a| a as u32).collect();

        let pm = runtime.posmap.read();
        let block_rows = pm.block_rows() as u64;
        let block = pm.block_of(self.next_row);
        let block_start = block * block_rows;
        let covered = pm.eol().indexed_rows();
        if self.next_row >= covered {
            // Raced with an invalidation; pump re-dispatches.
            return Ok(());
        }
        let cov_end = covered.min(block_start + block_rows);
        let rows = (cov_end - block_start) as usize;
        let line_starts: Vec<u64> = pm
            .eol()
            .starts(block_start, cov_end)
            .ok_or_else(|| NoDbError::internal("EOL coverage changed mid-scan"))?
            .to_vec();
        let end_bound = pm
            .eol()
            .start_of(cov_end)
            .unwrap_or_else(|| pm.eol().frontier());
        // `entries` is `None` when a needed chunk is spilled (reloaded
        // under the write lock below).
        let (entries, collect) = if self.flags.posmap && !needed.is_empty() {
            // Re-collect when the combination rule fires *or* the
            // block grew past existing chunks (append, §4.5).
            let collect = pm.should_collect(block, &needed)
                || needed
                    .iter()
                    .any(|&a| (pm.covered_rows(block, a) as u64) < (cov_end - block_start));
            (
                pm.fetch_block_shared(block, &needed).map(|v| v.entries),
                collect,
            )
        } else {
            (Some(vec![AttrPositions::None; needed.len()]), false)
        };
        drop(pm);
        debug_assert!(rows > 0, "mapped block must cover at least one row");
        let entries = match entries {
            Some(e) => e,
            None => runtime.posmap.write().fetch_block(block, &needed).entries,
        };
        let cached: Vec<Option<Arc<CachedColumn>>> = if self.flags.cache {
            let cache = runtime.cache.read();
            needed.iter().map(|&a| cache.get_shared(block, a)).collect()
        } else {
            vec![None; needed.len()]
        };
        let covered = |local: usize| cached[local].as_ref().is_some_and(|c| c.covers(rows));

        let cache_served = !collect
            && self.ctx.where_locals.iter().all(|&l| covered(l))
            && self.ctx.select_locals.iter().all(|&l| cached[l].is_some());
        if cache_served {
            let started = Instant::now();
            let served = serve_cached(&self.ctx, &cached, rows)?;
            // Charged to the phase the row kernel charges, whether the
            // attempt is kept or abandoned to the row kernel below.
            prof.parse_ns += started.elapsed().as_nanos() as u64;
            if let Some((batch, served_metrics)) = served {
                self.out.push(batch);
                self.add_profile(&prof);
                runtime.metrics.add(&served_metrics);
                self.next_row = cov_end;
                self.resume_byte = end_bound;
                return Ok(());
            }
        }

        let mut collector = collect.then(|| BlockCollector::new(block, needed.clone()));
        // Cache columns are only (re)built for attributes the file must
        // supply; fully cached columns add no write-back work — warm
        // queries must not pay for the cache they benefit from.
        let mut cache_builders: Vec<Option<ColumnBuilder>> = (0..needed.len())
            .map(|i| {
                let complete = cached[i].as_ref().is_some_and(|c| c.is_complete());
                if self.flags.cache && !complete {
                    Some(ColumnBuilder::new(
                        block,
                        needed[i],
                        self.ctx.dtype(i),
                        rows,
                    ))
                } else {
                    None
                }
            })
            .collect();
        let mut row_buf: Vec<Value> = vec![Value::Null; needed.len()];
        let mut emitted = ValueBatch::with_capacity(&self.ctx.types, 0);
        let mut positions: Vec<u32> = vec![0; needed.len()];
        let mut line_buf: Vec<u8> = Vec::new();
        let mut starts: Vec<u32> = Vec::new();

        if self.window.is_none() {
            self.window = Some(SlidingWindow::open_with(&self.ctx.path, self.ctx.io)?);
        }

        for r in 0..rows {
            let line_start = line_starts[r];
            let line_end = if r + 1 < rows {
                line_starts[r + 1]
            } else {
                end_bound
            };
            line_buf.clear();
            clock.start(r as u64);
            let w = held(self.window.as_mut(), "window opened above")?;
            let s = w.slice(line_start, (line_end - line_start) as usize)?;
            line_buf.extend_from_slice(s);
            clock.stop(&mut prof.io_ns);
            prof.io_bytes += line_end - line_start;
            while matches!(line_buf.last(), Some(b'\n') | Some(b'\r')) {
                line_buf.pop();
            }
            let ctx = &self.ctx;
            let line: &[u8] = &line_buf;
            let row_id = block_start + r as u64;
            let locate =
                |e: NoDbError| e.at_raw_location(&ctx.path, Some(row_id), Some(line_start));
            clock.start(r as u64);

            // When collecting a new combination chunk, positions for all
            // needed attributes are resolved up front (the paper's
            // pre-computed temporary map); otherwise lazily.
            if let Some(c) = collector.as_mut() {
                for (i, p) in positions.iter_mut().enumerate() {
                    let attr = needed[i] as usize;
                    *p = resolve_position(
                        ctx,
                        line,
                        attr,
                        &entries[i],
                        r,
                        &mut starts,
                        &mut metrics,
                    )
                    .map_err(locate)?;
                }
                c.push_row(&positions);
            }

            // One attribute's value: cache first, then the raw file via
            // the best positional information. Only values that touched
            // the file are written back to the cache and sampled.
            let fetch = |local: usize| -> Result<Value> {
                if let Some(v) = cached[local].as_ref().and_then(|col| col.get(r)) {
                    metrics.fields_from_cache += 1;
                    return Ok(v);
                }
                let start = if collect {
                    positions[local]
                } else {
                    let attr = needed[local] as usize;
                    resolve_position(
                        ctx,
                        line,
                        attr,
                        &entries[local],
                        r,
                        &mut starts,
                        &mut metrics,
                    )
                    .map_err(locate)?
                };
                let v = parse_value(
                    ctx,
                    line,
                    start,
                    local,
                    Some(row_id),
                    line_start,
                    &mut metrics,
                )?;
                if let Some(b) = cache_builders[local].as_mut() {
                    b.set(r, &v);
                }
                offer_stat(ctx, &mut self.stat_builders, local, row_id, &v);
                Ok(v)
            };
            let formed = form_row(ctx, &mut row_buf, fetch)?;
            clock.stop(&mut prof.parse_ns);
            if formed {
                emitted.push_row_taken(&mut row_buf)?;
                metrics.rows_emitted += 1;
            }
        }
        self.out.push(emitted);

        if let Some(c) = collector {
            if c.rows() > 0 {
                runtime.posmap.write().insert(c.build());
            }
        }
        let columns: Vec<ColumnBuilder> = cache_builders
            .into_iter()
            .flatten()
            .filter(|b| b.filled() > 0)
            .collect();
        if !columns.is_empty() {
            let mut cache = runtime.cache.write();
            for b in columns {
                cache.insert(b.build());
            }
        }
        prof.parse_values = metrics.fields_parsed;
        self.add_profile(&prof);
        runtime.metrics.add(&metrics);
        self.next_row = cov_end;
        self.resume_byte = end_bound;
        Ok(())
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
    /// block (or staged tail) whatever `max_rows` is, so scan metrics
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

// ----- the cold kernel ---------------------------------------------------

/// Everything one run of the cold kernel produced from its lines, staged
/// privately; [`InSituScanOp::merge`] folds it into the shared state.
struct ChunkScan {
    /// Absolute line-start offsets, in order.
    line_starts: Vec<u64>,
    /// Byte one past the last line read (frontier contribution).
    end: u64,
    /// Qualifying rows, in order.
    emitted: ValueBatch,
    /// Staged positional-map rows (attrs `0..=max_attr`).
    posmap: Option<SegmentCollector>,
    /// Staged cache values (one column per projected attribute).
    cache: Option<ChunkStage>,
    /// Sampled values per stat builder (parallel to the op's
    /// `stat_builders`).
    stat_samples: Vec<Vec<Value>>,
    /// Work done by this run.
    metrics: ScanMetrics,
    /// Phase timings/volumes accumulated by this run.
    profile: PhaseProfile,
}

/// The cold row loop (§4.1): read up to `max_rows` lines from `reader`,
/// tokenize each selectively, form its tuple, and stage positions,
/// values and statistics samples privately. Touches no shared state, so
/// it runs on worker threads as well as on the querying thread.
/// `row_base` is the global id of the first row when the caller knows it
/// (error locations and statistics sampling then use global row ids);
/// chunk workers pass `None` and count from the chunk start.
///
/// Each row is tokenized exactly once, by one
/// [`LineFormat::positions_upto`] call up to the highest projected
/// attribute, before any value is converted: a record too short for that
/// attribute is a located error whatever the WHERE clause would decide.
/// Conjuncts are evaluated only in [`form_row`], so a row is tokenized,
/// converted and failed the same way under every access mode and
/// auxiliary configuration.
fn scan_chunk(
    ctx: &Ctx,
    reader: &mut LineReader,
    max_rows: u64,
    row_base: Option<u64>,
    flags: AuxFlags,
    stat_locals: &[usize],
) -> Result<ChunkScan> {
    let max_attr = ctx.projection.last().copied().unwrap_or(0);
    let mut out = ChunkScan {
        line_starts: Vec::new(),
        end: reader.offset(),
        emitted: ValueBatch::with_capacity(&ctx.types, 0),
        posmap: (flags.posmap && !ctx.projection.is_empty())
            .then(|| SegmentCollector::new((0..=max_attr as u32).collect())),
        // Values are staged, not written into preallocated columns: the
        // merge sizes columns to the rows actually seen (the last block
        // of a file is short; full columns would inflate cache
        // accounting).
        cache: flags.cache.then(|| {
            ChunkStage::new(
                ctx.projection
                    .iter()
                    .map(|&a| (a as u32, ctx.schema.field(a).dtype))
                    .collect(),
            )
        }),
        stat_samples: vec![Vec::new(); stat_locals.len()],
        metrics: ScanMetrics::default(),
        profile: PhaseProfile::default(),
    };
    let mut clock = SampledClock::default();
    let mut line = Vec::new();
    let mut starts: Vec<u32> = Vec::with_capacity(max_attr + 1);
    let mut row_buf: Vec<Value> = vec![Value::Null; ctx.projection.len()];
    let mut rows: u32 = 0;
    while (rows as u64) < max_rows {
        // The row's global id where known, else its chunk-local one:
        // drives clock and statistics sampling.
        let tick = row_base.unwrap_or(0) + rows as u64;
        clock.start(tick);
        let fetched = reader.next_line(&mut line)?;
        clock.stop(&mut out.profile.io_ns);
        let Some(line_start) = fetched else { break };
        let local_row = rows;
        rows += 1;
        out.line_starts.push(line_start);
        out.metrics.bytes_tokenized += line.len() as u64 + 1;
        if ctx.projection.is_empty() {
            // Pure row counting (e.g. COUNT(*)): nothing to tokenize.
            out.emitted.push_row_taken(&mut [])?;
            out.metrics.rows_emitted += 1;
            continue;
        }
        let row_id = row_base.map(|_| tick);
        let locate = |e: NoDbError| e.at_raw_location(&ctx.path, row_id, Some(line_start));
        starts.clear();
        clock.start(tick);
        let found = ctx
            .format
            .positions_upto(&line, max_attr, &mut starts)
            .and_then(|n| require_fields(n, max_attr + 1))
            .map_err(locate)?;
        clock.stop(&mut out.profile.tokenize_ns);
        out.metrics.fields_tokenized += found as u64;
        if let Some(c) = out.posmap.as_mut() {
            c.push_row(&starts);
        }

        clock.start(tick);
        let sampled = tick.is_multiple_of(ctx.sample_stride);
        let formed = form_row(ctx, &mut row_buf, |local| {
            let start = starts[ctx.projection[local]];
            let v = parse_value(
                ctx,
                &line,
                start,
                local,
                row_id,
                line_start,
                &mut out.metrics,
            )?;
            if let Some(stage) = out.cache.as_mut() {
                stage.push(local, local_row, v.clone());
            }
            if sampled {
                for (samples, l) in out.stat_samples.iter_mut().zip(stat_locals) {
                    if *l == local {
                        samples.push(v.clone());
                    }
                }
            }
            Ok(v)
        })?;
        clock.stop(&mut out.profile.parse_ns);
        if formed {
            out.emitted.push_row_taken(&mut row_buf)?;
            out.metrics.rows_emitted += 1;
        }
    }
    out.end = reader.offset();
    // Sequential tokenization reads exactly the bytes it tokenizes.
    out.profile.io_bytes = out.metrics.bytes_tokenized;
    out.profile.tokenize_bytes = out.metrics.bytes_tokenized;
    out.profile.parse_values = out.metrics.fields_parsed;
    Ok(out)
}

// ----- free helpers (disjoint borrows of scan state) ---------------------

/// Selective parsing and tuple formation (§4.1): convert the WHERE
/// attributes first, evaluate every conjunct, and convert the SELECT
/// attributes only for a qualifying tuple, which is left in `row_buf`
/// (true) for the caller to move out. `fetch` supplies one projected
/// attribute's value (and stages it wherever the caller keeps converted
/// values).
///
/// Forced inline: each caller's `fetch` must fold into its row loop. Left
/// to the inliner the mapped path measured 6–11 % slower than the
/// hand-inlined loops this routine replaced (`select c2, c14 from t where
/// c12 < k` over a map-covered 16-column file).
#[inline(always)]
fn form_row(
    ctx: &Ctx,
    row_buf: &mut Vec<Value>,
    mut fetch: impl FnMut(usize) -> Result<Value>,
) -> Result<bool> {
    // SELECT slots are NULL here (never set, or moved out with the last
    // qualifying row); WHERE slots are overwritten.
    for &local in &ctx.where_locals {
        row_buf[local] = fetch(local)?;
    }
    // Evaluate every conjunct against the buffer itself (moved into a
    // `Row` shell and back) — no per-conjunct clone. An error leaves the
    // buffer empty; both callers abandon it along with the pass.
    let probe = Row(std::mem::take(row_buf));
    for f in &ctx.filters {
        if !eval_predicate(f, &probe)? {
            *row_buf = probe.0;
            return Ok(false);
        }
    }
    *row_buf = probe.0;
    for &local in &ctx.select_locals {
        row_buf[local] = fetch(local)?;
    }
    Ok(true)
}

/// Form a cache-served block (see the module docs) of `rows` rows, whose
/// WHERE columns the caller found to cover the block: copy each WHERE
/// column's typed values once, run the conjuncts in order over the rows
/// the earlier ones passed, then gather the SELECT columns' typed values
/// for the survivors. Returns the block's rows and the work done, or
/// `None` — having recorded nothing — when a survivor hits a hole in a
/// SELECT column and the block must go through the row kernel.
fn serve_cached(
    ctx: &Ctx,
    cached: &[Option<Arc<CachedColumn>>],
    rows: usize,
) -> Result<Option<(ValueBatch, ScanMetrics)>> {
    let column = |local: usize| held(cached[local].as_deref(), "cache-served column cached");
    let mut where_cols = Vec::with_capacity(ctx.where_locals.len());
    for &local in &ctx.where_locals {
        where_cols.push(column(local)?.column().slice(0, rows));
    }
    let mut batch = ValueBatch::from_cols(where_cols, rows);
    // Block-local ids of the rows still in `batch`.
    let mut sel: Vec<usize> = (0..rows).collect();
    for f in &ctx.where_filters {
        if batch.is_empty() {
            break;
        }
        let keep = eval_predicate_batch(f, &batch)?;
        let kept = keep.iter().filter(|&&k| k).count();
        if kept < batch.num_rows() {
            batch = batch.retain_rows(&keep, kept);
            let mut k = keep.iter();
            sel.retain(|_| k.next().is_some_and(|&k| k));
        }
    }
    let survivors = sel.len();
    let mut cols: Vec<Option<Column>> = vec![None; ctx.projection.len()];
    for (&local, c) in ctx.where_locals.iter().zip(batch.into_cols()) {
        cols[local] = Some(c);
    }
    let mut keep = vec![false; rows];
    for &r in &sel {
        keep[r] = true;
    }
    for &local in &ctx.select_locals {
        let c = column(local)?;
        if !c.has_all(&sel) {
            return Ok(None);
        }
        cols[local] = Some(c.column().filter(&keep, survivors));
    }
    let cols = cols
        .into_iter()
        .map(|c| held(c, "every projected column formed"))
        .collect::<Result<Vec<_>>>()?;
    let metrics = ScanMetrics {
        fields_from_cache: (rows * ctx.where_locals.len() + survivors * ctx.select_locals.len())
            as u64,
        rows_emitted: survivors as u64,
        ..ScanMetrics::default()
    };
    Ok(Some((ValueBatch::from_cols(cols, survivors), metrics)))
}

/// The field-count check behind every tokenization site: `found`
/// attribute starts were located, `need` are required.
fn require_fields(found: usize, need: usize) -> Result<usize> {
    if found < need {
        return Err(NoDbError::parse(format!(
            "record has {found} fields, need at least {need}"
        )));
    }
    Ok(found)
}

/// Convert one attribute value via the record format, decorating parse
/// failures with the column name and the raw-file location (`row_id` is
/// `None` inside chunk workers, which do not know global row ids).
fn parse_value(
    ctx: &Ctx,
    line: &[u8],
    start: u32,
    local: usize,
    row_id: Option<u64>,
    line_start: u64,
    metrics: &mut ScanMetrics,
) -> Result<Value> {
    metrics.fields_parsed += 1;
    ctx.format
        .parse_at(line, start, ctx.dtype(local))
        .map_err(|e| {
            let e = match e {
                NoDbError::Parse(m) => NoDbError::parse(format!(
                    "column `{}`: {m}",
                    ctx.schema.field(ctx.projection[local]).name
                )),
                other => other,
            };
            e.at_raw_location(&ctx.path, row_id, Some(line_start))
        })
}

fn offer_stat(
    ctx: &Ctx,
    builders: &mut [(usize, StatsBuilder)],
    local: usize,
    row_id: u64,
    v: &Value,
) {
    if builders.is_empty() || !row_id.is_multiple_of(ctx.sample_stride) {
        return;
    }
    for (l, b) in builders.iter_mut() {
        if *l == local {
            b.offer(v);
        }
    }
}

/// Locate the start of attribute `attr` on row `r` of a mapped block
/// using the best positional information, counting the work class in
/// `metrics`. `scratch` is the caller's reusable tokenization buffer.
/// Errors carry no location; callers decorate with file/row/byte
/// context.
#[inline]
fn resolve_position(
    ctx: &Ctx,
    line: &[u8],
    attr: usize,
    entry: &AttrPositions,
    r: usize,
    scratch: &mut Vec<u32>,
    metrics: &mut ScanMetrics,
) -> Result<u32> {
    match entry {
        AttrPositions::Exact(col) => {
            if let Some(&p) = col.get(r) {
                metrics.fields_via_map += 1;
                return Ok(p);
            }
        }
        AttrPositions::Anchor {
            anchor_attr,
            positions,
        } => {
            if let Some(&anchor) = positions.get(r) {
                metrics.fields_via_anchor += 1;
                return ctx
                    .format
                    .advance(line, anchor, *anchor_attr as usize, attr);
            }
        }
        AttrPositions::None => {}
    }
    // No positional help — none kept, or position arrays cover fewer
    // rows than the block after an append (§4.5).
    tokenize_to(ctx, line, attr, scratch, metrics)
}

/// Tokenize from the line start up to `attr` into `scratch` (kept out of
/// [`resolve_position`] so the map-assisted cases stay small enough to
/// inline into the row loop).
fn tokenize_to(
    ctx: &Ctx,
    line: &[u8],
    attr: usize,
    scratch: &mut Vec<u32>,
    metrics: &mut ScanMetrics,
) -> Result<u32> {
    scratch.clear();
    let found = ctx.format.positions_upto(line, attr, scratch)?;
    metrics.fields_tokenized += found as u64;
    require_fields(found, attr + 1)?;
    Ok(scratch[attr])
}
