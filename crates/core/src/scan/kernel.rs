//! The block kernel: every row the in-situ scan emits is formed here, a
//! run at a time (see the `scan` module docs). Runs come from a cold
//! pass over a block and from map-covered blocks alike; what differs is
//! only where their lines and positions come from.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::borrow::Cow;
use std::sync::Arc;

use nodb_cache::{CachedColumn, ColumnBuilder};
use nodb_common::{Column, NoDbError, Result, Value};
use nodb_csv::lines::LineRun;
use nodb_exec::{all_lanes, eval_predicate_batch, BatchView, ValueBatch};
use nodb_posmap::AttrPositions;

use super::{Ctx, STATS_SAMPLE_STRIDE};
use crate::runtime::ScanMetrics;

/// Where a run's values start on their lines.
pub(super) enum Positions<'a> {
    /// Resolved ahead, row-major: projected column `local` of run row `r`
    /// starts at `starts[r * projected columns + local]`.
    Table(&'a [u32]),
    /// Looked up per value in the block's map entries (one per projected
    /// column), tokenizing where they do not reach.
    Map(&'a [AttrPositions]),
}

/// One run of consecutive rows of one positional-map block.
pub(super) struct Run<'a> {
    pub(super) lines: LineRun<'a>,
    /// Block row of the first row: it indexes the per-row structures.
    first: usize,
    /// Global id of the first row: error locations name it.
    id: u64,
    pub(super) positions: Positions<'a>,
    /// The earliest failing row (the run's length while none has) and its
    /// error: each phase visits only the rows before it.
    fail_row: usize,
    err: Option<NoDbError>,
}

impl<'a> Run<'a> {
    pub(super) fn new(lines: LineRun<'a>, first: usize, id: u64) -> Run<'a> {
        Run {
            fail_row: lines.len(),
            lines,
            first,
            id,
            positions: Positions::Map(&[]),
            err: None,
        }
    }

    /// The block's first `rows` rows, which the cache answers whole: a
    /// run without lines, which reads nothing (a value it had to convert
    /// would fail as a line not in its run).
    pub(super) fn served(rows: usize, id: u64) -> Run<'a> {
        Run {
            fail_row: rows,
            ..Run::new(LineRun::default(), 0, id)
        }
    }

    /// Record that row `r` failed with `err`, unless an earlier row did.
    pub(super) fn fail(&mut self, r: usize, err: NoDbError) {
        if r < self.fail_row {
            self.fail_row = r;
            self.err = Some(err);
        }
    }

    /// Locate `e`, raised on row `r`, at the row's line.
    pub(super) fn locate(&self, ctx: &Ctx, r: usize, e: NoDbError) -> NoDbError {
        e.at_raw_location(&ctx.path, self.id + r as u64, self.lines.start(r))
    }
}

/// The block kernel, with what the runs of one block share: the cache
/// columns values may come from, and where values converted from the
/// file go.
pub(super) struct Kernel<'a> {
    pub(super) ctx: &'a Ctx,
    /// Per projected column, its cache column for the block (none on the
    /// cold path).
    pub(super) cached: &'a [Option<Arc<CachedColumn>>],
    /// Per projected column, its cache column builder, by block row
    /// (none with the cache off or for a column the cache holds
    /// complete).
    pub(super) builders: &'a mut [Option<ColumnBuilder>],
    /// Per statistics builder, the projected column it samples and its
    /// samples.
    pub(super) samples: &'a mut [(usize, Vec<Value>)],
    pub(super) metrics: &'a mut ScanMetrics,
    /// Reusable tokenization buffer.
    pub(super) scratch: Vec<u32>,
}

impl<'a> Kernel<'a> {
    /// Form `run`: fill the WHERE columns (reading a cached one in place),
    /// run the conjuncts in order, each over the rows the earlier ones
    /// passed (a selection), then fill the SELECT columns of the survivors,
    /// gathering every column once. Returns the qualifying rows, or the
    /// error of the earliest failing row.
    pub(super) fn form(&mut self, run: &mut Run) -> Result<ValueBatch> {
        let ctx = self.ctx;
        let all = all_lanes(run.fail_row);
        let mut where_cols = Vec::with_capacity(ctx.where_locals.len());
        for &local in &ctx.where_locals {
            where_cols.push(self.fill(run, local, &all)?);
        }
        // Run rows still qualifying, ascending.
        let mut sel = Cow::Borrowed(all.get(..run.fail_row).unwrap_or(&all));
        // A cached column's run row `r` is its lane `first + r`.
        let first = run.first;
        let at = |c: &Cow<Column>| if let Cow::Borrowed(_) = c { first } else { 0 };
        let (cols, rows) = (
            where_cols.iter().map(|c| (&**c, at(c))).collect(),
            sel.len(),
        );
        let view = BatchView { cols, rows };
        for f in &ctx.where_filters {
            if sel.is_empty() {
                break;
            }
            sel = Cow::Owned(match eval_predicate_batch(f, &view, &sel) {
                Ok(passed) => passed,
                Err(e) => {
                    // The earliest row the conjunct fails on: the rows
                    // before it are still filtered and converted.
                    let one = |&r: &usize| Some((r, eval_predicate_batch(f, &view, &[r]).err()?));
                    let (r, e) = sel.iter().find_map(one).unwrap_or((0, e));
                    run.fail(r, e);
                    let before = sel.get(..sel.partition_point(|&s| s < r));
                    eval_predicate_batch(f, &view, before.unwrap_or_default())?
                }
            });
        }
        drop(view);
        let selected = (ctx.select_locals.iter())
            .map(|&local| self.fill(run, local, &sel))
            .collect::<Result<Vec<_>>>()?;
        if let Some(e) = run.err.take() {
            return Err(e);
        }
        // Every output column at the final selection (of the first rows: a
        // slice): a cached one at block rows, a converted WHERE one at run
        // rows; a SELECT one is already.
        let prefix = sel.last().is_none_or(|&l| l + 1 == sel.len());
        let gather = |c: Cow<Column>, survivors: bool| match c {
            Cow::Borrowed(c) if prefix => Ok(c.slice(first, sel.len())),
            Cow::Borrowed(c) if first == 0 => c.gather(&sel),
            Cow::Borrowed(c) => c.gather(&sel.iter().map(|&r| first + r).collect::<Vec<_>>()),
            Cow::Owned(mut c) if survivors || prefix => {
                c.truncate(sel.len());
                Ok(c)
            }
            Cow::Owned(c) => c.gather(&sel),
        };
        let mut cols: Vec<Option<Column>> = vec![None; ctx.projection.len()];
        #[expect(clippy::indexing_slicing, reason = "a local indexes the projection")]
        for (&local, c) in ctx.where_locals.iter().zip(where_cols) {
            cols[local] = Some(gather(c, false)?);
        }
        #[expect(clippy::indexing_slicing, reason = "a local indexes the projection")]
        for (&local, c) in ctx.select_locals.iter().zip(selected) {
            cols[local] = Some(gather(c, true)?);
        }
        self.metrics.rows_emitted += sel.len() as u64;
        let cols = cols.into_iter().flatten().collect();
        Ok(ValueBatch::from_cols(cols, sel.len()))
    }

    /// Column `local` on those of the run's `rows` (ascending) before its
    /// earliest failure: the cache's own column when it holds them all (run
    /// row `r` at lane `first + r`), else one lane per row, from the cache
    /// where it holds the value, else converted from the file, set in the
    /// column's cache builder and, on a sampled row, kept for the
    /// statistics. A row failing to convert is the earliest failure.
    fn fill(&mut self, run: &mut Run, local: usize, rows: &[usize]) -> Result<Cow<'a, Column>> {
        let ctx = self.ctx;
        #[expect(
            clippy::indexing_slicing,
            reason = "a partition point is at most the length"
        )]
        let rows = &rows[..rows.partition_point(|&r| r < run.fail_row)];
        let first = run.first;
        let cached: Option<&'a CachedColumn> = self.cached.get(local).and_then(Option::as_deref);
        // A complete column reaching past the last row holds them all.
        let holds = |c: &CachedColumn| {
            rows.last().is_none_or(|&l| c.covers(first + l + 1))
                || rows.iter().all(|&r| c.has(first + r))
        };
        if let Some(c) = cached.filter(|c| holds(c)) {
            self.metrics.fields_from_cache += rows.len() as u64;
            return Ok(Cow::Borrowed(c.column()));
        }
        #[expect(clippy::indexing_slicing, reason = "a local indexes the projection")]
        let mut col = Column::with_capacity(ctx.types[local], rows.len());
        // This column's statistics builder, if it has one.
        let sampled = self.samples.iter().position(|(l, _)| *l == local);
        for &r in rows {
            if let Some(c) = cached.filter(|c| c.has(first + r)) {
                self.metrics.fields_from_cache += 1;
                col.push_from(c.column(), first + r)?;
                continue;
            }
            let line = run.lines.line(r)?;
            let v = match self.convert(run, local, r, line) {
                Ok(v) => v,
                Err(e) => {
                    run.fail(r, e);
                    break;
                }
            };
            col.push_value(&v)?;
            if let Some(b) = self.builders.get_mut(local).and_then(Option::as_mut) {
                b.set(first + r, &v);
            }
            let tick = run.id + r as u64;
            if let Some(i) = sampled.filter(|_| tick.is_multiple_of(STATS_SAMPLE_STRIDE)) {
                #[expect(clippy::indexing_slicing, reason = "i is a position in samples")]
                self.samples[i].1.push(v);
            }
        }
        Ok(Cow::Owned(col))
    }

    /// Convert column `local` of run row `r` from its `line`, at the
    /// position the run's positions give. Errors are located.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "a local indexes the projection, and a position table holds one \
                  projection-wide row per run row"
    )]
    fn convert(&mut self, run: &Run, local: usize, r: usize, line: &[u8]) -> Result<Value> {
        let ctx = self.ctx;
        let start = match &run.positions {
            Positions::Table(starts) => starts[r * ctx.projection.len() + local],
            Positions::Map(entries) => {
                let found =
                    self.position(line, ctx.projection[local], &entries[local], run.first + r);
                found.map_err(|e| run.locate(ctx, r, e))?
            }
        };
        self.metrics.fields_parsed += 1;
        let v = ctx.format.parse_at(line, start, ctx.types[local]);
        v.map_err(|e| {
            let e = match e {
                NoDbError::Parse(m) => NoDbError::parse(format!(
                    "column `{}`: {m}",
                    ctx.schema.field(ctx.projection[local]).name
                )),
                other => other,
            };
            run.locate(ctx, r, e)
        })
    }

    /// Resolve the positions of each row of `run` ahead of forming it:
    /// `row` takes each line (and its block row) in turn. The
    /// first row that fails is the run's earliest failure.
    pub(super) fn ahead(
        &mut self,
        run: &mut Run,
        mut row: impl FnMut(&mut Self, &[u8], usize) -> Result<()>,
    ) -> Result<()> {
        for r in 0..run.fail_row {
            let line = run.lines.line(r)?;
            if let Err(e) = row(self, line, run.first + r) {
                run.fail(r, run.locate(self.ctx, r, e));
                break;
            }
        }
        Ok(())
    }

    /// Locate the start of attribute `attr` on `line`, block row `r`,
    /// using the best positional information, counting the work class.
    /// Errors carry no location; callers locate them.
    #[inline]
    pub(super) fn position(
        &mut self,
        line: &[u8],
        attr: usize,
        entry: &AttrPositions,
        r: usize,
    ) -> Result<u32> {
        let format = &self.ctx.format;
        match entry {
            AttrPositions::Exact(col) => {
                if let Some(&p) = col.get(r) {
                    self.metrics.fields_via_map += 1;
                    return Ok(p);
                }
            }
            AttrPositions::Anchor {
                anchor_attr,
                positions,
            } => {
                if let Some(&anchor) = positions.get(r) {
                    self.metrics.fields_via_anchor += 1;
                    // A record too short to reach `attr` fails below, with
                    // the message every other access path gives it.
                    if let Ok(p) = format.advance(line, anchor, *anchor_attr as usize, attr) {
                        return Ok(p);
                    }
                }
            }
            AttrPositions::None => {}
        }
        // No positional help — none kept, or position arrays cover fewer
        // rows than the block after an append (§4.5).
        self.tokenize_to(line, attr)
    }

    /// Tokenize `line` from its start up to `attr` (kept out of
    /// [`Kernel::position`] so the map-assisted cases stay small enough to
    /// inline). A record too short for `attr` fails as the cold path fails
    /// it: `found` is then all the fields the line has, and the
    /// requirement is the highest projected attribute.
    fn tokenize_to(&mut self, line: &[u8], attr: usize) -> Result<u32> {
        self.scratch.clear();
        let found = self
            .ctx
            .format
            .positions_upto(line, attr, &mut self.scratch)?;
        self.metrics.fields_tokenized += found as u64;
        if found <= attr {
            let max_attr = self.ctx.projection.last().map_or(attr, |&a| a.max(attr));
            require_fields(found, max_attr + 1)?;
        }
        self.scratch.get(attr).copied().ok_or_else(|| {
            NoDbError::internal(format!(
                "{found} fields found, but no position for field {attr}"
            ))
        })
    }
}

/// The field-count check behind every tokenization site: `found`
/// attribute starts were located, `need` are required.
pub(super) fn require_fields(found: usize, need: usize) -> Result<usize> {
    if found < need {
        return Err(NoDbError::parse(format!(
            "record has {found} fields, need at least {need}"
        )));
    }
    Ok(found)
}
