//! Physical operators: pull-based, one column-major [`ValueBatch`] per
//! `next_batch` call.
//!
//! PostgresRaw passes "each tuple … one-by-one through the operators of a
//! query plan" (§3); this executor departs from that and has no row pull
//! at all. Rows still reach the consumer in the order a tuple-at-a-time
//! executor would produce them, and a consumer that asks for few rows —
//! a `LIMIT` — still bounds the work below it: streaming operators
//! (filter, project, limit, distinct, the join's probe side) ask their
//! input for no more rows than their own consumer asked for, while
//! operators that drain their input first (sorts, aggregations, the
//! join's build side) ask for everything (`usize::MAX`), so each batch a
//! leaf forms — a whole positional-map block, a heap page — moves up to
//! them as it is, never sliced into copies of a cursor's batch size.
//!
//! Operators move typed column lanes by index — joins, sorts and
//! DISTINCT gather them, keys are read from column slots
//! ([`KeyRef::at`]), and COUNT/SUM/AVG fold typed slices — so no
//! operator builds a [`Value`] per cell on the way.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::cmp::Ordering;

use nodb_common::column::Data;
use nodb_common::{Column, DataType, NoDbError, Result, Value};
use nodb_sql::expr::AggExpr;
use nodb_sql::{AggFunc, BoundExpr, JoinKind, SortKey};

use crate::batch::{BatchQueue, ValueBatch};
use crate::eval::{eval_batch, eval_operand, eval_predicate_batch, Operand};
use crate::key::{hash_key, KeyIndex, KeyRef};

/// The operator interface: a stream of rows, pulled one column-major
/// batch at a time.
pub trait Operator {
    /// The next batch of up to `max_rows` rows (≥ 1), or `None` when
    /// exhausted; a batch is never empty.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>>;
}

/// Boxed operator.
pub type BoxOp = Box<dyn Operator>;

/// What an operator that drains its input asks it for: every row it has
/// formed, so a leaf's block batch is handed up whole.
const DRAIN: usize = usize::MAX;

/// Pull `input` dry, a whole formed batch at a time, and concatenate the
/// batches into one.
fn concat_input(mut input: BoxOp) -> Result<ValueBatch> {
    let mut batches = Vec::new();
    while let Some(b) = input.next_batch(DRAIN)? {
        batches.push(b);
    }
    ValueBatch::concat(batches)
}

/// Column `i` of `batch`, or a typed internal error.
fn column(batch: &ValueBatch, i: usize) -> Result<&Column> {
    batch
        .col(i)
        .ok_or_else(|| NoDbError::internal(format!("column #{i} out of range")))
}

/// Columns `idx` of `batch`.
fn columns<'a>(batch: &'a ValueBatch, idx: &[usize]) -> Result<Vec<&'a Column>> {
    idx.iter().map(|&i| column(batch, i)).collect()
}

/// The state of an operator that drains its input before it emits: the
/// input until the first pull, then the output that pull formed.
struct Drained {
    input: Option<BoxOp>,
    out: BatchQueue,
}

impl Drained {
    fn new(input: BoxOp) -> Drained {
        Drained {
            input: Some(input),
            out: BatchQueue::default(),
        }
    }

    /// Up to `max_rows` rows of the output `form` makes of the whole
    /// input, which the first pull forms.
    fn next_batch(
        &mut self,
        max_rows: usize,
        form: impl FnOnce(BoxOp) -> Result<ValueBatch>,
    ) -> Result<Option<ValueBatch>> {
        if let Some(input) = self.input.take() {
            self.out.push(form(input)?);
        }
        Ok(self.out.pop_batch(max_rows))
    }
}

/// Filter: passes rows whose predicate evaluates to TRUE.
pub struct FilterOp {
    input: BoxOp,
    predicate: BoundExpr,
}

impl FilterOp {
    /// Create a filter.
    pub fn new(input: BoxOp, predicate: BoundExpr) -> FilterOp {
        FilterOp { input, predicate }
    }

    /// `input` under one filter per conjunct of `filters`, the first
    /// innermost: each conjunct sees only the rows every earlier one
    /// passed, so a row short-circuits at the first conjunct that rejects
    /// it. How a leaf applies its pushed-down filters.
    pub fn conjuncts(input: BoxOp, filters: &[BoundExpr]) -> BoxOp {
        filters.iter().fold(input, |op, f| {
            Box::new(FilterOp::new(op, f.clone())) as BoxOp
        })
    }
}

impl Operator for FilterOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        loop {
            let Some(batch) = self.input.next_batch(max_rows)? else {
                return Ok(None);
            };
            let keep = eval_predicate_batch(&self.predicate, &batch)?;
            let kept = keep.iter().filter(|&&k| k).count();
            if kept == 0 {
                continue; // fully filtered batch: pull the next one
            }
            if kept == batch.num_rows() {
                return Ok(Some(batch));
            }
            return Ok(Some(batch.retain_rows(&keep, kept)));
        }
    }
}

/// Projection: computes expressions over each input row.
pub struct ProjectOp {
    input: BoxOp,
    exprs: Vec<BoundExpr>,
}

impl ProjectOp {
    /// Create a projection.
    pub fn new(input: BoxOp, exprs: Vec<BoundExpr>) -> ProjectOp {
        ProjectOp { input, exprs }
    }
}

impl Operator for ProjectOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        match self.input.next_batch(max_rows)? {
            None => Ok(None),
            Some(batch) => {
                let cols = self
                    .exprs
                    .iter()
                    .map(|e| eval_batch(e, &batch))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Some(ValueBatch::from_cols(cols, batch.num_rows())))
            }
        }
    }
}

/// Limit: stops after `n` rows.
pub struct LimitOp {
    input: BoxOp,
    remaining: u64,
}

impl LimitOp {
    /// Create a limit.
    pub fn new(input: BoxOp, n: u64) -> LimitOp {
        LimitOp {
            input,
            remaining: n,
        }
    }
}

impl Operator for LimitOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // Ask for no more than the limit still allows, so the source does
        // no scan or probe work for rows the limit would drop.
        let want = max_rows.min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        match self.input.next_batch(want)? {
            None => Ok(None),
            Some(mut batch) => {
                if (batch.num_rows() as u64) > self.remaining {
                    batch.truncate(self.remaining as usize);
                }
                self.remaining -= batch.num_rows() as u64;
                Ok(Some(batch))
            }
        }
    }
}

/// Drain `input` into one batch and order its rows by `keys` (NULLs
/// first; stable, so rows with equal keys keep their input order).
/// Returns the batch and its row numbers in sorted order.
fn sort_input(input: BoxOp, keys: &[SortKey]) -> Result<(ValueBatch, Vec<usize>)> {
    let batch = concat_input(input)?;
    let mut order: Vec<usize> = (0..batch.num_rows()).collect();
    if !batch.is_empty() {
        let cols = keys
            .iter()
            .map(|k| Ok((column(&batch, k.col)?, k.desc)))
            .collect::<Result<Vec<_>>>()?;
        order.sort_by(|&a, &b| {
            for (col, desc) in &cols {
                let ord = col.cmp_lanes(a, b);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    Ok((batch, order))
}

/// Sort: fully materializes, then emits in key order (NULLs first).
pub struct SortOp {
    state: Drained,
    keys: Vec<SortKey>,
}

impl SortOp {
    /// Create a sort.
    pub fn new(input: BoxOp, keys: Vec<SortKey>) -> SortOp {
        SortOp {
            state: Drained::new(input),
            keys,
        }
    }
}

impl Operator for SortOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        let keys = &self.keys;
        self.state.next_batch(max_rows, |input| {
            let (batch, order) = sort_input(input, keys)?;
            batch.take_rows(&order)
        })
    }
}

/// Hash join.
///
/// * `Inner`: builds a hash table on the **left** child (the planner puts
///   the smaller side left when it has statistics), probes with the right,
///   emits `left ++ right`; each probe row's matches come out most
///   recently built first.
/// * `Semi`/`Anti`: builds on the **right** child (the EXISTS inner
///   relation), probes with left rows, emits the left row on (no) match.
///
/// The build side is drained on the first pull. The probe side is pulled
/// in batches of the size the consumer asks for, so unless a probe row
/// has several matches, a `LIMIT` above the join probes no row it does
/// not need. Build rows live in one typed batch; keys are matched through
/// a [`KeyIndex`] without being copied out of it, and joined rows are
/// gathered lane by lane.
///
/// With an empty key list every row lands in one bucket, degrading to a
/// cross product — the planner only does this when a query has no
/// equi-join predicate, and filters it above the join.
pub struct HashJoinOp {
    /// The side hashed into the table, until the first pull drains it.
    build: Option<BoxOp>,
    /// The side streamed against the table.
    probe: BoxOp,
    /// Key columns of the build and the probe side, pairwise.
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    kind: JoinKind,
    table: JoinTable,
    /// Joined output formed but not yet handed out.
    out: BatchQueue,
}

impl HashJoinOp {
    /// Create a hash join.
    pub fn new(left: BoxOp, right: BoxOp, on: Vec<(usize, usize)>, kind: JoinKind) -> HashJoinOp {
        let (left_keys, right_keys): (Vec<usize>, Vec<usize>) = on.into_iter().unzip();
        let (build, probe, build_keys, probe_keys) = match kind {
            JoinKind::Inner => (left, right, left_keys, right_keys),
            JoinKind::Semi | JoinKind::Anti => (right, left, right_keys, left_keys),
        };
        HashJoinOp {
            build: Some(build),
            probe,
            build_keys,
            probe_keys,
            kind,
            table: JoinTable::default(),
            out: BatchQueue::default(),
        }
    }

    /// Drain the build side into the table (rows with a NULL key part
    /// never match and are dropped) and index it. An empty build side
    /// leaves the table empty: its batch has no columns to key on.
    fn build_table(&mut self, src: BoxOp) -> Result<()> {
        let rows = concat_input(src)?;
        if rows.is_empty() {
            return Ok(());
        }
        let keep: Vec<bool> = {
            let keys = columns(&rows, &self.build_keys)?;
            (0..rows.num_rows())
                .map(|r| keys.iter().all(|c| c.is_valid(r)))
                .collect()
        };
        let kept = keep.iter().filter(|&&k| k).count();
        let rows = if kept == rows.num_rows() {
            rows
        } else {
            rows.retain_rows(&keep, kept)
        };
        self.table = JoinTable::index(rows, &self.build_keys)?;
        Ok(())
    }

    /// Pull the next probe batch — at most `want` rows — and queue its
    /// joined output; false once the probe side is exhausted.
    fn fill(&mut self, want: usize) -> Result<bool> {
        if let Some(src) = self.build.take() {
            self.build_table(src)?;
        }
        let Some(probe) = self.probe.next_batch(want.max(1))? else {
            return Ok(false);
        };
        let out = match self.kind {
            JoinKind::Inner => self.join_inner(&probe)?,
            JoinKind::Semi | JoinKind::Anti => self.join_semi(probe)?,
        };
        if !out.is_empty() {
            self.out.push(out);
        }
        Ok(true)
    }

    fn join_inner(&self, probe: &ValueBatch) -> Result<ValueBatch> {
        let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
        let probe_keys = columns(probe, &self.probe_keys)?;
        for r in 0..probe.num_rows() {
            if let Some(slot) = self.table.find(&probe_keys, r) {
                for b in self.table.chain(slot) {
                    build_rows.push(b);
                    probe_rows.push(r);
                }
            }
        }
        let mut cols = self.table.rows.take_rows(&build_rows)?.into_cols();
        cols.extend(probe.take_rows(&probe_rows)?.into_cols());
        Ok(ValueBatch::from_cols(cols, build_rows.len()))
    }

    fn join_semi(&self, probe: ValueBatch) -> Result<ValueBatch> {
        let anti = self.kind == JoinKind::Anti;
        let n = probe.num_rows();
        let probe_keys = columns(&probe, &self.probe_keys)?;
        let keep: Vec<bool> = (0..n)
            .map(|r| self.table.find(&probe_keys, r).is_some() != anti)
            .collect();
        let kept = keep.iter().filter(|&&k| k).count();
        Ok(if kept == n {
            probe
        } else {
            probe.retain_rows(&keep, kept)
        })
    }
}

impl Operator for HashJoinOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        loop {
            if let Some(b) = self.out.pop_batch(max_rows) {
                return Ok(Some(b));
            }
            if !self.fill(max_rows)? {
                return Ok(None);
            }
        }
    }
}

/// End of a [`JoinTable`] chain.
const NO_ROW: u32 = u32::MAX;

/// A hash join's build side: the rows in one typed batch, an index from
/// key hash to key slot, and per slot a chain of the rows with that key.
#[derive(Debug, Default)]
struct JoinTable {
    rows: ValueBatch,
    /// The build side's key columns, by position in `rows`.
    keys: Vec<usize>,
    index: KeyIndex,
    /// Per slot: the first row built with the key (where its values are
    /// compared) and the last (the head of its chain).
    first: Vec<u32>,
    last: Vec<u32>,
    /// Per row: the row built before it with the same key, or [`NO_ROW`].
    prev: Vec<u32>,
}

impl JoinTable {
    /// Index every row of `rows` on its `keys` columns.
    fn index(rows: ValueBatch, keys: &[usize]) -> Result<JoinTable> {
        let n = u32::try_from(rows.num_rows())
            .map_err(|_| NoDbError::execution("join build side exceeds 2^32 rows"))?;
        let mut t = JoinTable {
            keys: keys.to_vec(),
            ..JoinTable::default()
        };
        {
            let cols = columns(&rows, keys)?;
            for i in 0..n {
                let r = i as usize;
                let hash = hash_key(cols.iter().map(|c| KeyRef::at(c, r)));
                let first = &t.first;
                let found = t.index.find(hash, |s| {
                    #[expect(clippy::indexing_slicing, reason = "a slot has a first row")]
                    let f = first[s] as usize;
                    cols.iter().all(|c| KeyRef::at(c, f) == KeyRef::at(c, r))
                });
                match found {
                    #[expect(clippy::indexing_slicing, reason = "a slot has a last row")]
                    Some(s) => {
                        t.prev.push(t.last[s]);
                        t.last[s] = i;
                    }
                    None => {
                        t.index.insert(hash);
                        t.first.push(i);
                        t.last.push(i);
                        t.prev.push(NO_ROW);
                    }
                }
            }
        }
        t.rows = rows;
        Ok(t)
    }

    /// The slot whose key equals row `r` of the probe key columns
    /// `probe` (pairwise with the build side's keys); `None` when there
    /// is none or a key part is NULL.
    fn find(&self, probe: &[&Column], r: usize) -> Option<usize> {
        if probe.iter().any(|c| !c.is_valid(r)) {
            return None;
        }
        let hash = hash_key(probe.iter().map(|c| KeyRef::at(c, r)));
        self.index.find(hash, |s| {
            #[expect(clippy::indexing_slicing, reason = "a slot has a first row")]
            let f = self.first[s] as usize;
            self.keys.iter().zip(probe).all(|(&bc, pc)| {
                self.rows
                    .col(bc)
                    .is_some_and(|b| KeyRef::at(b, f) == KeyRef::at(pc, r))
            })
        })
    }

    /// The rows with the key of `slot`, most recently built first.
    fn chain(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.last.get(slot).copied(), |&i| {
            self.prev.get(i as usize).copied().filter(|&p| p != NO_ROW)
        })
        .map(|i| i as usize)
    }
}

/// Distinct key values in first-seen order: one typed column per key
/// part, lane `s` holding slot `s`'s key, looked up through a
/// [`KeyIndex`].
#[derive(Default)]
struct KeySet {
    index: KeyIndex,
    keys: Vec<Column>,
}

impl KeySet {
    /// Number of distinct keys.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// The slot of the key `cols` hold at lane `r`, and whether it is new
    /// (copied in).
    #[inline]
    fn slot(&mut self, cols: &[&Column], r: usize) -> Result<(usize, bool)> {
        if self.keys.len() != cols.len() {
            self.keys = cols.iter().map(|c| Column::new(c.dtype())).collect();
        }
        let hash = hash_key(cols.iter().map(|c| KeyRef::at(c, r)));
        let keys = &self.keys;
        let found = self.index.find(hash, |s| {
            keys.iter()
                .zip(cols)
                .all(|(k, c)| KeyRef::at(k, s) == KeyRef::at(c, r))
        });
        if let Some(s) = found {
            return Ok((s, false));
        }
        for (k, c) in self.keys.iter_mut().zip(cols) {
            k.push_from(c, r)?;
        }
        Ok((self.index.insert(hash), true))
    }
}

/// Streaming duplicate elimination over whole rows (SELECT DISTINCT):
/// each batch keeps the rows whose values no earlier row had.
pub struct DistinctOp {
    input: BoxOp,
    seen: KeySet,
}

impl DistinctOp {
    /// Create a distinct operator.
    pub fn new(input: BoxOp) -> DistinctOp {
        DistinctOp {
            input,
            seen: KeySet::default(),
        }
    }
}

impl Operator for DistinctOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        while let Some(batch) = self.input.next_batch(max_rows)? {
            let n = batch.num_rows();
            let cols: Vec<&Column> = batch.cols().iter().collect();
            let keep = (0..n)
                .map(|r| Ok(self.seen.slot(&cols, r)?.1))
                .collect::<Result<Vec<bool>>>()?;
            let kept = keep.iter().filter(|&&k| k).count();
            if kept == n {
                return Ok(Some(batch));
            }
            if kept > 0 {
                return Ok(Some(batch.retain_rows(&keep, kept)));
            }
        }
        Ok(None)
    }
}

// ----- aggregation ------------------------------------------------------

/// One running aggregate state.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum {
        /// The integer total; `None` once it overflowed, which is an
        /// error only if no float joins the sum.
        i: Option<i64>,
        f: f64,
        is_float: bool,
        seen: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                i: Some(0),
                f: 0.0,
                is_float: false,
                seen: false,
            },
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    /// Fold one integer.
    #[inline]
    fn add_int(&mut self, x: i64) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum { i, f, seen, .. } => {
                *i = i.and_then(|t| t.checked_add(x));
                *f += x as f64;
                *seen = true;
            }
            Acc::Avg { sum, n } => {
                *sum += x as f64;
                *n += 1;
            }
            Acc::Min(_) | Acc::Max(_) => {}
        }
    }

    /// Fold one float.
    #[inline]
    fn add_float(&mut self, x: f64) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum {
                f, is_float, seen, ..
            } => {
                *f += x;
                *is_float = true;
                *seen = true;
            }
            Acc::Avg { sum, n } => {
                *sum += x;
                *n += 1;
            }
            Acc::Min(_) | Acc::Max(_) => {}
        }
    }

    /// Fold lane `r` of a typed column: MIN/MAX compare in place and
    /// build a value only for a new extreme.
    #[inline]
    fn add_lane(&mut self, c: &Column, r: usize) -> Result<()> {
        if !c.is_valid(r) {
            return Ok(());
        }
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Min(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|v| c.sql_cmp_value(r, v) == Some(Ordering::Less))
                {
                    *cur = Some(c.value(r));
                }
            }
            Acc::Max(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|v| c.sql_cmp_value(r, v) == Some(Ordering::Greater))
                {
                    *cur = Some(c.value(r));
                }
            }
            Acc::Sum { .. } | Acc::Avg { .. } => return self.update(Some(&c.value(r))),
        }
        Ok(())
    }

    /// Fold one value; `arg = None` means COUNT(*) (count the row
    /// unconditionally).
    fn update(&mut self, arg: Option<&Value>) -> Result<()> {
        let v = match arg {
            Some(Value::Null) => return Ok(()),
            Some(v) => v,
            None => {
                return match self {
                    Acc::Count(n) => {
                        *n += 1;
                        Ok(())
                    }
                    Acc::Sum { .. } => Err(NoDbError::execution("SUM requires an argument")),
                    Acc::Avg { .. } => Err(NoDbError::execution("AVG requires an argument")),
                    Acc::Min(_) | Acc::Max(_) => Ok(()),
                }
            }
        };
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Min(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|c| v.sql_cmp(c) == Some(Ordering::Less))
                {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|c| v.sql_cmp(c) == Some(Ordering::Greater))
                {
                    *cur = Some(v.clone());
                }
            }
            Acc::Sum { .. } | Acc::Avg { .. } => match v {
                Value::Int32(x) => self.add_int(i64::from(*x)),
                Value::Int64(x) => self.add_int(*x),
                Value::Float64(x) => self.add_float(*x),
                other => {
                    let name = if matches!(self, Acc::Sum { .. }) {
                        "SUM"
                    } else {
                        "AVG"
                    };
                    return Err(NoDbError::execution(format!(
                        "{name} of non-number {other}"
                    )));
                }
            },
        }
        Ok(())
    }

    /// The aggregate's value. An integer SUM that overflowed is the typed
    /// error `+` raises, never a wrapped total.
    fn finalize(&self) -> Result<Value> {
        Ok(match self {
            Acc::Count(n) => Value::Int64(*n),
            Acc::Sum {
                i,
                f,
                is_float,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if *is_float {
                    Value::Float64(*f)
                } else {
                    Value::Int64(i.ok_or_else(|| NoDbError::execution("integer overflow"))?)
                }
            }
            Acc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / *n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
        })
    }
}

/// Aggregate states per group: group `g`'s accumulator for aggregate `k`
/// is `accs[g * width + k]`.
struct AccTable {
    accs: Vec<Acc>,
    fresh: Vec<Acc>,
}

impl AccTable {
    fn new(aggs: &[AggExpr]) -> AccTable {
        AccTable {
            accs: Vec::new(),
            fresh: aggs.iter().map(|a| Acc::new(a.func)).collect(),
        }
    }

    /// Start one more group.
    fn push_group(&mut self) {
        self.accs.extend_from_slice(&self.fresh);
    }

    /// Fold aggregate `k`'s argument over a batch of `n` rows, row `r`
    /// into group `slots[r]` (group 0 without `slots`). Integer and float columns feed COUNT, SUM
    /// and AVG from their typed slices; rows are folded in order, so
    /// float accumulation — every result bit — is that of a
    /// row-at-a-time fold.
    fn fold(
        &mut self,
        k: usize,
        arg: Option<&Operand<'_>>,
        n: usize,
        slots: Option<&[usize]>,
    ) -> Result<()> {
        let w = self.fresh.len();
        let typed = matches!(
            self.fresh.get(k),
            Some(Acc::Count(_) | Acc::Sum { .. } | Acc::Avg { .. })
        );
        let accs = &mut self.accs;
        let idx = |r: usize| slots.map_or(0, |s| s.get(r).copied().unwrap_or(0)) * w + k;
        let col = match arg {
            None => {
                if let (None, Acc::Count(c)) = (slots, acc_at(accs, k)?) {
                    // COUNT(*) of one group: the batch's row count.
                    *c += n as i64;
                    return Ok(());
                }
                for r in 0..n {
                    acc_at(accs, idx(r))?.update(None)?;
                }
                return Ok(());
            }
            Some(Operand::Scalar(v)) => {
                for r in 0..n {
                    acc_at(accs, idx(r))?.update(Some(v))?;
                }
                return Ok(());
            }
            Some(op) => op
                .column()
                .ok_or_else(|| NoDbError::internal("aggregate argument has no column"))?,
        };
        let all_valid = col.null_count() == 0;
        match col.data() {
            Data::Int32(v) if typed => {
                for (r, &x) in v.iter().enumerate().take(n) {
                    if all_valid || col.is_valid(r) {
                        acc_at(accs, idx(r))?.add_int(i64::from(x));
                    }
                }
            }
            Data::Int64(v) if typed => {
                for (r, &x) in v.iter().enumerate().take(n) {
                    if all_valid || col.is_valid(r) {
                        acc_at(accs, idx(r))?.add_int(x);
                    }
                }
            }
            Data::Float64(v) if typed => {
                for (r, &x) in v.iter().enumerate().take(n) {
                    if all_valid || col.is_valid(r) {
                        acc_at(accs, idx(r))?.add_float(x);
                    }
                }
            }
            _ => {
                for r in 0..n {
                    acc_at(accs, idx(r))?.add_lane(col, r)?;
                }
            }
        }
        Ok(())
    }

    /// One column per aggregate, one lane per group, typed by the
    /// aggregate's output type over `input` (the aggregated columns).
    fn finish(&self, aggs: &[AggExpr], input: &[DataType]) -> Result<Vec<Column>> {
        let w = self.fresh.len();
        let groups = self.accs.len().checked_div(w).unwrap_or(0);
        let mut cols: Vec<Column> = aggs
            .iter()
            .map(|a| Column::with_capacity(a.output_type(input), groups))
            .collect();
        for (i, acc) in self.accs.iter().enumerate() {
            if let Some(c) = cols.get_mut(i % w.max(1)) {
                c.push_value(&acc.finalize()?)?;
            }
        }
        Ok(cols)
    }
}

/// Accumulator `i`, or a typed internal error.
#[inline]
fn acc_at(accs: &mut [Acc], i: usize) -> Result<&mut Acc> {
    accs.get_mut(i)
        .ok_or_else(|| NoDbError::internal("aggregate group out of range"))
}

/// Evaluate every aggregate's argument over `batch` (`None` for
/// COUNT(*)) and fold it into `table`, row `r` into group `slots[r]`
/// (group 0 without `slots`).
fn fold_batch(
    table: &mut AccTable,
    aggs: &[AggExpr],
    batch: &ValueBatch,
    slots: Option<&[usize]>,
) -> Result<()> {
    for (k, a) in aggs.iter().enumerate() {
        let arg = a
            .arg
            .as_ref()
            .map(|e| eval_operand(e, batch, None))
            .transpose()?;
        table.fold(k, arg.as_ref(), batch.num_rows(), slots)?;
    }
    Ok(())
}

/// Hash aggregation: one hash-table pass, groups emitted in first-seen
/// order.
pub struct HashAggOp {
    state: Drained,
    group: Vec<usize>,
    aggs: Vec<AggExpr>,
}

impl HashAggOp {
    /// Create a hash aggregation.
    pub fn new(input: BoxOp, group: Vec<usize>, aggs: Vec<AggExpr>) -> HashAggOp {
        HashAggOp {
            state: Drained::new(input),
            group,
            aggs,
        }
    }
}

impl Operator for HashAggOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        let (group, aggs) = (&self.group, &self.aggs);
        self.state.next_batch(max_rows, |mut input| {
            let mut keys = KeySet::default();
            let mut table = AccTable::new(aggs);
            let mut input_types = Vec::new();
            while let Some(b) = input.next_batch(DRAIN)? {
                input_types = b.types();
                let key_cols = columns(&b, group)?;
                let mut slots = Vec::with_capacity(b.num_rows());
                for r in 0..b.num_rows() {
                    let (s, new) = keys.slot(&key_cols, r)?;
                    if new {
                        table.push_group();
                    }
                    slots.push(s);
                }
                fold_batch(&mut table, aggs, &b, Some(&slots))?;
            }
            let n = keys.len();
            let mut cols = keys.keys;
            if cols.len() != group.len() {
                // No input: no groups, and no key types seen.
                cols = group.iter().map(|_| Column::new(DataType::Int64)).collect();
            }
            cols.extend(table.finish(aggs, &input_types)?);
            Ok(ValueBatch::from_cols(cols, n))
        })
    }
}

/// Sort-based aggregation: materializes and sorts the input by the group
/// keys, then aggregates adjacent runs.
///
/// This is what a planner must fall back to when it cannot bound the
/// number of groups — the "without statistics" plan of Figure 12. The
/// sort is genuine work, which is exactly why the statistics-informed
/// hash plan beats it.
pub struct SortAggOp {
    state: Drained,
    group: Vec<usize>,
    aggs: Vec<AggExpr>,
}

impl SortAggOp {
    /// Create a sort aggregation.
    pub fn new(input: BoxOp, group: Vec<usize>, aggs: Vec<AggExpr>) -> SortAggOp {
        SortAggOp {
            state: Drained::new(input),
            group,
            aggs,
        }
    }
}

impl Operator for SortAggOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        let (group, aggs) = (&self.group, &self.aggs);
        self.state.next_batch(max_rows, |input| {
            let keys: Vec<SortKey> = group
                .iter()
                .map(|&col| SortKey { col, desc: false })
                .collect();
            let (batch, order) = sort_input(input, &keys)?;
            if batch.is_empty() {
                return Ok(batch);
            }
            let key_cols = columns(&batch, group)?;
            // Walk the sorted rows: a run is the rows whose key equals
            // its first row's. Each row's group is its run.
            let same = |a: usize, b: usize| {
                key_cols
                    .iter()
                    .all(|c| KeyRef::at(c, a) == KeyRef::at(c, b))
            };
            let mut firsts: Vec<usize> = Vec::new();
            let mut slots = vec![0; batch.num_rows()];
            let mut table = AccTable::new(aggs);
            for &r in &order {
                if !firsts.last().is_some_and(|&f| same(f, r)) {
                    firsts.push(r);
                    table.push_group();
                }
                if let Some(s) = slots.get_mut(r) {
                    *s = firsts.len() - 1;
                }
            }
            // Within a run, rows keep their input order (the sort is
            // stable), so folding in input order folds each group in run
            // order.
            fold_batch(&mut table, aggs, &batch, Some(&slots))?;
            let mut cols = key_cols
                .iter()
                .map(|c| c.gather(&firsts))
                .collect::<Result<Vec<_>>>()?;
            cols.extend(table.finish(aggs, &batch.types())?);
            Ok(ValueBatch::from_cols(cols, firsts.len()))
        })
    }
}

/// Aggregation without GROUP BY: always exactly one output row, even for
/// empty input (`COUNT(*) = 0`, other aggregates NULL).
pub struct PlainAggOp {
    state: Drained,
    aggs: Vec<AggExpr>,
}

impl PlainAggOp {
    /// Create a plain aggregation.
    pub fn new(input: BoxOp, aggs: Vec<AggExpr>) -> PlainAggOp {
        PlainAggOp {
            state: Drained::new(input),
            aggs,
        }
    }
}

impl Operator for PlainAggOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        let aggs = &self.aggs;
        self.state.next_batch(max_rows, |mut input| {
            let mut table = AccTable::new(aggs);
            table.push_group();
            let mut input_types = Vec::new();
            while let Some(b) = input.next_batch(DRAIN)? {
                input_types = b.types();
                fold_batch(&mut table, aggs, &b, None)?;
            }
            Ok(ValueBatch::from_cols(table.finish(aggs, &input_types)?, 1))
        })
    }
}

/// A fixed in-memory rowset for tests, typed by its own values (see
/// [`ValueBatch::from_rows`]).
#[cfg(test)]
pub struct RowsOp {
    out: BatchQueue,
}

#[cfg(test)]
impl RowsOp {
    /// Wrap a vector of rows.
    pub fn new(rows: Vec<nodb_common::Row>) -> RowsOp {
        let mut out = BatchQueue::default();
        out.push(ValueBatch::from_rows(rows).expect("rows of one width"));
        RowsOp { out }
    }
}

#[cfg(test)]
impl Operator for RowsOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        Ok(self.out.pop_batch(max_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::DEFAULT_BATCH_ROWS;
    use nodb_common::Row;
    use nodb_sql::BinOp;

    fn ints(rows: &[&[i64]]) -> BoxOp {
        Box::new(RowsOp::new(
            rows.iter()
                .map(|r| Row(r.iter().map(|&v| Value::Int64(v)).collect()))
                .collect(),
        ))
    }

    /// Every row `op` emits, pulled `max_rows` at a time.
    fn pull(mut op: BoxOp, max_rows: usize) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        while let Some(b) = op.next_batch(max_rows)? {
            assert!(!b.is_empty() && b.num_rows() <= max_rows);
            out.extend(b.into_rows());
        }
        Ok(out)
    }

    fn drain(op: impl Operator + 'static) -> Vec<Row> {
        pull(Box::new(op), DEFAULT_BATCH_ROWS).unwrap()
    }

    /// The operator `make` builds must emit the same rows whatever its
    /// consumer's batch size.
    fn assert_batch_size_invariant(label: &str, make: impl Fn() -> BoxOp) {
        let want = pull(make(), DEFAULT_BATCH_ROWS).unwrap();
        for max_rows in [1, 2, 3] {
            assert_eq!(
                pull(make(), max_rows).unwrap(),
                want,
                "{label} max_rows={max_rows}"
            );
        }
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Col(i)
    }

    fn binary(op: BinOp, left: BoundExpr, right: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    #[test]
    fn filter_and_project_and_limit() {
        let pred = binary(BinOp::Gt, col(0), BoundExpr::Lit(Value::Int64(1)));
        let f = FilterOp::new(ints(&[&[1, 10], &[2, 20], &[3, 30]]), pred);
        let p = ProjectOp::new(Box::new(f), vec![col(1)]);
        let l = LimitOp::new(Box::new(p), 1);
        let rows = drain(l);
        assert_eq!(rows, vec![Row(vec![Value::Int64(20)])]);
    }

    #[test]
    fn sort_orders_with_desc_and_nulls_first() {
        let input = Box::new(RowsOp::new(vec![
            Row(vec![Value::Int64(2)]),
            Row(vec![Value::Null]),
            Row(vec![Value::Int64(1)]),
        ]));
        let rows = drain(SortOp::new(
            input,
            vec![SortKey {
                col: 0,
                desc: false,
            }],
        ));
        assert_eq!(rows[0], Row(vec![Value::Null]));
        assert_eq!(rows[2], Row(vec![Value::Int64(2)]));
        let input = Box::new(RowsOp::new(vec![
            Row(vec![Value::Int64(2)]),
            Row(vec![Value::Int64(1)]),
        ]));
        let rows = drain(SortOp::new(input, vec![SortKey { col: 0, desc: true }]));
        assert_eq!(rows[0], Row(vec![Value::Int64(2)]));
    }

    #[test]
    fn inner_hash_join_matches_keys() {
        // left: (k, a), right: (k, b); join on k.
        let left = ints(&[&[1, 100], &[2, 200], &[3, 300]]);
        let right = ints(&[&[2, 21], &[2, 22], &[4, 41]]);
        let j = HashJoinOp::new(left, right, vec![(0, 0)], JoinKind::Inner);
        let mut rows = drain(j);
        rows.sort_by(|a, b| a.get(3).total_cmp(b.get(3)));
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            Row(vec![
                Value::Int64(2),
                Value::Int64(200),
                Value::Int64(2),
                Value::Int64(21)
            ])
        );
    }

    #[test]
    fn null_join_keys_never_match() {
        let left = Box::new(RowsOp::new(vec![Row(vec![Value::Null, Value::Int64(1)])]));
        let right = ints(&[&[1, 2]]);
        let j = HashJoinOp::new(left, right, vec![(0, 0)], JoinKind::Inner);
        assert!(drain(j).is_empty());
    }

    #[test]
    fn semi_and_anti_join() {
        let outer = ints(&[&[1], &[2], &[3]]);
        let inner = ints(&[&[2], &[2], &[9]]);
        let semi = HashJoinOp::new(outer, inner, vec![(0, 0)], JoinKind::Semi);
        let rows = drain(semi);
        assert_eq!(rows, vec![Row(vec![Value::Int64(2)])]);

        let outer = ints(&[&[1], &[2], &[3]]);
        let inner = ints(&[&[2]]);
        let anti = HashJoinOp::new(outer, inner, vec![(0, 0)], JoinKind::Anti);
        let rows = drain(anti);
        assert_eq!(
            rows,
            vec![Row(vec![Value::Int64(1)]), Row(vec![Value::Int64(3)])]
        );
    }

    #[test]
    fn empty_build_side_matches_nothing() {
        let inner = HashJoinOp::new(ints(&[]), ints(&[&[1, 2]]), vec![(0, 0)], JoinKind::Inner);
        assert!(drain(inner).is_empty());
        let semi = HashJoinOp::new(ints(&[&[1]]), ints(&[]), vec![(0, 0)], JoinKind::Semi);
        assert!(drain(semi).is_empty());
        let anti = HashJoinOp::new(ints(&[&[1]]), ints(&[]), vec![(0, 0)], JoinKind::Anti);
        assert_eq!(drain(anti), vec![Row(vec![Value::Int64(1)])]);
    }

    #[test]
    fn cross_join_with_empty_keys() {
        let left = ints(&[&[1], &[2]]);
        let right = ints(&[&[10], &[20]]);
        let j = HashJoinOp::new(left, right, vec![], JoinKind::Inner);
        assert_eq!(drain(j).len(), 4);
    }

    fn agg(func: AggFunc, arg: Option<usize>) -> AggExpr {
        AggExpr {
            func,
            arg: arg.map(BoundExpr::Col),
        }
    }

    #[test]
    fn hash_and_sort_agg_agree() {
        let data: &[&[i64]] = &[&[1, 10], &[2, 20], &[1, 30], &[2, 40], &[1, 50]];
        let aggs = vec![
            agg(AggFunc::Count, None),
            agg(AggFunc::Sum, Some(1)),
            agg(AggFunc::Avg, Some(1)),
            agg(AggFunc::Min, Some(1)),
            agg(AggFunc::Max, Some(1)),
        ];
        let mut h = drain(HashAggOp::new(ints(data), vec![0], aggs.clone()));
        let mut s = drain(SortAggOp::new(ints(data), vec![0], aggs));
        h.sort_by(|a, b| a.get(0).total_cmp(b.get(0)));
        s.sort_by(|a, b| a.get(0).total_cmp(b.get(0)));
        assert_eq!(h, s);
        assert_eq!(
            h[0],
            Row(vec![
                Value::Int64(1),
                Value::Int64(3),
                Value::Int64(90),
                Value::Float64(30.0),
                Value::Int64(10),
                Value::Int64(50),
            ])
        );
    }

    #[test]
    fn plain_agg_on_empty_input_yields_one_row() {
        let aggs = vec![agg(AggFunc::Count, None), agg(AggFunc::Sum, Some(0))];
        let rows = drain(PlainAggOp::new(ints(&[]), aggs));
        assert_eq!(rows, vec![Row(vec![Value::Int64(0), Value::Null])]);
    }

    #[test]
    fn grouped_agg_on_empty_input_yields_no_rows() {
        let aggs = vec![agg(AggFunc::Count, None)];
        assert!(drain(HashAggOp::new(ints(&[]), vec![0], aggs.clone())).is_empty());
        assert!(drain(SortAggOp::new(ints(&[]), vec![0], aggs)).is_empty());
    }

    #[test]
    fn count_ignores_nulls_with_arg() {
        let input = Box::new(RowsOp::new(vec![
            Row(vec![Value::Int64(1)]),
            Row(vec![Value::Null]),
            Row(vec![Value::Int64(3)]),
        ]));
        let rows = drain(PlainAggOp::new(
            input,
            vec![agg(AggFunc::Count, Some(0)), agg(AggFunc::Count, None)],
        ));
        assert_eq!(rows[0], Row(vec![Value::Int64(2), Value::Int64(3)]));
    }

    #[test]
    fn integer_sum_overflow_is_a_typed_error() {
        let big: &[&[i64]] = &[
            &[1, 9_000_000_000_000_000_000],
            &[1, 9_000_000_000_000_000_000],
        ];
        let sum = || vec![agg(AggFunc::Sum, Some(1))];
        let ops: Vec<BoxOp> = vec![
            Box::new(PlainAggOp::new(ints(big), sum())),
            Box::new(HashAggOp::new(ints(big), vec![0], sum())),
            Box::new(SortAggOp::new(ints(big), vec![0], sum())),
        ];
        for mut op in ops {
            let err = op.next_batch(DEFAULT_BATCH_ROWS).unwrap_err();
            assert!(err.to_string().contains("integer overflow"), "{err}");
        }
        // Summing up to the edge is fine.
        let edge: &[&[i64]] = &[&[1, i64::MAX - 1], &[1, 1]];
        let rows = drain(PlainAggOp::new(ints(edge), sum()));
        assert_eq!(rows, vec![Row(vec![Value::Int64(i64::MAX)])]);
    }

    /// Rows with duplicates, NULLs and mixed numeric widths: `(k, v)`
    /// (`RowsOp` types both columns `Float64`, the widest number each holds).
    fn mixed() -> BoxOp {
        Box::new(RowsOp::new(
            [
                (Value::Int64(3), Value::Int64(30)),
                (Value::Null, Value::Int64(5)),
                (Value::Int32(1), Value::Float64(1.5)),
                (Value::Int64(3), Value::Int64(30)),
                (Value::Float64(1.0), Value::Null),
                (Value::Int64(2), Value::Int64(-7)),
                (Value::Null, Value::Int64(5)),
                (Value::Int64(3), Value::Int64(31)),
            ]
            .into_iter()
            .map(|(k, v)| Row(vec![k, v]))
            .collect(),
        ))
    }

    /// Every operator but the joins (see `joins_agree_across_batch_sizes`)
    /// emits the same rows at every consumer batch size.
    #[test]
    fn operators_agree_across_batch_sizes() {
        let aggs = || {
            vec![
                agg(AggFunc::Count, None),
                agg(AggFunc::Sum, Some(1)),
                agg(AggFunc::Min, Some(1)),
            ]
        };
        assert_batch_size_invariant("filter", || {
            let pred = binary(BinOp::Gt, col(1), BoundExpr::Lit(Value::Int64(4)));
            Box::new(FilterOp::new(mixed(), pred))
        });
        assert_batch_size_invariant("project", || {
            let sum = binary(BinOp::Add, col(0), col(1));
            Box::new(ProjectOp::new(mixed(), vec![col(1), sum]))
        });
        assert_batch_size_invariant("limit", || Box::new(LimitOp::new(mixed(), 5)));
        assert_batch_size_invariant("sort", || {
            let keys = vec![SortKey { col: 0, desc: true }];
            Box::new(SortOp::new(mixed(), keys))
        });
        assert_batch_size_invariant("distinct", || Box::new(DistinctOp::new(mixed())));
        assert_batch_size_invariant("plain agg", || Box::new(PlainAggOp::new(mixed(), aggs())));
        assert_batch_size_invariant("hash agg", || {
            Box::new(HashAggOp::new(mixed(), vec![0], aggs()))
        });
        assert_batch_size_invariant("sort agg", || {
            Box::new(SortAggOp::new(mixed(), vec![0], aggs()))
        });
        // Distinct rows: 3 == 3, and 1 widened to 1.0 equals 1.0.
        assert_eq!(drain(DistinctOp::new(mixed())).len(), 6);
    }

    /// Every join shape emits the same rows in the same order at every
    /// consumer batch size, over NULL keys on both sides.
    #[test]
    fn joins_agree_across_batch_sizes() {
        let left = || {
            Box::new(RowsOp::new(vec![
                Row(vec![Value::Int64(1), Value::Int64(10)]),
                Row(vec![Value::Int64(2), Value::Int64(20)]),
                Row(vec![Value::Null, Value::Int64(30)]),
                Row(vec![Value::Int64(1), Value::Int64(40)]),
                Row(vec![Value::Int64(3), Value::Int64(50)]),
            ])) as BoxOp
        };
        let right = || {
            Box::new(RowsOp::new(vec![
                Row(vec![Value::Int32(1), Value::Int64(15)]),
                Row(vec![Value::Null, Value::Int64(25)]),
                Row(vec![Value::Float64(2.0), Value::Int64(5)]),
                Row(vec![Value::Int32(1), Value::Int64(45)]),
            ])) as BoxOp
        };
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            assert_batch_size_invariant(&format!("{kind:?}"), || {
                Box::new(HashJoinOp::new(left(), right(), vec![(0, 0)], kind))
            });
        }
        // Matches of one probe row come out most recently built first.
        let rows = drain(HashJoinOp::new(
            left(),
            right(),
            vec![(0, 0)],
            JoinKind::Inner,
        ));
        let firsts: Vec<&Value> = rows.iter().map(|r| r.get(1)).collect();
        assert_eq!(
            firsts,
            [40, 10, 20, 40, 10]
                .map(Value::Int64)
                .iter()
                .collect::<Vec<_>>()
        );
    }

    /// A LIMIT asks the join for one row, so the join probes one row: a
    /// filter above the join that fails on the second probe row fails at
    /// no consumer batch size.
    #[test]
    fn limit_over_join_probes_only_the_rows_it_needs() {
        // `10 / b > 0` on the probe row's `b`: 2 for the first, a division
        // by zero for the second.
        let pred = |b: usize| {
            let div = binary(BinOp::Div, BoundExpr::Lit(Value::Int64(10)), col(b));
            binary(BinOp::Gt, div, BoundExpr::Lit(Value::Int64(0)))
        };
        // (kind, probe `b` in the joined layout, the one row emitted)
        let cases = [
            (JoinKind::Inner, 3, vec![1, 1, 1, 5]),
            (JoinKind::Semi, 1, vec![1, 5]),
        ];
        for (kind, b, want) in cases {
            let join = || {
                let (build, probe) = (ints(&[&[1, 1], &[0, 1]]), ints(&[&[1, 5], &[0, 0]]));
                let (left, right) = match kind {
                    JoinKind::Inner => (build, probe),
                    _ => (probe, build),
                };
                let join = Box::new(HashJoinOp::new(left, right, vec![(0, 0)], kind));
                FilterOp::new(join, pred(b))
            };
            let want = vec![Row(want.into_iter().map(Value::Int64).collect())];
            for max_rows in [1, 2, 1024] {
                let limited = LimitOp::new(Box::new(join()), 1);
                assert_eq!(
                    pull(Box::new(limited), max_rows).unwrap(),
                    want,
                    "{kind:?} max_rows={max_rows}"
                );
            }
            // Unlimited, the second probe row is reached and fails.
            let mut rows = join();
            assert!(rows.next_batch(1).is_ok() && rows.next_batch(1).is_err());
            assert!(join().next_batch(1024).is_err());
        }
    }

    #[test]
    fn sum_switches_to_float_when_needed() {
        let input = Box::new(RowsOp::new(vec![
            Row(vec![Value::Int64(1)]),
            Row(vec![Value::Float64(0.5)]),
        ]));
        let rows = drain(PlainAggOp::new(input, vec![agg(AggFunc::Sum, Some(0))]));
        assert_eq!(rows[0], Row(vec![Value::Float64(1.5)]));
    }

    /// A float that follows an integer overflow makes the sum a float, as
    /// it would in any other row order.
    #[test]
    fn float_after_integer_overflow_is_a_float_sum() {
        let big = 9_000_000_000_000_000_000i64;
        let input = || {
            Box::new(RowsOp::new(
                [Value::Int64(big), Value::Int64(big), Value::Float64(0.5)]
                    .into_iter()
                    .map(|v| Row(vec![Value::Int64(1), v]))
                    .collect(),
            )) as BoxOp
        };
        let sum = || vec![agg(AggFunc::Sum, Some(1))];
        let want = Value::Float64(big as f64 * 2.0 + 0.5);
        let ops: Vec<BoxOp> = vec![
            Box::new(PlainAggOp::new(input(), sum())),
            Box::new(HashAggOp::new(input(), vec![0], sum())),
            Box::new(SortAggOp::new(input(), vec![0], sum())),
        ];
        for op in ops {
            let rows = pull(op, DEFAULT_BATCH_ROWS).unwrap();
            assert_eq!(rows[0].values().last(), Some(&want));
        }
    }

    /// An input that records each pull's size and the rows it handed out.
    struct Watched {
        inner: BoxOp,
        pulls: std::rc::Rc<std::cell::RefCell<Vec<(usize, usize)>>>,
    }

    impl Operator for Watched {
        fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
            let b = self.inner.next_batch(max_rows)?;
            let rows = b.as_ref().map_or(0, ValueBatch::num_rows);
            self.pulls.borrow_mut().push((max_rows, rows));
            Ok(b)
        }
    }

    /// Operators that drain their input take each of its batches whole;
    /// streaming ones pass their consumer's batch size down.
    #[test]
    fn draining_operators_take_whole_batches() {
        let rows: Vec<Vec<i64>> = (0..3000).map(|i| vec![i % 7, i]).collect();
        let watched = || {
            let pulls = std::rc::Rc::default();
            let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
            let op = Watched {
                inner: ints(&refs),
                pulls: std::rc::Rc::clone(&pulls),
            };
            (Box::new(op) as BoxOp, pulls)
        };
        let sum = || vec![agg(AggFunc::Sum, Some(1))];
        type Make = Box<dyn Fn(BoxOp) -> BoxOp>;
        let draining: Vec<(&str, Make)> = vec![
            (
                "sort",
                Box::new(|i| {
                    Box::new(SortOp::new(
                        i,
                        vec![SortKey {
                            col: 0,
                            desc: false,
                        }],
                    ))
                }),
            ),
            (
                "hash agg",
                Box::new(move |i| Box::new(HashAggOp::new(i, vec![0], sum()))),
            ),
            (
                "sort agg",
                Box::new(move |i| Box::new(SortAggOp::new(i, vec![0], sum()))),
            ),
            (
                "plain agg",
                Box::new(move |i| Box::new(PlainAggOp::new(i, sum()))),
            ),
            (
                "join build",
                Box::new(|i| {
                    Box::new(HashJoinOp::new(
                        i,
                        ints(&[&[1]]),
                        vec![(0, 0)],
                        JoinKind::Inner,
                    ))
                }),
            ),
        ];
        for (label, make) in draining {
            let (input, pulls) = watched();
            pull(make(input), DEFAULT_BATCH_ROWS).unwrap();
            assert_eq!(pulls.borrow()[0], (DRAIN, 3000), "{label}");
        }
        let (input, pulls) = watched();
        let pred = binary(BinOp::GtEq, col(1), BoundExpr::Lit(Value::Int64(0)));
        pull(Box::new(FilterOp::new(input, pred)), 100).unwrap();
        assert!(pulls
            .borrow()
            .iter()
            .all(|&(asked, got)| asked == 100 && got <= 100));
    }
}

#[cfg(test)]
mod distinct_tests {
    use super::*;
    use crate::batch::DEFAULT_BATCH_ROWS;
    use nodb_common::Row;

    fn distinct(rows: Vec<Row>) -> Vec<Row> {
        let mut op = DistinctOp::new(Box::new(RowsOp::new(rows)));
        let mut out = Vec::new();
        while let Some(b) = op.next_batch(DEFAULT_BATCH_ROWS).unwrap() {
            out.extend(b.into_rows());
        }
        out
    }

    #[test]
    fn distinct_keeps_first_occurrence_order() {
        let rows = vec![
            Row(vec![Value::Int64(2)]),
            Row(vec![Value::Int64(1)]),
            Row(vec![Value::Int64(2)]),
            Row(vec![Value::Null]),
            Row(vec![Value::Null]),
            Row(vec![Value::Int64(1)]),
        ];
        assert_eq!(
            distinct(rows),
            vec![
                Row(vec![Value::Int64(2)]),
                Row(vec![Value::Int64(1)]),
                Row(vec![Value::Null]),
            ]
        );
    }

    #[test]
    fn distinct_normalizes_numeric_widths() {
        let rows = vec![
            Row(vec![Value::Int32(7)]),
            Row(vec![Value::Int64(7)]),
            Row(vec![Value::Float64(7.0)]),
        ];
        assert_eq!(distinct(rows).len(), 1, "7 == 7i64 == 7.0 group together");
    }
}
