//! Physical operators: pull-based, one tuple per `next_row` call — or one
//! column-major [`ValueBatch`] per `next_batch` call on the vectorized
//! path (both paths produce bit-identical rows).

use nodb_common::{NoDbError, Result, Row, Value};
use nodb_sql::expr::AggExpr;
use nodb_sql::{AggFunc, BoundExpr, JoinKind, SortKey};

use crate::batch::{BatchQueue, ValueBatch};
use crate::eval::{eval, eval_batch, eval_operand, eval_predicate, eval_predicate_batch, Operand};
use crate::key::{hash_key, same_key, KeyIndex, KeyRef};

/// The operator interface: a stream of rows, pullable one tuple or one
/// column-major batch at a time.
pub trait Operator {
    /// The next output tuple, or `None` when exhausted.
    fn next_row(&mut self) -> Result<Option<Row>>;

    /// The next batch of up to `max_rows` rows (≥ 1), or `None` when
    /// exhausted. Batches carry exactly the rows `next_row` would have
    /// produced, in order; a batch is never empty.
    ///
    /// The default adapter pulls rows one by one and transposes — any
    /// operator works under a batching consumer, while the hot operators
    /// (scan, filter, project, limit, join, the aggregations) override
    /// this with tight per-column loops. Callers should pick one pull
    /// style per operator tree and stick to it.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        let max = max_rows.max(1);
        let mut rows = Vec::new();
        while rows.len() < max {
            match self.next_row()? {
                Some(r) => rows.push(r),
                None => break,
            }
        }
        if rows.is_empty() {
            Ok(None)
        } else {
            Ok(Some(ValueBatch::from_rows(rows)))
        }
    }
}

/// Boxed operator.
pub type BoxOp = Box<dyn Operator>;

/// A fixed in-memory rowset (tests, cached results).
pub struct RowsOp {
    iter: std::vec::IntoIter<Row>,
}

impl RowsOp {
    /// Wrap a vector of rows.
    pub fn new(rows: Vec<Row>) -> RowsOp {
        RowsOp {
            iter: rows.into_iter(),
        }
    }
}

impl Operator for RowsOp {
    fn next_row(&mut self) -> Result<Option<Row>> {
        Ok(self.iter.next())
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
}

impl Operator for FilterOp {
    fn next_row(&mut self) -> Result<Option<Row>> {
        while let Some(r) = self.input.next_row()? {
            if eval_predicate(&self.predicate, &r)? {
                return Ok(Some(r));
            }
        }
        Ok(None)
    }

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
    fn next_row(&mut self) -> Result<Option<Row>> {
        match self.input.next_row()? {
            None => Ok(None),
            Some(r) => {
                let mut out = Row::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    out.push(eval(e, &r)?);
                }
                Ok(Some(out))
            }
        }
    }

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
    fn next_row(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next_row()? {
            None => Ok(None),
            Some(r) => {
                self.remaining -= 1;
                Ok(Some(r))
            }
        }
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // Ask for no more than the limit still allows, so the source does
        // no more block-granular scan work than the row path would.
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

/// Sort: fully materializes, then emits in key order (NULLs first).
pub struct SortOp {
    /// The input, until the first pull drains it.
    input: Option<BoxOp>,
    keys: Vec<SortKey>,
    sorted: std::vec::IntoIter<Row>,
}

impl SortOp {
    /// Create a sort.
    pub fn new(input: BoxOp, keys: Vec<SortKey>) -> SortOp {
        SortOp {
            input: Some(input),
            keys,
            sorted: Vec::new().into_iter(),
        }
    }
}

impl Operator for SortOp {
    fn next_row(&mut self) -> Result<Option<Row>> {
        if let Some(mut input) = self.input.take() {
            let mut rows = Vec::new();
            while let Some(r) = input.next_row()? {
                rows.push(r);
            }
            let keys = &self.keys;
            rows.sort_by(|a, b| {
                for k in keys {
                    let ord = a.get(k.col).total_cmp(b.get(k.col));
                    let ord = if k.desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.sorted = rows.into_iter();
        }
        Ok(self.sorted.next())
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
/// Both sides are pulled in batches of [`HashJoinOp::batched`] rows (one
/// row at a time at 0). A consumer that asks for fewer rows — a `LIMIT`,
/// or a row pull — gets the probe side pulled in batches of that size,
/// so unless a probe row has several matches the join probes, and
/// evaluates its residual on, no row the row path would not. Build rows
/// live in one column-major arena; keys are matched through a
/// [`KeyIndex`] without being copied out of it.
///
/// With an empty key list every row lands in one bucket, degrading to a
/// (filtered) cross product — the planner only does this when a query has
/// no equi-join predicate.
pub struct HashJoinOp {
    /// The side hashed into the table, until the first pull drains it.
    build: Option<BoxOp>,
    /// The side streamed against the table.
    probe: BoxOp,
    /// Key columns of the build and the probe side, pairwise.
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    residual: Option<BoundExpr>,
    kind: JoinKind,
    batch_rows: usize,
    table: JoinTable,
    /// Joined output formed but not yet handed out.
    out: BatchQueue,
}

impl HashJoinOp {
    /// Create a hash join (one-row input pulls).
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        on: Vec<(usize, usize)>,
        residual: Option<BoundExpr>,
        kind: JoinKind,
    ) -> HashJoinOp {
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
            residual,
            kind,
            batch_rows: 0,
            table: JoinTable::default(),
            out: BatchQueue::default(),
        }
    }

    /// Pull both inputs in batches of `n` rows (0 pulls one row at a
    /// time).
    pub fn batched(mut self, n: usize) -> HashJoinOp {
        self.batch_rows = n;
        self
    }

    /// Drain the build side into the arena (rows with a NULL key part
    /// never match and are dropped) and index it.
    fn build_table(&mut self, mut src: BoxOp) -> Result<()> {
        let keys = &self.build_keys;
        let mut batches = Vec::new();
        while let Some(b) = src.next_batch(self.batch_rows.max(1))? {
            let keep: Vec<bool> = (0..b.num_rows())
                .map(|r| keys.iter().all(|&c| !b.col(c)[r].is_null()))
                .collect();
            let kept = keep.iter().filter(|&&k| k).count();
            batches.push(if kept == b.num_rows() {
                b
            } else {
                b.retain_rows(&keep, kept)
            });
        }
        self.table = JoinTable::index(ValueBatch::concat(batches), keys);
        Ok(())
    }

    /// Pull the next probe batch — at most `want` rows — and queue its
    /// joined output; false once the probe side is exhausted.
    fn fill(&mut self, want: usize) -> Result<bool> {
        if let Some(src) = self.build.take() {
            self.build_table(src)?;
        }
        let pull = self.batch_rows.max(1).min(want.max(1));
        let Some(probe) = self.probe.next_batch(pull)? else {
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
        for r in 0..probe.num_rows() {
            if let Some(slot) = self
                .table
                .find(probe, &self.probe_keys, &self.build_keys, r)
            {
                for b in self.table.chain(slot) {
                    build_rows.push(b);
                    probe_rows.push(r);
                }
            }
        }
        let gather = |src: &ValueBatch, idx: &[usize]| -> Vec<Vec<Value>> {
            (0..src.num_cols())
                .map(|c| {
                    let col = src.col(c);
                    idx.iter().map(|&i| col[i].clone()).collect()
                })
                .collect()
        };
        let mut cols = gather(&self.table.rows, &build_rows);
        cols.extend(gather(probe, &probe_rows));
        let joined = ValueBatch::from_cols(cols, build_rows.len());
        match &self.residual {
            Some(p) if !joined.is_empty() => {
                let keep = eval_predicate_batch(p, &joined)?;
                let kept = keep.iter().filter(|&&k| k).count();
                Ok(joined.retain_rows(&keep, kept))
            }
            _ => Ok(joined),
        }
    }

    fn join_semi(&self, probe: ValueBatch) -> Result<ValueBatch> {
        let anti = self.kind == JoinKind::Anti;
        let n = probe.num_rows();
        let mut keep = Vec::with_capacity(n);
        let mut matches = Vec::new();
        for r in 0..n {
            let matched = match self
                .table
                .find(&probe, &self.probe_keys, &self.build_keys, r)
            {
                None => false,
                Some(slot) => match &self.residual {
                    None => true,
                    Some(p) => {
                        // Build rows in insertion order, up to the first
                        // that satisfies the residual.
                        matches.clear();
                        matches.extend(self.table.chain(slot));
                        let outer = Row(probe.row_values(r));
                        let mut any = false;
                        for &b in matches.iter().rev() {
                            let joined = outer.clone().concat(&Row(self.table.rows.row_values(b)));
                            if eval_predicate(p, &joined)? {
                                any = true;
                                break;
                            }
                        }
                        any
                    }
                },
            };
            keep.push(matched != anti);
        }
        let kept = keep.iter().filter(|&&k| k).count();
        Ok(if kept == n {
            probe
        } else {
            probe.retain_rows(&keep, kept)
        })
    }
}

impl Operator for HashJoinOp {
    fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(r) = self.out.pop_row() {
                return Ok(Some(r));
            }
            if !self.fill(1)? {
                return Ok(None);
            }
        }
    }

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

/// A hash join's build side: the rows in one arena, an index from key
/// hash to key slot, and per slot a chain of the rows with that key.
#[derive(Debug, Default)]
struct JoinTable {
    rows: ValueBatch,
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
    fn index(rows: ValueBatch, keys: &[usize]) -> JoinTable {
        let mut t = JoinTable {
            rows,
            ..JoinTable::default()
        };
        for i in 0..t.rows.num_rows() {
            let rows = &t.rows;
            let hash = hash_key(keys.iter().map(|&c| KeyRef::of(&rows.col(c)[i])));
            let first = &t.first;
            let found = t.index.find(hash, |s| {
                let f = first[s] as usize;
                keys.iter().all(|&c| {
                    let col = rows.col(c);
                    KeyRef::of(&col[f]) == KeyRef::of(&col[i])
                })
            });
            match found {
                Some(s) => {
                    t.prev.push(t.last[s]);
                    t.last[s] = i as u32;
                }
                None => {
                    t.index.insert(hash);
                    t.first.push(i as u32);
                    t.last.push(i as u32);
                    t.prev.push(NO_ROW);
                }
            }
        }
        t
    }

    /// The slot whose key equals row `r` of `probe` (key columns
    /// `probe_keys`, compared with the build side's `build_keys`); `None`
    /// when there is none or a key part is NULL.
    fn find(
        &self,
        probe: &ValueBatch,
        probe_keys: &[usize],
        build_keys: &[usize],
        r: usize,
    ) -> Option<usize> {
        let part = |c: usize| KeyRef::of(&probe.col(c)[r]);
        if probe_keys.iter().any(|&c| part(c).is_null()) {
            return None;
        }
        let hash = hash_key(probe_keys.iter().map(|&c| part(c)));
        self.index.find(hash, |s| {
            let f = self.first[s] as usize;
            build_keys
                .iter()
                .zip(probe_keys)
                .all(|(&bc, &pc)| KeyRef::of(&self.rows.col(bc)[f]) == part(pc))
        })
    }

    /// The rows with the key of `slot`, most recently built first.
    fn chain(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(self.last[slot]), |&i| {
            Some(self.prev[i as usize]).filter(|&p| p != NO_ROW)
        })
        .map(|i| i as usize)
    }
}

/// Streaming duplicate elimination over whole rows (SELECT DISTINCT).
pub struct DistinctOp {
    input: BoxOp,
    index: KeyIndex,
    /// The values of every distinct row seen, one row-width per slot.
    seen: Vec<Value>,
}

impl DistinctOp {
    /// Create a distinct operator.
    pub fn new(input: BoxOp) -> DistinctOp {
        DistinctOp {
            input,
            index: KeyIndex::new(),
            seen: Vec::new(),
        }
    }
}

impl Operator for DistinctOp {
    fn next_row(&mut self) -> Result<Option<Row>> {
        while let Some(r) = self.input.next_row()? {
            let vals = r.values();
            let w = vals.len();
            let hash = hash_key(vals.iter().map(KeyRef::of));
            let seen = &self.seen;
            let dup = self
                .index
                .find(hash, |s| same_key(&seen[s * w..(s + 1) * w], vals))
                .is_some();
            if !dup {
                self.seen.extend_from_slice(vals);
                self.index.insert(hash);
                return Ok(Some(r));
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

    /// `arg = None` means COUNT(*) (count the row unconditionally).
    fn update(&mut self, arg: Option<&Value>) -> Result<()> {
        match self {
            Acc::Count(n) => {
                match arg {
                    None => *n += 1,
                    Some(v) if !v.is_null() => *n += 1,
                    _ => {}
                }
                Ok(())
            }
            Acc::Sum {
                i,
                f,
                is_float,
                seen,
            } => {
                let Some(v) = arg else {
                    return Err(NoDbError::execution("SUM requires an argument"));
                };
                match v {
                    Value::Null => {}
                    Value::Int32(x) => {
                        *i = i.and_then(|t| t.checked_add(i64::from(*x)));
                        *f += *x as f64;
                        *seen = true;
                    }
                    Value::Int64(x) => {
                        *i = i.and_then(|t| t.checked_add(*x));
                        *f += *x as f64;
                        *seen = true;
                    }
                    Value::Float64(x) => {
                        *f += x;
                        *is_float = true;
                        *seen = true;
                    }
                    other => {
                        return Err(NoDbError::execution(format!("SUM of non-number {other}")))
                    }
                }
                Ok(())
            }
            Acc::Avg { sum, n } => {
                let Some(v) = arg else {
                    return Err(NoDbError::execution("AVG requires an argument"));
                };
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *n += 1;
                } else if !v.is_null() {
                    return Err(NoDbError::execution(format!("AVG of non-number {v}")));
                }
                Ok(())
            }
            Acc::Min(cur) => {
                if let Some(v) = arg {
                    if !v.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Less))
                    {
                        *cur = Some(v.clone());
                    }
                }
                Ok(())
            }
            Acc::Max(cur) => {
                if let Some(v) = arg {
                    if !v.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Greater))
                    {
                        *cur = Some(v.clone());
                    }
                }
                Ok(())
            }
        }
    }

    /// The aggregate's value. An integer SUM that overflowed is the typed
    /// error `+` raises, never a wrapped total.
    fn finalize(self) -> Result<Value> {
        Ok(match self {
            Acc::Count(n) => Value::Int64(n),
            Acc::Sum {
                i,
                f,
                is_float,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if is_float {
                    Value::Float64(f)
                } else {
                    Value::Int64(i.ok_or_else(|| NoDbError::execution("integer overflow"))?)
                }
            }
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / n as f64)
                }
            }
            Acc::Min(v) => v.unwrap_or(Value::Null),
            Acc::Max(v) => v.unwrap_or(Value::Null),
        })
    }
}

/// Finalize a group's key values and accumulators into its output row.
fn finish_row(mut vals: Vec<Value>, accs: impl IntoIterator<Item = Acc>) -> Result<Row> {
    for acc in accs {
        vals.push(acc.finalize()?);
    }
    Ok(Row(vals))
}

fn update_accs(accs: &mut [Acc], aggs: &[AggExpr], row: &Row) -> Result<()> {
    for (acc, agg) in accs.iter_mut().zip(aggs) {
        match &agg.arg {
            None => acc.update(None)?,
            Some(e) => {
                let v = eval(e, row)?;
                acc.update(Some(&v))?;
            }
        }
    }
    Ok(())
}

/// Argument columns for a batch: one evaluated operand per aggregate with
/// an argument (`None` = COUNT(*)); a bare column argument is read in
/// place. Each accumulator then consumes its column in row order, so
/// float accumulation order — and therefore every result bit — matches
/// the row-at-a-time path.
fn eval_agg_args<'a>(
    aggs: &'a [AggExpr],
    batch: &'a ValueBatch,
) -> Result<Vec<Option<Operand<'a>>>> {
    aggs.iter()
        .map(|a| {
            a.arg
                .as_ref()
                .map(|e| eval_operand(e, batch, None))
                .transpose()
        })
        .collect()
}

/// Fold one batch into a plain (ungrouped) accumulator set.
fn update_accs_batch(accs: &mut [Acc], args: &[Option<Operand<'_>>], n_rows: usize) -> Result<()> {
    for (acc, arg) in accs.iter_mut().zip(args) {
        match arg {
            None => {
                for _ in 0..n_rows {
                    acc.update(None)?;
                }
            }
            Some(col) => {
                for r in 0..n_rows {
                    acc.update(Some(col.get(r)))?;
                }
            }
        }
    }
    Ok(())
}

/// Grouped aggregation state: one slot per distinct key, in first-seen
/// order, holding the key's values and the group's accumulators.
struct Groups {
    index: KeyIndex,
    /// Key columns per group.
    width: usize,
    /// Each slot's key values, `width` per slot.
    keys: Vec<Value>,
    /// Each slot's accumulators, `fresh.len()` per slot.
    accs: Vec<Acc>,
    /// The accumulators a new group starts with.
    fresh: Vec<Acc>,
}

impl Groups {
    fn new(width: usize, aggs: &[AggExpr]) -> Groups {
        Groups {
            index: KeyIndex::new(),
            width,
            keys: Vec::new(),
            accs: Vec::new(),
            fresh: aggs.iter().map(|a| Acc::new(a.func)).collect(),
        }
    }

    /// The accumulators of the group whose key is `key(0..width)`,
    /// starting the group when the key is new. Nothing is cloned unless
    /// it is.
    #[inline]
    fn accs_for<'v>(&mut self, key: impl Fn(usize) -> &'v Value) -> &mut [Acc] {
        let w = self.width;
        let hash = hash_key((0..w).map(|j| KeyRef::of(key(j))));
        let keys = &self.keys;
        let slot = match self.index.find(hash, |s| {
            (0..w).all(|j| KeyRef::of(&keys[s * w + j]) == KeyRef::of(key(j)))
        }) {
            Some(s) => s,
            None => {
                self.keys.extend((0..w).map(|j| key(j).clone()));
                self.accs.extend_from_slice(&self.fresh);
                self.index.insert(hash)
            }
        };
        let a = self.fresh.len();
        &mut self.accs[slot * a..(slot + 1) * a]
    }

    /// One row per group, in first-seen order: the key values, then the
    /// finalized aggregates.
    fn into_rows(self) -> Result<Vec<Row>> {
        let (w, a) = (self.width, self.fresh.len());
        let mut keys = self.keys.into_iter();
        let mut accs = self.accs.into_iter();
        (0..self.index.len())
            .map(|_| finish_row(keys.by_ref().take(w).collect(), accs.by_ref().take(a)))
            .collect()
    }
}

/// Hash aggregation: one hash-table pass, groups emitted in first-seen
/// order.
pub struct HashAggOp {
    /// The input, until the first pull drains it.
    input: Option<BoxOp>,
    group: Vec<usize>,
    aggs: Vec<AggExpr>,
    batch_rows: usize,
    out: std::vec::IntoIter<Row>,
}

impl HashAggOp {
    /// Create a hash aggregation (row-at-a-time input drain).
    pub fn new(input: BoxOp, group: Vec<usize>, aggs: Vec<AggExpr>) -> HashAggOp {
        HashAggOp {
            input: Some(input),
            group,
            aggs,
            batch_rows: 0,
            out: Vec::new().into_iter(),
        }
    }

    /// Drain the input in batches of `n` rows (0 keeps the row drain);
    /// aggregate arguments are then evaluated one column per batch.
    pub fn batched(mut self, n: usize) -> HashAggOp {
        self.batch_rows = n;
        self
    }
}

impl Operator for HashAggOp {
    fn next_row(&mut self) -> Result<Option<Row>> {
        if let Some(mut input) = self.input.take() {
            let mut groups = Groups::new(self.group.len(), &self.aggs);
            let group = &self.group;
            if self.batch_rows > 0 {
                while let Some(b) = input.next_batch(self.batch_rows)? {
                    let args = eval_agg_args(&self.aggs, &b)?;
                    let key_cols: Vec<&[Value]> = group.iter().map(|&i| b.col(i)).collect();
                    for r in 0..b.num_rows() {
                        let accs = groups.accs_for(|j| &key_cols[j][r]);
                        for (acc, arg) in accs.iter_mut().zip(&args) {
                            acc.update(arg.as_ref().map(|col| col.get(r)))?;
                        }
                    }
                }
            } else {
                while let Some(r) = input.next_row()? {
                    let accs = groups.accs_for(|j| r.get(group[j]));
                    update_accs(accs, &self.aggs, &r)?;
                }
            }
            self.out = groups.into_rows()?.into_iter();
        }
        Ok(self.out.next())
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
    /// The input, until the first pull drains it.
    input: Option<BoxOp>,
    group: Vec<usize>,
    aggs: Vec<AggExpr>,
    batch_rows: usize,
    out: std::vec::IntoIter<Row>,
}

impl SortAggOp {
    /// Create a sort aggregation (row-at-a-time input drain).
    pub fn new(input: BoxOp, group: Vec<usize>, aggs: Vec<AggExpr>) -> SortAggOp {
        SortAggOp {
            input: Some(input),
            group,
            aggs,
            batch_rows: 0,
            out: Vec::new().into_iter(),
        }
    }

    /// Drain the input in batches of `n` rows (0 keeps the row drain).
    pub fn batched(mut self, n: usize) -> SortAggOp {
        self.batch_rows = n;
        self
    }
}

impl Operator for SortAggOp {
    fn next_row(&mut self) -> Result<Option<Row>> {
        if let Some(mut input) = self.input.take() {
            let mut rows = Vec::new();
            if self.batch_rows > 0 {
                while let Some(b) = input.next_batch(self.batch_rows)? {
                    rows.extend(b.into_rows());
                }
            } else {
                while let Some(r) = input.next_row()? {
                    rows.push(r);
                }
            }
            let group = &self.group;
            rows.sort_by(|a, b| {
                for &g in group {
                    let ord = a.get(g).total_cmp(b.get(g));
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let mut out = Vec::new();
            // The current run: its key values and accumulators.
            let mut run: Option<(Vec<Value>, Vec<Acc>)> = None;
            for r in rows {
                let same = run
                    .as_ref()
                    .is_some_and(|(key, _)| same_key(key, group.iter().map(|&i| r.get(i))));
                if !same {
                    if let Some((vals, accs)) = run.take() {
                        out.push(finish_row(vals, accs)?);
                    }
                    run = Some((
                        group.iter().map(|&i| r.get(i).clone()).collect(),
                        self.aggs.iter().map(|a| Acc::new(a.func)).collect(),
                    ));
                }
                if let Some((_, accs)) = run.as_mut() {
                    update_accs(accs, &self.aggs, &r)?;
                }
            }
            if let Some((vals, accs)) = run {
                out.push(finish_row(vals, accs)?);
            }
            self.out = out.into_iter();
        }
        Ok(self.out.next())
    }
}

/// Aggregation without GROUP BY: always exactly one output row, even for
/// empty input (`COUNT(*) = 0`, other aggregates NULL).
pub struct PlainAggOp {
    /// The input, until the first (and only) pull drains it.
    input: Option<BoxOp>,
    aggs: Vec<AggExpr>,
    batch_rows: usize,
}

impl PlainAggOp {
    /// Create a plain aggregation (row-at-a-time input drain).
    pub fn new(input: BoxOp, aggs: Vec<AggExpr>) -> PlainAggOp {
        PlainAggOp {
            input: Some(input),
            aggs,
            batch_rows: 0,
        }
    }

    /// Drain the input in batches of `n` rows (0 keeps the row drain);
    /// aggregate arguments are then evaluated one column per batch.
    pub fn batched(mut self, n: usize) -> PlainAggOp {
        self.batch_rows = n;
        self
    }
}

impl Operator for PlainAggOp {
    fn next_row(&mut self) -> Result<Option<Row>> {
        let Some(mut input) = self.input.take() else {
            return Ok(None);
        };
        let mut accs: Vec<Acc> = self.aggs.iter().map(|a| Acc::new(a.func)).collect();
        if self.batch_rows > 0 {
            while let Some(b) = input.next_batch(self.batch_rows)? {
                let args = eval_agg_args(&self.aggs, &b)?;
                update_accs_batch(&mut accs, &args, b.num_rows())?;
            }
        } else {
            while let Some(r) = input.next_row()? {
                update_accs(&mut accs, &self.aggs, &r)?;
            }
        }
        finish_row(Vec::new(), accs).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_sql::BinOp;

    fn ints(rows: &[&[i64]]) -> BoxOp {
        Box::new(RowsOp::new(
            rows.iter()
                .map(|r| Row(r.iter().map(|&v| Value::Int64(v)).collect()))
                .collect(),
        ))
    }

    fn drain(mut op: impl Operator) -> Vec<Row> {
        let mut out = Vec::new();
        while let Some(r) = op.next_row().unwrap() {
            out.push(r);
        }
        out
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Col(i)
    }

    #[test]
    fn filter_and_project_and_limit() {
        let pred = BoundExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(col(0)),
            right: Box::new(BoundExpr::Lit(Value::Int64(1))),
        };
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
        let j = HashJoinOp::new(left, right, vec![(0, 0)], None, JoinKind::Inner);
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
    fn inner_join_respects_residual() {
        let left = ints(&[&[1, 10]]);
        let right = ints(&[&[1, 5], &[1, 20]]);
        // residual: left.a < right.b  (ordinals 1 and 3 in concat layout)
        let residual = BoundExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(col(1)),
            right: Box::new(col(3)),
        };
        let j = HashJoinOp::new(left, right, vec![(0, 0)], Some(residual), JoinKind::Inner);
        let rows = drain(j);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(3), &Value::Int64(20));
    }

    #[test]
    fn null_join_keys_never_match() {
        let left = Box::new(RowsOp::new(vec![Row(vec![Value::Null, Value::Int64(1)])]));
        let right = ints(&[&[1, 2]]);
        let j = HashJoinOp::new(left, right, vec![(0, 0)], None, JoinKind::Inner);
        assert!(drain(j).is_empty());
    }

    #[test]
    fn semi_and_anti_join() {
        let outer = ints(&[&[1], &[2], &[3]]);
        let inner = ints(&[&[2], &[2], &[9]]);
        let semi = HashJoinOp::new(outer, inner, vec![(0, 0)], None, JoinKind::Semi);
        let rows = drain(semi);
        assert_eq!(rows, vec![Row(vec![Value::Int64(2)])]);

        let outer = ints(&[&[1], &[2], &[3]]);
        let inner = ints(&[&[2]]);
        let anti = HashJoinOp::new(outer, inner, vec![(0, 0)], None, JoinKind::Anti);
        let rows = drain(anti);
        assert_eq!(
            rows,
            vec![Row(vec![Value::Int64(1)]), Row(vec![Value::Int64(3)])]
        );
    }

    #[test]
    fn cross_join_with_empty_keys() {
        let left = ints(&[&[1], &[2]]);
        let right = ints(&[&[10], &[20]]);
        let j = HashJoinOp::new(left, right, vec![], None, JoinKind::Inner);
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
        for batch in [0usize, 1024] {
            let ops: Vec<Box<dyn Operator>> = vec![
                Box::new(PlainAggOp::new(ints(big), sum()).batched(batch)),
                Box::new(HashAggOp::new(ints(big), vec![0], sum()).batched(batch)),
                Box::new(SortAggOp::new(ints(big), vec![0], sum()).batched(batch)),
            ];
            for mut op in ops {
                let err = op.next_row().unwrap_err();
                assert!(err.to_string().contains("integer overflow"), "{err}");
            }
        }
        // Summing up to the edge is fine.
        let edge: &[&[i64]] = &[&[1, i64::MAX - 1], &[1, 1]];
        let rows = drain(PlainAggOp::new(ints(edge), sum()));
        assert_eq!(rows, vec![Row(vec![Value::Int64(i64::MAX)])]);
    }

    /// Every join shape pulls its inputs one row at a time at batch size 0
    /// and in batches otherwise; both must emit the same rows in the same
    /// order.
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
        // left.b < right.b, in the concatenated layout.
        let residual = || BoundExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(col(1)),
            right: Box::new(col(3)),
        };
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            for res in [false, true] {
                let run = |batch: usize| {
                    drain(
                        HashJoinOp::new(left(), right(), vec![(0, 0)], res.then(residual), kind)
                            .batched(batch),
                    )
                };
                let want = run(0);
                for batch in [1, 2, 1024] {
                    assert_eq!(run(batch), want, "{kind:?} residual={res} batch={batch}");
                }
            }
        }
        // Matches of one probe row come out most recently built first.
        let rows = drain(HashJoinOp::new(
            left(),
            right(),
            vec![(0, 0)],
            None,
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
    /// residual that fails on the second probe row fails under no batch
    /// size, exactly as under row pulls.
    #[test]
    fn limit_over_join_probes_only_the_rows_it_needs() {
        // `10 / b > 0` on the probe row's `b`: 2 for the first, a division
        // by zero for the second.
        let residual = |b: usize| BoundExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(BoundExpr::Binary {
                op: BinOp::Div,
                left: Box::new(BoundExpr::Lit(Value::Int64(10))),
                right: Box::new(col(b)),
            }),
            right: Box::new(BoundExpr::Lit(Value::Int64(0))),
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
                HashJoinOp::new(left, right, vec![(0, 0)], Some(residual(b)), kind)
            };
            let want = vec![Row(want.into_iter().map(Value::Int64).collect())];
            assert_eq!(drain(LimitOp::new(Box::new(join()), 1)), want, "{kind:?}");
            for batch in [1, 2, 1024] {
                let mut op = LimitOp::new(Box::new(join().batched(batch)), 1);
                let mut got = Vec::new();
                while let Some(b) = op.next_batch(batch).unwrap() {
                    got.extend(b.into_rows());
                }
                assert_eq!(got, want, "{kind:?} batch={batch}");
            }
            // Unlimited, both pull styles reach the failing row.
            let mut rows = join();
            assert!(rows.next_row().is_ok() && rows.next_row().is_err());
            assert!(join().batched(1024).next_batch(1024).is_err());
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
        for batch in [0usize, 1024] {
            let ops: Vec<Box<dyn Operator>> = vec![
                Box::new(PlainAggOp::new(input(), sum()).batched(batch)),
                Box::new(HashAggOp::new(input(), vec![0], sum()).batched(batch)),
                Box::new(SortAggOp::new(input(), vec![0], sum()).batched(batch)),
            ];
            for mut op in ops {
                let row = op.next_row().unwrap().unwrap();
                assert_eq!(row.values().last(), Some(&want), "batch={batch}");
            }
        }
    }
}

#[cfg(test)]
mod distinct_tests {
    use super::*;

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
        let mut op = DistinctOp::new(Box::new(RowsOp::new(rows)));
        let mut out = Vec::new();
        while let Some(r) = op.next_row().unwrap() {
            out.push(r);
        }
        assert_eq!(
            out,
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
        let mut op = DistinctOp::new(Box::new(RowsOp::new(rows)));
        let mut n = 0;
        while op.next_row().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 1, "7 == 7i64 == 7.0 group together");
    }
}
