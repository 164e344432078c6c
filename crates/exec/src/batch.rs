//! Column-major row batches, the unit every operator exchanges.
//!
//! A Volcano row-at-a-time pull ("each tuple is then passed one-by-one
//! through the operators", §3) pays a virtual call and a `Vec` allocation
//! per tuple. A [`ValueBatch`] amortizes both: a cursor pulls
//! [`DEFAULT_BATCH_ROWS`] rows at a time, and operators that drain their
//! input take each batch a leaf forms whole. Each column is one typed
//! [`Column`] — a vector per type, text in one arena, and a validity
//! bitmap — so a cache-served block arrives as the cache's own typed
//! values, and predicates, projections, keys and aggregates run typed
//! per-column loops (see `eval::eval_batch`). A
//! [`Value`](nodb_common::Value) is built only where a field enters the
//! engine (a leaf converts it into its typed column) or a row leaves it
//! ([`ValueBatch::into_rows`] at the cursor).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use nodb_common::{Column, DataType, Result, Row};

/// Rows per batch that a query cursor (and idle-time exploitation) asks
/// for; streaming operators pass the request down. Operators that drain
/// their input (sorts, aggregations, a join's build side) ask for
/// everything instead, so a leaf's block batch reaches them unsliced.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// A column-major batch of rows.
///
/// All columns have length [`num_rows`](ValueBatch::num_rows); a batch
/// may have zero columns and still carry a row count (a `COUNT(*)` scan
/// projects no columns).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValueBatch {
    cols: Vec<Column>,
    rows: usize,
}

impl ValueBatch {
    /// An empty batch with one column per type in `types`, each with room
    /// for `cap` rows.
    pub fn with_capacity(types: &[DataType], cap: usize) -> ValueBatch {
        ValueBatch {
            cols: types
                .iter()
                .map(|&t| Column::with_capacity(t, cap))
                .collect(),
            rows: 0,
        }
    }

    /// Build from pre-filled columns (all of length `rows`).
    pub fn from_cols(cols: Vec<Column>, rows: usize) -> ValueBatch {
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        ValueBatch { cols, rows }
    }

    /// Transpose rows (all the same width) into columns typed by their
    /// values (see `infer_types`).
    #[cfg(test)]
    pub fn from_rows(rows: Vec<Row>) -> Result<ValueBatch> {
        let types = infer_types(&rows);
        let mut b = ValueBatch::with_capacity(&types, rows.len());
        for row in rows {
            b.push_row(row)?;
        }
        Ok(b)
    }

    /// Number of rows in the batch.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the batch.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// No rows?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `i`, if there is one.
    pub fn col(&self, i: usize) -> Option<&Column> {
        self.cols.get(i)
    }

    /// The columns.
    pub fn cols(&self) -> &[Column] {
        &self.cols
    }

    /// Each column's type.
    pub fn types(&self) -> Vec<DataType> {
        self.cols.iter().map(Column::dtype).collect()
    }

    /// Append one row, converting each value into its column.
    #[cfg(test)]
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        debug_assert_eq!(row.len(), self.cols.len());
        for (col, v) in self.cols.iter_mut().zip(row.values()) {
            col.push_value(v)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Concatenate batches of one width, in order, sizing each column
    /// once; a lone non-empty batch is returned as it is.
    pub fn concat(mut batches: Vec<ValueBatch>) -> Result<ValueBatch> {
        batches.retain(|b| b.rows > 0);
        if batches.len() <= 1 {
            return Ok(batches.pop().unwrap_or_default());
        }
        let rows: usize = batches.iter().map(|b| b.rows).sum();
        let mut parts = batches.into_iter();
        let Some(first) = parts.next() else {
            return Ok(ValueBatch::default());
        };
        let mut out = ValueBatch::with_capacity(&first.types(), rows);
        for b in std::iter::once(first).chain(parts) {
            debug_assert_eq!(b.cols.len(), out.cols.len());
            for (col, more) in out.cols.iter_mut().zip(&b.cols) {
                col.append(more)?;
            }
        }
        out.rows = rows;
        Ok(out)
    }

    /// The rows at `order`, in that order (a row may repeat).
    pub fn take_rows(&self, order: &[usize]) -> Result<ValueBatch> {
        let cols = self
            .cols
            .iter()
            .map(|c| c.gather(order))
            .collect::<Result<Vec<_>>>()?;
        Ok(ValueBatch {
            cols,
            rows: order.len(),
        })
    }

    /// The values of row `r` (the row-evaluator oracle's input).
    #[cfg(test)]
    pub fn row_values(&self, r: usize) -> Vec<nodb_common::Value> {
        self.cols.iter().map(|c| c.value(r)).collect()
    }

    /// The batch as the evaluator reads it.
    pub fn view(&self) -> BatchView<'_> {
        let (cols, rows) = (self.cols.iter().map(|c| (c, 0)).collect(), self.rows);
        BatchView { cols, rows }
    }

    /// The columns, moved out.
    pub fn into_cols(self) -> Vec<Column> {
        self.cols
    }

    /// Transpose back to rows of values (where rows leave the engine).
    pub fn into_rows(self) -> Vec<Row> {
        let mut rows: Vec<Row> = (0..self.rows)
            .map(|_| Row::with_capacity(self.cols.len()))
            .collect();
        for c in &self.cols {
            c.push_into_rows(&mut rows);
        }
        rows
    }

    /// Rows `start..start + n`, copied.
    pub fn slice(&self, start: usize, n: usize) -> ValueBatch {
        let n = n.min(self.rows.saturating_sub(start));
        ValueBatch {
            cols: self.cols.iter().map(|c| c.slice(start, n)).collect(),
            rows: n,
        }
    }

    /// Drop all rows past the first `n` (no-op when `n >= num_rows`).
    pub fn truncate(&mut self, n: usize) {
        if n < self.rows {
            for col in &mut self.cols {
                col.truncate(n);
            }
            self.rows = n;
        }
    }
}

/// Columns borrowed for evaluation, each read from a lane on: lane `i` of
/// column `(c, at)` is lane `at + i` of `c`. A leaf evaluates its
/// conjuncts over the cache's own columns this way, without a copy.
#[derive(Debug)]
pub struct BatchView<'a> {
    /// Each column and the lane row 0 is at.
    pub cols: Vec<(&'a Column, usize)>,
    /// Number of rows.
    pub rows: usize,
}

impl BatchView<'_> {
    /// Each column's type.
    pub(crate) fn types(&self) -> Vec<DataType> {
        self.cols.iter().map(|(c, _)| c.dtype()).collect()
    }
}

/// Rows formed ahead of the consumer, handed out front to back: a pull
/// that asks for everything left — as every draining operator's does —
/// takes the batch whole, without a copy; a smaller pull (a cursor's, a
/// `LIMIT`'s) copies its typed slice out, and the rows behind it are
/// never shifted.
#[derive(Debug, Default)]
pub struct BatchQueue {
    batch: ValueBatch,
    /// Rows of `batch` already handed out.
    pos: usize,
}

impl BatchQueue {
    /// Rows still queued.
    pub fn len(&self) -> usize {
        self.batch.rows - self.pos
    }

    /// Nothing queued?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue `batch`. Producers refill only once everything queued has
    /// been handed out, so the queue is empty here.
    pub fn push(&mut self, batch: ValueBatch) {
        debug_assert!(self.is_empty(), "BatchQueue::push onto a non-empty queue");
        *self = BatchQueue { batch, pos: 0 };
    }

    /// The next `max` rows (at least one) or all that are left if fewer.
    pub fn pop_batch(&mut self, max: usize) -> Option<ValueBatch> {
        let take = self.len().min(max.max(1));
        if take == 0 {
            return None;
        }
        if self.pos == 0 && take == self.batch.rows {
            return Some(std::mem::take(&mut self.batch));
        }
        let out = self.batch.slice(self.pos, take);
        self.pos += take;
        if self.pos == self.batch.rows {
            *self = BatchQueue::default();
        }
        Some(out)
    }
}

#[cfg(test)]
/// The column types of rows that carry no schema: per column, the type
/// of its first non-NULL value, widened to the widest number the column
/// holds (`Int64` for a column of NULLs).
fn infer_types(rows: &[Row]) -> Vec<DataType> {
    let width = rows.first().map_or(0, Row::len);
    (0..width)
        .map(|c| {
            let mut types = rows
                .iter()
                .filter_map(|r| r.values().get(c).and_then(nodb_common::Value::data_type));
            let first = types.next().unwrap_or(DataType::Int64);
            types.fold(first, DataType::widest)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::Value;

    fn batch() -> ValueBatch {
        ValueBatch::from_rows(vec![
            Row(vec![Value::Int64(1), Value::Text("a".into())]),
            Row(vec![Value::Int64(2), Value::Text("b".into())]),
            Row(vec![Value::Int64(3), Value::Text("c".into())]),
        ])
        .unwrap()
    }

    fn values(c: &Column) -> Vec<Value> {
        (0..c.len()).map(|i| c.value(i)).collect()
    }

    fn col0(b: &ValueBatch) -> Vec<Value> {
        values(b.col(0).unwrap())
    }

    #[test]
    fn round_trips_rows() {
        let b = batch();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_cols(), 2);
        assert_eq!(b.types(), [DataType::Int64, DataType::Text]);
        assert_eq!(col0(&b)[1], Value::Int64(2));
        let rows = b.into_rows();
        assert_eq!(rows[2], Row(vec![Value::Int64(3), Value::Text("c".into())]));
    }

    #[test]
    fn zero_column_batches_carry_row_counts() {
        let b = ValueBatch::from_rows(vec![Row::new(), Row::new()]).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.num_cols(), 0);
        assert_eq!(b.into_rows(), vec![Row::new(), Row::new()]);
    }

    #[test]
    fn retain_and_truncate() {
        let b = batch().take_rows(&[0, 2]).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(col0(&b), [Value::Int64(1), Value::Int64(3)]);
        let mut b = batch();
        b.truncate(1);
        assert_eq!(b.num_rows(), 1);
        assert_eq!(values(b.col(1).unwrap()), [Value::Text("a".into())]);
    }

    #[test]
    fn push_row_variants_agree() {
        let mut a = ValueBatch::with_capacity(&[DataType::Int64], 2);
        a.push_row(Row(vec![Value::Int64(7)])).unwrap();
        a.push_row(Row(vec![Value::Int64(8)])).unwrap();
        assert_eq!(a.num_rows(), 2);
        assert_eq!(col0(&a), [Value::Int64(7), Value::Int64(8)]);
        assert_eq!(a.row_values(1), vec![Value::Int64(8)]);
        let b = ValueBatch::concat(vec![a.clone(), ValueBatch::default(), a]).unwrap();
        assert_eq!(b.num_rows(), 4);
        assert_eq!(col0(&b)[2], Value::Int64(7));
        let b = b.take_rows(&[3, 0]).unwrap();
        assert_eq!(col0(&b), [Value::Int64(8), Value::Int64(7)]);
        assert_eq!(
            ValueBatch::concat(Vec::new()).unwrap(),
            ValueBatch::default()
        );
        // A column that is all NULL in one batch takes the other's type.
        let nulls = ValueBatch::from_rows(vec![Row(vec![Value::Null])]).unwrap();
        let texts = ValueBatch::from_rows(vec![Row(vec![Value::Text("t".into())])]).unwrap();
        let b = ValueBatch::concat(vec![nulls, texts]).unwrap();
        assert_eq!(b.types(), [DataType::Text]);
        assert_eq!(col0(&b), [Value::Null, Value::Text("t".into())]);
    }

    #[test]
    fn queue_hands_out_rows_and_slices_in_order() {
        let mut q = BatchQueue::default();
        assert!(q.pop_batch(4).is_none());
        q.push(batch());
        let b = q.pop_batch(1).unwrap();
        assert_eq!(b.into_rows(), &batch().into_rows()[..1]);
        let b = q.pop_batch(1).unwrap();
        assert_eq!(col0(&b), [Value::Int64(2)]);
        assert_eq!(q.len(), 1);
        let b = q.pop_batch(10).unwrap();
        assert_eq!(b.num_rows(), 1);
        assert_eq!(col0(&b), [Value::Int64(3)]);
        assert!(q.is_empty());
        // A pull for the whole queue moves the batch itself.
        q.push(batch());
        assert_eq!(q.pop_batch(3), Some(batch()));
        // Zero-column batches still count rows.
        q.push(ValueBatch::from_rows(vec![Row::new(), Row::new()]).unwrap());
        assert_eq!(q.pop_batch(1).map(|b| b.num_rows()), Some(1));
        assert_eq!(q.pop_batch(5).map(|b| b.num_rows()), Some(1));
    }
}
