//! Column-major row batches, the unit every operator exchanges.
//!
//! A Volcano row-at-a-time pull ("each tuple is then passed one-by-one
//! through the operators", §3) pays a virtual call and a `Vec` allocation
//! per tuple. A [`ValueBatch`] amortizes both: operators exchange up to
//! [`DEFAULT_BATCH_ROWS`] rows at a time, stored column-major so
//! predicate evaluation, projection, and aggregation run tight per-column
//! loops (see `eval::eval_batch`).

use nodb_common::{Row, Value};

/// Rows per batch that a query cursor asks for, and that operators which
/// drain their input (sorts, aggregations, a join's build side) pull.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// A column-major batch of rows.
///
/// All columns have length [`num_rows`](ValueBatch::num_rows); a batch
/// may have zero columns and still carry a row count (a `COUNT(*)` scan
/// projects no columns).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValueBatch {
    cols: Vec<Vec<Value>>,
    rows: usize,
}

impl ValueBatch {
    /// An empty batch of `n_cols` columns with room for `cap` rows each.
    pub fn with_capacity(n_cols: usize, cap: usize) -> ValueBatch {
        ValueBatch {
            cols: (0..n_cols).map(|_| Vec::with_capacity(cap)).collect(),
            rows: 0,
        }
    }

    /// Build from pre-filled columns (all of length `rows`).
    pub fn from_cols(cols: Vec<Vec<Value>>, rows: usize) -> ValueBatch {
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        ValueBatch { cols, rows }
    }

    /// Transpose a row-major vector (all rows the same width).
    pub fn from_rows(rows: Vec<Row>) -> ValueBatch {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Row::len);
        let mut cols: Vec<Vec<Value>> = (0..n_cols).map(|_| Vec::with_capacity(n_rows)).collect();
        for row in rows {
            debug_assert_eq!(row.len(), n_cols);
            for (col, v) in cols.iter_mut().zip(row.0) {
                col.push(v);
            }
        }
        ValueBatch { cols, rows: n_rows }
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

    /// The values of column `i` (panics if out of range, like `Row::get`).
    pub fn col(&self, i: usize) -> &[Value] {
        &self.cols[i]
    }

    /// Append one row by moving its values in.
    pub fn push_row(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (col, v) in self.cols.iter_mut().zip(row.0) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Append one row by moving the values out of a reusable buffer,
    /// leaving NULLs behind (scan emission reuses its row buffer across
    /// rows).
    pub fn push_row_taken(&mut self, vals: &mut [Value]) {
        debug_assert_eq!(vals.len(), self.cols.len());
        for (col, v) in self.cols.iter_mut().zip(vals) {
            col.push(std::mem::replace(v, Value::Null));
        }
        self.rows += 1;
    }

    /// Concatenate batches of one width, in order, sizing each column
    /// once (no growth by doubling, no re-copying of earlier rows); a
    /// lone non-empty batch is returned as it is.
    pub fn concat(mut batches: Vec<ValueBatch>) -> ValueBatch {
        batches.retain(|b| b.rows > 0);
        if batches.len() <= 1 {
            return batches.pop().unwrap_or_default();
        }
        let rows: usize = batches.iter().map(|b| b.rows).sum();
        let mut parts = batches.into_iter();
        let Some(first) = parts.next() else {
            return ValueBatch::default();
        };
        let mut cols: Vec<Vec<Value>> = first
            .cols
            .into_iter()
            .map(|c| {
                let mut col = Vec::with_capacity(rows);
                col.extend(c);
                col
            })
            .collect();
        for b in parts {
            debug_assert_eq!(b.cols.len(), cols.len());
            for (col, more) in cols.iter_mut().zip(b.cols) {
                col.extend(more);
            }
        }
        ValueBatch { cols, rows }
    }

    /// The rows at `order`, in that order, moved out (each row number at
    /// most once).
    pub fn take_rows(mut self, order: &[usize]) -> ValueBatch {
        let cols = self
            .cols
            .iter_mut()
            .map(|col| {
                order
                    .iter()
                    .map(|&r| std::mem::replace(&mut col[r], Value::Null))
                    .collect()
            })
            .collect();
        ValueBatch {
            cols,
            rows: order.len(),
        }
    }

    /// The values of row `r`, cloned (scalar-eval fallbacks).
    pub fn row_values(&self, r: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c[r].clone()).collect()
    }

    /// The columns, moved out.
    pub fn into_cols(self) -> Vec<Vec<Value>> {
        self.cols
    }

    /// Transpose back to rows, moving the values out.
    pub fn into_rows(self) -> Vec<Row> {
        let mut rows: Vec<Row> = (0..self.rows)
            .map(|_| Row::with_capacity(self.cols.len()))
            .collect();
        for col in self.cols {
            for (row, v) in rows.iter_mut().zip(col) {
                row.push(v);
            }
        }
        rows
    }

    /// Keep only the rows where `keep` is true (`kept` = number of
    /// trues, precounted by the caller to size the output exactly).
    pub fn retain_rows(self, keep: &[bool], kept: usize) -> ValueBatch {
        debug_assert_eq!(keep.len(), self.rows);
        let cols = self
            .cols
            .into_iter()
            .map(|col| {
                let mut out = Vec::with_capacity(kept);
                for (v, &k) in col.into_iter().zip(keep) {
                    if k {
                        out.push(v);
                    }
                }
                out
            })
            .collect();
        ValueBatch { cols, rows: kept }
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

/// Rows formed ahead of the consumer, handed out front to back: a pull
/// that asks for everything left takes the batch whole, a smaller pull
/// moves its slice out — the rows behind it are never shifted or copied.
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
        let range = self.pos..self.pos + take;
        let cols = self
            .batch
            .cols
            .iter_mut()
            .map(|c| {
                c[range.clone()]
                    .iter_mut()
                    .map(|v| std::mem::replace(v, Value::Null))
                    .collect()
            })
            .collect();
        self.advance(take);
        Some(ValueBatch { cols, rows: take })
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
        if self.pos == self.batch.rows {
            *self = BatchQueue::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> ValueBatch {
        ValueBatch::from_rows(vec![
            Row(vec![Value::Int64(1), Value::Text("a".into())]),
            Row(vec![Value::Int64(2), Value::Text("b".into())]),
            Row(vec![Value::Int64(3), Value::Text("c".into())]),
        ])
    }

    #[test]
    fn round_trips_rows() {
        let b = batch();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_cols(), 2);
        assert_eq!(b.col(0)[1], Value::Int64(2));
        let rows = b.into_rows();
        assert_eq!(rows[2], Row(vec![Value::Int64(3), Value::Text("c".into())]));
    }

    #[test]
    fn zero_column_batches_carry_row_counts() {
        let b = ValueBatch::from_rows(vec![Row::new(), Row::new()]);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.num_cols(), 0);
        assert_eq!(b.into_rows(), vec![Row::new(), Row::new()]);
    }

    #[test]
    fn retain_and_truncate() {
        let b = batch().retain_rows(&[true, false, true], 2);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.col(0), &[Value::Int64(1), Value::Int64(3)]);
        let mut b = batch();
        b.truncate(1);
        assert_eq!(b.num_rows(), 1);
        assert_eq!(b.col(1), &[Value::Text("a".into())]);
    }

    #[test]
    fn push_row_variants_agree() {
        let mut a = ValueBatch::with_capacity(1, 2);
        a.push_row(Row(vec![Value::Int64(7)]));
        let mut buf = [Value::Int64(8)];
        a.push_row_taken(&mut buf);
        assert_eq!(buf, [Value::Null]);
        assert_eq!(a.num_rows(), 2);
        assert_eq!(a.col(0), &[Value::Int64(7), Value::Int64(8)]);
        assert_eq!(a.row_values(1), vec![Value::Int64(8)]);
        let b = ValueBatch::concat(vec![a.clone(), ValueBatch::default(), a]);
        assert_eq!(b.num_rows(), 4);
        assert_eq!(b.col(0)[2], Value::Int64(7));
        let b = b.take_rows(&[3, 0]);
        assert_eq!(b.col(0), &[Value::Int64(8), Value::Int64(7)]);
        assert_eq!(ValueBatch::concat(Vec::new()), ValueBatch::default());
    }

    #[test]
    fn queue_hands_out_rows_and_slices_in_order() {
        let mut q = BatchQueue::default();
        assert!(q.pop_batch(4).is_none());
        q.push(batch());
        let b = q.pop_batch(1).unwrap();
        assert_eq!(b.into_rows(), &batch().into_rows()[..1]);
        let b = q.pop_batch(1).unwrap();
        assert_eq!(b.col(0), &[Value::Int64(2)]);
        assert_eq!(q.len(), 1);
        let b = q.pop_batch(10).unwrap();
        assert_eq!(b.num_rows(), 1);
        assert_eq!(b.col(0), &[Value::Int64(3)]);
        assert!(q.is_empty());
        // A pull for the whole queue moves the batch itself.
        q.push(batch());
        assert_eq!(q.pop_batch(3), Some(batch()));
        // Zero-column batches still count rows.
        q.push(ValueBatch::from_rows(vec![Row::new(), Row::new()]));
        assert_eq!(q.pop_batch(1).map(|b| b.num_rows()), Some(1));
        assert_eq!(q.pop_batch(5).map(|b| b.num_rows()), Some(1));
    }
}
