//! Partial columnar cache entries.

use nodb_common::{DataType, Date, Value};

/// Typed dense storage for one block of one attribute. Rows that are not
/// present hold a default slot; the presence bitmap is authoritative.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 32-bit integers.
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// Dates as day numbers.
    Date(Vec<i32>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Strings.
    Text(Vec<String>),
}

impl ColumnData {
    fn with_len(dtype: DataType, n: usize) -> ColumnData {
        match dtype {
            DataType::Int32 => ColumnData::I32(vec![0; n]),
            DataType::Int64 => ColumnData::I64(vec![0; n]),
            DataType::Float64 => ColumnData::F64(vec![0.0; n]),
            DataType::Date => ColumnData::Date(vec![0; n]),
            DataType::Bool => ColumnData::Bool(vec![false; n]),
            DataType::Text => ColumnData::Text(vec![String::new(); n]),
        }
    }

    fn value(&self, i: usize) -> Value {
        match self {
            ColumnData::I32(v) => Value::Int32(v[i]),
            ColumnData::I64(v) => Value::Int64(v[i]),
            ColumnData::F64(v) => Value::Float64(v[i]),
            ColumnData::Date(v) => Value::Date(Date(v[i])),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Text(v) => Value::Text(v[i].clone()),
        }
    }

    /// Store `value` at `i`; returns false on a type mismatch.
    fn set(&mut self, i: usize, value: &Value) -> bool {
        match (self, value) {
            (ColumnData::I32(v), Value::Int32(x)) => v[i] = *x,
            (ColumnData::I64(v), Value::Int64(x)) => v[i] = *x,
            (ColumnData::F64(v), Value::Float64(x)) => v[i] = *x,
            (ColumnData::Date(v), Value::Date(d)) => v[i] = d.0,
            (ColumnData::Bool(v), Value::Bool(b)) => v[i] = *b,
            (ColumnData::Text(v), Value::Text(s)) => v[i] = s.clone(),
            _ => return false,
        }
        true
    }

    fn bytes(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len() * 4,
            ColumnData::I64(v) => v.len() * 8,
            ColumnData::F64(v) => v.len() * 8,
            ColumnData::Date(v) => v.len() * 4,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Text(v) => v
                .iter()
                .map(|s| std::mem::size_of::<String>() + s.capacity())
                .sum(),
        }
    }
}

/// Simple fixed-size bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
    ones: usize,
}

impl Bitmap {
    pub(crate) fn new(bits: usize) -> Bitmap {
        Bitmap {
            words: vec![0; bits.div_ceil(64)],
            ones: 0,
        }
    }

    pub(crate) fn set(&mut self, i: usize) {
        let w = &mut self.words[i / 64];
        let m = 1u64 << (i % 64);
        if *w & m == 0 {
            *w |= m;
            self.ones += 1;
        }
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    pub(crate) fn count(&self) -> usize {
        self.ones
    }

    pub(crate) fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// One cached (block × attribute) column, possibly partial.
#[derive(Debug, Clone)]
pub struct CachedColumn {
    /// Block ordinal (same alignment as the positional map).
    pub block: u64,
    /// Attribute file ordinal.
    pub attr: u32,
    /// Value type.
    pub dtype: DataType,
    rows: usize,
    present: Bitmap,
    nulls: Bitmap,
    data: ColumnData,
    bytes: usize,
}

impl CachedColumn {
    /// Number of rows the block covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of rows with a cached value (incl. NULLs).
    pub fn present_count(&self) -> usize {
        self.present.count()
    }

    /// Whether every row of the block is cached.
    pub fn is_complete(&self) -> bool {
        self.present.count() == self.rows
    }

    /// Cached value for a block-local row: `None` when the row was never
    /// parsed (a *hole* left by selective parsing) or lies beyond the
    /// rows this column covered when built (e.g. after an append);
    /// `Some(Value::Null)` for a cached NULL.
    pub fn get(&self, local_row: usize) -> Option<Value> {
        if local_row >= self.rows || !self.present.get(local_row) {
            return None;
        }
        if self.nulls.get(local_row) {
            return Some(Value::Null);
        }
        Some(self.data.value(local_row))
    }

    /// Append the values of `rows` (all present) to `out`.
    fn push_values(&self, rows: impl Iterator<Item = usize>, out: &mut Vec<Value>) {
        let any_null = self.nulls.count() > 0;
        out.extend(rows.map(|i| {
            if any_null && self.nulls.get(i) {
                Value::Null
            } else {
                self.data.value(i)
            }
        }));
    }

    /// Whether the column is complete and spans at least the block's
    /// first `rows` rows (a block that grew through an append has rows
    /// its column never saw).
    pub fn covers(&self, rows: usize) -> bool {
        rows <= self.rows && self.is_complete()
    }

    /// Append the values of block-local rows `0..rows` to `out` in one
    /// pass (no per-value presence lookup). The caller has checked that
    /// the column [`covers`](CachedColumn::covers) them.
    pub fn gather_prefix(&self, rows: usize, out: &mut Vec<Value>) {
        debug_assert!(self.covers(rows), "gather_prefix past the cached rows");
        self.push_values(0..rows, out);
    }

    /// Append the values of the block-local `rows` to `out`. Returns
    /// false, appending nothing, if any of them is a hole.
    pub fn gather(&self, rows: &[u32], out: &mut Vec<Value>) -> bool {
        let present = |&r: &u32| (r as usize) < self.rows && self.present.get(r as usize);
        if !rows.iter().all(present) {
            return false;
        }
        self.push_values(rows.iter().map(|&r| r as usize), out);
        true
    }

    /// Approximate memory footprint.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Merge another (newer) partial column for the same block/attr,
    /// filling holes. Values already present are kept (they are equal by
    /// construction — both came from parsing the same file bytes). When
    /// the newer column covers *more* rows (the block grew through an
    /// append, §4.5), the column grows to the new extent.
    pub fn absorb(&mut self, other: &CachedColumn) {
        debug_assert_eq!(self.block, other.block);
        debug_assert_eq!(self.attr, other.attr);
        if self.dtype != other.dtype {
            return;
        }
        if other.rows > self.rows {
            // Grow: start from the wider column, pull in our old values.
            let mut grown = other.clone();
            for i in 0..self.rows {
                if !grown.present.get(i) && self.present.get(i) {
                    if self.nulls.get(i) {
                        grown.nulls.set(i);
                    } else {
                        grown.data.set(i, &self.data.value(i));
                    }
                    grown.present.set(i);
                }
            }
            *self = grown;
        } else {
            for i in 0..other.rows.min(self.rows) {
                if !self.present.get(i) && other.present.get(i) {
                    if other.nulls.get(i) {
                        self.nulls.set(i);
                    } else {
                        self.data.set(i, &other.data.value(i));
                    }
                    self.present.set(i);
                }
            }
        }
        self.bytes = self.data.bytes() + self.present.bytes() + self.nulls.bytes() + 64;
    }
}

/// Builds a [`CachedColumn`] while a scan converts values.
#[derive(Debug)]
pub struct ColumnBuilder {
    col: CachedColumn,
}

impl ColumnBuilder {
    /// Start a column for `rows` tuples of `block`.
    pub fn new(block: u64, attr: u32, dtype: DataType, rows: usize) -> ColumnBuilder {
        ColumnBuilder {
            col: CachedColumn {
                block,
                attr,
                dtype,
                rows,
                present: Bitmap::new(rows),
                nulls: Bitmap::new(rows),
                data: ColumnData::with_len(dtype, rows),
                bytes: 0,
            },
        }
    }

    /// Record the converted value for a block-local row. Type mismatches
    /// are ignored (the scan validated types already; defensive no-op).
    pub fn set(&mut self, local_row: usize, value: &Value) {
        if local_row >= self.col.rows {
            return;
        }
        match value {
            Value::Null => {
                self.col.nulls.set(local_row);
                self.col.present.set(local_row);
            }
            v => {
                if self.col.data.set(local_row, v) {
                    self.col.present.set(local_row);
                }
            }
        }
    }

    /// Number of values recorded.
    pub fn filled(&self) -> usize {
        self.col.present.count()
    }

    /// Finish, computing byte accounting.
    pub fn build(mut self) -> CachedColumn {
        self.col.bytes =
            self.col.data.bytes() + self.col.present.bytes() + self.col.nulls.bytes() + 64;
        self.col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_column_distinguishes_holes_from_nulls() {
        let mut b = ColumnBuilder::new(0, 3, DataType::Int32, 8);
        b.set(1, &Value::Int32(42));
        b.set(4, &Value::Null);
        let c = b.build();
        assert_eq!(c.get(0), None); // hole
        assert_eq!(c.get(1), Some(Value::Int32(42)));
        assert_eq!(c.get(4), Some(Value::Null)); // cached NULL
        assert_eq!(c.present_count(), 2);
        assert!(!c.is_complete());
    }

    #[test]
    fn gathers_match_per_row_gets() {
        let mut b = ColumnBuilder::new(0, 0, DataType::Text, 6);
        for i in [0, 1, 3, 5] {
            b.set(i, &Value::Text(format!("v{i}")));
        }
        b.set(2, &Value::Null);
        let c = b.build();
        let mut out = Vec::new();
        assert!(c.gather(&[5, 2, 0], &mut out));
        assert_eq!(out, vec![c.get(5).unwrap(), Value::Null, c.get(0).unwrap()]);
        // A hole (row 4) or a row past the column refuses the whole gather.
        for rows in [&[0u32, 4][..], &[6]] {
            let mut out = Vec::new();
            assert!(!c.gather(rows, &mut out));
            assert!(out.is_empty());
        }
        assert!(!c.covers(4));
        let mut b = ColumnBuilder::new(0, 0, DataType::Int64, 3);
        b.set(0, &Value::Int64(1));
        b.set(1, &Value::Null);
        b.set(2, &Value::Int64(3));
        let c = b.build();
        assert!(c.covers(2) && c.covers(3) && !c.covers(4));
        let mut out = Vec::new();
        c.gather_prefix(3, &mut out);
        assert_eq!(out, (0..3).map(|i| c.get(i).unwrap()).collect::<Vec<_>>());
    }

    #[test]
    fn complete_column() {
        let mut b = ColumnBuilder::new(0, 0, DataType::Float64, 3);
        for i in 0..3 {
            b.set(i, &Value::Float64(i as f64 * 0.5));
        }
        let c = b.build();
        assert!(c.is_complete());
        assert_eq!(c.get(2), Some(Value::Float64(1.0)));
    }

    #[test]
    fn type_mismatch_is_ignored() {
        let mut b = ColumnBuilder::new(0, 0, DataType::Int32, 2);
        b.set(0, &Value::Text("oops".into()));
        let c = b.build();
        assert_eq!(c.get(0), None);
    }

    #[test]
    fn absorb_fills_holes_only() {
        let mut a = {
            let mut b = ColumnBuilder::new(0, 0, DataType::Int32, 4);
            b.set(0, &Value::Int32(1));
            b.build()
        };
        let other = {
            let mut b = ColumnBuilder::new(0, 0, DataType::Int32, 4);
            b.set(0, &Value::Int32(99)); // ignored: already present
            b.set(2, &Value::Int32(3));
            b.set(3, &Value::Null);
            b.build()
        };
        a.absorb(&other);
        assert_eq!(a.get(0), Some(Value::Int32(1)));
        assert_eq!(a.get(1), None);
        assert_eq!(a.get(2), Some(Value::Int32(3)));
        assert_eq!(a.get(3), Some(Value::Null));
    }

    #[test]
    fn text_bytes_account_for_capacity() {
        let mut b = ColumnBuilder::new(0, 0, DataType::Text, 2);
        b.set(0, &Value::Text("hello world".into()));
        let c = b.build();
        assert!(c.bytes() > 11);
    }

    #[test]
    fn bitmap_counts() {
        let mut bm = Bitmap::new(130);
        bm.set(0);
        bm.set(64);
        bm.set(129);
        bm.set(129);
        assert_eq!(bm.count(), 3);
        assert!(bm.get(64));
        assert!(!bm.get(65));
    }
}
