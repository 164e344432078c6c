//! Partial columnar cache entries.
//!
//! A cached (block × attribute) column is a typed [`Column`] — one
//! vector per type, text as one offsets + bytes arena — plus a *present*
//! bitmap: selective parsing converts SELECT attributes only for
//! qualifying rows, so a column may have holes, and a hole is not a NULL.
//! Cache-served scans hand the typed values to the executor as they are
//! (`CachedColumn::column`); no value is re-boxed on the way.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use nodb_common::column::Bitmap;
use nodb_common::{Column, DataType, Value};

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
    /// One lane per row; a hole is a NULL lane whose present bit is off.
    col: Column,
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
        self.present
            .get(local_row)
            .then(|| self.col.value(local_row))
    }

    /// Whether the column is complete and spans at least the block's
    /// first `rows` rows (a block that grew through an append has rows
    /// its column never saw).
    pub fn covers(&self, rows: usize) -> bool {
        rows <= self.rows && self.is_complete()
    }

    /// Whether the block-local row is cached.
    pub fn has(&self, local_row: usize) -> bool {
        self.present.get(local_row)
    }

    /// The typed values, one lane per block row (holes read as NULL:
    /// check [`covers`](CachedColumn::covers) or
    /// [`has`](CachedColumn::has) first).
    pub fn column(&self) -> &Column {
        &self.col
    }

    /// Approximate memory footprint: values (text as arena bytes plus
    /// `u32` offsets), the validity and presence bitmaps, and 64 bytes
    /// of entry overhead.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    fn account(&mut self) {
        self.col.shrink_to_fit();
        self.bytes = self.col.bytes() + self.present.bytes() + 64;
    }

    /// Merge another (newer) partial column for the same block/attr,
    /// filling holes. Values already present are kept (they are equal by
    /// construction — both came from parsing the same file bytes). When
    /// the newer column covers *more* rows (the block grew through an
    /// append, §4.5), the column grows to the new extent.
    pub fn absorb(&mut self, other: &CachedColumn) {
        debug_assert_eq!(self.block, other.block);
        debug_assert_eq!(self.attr, other.attr);
        if self.dtype != other.dtype || (self.covers(other.rows) && self.rows >= other.rows) {
            return;
        }
        if self.dtype == DataType::Text {
            self.absorb_text(other);
        } else if other.rows > self.rows {
            // Grow: start from the wider column, fill its holes from ours.
            let old = std::mem::replace(self, other.clone());
            self.fill_holes(&old);
        } else {
            self.fill_holes(other);
        }
        self.account();
    }

    /// Copy `src`'s values into this fixed-width column's holes, in place.
    fn fill_holes(&mut self, src: &CachedColumn) {
        for i in 0..src.rows.min(self.rows) {
            if !self.present.get(i) && src.present.get(i) && self.col.copy_lane(i, &src.col) {
                self.present.set(i);
            }
        }
    }

    /// [`CachedColumn::absorb`] for text, which the arena cannot take in
    /// place: rebuild the column, copying each run of rows that one
    /// source supplies (ours first) at once.
    fn absorb_text(&mut self, other: &CachedColumn) {
        let rows = self.rows.max(other.rows);
        let sources = [&*self, other];
        let source: Vec<Option<usize>> = (0..rows)
            .map(|i| sources.iter().position(|c| c.present.get(i)))
            .collect();
        let mut col = Column::with_capacity(self.dtype, rows);
        let mut present = Bitmap::new(rows);
        let mut i = 0;
        for same in source.chunk_by(|a, b| a == b) {
            let run = same.len();
            match same.first().copied().flatten().and_then(|k| sources.get(k)) {
                Some(c) if col.extend_from(&c.col, i, run).is_ok() => {
                    (i..i + run).for_each(|j| present.set(j));
                }
                _ => col.push_nulls(run),
            }
            i += run;
        }
        self.rows = rows;
        self.present = present;
        self.col = col;
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
                // Fixed-width values are set in place; text is appended.
                col: match dtype {
                    DataType::Text => Column::with_capacity(dtype, rows),
                    _ => Column::nulls(dtype, rows),
                },
                bytes: 0,
            },
        }
    }

    /// Record the converted value for a block-local row (a fixed-width
    /// value in place; text appended, as scans record rows in ascending
    /// order, with an earlier hole refilled).
    /// Type mismatches are ignored (the scan validated types already;
    /// defensive no-op) and leave a hole.
    pub fn set(&mut self, local_row: usize, value: &Value) {
        let c = &mut self.col;
        if local_row >= c.rows
            || c.present.get(local_row)
            || value.data_type().is_some_and(|t| t != c.dtype)
        {
            return;
        }
        if c.col.set(local_row, value) {
            c.present.set(local_row);
            return;
        }
        let len = c.col.len();
        // Rows before this one that were never recorded are holes; a hole
        // already passed is refilled by cutting the lanes after it off
        // and putting them back.
        let mut tail = None;
        if local_row > len {
            c.col.push_nulls(local_row - len);
        } else if local_row < len {
            tail = Some(c.col.slice(local_row + 1, len - local_row - 1));
            c.col.truncate(local_row);
        }
        if c.col.push_value(value).is_ok() {
            c.present.set(local_row);
        } else {
            c.col.push_null();
        }
        if let Some(rest) = tail {
            // Same type, and no larger than before: cannot fail.
            let _ = c.col.append(&rest);
        }
    }

    /// Finish, computing byte accounting.
    pub fn build(mut self) -> CachedColumn {
        let c = &mut self.col;
        c.col.push_nulls(c.rows.saturating_sub(c.col.len()));
        self.col.account();
        self.col
    }

    /// Finish as a column of the block's first `rows` rows (a scan sizes
    /// its builders to the block's end before it knows where it stops),
    /// or `None` when no row was set.
    pub fn finish(mut self, rows: usize) -> Option<CachedColumn> {
        let c = &mut self.col;
        if c.present.count() == 0 {
            return None;
        }
        c.rows = c.rows.min(rows);
        c.present.truncate(c.rows);
        c.col.truncate(c.rows);
        Some(self.build())
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
        let rows = [5, 2, 0];
        assert!(rows.iter().all(|&r| c.has(r)));
        let g = c.column().gather(&rows).unwrap();
        let got: Vec<Value> = (0..rows.len()).map(|i| g.value(i)).collect();
        assert_eq!(got, vec![c.get(5).unwrap(), Value::Null, c.get(0).unwrap()]);
        // A hole (row 4) or a row past the column is not cached.
        assert!(!c.has(4) && !c.has(6));
        assert!(!c.covers(4));
        let mut b = ColumnBuilder::new(0, 0, DataType::Int64, 3);
        b.set(0, &Value::Int64(1));
        b.set(1, &Value::Null);
        b.set(2, &Value::Int64(3));
        let c = b.build();
        assert!(c.covers(2) && c.covers(3) && !c.covers(4));
        let prefix = c.column().slice(0, 3);
        let got: Vec<Value> = (0..3).map(|i| prefix.value(i)).collect();
        assert_eq!(got, (0..3).map(|i| c.get(i).unwrap()).collect::<Vec<_>>());
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

        // A partial text column absorbed into a grown one (the block
        // gained rows through an append): old values fill the new
        // column's holes, and the accounting follows the new extent.
        let mut old = {
            let mut b = ColumnBuilder::new(0, 1, DataType::Text, 3);
            b.set(0, &Value::Text("ab".into()));
            b.set(2, &Value::Text("cde".into()));
            b.build()
        };
        let grown = {
            let mut b = ColumnBuilder::new(0, 1, DataType::Text, 5);
            b.set(1, &Value::Null);
            b.set(2, &Value::Text("zzz".into())); // ignored: already present
            b.set(4, &Value::Text("f".into()));
            b.build()
        };
        old.absorb(&grown);
        assert_eq!(old.rows(), 5);
        let got: Vec<Option<Value>> = (0..5).map(|i| old.get(i)).collect();
        assert_eq!(
            got,
            vec![
                Some(Value::Text("ab".into())),
                Some(Value::Null),
                Some(Value::Text("cde".into())),
                None,
                Some(Value::Text("f".into())),
            ]
        );
        // 6 arena bytes + 6 offsets + validity + presence + 64.
        assert_eq!(old.bytes(), 6 + 6 * 4 + 8 + 8 + 64);
    }

    #[test]
    fn text_bytes_account_for_capacity() {
        let mut b = ColumnBuilder::new(0, 0, DataType::Text, 2);
        b.set(0, &Value::Text("hello world".into()));
        let c = b.build();
        // 11 arena bytes + 3 u32 offsets + validity and presence words +
        // 64: no per-value `String` header.
        assert_eq!(c.bytes(), 11 + 3 * 4 + 8 + 8 + 64);
    }

    #[test]
    fn finish_cuts_to_the_rows_seen() {
        // Sized to the block's end (8), stopped after 5 rows: the cut
        // column is the column a builder of 5 rows gives, byte for byte.
        for dtype in [DataType::Int64, DataType::Text] {
            let v = |i: usize| match dtype {
                DataType::Text => Value::Text(format!("v{i}")),
                _ => Value::Int64(i as i64),
            };
            let (mut long, mut exact) = (
                ColumnBuilder::new(2, 0, dtype, 8),
                ColumnBuilder::new(2, 0, dtype, 5),
            );
            for i in [1, 2, 4] {
                long.set(i, &v(i));
                exact.set(i, &v(i));
            }
            let (cut, exact) = (long.finish(5).unwrap(), exact.build());
            assert_eq!((cut.rows(), cut.bytes()), (exact.rows(), exact.bytes()));
            let got: Vec<Option<Value>> = (0..6).map(|i| cut.get(i)).collect();
            assert_eq!(got, (0..6).map(|i| exact.get(i)).collect::<Vec<_>>());
            assert_eq!(cut.get(0), None, "rows before the first set are holes");
        }
        // A builder that received no value yields no column.
        assert!(ColumnBuilder::new(0, 0, DataType::Text, 16)
            .finish(16)
            .is_none());
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
