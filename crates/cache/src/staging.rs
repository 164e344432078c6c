//! Cache staging for a scan's rows.
//!
//! A scan converts field values without touching the shared
//! [`crate::RawCache`]: it fills a [`ChunkStage`], keyed by rows counted
//! from where the scanned rows start, and its merge cuts the staged values
//! into block-aligned [`CachedColumn`]s and inserts them into the store
//! in one short critical section.

use nodb_common::{DataType, Value};

use crate::column::{CachedColumn, ColumnBuilder};

/// Values converted by one scan pass, keyed by chunk-local row.
#[derive(Debug)]
pub struct ChunkStage {
    /// (attribute file ordinal, value type) per staged column.
    attrs: Vec<(u32, DataType)>,
    /// `(chunk-local row, value)` pairs per staged column, pushed in
    /// ascending row order.
    staged: Vec<Vec<(u32, Value)>>,
}

impl ChunkStage {
    /// Start staging for the given attributes.
    pub fn new(attrs: Vec<(u32, DataType)>) -> ChunkStage {
        let staged = attrs.iter().map(|_| Vec::new()).collect();
        ChunkStage { attrs, staged }
    }

    /// Record a converted value: `idx` is the position in the attr set
    /// passed to [`ChunkStage::new`], `local_row` the chunk-local row.
    pub fn push(&mut self, idx: usize, local_row: u32, value: Value) {
        self.staged[idx].push((local_row, value));
    }

    /// True when no values were staged.
    pub fn is_empty(&self) -> bool {
        self.staged.iter().all(|v| v.is_empty())
    }

    /// Cut the stage into per-`(block, attr)` columns. `first_row` is the
    /// global row id of chunk-local row 0, `region_rows` the total rows
    /// of the staged region (bounding each block's column extent), and
    /// `block_rows` the cache/posmap block size. Columns whose block is
    /// only partially covered carry holes, which
    /// [`CachedColumn::absorb`] fills when merged with neighbours.
    pub fn into_columns(
        self,
        first_row: u64,
        region_rows: u64,
        block_rows: usize,
    ) -> Vec<CachedColumn> {
        let br = block_rows.max(1) as u64;
        let region_end = first_row + region_rows;
        let mut out = Vec::new();
        for ((attr, dtype), vals) in self.attrs.into_iter().zip(self.staged) {
            let mut cur: Option<(u64, ColumnBuilder)> = None;
            for (local, v) in vals {
                let row = first_row + local as u64;
                let block = row / br;
                if cur.as_ref().map(|(b, _)| *b) != Some(block) {
                    if let Some((_, b)) = cur.take() {
                        out.push(b.build());
                    }
                    let block_start = block * br;
                    let extent = (region_end.min((block + 1) * br) - block_start) as usize;
                    cur = Some((block, ColumnBuilder::new(block, attr, dtype, extent)));
                }
                if let Some((_, b)) = cur.as_mut() {
                    b.set((row % br) as usize, &v);
                }
            }
            if let Some((_, b)) = cur.take() {
                out.push(b.build());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_cuts_block_aligned_columns() {
        let mut s = ChunkStage::new(vec![(2, DataType::Int32)]);
        for r in 0..10u32 {
            s.push(0, r, Value::Int32(r as i32));
        }
        // Rows 0..10 at block size 4: blocks 0 (4), 1 (4), 2 (2 rows).
        let cols = s.into_columns(0, 10, 4);
        assert_eq!(cols.len(), 3);
        assert_eq!(
            cols.iter().map(|c| (c.block, c.rows())).collect::<Vec<_>>(),
            vec![(0, 4), (1, 4), (2, 2)]
        );
        assert!(cols.iter().all(|c| c.is_complete()));
        assert_eq!(cols[1].get(0), Some(Value::Int32(4)));
        assert_eq!(cols[2].get(1), Some(Value::Int32(9)));
    }

    #[test]
    fn mid_block_start_leaves_holes_that_absorb_fills() {
        // Region = global rows 2..6 of block size 4: a partial tail of
        // block 0 and a partial head of block 1.
        let mut s = ChunkStage::new(vec![(0, DataType::Int32)]);
        for r in 0..4u32 {
            s.push(0, r, Value::Int32(2 + r as i32));
        }
        let cols = s.into_columns(2, 4, 4);
        assert_eq!(cols.len(), 2);
        let b0 = &cols[0];
        assert_eq!((b0.block, b0.rows()), (0, 4));
        assert_eq!(b0.get(0), None, "rows before the region are holes");
        assert_eq!(b0.get(2), Some(Value::Int32(2)));
        let b1 = &cols[1];
        assert_eq!((b1.block, b1.rows()), (1, 2));
        assert_eq!(b1.get(0), Some(Value::Int32(4)));
        assert_eq!(b1.get(1), Some(Value::Int32(5)));

        // A neighbouring stage covering the hole merges cleanly.
        let mut head = ChunkStage::new(vec![(0, DataType::Int32)]);
        head.push(0, 0, Value::Int32(0));
        head.push(0, 1, Value::Int32(1));
        let mut merged = head.into_columns(0, 2, 4).remove(0);
        merged.absorb(b0);
        assert_eq!(merged.get(0), Some(Value::Int32(0)));
        assert_eq!(merged.get(3), Some(Value::Int32(3)));
        assert!(merged.is_complete());
    }

    #[test]
    fn empty_stage_yields_nothing() {
        let s = ChunkStage::new(vec![(0, DataType::Text)]);
        assert!(s.is_empty());
        assert!(s.into_columns(0, 100, 16).is_empty());
    }
}
