//! In-situ FITS table provider for the NoDB engine.
//!
//! Binary tables have fixed-width rows, so every attribute sits at an
//! analytically known offset — "parsing may not be required since each
//! tuple and attribute is usually located in a well-known location;
//! techniques such as caching become more important" (§5.3). The provider
//! therefore skips the positional map entirely and adapts through the
//! same block-aligned binary cache the CSV engine uses.

use std::sync::Arc;

use parking_lot::Mutex;

use nodb_cache::{CacheConfig, ColumnBuilder, RawCache};
use nodb_common::{Column, NoDbError, Result};
use nodb_exec::{BatchQueue, BoxOp, FilterOp, Operator, TableProvider, ValueBatch};
use nodb_sql::BoundExpr;

use crate::reader::FitsTable;

/// Rows per cache block.
const BLOCK_ROWS: u64 = 4096;

/// Shared per-file state: the cache plus read accounting.
pub struct FitsRuntime {
    cache: RawCache,
    /// Bytes read from the raw file (observability; cache hits add none).
    pub bytes_read: u64,
    /// Scans served.
    pub scans: u64,
}

/// An adaptive in-situ provider over one FITS binary table.
pub struct FitsProvider {
    table: FitsTable,
    runtime: Arc<Mutex<FitsRuntime>>,
}

impl FitsProvider {
    /// Open a provider. Its cache is unbudgeted: it keeps every block
    /// column a scan reads.
    pub fn open(path: &std::path::Path) -> Result<FitsProvider> {
        Ok(FitsProvider {
            table: FitsTable::open(path)?,
            runtime: Arc::new(Mutex::new(FitsRuntime {
                cache: RawCache::new(CacheConfig::default()),
                bytes_read: 0,
                scans: 0,
            })),
        })
    }

    /// The parsed table (schema, row count).
    pub fn table(&self) -> &FitsTable {
        &self.table
    }

    /// Observability snapshot: `(bytes_read, cache_bytes, scans)`.
    pub fn stats(&self) -> (u64, usize, u64) {
        let rt = self.runtime.lock();
        (rt.bytes_read, rt.cache.bytes(), rt.scans)
    }
}

impl TableProvider for FitsProvider {
    fn scan(&self, projection: &[usize], filters: &[BoundExpr]) -> Result<BoxOp> {
        self.runtime.lock().scans += 1;
        let scan = FitsScanOp {
            table: self.table.clone(),
            runtime: Arc::clone(&self.runtime),
            projection: projection.to_vec(),
            next_row: 0,
            out: BatchQueue::default(),
        };
        Ok(FilterOp::conjuncts(Box::new(scan), filters))
    }
}

/// A FITS scan: one batch per cache block, one typed column per
/// projected attribute.
struct FitsScanOp {
    table: FitsTable,
    runtime: Arc<Mutex<FitsRuntime>>,
    projection: Vec<usize>,
    next_row: u64,
    /// The block formed but not yet handed out.
    out: BatchQueue,
}

impl FitsScanOp {
    /// Form the next block: per projected attribute, the cached column on
    /// a hit; on a miss, the file's values through a [`ColumnBuilder`],
    /// whose column the cache keeps.
    fn process_block(&mut self) -> Result<ValueBatch> {
        let block = self.next_row / BLOCK_ROWS;
        let start = block * BLOCK_ROWS;
        let end = (start + BLOCK_ROWS).min(self.table.rows);
        let rows = (end - start) as usize;
        let mut rt = self.runtime.lock();

        let mut cols: Vec<Option<Column>> = self
            .projection
            .iter()
            .map(|&attr| {
                let hit = rt.cache.get(block, attr as u32)?;
                hit.covers(rows).then(|| hit.column().slice(0, rows))
            })
            .collect();

        // Fetch the missing columns from the file (binary decode is the
        // only conversion cost) and cache them.
        let missing: Vec<usize> = self
            .projection
            .iter()
            .zip(&cols)
            .filter(|(_, c)| c.is_none())
            .map(|(&attr, _)| attr)
            .collect();
        if !missing.is_empty() {
            let fetched = self.table.read_rows(start, end, &missing)?;
            rt.bytes_read += (end - start) * self.table.row_bytes as u64;
            let mut builders = missing
                .iter()
                .map(|&attr| {
                    let c = self.table.columns.get(attr).ok_or_else(|| {
                        NoDbError::internal(format!("FITS column #{attr} out of range"))
                    })?;
                    Ok(ColumnBuilder::new(
                        block,
                        attr as u32,
                        c.ftype.data_type(),
                        rows,
                    ))
                })
                .collect::<Result<Vec<_>>>()?;
            for (r, row) in fetched.iter().enumerate() {
                for (b, v) in builders.iter_mut().zip(row.values()) {
                    b.set(r, v);
                }
            }
            let mut built = builders.into_iter().map(ColumnBuilder::build);
            for slot in cols.iter_mut().filter(|c| c.is_none()) {
                if let Some(col) = built.next() {
                    *slot = Some(col.column().clone());
                    rt.cache.insert(col);
                }
            }
        }
        drop(rt);
        self.next_row = end;
        let cols = cols
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| NoDbError::internal("FITS block column left unresolved"))?;
        Ok(ValueBatch::from_cols(cols, rows))
    }
}

impl Operator for FitsScanOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        while self.out.is_empty() && self.next_row < self.table.rows {
            let block = self.process_block()?;
            self.out.push(block);
        }
        Ok(self.out.pop_batch(max_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FitsType;
    use crate::writer::FitsTableWriter;
    use nodb_common::TempDir;
    use nodb_common::{Row, Value};
    use nodb_exec::run_to_vec;
    use nodb_sql::BinOp;

    fn sample(rows: i32) -> (TempDir, std::path::PathBuf) {
        let td = TempDir::new("fits").unwrap();
        let p = td.file("t.fits");
        let mut w = FitsTableWriter::create(
            &p,
            vec![
                ("id".into(), FitsType::J),
                ("flux".into(), FitsType::D),
                ("mag".into(), FitsType::D),
            ],
        )
        .unwrap();
        for i in 0..rows {
            w.write_row(&Row(vec![
                Value::Int32(i),
                Value::Float64(i as f64),
                Value::Float64((i % 100) as f64),
            ]))
            .unwrap();
        }
        w.finish().unwrap();
        (td, p)
    }

    #[test]
    fn scan_projects_and_filters() {
        let (_td, p) = sample(10_000);
        let prov = FitsProvider::open(&p).unwrap();
        let filter = BoundExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(BoundExpr::Col(0)),
            right: Box::new(BoundExpr::Lit(Value::Int64(100))),
        };
        let rows = run_to_vec(prov.scan(&[0, 1], &[filter]).unwrap()).unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[5], Row(vec![Value::Int32(5), Value::Float64(5.0)]));
    }

    #[test]
    fn second_scan_is_served_from_cache() {
        let (_td, p) = sample(20_000);
        let prov = FitsProvider::open(&p).unwrap();
        run_to_vec(prov.scan(&[1], &[]).unwrap()).unwrap();
        let (bytes1, cache1, _) = prov.stats();
        assert!(bytes1 > 0);
        assert!(cache1 > 0);
        run_to_vec(prov.scan(&[1], &[]).unwrap()).unwrap();
        let (bytes2, _, _) = prov.stats();
        assert_eq!(bytes2, bytes1, "second scan must not touch the file");
        // A different column misses and reads again.
        run_to_vec(prov.scan(&[2], &[]).unwrap()).unwrap();
        let (bytes3, _, _) = prov.stats();
        assert!(bytes3 > bytes2);
    }

    #[test]
    fn agrees_with_procedural_baseline() {
        let (_td, p) = sample(3000);
        let prov = FitsProvider::open(&p).unwrap();
        let rows = run_to_vec(prov.scan(&[1], &[]).unwrap()).unwrap();
        let max_scan = rows
            .iter()
            .map(|r| r.get(0).as_f64().unwrap())
            .fold(f64::NEG_INFINITY, f64::max);
        let mut proc = crate::procedural::ProceduralFits::open(&p).unwrap();
        let max_proc = proc
            .aggregate("flux", crate::procedural::ProcAgg::Max)
            .unwrap();
        assert_eq!(max_scan, max_proc);
    }
}
