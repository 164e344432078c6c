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
use nodb_common::{ByteSize, DataType, Result, Row, Value};
use nodb_exec::{eval_predicate, fill_batch, BoxOp, Operator, TableProvider, ValueBatch};
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
    cache_enabled: bool,
}

impl FitsProvider {
    /// Open a provider with an optional cache budget.
    pub fn open(
        path: &std::path::Path,
        cache_budget: Option<ByteSize>,
        cache_enabled: bool,
    ) -> Result<FitsProvider> {
        Ok(FitsProvider {
            table: FitsTable::open(path)?,
            runtime: Arc::new(Mutex::new(FitsRuntime {
                cache: RawCache::new(CacheConfig {
                    budget: cache_budget,
                    ..CacheConfig::default()
                }),
                bytes_read: 0,
                scans: 0,
            })),
            cache_enabled,
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
        Ok(Box::new(FitsScanOp {
            table: self.table.clone(),
            runtime: Arc::clone(&self.runtime),
            projection: projection.to_vec(),
            filters: filters.to_vec(),
            cache_enabled: self.cache_enabled,
            next_row: 0,
            out: std::collections::VecDeque::new(),
        }))
    }
}

struct FitsScanOp {
    table: FitsTable,
    runtime: Arc<Mutex<FitsRuntime>>,
    projection: Vec<usize>,
    filters: Vec<BoundExpr>,
    cache_enabled: bool,
    next_row: u64,
    out: std::collections::VecDeque<Row>,
}

impl FitsScanOp {
    fn process_block(&mut self) -> Result<()> {
        let block = self.next_row / BLOCK_ROWS;
        let start = block * BLOCK_ROWS;
        let end = (start + BLOCK_ROWS).min(self.table.rows);
        let rows = (end - start) as usize;
        let mut rt = self.runtime.lock();

        // Which projected columns are already cached for this block?
        let mut col_values: Vec<Option<Vec<Value>>> = vec![None; self.projection.len()];
        let mut missing: Vec<usize> = Vec::new();
        if self.cache_enabled {
            for (i, &attr) in self.projection.iter().enumerate() {
                match rt.cache.get(block, attr as u32) {
                    Some(col) if col.is_complete() => {
                        let vals: Vec<Value> = (0..rows)
                            .map(|r| col.get(r).expect("complete column"))
                            .collect();
                        col_values[i] = Some(vals);
                    }
                    _ => missing.push(i),
                }
            }
        } else {
            missing = (0..self.projection.len()).collect();
        }

        // Fetch missing columns from the file (binary decode = the only
        // conversion cost) and cache them.
        if !missing.is_empty() {
            let cols: Vec<usize> = missing.iter().map(|&i| self.projection[i]).collect();
            let fetched = self.table.read_rows(start, end, &cols)?;
            rt.bytes_read += (end - start) * self.table.row_bytes as u64;
            let mut builders: Vec<ColumnBuilder> = missing
                .iter()
                .map(|&i| {
                    let attr = self.projection[i];
                    ColumnBuilder::new(
                        block,
                        attr as u32,
                        self.table.columns[attr].ftype.data_type(),
                        rows,
                    )
                })
                .collect();
            let mut cols_out: Vec<Vec<Value>> =
                missing.iter().map(|_| Vec::with_capacity(rows)).collect();
            for (r, row) in fetched.iter().enumerate() {
                for (k, v) in row.values().iter().enumerate() {
                    builders[k].set(r, v);
                    cols_out[k].push(v.clone());
                }
            }
            if self.cache_enabled {
                for b in builders {
                    rt.cache.insert(b.build());
                }
            }
            for (k, &i) in missing.iter().enumerate() {
                col_values[i] = Some(std::mem::take(&mut cols_out[k]));
            }
        }
        drop(rt);

        // Assemble rows and filter.
        'rows: for r in 0..rows {
            let mut row = Row::with_capacity(self.projection.len());
            for vals in col_values.iter() {
                row.push(vals.as_ref().expect("all columns resolved")[r].clone());
            }
            for f in &self.filters {
                if !eval_predicate(f, &row)? {
                    continue 'rows;
                }
            }
            self.out.push_back(row);
        }
        self.next_row = end;
        Ok(())
    }
}

impl Operator for FitsScanOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        let types: Vec<DataType> = self
            .projection
            .iter()
            .map(|&a| self.table.columns[a].ftype.data_type())
            .collect();
        fill_batch(&types, max_rows, || loop {
            if let Some(r) = self.out.pop_front() {
                return Ok(Some(r));
            }
            if self.next_row >= self.table.rows {
                return Ok(None);
            }
            self.process_block()?;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FitsType;
    use crate::writer::FitsTableWriter;
    use nodb_common::TempDir;
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
        let prov = FitsProvider::open(&p, None, true).unwrap();
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
        let prov = FitsProvider::open(&p, None, true).unwrap();
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
    fn disabled_cache_always_rereads() {
        let (_td, p) = sample(5000);
        let prov = FitsProvider::open(&p, None, false).unwrap();
        run_to_vec(prov.scan(&[1], &[]).unwrap()).unwrap();
        let (bytes1, cache1, _) = prov.stats();
        assert_eq!(cache1, 0);
        run_to_vec(prov.scan(&[1], &[]).unwrap()).unwrap();
        let (bytes2, _, _) = prov.stats();
        assert_eq!(bytes2, bytes1 * 2);
    }

    #[test]
    fn agrees_with_procedural_baseline() {
        let (_td, p) = sample(3000);
        let prov = FitsProvider::open(&p, None, true).unwrap();
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
