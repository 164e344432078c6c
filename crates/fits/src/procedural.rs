//! The CFITSIO stand-in: a procedural, full-scan API (paper §5.3).
//!
//! "We compare PostgresRaw with a custom-made C program that uses the
//! CFITSIO library and procedurally implements the same workload." Such
//! programs re-read the file for every aggregate; their only reuse comes
//! from the file-system cache. This module reproduces that behaviour: no
//! state survives between calls.

use nodb_common::{NoDbError, Result};

use crate::reader::FitsTable;

/// Aggregates the procedural baseline supports (what the paper's FITS
/// workload runs: MIN / MAX / AVG over float columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcAgg {
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Mean.
    Avg,
}

/// A procedural FITS session (CFITSIO-style).
pub struct ProceduralFits {
    table: FitsTable,
    /// Rows per read batch.
    batch: u64,
    /// Total bytes read from the file across calls (observability).
    pub bytes_read: u64,
}

impl ProceduralFits {
    /// Open a file.
    pub fn open(path: &std::path::Path) -> Result<ProceduralFits> {
        Ok(ProceduralFits {
            table: FitsTable::open(path)?,
            batch: 65_536,
            bytes_read: 0,
        })
    }

    /// Compute one aggregate over one column by scanning the whole table
    /// (every call pays the full pass, like a loop in a C program).
    pub fn aggregate(&mut self, column: &str, agg: ProcAgg) -> Result<f64> {
        let col = self
            .table
            .col_index(column)
            .ok_or_else(|| NoDbError::plan(format!("no FITS column `{column}`")))?;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0f64;
        let mut n = 0u64;
        let mut at = 0u64;
        while at < self.table.rows {
            let to = (at + self.batch).min(self.table.rows);
            let rows = self.table.read_rows(at, to, &[col])?;
            self.bytes_read += (to - at) * self.table.row_bytes as u64;
            for r in rows {
                let v = r.get(0).as_f64().ok_or_else(|| {
                    NoDbError::execution(format!("column `{column}` is not numeric"))
                })?;
                min = min.min(v);
                max = max.max(v);
                sum += v;
                n += 1;
            }
            at = to;
        }
        if n == 0 {
            return Err(NoDbError::execution("empty table"));
        }
        Ok(match agg {
            ProcAgg::Min => min,
            ProcAgg::Max => max,
            ProcAgg::Avg => sum / n as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FitsType;
    use crate::writer::FitsTableWriter;
    use nodb_common::{Row, TempDir, Value};

    fn sample() -> (TempDir, std::path::PathBuf) {
        let td = TempDir::new("fits").unwrap();
        let p = td.file("t.fits");
        let mut w = FitsTableWriter::create(
            &p,
            vec![("a".into(), FitsType::D), ("b".into(), FitsType::D)],
        )
        .unwrap();
        for i in 0..1000 {
            w.write_row(&Row(vec![
                Value::Float64(i as f64),
                Value::Float64((i % 10) as f64),
            ]))
            .unwrap();
        }
        w.finish().unwrap();
        (td, p)
    }

    #[test]
    fn aggregates_are_exact() {
        let (_td, p) = sample();
        let mut f = ProceduralFits::open(&p).unwrap();
        assert_eq!(f.aggregate("a", ProcAgg::Min).unwrap(), 0.0);
        assert_eq!(f.aggregate("a", ProcAgg::Max).unwrap(), 999.0);
        assert_eq!(f.aggregate("a", ProcAgg::Avg).unwrap(), 499.5);
        assert_eq!(f.aggregate("b", ProcAgg::Max).unwrap(), 9.0);
        assert!(f.aggregate("zz", ProcAgg::Min).is_err());
    }

    #[test]
    fn every_call_rescans_the_file() {
        let (_td, p) = sample();
        let mut f = ProceduralFits::open(&p).unwrap();
        f.aggregate("a", ProcAgg::Min).unwrap();
        let after_one = f.bytes_read;
        f.aggregate("a", ProcAgg::Min).unwrap();
        assert_eq!(
            f.bytes_read,
            after_one * 2,
            "no reuse between calls — that is the point of the baseline"
        );
    }
}
