//! Figure 11 (paper §5.3): FITS binary tables — the procedural
//! CFITSIO-style baseline vs the in-situ engine.

use std::path::Path;

use nodb_common::Result;
use nodb_core::{AccessMode, NoDb, NoDbConfig};
use nodb_fits::procedural::ProcAgg;
use nodb_fits::ProceduralFits;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::fits_file;
use crate::report::{secs, Report};
use crate::{time, Scale};

/// Figure 11: a sequence of MIN/MAX/AVG aggregates over random float
/// columns. The procedural program pays a full scan every time (its cost
/// stays flat); PostgresRaw drops sharply once its cache holds the
/// touched columns, and the cumulative data-to-query time crosses over
/// after a few queries.
pub fn fig11(scale: Scale, out: &Path) -> Result<()> {
    let path = fits_file(scale.fits_rows())?;
    let n_queries = 40;
    let mut rng = StdRng::seed_from_u64(0x5ce);
    // The workload: (column, aggregate) pairs, shared by both systems.
    // An analysis session revisits a handful of columns (the paper's
    // workload runs MIN/MAX/AVG over the same float columns repeatedly).
    let workload: Vec<(usize, ProcAgg)> = (0..n_queries)
        .map(|_| {
            let col = rng.gen_range(0..4usize);
            let agg = match rng.gen_range(0..3) {
                0 => ProcAgg::Min,
                1 => ProcAgg::Max,
                _ => ProcAgg::Avg,
            };
            (col, agg)
        })
        .collect();

    let mut report = Report::new(
        "fig11",
        "FITS query sequence: procedural (CFITSIO-style) vs PostgresRaw",
        &[
            "query",
            "cfitsio_s",
            "postgresraw_s",
            "cum_cfitsio_s",
            "cum_raw_s",
        ],
        out,
    );

    // Procedural baseline.
    let mut proc = ProceduralFits::open(&path)?;
    let mut proc_times = Vec::with_capacity(n_queries);
    for (col, agg) in &workload {
        let (_, t) = time(|| {
            proc.aggregate(&format!("f{col}"), *agg).expect("agg");
        });
        proc_times.push(t);
    }

    // PostgresRaw over FITS (cache carries the adaptation; no positional
    // map is needed for fixed-width rows).
    let mut db = NoDb::new(NoDbConfig::postgres_raw())?;
    db.register_fits("sky", &path, AccessMode::InSitu)?;
    let mut raw_times = Vec::with_capacity(n_queries);
    for (col, agg) in &workload {
        let func = match agg {
            ProcAgg::Min => "min",
            ProcAgg::Max => "max",
            ProcAgg::Avg => "avg",
        };
        let sql = format!("select {func}(f{col}) from sky");
        let (_, t) = time(|| db.query(&sql).expect("q"));
        raw_times.push(t);
    }

    let (mut cum_p, mut cum_r) = (0.0, 0.0);
    for qi in 0..n_queries {
        cum_p += proc_times[qi];
        cum_r += raw_times[qi];
        report.row(&[
            (qi + 1).to_string(),
            secs(proc_times[qi]),
            secs(raw_times[qi]),
            secs(cum_p),
            secs(cum_r),
        ]);
    }
    report.finish()?;
    Ok(())
}
