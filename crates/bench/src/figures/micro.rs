//! Micro-benchmark figures (paper §5.1): Figures 3, 4, 5 and 6.

use std::path::Path;

use nodb_common::{ByteSize, Result};
use nodb_core::{AccessMode, NoDbConfig};

use crate::data::micro_file;
use crate::figures::{micro_engine, random_projections, region_projections};
use crate::report::{secs, Report};
use crate::{time, Scale};

/// Figure 3: average query time as a function of the positional-map
/// storage budget. The paper sweeps 14.3 MB → 2.1 GB and finds response
/// time saturates once ~¾ of the pointers fit; with ~¼ collected it is
/// already within 15 % of fully indexed.
pub fn fig3(scale: Scale, out: &Path) -> Result<()> {
    let rows = scale.micro_rows();
    let cols = scale.micro_cols();
    let (path, schema) = micro_file(rows, cols, None)?;
    // Full map ≈ rows × cols pointers × 2 bytes (u16 relative offsets)
    // plus per-chunk overhead; sweep fractions of that.
    let full_bytes = (rows * cols * 2) as f64 * 1.25;
    let queries = random_projections(cols, scale.sequence_len(), 10, 3);

    let mut report = Report::new(
        "fig3",
        "avg query time vs positional-map budget (PM-only engine)",
        &["budget_frac", "budget", "pointers_mio", "avg_time_s"],
        out,
    );
    for frac in [0.02, 0.05, 0.10, 0.25, 0.50, 0.75, 1.0, 1.25] {
        let budget = ByteSize((full_bytes * frac) as u64);
        let mut cfg = NoDbConfig::pm_only();
        cfg.posmap_budget = Some(budget);
        cfg.enable_stats = false;
        let db = micro_engine(cfg, &path, &schema, AccessMode::InSitu);
        // One warm-up pass (the first query always pays full
        // tokenization), then measure the sequence.
        db.query(&queries[0]).expect("warmup");
        let (_, total) = time(|| {
            for q in &queries {
                db.query(q).expect("query");
            }
        });
        let pointers = db.aux_info("t").expect("aux").posmap_pointers as f64 / 1e6;
        report.row(&[
            format!("{frac:.2}"),
            budget.to_string(),
            format!("{pointers:.2}"),
            secs(total / queries.len() as f64),
        ]);
    }
    report.finish()?;
    Ok(())
}

/// Figure 4: with an unlimited map, query time scales linearly as the
/// file grows — whether it grows by rows or by attributes.
pub fn fig4(scale: Scale, out: &Path) -> Result<()> {
    let base_rows = scale.micro_rows();
    let base_cols = scale.micro_cols();
    let mut report = Report::new(
        "fig4",
        "avg query time vs file size (vary rows / vary attributes)",
        &["series", "factor", "file_mb", "avg_time_s"],
        out,
    );
    let n_queries = scale.sequence_len().min(20);

    // Series A: more tuples (queries unchanged).
    for factor in [1, 2, 3, 4] {
        let rows = base_rows * factor;
        let (path, schema) = micro_file(rows, base_cols, None)?;
        let db = micro_engine(NoDbConfig::pm_only(), &path, &schema, AccessMode::InSitu);
        let queries = random_projections(base_cols, n_queries, 10, 11);
        let (_, total) = time(|| {
            for q in &queries {
                db.query(q).expect("query");
            }
        });
        let mb = std::fs::metadata(&path)?.len() as f64 / 1e6;
        report.row(&[
            "rows".into(),
            factor.to_string(),
            format!("{mb:.1}"),
            secs(total / queries.len() as f64),
        ]);
    }

    // Series B: more attributes (queries scale with the file, as in the
    // paper, so per-query work per byte stays comparable).
    for factor in [1, 2, 3, 4] {
        let cols = base_cols * factor;
        let (path, schema) = micro_file(base_rows, cols, None)?;
        let db = micro_engine(NoDbConfig::pm_only(), &path, &schema, AccessMode::InSitu);
        let queries = random_projections(cols, n_queries, 10 * factor, 13);
        let (_, total) = time(|| {
            for q in &queries {
                db.query(q).expect("query");
            }
        });
        let mb = std::fs::metadata(&path)?.len() as f64 / 1e6;
        report.row(&[
            "attributes".into(),
            factor.to_string(),
            format!("{mb:.1}"),
            secs(total / queries.len() as f64),
        ]);
    }
    report.finish()?;
    Ok(())
}

/// Figure 5: per-query response time over a sequence of random 5-attribute
/// projections for the four PostgresRaw variants. Expected shape: all
/// variants pay the same first query; PM+C drops fastest ("the second
/// query is 82–88 % faster than the first"); C-only fluctuates on misses;
/// Baseline stays flat.
pub fn fig5(scale: Scale, out: &Path) -> Result<()> {
    let (path, schema) = micro_file(scale.micro_rows(), scale.micro_cols(), None)?;
    let queries = random_projections(scale.micro_cols(), scale.sequence_len(), 5, 5);
    let variants: Vec<(&str, NoDbConfig, AccessMode)> = vec![
        (
            "baseline",
            NoDbConfig::baseline(),
            AccessMode::ExternalFiles,
        ),
        ("c", NoDbConfig::cache_only(), AccessMode::InSitu),
        ("pm", NoDbConfig::pm_only(), AccessMode::InSitu),
        ("pm_c", NoDbConfig::postgres_raw(), AccessMode::InSitu),
    ];
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for (i, (_, cfg, mode)) in variants.iter().enumerate() {
        let mut cfg = cfg.clone();
        cfg.enable_stats = false; // isolate map/cache effects, as §5.1.2
        let db = micro_engine(cfg, &path, &schema, *mode);
        for q in &queries {
            let (_, t) = time(|| db.query(q).expect("query"));
            series[i].push(t);
        }
    }
    let mut report = Report::new(
        "fig5",
        "per-query time by variant (random 5-attribute projections)",
        &["query", "baseline_s", "c_s", "pm_s", "pm_c_s"],
        out,
    );
    for qi in 0..queries.len() {
        report.row(&[
            (qi + 1).to_string(),
            secs(series[0][qi]),
            secs(series[1][qi]),
            secs(series[2][qi]),
            secs(series[3][qi]),
        ]);
    }
    report.finish()?;
    Ok(())
}

/// Figure 6: 5 epochs × queries confined to shifting column regions,
/// under a limited cache budget. Reports per-query time and cache
/// utilization, like the paper's dual-axis plot.
pub fn fig6(scale: Scale, out: &Path) -> Result<()> {
    let rows = scale.micro_rows();
    let cols = scale.micro_cols().max(135);
    let (path, schema) = micro_file(rows, cols, None)?;
    let per_epoch = scale.sequence_len();
    // Regions scaled from the paper's 150-column epochs.
    let f = cols as f64 / 150.0;
    let region =
        |a: f64, b: f64| ((a * f) as usize).min(cols - 1)..(((b * f) as usize).max(1)).min(cols);
    let epochs = [
        region(0.0, 50.0),
        region(50.0, 100.0),
        region(0.0, 100.0),
        region(75.0, 125.0),
        region(85.0, 135.0),
    ];
    // Budget ≈ two epochs' worth of columns (the paper's 2.8 GB vs 11 GB
    // file is a similar fraction).
    let col_bytes = rows * 5; // ints + bitmap overhead per column
    let mut cfg = NoDbConfig::postgres_raw();
    cfg.cache_budget = Some(ByteSize((col_bytes * cols / 2) as u64));
    cfg.enable_stats = false;
    let db = micro_engine(cfg, &path, &schema, AccessMode::InSitu);

    let mut report = Report::new(
        "fig6",
        "workload shift: per-query time and cache utilization",
        &["query", "epoch", "time_s", "cache_util_pct"],
        out,
    );
    let mut qi = 0;
    for (e, region) in epochs.iter().enumerate() {
        let queries = region_projections(region.clone(), per_epoch, 5, 100 + e as u64);
        for q in &queries {
            let (_, t) = time(|| db.query(q).expect("query"));
            qi += 1;
            let util = db.aux_info("t").expect("aux").cache_utilization * 100.0;
            report.row(&[
                qi.to_string(),
                (e + 1).to_string(),
                secs(t),
                format!("{util:.0}"),
            ]);
        }
    }
    report.finish()?;
    Ok(())
}
