//! Ablations of the design choices DESIGN.md calls out. Not figures from
//! the paper — these quantify *why* the mechanisms are built the way they
//! are.

use std::path::Path;

use nodb_common::{ByteSize, Result};
use nodb_core::{AccessMode, NoDb, NoDbConfig};
use nodb_csv::CsvOptions;
use nodb_tpch::TpchGen;

use crate::data::{micro_file, tpch_dir};
use crate::figures::{micro_engine, random_projections};
use crate::report::{secs, Report};
use crate::{time, Scale};

/// Ablation 1: positional-map block size (the paper sizes chunks to "fit
/// comfortably in the CPU caches"). Sweeps block_rows and reports warm
/// query time — too small wastes directory overhead, too large wastes
/// memory traffic per access.
pub fn abl_block_size(scale: Scale, out: &Path) -> Result<()> {
    let (path, schema) = micro_file(scale.micro_rows(), scale.micro_cols(), None)?;
    let queries = random_projections(scale.micro_cols(), 10, 5, 77);
    let mut report = Report::new(
        "abl_block_size",
        "positional-map block size vs warm query time",
        &["block_rows", "avg_warm_s", "map_bytes"],
        out,
    );
    for block_rows in [256usize, 1024, 4096, 16384] {
        let mut cfg = NoDbConfig::pm_only();
        cfg.posmap_block_rows = block_rows;
        cfg.enable_stats = false;
        let db = micro_engine(cfg, &path, &schema, AccessMode::InSitu);
        for q in &queries {
            db.query(q).expect("warm");
        }
        let (_, total) = time(|| {
            for q in &queries {
                db.query(q).expect("query");
            }
        });
        let info = db.aux_info("t").expect("aux");
        report.row(&[
            block_rows.to_string(),
            secs(total / queries.len() as f64),
            info.posmap_bytes.to_string(),
        ]);
    }
    report.finish()?;
    Ok(())
}

/// Ablation 2: conversion-cost-aware cache eviction (§4.3: "the cache
/// always gives priority to attributes more costly to convert") vs
/// eviction by workload heat alone. Workload: touch expensive numeric
/// columns, flood the cache with cheap text columns, then re-touch the
/// numerics and count re-parses.
pub fn abl_eviction(scale: Scale, out: &Path) -> Result<()> {
    let dir = tpch_dir(scale.tpch_sf())?;
    let mut report = Report::new(
        "abl_eviction",
        "cache eviction policy: re-parse work after text flood",
        &["policy", "reparsed_fields", "requery_s"],
        out,
    );
    // Budget sized to hold the three numeric columns (~8 MB at SF 0.05)
    // plus part of one text column, so the text flood *must* evict
    // something. The engine ranks victims by workload heat; a cost
    // weight of 0 leaves conversion cost out, and any other value ranks
    // by heat × conversion cost (recency breaks ties either way).
    for (policy, cost_weight) in [("heat_only", 0u64), ("heat_x_cost", 16)] {
        let mut cfg = NoDbConfig::postgres_raw();
        cfg.enable_stats = false;
        cfg.cache_budget = Some(ByteSize::mb(12));
        cfg.cache_cost_weight = cost_weight;
        let mut db = NoDb::new(cfg).expect("engine");
        db.register_csv(
            "lineitem",
            &dir.join("lineitem.tbl"),
            TpchGen::schema("lineitem").expect("schema"),
            CsvOptions::pipe(),
            AccessMode::InSitu,
        )
        .expect("register");

        // 1. Touch the expensive numeric columns.
        db.query("select sum(l_extendedprice), sum(l_discount), sum(l_tax) from lineitem")
            .expect("numerics");
        // 2. Flood with cheap text columns.
        for col in ["l_comment", "l_shipinstruct", "l_shipmode", "l_returnflag"] {
            db.query(&format!("select max({col}) from lineitem"))
                .expect("texts");
        }
        // 3. Re-touch the numerics; count conversions forced by eviction.
        let before = db.metrics("lineitem").expect("m").fields_parsed;
        let (_, t) = time(|| {
            db.query("select sum(l_extendedprice), sum(l_discount), sum(l_tax) from lineitem")
                .expect("requery");
        });
        let reparsed = db.metrics("lineitem").expect("m").fields_parsed - before;
        report.row(&[policy.to_string(), reparsed.to_string(), secs(t)]);
    }
    report.finish()?;
    Ok(())
}

/// Ablation 3: incremental (anchored) parsing distance. After indexing a
/// prefix of attributes, querying an attribute `d` positions past the
/// anchor costs `O(d)` tokenization per tuple — the reason the map keeps
/// combinations the workload actually uses.
pub fn abl_anchor_distance(scale: Scale, out: &Path) -> Result<()> {
    let (path, schema) = micro_file(scale.micro_rows(), scale.micro_cols(), None)?;
    let anchor = 10usize;
    let mut report = Report::new(
        "abl_anchor_distance",
        "anchored navigation: query time vs distance from nearest indexed attribute",
        &["distance", "query_s", "fields_via_anchor"],
        out,
    );
    let max_d = scale.micro_cols() - anchor - 1;
    for d in [1usize, 4, 16, 48] {
        let d = d.min(max_d);
        let mut cfg = NoDbConfig::pm_only();
        cfg.enable_stats = false;
        let db = micro_engine(cfg, &path, &schema, AccessMode::InSitu);
        // Index the prefix 0..=anchor.
        db.query(&format!("select c{anchor} from t"))
            .expect("prefix");
        let (_, t) = time(|| {
            db.query(&format!("select c{} from t", anchor + d))
                .expect("anchored");
        });
        let m = db.metrics("t").expect("m");
        report.row(&[d.to_string(), secs(t), m.fields_via_anchor.to_string()]);
    }
    report.finish()?;
    Ok(())
}
