//! Every workload and metric name the harness prints, in the order of
//! `BENCHMARK.json`. A self-test holds the two lists equal, so a metric
//! cannot be renamed here without the contract file changing too.

/// The contract file, compiled in: `compare` reads the bounds from it and
/// the self-tests check the names against it.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const COLD: &str = "cold_first_query";
pub const ADAPTIVE: &str = "adaptive_sequence";
pub const ANALYTICS: &str = "warm_analytics";
pub const SERVER: &str = "server_mixed";
pub const CHURN: &str = "churn_sequence";

/// The five workloads, in the order `run --all` executes them.
pub const WORKLOADS: [&str; 5] = [COLD, ADAPTIVE, ANALYTICS, SERVER, CHURN];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Name, unit and direction of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Metrics of the untraced pass (`--trace 0`), reported by every workload.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    lower("op_ms_p50", "ms"),
    higher("ops_per_s", "1/s"),
    higher("raw_mb_per_s", "MB/s"),
    lower("peak_rss_mb", "MB"),
];

/// `setup_s` counts as regressed only when it also grew by this many
/// seconds: some workloads set up in ten milliseconds, and a quarter of
/// that is within the noise of a single page-cache read.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Metrics of the traced pass (`--trace 1`). Probes first, then the
/// counters of the named workload, then span-derived numbers.
pub const PER_LAYER: [MetricDef; 55] = [
    higher("common.io.read_mb_per_s", "MB/s"),
    higher("common.io.mmap_mb_per_s", "MB/s"),
    higher("csv.lines.split_mb_per_s", "MB/s"),
    higher("csv.tokenize.mb_per_s", "MB/s"),
    higher("csv.tokenize.fields_per_s", "1/s"),
    higher("json.tokenize.mb_per_s", "MB/s"),
    higher("common.value.parse_mfields_per_s", "Mfields/s"),
    lower("posmap.fetch_block_ns", "ns"),
    lower("cache.get_ns", "ns"),
    higher("server.protocol.encode_mb_per_s", "MB/s"),
    higher("server.protocol.decode_mb_per_s", "MB/s"),
    lower("core.scan.fields_tokenized", "count"),
    higher("core.scan.fields_via_map", "count"),
    higher("core.scan.fields_via_anchor", "count"),
    lower("core.scan.fields_parsed", "count"),
    higher("core.scan.fields_from_cache", "count"),
    lower("core.scan.bytes_tokenized", "bytes"),
    higher("core.scan.rows_rejected_early", "count"),
    higher("core.scan.map_hit_ratio", "ratio"),
    higher("core.scan.cache_hit_ratio", "ratio"),
    lower("core.scan.cold_ms", "ms"),
    lower("core.scan.warm_ms", "ms"),
    lower("core.scan.residual_share", "ratio"),
    higher("core.profile_coverage", "ratio"),
    lower("posmap.bytes", "bytes"),
    lower("posmap.pointers", "count"),
    lower("posmap.bytes_per_raw_byte", "ratio"),
    lower("cache.bytes", "bytes"),
    lower("cache.reparsed_fields", "count"),
    lower("sql.prepare_us_p50", "us"),
    lower("core.session.execute_us_p50", "us"),
    lower("exec.tpch_q1_ms", "ms"),
    lower("exec.tpch_q3_ms", "ms"),
    lower("exec.tpch_q4_ms", "ms"),
    lower("exec.tpch_q6_ms", "ms"),
    lower("exec.tpch_q10_ms", "ms"),
    lower("exec.tpch_q12_ms", "ms"),
    lower("exec.tpch_q14_ms", "ms"),
    lower("exec.tpch_q19_ms", "ms"),
    higher("exec.warm_rows_per_s", "1/s"),
    lower("server.rtt_us_p50", "us"),
    lower("server.first_frame_ms_p50", "ms"),
    lower("server.drain_ms_p50", "ms"),
    lower("server.wire_overhead_ratio", "ratio"),
    lower("server.op_ms_p99", "ms"),
    lower("server.op_ms_max", "ms"),
    higher("server.queries_executed", "count"),
    lower("server.queries_rejected", "count"),
    lower("storage.tpch_load_s", "s"),
    lower("storage.tpch_round_ms", "ms"),
    lower("core.warm_vs_loaded_ratio", "ratio"),
    lower("workload.op_ms_p95", "ms"),
    lower("harness.trace_overhead_share", "ratio"),
    lower("harness.datagen_s", "s"),
    lower("harness.oracle_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in &all {
            assert!(well_formed(name), "bad name `{name}`");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a name is used twice");
        assert!(!well_formed("has space") && !well_formed(".dot") && !well_formed(""));
    }

    #[test]
    fn names_units_and_directions_match_benchmark_json_exactly() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        match m.better {
                            Better::Higher => "higher",
                            Better::Lower => "lower",
                        }
                        .to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::Str("benchmark".to_string())]
        );
    }
}
