//! Benchmark harness for the NoDB reproduction.
//!
//! Every figure of the paper's evaluation (§5, Figures 3–13) has a
//! regeneration function in [`figures`]; the `figures` binary runs them
//! and writes one CSV per figure under `results/`, printing the same
//! series the paper plots. Absolute numbers differ from the paper's 2012
//! Sun server — the *shapes* (who wins, by what factor, where the curves
//! bend) are the reproduction target. A recorded run of every figure
//! against the paper's plots is still to be written (`EXPERIMENTS.md`,
//! ROADMAP item 10).
//!
//! ```text
//! cargo run --release -p nodb-bench --bin figures -- all
//! cargo run --release -p nodb-bench --bin figures -- fig5 --scale paper
//! ```

#![forbid(unsafe_code)]

pub mod data;
pub mod figures;
pub mod report;

use std::time::Instant;

/// Experiment scale presets. The paper's files are 11 GB+; these presets
/// keep laptop runtimes sane while preserving every effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per figure; CI runs `figures all --scale small` as a smoke
    /// test of every runner.
    Small,
    /// Default for the `figures` binary (a few minutes for the full set).
    Medium,
    /// Closer to the paper's workload sizes (long).
    Paper,
}

impl Scale {
    /// Rows in the 150-attribute micro-benchmark file.
    pub fn micro_rows(self) -> usize {
        match self {
            Scale::Small => 4_000,
            Scale::Medium => 40_000,
            Scale::Paper => 400_000,
        }
    }

    /// Columns in the micro-benchmark file (the paper uses 150).
    pub fn micro_cols(self) -> usize {
        match self {
            Scale::Small => 60,
            _ => 150,
        }
    }

    /// TPC-H scale factor.
    pub fn tpch_sf(self) -> f64 {
        match self {
            Scale::Small => 0.005,
            Scale::Medium => 0.05,
            Scale::Paper => 0.25,
        }
    }

    /// Rows in the FITS table (the paper uses ~4.3 M).
    pub fn fits_rows(self) -> usize {
        match self {
            Scale::Small => 50_000,
            Scale::Medium => 400_000,
            Scale::Paper => 4_300_000,
        }
    }

    /// Queries per sequence experiment (paper: 50).
    pub fn sequence_len(self) -> usize {
        match self {
            Scale::Small => 12,
            _ => 50,
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Wall-clock one closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}
