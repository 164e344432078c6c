//! Engine configuration: the switches the paper's experiments toggle.

use std::path::PathBuf;

use nodb_common::{ByteSize, IoBackend};
use nodb_storage::EngineProfile;

/// Which auxiliary structures an in-situ table maintains. The paper's
/// §5.1.2 variants map directly:
///
/// * `PM+C`  — [`NoDbConfig::postgres_raw`] (everything on)
/// * `PM`    — cache disabled
/// * `C`     — positional map disabled (end-of-line index only)
/// * `Baseline` — register the table with [`AccessMode::ExternalFiles`]
///
/// How operators run is not configured here: a query's cursor pulls
/// column-major batches of [`nodb_exec::DEFAULT_BATCH_ROWS`] rows, and
/// operators that drain their input take each batch their input forms
/// whole (see [`nodb_exec::ops`]).
#[derive(Debug, Clone)]
pub struct NoDbConfig {
    /// Maintain the adaptive positional map (§4.2).
    pub enable_posmap: bool,
    /// Maintain the binary cache (§4.3).
    pub enable_cache: bool,
    /// Collect statistics on the fly and let the planner use them (§4.4).
    pub enable_stats: bool,
    /// Storage threshold for the positional map (attribute chunks).
    /// `None` (the default) never evicts.
    pub posmap_budget: Option<ByteSize>,
    /// Byte budget for the cache. `None` (the default) never evicts.
    pub cache_budget: Option<ByteSize>,
    /// Whether conversion cost weighs in cache eviction: 0 ranks victims
    /// by workload heat alone, any other value by heat × conversion cost
    /// (recency breaks ties either way). §4.3: "the PostgresRaw cache
    /// always gives priority to attributes more costly to convert".
    pub cache_cost_weight: u64,
    /// Tuples per positional-map block.
    pub posmap_block_rows: usize,
    /// Profile for tables registered in [`AccessMode::Loaded`].
    pub loaded_profile: EngineProfile,
    /// Directory for loaded-mode heap files. `None` = a self-cleaning
    /// temporary directory.
    pub data_dir: Option<PathBuf>,
}

impl Default for NoDbConfig {
    fn default() -> Self {
        Self::postgres_raw()
    }
}

impl NoDbConfig {
    /// Full PostgresRaw: positional map + cache + statistics.
    pub fn postgres_raw() -> NoDbConfig {
        NoDbConfig {
            enable_posmap: true,
            enable_cache: true,
            enable_stats: true,
            posmap_budget: None,
            cache_budget: None,
            cache_cost_weight: 16,
            posmap_block_rows: 4096,
            loaded_profile: EngineProfile::PostgresLike,
            data_dir: None,
        }
    }

    /// The paper's "PostgresRaw PM" variant: map only.
    pub fn pm_only() -> NoDbConfig {
        NoDbConfig {
            enable_cache: false,
            ..Self::postgres_raw()
        }
    }

    /// The paper's "PostgresRaw C" variant: cache plus the minimal
    /// end-of-line index.
    pub fn cache_only() -> NoDbConfig {
        NoDbConfig {
            enable_posmap: false,
            ..Self::postgres_raw()
        }
    }

    /// How scans read the raw file: always positioned reads
    /// ([`IoBackend::Read`]); no configuration changes it. Kept for the
    /// benchmark's run fingerprint, which records it.
    pub fn effective_io_backend(&self) -> IoBackend {
        IoBackend::Read
    }

    /// Straw-man in-situ processing: no auxiliary structures at all.
    pub fn baseline() -> NoDbConfig {
        NoDbConfig {
            enable_posmap: false,
            enable_cache: false,
            enable_stats: false,
            ..Self::postgres_raw()
        }
    }
}

/// How a registered table is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// PostgresRaw in-situ access with this engine's auxiliary
    /// structures.
    InSitu,
    /// Straw-man external files: every query re-tokenizes the whole raw
    /// file; nothing is remembered between queries (MySQL CSV engine /
    /// "DBMS X with external files"). It is an in-situ table with every
    /// auxiliary structure off, so [`crate::NoDb::metrics`] still counts
    /// its work.
    ExternalFiles,
    /// Conventional loaded table: must be loaded before querying
    /// ([`crate::NoDb::load_table`]); queries then read binary heap
    /// pages.
    Loaded,
}
