//! Engine configuration: the switches the paper's experiments toggle.

use std::path::PathBuf;

use nodb_common::{knob, ByteSize, IoBackend, Result};
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
    /// `None` (the default) never evicts. The `NODB_POSMAP_BUDGET`
    /// environment variable (a [`ByteSize`], e.g. `64MB`) overrides the
    /// constructor default; a malformed value is rejected at
    /// [`NoDb::new`](crate::NoDb::new) like any other knob's.
    pub posmap_budget: Option<ByteSize>,
    /// Byte budget for the cache. `None` (the default) never evicts.
    /// The `NODB_CACHE_BUDGET` environment variable overrides the
    /// constructor default, with the same loud-failure contract as
    /// `NODB_POSMAP_BUDGET`.
    pub cache_budget: Option<ByteSize>,
    /// How strongly conversion cost protects cache entries from eviction
    /// (LRU clock ticks per cost unit; 0 = plain LRU). §4.3: "the
    /// PostgresRaw cache always gives priority to attributes more costly
    /// to convert".
    pub cache_cost_weight: u64,
    /// Tuples per positional-map block.
    pub posmap_block_rows: usize,
    /// Profile for tables registered in [`AccessMode::Loaded`].
    pub loaded_profile: EngineProfile,
    /// Buffer-pool capacity (pages) for loaded tables.
    pub pool_pages: usize,
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
            posmap_budget: knob::POSMAP_BUDGET.env_default(),
            cache_budget: knob::CACHE_BUDGET.env_default(),
            cache_cost_weight: 16,
            posmap_block_rows: 4096,
            loaded_profile: EngineProfile::PostgresLike,
            pool_pages: 4096,
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

impl NoDbConfig {
    /// Set one field from a [`knob`] registry entry by
    /// its canonical name (the CLI flag minus the dashes), parsing and
    /// validating `raw` through the same routine the environment variable
    /// uses. Binaries drive their generated flag tables through this, so
    /// a new knob needs exactly one `match` arm here to reach every
    /// surface.
    pub fn set_knob(&mut self, name: &str, raw: &str) -> Result<()> {
        match name {
            "posmap-budget" => self.posmap_budget = Some(knob::POSMAP_BUDGET.parse(raw)?),
            "cache-budget" => self.cache_budget = Some(knob::CACHE_BUDGET.parse(raw)?),
            other => {
                return Err(nodb_common::NoDbError::config(format!(
                    "unknown knob `{other}`"
                )))
            }
        }
        Ok(())
    }

    /// Usage lines for every registered knob (`--flag VALUE  help`),
    /// aligned for a `--help` screen. Both binaries print this, so the
    /// docs can never drift from the parsers.
    pub fn knob_help() -> String {
        let width = knob::all()
            .into_iter()
            .map(|k| k.flag.len() + 1 + k.value_hint.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for k in knob::all() {
            let head = format!("{} {}", k.flag, k.value_hint);
            out.push_str(&format!(
                "  {head:<width$}   {help} [env: {env}]\n",
                help = k.help,
                env = k.env
            ));
        }
        out
    }
}

/// The positional-map budget requested by the `NODB_POSMAP_BUDGET`
/// environment variable, or `None` when unset/empty. Delegates to
/// [`knob::POSMAP_BUDGET`] (`512`, `64kb`, `14.3MB`, ...). A malformed
/// or non-UTF-8 value is an error so a typo cannot silently leave the
/// map unbudgeted — engine construction (`NoDb::new`) surfaces it
/// through [`knob::validate_env`]. The configuration *default* swallows
/// the error and falls back to no budget so a malformed value cannot
/// panic inside `Default`; the loud failure happens at construction.
pub fn posmap_budget_from_env() -> Result<Option<ByteSize>> {
    knob::POSMAP_BUDGET.from_env()
}

/// The cache budget requested by the `NODB_CACHE_BUDGET` environment
/// variable, or `None` when unset/empty. Same contract as
/// [`posmap_budget_from_env`].
pub fn cache_budget_from_env() -> Result<Option<ByteSize>> {
    knob::CACHE_BUDGET.from_env()
}

/// How a registered table is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// PostgresRaw in-situ access with this engine's auxiliary
    /// structures.
    InSitu,
    /// Straw-man external files: every query re-tokenizes the whole raw
    /// file; nothing is remembered between queries (MySQL CSV engine /
    /// "DBMS X with external files").
    ExternalFiles,
    /// Conventional loaded table: must be loaded before querying
    /// ([`crate::NoDb::load_table`]); queries then read binary heap
    /// pages.
    Loaded,
}
