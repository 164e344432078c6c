//! **nodb-core** — the PostgresRaw engine: query raw data files in situ,
//! with adaptive positional maps, result caching and on-the-fly
//! statistics, or fall back to the paper's baselines (external files /
//! conventional loading) for comparison.
//!
//! ```no_run
//! use nodb_core::{AccessMode, NoDb, NoDbConfig, Params};
//! use nodb_common::Schema;
//! use nodb_csv::CsvOptions;
//!
//! let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
//! let schema = Schema::parse("id int, name text, score double").unwrap();
//! db.register_csv(
//!     "people",
//!     std::path::Path::new("people.csv"),
//!     schema,
//!     CsvOptions::default(),
//!     AccessMode::InSitu,
//! )
//! .unwrap();
//! // No loading step: the first query touches the raw file directly.
//! let result = db.query("select name, score from people where score > 0.5").unwrap();
//! for row in &result.rows {
//!     println!("{row}");
//! }
//! // Repeated queries amortize preparation through the session API
//! // ([`NoDb::prepare`] / [`Statement`]) and can stream rows lazily
//! // ([`NoDb::query_stream`] / [`QueryCursor`]) instead of
//! // materializing whole result sets — see [`session`].
//! let stmt = db.prepare("select name from people where score > ?").unwrap();
//! for threshold in [0.5, 0.9] {
//!     for row in stmt.execute(&Params::new().bind(threshold)).unwrap() {
//!         println!("{}", row.unwrap());
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod idle;
pub mod profile;
pub mod runtime;
pub mod scan;
pub mod session;

pub use config::{AccessMode, NoDbConfig};
pub use idle::{IdleFocus, IdleReport};
pub use nodb_sql::explain::{ExplainNode, ExplainPlan};
pub use profile::{PhaseProfile, PhaseProfileAtomic, QueryProfile};
pub use runtime::{RawTableRuntime, ScanMetrics, ScanMetricsAtomic};
pub use scan::{AuxFlags, InSituScanOp};
pub use session::{Params, QueryCursor, Statement};

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nodb_common::{LineFormat, NoDbError, Result, Row, Schema, TempDir, Value};
use nodb_csv::lines::LineReader;
use nodb_csv::{tokenize, CsvFormat, CsvOptions};
use nodb_exec::{BoxOp, ExecCatalog, TableProvider};
use nodb_json::JsonFormat;
use nodb_sql::binder::{CatalogView, PlannerOptions};
use nodb_sql::{plan_query, BoundExpr, LogicalPlan};
use nodb_stats::{StatsBuilder, TableStats};
use nodb_storage::{LoadReport, LoadedTable, StorageEngine};

/// A query result: column names plus rows.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema (names from aliases, inferred types).
    pub schema: Schema,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Column names.
    pub fn columns(&self) -> Vec<&str> {
        self.schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect()
    }
}

/// Snapshot of a table's auxiliary-structure footprint (for experiments).
#[derive(Debug, Clone, Copy)]
pub struct AuxInfo {
    /// Positional-map bytes in memory (attribute chunks).
    pub posmap_bytes: usize,
    /// Total positional pointers held (incl. the end-of-line index).
    pub posmap_pointers: u64,
    /// Cache bytes in memory.
    pub cache_bytes: usize,
    /// Cache utilization in `[0, 1]` (0 when no budget set).
    pub cache_utilization: f64,
    /// Number of attributes with collected statistics.
    pub stats_attrs: usize,
}

pub(crate) enum Provider {
    InSitu(InSituProvider),
    External(ExternalProvider),
    Loaded(Arc<LoadedTable>),
    Custom(Box<dyn TableProvider>),
}

/// Which raw-file format a registered table uses (drives the Loaded-mode
/// bulk path, which is still CSV-specific).
pub(crate) enum RawFormat {
    Csv(CsvOptions),
    Jsonl,
    /// Externally implemented provider; no raw format of ours.
    Custom,
}

pub(crate) struct TableEntry {
    pub(crate) schema: Schema,
    pub(crate) provider: Option<Provider>,
    pub(crate) runtime: Option<Arc<RawTableRuntime>>,
    path: Option<PathBuf>,
    raw: RawFormat,
    mode: AccessMode,
    loaded_stats: Option<TableStats>,
}

/// The NoDB engine.
pub struct NoDb {
    config: NoDbConfig,
    tables: HashMap<String, TableEntry>,
    storage: Option<StorageEngine>,
    _tmp: Option<TempDir>,
    data_dir: PathBuf,
}

impl NoDb {
    /// Create an engine.
    ///
    /// Rejects a malformed value in any registered knob's environment
    /// variable (`NODB_SCAN_THREADS`, `NODB_POSMAP_BUDGET`,
    /// `NODB_CACHE_BUDGET` — see [`nodb_common::knob`]) with
    /// [`NoDbError::Config`]: config construction silently falls back to
    /// its defaults (it must stay infallible), so the typo is surfaced
    /// here, on the normal error path, before any query can run under the
    /// wrong thread count or budget.
    pub fn new(config: NoDbConfig) -> Result<NoDb> {
        nodb_common::knob::validate_env()?;
        let (tmp, data_dir) = match &config.data_dir {
            Some(d) => {
                std::fs::create_dir_all(d)?;
                (None, d.clone())
            }
            None => {
                let t = TempDir::new("nodb-data")?;
                let p = t.path().to_path_buf();
                (Some(t), p)
            }
        };
        Ok(NoDb {
            config,
            tables: HashMap::new(),
            storage: None,
            _tmp: tmp,
            data_dir,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &NoDbConfig {
        &self.config
    }

    /// Register a raw CSV file as a table. For [`AccessMode::Loaded`] the
    /// table must be loaded with [`NoDb::load_table`] before it can be
    /// queried — that is precisely the cost the other modes avoid.
    pub fn register_csv(
        &mut self,
        name: &str,
        path: &Path,
        schema: Schema,
        opts: CsvOptions,
        mode: AccessMode,
    ) -> Result<()> {
        self.register_raw(
            name,
            path,
            schema,
            Arc::new(CsvFormat::new(opts)),
            opts.has_header,
            RawFormat::Csv(opts),
            mode,
        )
    }

    /// Register a raw JSON Lines file (one JSON object per line) as a
    /// table. The schema's field names are the top-level keys pulled from
    /// each object; missing keys and JSON `null`s read as SQL NULL, and
    /// values coerce to the declared types exactly like CSV fields (see
    /// [`nodb_common::format`]). The same adaptive machinery CSV tables
    /// get — end-of-line index, positional map, cache, statistics,
    /// parallel chunked cold scans — applies unchanged.
    ///
    /// [`AccessMode::Loaded`] is not supported for JSONL (the bulk loader
    /// is CSV-specific); use `InSitu` — skipping the load is the point.
    pub fn register_jsonl(
        &mut self,
        name: &str,
        path: &Path,
        schema: Schema,
        mode: AccessMode,
    ) -> Result<()> {
        if mode == AccessMode::Loaded {
            return Err(NoDbError::catalog(
                "JSONL tables cannot be registered as Loaded; use InSitu (no loading step) \
                 or ExternalFiles",
            ));
        }
        let format = Arc::new(JsonFormat::from_schema(&schema));
        self.register_raw(name, path, schema, format, false, RawFormat::Jsonl, mode)
    }

    /// Shared registration path for line-oriented raw formats.
    #[allow(clippy::too_many_arguments)]
    fn register_raw(
        &mut self,
        name: &str,
        path: &Path,
        schema: Schema,
        format: Arc<dyn LineFormat>,
        has_header: bool,
        raw: RawFormat,
        mode: AccessMode,
    ) -> Result<()> {
        let name = name.to_ascii_lowercase();
        self.ensure_table_absent(&name)?;
        let entry = match mode {
            AccessMode::InSitu => {
                let runtime = Arc::new(RawTableRuntime::new(&self.config));
                let provider = InSituProvider {
                    runtime: Arc::clone(&runtime),
                    path: path.to_path_buf(),
                    schema: schema.clone(),
                    format,
                    has_header,
                    flags: AuxFlags {
                        posmap: self.config.enable_posmap,
                        cache: self.config.enable_cache,
                        eol: self.config.enable_posmap || self.config.enable_cache,
                        stats: self.config.enable_stats,
                    },
                    stride: self.config.stats_sample_stride,
                    threads: self.config.effective_scan_threads(),
                };
                TableEntry {
                    schema,
                    provider: Some(Provider::InSitu(provider)),
                    runtime: Some(runtime),
                    path: Some(path.to_path_buf()),
                    raw,
                    mode,
                    loaded_stats: None,
                }
            }
            AccessMode::ExternalFiles => TableEntry {
                schema: schema.clone(),
                provider: Some(Provider::External(ExternalProvider {
                    path: path.to_path_buf(),
                    schema,
                    format,
                    has_header,
                })),
                runtime: None,
                path: Some(path.to_path_buf()),
                raw,
                mode,
                loaded_stats: None,
            },
            AccessMode::Loaded => TableEntry {
                schema,
                provider: None,
                runtime: None,
                path: Some(path.to_path_buf()),
                raw,
                mode,
                loaded_stats: None,
            },
        };
        self.tables.insert(name, entry);
        Ok(())
    }

    /// Shared duplicate-name check for every registration path (`name`
    /// must already be lowercased).
    fn ensure_table_absent(&self, name: &str) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(NoDbError::catalog(format!("table `{name}` already exists")));
        }
        Ok(())
    }

    /// Drop a registered table: the inverse of registration.
    ///
    /// The catalog entry is removed and the table's runtime state is
    /// released — auxiliary structures (end-of-line index, positional
    /// map, cache, statistics) are cleared immediately, and loaded-mode
    /// heap storage is deleted. Queries already streaming from the
    /// table ([`NoDb::query_stream`]) keep their own shared handles and
    /// finish normally; the name becomes free for re-registration right
    /// away.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let name = name.to_ascii_lowercase();
        let entry = self
            .tables
            .remove(&name)
            .ok_or_else(|| NoDbError::catalog(format!("unknown table `{name}`")))?;
        // Free the aux memory now rather than when the last in-flight
        // scan drops its Arc (drop_aux mid-scan is already supported;
        // the scan continues privately from its own offset).
        if let Some(rt) = &entry.runtime {
            rt.clear_aux();
        }
        if matches!(entry.provider, Some(Provider::Loaded(_))) {
            if let Some(storage) = &mut self.storage {
                storage.drop_table(&name)?;
            }
        }
        Ok(())
    }

    /// Register an externally implemented table provider (format
    /// plugins — e.g. the FITS provider from `nodb-fits`).
    pub fn register_provider(
        &mut self,
        name: &str,
        schema: Schema,
        provider: Box<dyn TableProvider>,
    ) -> Result<()> {
        let name = name.to_ascii_lowercase();
        self.ensure_table_absent(&name)?;
        self.tables.insert(
            name,
            TableEntry {
                schema,
                provider: Some(Provider::Custom(provider)),
                runtime: None,
                path: None,
                raw: RawFormat::Custom,
                mode: AccessMode::InSitu,
                loaded_stats: None,
            },
        );
        Ok(())
    }

    /// Perform the up-front load of a [`AccessMode::Loaded`] table
    /// (parse + convert + write binary pages + analyze), returning the
    /// cost report. This is the "Load" bar in the paper's figures.
    pub fn load_table(&mut self, name: &str) -> Result<LoadReport> {
        let name = name.to_ascii_lowercase();
        let entry = self
            .tables
            .get(&name)
            .ok_or_else(|| NoDbError::catalog(format!("unknown table `{name}`")))?;
        if entry.mode != AccessMode::Loaded {
            return Err(NoDbError::catalog(format!(
                "table `{name}` is not registered as Loaded"
            )));
        }
        let path = entry
            .path
            .clone()
            .ok_or_else(|| NoDbError::internal("loaded table without a path"))?;
        let schema = entry.schema.clone();
        let RawFormat::Csv(opts) = entry.raw else {
            return Err(NoDbError::catalog(format!(
                "table `{name}` is not a CSV table; only CSV supports bulk loading"
            )));
        };
        if self.storage.is_none() {
            self.storage = Some(StorageEngine::new(
                &self.data_dir.join("heap"),
                self.config.loaded_profile,
                self.config.pool_pages,
            )?);
        }
        let storage = self.storage.as_mut().expect("created above");
        let report = storage.load_csv(&name, &path, &schema, opts)?;
        let loaded = storage.table(&name)?;
        // Post-load ANALYZE (conventional engines collect statistics after
        // loading; giving the baseline good plans keeps the comparison
        // honest).
        let stats = analyze_csv(&path, &schema, opts, self.config.stats_sample_stride)?;
        let entry = self.tables.get_mut(&name).expect("checked above");
        entry.provider = Some(Provider::Loaded(loaded));
        entry.loaded_stats = Some(stats);
        Ok(report)
    }

    /// Run a SQL query and materialize the full result.
    ///
    /// This is the one-shot convenience over the session API:
    /// `prepare(sql)` + `execute` + `collect`. Use [`NoDb::prepare`] to
    /// amortize preparation across repeated executions (with `?`/`$N`
    /// parameters), or [`NoDb::query_stream`] to consume rows lazily
    /// without materializing the result set.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.prepare(sql)?.execute(&Params::new())?.collect()
    }

    /// Plan a query without executing it: parse and bind, with the
    /// estimates of bind time (no execute-time refresh).
    pub fn plan(&self, sql: &str) -> Result<LogicalPlan> {
        let options = PlannerOptions {
            use_stats: self.config.enable_stats,
        };
        plan_query(sql, self, &options)
    }

    /// EXPLAIN as a typed plan tree ([`ExplainPlan`]): structured nodes
    /// carrying the scan projections, pushed-down filters and estimated
    /// cardinalities. `render()` on the result reproduces
    /// [`NoDb::explain`]'s text exactly.
    pub fn explain_plan(&self, sql: &str) -> Result<ExplainPlan> {
        Ok(ExplainPlan::from_plan(&self.plan(sql)?))
    }

    /// EXPLAIN-style plan rendering (use [`NoDb::explain_plan`] for the
    /// structured form).
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(self.plan(sql)?.explain())
    }

    /// Cumulative scan metrics for an in-situ table.
    pub fn metrics(&self, table: &str) -> Result<ScanMetrics> {
        let entry = self.entry(table)?;
        match &entry.runtime {
            Some(rt) => Ok(rt.metrics.snapshot()),
            None => Err(NoDbError::catalog(format!(
                "table `{table}` has no in-situ runtime"
            ))),
        }
    }

    /// Cumulative per-phase resource profile for an in-situ table
    /// (sampled wall-clock estimates plus exact byte/value volumes; see
    /// [`PhaseProfile`]).
    pub fn profile(&self, table: &str) -> Result<PhaseProfile> {
        let entry = self.entry(table)?;
        match &entry.runtime {
            Some(rt) => Ok(rt.profile.snapshot()),
            None => Err(NoDbError::catalog(format!(
                "table `{table}` has no in-situ runtime"
            ))),
        }
    }

    /// Per-attribute workload heat for an in-situ table: the decayed
    /// access-frequency counters the budgeted cache/posmap eviction
    /// policies consult, indexed by table attribute ordinal (attributes
    /// never touched may be absent from the tail).
    pub fn workload_heats(&self, table: &str) -> Result<Vec<u64>> {
        let entry = self.entry(table)?;
        match &entry.runtime {
            Some(rt) => Ok(rt.workload.heats()),
            None => Err(NoDbError::catalog(format!(
                "table `{table}` has no in-situ runtime"
            ))),
        }
    }

    /// Auxiliary-structure footprint for an in-situ table.
    pub fn aux_info(&self, table: &str) -> Result<AuxInfo> {
        let entry = self.entry(table)?;
        match &entry.runtime {
            Some(rt) => {
                let (posmap_bytes, posmap_pointers) = {
                    let pm = rt.posmap.read();
                    (pm.bytes_in_memory(), pm.pointer_count())
                };
                let (cache_bytes, cache_utilization) = {
                    let c = rt.cache.read();
                    (c.bytes(), c.utilization())
                };
                Ok(AuxInfo {
                    posmap_bytes,
                    posmap_pointers,
                    cache_bytes,
                    cache_utilization,
                    stats_attrs: rt.stats.lock().analyzed_attrs().len(),
                })
            }
            None => Err(NoDbError::catalog(format!(
                "table `{table}` has no in-situ runtime"
            ))),
        }
    }

    /// Drop a table's auxiliary structures (the map is "an auxiliary
    /// structure and may be dropped fully or partly at any time", §4.2).
    pub fn drop_aux(&self, table: &str) -> Result<()> {
        let entry = self.entry(table)?;
        if let Some(rt) = &entry.runtime {
            rt.clear_aux();
        }
        Ok(())
    }

    /// Drop the loaded engine's buffer pool (cold-cache runs).
    pub fn clear_buffers(&self) {
        if let Some(s) = &self.storage {
            s.clear_buffers();
        }
    }

    /// Spend up to `budget` of idle time pre-building the table's
    /// auxiliary structures (paper §7, "Auto Tuning Tools"): the
    /// end-of-line index, positional map, cache and statistics advance
    /// block by block and whatever is finished when the budget expires
    /// keeps serving future queries.
    pub fn exploit_idle_time(
        &self,
        table: &str,
        budget: std::time::Duration,
        focus: IdleFocus,
    ) -> Result<IdleReport> {
        idle::run_idle(self, table, budget, focus)
    }

    pub(crate) fn entry(&self, table: &str) -> Result<&TableEntry> {
        self.tables
            .get(&table.to_ascii_lowercase())
            .ok_or_else(|| NoDbError::catalog(format!("unknown table `{table}`")))
    }
}

impl CatalogView for NoDb {
    fn schema_of(&self, table: &str) -> Result<Schema> {
        Ok(self.entry(table)?.schema.clone())
    }

    fn stats_of(&self, table: &str) -> Option<TableStats> {
        let entry = self.entry(table).ok()?;
        if let Some(stats) = &entry.loaded_stats {
            return Some(stats.clone());
        }
        let rt = entry.runtime.as_ref()?;
        let stats = rt.stats.lock();
        if stats.row_count().is_none() && stats.analyzed_attrs().is_empty() {
            None
        } else {
            Some(stats.clone())
        }
    }
}

impl ExecCatalog for NoDb {
    fn provider(&self, table: &str) -> Result<&dyn TableProvider> {
        let entry = self.entry(table)?;
        match &entry.provider {
            Some(Provider::InSitu(p)) => Ok(p),
            Some(Provider::External(p)) => Ok(p),
            Some(Provider::Loaded(p)) => Ok(p.as_ref()),
            Some(Provider::Custom(p)) => Ok(p.as_ref()),
            None => Err(NoDbError::catalog(format!(
                "table `{table}` is registered as Loaded but has not been loaded \
                 (call load_table first — or register it InSitu and skip loading entirely)"
            ))),
        }
    }
}

pub(crate) struct InSituProvider {
    runtime: Arc<RawTableRuntime>,
    path: PathBuf,
    schema: Schema,
    format: Arc<dyn LineFormat>,
    has_header: bool,
    flags: AuxFlags,
    stride: u64,
    /// Cold-scan worker threads, already resolved from the config
    /// (`0`-means-auto handled by `NoDbConfig::effective_scan_threads`).
    threads: usize,
}

impl InSituProvider {
    fn make_scan(&self, projection: Vec<usize>, filters: Vec<BoundExpr>, threads: usize) -> BoxOp {
        Box::new(InSituScanOp::new(
            Arc::clone(&self.runtime),
            self.path.clone(),
            self.schema.clone(),
            Arc::clone(&self.format),
            self.has_header,
            projection,
            filters,
            self.flags,
            self.stride,
            threads,
        ))
    }

    /// A projection-only scan used by idle-time exploitation: same flags
    /// as query scans (so it builds the same structures), no filters.
    /// Always single-threaded so idle budgets keep their block-at-a-time
    /// granularity (a parallel pass would overshoot the budget by a whole
    /// file).
    pub(crate) fn scan_for_idle(&self, attrs: &[usize]) -> Result<BoxOp> {
        let mut attrs = attrs.to_vec();
        attrs.sort_unstable();
        attrs.dedup();
        Ok(self.make_scan(attrs, Vec::new(), 1))
    }
}

impl TableProvider for InSituProvider {
    fn scan(&self, projection: &[usize], filters: &[BoundExpr]) -> Result<BoxOp> {
        Ok(self.make_scan(projection.to_vec(), filters.to_vec(), self.threads))
    }
}

/// Straw-man external files: a fresh scan with no auxiliary structures;
/// nothing learned, nothing remembered ("every query needs to perform
/// loading from scratch", §3.1).
struct ExternalProvider {
    path: PathBuf,
    schema: Schema,
    format: Arc<dyn LineFormat>,
    has_header: bool,
}

impl TableProvider for ExternalProvider {
    fn scan(&self, projection: &[usize], filters: &[BoundExpr]) -> Result<BoxOp> {
        let throwaway = Arc::new(RawTableRuntime::new(&NoDbConfig::baseline()));
        Ok(Box::new(InSituScanOp::new(
            throwaway,
            self.path.clone(),
            self.schema.clone(),
            Arc::clone(&self.format),
            self.has_header,
            projection.to_vec(),
            filters.to_vec(),
            AuxFlags {
                posmap: false,
                cache: false,
                eol: false,
                stats: false,
            },
            u64::MAX,
            1,
        )))
    }
}

/// Post-load statistics pass (ANALYZE): parse every `stride`-th row and
/// build per-column statistics.
fn analyze_csv(path: &Path, schema: &Schema, opts: CsvOptions, stride: u64) -> Result<TableStats> {
    let stride = stride.max(1);
    let mut reader = LineReader::open(path)?;
    let mut line = Vec::new();
    let mut starts: Vec<u32> = Vec::new();
    let mut builders: Vec<StatsBuilder> = schema
        .fields()
        .iter()
        .map(|f| StatsBuilder::new(f.dtype))
        .collect();
    let mut row_id: u64 = 0;
    let mut skipped_header = !opts.has_header;
    while reader.next_line(&mut line)?.is_some() {
        if !skipped_header {
            skipped_header = true;
            continue;
        }
        if row_id.is_multiple_of(stride) {
            starts.clear();
            tokenize::tokenize_all(&line, opts.delimiter, &mut starts);
            for (i, f) in schema.fields().iter().enumerate() {
                if let Some(&s) = starts.get(i) {
                    let bytes = tokenize::field_at(&line, opts.delimiter, s);
                    if let Ok(v) = Value::parse_field(bytes, f.dtype) {
                        builders[i].offer(&v);
                    }
                }
            }
        }
        row_id += 1;
    }
    let mut stats = TableStats::new();
    stats.set_row_count(row_id);
    for (i, b) in builders.into_iter().enumerate() {
        if b.offered() > 0 {
            stats.set_column(i as u32, b.finalize(Some(row_id as f64)));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests;
