//! Per-table runtime state: the auxiliary structures a raw file
//! accumulates across queries, plus observability counters.
//!
//! The runtime is *lock-split* so that `NoDb::query(&self)` is truly
//! concurrent: instead of one big mutex serializing every query on a
//! table, the positional map and the cache sit behind their own
//! reader-writer locks (warm scans read them under shared locks), the
//! statistics behind a small mutex, and the work counters in lock-free
//! atomics. Cold scans stage their work per chunk and merge it in short
//! write-locked critical sections.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use nodb_cache::{CacheConfig, RawCache};
use nodb_common::{Result, WorkloadLog};
use nodb_posmap::{PosMapConfig, PositionalMap};
use nodb_stats::TableStats;

use crate::config::NoDbConfig;
use crate::profile::PhaseProfileAtomic;

/// Cumulative work counters for one raw table. Benchmarks and tests use
/// these to verify *why* performance changes (e.g. the second query
/// tokenizes fewer fields), not just that it does.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanMetrics {
    /// Queries that scanned this table.
    pub scans: u64,
    /// Tuples emitted to query plans.
    pub rows_emitted: u64,
    /// Fields located by scanning characters (full or partial
    /// tokenization).
    pub fields_tokenized: u64,
    /// Fields located by jumping straight to a map position.
    pub fields_via_map: u64,
    /// Fields located by incremental parsing from a map anchor.
    pub fields_via_anchor: u64,
    /// Field values converted from ASCII to binary.
    pub fields_parsed: u64,
    /// Field values served from the binary cache.
    pub fields_from_cache: u64,
    /// Bytes of raw file consumed by sequential tokenization.
    pub bytes_tokenized: u64,
    /// Always 0; kept because `benchmark/` reads it.
    pub rows_rejected_early: u64,
    /// Always 0; kept because `benchmark/` reads it.
    pub fields_skipped_early: u64,
}

impl ScanMetrics {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &ScanMetrics) {
        self.scans += other.scans;
        self.rows_emitted += other.rows_emitted;
        self.fields_tokenized += other.fields_tokenized;
        self.fields_via_map += other.fields_via_map;
        self.fields_via_anchor += other.fields_via_anchor;
        self.fields_parsed += other.fields_parsed;
        self.fields_from_cache += other.fields_from_cache;
        self.bytes_tokenized += other.bytes_tokenized;
    }
}

/// Lock-free accumulator behind [`ScanMetrics`]: scans add their local
/// counters in one shot when a block completes, so the hot path
/// never takes a lock for bookkeeping.
#[derive(Debug, Default)]
pub struct ScanMetricsAtomic {
    scans: AtomicU64,
    rows_emitted: AtomicU64,
    fields_tokenized: AtomicU64,
    fields_via_map: AtomicU64,
    fields_via_anchor: AtomicU64,
    fields_parsed: AtomicU64,
    fields_from_cache: AtomicU64,
    bytes_tokenized: AtomicU64,
}

impl ScanMetricsAtomic {
    /// Add a batch of locally accumulated counters.
    pub fn add(&self, m: &ScanMetrics) {
        self.scans.fetch_add(m.scans, Ordering::Relaxed);
        self.rows_emitted
            .fetch_add(m.rows_emitted, Ordering::Relaxed);
        self.fields_tokenized
            .fetch_add(m.fields_tokenized, Ordering::Relaxed);
        self.fields_via_map
            .fetch_add(m.fields_via_map, Ordering::Relaxed);
        self.fields_via_anchor
            .fetch_add(m.fields_via_anchor, Ordering::Relaxed);
        self.fields_parsed
            .fetch_add(m.fields_parsed, Ordering::Relaxed);
        self.fields_from_cache
            .fetch_add(m.fields_from_cache, Ordering::Relaxed);
        self.bytes_tokenized
            .fetch_add(m.bytes_tokenized, Ordering::Relaxed);
    }

    /// Read the current totals.
    pub fn snapshot(&self) -> ScanMetrics {
        ScanMetrics {
            scans: self.scans.load(Ordering::Relaxed),
            rows_emitted: self.rows_emitted.load(Ordering::Relaxed),
            fields_tokenized: self.fields_tokenized.load(Ordering::Relaxed),
            fields_via_map: self.fields_via_map.load(Ordering::Relaxed),
            fields_via_anchor: self.fields_via_anchor.load(Ordering::Relaxed),
            fields_parsed: self.fields_parsed.load(Ordering::Relaxed),
            fields_from_cache: self.fields_from_cache.load(Ordering::Relaxed),
            bytes_tokenized: self.bytes_tokenized.load(Ordering::Relaxed),
            ..ScanMetrics::default()
        }
    }
}

/// The adaptive state of one in-situ table, shared by every concurrent
/// scan of the table.
pub struct RawTableRuntime {
    /// Positional map (also owns the end-of-line index, which the
    /// cache-only variant keeps). Warm scans read it under the shared
    /// lock; builders take short write sections to merge their blocks.
    pub posmap: RwLock<PositionalMap>,
    /// Binary cache, same locking discipline as the map.
    pub cache: RwLock<RawCache>,
    /// On-the-fly statistics (small, rarely contended).
    pub stats: Mutex<TableStats>,
    /// Work counters.
    pub metrics: ScanMetricsAtomic,
    /// Cumulative per-phase wall-clock and bytes for scans of this table
    /// (kept out of [`ScanMetrics`] so the latter stays deterministic).
    pub profile: PhaseProfileAtomic,
    /// Per-attribute access-frequency log; scans record touches here and
    /// the budgeted cache/posmap eviction policies consult it.
    pub workload: Arc<WorkloadLog>,
    /// File length when the auxiliary structures were last valid (append
    /// / in-place-edit detection, §4.5).
    file_len_seen: Mutex<u64>,
}

impl RawTableRuntime {
    /// Fresh runtime from the engine configuration.
    pub fn new(cfg: &NoDbConfig) -> RawTableRuntime {
        let workload = Arc::new(WorkloadLog::new());
        RawTableRuntime {
            posmap: RwLock::new(PositionalMap::new(PosMapConfig {
                block_rows: cfg.posmap_block_rows,
                budget: cfg.posmap_budget,
                spill_dir: cfg.posmap_spill_dir.clone(),
                workload: Some(Arc::clone(&workload)),
            })),
            cache: RwLock::new(RawCache::new(CacheConfig {
                budget: cfg.cache_budget,
                cost_weight: cfg.cache_cost_weight,
                workload: Some(Arc::clone(&workload)),
            })),
            stats: Mutex::new(TableStats::new()),
            metrics: ScanMetricsAtomic::default(),
            profile: PhaseProfileAtomic::default(),
            workload,
            file_len_seen: Mutex::new(0),
        }
    }

    /// React to the file's current length (§4.5): growth re-opens the
    /// end-of-line index for appends; shrinkage invalidates everything.
    pub fn observe_file_len(&self, len: u64) -> Result<()> {
        let mut seen = self.file_len_seen.lock();
        if len < *seen {
            // In-place modification: auxiliary structures are stale.
            self.posmap.write().clear();
            self.cache.write().clear();
            self.stats.lock().clear();
        } else if len > *seen {
            let mut pm = self.posmap.write();
            if pm.eol().is_complete() {
                pm.eol_mut().reopen_for_append();
            }
        }
        *seen = len;
        Ok(())
    }

    /// Drop every auxiliary structure (the map "may be dropped fully or
    /// partly at any time", §4.2). Counters survive.
    pub fn clear_aux(&self) {
        let mut seen = self.file_len_seen.lock();
        self.posmap.write().clear();
        self.cache.write().clear();
        self.stats.lock().clear();
        *seen = 0;
    }
}
