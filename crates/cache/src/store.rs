//! Cache directory, budget, and heat × cost eviction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nodb_common::{ByteSize, WorkloadLog};

use crate::column::CachedColumn;

/// Cache configuration.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Byte budget; `None` = unlimited ("the size of the cache is a
    /// parameter that can be tuned depending on the resources", §4.3).
    pub budget: Option<ByteSize>,
    /// Whether conversion cost weighs in eviction: 0 ranks victims by
    /// workload heat alone, any other value by heat × conversion cost.
    pub cost_weight: u64,
    /// Per-attribute access-frequency log. Budget evictions pick the
    /// victim by workload-heat × conversion-cost (coldest,
    /// cheapest-to-rebuild column first; recency breaks ties). `None`
    /// reads as a log with every attribute cold.
    pub workload: Option<Arc<WorkloadLog>>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            budget: None,
            cost_weight: 16,
            workload: None,
        }
    }
}

/// Observability counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found a column.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Columns inserted (not counting merges into existing entries).
    pub inserts: u64,
    /// Partial columns merged into existing entries.
    pub merges: u64,
    /// Columns evicted to honour the budget.
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry {
    col: Arc<CachedColumn>,
    /// LRU recency stamp. Atomic so read-locked (`&self`) lookups from
    /// concurrent warm scans still update recency.
    last_touch: AtomicU64,
}

/// Internal atomic counters behind [`CacheStats`], so that shared-lock
/// lookups can count hits/misses.
#[derive(Debug, Default)]
struct AtomicCacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    merges: AtomicU64,
    evictions: AtomicU64,
}

impl AtomicCacheStats {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The adaptive cache for one raw file: `(block, attr) → CachedColumn`.
#[derive(Debug)]
pub struct RawCache {
    cfg: CacheConfig,
    entries: HashMap<(u64, u32), Entry>,
    clock: AtomicU64,
    bytes: usize,
    stats: AtomicCacheStats,
}

impl RawCache {
    /// Create an empty cache.
    pub fn new(cfg: CacheConfig) -> RawCache {
        RawCache {
            cfg,
            entries: HashMap::new(),
            clock: AtomicU64::new(0),
            bytes: 0,
            stats: AtomicCacheStats::default(),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Fraction of the budget in use, in `[0, 1]` (1.0 when unlimited and
    /// non-empty would be meaningless, so unlimited reports 0 unless
    /// empty-aware callers handle it; Figure 6 always sets a budget).
    pub fn utilization(&self) -> f64 {
        match self.cfg.budget {
            Some(b) if b.bytes() > 0 => (self.bytes as f64 / b.bytes() as f64).min(1.0),
            _ => 0.0,
        }
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Number of cached columns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the cached column for `(block, attr)`, updating recency.
    /// Returns a cheap shared handle (scans hold it without copying the
    /// column data). Works through `&self` so concurrent warm scans can
    /// read the cache under a shared lock; recency stamps and counters
    /// are atomic.
    pub fn get_shared(&self, block: u64, attr: u32) -> Option<Arc<CachedColumn>> {
        let now = self.tick();
        match self.entries.get(&(block, attr)) {
            Some(e) => {
                e.last_touch.store(now, Ordering::Relaxed);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.col))
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Peek without touching recency or counters (for reporting).
    pub fn peek(&self, block: u64, attr: u32) -> Option<&CachedColumn> {
        self.entries.get(&(block, attr)).map(|e| e.col.as_ref())
    }

    /// Insert (or merge) a column produced by a scan, then enforce the
    /// budget.
    pub fn insert(&mut self, col: CachedColumn) {
        let now = self.tick();
        let key = (col.block, col.attr);
        match self.entries.get_mut(&key) {
            Some(existing) => {
                let before = existing.col.bytes();
                // Clone-on-write: cheap when no scan holds the column.
                Arc::make_mut(&mut existing.col).absorb(&col);
                existing.last_touch.store(now, Ordering::Relaxed);
                self.bytes = self.bytes - before + existing.col.bytes();
                self.stats.merges.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.bytes += col.bytes();
                self.entries.insert(
                    key,
                    Entry {
                        col: Arc::new(col),
                        last_touch: AtomicU64::new(now),
                    },
                );
                self.stats.inserts.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.enforce_budget(key);
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// Eviction priority of one entry: the *minimum* goes first.
    /// Workload-heat × conversion-cost (heat alone when `cost_weight` is
    /// 0), recency only breaking ties — a column the workload hammers
    /// survives a burst of one-off touches to cold columns. No workload
    /// log reads as an all-cold one: cost, then recency.
    fn eviction_priority(&self, e: &Entry) -> (u64, u64) {
        let heat = self.cfg.workload.as_ref().map_or(0, |w| w.heat(e.col.attr)) + 1;
        let primary = if self.cfg.cost_weight > 0 {
            heat.saturating_mul(e.col.dtype.conversion_cost() as u64)
        } else {
            heat
        };
        (primary, e.last_touch.load(Ordering::Relaxed))
    }

    fn remove_entry(&mut self, key: (u64, u32)) {
        if let Some(e) = self.entries.remove(&key) {
            self.bytes -= e.col.bytes();
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evict until within budget. The most recent insert (`protect`) is
    /// only evicted if it alone exceeds the budget — and in that case it
    /// is evicted *first*, before anything else: an impossible-to-fit
    /// column must not drain every other entry on its way out (it would
    /// wipe well-used columns and re-trigger on every later scan of the
    /// same column).
    fn enforce_budget(&mut self, protect: (u64, u32)) {
        let Some(budget) = self.cfg.budget else {
            return;
        };
        let budget = budget.bytes() as usize;
        if self.bytes <= budget {
            return;
        }
        if self
            .entries
            .get(&protect)
            .is_some_and(|e| e.col.bytes() > budget)
        {
            self.remove_entry(protect);
        }
        while self.bytes > budget && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| **k != protect)
                .min_by_key(|(_, e)| self.eviction_priority(e))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => self.remove_entry(k),
                None => break,
            }
        }
        if self.bytes > budget && self.entries.len() == 1 {
            // A single oversized survivor: honour the budget strictly.
            if let Some(k) = self.entries.keys().next().copied() {
                self.remove_entry(k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use nodb_common::{DataType, Value};

    fn full_col(block: u64, attr: u32, dtype: DataType, rows: usize) -> CachedColumn {
        let mut b = ColumnBuilder::new(block, attr, dtype, rows);
        for i in 0..rows {
            let v = match dtype {
                DataType::Int32 => Value::Int32(i as i32),
                DataType::Text => Value::Text(format!("v{i:04}")),
                DataType::Float64 => Value::Float64(i as f64),
                _ => Value::Int32(i as i32),
            };
            b.set(i, &v);
        }
        b.build()
    }

    #[test]
    fn get_after_insert_hits() {
        let mut c = RawCache::new(CacheConfig::default());
        c.insert(full_col(0, 5, DataType::Int32, 16));
        assert!(c.get_shared(0, 5).is_some());
        assert!(c.get_shared(0, 6).is_none());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn merge_fills_holes() {
        let mut c = RawCache::new(CacheConfig::default());
        let partial1 = {
            let mut b = ColumnBuilder::new(0, 1, DataType::Int32, 4);
            b.set(0, &Value::Int32(10));
            b.build()
        };
        let partial2 = {
            let mut b = ColumnBuilder::new(0, 1, DataType::Int32, 4);
            b.set(2, &Value::Int32(30));
            b.build()
        };
        c.insert(partial1);
        c.insert(partial2);
        assert_eq!(c.stats().merges, 1);
        let col = c.get_shared(0, 1).unwrap();
        assert_eq!(col.get(0), Some(Value::Int32(10)));
        assert_eq!(col.get(2), Some(Value::Int32(30)));
        assert_eq!(col.get(1), None);
    }

    #[test]
    fn budget_is_enforced_with_lru() {
        let one = full_col(0, 0, DataType::Int32, 256).bytes();
        let cfg = CacheConfig {
            budget: Some(ByteSize((one * 2 + one / 2) as u64)),
            cost_weight: 0, // plain LRU for determinism here
            workload: None,
        };
        let mut c = RawCache::new(cfg);
        c.insert(full_col(0, 0, DataType::Int32, 256));
        c.insert(full_col(1, 0, DataType::Int32, 256));
        let _ = c.get_shared(0, 0); // make block 1 the LRU
        c.insert(full_col(2, 0, DataType::Int32, 256));
        assert!(c.bytes() <= one * 2 + one / 2);
        assert!(c.peek(0, 0).is_some(), "recently used survives");
        assert!(c.peek(1, 0).is_none(), "LRU evicted");
        assert!(c.peek(2, 0).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn costly_types_outlive_cheap_ones() {
        // Float columns (cost 8) should outlive text columns (cost 1) at
        // equal recency.
        let fcol = full_col(0, 0, DataType::Float64, 128);
        let tcol = full_col(1, 1, DataType::Text, 128);
        let budget = fcol.bytes() + tcol.bytes() + 64;
        let cfg = CacheConfig {
            budget: Some(ByteSize(budget as u64)),
            cost_weight: 1000,
            workload: None,
        };
        let mut c = RawCache::new(cfg);
        c.insert(tcol);
        c.insert(fcol);
        // Insert another text column forcing one eviction.
        c.insert(full_col(2, 1, DataType::Text, 128));
        assert!(c.peek(0, 0).is_some(), "expensive float column survives");
        assert!(c.peek(1, 1).is_none(), "cheap text column evicted");
    }

    #[test]
    fn oversized_single_entry_is_rejected() {
        let col = full_col(0, 0, DataType::Int32, 1024);
        let cfg = CacheConfig {
            budget: Some(ByteSize((col.bytes() / 2) as u64)),
            cost_weight: 0,
            workload: None,
        };
        let mut c = RawCache::new(cfg);
        c.insert(col);
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn utilization_reflects_budget() {
        let col = full_col(0, 0, DataType::Int32, 256);
        let cfg = CacheConfig {
            budget: Some(ByteSize((col.bytes() * 2) as u64)),
            cost_weight: 0,
            workload: None,
        };
        let mut c = RawCache::new(cfg);
        assert_eq!(c.utilization(), 0.0);
        c.insert(col);
        assert!((c.utilization() - 0.5).abs() < 0.1);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = RawCache::new(CacheConfig::default());
        c.insert(full_col(0, 0, DataType::Int32, 16));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn oversized_insert_does_not_drain_the_cache() {
        // Regression: an insert larger than the whole budget used to
        // evict every *other* entry first, then drop itself — wiping the
        // cache and thrashing on every later scan of the same column.
        let small = full_col(0, 0, DataType::Int32, 64).bytes();
        let cfg = CacheConfig {
            budget: Some(ByteSize((small * 3) as u64)),
            cost_weight: 0,
            workload: None,
        };
        let mut c = RawCache::new(cfg);
        c.insert(full_col(0, 0, DataType::Int32, 64));
        c.insert(full_col(1, 0, DataType::Int32, 64));
        let bytes_before = c.bytes();
        c.insert(full_col(2, 1, DataType::Int32, 4096)); // > whole budget
        assert!(c.peek(0, 0).is_some(), "resident entries must survive");
        assert!(c.peek(1, 0).is_some(), "resident entries must survive");
        assert!(c.peek(2, 1).is_none(), "the oversized column is rejected");
        assert_eq!(c.bytes(), bytes_before);
        assert_eq!(c.stats().evictions, 1, "only the oversized entry goes");
        // And it thrashes nothing when it comes around again.
        c.insert(full_col(2, 1, DataType::Int32, 4096));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn workload_heat_overrides_recency() {
        // Attr 0 is hot (many scans), attr 1 cold (one). Under pure LRU
        // the *least recently touched* entry — the hot one below — would
        // be evicted; with the workload log the cold column goes instead.
        let log = Arc::new(WorkloadLog::new());
        for _ in 0..50 {
            log.record_touches(&[0]);
        }
        log.record_touches(&[1]);
        let one = full_col(0, 0, DataType::Int32, 256).bytes();
        let cfg = CacheConfig {
            budget: Some(ByteSize((one * 2 + one / 2) as u64)),
            cost_weight: 0,
            workload: Some(Arc::clone(&log)),
        };
        let mut c = RawCache::new(cfg);
        c.insert(full_col(0, 0, DataType::Int32, 256)); // hot attr
        c.insert(full_col(1, 1, DataType::Int32, 256)); // cold attr
        let _ = c.get_shared(1, 1); // cold is now the most recently used
        c.insert(full_col(2, 0, DataType::Int32, 256)); // forces one eviction
        assert!(c.peek(0, 0).is_some(), "hot column survives");
        assert!(
            c.peek(1, 1).is_none(),
            "cold column evicted despite recency"
        );
        assert!(c.peek(2, 0).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn heat_ties_break_by_recency() {
        // Equal heat (no touches at all) degrades to LRU order.
        let cfg = CacheConfig {
            budget: Some(ByteSize(
                (full_col(0, 0, DataType::Int32, 256).bytes() * 2) as u64,
            )),
            cost_weight: 0,
            workload: Some(Arc::new(WorkloadLog::new())),
        };
        let mut c = RawCache::new(cfg);
        c.insert(full_col(0, 0, DataType::Int32, 256));
        c.insert(full_col(1, 0, DataType::Int32, 256));
        let _ = c.get_shared(0, 0); // block 1 becomes LRU
        c.insert(full_col(2, 0, DataType::Int32, 256));
        assert!(c.peek(0, 0).is_some());
        assert!(c.peek(1, 0).is_none(), "LRU tie-break");
    }

    #[test]
    fn evictions_stay_consistent_under_concurrent_recency_stamps() {
        // Readers hammer get_shared (atomic recency stamps + hit/miss
        // counters under a shared lock) while a writer inserts past the
        // budget. The books must balance: every inserted entry is either
        // still resident or counted exactly once as an eviction.
        use std::sync::RwLock;
        let one = full_col(0, 0, DataType::Int32, 256).bytes();
        let cache = Arc::new(RwLock::new(RawCache::new(CacheConfig {
            budget: Some(ByteSize((one * 4) as u64)),
            cost_weight: 0,
            workload: None,
        })));
        const INSERTS: u64 = 64;
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let g = cache.read().unwrap();
                        let _ = g.get_shared((i + t) % INSERTS, 0);
                    }
                });
            }
            for b in 0..INSERTS {
                cache
                    .write()
                    .unwrap()
                    .insert(full_col(b, 0, DataType::Int32, 256));
            }
        });
        let g = cache.read().unwrap();
        let stats = g.stats();
        assert_eq!(stats.inserts, INSERTS);
        assert_eq!(stats.merges, 0);
        assert_eq!(
            stats.inserts,
            g.len() as u64 + stats.evictions,
            "inserted = resident + evicted"
        );
        assert!(g.bytes() <= one * 4);
    }
}
