//! Per-phase resource accounting: where a query's time and bytes go.
//!
//! [`ScanMetrics`](crate::ScanMetrics) counts *work items* (fields
//! tokenized, values parsed) and must stay bit-identical across
//! equivalent configurations — the differential suites compare it with
//! `==`. Wall-clock is inherently nondeterministic, so phase timings
//! live here, in a separate accumulator: [`PhaseProfile`] (a plain
//! snapshot), [`PhaseProfileAtomic`] (the lock-free accumulator, one per
//! table runtime plus one per executing query), and [`QueryProfile`]
//! (what [`QueryCursor::profile`](crate::QueryCursor::profile) returns).
//!
//! Scans time each phase once per run of rows (up to a few hundred lines
//! formed together), so the clock costs nothing per row. Byte and value
//! counts are exact; the `_ns` fields are wall-clock.
//!
//! Per-query attribution works without threading a context through
//! every `TableProvider`: `Statement::execute` installs the query's
//! accumulator in a thread-local, scan operators capture it at
//! construction time (plans are built on the executing thread), and
//! each scan adds its phase deltas to both the table's cumulative
//! profile and the capturing query's.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-phase wall-clock and volume for raw-table work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Nanoseconds fetching raw bytes (cold line reads, map-covered
    /// range reads).
    pub io_ns: u64,
    /// Raw-file bytes fetched for rows the scan visited.
    pub io_bytes: u64,
    /// Nanoseconds locating fields by scanning characters.
    pub tokenize_ns: u64,
    /// Bytes consumed by tokenization (mirrors
    /// `ScanMetrics::bytes_tokenized` per query).
    pub tokenize_bytes: u64,
    /// Nanoseconds converting/serving field values (includes
    /// anchored re-tokenization on the warm path).
    pub parse_ns: u64,
    /// Field values converted from ASCII to binary.
    pub parse_values: u64,
}

impl PhaseProfile {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        *self == PhaseProfile::default()
    }
}

/// Lock-free accumulator behind [`PhaseProfile`], mirroring
/// [`ScanMetricsAtomic`](crate::ScanMetricsAtomic): scans add their
/// locally accumulated deltas in one shot per block or chunk.
#[derive(Debug, Default)]
pub struct PhaseProfileAtomic {
    io_ns: AtomicU64,
    io_bytes: AtomicU64,
    tokenize_ns: AtomicU64,
    tokenize_bytes: AtomicU64,
    parse_ns: AtomicU64,
    parse_values: AtomicU64,
}

impl PhaseProfileAtomic {
    /// Add a batch of locally accumulated phase deltas.
    pub fn add(&self, p: &PhaseProfile) {
        self.io_ns.fetch_add(p.io_ns, Ordering::Relaxed);
        self.io_bytes.fetch_add(p.io_bytes, Ordering::Relaxed);
        self.tokenize_ns.fetch_add(p.tokenize_ns, Ordering::Relaxed);
        self.tokenize_bytes
            .fetch_add(p.tokenize_bytes, Ordering::Relaxed);
        self.parse_ns.fetch_add(p.parse_ns, Ordering::Relaxed);
        self.parse_values
            .fetch_add(p.parse_values, Ordering::Relaxed);
    }

    /// Read the current totals.
    pub fn snapshot(&self) -> PhaseProfile {
        PhaseProfile {
            io_ns: self.io_ns.load(Ordering::Relaxed),
            io_bytes: self.io_bytes.load(Ordering::Relaxed),
            tokenize_ns: self.tokenize_ns.load(Ordering::Relaxed),
            tokenize_bytes: self.tokenize_bytes.load(Ordering::Relaxed),
            parse_ns: self.parse_ns.load(Ordering::Relaxed),
            parse_values: self.parse_values.load(Ordering::Relaxed),
        }
    }
}

/// What one query spent, phase by phase: the raw-scan phases it drove
/// (across every table it touched) plus cursor-level execution time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryProfile {
    /// Raw-scan phases attributed to this query.
    pub scan: PhaseProfile,
    /// Nanoseconds inside the operator tree (execution end to end,
    /// raw-scan phases included): every batch the cursor pulls is timed
    /// exactly; handing its rows out is not timed.
    pub exec_ns: u64,
    /// Rows the cursor has returned so far.
    pub rows: u64,
}

thread_local! {
    /// The accumulator of the query currently being *constructed* on
    /// this thread (see module docs).
    static CURRENT_QUERY: RefCell<Option<Arc<PhaseProfileAtomic>>> = const { RefCell::new(None) };
}

/// Install `profile` as the thread's current query accumulator for the
/// returned guard's lifetime. Nested scopes restore the outer value.
pub(crate) fn enter_query(profile: Arc<PhaseProfileAtomic>) -> QueryScope {
    let prev = CURRENT_QUERY.with(|c| c.borrow_mut().replace(profile));
    QueryScope { prev }
}

/// The accumulator installed by the innermost [`enter_query`] scope, if
/// any. Scan operators call this at construction time.
pub(crate) fn current_query() -> Option<Arc<PhaseProfileAtomic>> {
    CURRENT_QUERY.with(|c| c.borrow().clone())
}

/// Guard restoring the previous thread-local accumulator on drop.
pub(crate) struct QueryScope {
    prev: Option<Arc<PhaseProfileAtomic>>,
}

impl Drop for QueryScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT_QUERY.with(|c| *c.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_atomic_roundtrip() {
        let a = PhaseProfile {
            io_ns: 1,
            io_bytes: 2,
            tokenize_ns: 3,
            tokenize_bytes: 4,
            parse_ns: 5,
            parse_values: 6,
        };
        let at = PhaseProfileAtomic::default();
        for _ in 0..3 {
            at.add(&a);
        }
        let s = at.snapshot();
        assert_eq!(s.io_ns, 3);
        assert_eq!(s.tokenize_bytes, 12);
        assert!(!s.is_empty());
        assert!(PhaseProfile::default().is_empty());
    }

    #[test]
    fn query_scope_nests_and_restores() {
        assert!(current_query().is_none());
        let outer = Arc::new(PhaseProfileAtomic::default());
        let inner = Arc::new(PhaseProfileAtomic::default());
        {
            let _o = enter_query(Arc::clone(&outer));
            assert!(Arc::ptr_eq(&current_query().unwrap(), &outer));
            {
                let _i = enter_query(Arc::clone(&inner));
                assert!(Arc::ptr_eq(&current_query().unwrap(), &inner));
            }
            assert!(Arc::ptr_eq(&current_query().unwrap(), &outer));
        }
        assert!(current_query().is_none());
    }
}
