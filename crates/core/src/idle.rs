//! Idle-time exploitation (paper §7, "Auto Tuning Tools").
//!
//! "Auto tuning tools for NoDB systems, given a budget of idle time and
//! workload knowledge, have the opportunity to exploit idle time as best
//! as possible, loading and indexing as much of the relevant data as
//! possible. The rest of the data remains unloaded and unindexed until
//! relevant queries arrive."
//!
//! [`crate::NoDb::exploit_idle_time`] does exactly that: it advances a
//! background scan over a table block by block, populating the end-of-line
//! index, positional map, cache and statistics, and stops the moment the
//! time budget runs out. Progress is incremental — whatever was built
//! stays valid for future queries, and a later call resumes where useful.

use std::time::{Duration, Instant};

use nodb_exec::DEFAULT_BATCH_ROWS;

/// What an idle-time session accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleReport {
    /// Tuples whose auxiliary information was (re)visited.
    pub rows_processed: u64,
    /// Positional pointers added.
    pub pointers_added: u64,
    /// Cache bytes added.
    pub cache_bytes_added: usize,
    /// Whether the whole file was covered before the budget ran out.
    pub completed: bool,
    /// Time actually spent.
    pub elapsed: Duration,
}

/// Which attributes idle work should favour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleFocus {
    /// Attributes the workload has already touched (from collected
    /// statistics); falls back to `AllAttributes` when no workload
    /// knowledge exists yet. This is the paper's "workload knowledge"
    /// input.
    WorkloadAttributes,
    /// Index and cache every attribute.
    AllAttributes,
}

pub(crate) fn run_idle(
    db: &crate::NoDb,
    table: &str,
    budget: Duration,
    focus: IdleFocus,
) -> nodb_common::Result<IdleReport> {
    let start = Instant::now();
    let before = db.aux_info(table)?;
    let entry = db.entry(table)?;
    let provider = match entry.provider.as_ref() {
        Some(crate::Provider::InSitu(p)) if entry.mode == crate::AccessMode::InSitu => p,
        _ => {
            return Err(nodb_common::NoDbError::catalog(format!(
                "idle-time exploitation needs an in-situ raw table, `{table}` is not one"
            )))
        }
    };
    // Pick the projection.
    let attrs: Vec<usize> = match focus {
        IdleFocus::AllAttributes => (0..entry.schema.len()).collect(),
        IdleFocus::WorkloadAttributes => {
            let analyzed = entry
                .runtime
                .as_ref()
                .map(|rt| rt.stats.lock().analyzed_attrs())
                .unwrap_or_default();
            if analyzed.is_empty() {
                (0..entry.schema.len()).collect()
            } else {
                analyzed.into_iter().map(|a| a as usize).collect()
            }
        }
    };
    let mut scan = provider.scan_for_idle(&attrs)?;
    let mut rows = 0u64;
    let mut completed = true;
    // The scan works block-at-a-time internally; the deadline is checked
    // once per pulled batch. Structures built for finished blocks persist
    // even when we stop mid-file.
    while let Some(batch) = scan.next_batch(DEFAULT_BATCH_ROWS)? {
        rows += batch.num_rows() as u64;
        if start.elapsed() >= budget {
            completed = false;
            break;
        }
    }
    drop(scan);
    let after = db.aux_info(table)?;
    Ok(IdleReport {
        rows_processed: rows,
        pointers_added: after.posmap_pointers.saturating_sub(before.posmap_pointers),
        cache_bytes_added: after.cache_bytes.saturating_sub(before.cache_bytes),
        completed,
        elapsed: start.elapsed(),
    })
}
