//! Pull-based execution engine.
//!
//! PostgresRaw keeps its host's executor untouched — "each tuple is then
//! passed one-by-one through the operators of a query plan" (§3). This
//! crate plays that executor's part with one documented departure:
//! operators exchange column-major [`ValueBatch`]es through a single
//! method, [`Operator::next_batch`], instead of one tuple per call (see
//! [`ops`]). It also holds the physical planner that lowers a
//! [`nodb_sql::LogicalPlan`] onto whatever leaf scans a [`TableProvider`]
//! supplies.
//!
//! The same operator tree therefore runs over
//! * in-situ raw-file scans (PostgresRaw),
//! * straw-man external-file scans, and
//! * conventional heap-file scans,
//!
//! which is exactly the controlled comparison the paper's evaluation
//! depends on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod build;
pub mod eval;
pub mod key;
pub mod ops;

pub use batch::{BatchQueue, BatchView, ValueBatch, DEFAULT_BATCH_ROWS};
pub use build::{build_plan, ExecCatalog, TableProvider};
pub use eval::{all_lanes, eval_batch, eval_predicate_batch};
pub use ops::{BoxOp, DistinctOp, FilterOp, Operator};

use nodb_common::{Result, Row};

/// Drain an operator into a vector (convenience for tests and engines).
pub fn run_to_vec(mut op: BoxOp) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch(DEFAULT_BATCH_ROWS)? {
        out.extend(b.into_rows());
    }
    Ok(out)
}
