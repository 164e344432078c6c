//! Volcano-style execution engine.
//!
//! PostgresRaw keeps its host's executor untouched — "each tuple is then
//! passed one-by-one through the operators of a query plan" (§3). This
//! crate is that executor: pull-based operators exchanging [`Row`]s, plus
//! the physical planner that lowers a [`nodb_sql::LogicalPlan`] onto
//! whatever leaf scans a [`TableProvider`] supplies.
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

pub use batch::{BatchQueue, ValueBatch, DEFAULT_BATCH_ROWS};
pub use build::{build_plan, ExecCatalog, TableProvider};
pub use eval::{eval, eval_batch, eval_predicate, eval_predicate_batch};
pub use ops::{BoxOp, DistinctOp, Operator, RowsOp};

use nodb_common::{Result, Row};

/// Drain an operator into a vector (convenience for tests and engines).
pub fn run_to_vec(mut op: BoxOp) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(r) = op.next_row()? {
        out.push(r);
    }
    Ok(out)
}

/// A lazy [`Iterator`] view over an operator tree: each `next` pulls
/// exactly one row through the Volcano pipeline, so consumers that stop
/// early (a `LIMIT`, a UI page, an abandoned cursor) never pay for rows
/// they do not read.
///
/// The cursor is *fused*: after the operator reports exhaustion or an
/// error, the tree is dropped eagerly (releasing scan readers, mappings
/// and staged state) and every later `next` returns `None`.
///
/// With [`RowCursor::with_batch`] the cursor instead pulls
/// [`ValueBatch`]es of up to `batch_rows` rows and hands them out row by
/// row, so the whole tree runs its vectorized path while the consumer
/// API stays the same. Early drops still release the tree without
/// pulling further batches.
pub struct RowCursor {
    op: Option<BoxOp>,
    batch_rows: usize,
    buf: std::vec::IntoIter<Row>,
}

impl RowCursor {
    /// Wrap an operator tree (row-at-a-time pulls).
    pub fn new(op: BoxOp) -> RowCursor {
        RowCursor {
            op: Some(op),
            batch_rows: 0,
            buf: Vec::new().into_iter(),
        }
    }

    /// Wrap an operator tree, pulling batches of up to `batch_rows` rows
    /// (0 falls back to row-at-a-time pulls).
    pub fn with_batch(op: BoxOp, batch_rows: usize) -> RowCursor {
        RowCursor {
            op: Some(op),
            batch_rows,
            buf: Vec::new().into_iter(),
        }
    }

    /// Has the underlying operator tree finished (or failed)?
    pub fn is_done(&self) -> bool {
        self.op.is_none() && self.buf.len() == 0
    }
}

impl Iterator for RowCursor {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Result<Row>> {
        if let Some(r) = self.buf.next() {
            return Some(Ok(r));
        }
        let op = self.op.as_mut()?;
        if self.batch_rows > 0 {
            match op.next_batch(self.batch_rows) {
                Ok(Some(b)) => {
                    self.buf = b.into_rows().into_iter();
                    // Batches are never empty by contract.
                    self.buf.next().map(Ok)
                }
                Ok(None) => {
                    self.op = None;
                    None
                }
                Err(e) => {
                    self.op = None;
                    Some(Err(e))
                }
            }
        } else {
            match op.next_row() {
                Ok(Some(r)) => Some(Ok(r)),
                Ok(None) => {
                    self.op = None;
                    None
                }
                Err(e) => {
                    self.op = None;
                    Some(Err(e))
                }
            }
        }
    }
}
