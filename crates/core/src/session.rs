//! The streaming session surface: prepared statements, parameter
//! binding and lazy query cursors.
//!
//! NoDB's defining workload is a *sequence* of queries over the same raw
//! file — the engine amortizes tokenizing and parsing work across
//! queries (§4–§5), so the API should amortize *preparation* work the
//! same way. [`NoDb::prepare`] lexes, parses and binds a statement once;
//! the returned [`Statement`] can then be executed any number of times
//! with different [`Params`], and each [`Statement::execute`] re-runs
//! only the cheap, stats-driven optimizer pass
//! ([`nodb_sql::refresh_stats`]) against the *current* adaptive
//! statistics — so a plan prepared against a cold table picks up the
//! statistics later queries collected, instead of going stale.
//!
//! Execution is lazy: [`Statement::execute`] returns a [`QueryCursor`],
//! an `Iterator<Item = Result<Row>>` that pulls one batch of rows at a
//! time through the operator tree and hands the rows out one by one. A
//! consumer that stops early — a `LIMIT`, a UI page, an abandoned cursor
//! — stops the underlying raw scan early too, and whatever auxiliary
//! structures the partial scan built (end-of-line index blocks,
//! positional-map chunks, cache columns) keep serving future queries.
//!
//! ```no_run
//! use nodb_core::{AccessMode, NoDb, NoDbConfig, Params};
//! use nodb_common::Schema;
//! use nodb_csv::CsvOptions;
//!
//! # fn main() -> nodb_common::Result<()> {
//! let mut db = NoDb::new(NoDbConfig::postgres_raw())?;
//! db.register_csv(
//!     "people",
//!     std::path::Path::new("people.csv"),
//!     Schema::parse("id int, name text, score double")?,
//!     CsvOptions::default(),
//!     AccessMode::InSitu,
//! )?;
//! // Prepared once: lex + parse + bind happen here, not per execution.
//! let stmt = db.prepare("select name, score from people where score > ?")?;
//! for threshold in [0.5, 0.8, 0.95] {
//!     // Each execution streams rows lazily from the raw file.
//!     for row in stmt.execute(&Params::new().bind(threshold))? {
//!         println!("{}", row?);
//!     }
//! }
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;
use std::time::Instant;

use nodb_common::{DataType, Date, NoDbError, Result, Row, Schema, Value};
use nodb_exec::{build_plan, BoxOp, DEFAULT_BATCH_ROWS};
use nodb_sql::binder::PlannerOptions;
use nodb_sql::{parser, refresh_stats, LogicalPlan};

use crate::profile::{self, PhaseProfileAtomic, QueryProfile};
use crate::{NoDb, QueryResult};

/// Positional parameter values for one execution of a [`Statement`].
///
/// Values bind in order: the first bound value fills `?`/`$1`, the
/// second `?`/`$2`, and so on. Anything with a `Into<Value>` conversion
/// binds directly (integers, floats, strings, booleans, dates,
/// `Option`s for NULL).
///
/// ```
/// use nodb_core::Params;
/// let p = Params::new().bind(42i64).bind("MAIL").bind(0.05);
/// assert_eq!(p.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Params {
    values: Vec<Value>,
}

impl Params {
    /// No parameters (for statements without placeholders).
    pub fn new() -> Params {
        Params::default()
    }

    /// Bind the next positional value (builder style).
    pub fn bind(mut self, v: impl Into<Value>) -> Params {
        self.values.push(v.into());
        self
    }

    /// Bind the next positional value (in-place).
    pub fn push(&mut self, v: impl Into<Value>) {
        self.values.push(v.into());
    }

    /// Number of bound values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Are no values bound?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The bound values, in binding order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

impl From<Vec<Value>> for Params {
    fn from(values: Vec<Value>) -> Params {
        Params { values }
    }
}

impl FromIterator<Value> for Params {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Params {
        Params {
            values: iter.into_iter().collect(),
        }
    }
}

/// A prepared statement: SQL that was lexed, parsed, bound and
/// optimized once, ready to execute repeatedly with different
/// parameters.
///
/// Created by [`NoDb::prepare`]. The statement borrows the engine, so
/// the catalog cannot change (no registrations or drops) while prepared
/// statements are alive — which is exactly what keeps the cached plan's
/// bindings valid.
///
/// What is fixed at prepare time: the parse tree, name resolution,
/// column layouts, pushed-down filters, join *order* and output schema.
/// What stays fresh at execute time: parameter values, row estimates
/// and the aggregation strategy, all recomputed from the engine's
/// current on-the-fly statistics by [`nodb_sql::refresh_stats`]. To
/// re-derive the join order from new statistics, prepare again —
/// preparation is cheap, that is the point.
///
/// ```no_run
/// # fn main() -> nodb_common::Result<()> {
/// # let db = nodb_core::NoDb::new(nodb_core::NoDbConfig::postgres_raw())?;
/// use nodb_core::Params;
/// let stmt = db.prepare("select count(*) from events where day = $1 and ms > $2")?;
/// assert_eq!(stmt.param_count(), 2);
/// // Re-executed with fresh parameters; never re-parsed or re-bound.
/// let monday = stmt.query(&Params::new().bind("2026-07-27").bind(250i64))?;
/// let tuesday = stmt.query(&Params::new().bind("2026-07-28").bind(250i64))?;
/// # let _ = (monday, tuesday);
/// # Ok(())
/// # }
/// ```
pub struct Statement<'db> {
    db: &'db NoDb,
    sql: String,
    plan: LogicalPlan,
    param_count: usize,
    param_types: Vec<Option<DataType>>,
}

impl NoDb {
    /// Prepare a SQL statement for repeated execution: lex, parse and
    /// bind now; substitute parameters and stream rows at each
    /// [`Statement::execute`].
    ///
    /// Placeholders are `?` (numbered in order of appearance) or `$N`
    /// (explicit, 1-based, reusable — `$1` may appear several times);
    /// the two styles cannot be mixed in one statement. Each parameter
    /// is typed at bind time from its surrounding context (a parameter
    /// compared against a `date` column expects a date, and will parse
    /// a text value like `'1994-01-01'` at execute time).
    pub fn prepare(&self, sql: &str) -> Result<Statement<'_>> {
        let stmt = parser::parse(sql)?;
        let param_count = stmt.param_count()?;
        let options = PlannerOptions {
            use_stats: self.config.enable_stats,
        };
        let mut plan = nodb_sql::binder::bind(&stmt, self, &options)?;
        let param_types = plan.param_types(param_count);
        Ok(Statement {
            db: self,
            sql: sql.to_string(),
            plan,
            param_count,
            param_types,
        })
    }

    /// Run a SQL query and stream the result: one-shot
    /// `prepare` + `execute`, returning the lazy [`QueryCursor`]
    /// instead of a materialized [`QueryResult`]. Rows are pulled from
    /// the raw file as the cursor is consumed, so dropping the cursor
    /// early (or putting a `LIMIT` on the query) stops the scan early —
    /// the engine never holds more than the pipeline's working set in
    /// memory, regardless of result size. Early termination is
    /// block-granular, on cold and warm reads alike.
    pub fn query_stream(&self, sql: &str) -> Result<QueryCursor> {
        self.prepare(sql)?.execute(&Params::new())
    }
}

impl Statement<'_> {
    /// The SQL text this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The statement's output schema (column names and inferred types).
    pub fn schema(&self) -> &Schema {
        self.plan.schema()
    }

    /// Number of parameter placeholders the statement declares.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Bind-time inferred parameter types, by slot (`None` when the
    /// statement gives a slot no usable type context).
    pub fn param_types(&self) -> &[Option<DataType>] {
        &self.param_types
    }

    /// Execute with the given parameters, returning a lazy cursor.
    ///
    /// No re-lex, re-parse or re-bind happens here: parameter values
    /// are checked against their bind-time types, substituted into the
    /// cached plan, and only the cheap stats-driven optimizer pass
    /// re-runs against the engine's current adaptive statistics (so
    /// e.g. the aggregation strategy flips from pessimistic sort to
    /// hash once the statistics a previous execution collected make the
    /// group count known — the plan never goes stale).
    pub fn execute(&self, params: &Params) -> Result<QueryCursor> {
        let plan = self.current_plan(params)?;
        // Per-query resource accounting: install this execution's
        // accumulator in the thread-local for the duration of plan
        // lowering — scan operators (constructed inside `build_plan`)
        // capture it and attribute their phase work to this query.
        let scan_profile = Arc::new(PhaseProfileAtomic::default());
        let _scope = profile::enter_query(Arc::clone(&scan_profile));
        let op = build_plan(&plan, self.db)?;
        Ok(QueryCursor::new(plan.schema().clone(), op, scan_profile))
    }

    /// Execute and materialize: `execute(params)` + [`QueryCursor::collect`].
    pub fn query(&self, params: &Params) -> Result<QueryResult> {
        self.execute(params)?.collect()
    }

    /// EXPLAIN this statement as it would run *now*: parameters
    /// substituted and estimates/strategies refreshed from current
    /// statistics, without executing anything. Returns the plan that
    /// would run; its `Display` is the EXPLAIN text.
    pub fn explain(&self, params: &Params) -> Result<LogicalPlan> {
        self.current_plan(params)
    }

    /// The plan one execution runs: the cached plan with `params`
    /// substituted first, so the refreshed estimates see concrete
    /// constants (value-aware selectivities), then refreshed from the
    /// current statistics (a no-op in the "w/o statistics" regime).
    fn current_plan(&self, params: &Params) -> Result<LogicalPlan> {
        let values = self.bind_values(params)?;
        let mut plan = self.plan.clone();
        plan.substitute_params(&values);
        refresh_stats(&mut plan, self.db, self.db.config.enable_stats);
        Ok(plan)
    }

    /// Validate count and types, returning the coerced values.
    fn bind_values(&self, params: &Params) -> Result<Vec<Value>> {
        if params.len() != self.param_count {
            return Err(NoDbError::plan(format!(
                "statement expects {} parameter(s), got {}",
                self.param_count,
                params.len()
            )));
        }
        params
            .values()
            .iter()
            .enumerate()
            .map(|(i, v)| coerce_param(i, v, self.param_types.get(i).copied().flatten()))
            .collect()
    }
}

/// Check an execute-time value against a bind-time parameter type,
/// coercing where the literal-SQL path would have produced a different
/// representation (text dates parse to [`Value::Date`], matching what
/// `date '…'` yields when the value is inlined).
fn coerce_param(idx: usize, v: &Value, want: Option<DataType>) -> Result<Value> {
    let Some(want) = want else {
        // No bind-time context: pass through as given.
        return Ok(v.clone());
    };
    if let (Value::Text(s), DataType::Date) = (v, want) {
        return Date::parse(s)
            .map(Value::Date)
            .map_err(|e| NoDbError::plan(format!("parameter ${}: {e}", idx + 1)));
    }
    let compatible = match (v, want) {
        (Value::Null, _) => true,
        // Numerics compare cross-width at eval time exactly like
        // inlined literals do; keep the given representation.
        (
            Value::Int32(_) | Value::Int64(_) | Value::Float64(_),
            DataType::Int32 | DataType::Int64 | DataType::Float64,
        ) => true,
        (Value::Text(_), DataType::Text) => true,
        (Value::Date(_), DataType::Date) => true,
        (Value::Bool(_), DataType::Bool) => true,
        _ => false,
    };
    if compatible {
        Ok(v.clone())
    } else {
        Err(NoDbError::plan(format!(
            "parameter ${}: expected {want}, got {}",
            idx + 1,
            v.data_type()
                .map_or_else(|| "null".to_string(), |t| t.to_string())
        )))
    }
}

/// A lazy stream of query results: `Iterator<Item = Result<Row>>` plus
/// the output schema.
///
/// Rows are pulled a batch at a time through the operator tree, which
/// pulls blocks from the raw file only as needed — stop consuming and the
/// scan stops too (verifiable through [`crate::ScanMetrics`]: a
/// `LIMIT 10` over a million-row file tokenizes a few blocks, not the
/// file). Auxiliary structures built by
/// the consumed prefix of the scan are kept and serve future queries.
///
/// The cursor owns its operator tree and keeps the table runtime alive
/// through shared handles, so it remains valid even if the table is
/// dropped from the catalog mid-stream. Exhaustion and errors fuse the
/// cursor (the tree is released eagerly; further `next` calls return
/// `None`).
///
/// ```no_run
/// # fn main() -> nodb_common::Result<()> {
/// # let db = nodb_core::NoDb::new(nodb_core::NoDbConfig::postgres_raw())?;
/// let mut cursor = db.query_stream("select user, ms from events where ms > 500")?;
/// println!("{}", cursor.columns().join(" | "));
/// for row in cursor.by_ref().take(10) {
///     println!("{}", row?);
/// }
/// drop(cursor); // stops the underlying raw-file scan early
/// # Ok(())
/// # }
/// ```
pub struct QueryCursor {
    schema: Schema,
    /// The operator tree, until it reports exhaustion or an error.
    op: Option<BoxOp>,
    /// Rows of the last pulled batch not yet handed out.
    buf: std::vec::IntoIter<Row>,
    /// Raw-scan phase accounting for this query (shared with the scan
    /// operators inside the tree).
    scan_profile: Arc<PhaseProfileAtomic>,
    /// Time inside the operator tree (see [`QueryProfile::exec_ns`]).
    exec_ns: u64,
    rows_returned: u64,
}

impl QueryCursor {
    pub(crate) fn new(
        schema: Schema,
        op: BoxOp,
        scan_profile: Arc<PhaseProfileAtomic>,
    ) -> QueryCursor {
        QueryCursor {
            schema,
            op: Some(op),
            buf: Vec::new().into_iter(),
            scan_profile,
            exec_ns: 0,
            rows_returned: 0,
        }
    }

    /// What this query has spent so far, phase by phase: the raw-scan
    /// work it drove (across every table it touched) plus the time spent
    /// in the operator tree and the rows returned. Valid at any point —
    /// mid-stream, after exhaustion, or on an abandoned cursor.
    pub fn profile(&self) -> QueryProfile {
        QueryProfile {
            scan: self.scan_profile.snapshot(),
            exec_ns: self.exec_ns,
            rows: self.rows_returned,
        }
    }

    /// Output schema (names from aliases, inferred types).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Output column names.
    pub fn columns(&self) -> Vec<&str> {
        self.schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Drain the cursor into a materialized [`QueryResult`] (the
    /// classic [`NoDb::query`] shape). Fails on the first row error.
    pub fn collect(self) -> Result<QueryResult> {
        Ok(self.collect_with_profile()?.0)
    }

    /// Drain the cursor like [`QueryCursor::collect`], additionally
    /// returning the query's final [`QueryProfile`] (which `collect`
    /// consumes along with the cursor).
    pub fn collect_with_profile(mut self) -> Result<(QueryResult, QueryProfile)> {
        let mut out = Vec::new();
        for r in self.by_ref() {
            out.push(r?);
        }
        let profile = self.profile();
        let QueryCursor { schema, .. } = self;
        Ok((QueryResult { schema, rows: out }, profile))
    }
}

impl Iterator for QueryCursor {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Result<Row>> {
        if self.buf.len() == 0 {
            // Only a batch pull reaches the operator tree, at most once
            // per batch: time each exactly and nothing else.
            let op = self.op.as_mut()?;
            let t = Instant::now();
            let pulled = op.next_batch(DEFAULT_BATCH_ROWS);
            self.exec_ns += t.elapsed().as_nanos() as u64;
            match pulled {
                Ok(Some(batch)) => self.buf = batch.into_rows().into_iter(),
                Ok(None) => {
                    self.op = None;
                    return None;
                }
                Err(e) => {
                    self.op = None;
                    return Some(Err(e));
                }
            }
        }
        let row = self.buf.next()?;
        self.rows_returned += 1;
        Some(Ok(row))
    }
}

impl std::fmt::Debug for QueryCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCursor")
            .field("schema", &self.schema)
            .field("done", &(self.op.is_none() && self.buf.len() == 0))
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Statement<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Statement")
            .field("sql", &self.sql)
            .field("param_count", &self.param_count)
            .finish_non_exhaustive()
    }
}
