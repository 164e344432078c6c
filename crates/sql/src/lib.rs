//! SQL front-end: lexing, parsing, binding and optimization.
//!
//! PostgresRaw reuses its host's SQL stack unchanged — "the remaining
//! query plan, generated by the optimizer, works without changes compared
//! to a conventional DBMS" (§4.1). This crate is that stack for the
//! reproduction: a hand-written recursive-descent parser for the SQL
//! subset the paper's evaluation needs (all eight TPC-H queries plus the
//! micro-benchmarks) and a binder that decides the whole
//! [`plan::LogicalPlan`] in one pass. While binding it
//!
//! * pushes each single-table predicate, as written, into its scan
//!   (enabling *selective parsing/tokenizing* at the leaf),
//! * projects each scan to the columns the query still needs (enabling
//!   *selective tuple formation*),
//! * factors common equi-join conjuncts out of `OR` disjunctions (TPC-H
//!   Q19),
//! * plans correlated `EXISTS` as semi-joins (Q4),
//! * orders joins greedily by estimated cardinality and picks hash-build
//!   sides **using on-the-fly statistics when available** — the Figure 12
//!   mechanism — and
//! * chooses hash vs. sort aggregation from estimated group counts.
//!
//! [`refresh_stats`] re-derives the statistics-driven choices of a bound
//! plan at every execution of a prepared statement; it is the only pass
//! over a plan after binding.
//!
//! Each tree has one generic walk, and only the passes that give a node
//! its own meaning match on every variant: binding, display, typing and
//! evaluation. [`ast::AstExpr::try_for_each_child`] visits a parse
//! tree's children, [`ast::SelectStmt::exprs`] a statement's clauses,
//! `BoundExpr`'s `visit`/`visit_mut` a bound expression, and
//! [`LogicalPlan::for_each_expr_mut`] the expressions a plan holds. The
//! EXPLAIN text is `LogicalPlan`'s `Display`: there is no second plan
//! tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod binder;
pub mod expr;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;

pub use binder::{CatalogView, PlannerOptions};
pub use expr::{AggFunc, BinOp, BoundExpr, UnOp};
pub use optimizer::refresh_stats;
pub use plan::{AggStrategy, JoinKind, LogicalPlan, SortKey};

use nodb_common::Result;

/// Parse and bind a SQL query against `catalog`.
pub fn plan_query(
    sql: &str,
    catalog: &dyn CatalogView,
    options: &PlannerOptions,
) -> Result<LogicalPlan> {
    binder::bind(&parser::parse(sql)?, catalog, options)
}
