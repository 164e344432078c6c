//! Logical query plans.

use std::fmt;

use nodb_common::{DataType, Schema, Value};

use crate::expr::{AggExpr, BoundExpr};

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner equi-join.
    Inner,
    /// Left semi-join (EXISTS).
    Semi,
    /// Left anti-join (NOT EXISTS).
    Anti,
}

/// Aggregation strategy, chosen by the optimizer from estimated group
/// counts — the mechanism behind the paper's Figure 12 (with statistics
/// the planner picks hash aggregation; without, it must assume many
/// groups and sort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    /// No GROUP BY: a single accumulator.
    Plain,
    /// Hash aggregation (few groups expected).
    Hash,
    /// Sort-based aggregation (group count unknown or huge).
    Sort,
}

/// One sort key over the input's output ordinals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column ordinal in the input schema.
    pub col: usize,
    /// Descending?
    pub desc: bool,
}

/// A logical plan node. Children are boxed; leaves are scans.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Leaf: scan of a registered table.
    ///
    /// `projection` lists the table-schema ordinals produced, in
    /// ascending file order (selective tuple formation starts here).
    /// `filters` are conjuncts over the *projected* ordinals, pushed down
    /// for selective parsing.
    Scan {
        /// Registered table name.
        table: String,
        /// Projected table-column ordinals (ascending).
        projection: Vec<usize>,
        /// Pushed-down conjuncts, bound to projection-space ordinals.
        filters: Vec<BoundExpr>,
        /// Output schema (the projected fields).
        schema: Schema,
        /// Estimated output rows (filled by the optimizer; used by tests
        /// and EXPLAIN output).
        estimated_rows: f64,
    },
    /// Residual filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema.
        predicate: BoundExpr,
    },
    /// Join of two inputs. Output layout = left columns ++ right columns
    /// (Inner); Semi/Anti output only left columns.
    Join {
        /// Build/left input.
        left: Box<LogicalPlan>,
        /// Probe/right input.
        right: Box<LogicalPlan>,
        /// Equi-join key pairs `(left ordinal, right ordinal)`.
        on: Vec<(usize, usize)>,
        /// Join kind.
        kind: JoinKind,
        /// Output schema.
        schema: Schema,
        /// Estimated output rows.
        estimated_rows: f64,
    },
    /// Aggregation. Output layout = group keys ++ aggregate results.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-key ordinals in the input schema.
        group: Vec<usize>,
        /// Aggregate calls (args bound to the input schema).
        aggs: Vec<AggExpr>,
        /// Execution strategy.
        strategy: AggStrategy,
        /// Output schema.
        schema: Schema,
    },
    /// Projection: compute expressions over the input.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions.
        exprs: Vec<BoundExpr>,
        /// Output schema (names from aliases).
        schema: Schema,
    },
    /// Sort by keys over the input's output ordinals.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows.
        n: u64,
    },
    /// Duplicate elimination over complete output rows (SELECT DISTINCT).
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema,
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Join { schema, .. } => schema,
            LogicalPlan::Aggregate { schema, .. } => schema,
            LogicalPlan::Project { schema, .. } => schema,
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// Call `f` on every expression this plan holds: scan filters,
    /// filter predicates, aggregate arguments and projections. The order
    /// is unspecified.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut BoundExpr)) {
        match self {
            LogicalPlan::Scan { filters, .. } => filters.iter_mut().for_each(f),
            LogicalPlan::Filter { input, predicate } => {
                f(predicate);
                input.for_each_expr_mut(f);
            }
            LogicalPlan::Join { left, right, .. } => {
                left.for_each_expr_mut(f);
                right.for_each_expr_mut(f);
            }
            LogicalPlan::Aggregate { input, aggs, .. } => {
                aggs.iter_mut()
                    .filter_map(|a| a.arg.as_mut())
                    .for_each(&mut *f);
                input.for_each_expr_mut(f);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                exprs.iter_mut().for_each(&mut *f);
                input.for_each_expr_mut(f);
            }
            LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.for_each_expr_mut(f),
        }
    }

    /// Replace every [`BoundExpr::Param`] with the corresponding
    /// constant from `params`: the execute-time half of a prepared
    /// statement. Structure, join order and schemas are untouched.
    pub fn substitute_params(&mut self, params: &[Value]) {
        self.for_each_expr_mut(&mut |e| e.substitute_params(params));
    }

    /// Bind-time inferred types of the plan's parameters, indexed by
    /// parameter slot (`None` = no context hint; execute-time values
    /// pass through unchecked). Every occurrence of a slot carries the
    /// binder's one type for it.
    pub fn param_types(&mut self, count: usize) -> Vec<Option<DataType>> {
        let mut out = vec![None; count];
        self.for_each_expr_mut(&mut |e| e.collect_param_types(&mut out));
        out
    }

    /// Multi-line indented EXPLAIN rendering: one line per operator,
    /// children indented two spaces under their parent. Same as
    /// `to_string()`.
    pub fn explain(&self) -> String {
        self.to_string()
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        write!(f, "{:1$}", "", 2 * depth)?;
        match self {
            LogicalPlan::Scan {
                table,
                projection,
                filters,
                estimated_rows,
                ..
            } => {
                write!(f, "Scan {table} proj={projection:?}")?;
                if !filters.is_empty() {
                    write!(f, " filters=[{}]", comma_separated(filters))?;
                }
                writeln!(f, " (~{estimated_rows:.0} rows)")
            }
            LogicalPlan::Filter { predicate, .. } => writeln!(f, "Filter {predicate}"),
            LogicalPlan::Join {
                on,
                kind,
                estimated_rows,
                ..
            } => writeln!(f, "{kind:?}Join on={on:?} (~{estimated_rows:.0} rows)"),
            LogicalPlan::Aggregate {
                group,
                aggs,
                strategy,
                ..
            } => writeln!(
                f,
                "{strategy:?}Aggregate group={group:?} aggs={}",
                aggs.len()
            ),
            LogicalPlan::Project { exprs, .. } => {
                writeln!(f, "Project [{}]", comma_separated(exprs))
            }
            LogicalPlan::Sort { keys, .. } => {
                let keys = keys.iter().map(|k| {
                    let desc = if k.desc { " desc" } else { "" };
                    format!("#{}{desc}", k.col)
                });
                writeln!(f, "Sort [{}]", comma_separated(keys))
            }
            LogicalPlan::Limit { n, .. } => writeln!(f, "Limit {n}"),
            LogicalPlan::Distinct { .. } => writeln!(f, "Distinct"),
        }?;
        match self {
            LogicalPlan::Scan { .. } => Ok(()),
            LogicalPlan::Join { left, right, .. } => {
                left.fmt_indented(f, depth + 1)?;
                right.fmt_indented(f, depth + 1)
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.fmt_indented(f, depth + 1),
        }
    }
}

fn comma_separated<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    items.join(", ")
}

impl fmt::Display for LogicalPlan {
    /// The EXPLAIN text of [`LogicalPlan::explain`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::{DataType, Value};

    #[test]
    fn explain_renders_tree() {
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            projection: vec![0, 2],
            filters: vec![BoundExpr::Binary {
                op: crate::expr::BinOp::Lt,
                left: Box::new(BoundExpr::Col(0)),
                right: Box::new(BoundExpr::Lit(Value::Int64(5))),
            }],
            schema: Schema::from_pairs(&[("a", DataType::Int32), ("c", DataType::Int32)]).unwrap(),
            estimated_rows: 42.0,
        };
        let plan = LogicalPlan::Limit {
            input: Box::new(scan),
            n: 10,
        };
        assert_eq!(
            plan.explain(),
            "Limit 10\n  Scan t proj=[0, 2] filters=[(#0 < 5)] (~42 rows)\n"
        );
        assert_eq!(plan.to_string(), plan.explain());
    }
}
