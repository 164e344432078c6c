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

    /// Deep-copy this plan with every [`BoundExpr::Param`] replaced by
    /// the corresponding constant from `params` — the execute-time half
    /// of a prepared statement. Structure, join order and schemas are
    /// untouched; only expressions change.
    pub fn substitute_params(&self, params: &[Value]) -> LogicalPlan {
        let sub = |e: &BoundExpr| e.substitute_params(params);
        match self {
            LogicalPlan::Scan {
                table,
                projection,
                filters,
                schema,
                estimated_rows,
            } => LogicalPlan::Scan {
                table: table.clone(),
                projection: projection.clone(),
                filters: filters.iter().map(sub).collect(),
                schema: schema.clone(),
                estimated_rows: *estimated_rows,
            },
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: Box::new(input.substitute_params(params)),
                predicate: sub(predicate),
            },
            LogicalPlan::Join {
                left,
                right,
                on,
                kind,
                schema,
                estimated_rows,
            } => LogicalPlan::Join {
                left: Box::new(left.substitute_params(params)),
                right: Box::new(right.substitute_params(params)),
                on: on.clone(),
                kind: *kind,
                schema: schema.clone(),
                estimated_rows: *estimated_rows,
            },
            LogicalPlan::Aggregate {
                input,
                group,
                aggs,
                strategy,
                schema,
            } => LogicalPlan::Aggregate {
                input: Box::new(input.substitute_params(params)),
                group: group.clone(),
                aggs: aggs
                    .iter()
                    .map(|a| AggExpr {
                        func: a.func,
                        arg: a.arg.as_ref().map(sub),
                    })
                    .collect(),
                strategy: *strategy,
                schema: schema.clone(),
            },
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => LogicalPlan::Project {
                input: Box::new(input.substitute_params(params)),
                exprs: exprs.iter().map(sub).collect(),
                schema: schema.clone(),
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: Box::new(input.substitute_params(params)),
                keys: keys.clone(),
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: Box::new(input.substitute_params(params)),
                n: *n,
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(input.substitute_params(params)),
            },
        }
    }

    /// Bind-time inferred types of the statement's parameters, indexed
    /// by parameter slot (`None` = no context hint; execute-time values
    /// pass through unchecked).
    pub fn param_types(&self, count: usize) -> Vec<Option<DataType>> {
        let mut out = vec![None; count];
        self.collect_param_types(&mut out);
        out
    }

    fn collect_param_types(&self, out: &mut [Option<DataType>]) {
        match self {
            LogicalPlan::Scan { filters, .. } => {
                for f in filters {
                    f.collect_param_types(out);
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                predicate.collect_param_types(out);
                input.collect_param_types(out);
            }
            LogicalPlan::Join { left, right, .. } => {
                left.collect_param_types(out);
                right.collect_param_types(out);
            }
            LogicalPlan::Aggregate { input, aggs, .. } => {
                for a in aggs {
                    if let Some(arg) = &a.arg {
                        arg.collect_param_types(out);
                    }
                }
                input.collect_param_types(out);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                for e in exprs {
                    e.collect_param_types(out);
                }
                input.collect_param_types(out);
            }
            LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.collect_param_types(out),
        }
    }

    /// Multi-line indented EXPLAIN-style rendering
    /// ([`ExplainPlan::render`](crate::ExplainPlan::render)).
    pub fn explain(&self) -> String {
        crate::explain::ExplainPlan::from_plan(self).render()
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
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
