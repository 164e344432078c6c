//! Typed EXPLAIN output.
//!
//! [`ExplainPlan`] is a structured mirror of a bound
//! [`LogicalPlan`]: one node per plan operator carrying its estimates,
//! pushed-down predicates and shape. Tests assert on the tree; humans
//! get the indented text via [`ExplainPlan::render`] / `Display`, which
//! is also what `LogicalPlan::explain` prints — there is one renderer.

use std::fmt;
use std::fmt::Write as _;

use crate::plan::LogicalPlan;

/// A full EXPLAIN result: the operator tree of one bound plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainPlan {
    /// Root of the operator tree.
    pub root: ExplainNode,
}

/// One operator in an [`ExplainPlan`]. Expressions are carried in their
/// display form (`(#0 < 5)`); structure — children, ordinals, row
/// estimates, strategies — is typed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplainNode {
    /// In-situ scan leaf.
    Scan {
        /// Table name.
        table: String,
        /// Raw-file attribute ordinals the scan parses.
        projection: Vec<usize>,
        /// Pushed-down predicates, evaluated during the scan.
        pushed_filters: Vec<String>,
        /// Estimated output rows (stats-driven when available).
        estimated_rows: f64,
    },
    /// Residual row filter.
    Filter {
        /// The predicate, in display form.
        predicate: String,
        /// Input operator.
        child: Box<ExplainNode>,
    },
    /// Hash join.
    Join {
        /// `"Inner"`, `"Semi"` or `"Anti"`.
        kind: String,
        /// Equi-join column pairs (left ordinal, right ordinal).
        on: Vec<(usize, usize)>,
        /// Estimated output rows.
        estimated_rows: f64,
        /// Build/probe inputs.
        left: Box<ExplainNode>,
        /// Right input.
        right: Box<ExplainNode>,
    },
    /// Aggregation.
    Aggregate {
        /// `"Plain"`, `"Hash"` or `"Sort"` — the Figure 12 choice.
        strategy: String,
        /// Group-key input ordinals.
        group: Vec<usize>,
        /// Number of aggregate expressions.
        aggs: usize,
        /// Input operator.
        child: Box<ExplainNode>,
    },
    /// Expression projection.
    Project {
        /// Output expressions, in display form.
        exprs: Vec<String>,
        /// Input operator.
        child: Box<ExplainNode>,
    },
    /// Sort.
    Sort {
        /// `(column, descending)` sort keys.
        keys: Vec<(usize, bool)>,
        /// Input operator.
        child: Box<ExplainNode>,
    },
    /// Row-count limit.
    Limit {
        /// Maximum rows.
        n: u64,
        /// Input operator.
        child: Box<ExplainNode>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input operator.
        child: Box<ExplainNode>,
    },
}

impl ExplainPlan {
    /// Build the typed tree for `plan`.
    pub fn from_plan(plan: &LogicalPlan) -> ExplainPlan {
        ExplainPlan {
            root: ExplainNode::from_plan(plan),
        }
    }

    /// The classic indented text rendering (one line per operator,
    /// children indented two spaces under their parent).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.fmt_indent(&mut out, 0);
        out
    }
}

impl fmt::Display for ExplainPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl ExplainNode {
    /// Build one node (and its subtree) from a plan operator.
    pub fn from_plan(plan: &LogicalPlan) -> ExplainNode {
        match plan {
            LogicalPlan::Scan {
                table,
                projection,
                filters,
                estimated_rows,
                ..
            } => ExplainNode::Scan {
                table: table.clone(),
                projection: projection.clone(),
                pushed_filters: filters.iter().map(|f| f.to_string()).collect(),
                estimated_rows: *estimated_rows,
            },
            LogicalPlan::Filter { input, predicate } => ExplainNode::Filter {
                predicate: predicate.to_string(),
                child: Box::new(ExplainNode::from_plan(input)),
            },
            LogicalPlan::Join {
                left,
                right,
                on,
                kind,
                estimated_rows,
                ..
            } => ExplainNode::Join {
                kind: format!("{kind:?}"),
                on: on.clone(),
                estimated_rows: *estimated_rows,
                left: Box::new(ExplainNode::from_plan(left)),
                right: Box::new(ExplainNode::from_plan(right)),
            },
            LogicalPlan::Aggregate {
                input,
                group,
                aggs,
                strategy,
                ..
            } => ExplainNode::Aggregate {
                strategy: format!("{strategy:?}"),
                group: group.clone(),
                aggs: aggs.len(),
                child: Box::new(ExplainNode::from_plan(input)),
            },
            LogicalPlan::Project { input, exprs, .. } => ExplainNode::Project {
                exprs: exprs.iter().map(|e| e.to_string()).collect(),
                child: Box::new(ExplainNode::from_plan(input)),
            },
            LogicalPlan::Sort { input, keys } => ExplainNode::Sort {
                keys: keys.iter().map(|k| (k.col, k.desc)).collect(),
                child: Box::new(ExplainNode::from_plan(input)),
            },
            LogicalPlan::Limit { input, n } => ExplainNode::Limit {
                n: *n,
                child: Box::new(ExplainNode::from_plan(input)),
            },
            LogicalPlan::Distinct { input } => ExplainNode::Distinct {
                child: Box::new(ExplainNode::from_plan(input)),
            },
        }
    }

    /// The operator's display name (`"Scan"`, `"InnerJoin"`,
    /// `"HashAggregate"`, …).
    pub fn label(&self) -> String {
        match self {
            ExplainNode::Scan { .. } => "Scan".into(),
            ExplainNode::Filter { .. } => "Filter".into(),
            ExplainNode::Join { kind, .. } => format!("{kind}Join"),
            ExplainNode::Aggregate { strategy, .. } => format!("{strategy}Aggregate"),
            ExplainNode::Project { .. } => "Project".into(),
            ExplainNode::Sort { .. } => "Sort".into(),
            ExplainNode::Limit { .. } => "Limit".into(),
            ExplainNode::Distinct { .. } => "Distinct".into(),
        }
    }

    /// Child nodes, left to right.
    pub fn children(&self) -> Vec<&ExplainNode> {
        match self {
            ExplainNode::Scan { .. } => Vec::new(),
            ExplainNode::Filter { child, .. }
            | ExplainNode::Aggregate { child, .. }
            | ExplainNode::Project { child, .. }
            | ExplainNode::Sort { child, .. }
            | ExplainNode::Limit { child, .. }
            | ExplainNode::Distinct { child } => vec![child],
            ExplainNode::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Per-node row estimate, where the operator carries one.
    pub fn estimated_rows(&self) -> Option<f64> {
        match self {
            ExplainNode::Scan { estimated_rows, .. } | ExplainNode::Join { estimated_rows, .. } => {
                Some(*estimated_rows)
            }
            _ => None,
        }
    }

    fn fmt_indent(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            ExplainNode::Scan {
                table,
                projection,
                pushed_filters,
                estimated_rows,
            } => {
                let _ = write!(out, "{pad}Scan {table} proj={projection:?}");
                if !pushed_filters.is_empty() {
                    let _ = write!(out, " filters=[");
                    for (i, f) in pushed_filters.iter().enumerate() {
                        if i > 0 {
                            let _ = write!(out, ", ");
                        }
                        let _ = write!(out, "{f}");
                    }
                    let _ = write!(out, "]");
                }
                let _ = writeln!(out, " (~{estimated_rows:.0} rows)");
            }
            ExplainNode::Filter { predicate, child } => {
                let _ = writeln!(out, "{pad}Filter {predicate}");
                child.fmt_indent(out, depth + 1);
            }
            ExplainNode::Join {
                kind,
                on,
                estimated_rows,
                left,
                right,
            } => {
                let _ = writeln!(out, "{pad}{kind}Join on={on:?} (~{estimated_rows:.0} rows)");
                left.fmt_indent(out, depth + 1);
                right.fmt_indent(out, depth + 1);
            }
            ExplainNode::Aggregate {
                strategy,
                group,
                aggs,
                child,
            } => {
                let _ = writeln!(out, "{pad}{strategy}Aggregate group={group:?} aggs={aggs}");
                child.fmt_indent(out, depth + 1);
            }
            ExplainNode::Project { exprs, child } => {
                let _ = write!(out, "{pad}Project [");
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        let _ = write!(out, ", ");
                    }
                    let _ = write!(out, "{e}");
                }
                let _ = writeln!(out, "]");
                child.fmt_indent(out, depth + 1);
            }
            ExplainNode::Sort { keys, child } => {
                let _ = write!(out, "{pad}Sort [");
                for (i, (col, desc)) in keys.iter().enumerate() {
                    if i > 0 {
                        let _ = write!(out, ", ");
                    }
                    let _ = write!(out, "#{}{}", col, if *desc { " desc" } else { "" });
                }
                let _ = writeln!(out, "]");
                child.fmt_indent(out, depth + 1);
            }
            ExplainNode::Limit { n, child } => {
                let _ = writeln!(out, "{pad}Limit {n}");
                child.fmt_indent(out, depth + 1);
            }
            ExplainNode::Distinct { child } => {
                let _ = writeln!(out, "{pad}Distinct");
                child.fmt_indent(out, depth + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, BoundExpr};
    use nodb_common::{DataType, Schema, Value};

    fn sample_plan() -> LogicalPlan {
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            projection: vec![0, 2],
            filters: vec![BoundExpr::Binary {
                op: BinOp::Lt,
                left: Box::new(BoundExpr::Col(0)),
                right: Box::new(BoundExpr::Lit(Value::Int64(5))),
            }],
            schema: Schema::from_pairs(&[("a", DataType::Int32), ("c", DataType::Int32)]).unwrap(),
            estimated_rows: 42.0,
        };
        LogicalPlan::Limit {
            input: Box::new(scan),
            n: 10,
        }
    }

    #[test]
    fn tree_is_assertable_without_string_matching() {
        let typed = ExplainPlan::from_plan(&sample_plan());
        let ExplainNode::Limit { n, child } = &typed.root else {
            panic!("expected Limit root, got {:?}", typed.root);
        };
        assert_eq!(*n, 10);
        let ExplainNode::Scan {
            table,
            projection,
            pushed_filters,
            estimated_rows,
        } = child.as_ref()
        else {
            panic!("expected Scan leaf, got {child:?}");
        };
        assert_eq!(table, "t");
        assert_eq!(projection.as_slice(), &[0, 2]);
        assert_eq!(pushed_filters.as_slice(), &["(#0 < 5)".to_string()]);
        assert_eq!(*estimated_rows, 42.0);
        assert_eq!(typed.root.label(), "Limit");
        assert_eq!(typed.root.children()[0].estimated_rows(), Some(42.0));
    }
}
