//! Bound expressions: AST expressions with columns resolved to input
//! ordinals, ready for evaluation.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use nodb_common::{DataType, Value};

/// Binary operators of bound expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// Is this a comparison producing a boolean?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// Does comparison `self` hold for operands that compare as `ord`
    /// (left against right)? `None` for non-comparison operators.
    #[inline]
    pub fn holds(self, ord: Ordering) -> Option<bool> {
        Some(match self {
            BinOp::Eq => ord.is_eq(),
            BinOp::NotEq => ord.is_ne(),
            BinOp::Lt => ord.is_lt(),
            BinOp::LtEq => ord.is_le(),
            BinOp::Gt => ord.is_gt(),
            BinOp::GtEq => ord.is_ge(),
            _ => return None,
        })
    }

    /// The operator that gives the same answer with the operands
    /// swapped (`a < b` ⇔ `b > a`); every other operator is its own swap.
    #[inline]
    pub fn swapped(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical NOT.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Aggregate functions (bound form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// COUNT (`arg = None` ⇒ COUNT(*)).
    Count,
    /// SUM.
    Sum,
    /// AVG.
    Avg,
    /// MIN.
    Min,
    /// MAX.
    Max,
}

/// An expression bound to input-row ordinals.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Input column by ordinal.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Parameter placeholder, substituted with a constant at execute
    /// time ([`BoundExpr::substitute_params`]). `dtype` is the type the
    /// binder inferred from surrounding context (`None` when the context
    /// gives no hint); execute-time values are checked/coerced against
    /// it. A `Param` must never reach the evaluator.
    Param {
        /// 0-based parameter index.
        idx: usize,
        /// Bind-time inferred type, if any.
        dtype: Option<DataType>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// LIKE. The pattern is an arbitrary text expression: usually a
    /// literal, but a [`BoundExpr::Param`] (`name LIKE ?`) or any other
    /// text-valued expression works — evaluation compiles constant
    /// patterns once and re-derives the matcher per row otherwise.
    Like {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Pattern expression (text-typed).
        pattern: Box<BoundExpr>,
        /// NOT LIKE.
        negated: bool,
    },
    /// BETWEEN (inclusive bounds).
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
        /// NOT BETWEEN.
        negated: bool,
    },
    /// IN with a constant list.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Constant candidates.
        list: Vec<Value>,
        /// NOT IN.
        negated: bool,
    },
    /// Searched CASE.
    Case {
        /// WHEN/THEN pairs.
        branches: Vec<(BoundExpr, BoundExpr)>,
        /// ELSE result.
        else_expr: Option<Box<BoundExpr>>,
    },
    /// IS \[NOT\] NULL.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// IS NOT NULL.
        negated: bool,
    },
}

impl BoundExpr {
    /// Convenience: `a AND b`.
    pub fn and(a: BoundExpr, b: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op: BinOp::And,
            left: Box::new(a),
            right: Box::new(b),
        }
    }

    /// AND-combine a list (empty ⇒ TRUE literal).
    pub fn conjunction(mut exprs: Vec<BoundExpr>) -> BoundExpr {
        match exprs.len() {
            0 => BoundExpr::Lit(Value::Bool(true)),
            1 => exprs.pop().expect("len checked"),
            _ => {
                let mut it = exprs.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, BoundExpr::and)
            }
        }
    }

    /// Collect the input ordinals referenced by this expression.
    pub fn referenced_columns(&self, out: &mut BTreeSet<usize>) {
        match self {
            BoundExpr::Col(i) => {
                out.insert(*i);
            }
            BoundExpr::Lit(_) | BoundExpr::Param { .. } => {}
            BoundExpr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            BoundExpr::Unary { expr, .. } => expr.referenced_columns(out),
            BoundExpr::Like { expr, pattern, .. } => {
                expr.referenced_columns(out);
                pattern.referenced_columns(out);
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.referenced_columns(out);
                low.referenced_columns(out);
                high.referenced_columns(out);
            }
            BoundExpr::InList { expr, .. } => expr.referenced_columns(out),
            BoundExpr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.referenced_columns(out);
                    r.referenced_columns(out);
                }
                if let Some(e) = else_expr {
                    e.referenced_columns(out);
                }
            }
            BoundExpr::IsNull { expr, .. } => expr.referenced_columns(out),
        }
    }

    /// Rewrite column ordinals through `f`.
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> BoundExpr {
        match self {
            BoundExpr::Col(i) => BoundExpr::Col(f(*i)),
            BoundExpr::Lit(v) => BoundExpr::Lit(v.clone()),
            BoundExpr::Param { idx, dtype } => BoundExpr::Param {
                idx: *idx,
                dtype: *dtype,
            },
            BoundExpr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.map_columns(f)),
                right: Box::new(right.map_columns(f)),
            },
            BoundExpr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: Box::new(expr.map_columns(f)),
            },
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: Box::new(expr.map_columns(f)),
                pattern: Box::new(pattern.map_columns(f)),
                negated: *negated,
            },
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(expr.map_columns(f)),
                low: Box::new(low.map_columns(f)),
                high: Box::new(high.map_columns(f)),
                negated: *negated,
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(expr.map_columns(f)),
                list: list.clone(),
                negated: *negated,
            },
            BoundExpr::Case {
                branches,
                else_expr,
            } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| (c.map_columns(f), r.map_columns(f)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.map_columns(f))),
            },
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.map_columns(f)),
                negated: *negated,
            },
        }
    }

    /// Replace every [`BoundExpr::Param`] with the corresponding
    /// constant from `params`. An index past the end of `params`
    /// survives as a `Param` (callers validate counts before
    /// substituting; the evaluator rejects leftovers loudly).
    pub fn substitute_params(&self, params: &[Value]) -> BoundExpr {
        match self {
            BoundExpr::Param { idx, dtype } => match params.get(*idx) {
                Some(v) => BoundExpr::Lit(v.clone()),
                None => BoundExpr::Param {
                    idx: *idx,
                    dtype: *dtype,
                },
            },
            BoundExpr::Col(i) => BoundExpr::Col(*i),
            BoundExpr::Lit(v) => BoundExpr::Lit(v.clone()),
            BoundExpr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.substitute_params(params)),
                right: Box::new(right.substitute_params(params)),
            },
            BoundExpr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: Box::new(expr.substitute_params(params)),
            },
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: Box::new(expr.substitute_params(params)),
                pattern: Box::new(pattern.substitute_params(params)),
                negated: *negated,
            },
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(expr.substitute_params(params)),
                low: Box::new(low.substitute_params(params)),
                high: Box::new(high.substitute_params(params)),
                negated: *negated,
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(expr.substitute_params(params)),
                list: list.clone(),
                negated: *negated,
            },
            BoundExpr::Case {
                branches,
                else_expr,
            } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, r)| (c.substitute_params(params), r.substitute_params(params)))
                    .collect(),
                else_expr: else_expr
                    .as_ref()
                    .map(|e| Box::new(e.substitute_params(params))),
            },
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.substitute_params(params)),
                negated: *negated,
            },
        }
    }

    /// Record the bind-time type of every parameter in this expression
    /// into `out[idx]` (first non-`None` wins; `out` must already be
    /// sized to the statement's parameter count).
    pub fn collect_param_types(&self, out: &mut [Option<DataType>]) {
        match self {
            BoundExpr::Param { idx, dtype } => {
                if let Some(slot) = out.get_mut(*idx) {
                    if slot.is_none() {
                        *slot = *dtype;
                    }
                }
            }
            BoundExpr::Col(_) | BoundExpr::Lit(_) => {}
            BoundExpr::Binary { left, right, .. } => {
                left.collect_param_types(out);
                right.collect_param_types(out);
            }
            BoundExpr::Unary { expr, .. }
            | BoundExpr::InList { expr, .. }
            | BoundExpr::IsNull { expr, .. } => expr.collect_param_types(out),
            BoundExpr::Like { expr, pattern, .. } => {
                expr.collect_param_types(out);
                pattern.collect_param_types(out);
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.collect_param_types(out);
                low.collect_param_types(out);
                high.collect_param_types(out);
            }
            BoundExpr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.collect_param_types(out);
                    r.collect_param_types(out);
                }
                if let Some(e) = else_expr {
                    e.collect_param_types(out);
                }
            }
        }
    }

    /// Infer the result type given input column types. Comparisons and
    /// boolean combinators yield `Bool`; arithmetic widens to `Float64`
    /// when any side is a float or on division; `Date ± Int` stays `Date`.
    pub fn infer_type(&self, input: &[DataType]) -> DataType {
        match self {
            BoundExpr::Col(i) => input.get(*i).copied().unwrap_or(DataType::Text),
            BoundExpr::Lit(v) => v.data_type().unwrap_or(DataType::Text),
            BoundExpr::Param { dtype, .. } => dtype.unwrap_or(DataType::Text),
            BoundExpr::Binary { op, left, right } => {
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    DataType::Bool
                } else {
                    let lt = left.infer_type(input);
                    let rt = right.infer_type(input);
                    match (op, lt, rt) {
                        (BinOp::Div, _, _) => DataType::Float64,
                        (_, DataType::Float64, _) | (_, _, DataType::Float64) => DataType::Float64,
                        (_, DataType::Date, _) => DataType::Date,
                        (_, _, DataType::Date) => DataType::Date,
                        (_, DataType::Int64, _) | (_, _, DataType::Int64) => DataType::Int64,
                        _ => lt,
                    }
                }
            }
            BoundExpr::Unary { op: UnOp::Not, .. } => DataType::Bool,
            BoundExpr::Unary {
                op: UnOp::Neg,
                expr,
            } => expr.infer_type(input),
            BoundExpr::Like { .. }
            | BoundExpr::Between { .. }
            | BoundExpr::InList { .. }
            | BoundExpr::IsNull { .. } => DataType::Bool,
            BoundExpr::Case {
                branches,
                else_expr,
            } => branches
                .first()
                .map(|(_, r)| r.infer_type(input))
                .or_else(|| else_expr.as_ref().map(|e| e.infer_type(input)))
                .unwrap_or(DataType::Text),
        }
    }
}

/// A bound aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// Function.
    pub func: AggFunc,
    /// Argument (`None` for COUNT(*)), bound to the aggregate's input.
    pub arg: Option<BoundExpr>,
}

impl AggExpr {
    /// Result type of the aggregate given input column types.
    pub fn output_type(&self, input: &[DataType]) -> DataType {
        match self.func {
            AggFunc::Count => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Sum => match self.arg.as_ref().map(|a| a.infer_type(input)) {
                Some(DataType::Float64) => DataType::Float64,
                Some(DataType::Int32) | Some(DataType::Int64) => DataType::Int64,
                Some(other) => other,
                None => DataType::Int64,
            },
            AggFunc::Min | AggFunc::Max => self
                .arg
                .as_ref()
                .map(|a| a.infer_type(input))
                .unwrap_or(DataType::Text),
        }
    }
}

impl fmt::Display for BoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundExpr::Col(i) => write!(f, "#{i}"),
            BoundExpr::Lit(v) => write!(f, "{v}"),
            BoundExpr::Param { idx, .. } => write!(f, "${}", idx + 1),
            BoundExpr::Binary { op, left, right } => {
                let sym = match op {
                    BinOp::Or => "OR",
                    BinOp::And => "AND",
                    BinOp::Eq => "=",
                    BinOp::NotEq => "<>",
                    BinOp::Lt => "<",
                    BinOp::LtEq => "<=",
                    BinOp::Gt => ">",
                    BinOp::GtEq => ">=",
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                };
                write!(f, "({left} {sym} {right})")
            }
            BoundExpr::Unary { op, expr } => match op {
                UnOp::Not => write!(f, "NOT {expr}"),
                UnOp::Neg => write!(f, "-{expr}"),
            },
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                write!(f, "{expr} {}LIKE ", if *negated { "NOT " } else { "" })?;
                // Literal patterns keep the classic quoted rendering.
                match pattern.as_ref() {
                    BoundExpr::Lit(Value::Text(p)) => write!(f, "'{p}'"),
                    other => write!(f, "{other}"),
                }
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str(")")
            }
            BoundExpr::Case {
                branches,
                else_expr,
            } => {
                f.write_str("CASE")?;
                for (c, r) in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
            BoundExpr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_columns_walks_the_tree() {
        let e = BoundExpr::Binary {
            op: BinOp::And,
            left: Box::new(BoundExpr::Between {
                expr: Box::new(BoundExpr::Col(3)),
                low: Box::new(BoundExpr::Lit(Value::Int64(1))),
                high: Box::new(BoundExpr::Col(7)),
                negated: false,
            }),
            right: Box::new(BoundExpr::Col(1)),
        };
        let mut s = BTreeSet::new();
        e.referenced_columns(&mut s);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![1, 3, 7]);
    }

    #[test]
    fn map_columns_rewrites_ordinals() {
        let e = BoundExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(BoundExpr::Col(2)),
            right: Box::new(BoundExpr::Col(5)),
        };
        let m = e.map_columns(&|i| i * 10);
        let mut s = BTreeSet::new();
        m.referenced_columns(&mut s);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![20, 50]);
    }

    #[test]
    fn type_inference() {
        let input = [DataType::Int32, DataType::Float64, DataType::Date];
        let mul = BoundExpr::Binary {
            op: BinOp::Mul,
            left: Box::new(BoundExpr::Col(0)),
            right: Box::new(BoundExpr::Col(1)),
        };
        assert_eq!(mul.infer_type(&input), DataType::Float64);
        let div = BoundExpr::Binary {
            op: BinOp::Div,
            left: Box::new(BoundExpr::Col(0)),
            right: Box::new(BoundExpr::Col(0)),
        };
        assert_eq!(div.infer_type(&input), DataType::Float64);
        let cmp = BoundExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(BoundExpr::Col(2)),
            right: Box::new(BoundExpr::Lit(Value::Date(nodb_common::Date(0)))),
        };
        assert_eq!(cmp.infer_type(&input), DataType::Bool);
    }

    #[test]
    fn agg_output_types() {
        let input = [DataType::Int32, DataType::Float64];
        let sum_int = AggExpr {
            func: AggFunc::Sum,
            arg: Some(BoundExpr::Col(0)),
        };
        assert_eq!(sum_int.output_type(&input), DataType::Int64);
        let avg = AggExpr {
            func: AggFunc::Avg,
            arg: Some(BoundExpr::Col(0)),
        };
        assert_eq!(avg.output_type(&input), DataType::Float64);
        let count = AggExpr {
            func: AggFunc::Count,
            arg: None,
        };
        assert_eq!(count.output_type(&input), DataType::Int64);
    }

    #[test]
    fn conjunction_of_none_is_true() {
        assert_eq!(
            BoundExpr::conjunction(vec![]),
            BoundExpr::Lit(Value::Bool(true))
        );
    }

    #[test]
    fn params_substitute_and_report_types() {
        let e = BoundExpr::Binary {
            op: BinOp::And,
            left: Box::new(BoundExpr::Binary {
                op: BinOp::Lt,
                left: Box::new(BoundExpr::Col(0)),
                right: Box::new(BoundExpr::Param {
                    idx: 0,
                    dtype: Some(DataType::Int64),
                }),
            }),
            right: Box::new(BoundExpr::Between {
                expr: Box::new(BoundExpr::Col(1)),
                low: Box::new(BoundExpr::Param {
                    idx: 1,
                    dtype: Some(DataType::Float64),
                }),
                high: Box::new(BoundExpr::Lit(Value::Float64(9.0))),
                negated: false,
            }),
        };
        assert_eq!(e.to_string(), "((#0 < $1) AND #1 BETWEEN $2 AND 9.0)");
        let mut types = vec![None; 2];
        e.collect_param_types(&mut types);
        assert_eq!(types, vec![Some(DataType::Int64), Some(DataType::Float64)]);
        let s = e.substitute_params(&[Value::Int64(7), Value::Float64(1.5)]);
        assert_eq!(s.to_string(), "((#0 < 7) AND #1 BETWEEN 1.5 AND 9.0)");
        // Params never count as column references.
        let mut cols = BTreeSet::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn comparison_outcomes_and_swaps() {
        assert_eq!(BinOp::LtEq.holds(Ordering::Equal), Some(true));
        assert_eq!(BinOp::NotEq.holds(Ordering::Equal), Some(false));
        assert_eq!(BinOp::Add.holds(Ordering::Less), None);
        assert_eq!(BinOp::Div.swapped(), BinOp::Div);
        // `a op b` and `b swapped(op) a` agree on every ordering.
        for op in [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ] {
            for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                assert_eq!(op.holds(ord), op.swapped().holds(ord.reverse()), "{op:?}");
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let e = BoundExpr::Binary {
            op: BinOp::LtEq,
            left: Box::new(BoundExpr::Col(0)),
            right: Box::new(BoundExpr::Lit(Value::Int64(10))),
        };
        assert_eq!(e.to_string(), "(#0 <= 10)");
    }
}
