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

    /// Collect the input ordinals referenced by this expression.
    pub fn referenced_columns(&self, out: &mut BTreeSet<usize>) {
        self.visit(&mut |e| {
            if let BoundExpr::Col(i) = e {
                out.insert(*i);
            }
        });
    }

    /// A copy with column ordinals rewritten through `f`.
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> BoundExpr {
        let mut out = self.clone();
        out.visit_mut(&mut |e| {
            if let BoundExpr::Col(i) = e {
                *i = f(*i);
            }
        });
        out
    }

    /// Replace every [`BoundExpr::Param`] with the corresponding
    /// constant from `params`. An index past the end of `params`
    /// survives as a `Param` (callers validate counts before
    /// substituting; the evaluator rejects leftovers loudly).
    pub fn substitute_params(&mut self, params: &[Value]) {
        self.visit_mut(&mut |e| {
            if let BoundExpr::Param { idx, .. } = *e {
                if let Some(v) = params.get(idx) {
                    *e = BoundExpr::Lit(v.clone());
                }
            }
        });
    }

    /// Record the bind-time type of every parameter in this expression
    /// into `out[idx]` (first non-`None` wins; `out` must already be
    /// sized to the statement's parameter count).
    pub fn collect_param_types(&self, out: &mut [Option<DataType>]) {
        self.visit(&mut |e| {
            if let BoundExpr::Param { idx, dtype } = e {
                if let Some(slot) = out.get_mut(*idx).filter(|s| s.is_none()) {
                    *slot = *dtype;
                }
            }
        });
    }

    /// Infer the result type given input column types: the one typing
    /// rule the binder's output schema and the evaluator share.
    /// Comparisons and boolean combinators yield `Bool`; arithmetic
    /// follows [`BinOp::arith_type`]; a CASE yields the widest numeric
    /// type among its non-NULL branches (or their common type).
    pub fn infer_type(&self, input: &[DataType]) -> DataType {
        match self {
            BoundExpr::Col(i) => input.get(*i).copied().unwrap_or(DataType::Text),
            BoundExpr::Lit(v) => v.data_type().unwrap_or(DataType::Text),
            BoundExpr::Param { dtype, .. } => dtype.unwrap_or(DataType::Text),
            BoundExpr::Binary { op, left, right } => {
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    DataType::Bool
                } else {
                    op.arith_type(left.infer_type(input), right.infer_type(input))
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
            BoundExpr::Case { .. } => self
                .case_branch_types(input)
                .into_iter()
                .reduce(DataType::widest)
                .unwrap_or(DataType::Text),
        }
    }

    /// The types of a CASE's non-NULL result branches, in order (empty
    /// for any other expression).
    fn case_branch_types(&self, input: &[DataType]) -> Vec<DataType> {
        let BoundExpr::Case {
            branches,
            else_expr,
        } = self
        else {
            return Vec::new();
        };
        branches
            .iter()
            .map(|(_, r)| r)
            .chain(else_expr.as_deref())
            .filter(|e| !matches!(e, BoundExpr::Lit(Value::Null)))
            .map(|e| e.infer_type(input))
            .collect()
    }

    /// The first CASE in this expression whose result branches have no
    /// common type (text and a number, say), as the two clashing types.
    /// Numbers of different widths widen and do not clash.
    pub fn case_type_clash(&self, input: &[DataType]) -> Option<(DataType, DataType)> {
        let mut clash = None;
        self.visit(&mut |e| {
            let types = e.case_branch_types(input);
            for pair in types.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if clash.is_none() && a != b && !(a.is_numeric() && b.is_numeric()) {
                    clash = Some((a, b));
                }
            }
        });
        clash
    }

    /// Call `f` on this expression and every subexpression.
    fn visit(&self, f: &mut impl FnMut(&BoundExpr)) {
        f(self);
        match self {
            BoundExpr::Col(_) | BoundExpr::Lit(_) | BoundExpr::Param { .. } => {}
            BoundExpr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            BoundExpr::Unary { expr, .. }
            | BoundExpr::InList { expr, .. }
            | BoundExpr::IsNull { expr, .. } => expr.visit(f),
            BoundExpr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            BoundExpr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.visit(f);
                    r.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
        }
    }
    /// Call `f` on this expression, then on every subexpression of what
    /// `f` left in its place.
    fn visit_mut(&mut self, f: &mut impl FnMut(&mut BoundExpr)) {
        f(self);
        match self {
            BoundExpr::Col(_) | BoundExpr::Lit(_) | BoundExpr::Param { .. } => {}
            BoundExpr::Binary { left, right, .. } => {
                left.visit_mut(f);
                right.visit_mut(f);
            }
            BoundExpr::Unary { expr, .. }
            | BoundExpr::InList { expr, .. }
            | BoundExpr::IsNull { expr, .. } => expr.visit_mut(f),
            BoundExpr::Like { expr, pattern, .. } => {
                expr.visit_mut(f);
                pattern.visit_mut(f);
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.visit_mut(f);
                low.visit_mut(f);
                high.visit_mut(f);
            }
            BoundExpr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.visit_mut(f);
                    r.visit_mut(f);
                }
                if let Some(e) = else_expr {
                    e.visit_mut(f);
                }
            }
        }
    }
}

impl BinOp {
    /// The result type of arithmetic `l op r`: `/` or any `Float64`
    /// operand gives `Float64`; `Date − Date` gives `Int64`; `Date ±`
    /// an integer (or a date) gives `Date`; integers of either width
    /// give `Int64`. Operand types with no arithmetic fail at run time.
    pub fn arith_type(self, l: DataType, r: DataType) -> DataType {
        use DataType::{Date, Float64, Int32, Int64};
        match (self, l, r) {
            (BinOp::Div, _, _) | (_, Float64, _) | (_, _, Float64) => Float64,
            (BinOp::Sub, Date, Date) => Int64,
            (BinOp::Add | BinOp::Sub, Date, Int32 | Int64 | Date) => Date,
            _ => Int64,
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

        // Integers add to Int64, dates shift, and a CASE widens to its
        // widest numeric branch or reports its type clash.
        let input = [DataType::Int32, DataType::Date, DataType::Text];
        let bin = |op, l, r| BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        };
        let (c, lit) = (BoundExpr::Col, BoundExpr::Lit);
        assert_eq!(
            bin(BinOp::Add, c(0), c(0)).infer_type(&input),
            DataType::Int64
        );
        let day = || lit(Value::Date(nodb_common::Date(0)));
        assert_eq!(
            bin(BinOp::Sub, c(1), day()).infer_type(&input),
            DataType::Int64
        );
        let one = || lit(Value::Int64(1));
        assert_eq!(
            bin(BinOp::Add, c(1), one()).infer_type(&input),
            DataType::Date
        );
        let case = |then: BoundExpr, otherwise: BoundExpr| BoundExpr::Case {
            branches: vec![(lit(Value::Bool(true)), then)],
            else_expr: Some(Box::new(otherwise)),
        };
        let widened = case(one(), lit(Value::Float64(0.5)));
        assert_eq!(widened.infer_type(&input), DataType::Float64);
        assert_eq!(widened.case_type_clash(&input), None);
        let nulls = case(lit(Value::Null), c(0));
        assert_eq!(nulls.infer_type(&input), DataType::Int32);
        let mixed = bin(BinOp::Eq, case(c(2), one()), one());
        assert_eq!(
            mixed.case_type_clash(&input),
            Some((DataType::Text, DataType::Int64))
        );
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
        let mut s = e.clone();
        s.substitute_params(&[Value::Int64(7), Value::Float64(1.5)]);
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
