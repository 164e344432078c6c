//! Abstract syntax tree produced by the parser.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::BTreeSet;
use std::convert::Infallible;

use nodb_common::Value;

/// Units for SQL `INTERVAL` literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalUnit {
    /// Days.
    Day,
    /// Months.
    Month,
    /// Years.
    Year,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFuncAst {
    /// `COUNT(*)` / `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// Binary operators (comparison, arithmetic, boolean).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AstBinOp {
    /// `OR`
    Or,
    /// `AND`
    And,
    /// `=`
    Eq,
    /// `<>` / `!=`
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

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// Column reference `col` or `tbl.col`.
    Column {
        /// Optional table qualifier.
        table: Option<String>,
        /// Column name (lowercased).
        name: String,
    },
    /// Literal value (`1`, `2.5`, `'text'`, `date '1994-01-01'`).
    Literal(Value),
    /// Parameter placeholder (`?` or `$N`), by 0-based index. The value
    /// is supplied at execute time; the binder assigns the type from
    /// surrounding context.
    Param(usize),
    /// `INTERVAL 'n' unit`.
    Interval {
        /// Count.
        n: i64,
        /// Unit.
        unit: IntervalUnit,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: AstBinOp,
        /// Left operand.
        left: Box<AstExpr>,
        /// Right operand.
        right: Box<AstExpr>,
    },
    /// `NOT expr`.
    Not(Box<AstExpr>),
    /// `-expr`.
    Neg(Box<AstExpr>),
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// Pattern (usually a string literal).
        pattern: Box<AstExpr>,
        /// NOT LIKE.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// Lower bound (inclusive).
        low: Box<AstExpr>,
        /// Upper bound (inclusive).
        high: Box<AstExpr>,
        /// NOT BETWEEN.
        negated: bool,
    },
    /// `expr [NOT] IN (v, …)`.
    InList {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// Candidate values.
        list: Vec<AstExpr>,
        /// NOT IN.
        negated: bool,
    },
    /// `CASE [WHEN cond THEN res]… [ELSE e] END`.
    Case {
        /// WHEN/THEN pairs.
        branches: Vec<(AstExpr, AstExpr)>,
        /// ELSE branch.
        else_expr: Option<Box<AstExpr>>,
    },
    /// Aggregate call.
    Agg {
        /// Function.
        func: AggFuncAst,
        /// Argument; `None` = `COUNT(*)`.
        arg: Option<Box<AstExpr>>,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// The subquery.
        subquery: Box<SelectStmt>,
        /// NOT EXISTS.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<AstExpr>,
        /// IS NOT NULL.
        negated: bool,
    },
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`.
    Expr {
        /// The expression.
        expr: AstExpr,
        /// Output name.
        alias: Option<String>,
    },
}

/// A table in FROM.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name (lowercased).
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// The sort expression (column, alias or projected expression).
    pub expr: AstExpr,
    /// Descending?
    pub desc: bool,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// SELECT DISTINCT?
    pub distinct: bool,
    /// SELECT list.
    pub projections: Vec<SelectItem>,
    /// FROM tables (comma-joined; `JOIN … ON` is desugared to WHERE
    /// conjuncts by the parser).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<AstExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<AstExpr>,
    /// HAVING predicate (over aggregate output).
    pub having: Option<AstExpr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderByItem>,
    /// LIMIT.
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// This statement's clause expressions, in order: the SELECT list,
    /// WHERE, GROUP BY, HAVING and ORDER BY (EXISTS subqueries are not
    /// entered).
    pub fn exprs(&self) -> impl Iterator<Item = &AstExpr> {
        let items = self.projections.iter().filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Wildcard => None,
        });
        items
            .chain(&self.where_clause)
            .chain(&self.group_by)
            .chain(&self.having)
            .chain(self.order_by.iter().map(|ob| &ob.expr))
    }

    /// Collect the 0-based parameter indices used anywhere in this
    /// statement, EXISTS subqueries included.
    pub fn collect_params(&self, out: &mut BTreeSet<usize>) {
        for e in self.exprs() {
            e.collect_params(out);
        }
    }

    /// Number of parameter slots this statement requires (`max index +
    /// 1`), with an error when explicit `$N` numbering leaves gaps —
    /// every slot in `1..=N` must be referenced so positional values
    /// line up.
    pub fn param_count(&self) -> nodb_common::Result<usize> {
        let mut used = BTreeSet::new();
        self.collect_params(&mut used);
        let count = used.iter().next_back().map_or(0, |&m| m + 1);
        // Gap detection must stay O(|used|): `$4000000000` in one short
        // statement makes `count` huge, and scanning (or allocating)
        // `0..count` anywhere before this check would be a DoS vector.
        if used.len() != count {
            // `used` ascends, so the first slot it skips is the first
            // index that differs from its rank.
            let first_gap = (used.iter().zip(0..))
                .find(|&(&u, i)| u != i)
                .map_or(used.len(), |(_, i)| i);
            return Err(nodb_common::NoDbError::sql(format!(
                "parameter ${} is never referenced (numbering must be contiguous from $1)",
                first_gap + 1
            )));
        }
        Ok(count)
    }
}

impl AstExpr {
    /// Build `left AND right`, treating `None` as TRUE.
    pub fn and_opt(left: Option<AstExpr>, right: AstExpr) -> AstExpr {
        match left {
            None => right,
            Some(l) => AstExpr::Binary {
                op: AstBinOp::And,
                left: Box::new(l),
                right: Box::new(right),
            },
        }
    }

    /// Call `f` on each direct child of this expression, left to
    /// right, stopping at the first error. An EXISTS subquery is not
    /// entered; a caller that needs it matches `Exists` itself.
    pub fn try_for_each_child<E>(
        &self,
        mut f: impl FnMut(&AstExpr) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        match self {
            AstExpr::Column { .. }
            | AstExpr::Literal(_)
            | AstExpr::Param(_)
            | AstExpr::Interval { .. }
            | AstExpr::Exists { .. } => Ok(()),
            AstExpr::Not(e) | AstExpr::Neg(e) | AstExpr::IsNull { expr: e, .. } => f(e),
            AstExpr::Binary { left, right, .. } => {
                f(left)?;
                f(right)
            }
            AstExpr::Like { expr, pattern, .. } => {
                f(expr)?;
                f(pattern)
            }
            AstExpr::Between {
                expr, low, high, ..
            } => {
                f(expr)?;
                f(low)?;
                f(high)
            }
            AstExpr::InList { expr, list, .. } => {
                f(expr)?;
                list.iter().try_for_each(f)
            }
            AstExpr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    f(c)?;
                    f(r)?;
                }
                else_expr.as_deref().map_or(Ok(()), f)
            }
            AstExpr::Agg { arg, .. } => arg.as_deref().map_or(Ok(()), f),
        }
    }

    /// Collect the 0-based parameter indices used in this expression
    /// (including inside EXISTS subqueries).
    pub fn collect_params(&self, out: &mut BTreeSet<usize>) {
        match self {
            AstExpr::Param(i) => {
                out.insert(*i);
            }
            AstExpr::Exists { subquery, .. } => subquery.collect_params(out),
            _ => {}
        }
        let _ = self.try_for_each_child(|c| {
            c.collect_params(out);
            Ok::<(), Infallible>(())
        });
    }

    /// Does this expression (sub)tree contain an aggregate call? EXISTS
    /// subqueries are not searched.
    pub fn contains_agg(&self) -> bool {
        matches!(self, AstExpr::Agg { .. })
            || self
                .try_for_each_child(|c| if c.contains_agg() { Err(()) } else { Ok(()) })
                .is_err()
    }
}
