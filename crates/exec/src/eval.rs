//! Scalar expression evaluation with SQL three-valued logic.

use nodb_common::like::like_match;
use nodb_common::{NoDbError, Result, Row, Value};
use nodb_sql::{BinOp, BoundExpr, UnOp};

use crate::batch::ValueBatch;

/// Evaluate an expression against a row. NULL propagates through
/// arithmetic and comparisons; AND/OR follow Kleene logic.
pub fn eval(expr: &BoundExpr, row: &Row) -> Result<Value> {
    match expr {
        BoundExpr::Col(i) => row
            .values()
            .get(*i)
            .cloned()
            .ok_or_else(|| NoDbError::internal(format!("column #{i} out of range"))),
        BoundExpr::Lit(v) => Ok(v.clone()),
        BoundExpr::Param { idx, .. } => Err(NoDbError::internal(format!(
            "unsubstituted parameter ${} reached the executor (prepared statements must \
             substitute parameters before building the operator tree)",
            idx + 1
        ))),
        BoundExpr::Binary { op, left, right } => match op {
            BinOp::And => {
                let l = eval(left, row)?;
                // Short-circuit FALSE.
                if l == Value::Bool(false) {
                    return Ok(Value::Bool(false));
                }
                let r = eval(right, row)?;
                Ok(match (bool3(&l), bool3(&r)) {
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                })
            }
            BinOp::Or => {
                let l = eval(left, row)?;
                if l == Value::Bool(true) {
                    return Ok(Value::Bool(true));
                }
                let r = eval(right, row)?;
                Ok(match (bool3(&l), bool3(&r)) {
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                })
            }
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                let l = eval(left, row)?;
                let r = eval(right, row)?;
                Ok(compare(*op, &l, &r))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let l = eval(left, row)?;
                let r = eval(right, row)?;
                arith(*op, &l, &r)
            }
        },
        BoundExpr::Unary { op, expr } => {
            let v = eval(expr, row)?;
            match op {
                UnOp::Not => Ok(match bool3(&v) {
                    Some(b) => Value::Bool(!b),
                    None => Value::Null,
                }),
                UnOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int32(x) => Ok(Value::Int32(-x)),
                    Value::Int64(x) => Ok(Value::Int64(-x)),
                    Value::Float64(x) => Ok(Value::Float64(-x)),
                    other => Err(NoDbError::execution(format!("cannot negate {other}"))),
                },
            }
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row)?;
            // Fast path: a constant pattern (the common case, and what
            // every parameterized pattern becomes after substitution)
            // is matched without re-evaluating or cloning it per row.
            let computed;
            let pat = match pattern.as_ref() {
                BoundExpr::Lit(Value::Text(p)) => p.as_str(),
                _ => match eval(pattern, row)? {
                    Value::Null => return Ok(Value::Null),
                    Value::Text(s) => {
                        computed = s;
                        computed.as_str()
                    }
                    other => {
                        return Err(NoDbError::execution(format!(
                            "LIKE pattern is non-text {other}"
                        )))
                    }
                },
            };
            match v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Bool(like_match(&s, pat) != *negated)),
                other => Err(NoDbError::execution(format!("LIKE on non-text {other}"))),
            }
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, row)?;
            let lo = eval(low, row)?;
            let hi = eval(high, row)?;
            let ge = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
            let le = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
            Ok(match (ge, le) {
                (Some(a), Some(b)) => Value::Bool((a && b) != *negated),
                _ => Value::Null,
            })
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for cand in list {
                match v.sql_cmp(cand) {
                    Some(std::cmp::Ordering::Equal) => {
                        return Ok(Value::Bool(!*negated));
                    }
                    None if cand.is_null() => saw_null = true,
                    _ => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            for (cond, res) in branches {
                if eval_predicate(cond, row)? {
                    return eval(res, row);
                }
            }
            match else_expr {
                Some(e) => eval(e, row),
                None => Ok(Value::Null),
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval(expr, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
    }
}

/// A comparison's three-valued result: NULL when the operands are
/// incomparable (either is NULL, or the types do not compare).
#[inline]
fn compare(op: BinOp, l: &Value, r: &Value) -> Value {
    l.sql_cmp(r)
        .and_then(|ord| op.holds(ord))
        .map_or(Value::Null, Value::Bool)
}

/// Evaluate as a WHERE predicate: TRUE passes; FALSE and NULL reject.
pub fn eval_predicate(expr: &BoundExpr, row: &Row) -> Result<bool> {
    Ok(eval(expr, row)? == Value::Bool(true))
}

// ----- vectorized evaluation --------------------------------------------

/// NULL, for lanes an operand has no value for.
static NULL: Value = Value::Null;

/// One subexpression evaluated over a batch. Column and literal leaves
/// are borrowed — a column as the batch's own slice, a literal as one
/// scalar standing for every row — so only computed nodes allocate.
#[derive(Debug)]
pub(crate) enum Operand<'a> {
    /// A batch column.
    Col(&'a [Value]),
    /// One value for every row (a literal).
    Scalar(&'a Value),
    /// Values computed for this batch.
    Owned(Vec<Value>),
}

impl Operand<'_> {
    /// The value of row `r`.
    #[inline]
    pub(crate) fn get(&self, r: usize) -> &Value {
        match self {
            Operand::Col(c) => &c[r],
            Operand::Scalar(v) => v,
            Operand::Owned(c) => &c[r],
        }
    }

    /// The values as an owned column of `n` rows.
    fn into_values(self, n: usize) -> Vec<Value> {
        match self {
            Operand::Col(c) => c.to_vec(),
            Operand::Scalar(v) => vec![v.clone(); n],
            Operand::Owned(c) => c,
        }
    }
}

/// Evaluate an expression over every row of a batch, one tight loop per
/// operator node instead of one tree walk per row.
///
/// Produces exactly the values `eval` would produce row by row. The
/// short-circuit rules are preserved *per row* via selection masks: the
/// right side of an `AND` is only evaluated for rows whose left side is
/// not FALSE (so `x <> 0 AND 10 / x > 1` never divides by zero), and
/// `CASE` branch results are only evaluated for rows their condition
/// selected. The set of (row, subexpression) pairs evaluated is identical
/// to the row path's; only the *order* differs (column-wise rather than
/// row-wise), so when several rows would error, which error surfaces
/// first may differ — a query errors under batch evaluation iff it errors
/// under row evaluation.
pub fn eval_batch(expr: &BoundExpr, batch: &ValueBatch) -> Result<Vec<Value>> {
    Ok(eval_operand(expr, batch, None)?.into_values(batch.num_rows()))
}

/// Evaluate as a WHERE predicate over a whole batch: per row, TRUE passes.
pub fn eval_predicate_batch(expr: &BoundExpr, batch: &ValueBatch) -> Result<Vec<bool>> {
    let v = eval_operand(expr, batch, None)?;
    Ok((0..batch.num_rows())
        .map(|r| matches!(v.get(r), Value::Bool(true)))
        .collect())
}

/// Is row `r` selected by the (optional) mask?
#[inline]
fn active(mask: Option<&[bool]>, r: usize) -> bool {
    mask.is_none_or(|m| m[r])
}

/// Masked batch evaluation: rows deselected by `mask` are *not
/// evaluated* — the mechanism behind per-row short-circuiting. Their
/// lanes hold NULL or, in borrowed leaves, whatever the column holds;
/// callers never read deselected lanes. Unmasked, this is [`eval_batch`]
/// without materializing leaves (aggregate arguments read a bare column
/// in place).
pub(crate) fn eval_operand<'a>(
    expr: &'a BoundExpr,
    batch: &'a ValueBatch,
    mask: Option<&[bool]>,
) -> Result<Operand<'a>> {
    let n = batch.num_rows();
    // One output value per row: NULL on deselected rows, `f(r)` on the
    // others.
    let per_row = |f: &mut dyn FnMut(usize) -> Result<Value>| -> Result<Operand<'a>> {
        let mut out = Vec::with_capacity(n);
        for r in 0..n {
            out.push(if active(mask, r) { f(r)? } else { Value::Null });
        }
        Ok(Operand::Owned(out))
    };
    match expr {
        BoundExpr::Col(i) => {
            if *i >= batch.num_cols() {
                return Err(NoDbError::internal(format!("column #{i} out of range")));
            }
            Ok(Operand::Col(batch.col(*i)))
        }
        BoundExpr::Lit(v) => Ok(Operand::Scalar(v)),
        BoundExpr::Param { idx, .. } => Err(NoDbError::internal(format!(
            "unsubstituted parameter ${} reached the executor (prepared statements must \
             substitute parameters before building the operator tree)",
            idx + 1
        ))),
        BoundExpr::Binary { op, left, right } => match op {
            BinOp::And | BinOp::Or => {
                // FALSE decides an AND, TRUE an OR: rows whose left side
                // already decided short-circuit, and the right side must
                // not run for them (it may error).
                let decided = Value::Bool(*op == BinOp::Or);
                let l = eval_operand(left, batch, mask)?;
                let need: Vec<bool> = (0..n)
                    .map(|r| active(mask, r) && *l.get(r) != decided)
                    .collect();
                let r_vals = if need.contains(&true) {
                    eval_operand(right, batch, Some(&need))?
                } else {
                    Operand::Scalar(&NULL)
                };
                per_row(&mut |r| {
                    if !need[r] {
                        return Ok(decided.clone());
                    }
                    Ok(match (bool3(l.get(r)), bool3(r_vals.get(r)), op) {
                        (Some(false), _, BinOp::And) | (_, Some(false), BinOp::And) => {
                            Value::Bool(false)
                        }
                        (Some(true), _, BinOp::Or) | (_, Some(true), BinOp::Or) => {
                            Value::Bool(true)
                        }
                        (Some(a), Some(b), _) => Value::Bool(a && b),
                        _ => Value::Null,
                    })
                })
            }
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                let l = eval_operand(left, batch, mask)?;
                let r_vals = eval_operand(right, batch, mask)?;
                per_row(&mut |r| Ok(compare(*op, l.get(r), r_vals.get(r))))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let l = eval_operand(left, batch, mask)?;
                let r_vals = eval_operand(right, batch, mask)?;
                per_row(&mut |r| arith(*op, l.get(r), r_vals.get(r)))
            }
        },
        BoundExpr::Unary { op, expr } => {
            let vals = eval_operand(expr, batch, mask)?;
            per_row(&mut |r| {
                Ok(match (op, vals.get(r)) {
                    (UnOp::Not, v) => match bool3(v) {
                        Some(b) => Value::Bool(!b),
                        None => Value::Null,
                    },
                    (UnOp::Neg, Value::Null) => Value::Null,
                    (UnOp::Neg, Value::Int32(x)) => Value::Int32(-x),
                    (UnOp::Neg, Value::Int64(x)) => Value::Int64(-x),
                    (UnOp::Neg, Value::Float64(x)) => Value::Float64(-x),
                    (UnOp::Neg, other) => {
                        return Err(NoDbError::execution(format!("cannot negate {other}")))
                    }
                })
            })
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let vals = eval_operand(expr, batch, mask)?;
            // A constant pattern (the common case) is borrowed, not
            // repeated per row; a computed one is checked per row exactly
            // like the scalar path.
            let pats = eval_operand(pattern, batch, mask)?;
            per_row(&mut |r| {
                let pat = match pats.get(r) {
                    Value::Null => return Ok(Value::Null),
                    Value::Text(s) => s.as_str(),
                    other => {
                        return Err(NoDbError::execution(format!(
                            "LIKE pattern is non-text {other}"
                        )))
                    }
                };
                match vals.get(r) {
                    Value::Null => Ok(Value::Null),
                    Value::Text(s) => Ok(Value::Bool(like_match(s, pat) != *negated)),
                    other => Err(NoDbError::execution(format!("LIKE on non-text {other}"))),
                }
            })
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let vals = eval_operand(expr, batch, mask)?;
            let lo = eval_operand(low, batch, mask)?;
            let hi = eval_operand(high, batch, mask)?;
            per_row(&mut |r| {
                let v = vals.get(r);
                let ge = v.sql_cmp(lo.get(r)).map(|o| o != std::cmp::Ordering::Less);
                let le = v
                    .sql_cmp(hi.get(r))
                    .map(|o| o != std::cmp::Ordering::Greater);
                Ok(match (ge, le) {
                    (Some(a), Some(b)) => Value::Bool((a && b) != *negated),
                    _ => Value::Null,
                })
            })
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let vals = eval_operand(expr, batch, mask)?;
            per_row(&mut |r| {
                let v = vals.get(r);
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for cand in list {
                    match v.sql_cmp(cand) {
                        Some(std::cmp::Ordering::Equal) => return Ok(Value::Bool(!*negated)),
                        None if cand.is_null() => saw_null = true,
                        _ => {}
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                })
            })
        }
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            // Mask cascade: each branch's condition runs only for rows no
            // earlier branch took; its result runs only for rows it took.
            let mut remaining: Vec<bool> = (0..n).map(|r| active(mask, r)).collect();
            let mut out = vec![Value::Null; n];
            for (cond, res) in branches {
                if !remaining.contains(&true) {
                    break;
                }
                let c = eval_operand(cond, batch, Some(&remaining))?;
                let taken: Vec<bool> = (0..n)
                    .map(|r| remaining[r] && matches!(c.get(r), Value::Bool(true)))
                    .collect();
                if taken.contains(&true) {
                    let vals = eval_operand(res, batch, Some(&taken))?;
                    for r in (0..n).filter(|&r| taken[r]) {
                        out[r] = vals.get(r).clone();
                        remaining[r] = false;
                    }
                }
            }
            if let Some(e) = else_expr {
                if remaining.contains(&true) {
                    let vals = eval_operand(e, batch, Some(&remaining))?;
                    for r in (0..n).filter(|&r| remaining[r]) {
                        out[r] = vals.get(r).clone();
                    }
                }
            }
            Ok(Operand::Owned(out))
        }
        BoundExpr::IsNull { expr, negated } => {
            let vals = eval_operand(expr, batch, mask)?;
            per_row(&mut |r| Ok(Value::Bool(vals.get(r).is_null() != *negated)))
        }
    }
}

fn bool3(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Date ± integer days.
    if let (Value::Date(d), Some(n)) = (l, r.as_i64()) {
        if !matches!(r, Value::Float64(_)) {
            match op {
                BinOp::Add => return Ok(Value::Date(d.add_days(n as i32))),
                BinOp::Sub => {
                    if let Value::Date(d2) = r {
                        return Ok(Value::Int64((d.days() - d2.days()) as i64));
                    }
                    return Ok(Value::Date(d.add_days(-(n as i32))));
                }
                _ => {}
            }
        }
    }
    let use_float =
        matches!(l, Value::Float64(_)) || matches!(r, Value::Float64(_)) || op == BinOp::Div;
    if use_float {
        let (a, b) = (
            l.as_f64()
                .ok_or_else(|| NoDbError::execution(format!("non-numeric operand {l}")))?,
            r.as_f64()
                .ok_or_else(|| NoDbError::execution(format!("non-numeric operand {r}")))?,
        );
        let v = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => {
                if b == 0.0 {
                    return Err(NoDbError::execution("division by zero"));
                }
                a / b
            }
            _ => return Err(not_arith(op)),
        };
        Ok(Value::Float64(v))
    } else {
        let (a, b) = (
            l.as_i64()
                .ok_or_else(|| NoDbError::execution(format!("non-numeric operand {l}")))?,
            r.as_i64()
                .ok_or_else(|| NoDbError::execution(format!("non-numeric operand {r}")))?,
        );
        let v = match op {
            BinOp::Add => a.checked_add(b),
            BinOp::Sub => a.checked_sub(b),
            BinOp::Mul => a.checked_mul(b),
            _ => return Err(not_arith(op)),
        }
        .ok_or_else(|| NoDbError::execution("integer overflow"))?;
        Ok(Value::Int64(v))
    }
}

fn not_arith(op: BinOp) -> NoDbError {
    NoDbError::internal(format!("{op:?} reached arithmetic evaluation"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::Date;

    fn row() -> Row {
        Row(vec![
            Value::Int32(10),
            Value::Float64(2.5),
            Value::Text("PROMO ANODIZED".into()),
            Value::Null,
            Value::Date(Date::parse("1994-06-15").unwrap()),
        ])
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Col(i)
    }

    fn lit(v: Value) -> BoundExpr {
        BoundExpr::Lit(v)
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic_coerces_and_divides_as_float() {
        let r = row();
        assert_eq!(
            eval(&bin(BinOp::Mul, col(0), col(1)), &r).unwrap(),
            Value::Float64(25.0)
        );
        assert_eq!(
            eval(&bin(BinOp::Add, col(0), lit(Value::Int64(5))), &r).unwrap(),
            Value::Int64(15)
        );
        assert_eq!(
            eval(
                &bin(BinOp::Div, lit(Value::Int64(7)), lit(Value::Int64(2))),
                &r
            )
            .unwrap(),
            Value::Float64(3.5)
        );
    }

    #[test]
    fn division_by_zero_errors() {
        let r = row();
        assert!(eval(
            &bin(BinOp::Div, lit(Value::Int64(1)), lit(Value::Int64(0))),
            &r
        )
        .is_err());
    }

    #[test]
    fn null_propagates_through_arith_and_cmp() {
        let r = row();
        assert_eq!(
            eval(&bin(BinOp::Add, col(3), col(0)), &r).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval(&bin(BinOp::Eq, col(3), col(0)), &r).unwrap(),
            Value::Null
        );
        assert!(!eval_predicate(&bin(BinOp::Eq, col(3), col(0)), &r).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let r = row();
        let null = col(3);
        let t = lit(Value::Bool(true));
        let f = lit(Value::Bool(false));
        assert_eq!(
            eval(&bin(BinOp::And, f.clone(), null.clone()), &r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&bin(BinOp::And, t.clone(), null.clone()), &r).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval(&bin(BinOp::Or, t.clone(), null.clone()), &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&bin(BinOp::Or, f.clone(), null.clone()), &r).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn like_between_inlist() {
        let r = row();
        let like = BoundExpr::Like {
            expr: Box::new(col(2)),
            pattern: Box::new(lit(Value::Text("PROMO%".into()))),
            negated: false,
        };
        assert_eq!(eval(&like, &r).unwrap(), Value::Bool(true));
        // Non-literal pattern: evaluated per row; NULL pattern -> NULL.
        let like_col = BoundExpr::Like {
            expr: Box::new(col(2)),
            pattern: Box::new(col(2)),
            negated: false,
        };
        assert_eq!(eval(&like_col, &r).unwrap(), Value::Bool(true));
        let like_null = BoundExpr::Like {
            expr: Box::new(col(2)),
            pattern: Box::new(lit(Value::Null)),
            negated: false,
        };
        assert_eq!(eval(&like_null, &r).unwrap(), Value::Null);
        let between = BoundExpr::Between {
            expr: Box::new(col(0)),
            low: Box::new(lit(Value::Int64(5))),
            high: Box::new(lit(Value::Int64(10))),
            negated: false,
        };
        assert_eq!(eval(&between, &r).unwrap(), Value::Bool(true));
        let inlist = BoundExpr::InList {
            expr: Box::new(col(0)),
            list: vec![Value::Int64(1), Value::Int64(10)],
            negated: false,
        };
        assert_eq!(eval(&inlist, &r).unwrap(), Value::Bool(true));
        let notin = BoundExpr::InList {
            expr: Box::new(col(0)),
            list: vec![Value::Int64(1)],
            negated: true,
        };
        assert_eq!(eval(&notin, &r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn case_falls_through_to_else() {
        let r = row();
        let case = BoundExpr::Case {
            branches: vec![(
                bin(BinOp::Gt, col(0), lit(Value::Int64(100))),
                lit(Value::Int64(1)),
            )],
            else_expr: Some(Box::new(lit(Value::Int64(0)))),
        };
        assert_eq!(eval(&case, &r).unwrap(), Value::Int64(0));
        let no_else = BoundExpr::Case {
            branches: vec![(
                bin(BinOp::Gt, col(0), lit(Value::Int64(100))),
                lit(Value::Int64(1)),
            )],
            else_expr: None,
        };
        assert_eq!(eval(&no_else, &r).unwrap(), Value::Null);
    }

    #[test]
    fn date_minus_date_and_date_plus_days() {
        let r = row();
        let base = Date::parse("1994-06-15").unwrap();
        assert_eq!(
            eval(&bin(BinOp::Add, col(4), lit(Value::Int64(10))), &r).unwrap(),
            Value::Date(base.add_days(10))
        );
        assert_eq!(
            eval(
                &bin(BinOp::Sub, col(4), lit(Value::Date(base.add_days(-5)))),
                &r
            )
            .unwrap(),
            Value::Int64(5)
        );
    }

    #[test]
    fn is_null_checks() {
        let r = row();
        let isnull = BoundExpr::IsNull {
            expr: Box::new(col(3)),
            negated: false,
        };
        assert_eq!(eval(&isnull, &r).unwrap(), Value::Bool(true));
        let isnotnull = BoundExpr::IsNull {
            expr: Box::new(col(0)),
            negated: true,
        };
        assert_eq!(eval(&isnotnull, &r).unwrap(), Value::Bool(true));
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Col(i)
    }

    fn lit(v: Value) -> BoundExpr {
        BoundExpr::Lit(v)
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn sample_batch() -> ValueBatch {
        ValueBatch::from_rows(vec![
            Row(vec![Value::Int64(0), Value::Text("PROMO A".into())]),
            Row(vec![Value::Int64(4), Value::Null]),
            Row(vec![Value::Null, Value::Text("ECONOMY".into())]),
            Row(vec![Value::Int64(-3), Value::Text("PROMO B".into())]),
        ])
    }

    /// Batch evaluation must equal row-at-a-time evaluation value for
    /// value on every expression shape.
    fn assert_matches_row_eval(e: &BoundExpr) {
        let b = sample_batch();
        let got = eval_batch(e, &b).unwrap();
        for r in 0..b.num_rows() {
            let row = Row(b.row_values(r));
            assert_eq!(got[r], eval(e, &row).unwrap(), "row {r} of {e:?}");
        }
    }

    #[test]
    fn batch_matches_row_eval_across_shapes() {
        let shapes = vec![
            col(0),
            lit(Value::Int64(7)),
            bin(BinOp::Gt, col(0), lit(Value::Int64(1))),
            bin(BinOp::Add, col(0), col(0)),
            bin(
                BinOp::And,
                bin(BinOp::Gt, col(0), lit(Value::Int64(0))),
                bin(BinOp::Lt, col(0), lit(Value::Int64(10))),
            ),
            bin(
                BinOp::Or,
                bin(BinOp::Lt, col(0), lit(Value::Int64(0))),
                bin(BinOp::Gt, col(0), lit(Value::Int64(3))),
            ),
            BoundExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(col(0)),
            },
            BoundExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(bin(BinOp::Eq, col(0), lit(Value::Int64(4)))),
            },
            BoundExpr::Like {
                expr: Box::new(col(1)),
                pattern: Box::new(lit(Value::Text("PROMO%".into()))),
                negated: false,
            },
            BoundExpr::Like {
                expr: Box::new(col(1)),
                pattern: Box::new(col(1)),
                negated: true,
            },
            BoundExpr::Between {
                expr: Box::new(col(0)),
                low: Box::new(lit(Value::Int64(0))),
                high: Box::new(lit(Value::Int64(4))),
                negated: false,
            },
            BoundExpr::InList {
                expr: Box::new(col(0)),
                list: vec![Value::Int64(4), Value::Null],
                negated: false,
            },
            BoundExpr::Case {
                branches: vec![
                    (
                        bin(BinOp::Gt, col(0), lit(Value::Int64(0))),
                        lit(Value::Text("pos".into())),
                    ),
                    (
                        bin(BinOp::Lt, col(0), lit(Value::Int64(0))),
                        lit(Value::Text("neg".into())),
                    ),
                ],
                else_expr: Some(Box::new(lit(Value::Text("zero".into())))),
            },
            BoundExpr::IsNull {
                expr: Box::new(col(1)),
                negated: false,
            },
        ];
        for e in &shapes {
            assert_matches_row_eval(e);
        }
    }

    #[test]
    fn and_short_circuit_skips_errors_per_row() {
        // x <> 0 AND 10 / x > 1: the row with x = 0 must not divide.
        let e = bin(
            BinOp::And,
            bin(BinOp::NotEq, col(0), lit(Value::Int64(0))),
            bin(
                BinOp::Gt,
                bin(BinOp::Div, lit(Value::Int64(10)), col(0)),
                lit(Value::Int64(1)),
            ),
        );
        assert_matches_row_eval(&e);
        // ... and OR short-circuits the same way.
        let e = bin(
            BinOp::Or,
            bin(BinOp::Eq, col(0), lit(Value::Int64(0))),
            bin(
                BinOp::Gt,
                bin(BinOp::Div, lit(Value::Int64(10)), col(0)),
                lit(Value::Int64(1)),
            ),
        );
        assert_matches_row_eval(&e);
    }

    #[test]
    fn batch_errors_when_any_active_row_errors() {
        let b = sample_batch();
        // Unguarded division: row 0 has x = 0, so the batch must error
        // just as the row path does when it reaches that row.
        let e = bin(BinOp::Div, lit(Value::Int64(10)), col(0));
        assert!(eval_batch(&e, &b).is_err());
    }

    #[test]
    fn predicate_batch_matches_row_predicate() {
        let b = sample_batch();
        let e = bin(BinOp::Gt, col(0), lit(Value::Int64(0)));
        let got = eval_predicate_batch(&e, &b).unwrap();
        for r in 0..b.num_rows() {
            let row = Row(b.row_values(r));
            assert_eq!(got[r], eval_predicate(&e, &row).unwrap());
        }
    }

    #[test]
    fn out_of_range_column_errors() {
        let b = sample_batch();
        assert!(eval_batch(&col(9), &b).is_err());
    }
}
