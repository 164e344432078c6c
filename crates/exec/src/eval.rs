//! Expression evaluation with SQL three-valued logic over a batch's typed
//! columns ([`eval_batch`], [`eval_predicate_batch`]): the one evaluator
//! every leaf's filters, every `WHERE`, projection and aggregate argument
//! runs through.
//!
//! The evaluator dispatches on column type once per expression node
//! per batch. Typed kernels cover comparisons, arithmetic, AND/OR/NOT,
//! BETWEEN, IN, LIKE, IS NULL and CASE over the typed vectors and the text
//! arena; every other combination of operator and operand types runs one
//! generic per-row kernel through [`Value`]. Both follow one typing rule ([`BoundExpr::infer_type`],
//! [`BinOp::arith_type`]): integers of either width add to `Int64`, any
//! float or `/` gives `Float64`, `Date ± integer` gives `Date`, and a CASE
//! widens its branches to their widest numeric type.

use std::borrow::Cow;

use nodb_common::column::Data;
use nodb_common::like::like_match;
use nodb_common::{Column, DataType, Date, NoDbError, Result, Value};
use nodb_sql::{BinOp, BoundExpr, UnOp};

use crate::batch::ValueBatch;

/// A comparison's three-valued result: NULL when the operands are
/// incomparable (either is NULL, or the types do not compare).
#[inline]
fn compare(op: BinOp, l: &Value, r: &Value) -> Value {
    l.sql_cmp(r)
        .and_then(|ord| op.holds(ord))
        .map_or(Value::Null, Value::Bool)
}

fn negate(v: &Value) -> Result<Value> {
    Ok(match v {
        Value::Null => Value::Null,
        Value::Int32(x) => Value::Int32(x.checked_neg().ok_or_else(overflow)?),
        Value::Int64(x) => Value::Int64(x.checked_neg().ok_or_else(overflow)?),
        Value::Float64(x) => Value::Float64(-x),
        other => return Err(NoDbError::execution(format!("cannot negate {other}"))),
    })
}

fn overflow() -> NoDbError {
    NoDbError::execution("integer overflow")
}

// ----- vectorized evaluation --------------------------------------------

/// One subexpression evaluated over a batch. Column and literal leaves
/// are borrowed — a column as the batch's own typed column, a literal as
/// one scalar standing for every row — so only computed nodes allocate.
#[derive(Debug)]
pub(crate) enum Operand<'a> {
    /// A batch column.
    Col(&'a Column),
    /// One value for every row (a literal).
    Scalar(&'a Value),
    /// A column computed for this batch.
    Owned(Column),
}

impl Operand<'_> {
    /// The typed column, unless this is a scalar.
    #[inline]
    pub(crate) fn column(&self) -> Option<&Column> {
        match self {
            Operand::Col(c) => Some(c),
            Operand::Owned(c) => Some(c),
            Operand::Scalar(_) => None,
        }
    }

    /// The value type (`None` for a NULL scalar).
    fn dtype(&self) -> Option<DataType> {
        match self {
            Operand::Scalar(v) => v.data_type(),
            _ => self.column().map(Column::dtype),
        }
    }

    /// The value of lane `r` (built for a column lane).
    #[inline]
    pub(crate) fn value(&self, r: usize) -> Cow<'_, Value> {
        match self {
            Operand::Scalar(v) => Cow::Borrowed(*v),
            _ => Cow::Owned(self.column().map_or(Value::Null, |c| c.value(r))),
        }
    }

    /// The values as an owned column of `n` lanes (`dtype` types a NULL
    /// scalar).
    fn into_column(self, n: usize, dtype: DataType) -> Result<Column> {
        match self {
            Operand::Col(c) => Ok(c.clone()),
            Operand::Scalar(v) => Column::splat(v, dtype, n),
            Operand::Owned(c) => Ok(c),
        }
    }
}

/// Evaluate an expression over every row of a batch, one typed loop per
/// operator node instead of one tree walk per row.
///
/// Produces exactly the values a row-at-a-time evaluator would (the
/// tests hold it to one). The short-circuit rules are preserved *per row* via selection masks: the
/// right side of an `AND` is only evaluated for rows whose left side is
/// not FALSE (so `x <> 0 AND 10 / x > 1` never divides by zero), and
/// `CASE` branch results are only evaluated for rows their condition
/// selected. A kernel may compute a deselected lane but never fails on
/// one, so a query errors under batch evaluation iff it errors row at a
/// time; when several rows would error, which error surfaces first
/// may differ.
pub fn eval_batch(expr: &BoundExpr, batch: &ValueBatch) -> Result<Column> {
    let n = batch.num_rows();
    let dtype = expr.infer_type(&batch.types());
    eval_operand(expr, batch, None)?.into_column(n, dtype)
}

/// Evaluate as a WHERE predicate over a whole batch: per row, TRUE passes.
pub fn eval_predicate_batch(expr: &BoundExpr, batch: &ValueBatch) -> Result<Vec<bool>> {
    let v = eval_operand(expr, batch, None)?;
    Ok(truth(&v, batch.num_rows()).0)
}

/// Is row `r` selected by the (optional) mask?
#[inline]
fn active(mask: Option<&[bool]>, r: usize) -> bool {
    mask.is_none_or(|m| m.get(r).copied().unwrap_or(false))
}

/// Masked batch evaluation: rows deselected by `mask` are not evaluated
/// where evaluating could fail — the mechanism behind per-row
/// short-circuiting. Their lanes are NULL or whatever the kernel
/// computed; callers never read deselected lanes. Unmasked, this is
/// [`eval_batch`] without materializing leaves (aggregate arguments read a
/// bare column in place).
pub(crate) fn eval_operand<'a>(
    expr: &'a BoundExpr,
    batch: &'a ValueBatch,
    mask: Option<&[bool]>,
) -> Result<Operand<'a>> {
    let n = batch.num_rows();
    // The generic kernel: one output value per active row, `f(r)`, into
    // a column of the expression's type; NULL on deselected rows.
    let per_row = |f: &mut dyn FnMut(usize) -> Result<Value>| -> Result<Operand<'a>> {
        let mut out = Column::with_capacity(expr.infer_type(&batch.types()), n);
        for r in 0..n {
            if active(mask, r) {
                out.push_value(&f(r)?)?;
            } else {
                out.push_null();
            }
        }
        Ok(Operand::Owned(out))
    };
    match expr {
        BoundExpr::Col(i) => batch
            .col(*i)
            .map(Operand::Col)
            .ok_or_else(|| NoDbError::internal(format!("column #{i} out of range"))),
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
                let is_and = *op == BinOp::And;
                let (lt, lf) = truth(&eval_operand(left, batch, mask)?, n);
                let decided = if is_and { &lf } else { &lt };
                let need: Vec<bool> = (0..n).map(|r| active(mask, r) && !decided[r]).collect();
                let (rt, rf) = if need.contains(&true) {
                    truth(&eval_operand(right, batch, Some(&need))?, n)
                } else {
                    (vec![false; n], vec![false; n])
                };
                // Undecided rows take the right side's word where it
                // decides, else TRUE AND TRUE / FALSE OR FALSE.
                let (t, f): (Vec<bool>, Vec<bool>) = (0..n)
                    .map(|r| match (need[r], is_and) {
                        (false, true) => (false, true),
                        (false, false) => (true, false),
                        (true, true) => (lt[r] && rt[r], rf[r]),
                        (true, false) => (rt[r], lf[r] && rf[r]),
                    })
                    .unzip();
                Ok(Operand::Owned(from_truth(t, &f)))
            }
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                let l = eval_operand(left, batch, mask)?;
                let r = eval_operand(right, batch, mask)?;
                Ok(Operand::Owned(compare_operands(*op, &l, &r, n, mask)?))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let l = eval_operand(left, batch, mask)?;
                let r = eval_operand(right, batch, mask)?;
                if let Some(c) = typed_arith(*op, &l, &r, n, mask)? {
                    return Ok(Operand::Owned(c));
                }
                per_row(&mut |i| arith(*op, &l.value(i), &r.value(i)))
            }
        },
        BoundExpr::Unary { op, expr } => {
            let vals = eval_operand(expr, batch, mask)?;
            match op {
                UnOp::Not => {
                    let (t, f) = truth(&vals, n);
                    Ok(Operand::Owned(from_truth(f, &t)))
                }
                UnOp::Neg => {
                    if let Some(c) = vals
                        .column()
                        .and_then(|c| typed_negate(c, mask).transpose())
                    {
                        return Ok(Operand::Owned(c?));
                    }
                    per_row(&mut |r| negate(&vals.value(r)))
                }
            }
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let vals = eval_operand(expr, batch, mask)?;
            let pats = eval_operand(pattern, batch, mask)?;
            // A constant pattern over a text column (the common case)
            // matches arena slices in place; a computed pattern, or a
            // non-text operand, is checked per row like the scalar path.
            if let (Some(Data::Text(t)), Operand::Scalar(Value::Text(p))) =
                (vals.column().map(Column::data), &pats)
            {
                let col = vals.column();
                let lanes = (0..n)
                    .map(|r| like_match(t.get(r), p) != *negated)
                    .collect();
                let valid: Vec<bool> = (0..n).map(|r| col.is_some_and(|c| c.is_valid(r))).collect();
                return Ok(Operand::Owned(Column::from_parts(
                    Data::Bool(lanes),
                    &valid,
                )));
            }
            per_row(&mut |r| {
                let pat = match pats.value(r).into_owned() {
                    Value::Null => return Ok(Value::Null),
                    Value::Text(s) => s,
                    other => {
                        return Err(NoDbError::execution(format!(
                            "LIKE pattern is non-text {other}"
                        )))
                    }
                };
                match vals.value(r).as_ref() {
                    Value::Null => Ok(Value::Null),
                    Value::Text(s) => Ok(Value::Bool(like_match(s, &pat) != *negated)),
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
            let ge = compare_operands(BinOp::GtEq, &vals, &lo, n, mask)?;
            let le = compare_operands(BinOp::LtEq, &vals, &hi, n, mask)?;
            let (Data::Bool(a), Data::Bool(b)) = (ge.data(), le.data()) else {
                return Err(NoDbError::internal(
                    "comparison produced a non-boolean column",
                ));
            };
            let lanes = a
                .iter()
                .zip(b)
                .map(|(&a, &b)| (a && b) != *negated)
                .collect();
            let valid: Vec<bool> = (0..n).map(|r| ge.is_valid(r) && le.is_valid(r)).collect();
            Ok(Operand::Owned(Column::from_parts(
                Data::Bool(lanes),
                &valid,
            )))
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let vals = eval_operand(expr, batch, mask)?;
            if let Some(c) = vals.column().and_then(|c| typed_in_list(c, list, *negated)) {
                return Ok(Operand::Owned(c));
            }
            per_row(&mut |r| Ok(in_list(&vals.value(r), list, *negated)))
        }
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            // Mask cascade: each branch's condition runs only for rows no
            // earlier branch took; its result runs only for rows it took.
            let mut remaining: Vec<bool> = (0..n).map(|r| active(mask, r)).collect();
            // Per row, the index of the result it takes (`results.len()`
            // for none: NULL).
            let mut choice = vec![usize::MAX; n];
            let mut results: Vec<Operand<'a>> = Vec::new();
            for (cond, res) in branches {
                if !remaining.contains(&true) {
                    break;
                }
                let (taken, _) = truth(&eval_operand(cond, batch, Some(&remaining))?, n);
                let taken: Vec<bool> = (0..n).map(|r| remaining[r] && taken[r]).collect();
                if taken.contains(&true) {
                    let k = results.len();
                    results.push(eval_operand(res, batch, Some(&taken))?);
                    for r in (0..n).filter(|&r| taken[r]) {
                        choice[r] = k;
                        remaining[r] = false;
                    }
                }
            }
            if let Some(e) = else_expr {
                if remaining.contains(&true) {
                    let k = results.len();
                    results.push(eval_operand(e, batch, Some(&remaining))?);
                    for r in (0..n).filter(|&r| remaining[r]) {
                        choice[r] = k;
                    }
                }
            }
            // Gather each row's result into the CASE's one type.
            let mut out = Column::with_capacity(expr.infer_type(&batch.types()), n);
            for (r, &k) in choice.iter().enumerate() {
                match results.get(k) {
                    Some(Operand::Scalar(v)) => out.push_value(v)?,
                    Some(res) => match res.column() {
                        Some(c) => out.push_from(c, r)?,
                        None => out.push_null(),
                    },
                    None => out.push_null(),
                }
            }
            Ok(Operand::Owned(out))
        }
        BoundExpr::IsNull { expr, negated } => {
            let vals = eval_operand(expr, batch, mask)?;
            let lanes = valid_lanes(&vals, n, None)
                .into_iter()
                .map(|ok| ok == *negated)
                .collect();
            Ok(Operand::Owned(Column::from_data(Data::Bool(lanes))))
        }
    }
}

/// Per lane, is the operand TRUE, and is it FALSE? (Neither: NULL, or not
/// a boolean — which a predicate treats as not TRUE.)
fn truth(v: &Operand<'_>, n: usize) -> (Vec<bool>, Vec<bool>) {
    match v {
        Operand::Scalar(Value::Bool(b)) => (vec![*b; n], vec![!*b; n]),
        Operand::Scalar(_) => (vec![false; n], vec![false; n]),
        _ => match v.column() {
            Some(c) => match c.data() {
                Data::Bool(b) if c.null_count() == 0 => {
                    let t: Vec<bool> = b.iter().take(n).copied().collect();
                    let f = t.iter().map(|&x| !x).collect();
                    (t, f)
                }
                Data::Bool(b) => (0..n)
                    .map(|r| {
                        let (ok, x) = (c.is_valid(r), b.get(r).copied().unwrap_or(false));
                        (ok && x, ok && !x)
                    })
                    .unzip(),
                _ => (vec![false; n], vec![false; n]),
            },
            None => (vec![false; n], vec![false; n]),
        },
    }
}

/// A boolean column TRUE where `t`, FALSE where `f`, NULL elsewhere.
fn from_truth(t: Vec<bool>, f: &[bool]) -> Column {
    let valid: Vec<bool> = t.iter().zip(f).map(|(&t, &f)| t || f).collect();
    Column::from_parts(Data::Bool(t), &valid)
}

/// The validity of `l op r` per lane: both operands valid, and the lane
/// active (a deselected lane reads as NULL).
fn both_valid(l: &Operand<'_>, r: &Operand<'_>, n: usize, mask: Option<&[bool]>) -> Vec<bool> {
    let mut out = valid_lanes(l, n, mask);
    and_valid(&mut out, r);
    out
}

/// Per lane: active, and a value (not NULL) in `v`.
fn valid_lanes(v: &Operand<'_>, n: usize, mask: Option<&[bool]>) -> Vec<bool> {
    let mut out = match mask {
        Some(m) => (0..n).map(|r| m.get(r).copied().unwrap_or(false)).collect(),
        None => vec![true; n],
    };
    and_valid(&mut out, v);
    out
}

/// Clear the lanes of `out` where `v` is NULL.
fn and_valid(out: &mut [bool], v: &Operand<'_>) {
    match v {
        Operand::Scalar(s) if s.is_null() => out.fill(false),
        Operand::Scalar(_) => {}
        _ => {
            if let Some(c) = v.column().filter(|c| c.null_count() > 0) {
                for (i, o) in out.iter_mut().enumerate() {
                    *o &= c.is_valid(i);
                }
            }
        }
    }
}

/// One operand's lanes as values of one primitive type: a column's own
/// slice, a converted copy, or one scalar for every lane.
enum Lanes<'a, T> {
    Slice(&'a [T]),
    Owned(Vec<T>),
    Splat(T),
}

impl<T: Copy> Lanes<'_, T> {
    fn slice(&self) -> Option<&[T]> {
        match self {
            Lanes::Slice(s) => Some(s),
            Lanes::Owned(v) => Some(v),
            Lanes::Splat(_) => None,
        }
    }
}

/// `f` over the lanes of `l` and `r` pairwise: the one loop every typed
/// binary kernel runs, monomorphized per lane type and operator.
#[inline]
fn zip_lanes<T: Copy, U: Clone>(
    l: &Lanes<'_, T>,
    r: &Lanes<'_, T>,
    n: usize,
    f: impl Fn(T, T) -> U,
) -> Vec<U> {
    match (l, r, l.slice(), r.slice()) {
        (_, _, Some(a), Some(b)) => a.iter().zip(b).take(n).map(|(&x, &y)| f(x, y)).collect(),
        (_, Lanes::Splat(y), Some(a), None) => a.iter().take(n).map(|&x| f(x, *y)).collect(),
        (Lanes::Splat(x), _, None, Some(b)) => b.iter().take(n).map(|&y| f(*x, y)).collect(),
        (Lanes::Splat(x), Lanes::Splat(y), _, _) => vec![f(*x, *y); n],
        _ => Vec::new(),
    }
}

/// Integer lanes (`Int32`, `Int64`, and a date's day number) as `i64`.
fn lanes_i64<'a>(v: &'a Operand<'_>) -> Option<Lanes<'a, i64>> {
    Some(match v {
        Operand::Scalar(s) => Lanes::Splat(s.as_i64()?),
        _ => match v.column()?.data() {
            Data::Int64(x) => Lanes::Slice(x),
            Data::Int32(x) | Data::Date(x) => {
                Lanes::Owned(x.iter().map(|&x| i64::from(x)).collect())
            }
            _ => return None,
        },
    })
}

/// 32-bit lanes (`Int32`, or a date's day number).
fn lanes_i32<'a>(v: &'a Operand<'_>) -> Option<Lanes<'a, i32>> {
    Some(match v {
        Operand::Scalar(Value::Int32(x)) => Lanes::Splat(*x),
        Operand::Scalar(Value::Date(d)) => Lanes::Splat(d.days()),
        Operand::Scalar(_) => return None,
        _ => match v.column()?.data() {
            Data::Int32(x) | Data::Date(x) => Lanes::Slice(x),
            _ => return None,
        },
    })
}

/// Numeric lanes as `f64`.
fn lanes_f64<'a>(v: &'a Operand<'_>) -> Option<Lanes<'a, f64>> {
    Some(match v {
        Operand::Scalar(s) => Lanes::Splat(s.as_f64()?),
        _ => match v.column()?.data() {
            Data::Float64(x) => Lanes::Slice(x),
            Data::Int64(x) => Lanes::Owned(x.iter().map(|&x| x as f64).collect()),
            Data::Int32(x) => Lanes::Owned(x.iter().map(|&x| f64::from(x)).collect()),
            _ => return None,
        },
    })
}

fn lanes_bool<'a>(v: &'a Operand<'_>) -> Option<Lanes<'a, bool>> {
    Some(match v {
        Operand::Scalar(s) => Lanes::Splat(s.as_bool()?),
        _ => match v.column()?.data() {
            Data::Bool(x) => Lanes::Slice(x),
            _ => return None,
        },
    })
}

/// `l op r` for one comparison operator over lanes of one type.
fn compare_lanes<T: Copy + PartialOrd>(
    op: BinOp,
    l: &Lanes<'_, T>,
    r: &Lanes<'_, T>,
    n: usize,
) -> Vec<bool> {
    match op {
        BinOp::Eq => zip_lanes(l, r, n, |a, b| a == b),
        BinOp::NotEq => zip_lanes(l, r, n, |a, b| a != b),
        BinOp::Lt => zip_lanes(l, r, n, |a, b| a < b),
        BinOp::LtEq => zip_lanes(l, r, n, |a, b| a <= b),
        BinOp::Gt => zip_lanes(l, r, n, |a, b| a > b),
        _ => zip_lanes(l, r, n, |a, b| a >= b),
    }
}

/// A comparison over a batch, as a boolean column: typed for numbers of
/// any width, dates, booleans and text, through [`Value::sql_cmp`] per
/// row for any other pair of types.
fn compare_operands(
    op: BinOp,
    l: &Operand<'_>,
    r: &Operand<'_>,
    n: usize,
    mask: Option<&[bool]>,
) -> Result<Column> {
    use DataType::{Bool, Date, Float64, Int32, Int64, Text};
    let (Some(lt), Some(rt)) = (l.dtype(), r.dtype()) else {
        return Ok(Column::nulls(DataType::Bool, n));
    };
    let mut valid = both_valid(l, r, n, mask);
    let lanes = match (lt, rt) {
        (Int32 | Date, Int32) | (Date, Date) if lt == rt => lanes_i32(l)
            .zip(lanes_i32(r))
            .map(|(a, b)| compare_lanes(op, &a, &b, n)),
        (Int32 | Int64, Int32 | Int64) => lanes_i64(l)
            .zip(lanes_i64(r))
            .map(|(a, b)| compare_lanes(op, &a, &b, n)),
        (Int32 | Int64 | Float64, Int32 | Int64 | Float64) => {
            lanes_f64(l).zip(lanes_f64(r)).map(|(a, b)| {
                // NaN compares as NULL, as `sql_cmp` has it.
                let nan = zip_lanes(&a, &b, n, |x: f64, y: f64| x.is_nan() || y.is_nan());
                for (v, nan) in valid.iter_mut().zip(nan) {
                    *v &= !nan;
                }
                compare_lanes(op, &a, &b, n)
            })
        }
        (Bool, Bool) => lanes_bool(l)
            .zip(lanes_bool(r))
            .map(|(a, b)| compare_lanes(op, &a, &b, n)),
        (Text, Text) => compare_text(op, l, r, n),
        _ => None,
    };
    match lanes {
        Some(lanes) => Ok(Column::from_parts(Data::Bool(lanes), &valid)),
        None => {
            let mut out = Column::with_capacity(DataType::Bool, n);
            for i in 0..n {
                if active(mask, i) {
                    out.push_value(&compare(op, &l.value(i), &r.value(i)))?;
                } else {
                    out.push_null();
                }
            }
            Ok(out)
        }
    }
}

/// Text comparison over arena slices (byte order is code point order).
fn compare_text(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Vec<bool>> {
    (0..n)
        .map(|i| op.holds(text_at(l, i)?.cmp(text_at(r, i)?)))
        .collect()
}

/// The text of lane `i` (`None` for a non-text operand).
fn text_at<'a>(v: &'a Operand<'_>, i: usize) -> Option<&'a str> {
    match v {
        Operand::Scalar(s) => s.as_str(),
        _ => match v.column()?.data() {
            Data::Text(t) => Some(t.get(i)),
            _ => None,
        },
    }
}

/// Typed arithmetic for numbers of any width and for dates, following
/// [`BinOp::arith_type`]; `None` for operand types it does not cover.
/// Integer overflow, a date past the calendar, and division by zero are
/// errors on active, valid lanes only.
fn typed_arith(
    op: BinOp,
    l: &Operand<'_>,
    r: &Operand<'_>,
    n: usize,
    mask: Option<&[bool]>,
) -> Result<Option<Column>> {
    let (Some(lt), Some(rt)) = (l.dtype(), r.dtype()) else {
        return Ok(None);
    };
    let numeric = lt.is_numeric() && rt.is_numeric();
    let dated =
        lt == DataType::Date && matches!(rt, DataType::Int32 | DataType::Int64 | DataType::Date);
    if !numeric && !dated {
        return Ok(None);
    }
    let valid = both_valid(l, r, n, mask);
    let fails = |bad: Vec<bool>, err: fn() -> NoDbError| -> Result<()> {
        match bad.iter().zip(&valid).any(|(&b, &v)| b && v) {
            true => Err(err()),
            false => Ok(()),
        }
    };
    let data = match op.arith_type(lt, rt) {
        DataType::Float64 => {
            let (Some(a), Some(b)) = (lanes_f64(l), lanes_f64(r)) else {
                return Ok(None);
            };
            match op {
                BinOp::Add => Data::Float64(zip_lanes(&a, &b, n, |x, y| x + y)),
                BinOp::Sub => Data::Float64(zip_lanes(&a, &b, n, |x, y| x - y)),
                BinOp::Mul => Data::Float64(zip_lanes(&a, &b, n, |x, y| x * y)),
                _ => {
                    fails(zip_lanes(&a, &b, n, |_, y| y == 0.0), || {
                        NoDbError::execution("division by zero")
                    })?;
                    Data::Float64(zip_lanes(&a, &b, n, |x, y| x / y))
                }
            }
        }
        DataType::Int64 => {
            let (Some(a), Some(b)) = (lanes_i64(l), lanes_i64(r)) else {
                return Ok(None);
            };
            // Overflow flags first, then the wrapped results: two loops
            // the compiler vectorizes, per operator.
            let (over, vals) = match op {
                BinOp::Add => (
                    zip_lanes(&a, &b, n, |x, y| x.checked_add(y).is_none()),
                    zip_lanes(&a, &b, n, i64::wrapping_add),
                ),
                BinOp::Sub => (
                    zip_lanes(&a, &b, n, |x, y| x.checked_sub(y).is_none()),
                    zip_lanes(&a, &b, n, i64::wrapping_sub),
                ),
                BinOp::Mul => (
                    zip_lanes(&a, &b, n, |x, y| x.checked_mul(y).is_none()),
                    zip_lanes(&a, &b, n, i64::wrapping_mul),
                ),
                _ => return Ok(None),
            };
            fails(over, overflow)?;
            Data::Int64(vals)
        }
        DataType::Date => {
            let (Some(a), Some(b)) = (lanes_i64(l), lanes_i64(r)) else {
                return Ok(None);
            };
            let sign = if op == BinOp::Sub { -1 } else { 1 };
            let days = zip_lanes(&a, &b, n, |d, k| {
                let k = k.checked_mul(sign)?;
                i32::try_from(d.checked_add(k)?).ok()
            });
            fails(days.iter().map(Option::is_none).collect(), overflow)?;
            Data::Date(days.into_iter().map(Option::unwrap_or_default).collect())
        }
        _ => return Ok(None),
    };
    Ok(Some(Column::from_parts(data, &valid)))
}

/// Typed `-x` for a numeric column; `None` for any other type.
fn typed_negate(c: &Column, mask: Option<&[bool]>) -> Result<Option<Column>> {
    let valid = valid_lanes(&Operand::Col(c), c.len(), mask);
    let bad = |over: Vec<bool>| over.iter().zip(&valid).any(|(&o, &v)| o && v);
    let data = match c.data() {
        Data::Int32(x) => {
            if bad(x.iter().map(|v| v.checked_neg().is_none()).collect()) {
                return Err(overflow());
            }
            Data::Int32(x.iter().map(|v| v.wrapping_neg()).collect())
        }
        Data::Int64(x) => {
            if bad(x.iter().map(|v| v.checked_neg().is_none()).collect()) {
                return Err(overflow());
            }
            Data::Int64(x.iter().map(|v| v.wrapping_neg()).collect())
        }
        Data::Float64(x) => Data::Float64(x.iter().map(|v| -v).collect()),
        _ => return Ok(None),
    };
    Ok(Some(Column::from_parts(data, &valid)))
}

/// `v IN (list)` with SQL NULL rules, for one value.
fn in_list(v: &Value, list: &[Value], negated: bool) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    let mut saw_null = false;
    for cand in list {
        match v.sql_cmp(cand) {
            Some(std::cmp::Ordering::Equal) => return Value::Bool(!negated),
            None if cand.is_null() => saw_null = true,
            _ => {}
        }
    }
    if saw_null {
        Value::Null
    } else {
        Value::Bool(negated)
    }
}

/// Typed IN over an integer, date or text column whose candidates are all
/// of the same kind (or NULL); `None` otherwise.
fn typed_in_list(c: &Column, list: &[Value], negated: bool) -> Option<Column> {
    let saw_null = list.iter().any(Value::is_null);
    let cands = list.iter().filter(|v| !v.is_null());
    let hit: Vec<bool> = match c.data() {
        Data::Int32(_) | Data::Int64(_) => {
            let want: Vec<i64> = cands
                .map(|v| match v {
                    Value::Int32(_) | Value::Int64(_) => v.as_i64(),
                    _ => None,
                })
                .collect::<Option<_>>()?;
            let op = Operand::Col(c);
            let lanes = lanes_i64(&op)?;
            let s = lanes.slice()?;
            s.iter().map(|x| want.contains(x)).collect()
        }
        Data::Date(x) => {
            let want: Vec<i32> = cands
                .map(|v| match v {
                    Value::Date(d) => Some(d.days()),
                    _ => None,
                })
                .collect::<Option<_>>()?;
            x.iter().map(|d| want.contains(d)).collect()
        }
        Data::Text(t) => {
            let want: Vec<&str> = cands.map(Value::as_str).collect::<Option<_>>()?;
            (0..c.len()).map(|i| want.contains(&t.get(i))).collect()
        }
        _ => return None,
    };
    let n = c.len();
    // A miss is FALSE (NOT IN: TRUE), or NULL when a candidate is NULL.
    let lanes = hit.iter().map(|&h| h != negated).collect();
    let valid: Vec<bool> = (0..n)
        .map(|r| c.is_valid(r) && (hit[r] || !saw_null))
        .collect();
    Some(Column::from_parts(Data::Bool(lanes), &valid))
}

/// Row-at-a-time arithmetic under [`BinOp::arith_type`].
fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    let (Some(lt), Some(rt)) = (l.data_type(), r.data_type()) else {
        return Ok(Value::Null);
    };
    let non_numeric = |v: &Value| NoDbError::execution(format!("non-numeric operand {v}"));
    match op.arith_type(lt, rt) {
        DataType::Float64 => {
            let a = l.as_f64().ok_or_else(|| non_numeric(l))?;
            let b = r.as_f64().ok_or_else(|| non_numeric(r))?;
            Ok(Value::Float64(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div if b == 0.0 => return Err(NoDbError::execution("division by zero")),
                BinOp::Div => a / b,
                _ => return Err(not_arith(op)),
            }))
        }
        DataType::Date => {
            // Date ± days (a date on the right counts its day number).
            let (Value::Date(d), Some(k)) = (l, r.as_i64()) else {
                return Err(non_numeric(r));
            };
            let k = if op == BinOp::Sub {
                k.checked_neg()
            } else {
                Some(k)
            };
            let days = k
                .and_then(|k| i64::from(d.days()).checked_add(k))
                .and_then(|v| i32::try_from(v).ok())
                .ok_or_else(overflow)?;
            Ok(Value::Date(Date(days)))
        }
        _ => {
            let a = l.as_i64().ok_or_else(|| non_numeric(l))?;
            let b = r.as_i64().ok_or_else(|| non_numeric(r))?;
            let v = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                _ => return Err(not_arith(op)),
            };
            Ok(Value::Int64(v.ok_or_else(overflow)?))
        }
    }
}

fn not_arith(op: BinOp) -> NoDbError {
    NoDbError::internal(format!("{op:?} reached arithmetic evaluation"))
}

/// The row-at-a-time evaluator: one tree walk per row over a [`Row`] of
/// [`Value`]s. No production code runs it; it is the independent oracle
/// the batch evaluator is held to.
#[cfg(test)]
mod row_eval {
    use super::*;
    use nodb_common::Row;

    /// Evaluate an expression against a row. NULL propagates through
    /// arithmetic and comparisons; AND/OR follow Kleene logic.
    pub(super) fn eval(expr: &BoundExpr, row: &Row) -> Result<Value> {
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
                    UnOp::Neg => negate(&v),
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
            } => Ok(in_list(&eval(expr, row)?, list, *negated)),
            BoundExpr::Case {
                branches,
                else_expr,
            } => {
                // The CASE's one type: a branch's number widens to it.
                let types: Vec<DataType> = row.values().iter().map(value_type).collect();
                let target = expr.infer_type(&types);
                let chosen = match branches
                    .iter()
                    .find_map(|(c, r)| eval_predicate(c, row).map(|t| t.then_some(r)).transpose())
                {
                    Some(r) => eval(r?, row)?,
                    None => match else_expr {
                        Some(e) => eval(e, row)?,
                        None => Value::Null,
                    },
                };
                Ok(widen(chosen, target))
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = eval(expr, row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
        }
    }

    /// Evaluate as a WHERE predicate: TRUE passes; FALSE and NULL reject.
    pub(super) fn eval_predicate(expr: &BoundExpr, row: &Row) -> Result<bool> {
        Ok(eval(expr, row)? == Value::Bool(true))
    }

    /// A row value's type for [`BoundExpr::infer_type`] (a NULL types as
    /// nothing in particular).
    fn value_type(v: &Value) -> DataType {
        v.data_type().unwrap_or(DataType::Text)
    }

    /// `v` as a value of the numeric type `target`, when it is a narrower
    /// number; anything else unchanged.
    fn widen(v: Value, target: DataType) -> Value {
        match (target, &v) {
            (DataType::Int64, Value::Int32(x)) => Value::Int64(i64::from(*x)),
            (DataType::Float64, Value::Int32(x)) => Value::Float64(f64::from(*x)),
            (DataType::Float64, Value::Int64(x)) => Value::Float64(*x as f64),
            _ => v,
        }
    }

    fn bool3(v: &Value) -> Option<bool> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::{Date, Row};

    /// The sample row as a one-row batch: `Int32`, `Float64`, `Text`, a
    /// NULL and a `Date`.
    fn batch() -> ValueBatch {
        ValueBatch::from_rows(vec![Row(vec![
            Value::Int32(10),
            Value::Float64(2.5),
            Value::Text("PROMO ANODIZED".into()),
            Value::Null,
            Value::Date(Date::parse("1994-06-15").unwrap()),
        ])])
        .unwrap()
    }

    /// `e` over the sample row, through the batch evaluator.
    fn eval(e: &BoundExpr) -> Result<Value> {
        Ok(eval_batch(e, &batch())?.value(0))
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
        assert_eq!(
            eval(&bin(BinOp::Mul, col(0), col(1))).unwrap(),
            Value::Float64(25.0)
        );
        assert_eq!(
            eval(&bin(BinOp::Add, col(0), lit(Value::Int64(5)))).unwrap(),
            Value::Int64(15)
        );
        assert_eq!(
            eval(&bin(BinOp::Div, lit(Value::Int64(7)), lit(Value::Int64(2)))).unwrap(),
            Value::Float64(3.5)
        );
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(eval(&bin(BinOp::Div, lit(Value::Int64(1)), lit(Value::Int64(0)))).is_err());
    }

    #[test]
    fn null_propagates_through_arith_and_cmp() {
        assert_eq!(eval(&bin(BinOp::Add, col(3), col(0))).unwrap(), Value::Null);
        assert_eq!(eval(&bin(BinOp::Eq, col(3), col(0))).unwrap(), Value::Null);
        let pass = eval_predicate_batch(&bin(BinOp::Eq, col(3), col(0)), &batch()).unwrap();
        assert_eq!(pass, vec![false]);
    }

    #[test]
    fn three_valued_and_or() {
        let null = col(3);
        let t = lit(Value::Bool(true));
        let f = lit(Value::Bool(false));
        assert_eq!(
            eval(&bin(BinOp::And, f.clone(), null.clone())).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&bin(BinOp::And, t.clone(), null.clone())).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval(&bin(BinOp::Or, t.clone(), null.clone())).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&bin(BinOp::Or, f.clone(), null.clone())).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn like_between_inlist() {
        let like = BoundExpr::Like {
            expr: Box::new(col(2)),
            pattern: Box::new(lit(Value::Text("PROMO%".into()))),
            negated: false,
        };
        assert_eq!(eval(&like).unwrap(), Value::Bool(true));
        // Non-literal pattern: evaluated per row; NULL pattern -> NULL.
        let like_col = BoundExpr::Like {
            expr: Box::new(col(2)),
            pattern: Box::new(col(2)),
            negated: false,
        };
        assert_eq!(eval(&like_col).unwrap(), Value::Bool(true));
        let like_null = BoundExpr::Like {
            expr: Box::new(col(2)),
            pattern: Box::new(lit(Value::Null)),
            negated: false,
        };
        assert_eq!(eval(&like_null).unwrap(), Value::Null);
        let between = BoundExpr::Between {
            expr: Box::new(col(0)),
            low: Box::new(lit(Value::Int64(5))),
            high: Box::new(lit(Value::Int64(10))),
            negated: false,
        };
        assert_eq!(eval(&between).unwrap(), Value::Bool(true));
        let inlist = BoundExpr::InList {
            expr: Box::new(col(0)),
            list: vec![Value::Int64(1), Value::Int64(10)],
            negated: false,
        };
        assert_eq!(eval(&inlist).unwrap(), Value::Bool(true));
        let notin = BoundExpr::InList {
            expr: Box::new(col(0)),
            list: vec![Value::Int64(1)],
            negated: true,
        };
        assert_eq!(eval(&notin).unwrap(), Value::Bool(true));
    }

    #[test]
    fn case_falls_through_to_else() {
        let case = BoundExpr::Case {
            branches: vec![(
                bin(BinOp::Gt, col(0), lit(Value::Int64(100))),
                lit(Value::Int64(1)),
            )],
            else_expr: Some(Box::new(lit(Value::Int64(0)))),
        };
        assert_eq!(eval(&case).unwrap(), Value::Int64(0));
        let no_else = BoundExpr::Case {
            branches: vec![(
                bin(BinOp::Gt, col(0), lit(Value::Int64(100))),
                lit(Value::Int64(1)),
            )],
            else_expr: None,
        };
        assert_eq!(eval(&no_else).unwrap(), Value::Null);
    }

    #[test]
    fn date_minus_date_and_date_plus_days() {
        let base = Date::parse("1994-06-15").unwrap();
        assert_eq!(
            eval(&bin(BinOp::Add, col(4), lit(Value::Int64(10)))).unwrap(),
            Value::Date(base.add_days(10))
        );
        assert_eq!(
            eval(&bin(
                BinOp::Sub,
                col(4),
                lit(Value::Date(base.add_days(-5)))
            ))
            .unwrap(),
            Value::Int64(5)
        );
    }

    #[test]
    fn is_null_checks() {
        let isnull = BoundExpr::IsNull {
            expr: Box::new(col(3)),
            negated: false,
        };
        assert_eq!(eval(&isnull).unwrap(), Value::Bool(true));
        let isnotnull = BoundExpr::IsNull {
            expr: Box::new(col(0)),
            negated: true,
        };
        assert_eq!(eval(&isnotnull).unwrap(), Value::Bool(true));
    }
}

#[cfg(test)]
mod batch_tests {
    use super::row_eval::{eval, eval_predicate};
    use super::*;
    use nodb_common::Row;

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

    fn day(s: &str) -> Value {
        Value::Date(Date::parse(s).unwrap())
    }

    /// Columns: 0 `Int64`, 1 `Text`, 2 `Int32`, 3 `Float64`, 4 `Date`,
    /// 5 `Bool`, 6 `Int64` near the top of its range; each has a NULL
    /// lane.
    fn sample_batch() -> ValueBatch {
        let t = |s: &str| Value::Text(s.into());
        let rows = vec![
            vec![
                Value::Int64(0),
                t("PROMO A"),
                Value::Int32(1),
                Value::Float64(1.5),
                day("1994-01-01"),
                Value::Bool(true),
                Value::Int64(i64::MAX),
            ],
            vec![
                Value::Int64(4),
                Value::Null,
                Value::Null,
                Value::Float64(4.0),
                day("1969-12-25"),
                Value::Bool(false),
                Value::Int64(1),
            ],
            vec![
                Value::Null,
                t("ECONOMY"),
                Value::Int32(7),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
            vec![
                Value::Int64(-3),
                t("PROMO B"),
                Value::Int32(-2),
                Value::Float64(-0.0),
                day("1995-06-30"),
                Value::Bool(true),
                Value::Int64(-5),
            ],
            vec![
                Value::Int64(7),
                t("LARGE"),
                Value::Int32(4),
                Value::Float64(4.0),
                day("1994-01-01"),
                Value::Bool(false),
                Value::Int64(2),
            ],
        ];
        ValueBatch::from_rows(rows.into_iter().map(Row).collect()).unwrap()
    }

    /// Batch evaluation must equal row-at-a-time evaluation value for
    /// value (and type for type), or fail with the same error.
    fn assert_matches_row_eval(e: &BoundExpr) {
        let b = sample_batch();
        let rows: Vec<Result<Value>> = (0..b.num_rows())
            .map(|r| eval(e, &Row(b.row_values(r))))
            .collect();
        match eval_batch(e, &b) {
            Ok(got) => {
                for (r, want) in rows.into_iter().enumerate() {
                    let want = want.unwrap_or_else(|err| panic!("row {r} of {e:?}: {err}"));
                    assert_eq!(got.value(r), want, "row {r} of {e:?}");
                }
            }
            Err(err) => assert!(
                rows.iter()
                    .any(|w| w.as_ref().is_err_and(|w| w.to_string() == err.to_string())),
                "{e:?}: batch failed with {err}, rows gave {rows:?}"
            ),
        }
    }

    #[test]
    fn batch_matches_row_eval_across_shapes() {
        let mut shapes = vec![
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
            bin(
                BinOp::Or,
                col(5),
                bin(BinOp::Eq, col(2), lit(Value::Int32(7))),
            ),
            BoundExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(col(0)),
            },
            BoundExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(col(3)),
            },
            BoundExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(bin(BinOp::Eq, col(0), lit(Value::Int64(4)))),
            },
            BoundExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(col(5)),
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
            BoundExpr::Between {
                expr: Box::new(col(1)),
                low: Box::new(lit(Value::Text("E".into()))),
                high: Box::new(lit(Value::Text("PROMO A".into()))),
                negated: true,
            },
            BoundExpr::Between {
                expr: Box::new(col(4)),
                low: Box::new(lit(day("1994-01-01"))),
                high: Box::new(col(4)),
                negated: false,
            },
            BoundExpr::InList {
                expr: Box::new(col(0)),
                list: vec![Value::Int64(4), Value::Null],
                negated: false,
            },
            BoundExpr::InList {
                expr: Box::new(col(2)),
                list: vec![Value::Int64(4), Value::Int32(-2)],
                negated: true,
            },
            BoundExpr::InList {
                expr: Box::new(col(1)),
                list: vec![Value::Text("LARGE".into()), Value::Text("PROMO B".into())],
                negated: false,
            },
            BoundExpr::InList {
                expr: Box::new(col(4)),
                list: vec![day("1994-01-01"), Value::Null],
                negated: true,
            },
            BoundExpr::InList {
                expr: Box::new(col(3)),
                list: vec![Value::Int64(4), Value::Float64(1.5)],
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
            // A CASE widens an integer branch to its float branch.
            BoundExpr::Case {
                branches: vec![(bin(BinOp::Gt, col(0), lit(Value::Int64(0))), col(2))],
                else_expr: Some(Box::new(lit(Value::Float64(0.5)))),
            },
            BoundExpr::IsNull {
                expr: Box::new(col(1)),
                negated: false,
            },
            BoundExpr::IsNull {
                expr: Box::new(col(4)),
                negated: true,
            },
            // Date ± integer and Date − Date.
            bin(BinOp::Add, col(4), lit(Value::Int64(30))),
            bin(BinOp::Sub, col(4), col(2)),
            bin(BinOp::Sub, col(4), lit(day("1994-01-01"))),
            bin(BinOp::Sub, col(4), col(4)),
            // Integer widths: Int32 ⊕ Int32 is Int64, like every other.
            bin(BinOp::Add, col(2), col(2)),
            bin(BinOp::Mul, col(2), col(0)),
            bin(BinOp::Sub, col(3), col(2)),
            bin(BinOp::Div, col(3), lit(Value::Int64(2))),
            // i64 overflow: the typed error on both paths.
            bin(BinOp::Add, col(6), col(6)),
            bin(BinOp::Mul, col(6), lit(Value::Int64(3))),
            // Every comparison, literal on either side and column against
            // column, across Int32/Int64/Float64, dates, booleans and text.
            bin(BinOp::Eq, col(5), lit(Value::Bool(true))),
            bin(BinOp::Lt, col(1), col(1)),
            bin(BinOp::GtEq, lit(Value::Text("M".into())), col(1)),
            bin(BinOp::LtEq, col(4), lit(day("1994-01-01"))),
            bin(BinOp::Eq, col(4), col(2)),
            bin(BinOp::Eq, col(1), col(0)),
        ];
        let numeric = [
            col(0),
            col(2),
            col(3),
            lit(Value::Int32(4)),
            lit(Value::Int64(-3)),
            lit(Value::Float64(1.5)),
            lit(Value::Null),
        ];
        for op in [
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ] {
            for l in &numeric {
                for r in &numeric {
                    shapes.push(bin(op, l.clone(), r.clone()));
                }
            }
        }
        for e in &shapes {
            assert_matches_row_eval(e);
        }
        // The overflow shapes fail, on both paths, with the typed error.
        let b = sample_batch();
        let e = bin(BinOp::Add, col(6), col(6));
        let err = eval_batch(&e, &b).unwrap_err().to_string();
        assert!(err.contains("integer overflow"), "{err}");
        let err = eval(&e, &Row(b.row_values(0))).unwrap_err().to_string();
        assert!(err.contains("integer overflow"), "{err}");
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
        // Overflow behind a guard is never reached either.
        let e = bin(
            BinOp::And,
            bin(BinOp::Lt, col(6), lit(Value::Int64(100))),
            bin(
                BinOp::Gt,
                bin(BinOp::Add, col(6), col(6)),
                lit(Value::Int64(0)),
            ),
        );
        assert!(eval_batch(&e, &sample_batch()).is_ok());
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
