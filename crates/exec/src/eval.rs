//! Expression evaluation with SQL three-valued logic over a batch's typed
//! columns ([`eval_batch`], [`eval_predicate_batch`]): the one evaluator
//! every leaf's filters, every `WHERE`, projection and aggregate argument
//! runs through.
//!
//! Every evaluation runs over a *selection*: the batch lanes it is asked
//! about, strictly ascending (MonetDB/X100's selection vectors). A
//! predicate returns the lanes that pass, a boolean its TRUE and FALSE
//! lanes, a value a column whose other lanes nobody reads. Typed kernels,
//! dispatched once per node per batch, cover comparisons, arithmetic,
//! AND/OR/NOT, BETWEEN, IN, LIKE, IS NULL and CASE; any other combination
//! runs a generic per-row kernel through [`Value`] on the selected lanes.
//! Both follow one typing rule ([`BoundExpr::infer_type`],
//! [`BinOp::arith_type`]): integers of either width add to `Int64`, any
//! float or `/` gives `Float64`, `Date ± integer` gives `Date`, and a CASE
//! widens its branches to their widest numeric type.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::OnceLock;

use nodb_common::column::Data;
use nodb_common::like::like_match;
use nodb_common::{Column, DataType, Date, NoDbError, Result, Value};
use nodb_sql::{BinOp, BoundExpr, UnOp};

use crate::batch::{BatchView, ValueBatch};
use crate::key::pack;

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
    /// A batch column: batch lane `i` is lane `at + i` of the column.
    Col(&'a Column, usize),
    /// One value for every row (a literal).
    Scalar(&'a Value),
    /// A column computed for this batch, one lane per batch lane.
    Owned(Column),
}

impl Operand<'_> {
    /// The column and its lane that is batch lane 0 (none for a scalar).
    #[inline]
    fn col_at(&self) -> Option<(&Column, usize)> {
        match self {
            Operand::Col(c, at) => Some((c, *at)),
            Operand::Owned(c) => Some((c, 0)),
            Operand::Scalar(_) => None,
        }
    }

    /// The value type (`None` for a NULL scalar).
    fn dtype(&self) -> Option<DataType> {
        match self {
            Operand::Scalar(v) => v.data_type(),
            _ => self.col_at().map(|(c, _)| c.dtype()),
        }
    }

    /// Is batch lane `i` a value (not NULL)?
    #[inline]
    fn valid(&self, i: usize) -> bool {
        match self {
            Operand::Scalar(v) => !v.is_null(),
            _ => self.col_at().is_some_and(|(c, at)| c.is_valid(at + i)),
        }
    }

    /// May a lane be NULL?
    fn nullable(&self) -> bool {
        match self {
            Operand::Scalar(v) => v.is_null(),
            _ => self.col_at().is_some_and(|(c, _)| c.null_count() > 0),
        }
    }

    /// The value of batch lane `r` (built for a column lane).
    #[inline]
    fn value(&self, r: usize) -> Cow<'_, Value> {
        match self {
            Operand::Scalar(v) => Cow::Borrowed(*v),
            _ => Cow::Owned(self.col_at().map_or(Value::Null, |(c, at)| c.value(at + r))),
        }
    }

    /// The values as an owned column of `n` lanes (`dtype` types a NULL
    /// scalar).
    fn into_column(self, n: usize, dtype: DataType) -> Result<Column> {
        match self {
            Operand::Col(c, at) => Ok(c.slice(at, n)),
            Operand::Scalar(v) => Column::splat(v, dtype, n),
            Operand::Owned(c) => Ok(c),
        }
    }
}

/// A boolean over a selection: its TRUE and its FALSE lanes, ascending
/// (the FALSE ones only when asked for); any other selected lane is NULL.
type Truth = (Vec<usize>, Vec<usize>);

/// Evaluate an expression over every row of a batch, one typed loop per
/// operator node instead of one tree walk per row.
///
/// Produces exactly the values a row-at-a-time evaluator would (the
/// tests hold it to one). Short-circuits hold *per row*: an `AND`'s right
/// side runs only where its left is not FALSE (so `x <> 0 AND 10 / x > 1`
/// never divides by zero), an `OR`'s where it is not TRUE, a `CASE`
/// result where its condition took the row; so a query errors iff it
/// errors row at a time (when several rows would, perhaps another one).
pub fn eval_batch(expr: &BoundExpr, batch: &ValueBatch) -> Result<Column> {
    let (view, n) = (batch.view(), batch.num_rows());
    let dtype = expr.infer_type(&view.types());
    eval_operand(expr, &view, &all_lanes(n))?.into_column(n, dtype)
}

/// Every lane of an `n`-lane batch, `0..n`, as a selection: a prefix of
/// one shared table up to a default block (4,096 lanes), so selecting a
/// whole batch builds nothing.
pub fn all_lanes(n: usize) -> Cow<'static, [usize]> {
    static ALL: OnceLock<Vec<usize>> = OnceLock::new();
    match ALL.get_or_init(|| (0..4096).collect()).get(..n) {
        Some(all) => Cow::Borrowed(all),
        None => Cow::Owned((0..n).collect()),
    }
}

/// Evaluate a WHERE predicate over the lanes `sel` (strictly ascending):
/// the lanes where it is TRUE. An `AND` narrows the selection: its right
/// side runs only on the lanes its left side passed, as a next conjunct
/// would.
pub fn eval_predicate_batch(e: &BoundExpr, batch: &BatchView, sel: &[usize]) -> Result<Vec<usize>> {
    match e {
        BoundExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => eval_predicate_batch(right, batch, &eval_predicate_batch(left, batch, sel)?),
        _ => Ok(eval_truth(e, batch, sel, false)?.0),
    }
}

/// The lanes of `sel` where `keep` holds, without a branch per lane.
fn select(sel: &[usize], keep: impl Fn(usize) -> bool) -> Vec<usize> {
    let (mut out, mut k) = (vec![0; sel.len()], 0);
    for &i in sel {
        if let Some(o) = out.get_mut(k) {
            *o = i;
        }
        k += usize::from(keep(i));
    }
    out.truncate(k);
    out
}

/// The lanes of the ascending `a` and `b` that `keep(in a, in b)` keeps,
/// ascending.
fn merge(a: &[usize], b: &[usize], keep: impl Fn(bool, bool) -> bool) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    while let Some(&lane) = match (a.peek(), b.peek()) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    } {
        if keep(a.next_if_eq(&lane).is_some(), b.next_if_eq(&lane).is_some()) {
            out.push(*lane);
        }
    }
    out
}

/// The selected lanes `f` calls TRUE, and FALSE if `want_f` (`None` is
/// NULL).
fn decide(sel: &[usize], want_f: bool, f: impl Fn(usize) -> Option<bool>) -> Truth {
    if !want_f {
        return (select(sel, |i| f(i) == Some(true)), Vec::new());
    }
    let mut out = Truth::default();
    for &i in sel {
        match f(i) {
            Some(true) => out.0.push(i),
            Some(false) => out.1.push(i),
            _ => {}
        }
    }
    out
}

/// Evaluate a value over the lanes `sel` of a batch. The other lanes are
/// never evaluated where that could fail (per-row short-circuiting); they
/// hold NULL or whatever the kernel computed, and nobody reads them.
pub(crate) fn eval_operand<'a>(
    expr: &'a BoundExpr,
    batch: &BatchView<'a>,
    sel: &[usize],
) -> Result<Operand<'a>> {
    let n = batch.rows;
    match expr {
        BoundExpr::Col(i) => batch
            .cols
            .get(*i)
            .map(|&(c, at)| Operand::Col(c, at))
            .ok_or_else(|| NoDbError::internal(format!("column #{i} out of range"))),
        BoundExpr::Lit(v) => Ok(Operand::Scalar(v)),
        BoundExpr::Param { idx, .. } => Err(NoDbError::internal(format!(
            "unsubstituted parameter ${} reached the executor (prepared statements must \
             substitute parameters before building the operator tree)",
            idx + 1
        ))),
        BoundExpr::Binary {
            op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div),
            left,
            right,
        } => {
            let l = eval_operand(left, batch, sel)?;
            let r = eval_operand(right, batch, sel)?;
            if let Some(c) = typed_arith(*op, &l, &r, n, sel)? {
                return Ok(Operand::Owned(c));
            }
            per_row(expr, batch, sel, &mut |i| {
                arith(*op, &l.value(i), &r.value(i))
            })
        }
        BoundExpr::Unary {
            op: UnOp::Neg,
            expr: e,
        } => {
            let vals = eval_operand(e, batch, sel)?;
            if let Some(c) = typed_negate(&vals, n, sel)? {
                return Ok(Operand::Owned(c));
            }
            per_row(expr, batch, sel, &mut |r| negate(&vals.value(r)))
        }
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            // Each branch's condition runs only on the lanes no earlier
            // branch took; its result runs only on the lanes it took.
            let mut remaining = sel.to_vec();
            // Per lane, the index of the result it takes (none: NULL).
            let mut choice = vec![usize::MAX; n];
            let mut results: Vec<Operand<'a>> = Vec::new();
            let branches = branches.iter().map(|(c, r)| (Some(c), r));
            for (cond, res) in branches.chain(else_expr.iter().map(|e| (None, &**e))) {
                let taken = match cond {
                    _ if remaining.is_empty() => break,
                    Some(cond) => eval_truth(cond, batch, &remaining, false)?.0,
                    None => std::mem::take(&mut remaining),
                };
                for &r in &taken {
                    if let Some(c) = choice.get_mut(r) {
                        *c = results.len();
                    }
                }
                results.push(eval_operand(res, batch, &taken)?);
                remaining = merge(&remaining, &taken, |r, t| r && !t);
            }
            // Gather each row's result into the CASE's one type.
            let mut out = Column::with_capacity(expr.infer_type(&batch.types()), n);
            for (r, &k) in choice.iter().enumerate() {
                match results.get(k).map(|res| (res, res.col_at())) {
                    Some((Operand::Scalar(v), _)) => out.push_value(v)?,
                    Some((_, Some((c, at)))) => out.push_from(c, at + r)?,
                    _ => out.push_null(),
                }
            }
            Ok(Operand::Owned(out))
        }
        BoundExpr::Binary { .. }
        | BoundExpr::Unary { .. }
        | BoundExpr::Like { .. }
        | BoundExpr::Between { .. }
        | BoundExpr::InList { .. }
        | BoundExpr::IsNull { .. } => {
            let (t, f) = eval_truth(expr, batch, sel, true)?;
            let known = merge(&t, &f, |t, f| t || f);
            per_row(expr, batch, &known, &mut |i| {
                Ok(Value::Bool(t.binary_search(&i).is_ok()))
            })
        }
    }
}

/// Evaluate a boolean over the lanes `sel` of a batch: its TRUE lanes,
/// and its FALSE lanes if `want_f`.
fn eval_truth<'a>(
    expr: &'a BoundExpr,
    batch: &BatchView<'a>,
    sel: &[usize],
    want_f: bool,
) -> Result<Truth> {
    let n = batch.rows;
    let (both, either) = (|a, b| a && b, |a, b| a || b);
    match expr {
        BoundExpr::Binary {
            op: op @ (BinOp::And | BinOp::Or),
            left,
            right,
        } => {
            // FALSE decides an AND, TRUE an OR: the right side runs only
            // on the lanes the left side left undecided (it may fail on
            // the others).
            let is_and = *op == BinOp::And;
            let (lt, lf) = eval_truth(left, batch, sel, is_and || want_f)?;
            let need = merge(sel, if is_and { &lf } else { &lt }, |s, d| s && !d);
            let (rt, rf) = eval_truth(right, batch, &need, want_f)?;
            Ok(match is_and {
                true => (merge(&lt, &rt, both), merge(&lf, &rf, either)),
                false => (merge(&lt, &rt, either), merge(&lf, &rf, both)),
            })
        }
        BoundExpr::Binary { op, left, right } if op.holds(Ordering::Equal).is_some() => {
            let l = eval_operand(left, batch, sel)?;
            let r = eval_operand(right, batch, sel)?;
            Ok(compare_operands(*op, &l, &r, sel, n, want_f))
        }
        BoundExpr::Unary {
            op: UnOp::Not,
            expr,
        } => eval_truth(expr, batch, sel, true).map(|(t, f)| (f, t)),
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let vals = eval_operand(expr, batch, sel)?;
            let pats = eval_operand(pattern, batch, sel)?;
            // A constant pattern over a text column (the common case)
            // matches arena slices in place; a computed pattern, or a
            // non-text operand, is checked per row like the scalar path.
            if let (Some(_), Operand::Scalar(Value::Text(p))) = (text_at(&vals, 0), &pats) {
                let hit = |i| Some(like_match(text_at(&vals, i)?, p) != *negated);
                return Ok(decide(sel, want_f, |i| hit(i).filter(|_| vals.valid(i))));
            }
            let v = per_row(
                expr,
                batch,
                sel,
                &mut |r| match (&*vals.value(r), &*pats.value(r)) {
                    (_, Value::Null) | (Value::Null, Value::Text(_)) => Ok(Value::Null),
                    (Value::Text(s), Value::Text(p)) => {
                        Ok(Value::Bool(like_match(s, p) != *negated))
                    }
                    (v, Value::Text(_)) => {
                        Err(NoDbError::execution(format!("LIKE on non-text {v}")))
                    }
                    (_, p) => Err(NoDbError::execution(format!(
                        "LIKE pattern is non-text {p}"
                    ))),
                },
            )?;
            Ok(truth_of(&v, sel, want_f))
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let vals = eval_operand(expr, batch, sel)?;
            let lo = eval_operand(low, batch, sel)?;
            let hi = eval_operand(high, batch, sel)?;
            let cmp = |op, bound, sel: &[usize], f| compare_operands(op, &vals, bound, sel, n, f);
            if !want_f && !negated {
                // TRUE only where both bounds hold.
                let ge = cmp(BinOp::GtEq, &lo, sel, false).0;
                return Ok(cmp(BinOp::LtEq, &hi, &ge, false));
            }
            // NULL where either comparison is, TRUE where both hold.
            let ge = cmp(BinOp::GtEq, &lo, sel, true);
            let le = cmp(BinOp::LtEq, &hi, sel, true);
            let (t, known) = (merge(&ge.0, &le.0, both), |c: &Truth| {
                merge(&c.0, &c.1, either)
            });
            let f = merge(&merge(&known(&ge), &known(&le), both), &t, |k, t| k && !t);
            Ok(if *negated { (f, t) } else { (t, f) })
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let vals = eval_operand(expr, batch, sel)?;
            if let Some(t) = typed_in_list(&vals, list, *negated, sel, n, want_f) {
                return Ok(t);
            }
            let hit = |i| in_list(&vals.value(i), list, *negated);
            Ok(decide(sel, want_f, hit))
        }
        BoundExpr::IsNull { expr, negated } => {
            let vals = eval_operand(expr, batch, sel)?;
            Ok(decide(sel, want_f, |i| Some(vals.valid(i) == *negated)))
        }
        _ => Ok(truth_of(&eval_operand(expr, batch, sel)?, sel, want_f)),
    }
}

/// The TRUE and FALSE lanes of a boolean value among `sel`.
fn truth_of(v: &Operand<'_>, sel: &[usize], want_f: bool) -> Truth {
    match lanes_bool(v, usize::MAX) {
        Some(b) => decide(sel, want_f, |i| v.valid(i).then(|| b.at(i))),
        None => Truth::default(),
    }
}

/// The generic kernel: `f(r)` for each selected lane `r`, into a column of
/// `expr`'s type; NULL on the other lanes.
fn per_row<'a>(
    expr: &BoundExpr,
    batch: &BatchView<'_>,
    sel: &[usize],
    f: &mut dyn FnMut(usize) -> Result<Value>,
) -> Result<Operand<'a>> {
    let mut out = Column::with_capacity(expr.infer_type(&batch.types()), batch.rows);
    for &r in sel {
        out.push_nulls(r.saturating_sub(out.len()));
        out.push_value(&f(r)?)?;
    }
    out.push_nulls(batch.rows.saturating_sub(out.len()));
    Ok(Operand::Owned(out))
}

/// Per batch lane: selected, and a value (not NULL) in both `l` and `r`.
fn both_valid(l: &Operand<'_>, r: &Operand<'_>, n: usize, sel: &[usize]) -> Vec<bool> {
    // A selection of `n` lanes selects every lane.
    let mut out = vec![sel.len() == n; n];
    let nullable = l.nullable() || r.nullable();
    for &i in sel.iter().filter(|_| sel.len() < n || nullable) {
        if let Some(o) = out.get_mut(i) {
            *o = !nullable || (l.valid(i) && r.valid(i));
        }
    }
    out
}

/// One operand's lanes as one primitive type, by batch lane: a column's
/// own slice, a converted copy, or one scalar for every lane.
enum Lanes<'a, T> {
    Slice(&'a [T]),
    Owned(Vec<T>),
    Splat(T),
}

impl<T: Copy + Default> Lanes<'_, T> {
    fn slice(&self) -> Option<&[T]> {
        match self {
            Lanes::Slice(s) => Some(s),
            Lanes::Owned(v) => Some(v),
            Lanes::Splat(_) => None,
        }
    }

    /// Lane `i` (the default past the end).
    fn at(&self, i: usize) -> T {
        match (self, self.slice()) {
            (Lanes::Splat(x), _) => *x,
            (_, s) => s.and_then(|s| s.get(i)).copied().unwrap_or_default(),
        }
    }
}

/// The data of `v`'s column (`None` for a scalar), and the range of its
/// lanes that are batch lanes `0..n`.
fn window<'a>(v: &'a Operand<'_>, n: usize) -> Option<(&'a Data, std::ops::Range<usize>)> {
    let (c, at) = v.col_at()?;
    Some((c.data(), at..at.saturating_add(n).min(c.len())))
}

/// `f` over the lanes of `l` and `r` pairwise: the one loop every typed
/// arithmetic kernel runs, monomorphized per lane type and operator.
#[inline]
fn zip_lanes<T: Copy + Default, U: Clone>(
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

/// The selected lanes where `f` holds over the lanes of `l` and `r`: the
/// one loop every typed comparison runs, monomorphized per type and op.
fn select_lanes<T: Copy + Default>(
    l: &Lanes<'_, T>,
    r: &Lanes<'_, T>,
    sel: &[usize],
    f: impl Fn(T, T) -> bool,
) -> Vec<usize> {
    match (l.slice(), r) {
        // A column against a scalar, the common case, reads one slice.
        (Some(a), Lanes::Splat(y)) => select(sel, |i| a.get(i).is_some_and(|&x| f(x, *y))),
        _ => select(sel, |i| f(l.at(i), r.at(i))),
    }
}

/// Integer lanes (`Int32`, `Int64`, and a date's day number) as `i64`.
fn lanes_i64<'a>(v: &'a Operand<'_>, n: usize) -> Option<Lanes<'a, i64>> {
    Some(match (v, window(v, n)) {
        (Operand::Scalar(s), _) => Lanes::Splat(s.as_i64()?),
        (_, Some((Data::Int64(x), w))) => Lanes::Slice(x.get(w)?),
        (_, Some((Data::Int32(x) | Data::Date(x), w))) => {
            Lanes::Owned(x.get(w)?.iter().map(|&x| i64::from(x)).collect())
        }
        _ => return None,
    })
}

/// 32-bit lanes (`Int32`, or a date's day number).
fn lanes_i32<'a>(v: &'a Operand<'_>, n: usize) -> Option<Lanes<'a, i32>> {
    Some(match (v, window(v, n)) {
        (Operand::Scalar(Value::Int32(x)), _) => Lanes::Splat(*x),
        (Operand::Scalar(Value::Date(d)), _) => Lanes::Splat(d.days()),
        (_, Some((Data::Int32(x) | Data::Date(x), w))) => Lanes::Slice(x.get(w)?),
        _ => return None,
    })
}

/// An `Int32` operand's lanes, with an integer scalar as an `i32` — or,
/// for a scalar past the `i32` range, its order against every `i32`.
fn narrow<'a>(
    v: &'a Operand<'_>,
    n: usize,
) -> Option<std::result::Result<Lanes<'a, i32>, Ordering>> {
    match v {
        Operand::Scalar(s) => {
            let x = s.as_i64()?;
            Some(i32::try_from(x).map(Lanes::Splat).map_err(|_| x.cmp(&0)))
        }
        _ if v.dtype() == Some(DataType::Int32) => lanes_i32(v, n).map(Ok),
        _ => None,
    }
}

/// Numeric lanes as `f64`.
fn lanes_f64<'a>(v: &'a Operand<'_>, n: usize) -> Option<Lanes<'a, f64>> {
    Some(match (v, window(v, n)) {
        (Operand::Scalar(s), _) => Lanes::Splat(s.as_f64()?),
        (_, Some((Data::Float64(x), w))) => Lanes::Slice(x.get(w)?),
        (_, Some((Data::Int64(x), w))) => {
            Lanes::Owned(x.get(w)?.iter().map(|&x| x as f64).collect())
        }
        (_, Some((Data::Int32(x), w))) => {
            Lanes::Owned(x.get(w)?.iter().map(|&x| f64::from(x)).collect())
        }
        _ => return None,
    })
}

fn lanes_bool<'a>(v: &'a Operand<'_>, n: usize) -> Option<Lanes<'a, bool>> {
    Some(match (v, window(v, n)) {
        (Operand::Scalar(s), _) => Lanes::Splat(s.as_bool()?),
        (_, Some((Data::Bool(x), w))) => Lanes::Slice(x.get(w)?),
        _ => return None,
    })
}

/// `l op r` for one comparison operator over the selected lanes of one
/// type, as TRUE lanes and (if `want_f`) FALSE ones; a NaN is neither.
fn cmp_lanes<T: Copy + Default + PartialOrd>(
    op: BinOp,
    lanes: Option<(Lanes<'_, T>, Lanes<'_, T>)>,
    sel: &[usize],
    want_f: bool,
) -> Option<Truth> {
    let (l, r) = lanes?;
    let t = match op {
        BinOp::Eq => select_lanes(&l, &r, sel, |a, b| a == b),
        BinOp::NotEq => select_lanes(&l, &r, sel, |a, b| {
            a.partial_cmp(&b).is_some_and(Ordering::is_ne)
        }),
        BinOp::Lt => select_lanes(&l, &r, sel, |a, b| a < b),
        BinOp::LtEq => select_lanes(&l, &r, sel, |a, b| a <= b),
        BinOp::Gt => select_lanes(&l, &r, sel, |a, b| a > b),
        _ => select_lanes(&l, &r, sel, |a, b| a >= b),
    };
    // FALSE: every other selected lane whose operands are ordered.
    let ordered = |&i: &usize| l.at(i).partial_cmp(&r.at(i)).is_some();
    let f = want_f.then(|| merge(sel, &t, |s, t| s && !t));
    Some((
        t,
        f.unwrap_or_default().into_iter().filter(ordered).collect(),
    ))
}

/// A comparison over the selected lanes: typed for numbers of any width,
/// dates, booleans and text, through [`Value::sql_cmp`] per lane for any
/// other pair of types. An `Int32` column meets an integer scalar on its
/// own lanes. A lane is NULL where either side is NULL or NaN.
fn compare_operands(
    op: BinOp,
    l: &Operand<'_>,
    r: &Operand<'_>,
    sel: &[usize],
    n: usize,
    want_f: bool,
) -> Truth {
    use DataType::{Bool, Date, Float64, Int32, Int64, Text};
    let (Some(lt), Some(rt)) = (l.dtype(), r.dtype()) else {
        return Truth::default();
    };
    macro_rules! both {
        ($lanes:ident) => {
            $lanes(l, n).zip($lanes(r, n))
        };
    }
    let typed = match (lt, rt) {
        (Int32, Int32) | (Date, Date) => cmp_lanes(op, both!(lanes_i32), sel, want_f),
        (Int32 | Int64, Int32 | Int64) => match narrow(l, n).zip(narrow(r, n)) {
            Some((Ok(a), Ok(b))) => cmp_lanes(op, Some((a, b)), sel, want_f),
            // A scalar past the `i32` range against `i32` lanes decides
            // every lane alike; two such scalars compare as `i64`s.
            Some((Err(o), Ok(_))) => Some(decide(sel, want_f, |_| op.holds(o))),
            Some((Ok(_), Err(o))) => Some(decide(sel, want_f, |_| op.holds(o.reverse()))),
            _ => cmp_lanes(op, both!(lanes_i64), sel, want_f),
        },
        (Int32 | Int64 | Float64, Int32 | Int64 | Float64) => {
            cmp_lanes(op, both!(lanes_f64), sel, want_f)
        }
        (Bool, Bool) => cmp_lanes(op, both!(lanes_bool), sel, want_f),
        // Text compares bytes (byte order is code point order), a column
        // against a scalar straight from the arena.
        (Text, Text) => Some(match (window(l, n), r) {
            (Some((Data::Text(t), w)), Operand::Scalar(Value::Text(s))) => {
                let lane = |i| t.get_bytes(w.start + i);
                match op {
                    BinOp::Eq | BinOp::NotEq => {
                        let (s, eq) = (TextEq::new(s), op == BinOp::Eq);
                        decide(sel, want_f, |i| Some(s.matches(lane(i)) == eq))
                    }
                    _ => decide(sel, want_f, |i| op.holds(lane(i).cmp(s.as_bytes()))),
                }
            }
            _ => decide(sel, want_f, |i| {
                op.holds(text_at(l, i)?.cmp(text_at(r, i)?))
            }),
        }),
        _ => None,
    };
    // Any other pair through `sql_cmp`: NULL where they do not compare.
    let cmp = |i| l.value(i).sql_cmp(&r.value(i)).and_then(|o| op.holds(o));
    let (mut t, mut f) = typed.unwrap_or_else(|| decide(sel, want_f, cmp));
    if l.nullable() || r.nullable() {
        t.retain(|&i| l.valid(i) && r.valid(i));
        f.retain(|&i| l.valid(i) && r.valid(i));
    }
    (t, f)
}

/// The text of batch lane `i` (`None` for a non-text operand).
fn text_at<'a>(v: &'a Operand<'_>, i: usize) -> Option<&'a str> {
    match (v, v.col_at().map(|(c, at)| (c.data(), at))) {
        (Operand::Scalar(s), _) => s.as_str(),
        (_, Some((Data::Text(t), at))) => Some(t.get(at + i)),
        _ => None,
    }
}

/// Typed arithmetic for numbers of any width and for dates, following
/// [`BinOp::arith_type`] (`None` for other types). Overflow, a date past
/// the calendar and division by zero fail on selected, valid lanes only.
fn typed_arith(
    op: BinOp,
    l: &Operand<'_>,
    r: &Operand<'_>,
    n: usize,
    sel: &[usize],
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
    let valid = both_valid(l, r, n, sel);
    let fails = |bad: Vec<bool>, err: fn() -> NoDbError| -> Result<()> {
        match bad.iter().zip(&valid).any(|(&b, &v)| b && v) {
            true => Err(err()),
            false => Ok(()),
        }
    };
    let data = match op.arith_type(lt, rt) {
        DataType::Float64 => {
            let (Some(a), Some(b)) = (lanes_f64(l, n), lanes_f64(r, n)) else {
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
            let (Some(a), Some(b)) = (lanes_i64(l, n), lanes_i64(r, n)) else {
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
            let (Some(a), Some(b)) = (lanes_i64(l, n), lanes_i64(r, n)) else {
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

/// Typed `-x` for a numeric column; `None` for any other operand.
fn typed_negate(v: &Operand<'_>, n: usize, sel: &[usize]) -> Result<Option<Column>> {
    let valid = both_valid(v, v, n, sel);
    // Negated lanes; overflow is an error on a valid lane only.
    fn neg<T: Copy + Default>(x: &[T], valid: &[bool], f: fn(T) -> Option<T>) -> Result<Vec<T>> {
        let lane = |(&x, &ok): (&T, &bool)| f(x).or((!ok).then(T::default)).ok_or_else(overflow);
        x.iter().zip(valid).map(lane).collect()
    }
    Ok(Some(match window(v, n) {
        Some((Data::Int32(x), w)) => {
            Data::Int32(neg(x.get(w).unwrap_or_default(), &valid, i32::checked_neg)?)
        }
        Some((Data::Int64(x), w)) => {
            Data::Int64(neg(x.get(w).unwrap_or_default(), &valid, i64::checked_neg)?)
        }
        Some((Data::Float64(x), w)) => {
            Data::Float64(x.get(w).unwrap_or_default().iter().map(|v| -v).collect())
        }
        _ => return Ok(None),
    })
    .map(|data| Column::from_parts(data, &valid)))
}

/// `v IN (list)` with SQL NULL rules, for one value (`None`: NULL).
fn in_list(v: &Value, list: &[Value], negated: bool) -> Option<bool> {
    if v.is_null() {
        return None;
    }
    let mut saw_null = false;
    for cand in list {
        match v.sql_cmp(cand) {
            Some(Ordering::Equal) => return Some(!negated),
            None if cand.is_null() => saw_null = true,
            _ => {}
        }
    }
    (!saw_null).then_some(negated)
}

/// A text scalar that `=`, `<>` and `IN` match lanes against without a
/// library call per lane: lengths first, then a value of at most 8 bytes
/// as one word, loaded a byte at a time.
struct TextEq<'a> {
    bytes: &'a [u8],
    word: u64,
}

impl<'a> TextEq<'a> {
    fn new(s: &'a str) -> TextEq<'a> {
        TextEq {
            bytes: s.as_bytes(),
            word: pack(s.as_bytes()),
        }
    }

    /// Does `lane` hold exactly this text?
    #[inline]
    fn matches(&self, lane: &[u8]) -> bool {
        lane.len() == self.bytes.len()
            && match lane.len() {
                0..=8 => pack(lane) == self.word,
                _ => lane == self.bytes,
            }
    }
}

/// Typed IN over an integer, date or text column whose candidates are all
/// of its kind (or NULL); `None` otherwise.
fn typed_in_list(
    v: &Operand<'_>,
    list: &[Value],
    negated: bool,
    sel: &[usize],
    n: usize,
    want_f: bool,
) -> Option<Truth> {
    let saw_null = list.iter().any(Value::is_null);
    let cands = list.iter().filter(|v| !v.is_null());
    // A miss is FALSE (NOT IN: TRUE), or NULL when a candidate is NULL.
    let answer = |i, hit: bool| (v.valid(i) && (hit || !saw_null)).then_some(hit != negated);
    let int = |t| matches!(t, Some(DataType::Int32 | DataType::Int64));
    let alike = |c: &Value| c.data_type() == v.dtype() || int(c.data_type()) && int(v.dtype());
    if v.col_at().is_none() || !cands.clone().all(alike) {
        return None;
    }
    Some(match v.dtype()? {
        DataType::Int32 | DataType::Int64 | DataType::Date => {
            let (x, want): (_, Vec<i64>) =
                (lanes_i64(v, n)?, cands.filter_map(Value::as_i64).collect());
            decide(sel, want_f, |i| answer(i, want.contains(&x.at(i))))
        }
        DataType::Text => {
            let want: Vec<TextEq<'_>> = cands.filter_map(Value::as_str).map(TextEq::new).collect();
            let Some((Data::Text(t), w)) = window(v, n) else {
                return None;
            };
            let hit = |i: usize| want.iter().any(|s| s.matches(t.get_bytes(w.start + i)));
            decide(sel, want_f, |i| answer(i, hit(i)))
        }
        _ => return None,
    })
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
                    let holds = l.sql_cmp(&r).and_then(|o| op.holds(o));
                    Ok(holds.map_or(Value::Null, Value::Bool))
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
            } => Ok(in_list(&eval(expr, row)?, list, *negated).map_or(Value::Null, Value::Bool)),
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
        let pass = eval_predicate_batch(&bin(BinOp::Eq, col(3), col(0)), &batch().view(), &[0]);
        assert_eq!(pass.unwrap(), Vec::<usize>::new());
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
    /// 5 `Bool`, 6 `Int64` near the top of its range, 7 `Int32` at both
    /// ends of its range, 8 `Text` of 0, 9, 8 and 16 bytes (multi-byte
    /// characters in two); each has a NULL lane.
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
                Value::Int32(i32::MIN),
                t(""),
            ],
            vec![
                Value::Int64(4),
                Value::Null,
                Value::Null,
                Value::Float64(4.0),
                day("1969-12-25"),
                Value::Bool(false),
                Value::Int64(1),
                Value::Int32(i32::MAX),
                t("ab€cdé"),
            ],
            vec![
                Value::Null,
                t("ECONOMY"),
                Value::Int32(7),
                Value::Null,
                Value::Null,
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
                Value::Int32(0),
                t("12345678"),
            ],
            vec![
                Value::Int64(7),
                t("LARGE"),
                Value::Int32(4),
                Value::Float64(4.0),
                day("1994-01-01"),
                Value::Bool(false),
                Value::Int64(2),
                Value::Int32(-1),
                t("é€𝄞1234567"),
            ],
        ];
        ValueBatch::from_rows(rows.into_iter().map(Row).collect()).unwrap()
    }

    /// The predicate the batch evaluator implements: TRUE passes, and an
    /// AND runs its right side only where its left side passed.
    fn predicate(e: &BoundExpr, row: &Row) -> Result<bool> {
        match e {
            BoundExpr::Binary {
                op: BinOp::And,
                left,
                right,
            } => Ok(predicate(left, row)? && predicate(right, row)?),
            _ => eval_predicate(e, row),
        }
    }

    /// `got` holds `want` on every row that has no error, or `got` failed
    /// with the error of a row.
    fn assert_agrees<T: PartialEq + std::fmt::Debug>(
        e: &BoundExpr,
        got: Result<Vec<T>>,
        want: Vec<Result<T>>,
    ) {
        match got {
            Ok(got) => {
                let want: Vec<T> = want
                    .into_iter()
                    .map(|w| w.unwrap_or_else(|err| panic!("{e:?}: {err}")))
                    .collect();
                assert_eq!(got, want, "{e:?}");
            }
            Err(err) => assert!(
                want.iter()
                    .any(|w| w.as_ref().is_err_and(|w| w.to_string() == err.to_string())),
                "{e:?}: batch failed with {err}, rows gave {want:?}"
            ),
        }
    }

    /// Batch evaluation must equal row-at-a-time evaluation value for
    /// value (and type for type), or fail with the same error, on exactly
    /// the rows of every selection, and so must the predicate's passing
    /// rows. Each selection runs over the batch as it is and over its
    /// columns borrowed from a lane past the start.
    fn assert_matches_row_eval(e: &BoundExpr) {
        let b = sample_batch();
        let rows: Vec<Row> = (0..b.num_rows()).map(|r| Row(b.row_values(r))).collect();
        let padded = ValueBatch::concat(vec![b.take_rows(&[4, 3, 2]).unwrap(), b.clone()]).unwrap();
        let views = [
            b.view(),
            BatchView {
                cols: padded.cols().iter().map(|c| (c, 3)).collect(),
                rows: 5,
            },
        ];
        // Every subset of the five rows, ascending.
        for (mask, view) in (0..32u32).flat_map(|m| views.iter().map(move |v| (m, v))) {
            let sel: Vec<usize> = (0..5).filter(|r| mask & (1 << r) != 0).collect();
            let values = eval_operand(e, view, &sel)
                .and_then(|v| v.into_column(5, e.infer_type(&b.types())))
                .map(|c| sel.iter().map(|&r| c.value(r)).collect());
            assert_agrees(e, values, sel.iter().map(|&r| eval(e, &rows[r])).collect());
            let want = sel
                .iter()
                .map(|&r| predicate(e, &rows[r]).map(|p| p.then_some(r)));
            let passed = eval_predicate_batch(e, view, &sel);
            let got = passed.map(|p| {
                let within = p.is_sorted_by(|a, b| a < b) && p.iter().all(|r| sel.contains(r));
                assert!(within, "{e:?} passed {p:?} of {sel:?}");
                sel.iter().map(|r| p.contains(r).then_some(*r)).collect()
            });
            assert_agrees(e, got, want.collect());
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
            bin(BinOp::Eq, col(8), col(1)),
            bin(BinOp::NotEq, col(8), col(8)),
        ];
        // Text against literals of 0, 1, 8, 9, 16 and 17 bytes, equal to a
        // lane or one byte off, multi-byte ones included, under `=`, `<>`,
        // an ordering, and IN.
        let texts = [
            "",
            "x",
            "é",
            "12345678",
            "12345679",
            "ab€cdé",
            "ab€cdè",
            "é€𝄞1234567",
            "é€𝄞1234568",
            "é€𝄞12345678",
        ];
        for s in texts {
            let s = lit(Value::Text(s.into()));
            for op in [BinOp::Eq, BinOp::NotEq, BinOp::Lt] {
                shapes.push(bin(op, col(8), s.clone()));
                shapes.push(bin(op, s.clone(), col(8)));
            }
        }
        for negated in [false, true] {
            let list = |ss: &[&str]| ss.iter().map(|&s| Value::Text(s.into())).collect();
            let lists: [Vec<Value>; 3] = [
                list(&texts),
                list(&["", "12345679", "é€𝄞1234567"]),
                [list(&["ab€cdé"]), vec![Value::Null]].concat(),
            ];
            for list in lists {
                shapes.push(BoundExpr::InList {
                    expr: Box::new(col(8)),
                    list,
                    negated,
                });
            }
        }
        let numeric = [
            col(0),
            col(2),
            col(3),
            lit(Value::Int32(4)),
            lit(Value::Int64(-3)),
            lit(Value::Float64(1.5)),
            lit(Value::Null),
        ];
        // An `Int32` column against integer scalars at and past the ends
        // of its range, on either side, and those scalars against each
        // other (two past the range compare as `i64`s).
        let (min, max) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let edges = [min - 1, min, min + 1, max - 1, max, max + 1];
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
            for x in edges {
                shapes.push(bin(op, col(7), lit(Value::Int64(x))));
                shapes.push(bin(op, lit(Value::Int64(x)), col(7)));
                for y in edges.into_iter().chain([3_000_000_000, -3_000_000_000]) {
                    shapes.push(bin(op, lit(Value::Int64(x)), lit(Value::Int64(y))));
                }
                if let Ok(y) = i32::try_from(x) {
                    shapes.push(bin(op, lit(Value::Int32(y)), lit(Value::Int64(x + 1))));
                    shapes.push(bin(op, lit(Value::Int64(x - 1)), lit(Value::Int32(y))));
                }
            }
            shapes.push(bin(op, col(7), col(2)));
            shapes.push(bin(op, col(7), col(0)));
        }
        for e in &shapes {
            assert_matches_row_eval(e);
        }
        // Two equal scalars past the `i32` range pass every selected row.
        let b = sample_batch();
        let big = lit(Value::Int64(3_000_000_000));
        let e = bin(BinOp::Eq, big.clone(), big);
        assert_eq!(
            eval_predicate_batch(&e, &b.view(), &[0, 2, 4]).unwrap(),
            [0, 2, 4]
        );
        // The overflow shapes fail, on both paths, with the typed error.
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
        let got = eval_predicate_batch(&e, &b.view(), &[0, 1, 2, 3, 4]).unwrap();
        for r in 0..b.num_rows() {
            let row = Row(b.row_values(r));
            assert_eq!(got.contains(&r), eval_predicate(&e, &row).unwrap());
        }
    }

    #[test]
    fn out_of_range_column_errors() {
        let b = sample_batch();
        assert!(eval_batch(&col(9), &b).is_err());
    }
}
