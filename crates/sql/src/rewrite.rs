//! The expression normalizer the binder runs when
//! [`PlannerOptions::rewrite`](crate::PlannerOptions::rewrite) is on:
//! constant folding and boolean simplification, applied to each bound
//! expression once, as the binder creates it.
//!
//! * constant subexpressions fold away ([`fold_expr`]),
//! * boolean structure simplifies — `NOT` pushes through comparisons
//!   and De Morgan, identity/absorbing literals drop out
//!   ([`simplify_expr`]), and
//! * in predicate position, tautological conjuncts vanish and
//!   contradictions collapse a conjunct list to FALSE
//!   ([`simplify_conjuncts`]).
//!
//! Every rewrite is an *identity on observable behavior*: the same
//! rows, and — because SQL expressions can raise runtime errors
//! (division by zero, overflow, `LIKE` on non-text) — the same errors.
//! Rewrites that would elide or reorder a subexpression require it to
//! be *pure* (incapable of erroring; see [`is_pure`]); anything else is
//! left in place. Three-valued logic is preserved throughout: `x AND
//! TRUE → x` holds for `x ∈ {TRUE, FALSE, NULL}`, and conjunct-level
//! tautology and contradiction elimination only fires in *predicate
//! position*, where FALSE and NULL both reject.
//!
//! Where a normalized predicate runs — which scan, which side of a
//! join, above or below an aggregate — is the binder's decision, made
//! once while it builds the plan; nothing here sees a plan.

use nodb_common::Value;

use crate::expr::{BinOp, BoundExpr, UnOp};

/// Fold and simplify `e` to its fixed point. Terminates: every step
/// either shrinks the expression or pushes a `NOT` strictly deeper.
pub(crate) fn normalize(mut e: BoundExpr) -> BoundExpr {
    while rewrite_expr(&mut e, &mut fold_expr) | rewrite_expr(&mut e, &mut simplify_expr) {}
    e
}

/// Normalize a conjunct list in predicate position (a scan's pushed-down
/// filters): each conjunct on its own, then the list as a whole —
/// tautologies drop out (an empty list filters nothing) and a
/// contradiction leaves the single conjunct FALSE.
pub(crate) fn normalize_conjuncts(conjuncts: &mut Vec<BoundExpr>) {
    *conjuncts = std::mem::take(conjuncts)
        .into_iter()
        .map(normalize)
        .collect();
    simplify_conjuncts(conjuncts);
}

/// Normalize a `Filter` node's predicate: the whole expression, then its
/// top-level conjuncts as in [`normalize_conjuncts`]. `None` when it
/// reduces to TRUE — the node filters nothing and is not built.
pub(crate) fn normalize_predicate(predicate: BoundExpr) -> Option<BoundExpr> {
    let predicate = normalize(predicate);
    let mut conjuncts = Vec::new();
    split_bound_conjuncts(&predicate, &mut conjuncts);
    let predicate = if simplify_conjuncts(&mut conjuncts) {
        BoundExpr::conjunction(conjuncts)
    } else {
        predicate
    };
    (predicate != BoundExpr::Lit(Value::Bool(true))).then_some(predicate)
}

// ----- purity ------------------------------------------------------------

/// Can evaluating `e` ever raise a runtime error? Comparisons, boolean
/// combinators, `IS NULL`, `BETWEEN` and `IN` are total (incomparable
/// values yield NULL, never an error); arithmetic (overflow, division
/// by zero), `LIKE` (non-text operand) and `CASE` (arbitrary branch
/// expressions) are not. Rewrites may only *elide* or *reorder* pure
/// subexpressions.
pub(crate) fn is_pure(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Col(_) | BoundExpr::Lit(_) | BoundExpr::Param { .. } => true,
        BoundExpr::Binary { op, left, right } => match op {
            BinOp::And | BinOp::Or => is_pure(left) && is_pure(right),
            op if op.is_comparison() => is_pure(left) && is_pure(right),
            _ => false,
        },
        BoundExpr::Unary {
            op: UnOp::Not,
            expr,
        } => is_pure(expr),
        BoundExpr::Unary { op: UnOp::Neg, .. } => false,
        BoundExpr::Like { .. } | BoundExpr::Case { .. } => false,
        BoundExpr::Between {
            expr, low, high, ..
        } => is_pure(expr) && is_pure(low) && is_pure(high),
        BoundExpr::InList { expr, .. } => is_pure(expr),
        BoundExpr::IsNull { expr, .. } => is_pure(expr),
    }
}

// ----- constant folding --------------------------------------------------

fn lit(e: &BoundExpr) -> Option<&Value> {
    match e {
        BoundExpr::Lit(v) => Some(v),
        _ => None,
    }
}

/// Fold one node whose operands are literals (children are already
/// folded by the bottom-up driver); returns the replacement, or `None`
/// when nothing folds. Folding mirrors the executor's evaluation rules
/// exactly and *refuses* to fold anything that would error at runtime
/// (division by zero, integer overflow), so the error still surfaces
/// when the query runs.
fn fold_expr(e: &BoundExpr) -> Option<BoundExpr> {
    match e {
        BoundExpr::Binary { op, left, right } => {
            let (l, r) = (lit(left)?, lit(right)?);
            if op.is_comparison() {
                return Some(BoundExpr::Lit(
                    l.sql_cmp(r)
                        .and_then(|ord| op.holds(ord))
                        .map_or(Value::Null, Value::Bool),
                ));
            }
            const_arith(*op, l, r).map(BoundExpr::Lit)
        }
        BoundExpr::Unary {
            op: UnOp::Not,
            expr,
        } => match lit(expr)? {
            Value::Bool(b) => Some(BoundExpr::Lit(Value::Bool(!b))),
            Value::Null => Some(BoundExpr::Lit(Value::Null)),
            _ => None,
        },
        BoundExpr::Unary {
            op: UnOp::Neg,
            expr,
        } => match lit(expr)? {
            Value::Null => Some(BoundExpr::Lit(Value::Null)),
            Value::Int32(x) => x.checked_neg().map(|v| BoundExpr::Lit(Value::Int32(v))),
            Value::Int64(x) => x.checked_neg().map(|v| BoundExpr::Lit(Value::Int64(v))),
            Value::Float64(x) => Some(BoundExpr::Lit(Value::Float64(-x))),
            _ => None,
        },
        BoundExpr::IsNull { expr, negated } => {
            let v = lit(expr)?;
            Some(BoundExpr::Lit(Value::Bool(v.is_null() != *negated)))
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let (v, lo, hi) = (lit(expr)?, lit(low)?, lit(high)?);
            let ge = v.sql_cmp(lo).map(|o| o != std::cmp::Ordering::Less);
            let le = v.sql_cmp(hi).map(|o| o != std::cmp::Ordering::Greater);
            Some(BoundExpr::Lit(match (ge, le) {
                (Some(a), Some(b)) => Value::Bool((a && b) != *negated),
                _ => Value::Null,
            }))
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = lit(expr)?;
            if v.is_null() {
                return Some(BoundExpr::Lit(Value::Null));
            }
            let mut saw_null = false;
            for cand in list {
                match v.sql_cmp(cand) {
                    Some(std::cmp::Ordering::Equal) => {
                        return Some(BoundExpr::Lit(Value::Bool(!*negated)))
                    }
                    None if cand.is_null() => saw_null = true,
                    _ => {}
                }
            }
            Some(BoundExpr::Lit(if saw_null {
                Value::Null
            } else {
                Value::Bool(*negated)
            }))
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            // Only text × text folds; a constant non-text operand would
            // error at runtime and must keep doing so.
            match (lit(expr)?, lit(pattern)?) {
                (Value::Null, _) | (_, Value::Null) => Some(BoundExpr::Lit(Value::Null)),
                (Value::Text(s), Value::Text(p)) => Some(BoundExpr::Lit(Value::Bool(
                    nodb_common::like::like_match(s, p) != *negated,
                ))),
                _ => None,
            }
        }
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            // Drop branches whose condition is constant-not-TRUE; when
            // the leading remaining condition is constant TRUE, the CASE
            // *is* that branch's result.
            let mut kept: Vec<(BoundExpr, BoundExpr)> = Vec::new();
            let mut changed = false;
            for (c, r) in branches {
                match lit(c) {
                    Some(Value::Bool(true)) if kept.is_empty() => {
                        return Some(r.clone());
                    }
                    Some(Value::Bool(false)) | Some(Value::Null) => {
                        changed = true;
                    }
                    _ => kept.push((c.clone(), r.clone())),
                }
            }
            if kept.is_empty() {
                return Some(match else_expr {
                    Some(e) => (**e).clone(),
                    None => BoundExpr::Lit(Value::Null),
                });
            }
            if changed {
                Some(BoundExpr::Case {
                    branches: kept,
                    else_expr: else_expr.clone(),
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Constant arithmetic, mirroring the executor's coercions exactly:
/// integers stay checked 64-bit, any float operand (or division)
/// widens to `f64`, `Date ± days` stays a date. Returns `None` for
/// anything that would error at runtime so the error is preserved.
fn const_arith(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    if l.is_null() || r.is_null() {
        return Some(Value::Null);
    }
    if let (Value::Date(d), Some(n)) = (l, r.as_i64()) {
        if !matches!(r, Value::Float64(_)) {
            match op {
                BinOp::Add => return Some(Value::Date(d.add_days(n as i32))),
                BinOp::Sub => {
                    if let Value::Date(d2) = r {
                        return Some(Value::Int64((d.days() - d2.days()) as i64));
                    }
                    return Some(Value::Date(d.add_days(-(n as i32))));
                }
                _ => {}
            }
        }
    }
    let use_float =
        matches!(l, Value::Float64(_)) || matches!(r, Value::Float64(_)) || op == BinOp::Div;
    if use_float {
        let (a, b) = (l.as_f64()?, r.as_f64()?);
        let v = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => {
                if b == 0.0 {
                    // Division by zero errors at runtime; don't fold it
                    // away.
                    return None;
                }
                a / b
            }
            _ => return None,
        };
        Some(Value::Float64(v))
    } else {
        let (a, b) = (l.as_i64()?, r.as_i64()?);
        let v = match op {
            BinOp::Add => a.checked_add(b),
            BinOp::Sub => a.checked_sub(b),
            BinOp::Mul => a.checked_mul(b),
            _ => return None,
        }?;
        Some(Value::Int64(v))
    }
}

// ----- boolean simplification --------------------------------------------

/// One top-level boolean simplification step (children are already
/// simplified by the bottom-up driver): identity/absorbing literals on
/// `AND`/`OR`, `NOT` pushed through negatable nodes (double negation,
/// De Morgan, comparison inversion, `NOT LIKE`/`NOT BETWEEN`/`NOT IN`/
/// `IS NOT NULL` flips). Returns `None` when nothing applies.
fn simplify_expr(e: &BoundExpr) -> Option<BoundExpr> {
    match e {
        BoundExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => match (lit(left), lit(right)) {
            // TRUE is the AND identity for all of {TRUE, FALSE, NULL}.
            (Some(Value::Bool(true)), _) => Some((**right).clone()),
            (_, Some(Value::Bool(true))) => Some((**left).clone()),
            // FALSE on the left short-circuits; on the right it may
            // only absorb a side that cannot error.
            (Some(Value::Bool(false)), _) => Some(BoundExpr::Lit(Value::Bool(false))),
            (_, Some(Value::Bool(false))) if is_pure(left) => {
                Some(BoundExpr::Lit(Value::Bool(false)))
            }
            _ => None,
        },
        BoundExpr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => match (lit(left), lit(right)) {
            (Some(Value::Bool(false)), _) => Some((**right).clone()),
            (_, Some(Value::Bool(false))) => Some((**left).clone()),
            (Some(Value::Bool(true)), _) => Some(BoundExpr::Lit(Value::Bool(true))),
            (_, Some(Value::Bool(true))) if is_pure(left) => {
                Some(BoundExpr::Lit(Value::Bool(true)))
            }
            _ => None,
        },
        BoundExpr::Unary {
            op: UnOp::Not,
            expr,
        } => push_not(expr),
        _ => None,
    }
}

/// Push one `NOT` through its operand. All rewrites here are exact in
/// three-valued logic: a NULL operand stays NULL on both sides.
fn push_not(inner: &BoundExpr) -> Option<BoundExpr> {
    match inner {
        // Double negation.
        BoundExpr::Unary {
            op: UnOp::Not,
            expr,
        } => Some((**expr).clone()),
        // De Morgan.
        BoundExpr::Binary {
            op: op @ (BinOp::And | BinOp::Or),
            left,
            right,
        } => Some(BoundExpr::Binary {
            op: if *op == BinOp::And {
                BinOp::Or
            } else {
                BinOp::And
            },
            left: Box::new(BoundExpr::Unary {
                op: UnOp::Not,
                expr: left.clone(),
            }),
            right: Box::new(BoundExpr::Unary {
                op: UnOp::Not,
                expr: right.clone(),
            }),
        }),
        // Comparison inversion (incomparable operands are NULL under
        // both the original and the inverted operator).
        BoundExpr::Binary { op, left, right } if op.is_comparison() => {
            let inv = match op {
                BinOp::Eq => BinOp::NotEq,
                BinOp::NotEq => BinOp::Eq,
                BinOp::Lt => BinOp::GtEq,
                BinOp::LtEq => BinOp::Gt,
                BinOp::Gt => BinOp::LtEq,
                BinOp::GtEq => BinOp::Lt,
                _ => unreachable!("comparison ops only"),
            };
            Some(BoundExpr::Binary {
                op: inv,
                left: left.clone(),
                right: right.clone(),
            })
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => Some(BoundExpr::Like {
            expr: expr.clone(),
            pattern: pattern.clone(),
            negated: !*negated,
        }),
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => Some(BoundExpr::Between {
            expr: expr.clone(),
            low: low.clone(),
            high: high.clone(),
            negated: !*negated,
        }),
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => Some(BoundExpr::InList {
            expr: expr.clone(),
            list: list.clone(),
            negated: !*negated,
        }),
        BoundExpr::IsNull { expr, negated } => Some(BoundExpr::IsNull {
            expr: expr.clone(),
            negated: !*negated,
        }),
        _ => None,
    }
}

/// Split a bound expression into top-level AND conjuncts.
fn split_bound_conjuncts(e: &BoundExpr, out: &mut Vec<BoundExpr>) {
    match e {
        BoundExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            split_bound_conjuncts(left, out);
            split_bound_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Simplify a conjunct list in predicate position. Returns `true` when
/// the list changed.
fn simplify_conjuncts(conjuncts: &mut Vec<BoundExpr>) -> bool {
    let mut changed = false;
    // Drop TRUE conjuncts (tautologies). An emptied list means "no
    // filter", which is the same thing: a scan keeps no filters, and
    // `normalize_predicate` rebuilds TRUE, so no Filter node is built.
    let before = conjuncts.len();
    conjuncts.retain(|c| !matches!(c, BoundExpr::Lit(Value::Bool(true))));
    changed |= conjuncts.len() != before;

    let all_pure = conjuncts.iter().all(is_pure);
    if !all_pure {
        return changed;
    }
    // Constant FALSE/NULL conjunct ⇒ the whole predicate rejects.
    let constant_reject = conjuncts.iter().any(|c| {
        matches!(
            c,
            BoundExpr::Lit(Value::Bool(false)) | BoundExpr::Lit(Value::Null)
        )
    });
    if (constant_reject || has_contradiction(conjuncts))
        && (conjuncts.len() != 1 || !matches!(conjuncts[0], BoundExpr::Lit(Value::Bool(false))))
    {
        conjuncts.clear();
        conjuncts.push(BoundExpr::Lit(Value::Bool(false)));
        changed = true;
    }
    changed
}

/// Do two pure conjuncts of the form `#c <op> lit` contradict each
/// other (no value of `#c` can satisfy both)? In predicate position a
/// NULL `#c` already rejects, so the check only needs the non-null
/// ranges.
fn has_contradiction(conjuncts: &[BoundExpr]) -> bool {
    // (col, op, value) triples for simple comparisons, normalized to
    // the column on the left.
    let mut simple: Vec<(usize, BinOp, &Value)> = Vec::new();
    for c in conjuncts {
        if let BoundExpr::Binary { op, left, right } = c {
            if !op.is_comparison() {
                continue;
            }
            match (left.as_ref(), right.as_ref()) {
                (BoundExpr::Col(i), BoundExpr::Lit(v)) if !v.is_null() => {
                    simple.push((*i, *op, v));
                }
                (BoundExpr::Lit(v), BoundExpr::Col(i)) if !v.is_null() => {
                    simple.push((*i, op.swapped(), v));
                }
                _ => {}
            }
        }
    }
    for (i, &(ca, oa, va)) in simple.iter().enumerate() {
        for &(cb, ob, vb) in &simple[i + 1..] {
            if ca != cb {
                continue;
            }
            let Some(ord) = va.sql_cmp(vb) else {
                continue;
            };
            use std::cmp::Ordering::*;
            let conflict = match (oa, ob, ord) {
                // c = a AND c = b with a ≠ b.
                (BinOp::Eq, BinOp::Eq, Less | Greater) => true,
                // c = a AND c < b with a ≥ b (and symmetric shapes).
                (BinOp::Eq, BinOp::Lt, Equal | Greater) => true,
                (BinOp::Lt, BinOp::Eq, Equal | Less) => true,
                (BinOp::Eq, BinOp::LtEq, Greater) => true,
                (BinOp::LtEq, BinOp::Eq, Less) => true,
                (BinOp::Eq, BinOp::Gt, Equal | Less) => true,
                (BinOp::Gt, BinOp::Eq, Equal | Greater) => true,
                (BinOp::Eq, BinOp::GtEq, Less) => true,
                (BinOp::GtEq, BinOp::Eq, Greater) => true,
                // c < a AND c > b needs a > b; c < a AND c ≥ b needs a > b; …
                (BinOp::Lt | BinOp::LtEq, BinOp::Gt | BinOp::GtEq, Less) => true,
                (BinOp::Lt, BinOp::Gt | BinOp::GtEq, Equal) => true,
                (BinOp::LtEq, BinOp::Gt, Equal) => true,
                (BinOp::Gt | BinOp::GtEq, BinOp::Lt | BinOp::LtEq, Greater) => true,
                (BinOp::Gt, BinOp::Lt | BinOp::LtEq, Equal) => true,
                (BinOp::GtEq, BinOp::Lt, Equal) => true,
                _ => false,
            };
            if conflict {
                return true;
            }
        }
    }
    false
}

/// Bottom-up rewrite of one expression tree.
fn rewrite_expr(e: &mut BoundExpr, f: &mut impl FnMut(&BoundExpr) -> Option<BoundExpr>) -> bool {
    let mut changed = false;
    match e {
        BoundExpr::Col(_) | BoundExpr::Lit(_) | BoundExpr::Param { .. } => {}
        BoundExpr::Binary { left, right, .. } => {
            changed |= rewrite_expr(left, f);
            changed |= rewrite_expr(right, f);
        }
        BoundExpr::Unary { expr, .. } => changed |= rewrite_expr(expr, f),
        BoundExpr::Like { expr, pattern, .. } => {
            changed |= rewrite_expr(expr, f);
            changed |= rewrite_expr(pattern, f);
        }
        BoundExpr::Between {
            expr, low, high, ..
        } => {
            changed |= rewrite_expr(expr, f);
            changed |= rewrite_expr(low, f);
            changed |= rewrite_expr(high, f);
        }
        BoundExpr::InList { expr, .. } | BoundExpr::IsNull { expr, .. } => {
            changed |= rewrite_expr(expr, f);
        }
        BoundExpr::Case {
            branches,
            else_expr,
        } => {
            for (c, r) in branches.iter_mut() {
                changed |= rewrite_expr(c, f);
                changed |= rewrite_expr(r, f);
            }
            if let Some(el) = else_expr {
                changed |= rewrite_expr(el, f);
            }
        }
    }
    if let Some(new) = f(e) {
        *e = new;
        changed = true;
        // The replacement may enable another fold at this node (e.g.
        // NOT pushed through an AND exposes NOT-of-comparison children).
        while let Some(again) = f(e) {
            *e = again;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::tests::explain_with;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Col(i)
    }

    fn int(v: i64) -> BoundExpr {
        BoundExpr::Lit(Value::Int64(v))
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn not(e: BoundExpr) -> BoundExpr {
        BoundExpr::Unary {
            op: UnOp::Not,
            expr: Box::new(e),
        }
    }

    #[test]
    fn folds_constant_comparison_and_arith() {
        let e = normalize(bin(BinOp::Lt, col(0), bin(BinOp::Add, int(2), int(3))));
        assert_eq!(e.to_string(), "(#0 < 5)");
        assert_eq!(
            normalize(bin(BinOp::GtEq, int(2), int(3))),
            BoundExpr::Lit(Value::Bool(false))
        );
    }

    #[test]
    fn division_by_zero_never_folds() {
        let e = bin(BinOp::Div, int(1), int(0));
        assert!(fold_expr(&e).is_none());
        let of = bin(BinOp::Mul, int(i64::MAX), int(2));
        assert!(fold_expr(&of).is_none());
    }

    #[test]
    fn tautology_drops_and_contradiction_collapses() {
        // c0 < 5 AND 1 = 1 → the tautology disappears.
        let mut conjuncts = vec![
            bin(BinOp::Lt, col(0), int(5)),
            bin(BinOp::Eq, int(1), int(1)),
        ];
        normalize_conjuncts(&mut conjuncts);
        assert_eq!(conjuncts, vec![bin(BinOp::Lt, col(0), int(5))]);
        // c0 < 5 AND 9 < c0 → FALSE.
        let mut conjuncts = vec![
            bin(BinOp::Lt, col(0), int(5)),
            bin(BinOp::Lt, int(9), col(0)),
        ];
        normalize_conjuncts(&mut conjuncts);
        assert_eq!(conjuncts, vec![BoundExpr::Lit(Value::Bool(false))]);
    }

    #[test]
    fn not_pushes_through_comparisons_and_demorgan() {
        // NOT (a < 5 AND b = 3)  →  a >= 5 OR b <> 3.
        let e = not(bin(
            BinOp::And,
            bin(BinOp::Lt, col(0), int(5)),
            bin(BinOp::Eq, col(1), int(3)),
        ));
        assert_eq!(normalize(e).to_string(), "((#0 >= 5) OR (#1 <> 3))");
    }

    #[test]
    fn double_negation_and_negated_flips() {
        let mut conjuncts = vec![
            not(not(bin(BinOp::Eq, col(0), int(1)))),
            not(BoundExpr::IsNull {
                expr: Box::new(col(0)),
                negated: false,
            }),
        ];
        normalize_conjuncts(&mut conjuncts);
        assert_eq!(conjuncts[0].to_string(), "(#0 = 1)");
        assert_eq!(conjuncts[1].to_string(), "#0 IS NOT NULL");
    }

    #[test]
    fn true_filter_node_is_spliced_out() {
        assert_eq!(normalize_predicate(bin(BinOp::Eq, int(7), int(7))), None);
        let kept = bin(
            BinOp::And,
            bin(BinOp::Lt, col(0), int(9)),
            bin(BinOp::Eq, int(7), int(7)),
        );
        assert_eq!(
            normalize_predicate(kept),
            Some(bin(BinOp::Lt, col(0), int(9)))
        );
    }

    #[test]
    fn filter_over_scan_pushes_into_filter_list() {
        // A constant conjunct joins the scan's filter list instead of
        // becoming a Filter node above it.
        assert_eq!(
            explain_with("select id from t where id < 9 and $1 = 2", true),
            "Project [#0]\n  Scan t proj=[0] filters=[(#0 < 9), ($1 = 2)] (~2 rows)\n"
        );
    }

    #[test]
    fn having_on_group_keys_pushes_below_aggregate() {
        // A pure HAVING conjunct over a bare group key filters the rows
        // in the scan; the aggregate keeps its shape.
        assert_eq!(
            explain_with(
                "select grp, count(*) from t group by grp having grp = 'a'",
                true
            ),
            "Project [#0, #1]\n  HashAggregate group=[0] aggs=1\n    \
             Scan t proj=[1] filters=[(#0 = a)] (~5 rows)\n"
        );
    }

    #[test]
    fn pruning_narrows_scan_after_filter_vanishes() {
        // `score > 1 OR 1 = 1` is a tautology: once it normalizes away,
        // score leaves the scan projection.
        assert_eq!(
            explain_with("select sum(id) from t where score > 1 or 1 = 1", true),
            "Project [#0]\n  PlainAggregate group=[] aggs=1\n    Scan t proj=[0] (~1000 rows)\n"
        );
    }

    #[test]
    fn impure_conjuncts_keep_constant_false_from_collapsing() {
        // (c0 / c1 > 1) AND FALSE — the division can error, so the
        // whole predicate must NOT collapse to FALSE.
        let div = bin(BinOp::Gt, bin(BinOp::Div, col(0), col(1)), int(1));
        let mut conjuncts = vec![div.clone(), BoundExpr::Lit(Value::Bool(false))];
        simplify_conjuncts(&mut conjuncts);
        assert_eq!(conjuncts.len(), 2, "{conjuncts:?}");
        // All-pure version collapses.
        let mut conjuncts = vec![
            bin(BinOp::Gt, col(0), int(1)),
            BoundExpr::Lit(Value::Bool(false)),
        ];
        simplify_conjuncts(&mut conjuncts);
        assert_eq!(conjuncts.as_slice(), &[BoundExpr::Lit(Value::Bool(false))]);
    }
}
