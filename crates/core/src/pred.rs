//! Compiled scan predicates: pushed-down conjuncts evaluated against raw
//! field slices *before* full-row tokenization and conversion.
//!
//! The binder (`nodb-sql`) pushes WHERE conjuncts into
//! `LogicalPlan::Scan::filters`. Historically the scan still tokenized
//! every projected attribute and converted every WHERE column before
//! evaluating those conjuncts; for a selective predicate on an early
//! column of a wide row, almost all of that work is thrown away.
//! [`ScanPredicate::compile`] extracts the conjuncts simple enough to
//! check per column — comparisons against pre-converted literals, LIKE
//! prefix/suffix fast paths on raw bytes, IS \[NOT\] NULL — so the scan
//! can tokenize *only up to the predicate frontier*, test, and skip the
//! rest of the record on a miss (the paper's selective tokenizing taken
//! one step further: the query's logic, not just its projection, bounds
//! the bytes touched).
//!
//! # Soundness contract
//!
//! A compiled item rejecting a row must imply the original conjunct
//! evaluates to FALSE or NULL for that row (both reject in predicate
//! position). Rows that *pass* every compiled item re-run the full
//! filter list through the ordinary evaluation path, so compiled items
//! never admit a row on their own — they are purely an early-reject
//! screen, and residual (uncompiled) conjuncts need no special handling.
//!
//! Rows rejected early skip conversion and validation of fields past
//! the predicate frontier; a malformed byte in a field the predicate
//! proved irrelevant no longer aborts the query. That is the only
//! observable difference from the unpushed plan, and the scan only uses
//! compiled predicates when no positional map, cache, or statistics
//! collection is active (those need every row's full frontier anyway).

use std::cmp::Ordering;

use nodb_common::like::like_match;
use nodb_common::{DataType, LineFormat, NoDbError, RawField, Result, Value};
use nodb_sql::{BinOp, BoundExpr};

/// Structural LIKE fast paths recognizable from the pattern alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LikeShape {
    /// `lit%` — raw bytes must start with `lit`.
    Prefix(Vec<u8>),
    /// `%lit` — raw bytes must end with `lit`.
    Suffix(Vec<u8>),
    /// Anything else: full [`like_match`] on the text content.
    General,
}

/// One compiled per-column test.
#[derive(Debug, Clone, PartialEq)]
pub enum PredOp {
    /// Comparison against a pre-converted literal (`sql_cmp` semantics:
    /// NULL or incomparable types reject).
    Cmp {
        /// Comparison operator, column on the left.
        op: BinOp,
        /// The literal, already a [`Value`] (never NULL).
        lit: Value,
    },
    /// `col [NOT] LIKE 'pattern'` on a text column.
    Like {
        /// Recognized fast-path shape.
        shape: LikeShape,
        /// The full pattern (used by [`LikeShape::General`]).
        pattern: String,
        /// NOT LIKE.
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull {
        /// IS NOT NULL.
        negated: bool,
    },
}

/// A compiled conjunct: which column it tests and how.
#[derive(Debug, Clone, PartialEq)]
pub struct PredItem {
    /// Ordinal into the scan's projection (the filter expressions'
    /// column space).
    pub local: usize,
    /// File attribute ordinal (indexes tokenized start positions).
    pub attr: usize,
    /// The test.
    pub op: PredOp,
}

/// The compiled early-reject screen for one scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPredicate {
    items: Vec<PredItem>,
    max_attr: usize,
}

impl ScanPredicate {
    /// Compile the pushed-down conjuncts that have a per-column raw
    /// form. `projection` maps filter-local ordinals to file attributes;
    /// `dtype` gives each local column's declared type. Returns `None`
    /// when nothing compiles (the scan keeps its ordinary path).
    pub fn compile(
        filters: &[BoundExpr],
        projection: &[usize],
        dtype: impl Fn(usize) -> DataType,
    ) -> Option<ScanPredicate> {
        let mut items = Vec::new();
        for f in filters {
            compile_conjunct(f, &dtype, &mut items);
        }
        let max_attr = items.iter().map(|i| projection[i.local]).max()?;
        for i in items.iter_mut() {
            i.attr = projection[i.local];
        }
        Some(ScanPredicate { items, max_attr })
    }

    /// Highest file attribute any compiled item touches — the predicate
    /// tokenization frontier.
    pub fn max_attr(&self) -> usize {
        self.max_attr
    }

    /// The compiled items (for EXPLAIN and tests).
    pub fn items(&self) -> &[PredItem] {
        &self.items
    }

    /// Evaluate every compiled item against one record. `starts` holds
    /// tokenized start positions indexed by file attribute, valid at
    /// least up to [`ScanPredicate::max_attr`]. `parse` converts the
    /// field of a local column at a known start (the scan's ordinary
    /// conversion hook, so metrics and error decoration stay in one
    /// place). Returns whether the row survives the screen.
    pub fn matches(
        &self,
        format: &dyn LineFormat,
        line: &[u8],
        starts: &[u32],
        parse: &mut dyn FnMut(usize, u32) -> Result<Value>,
    ) -> Result<bool> {
        for item in &self.items {
            let start = starts[item.attr];
            let pass = match &item.op {
                PredOp::Cmp { op, lit } => {
                    let v = parse(item.local, start)?;
                    match v.sql_cmp(lit) {
                        None => false,
                        Some(ord) => cmp_matches(*op, ord),
                    }
                }
                PredOp::Like {
                    shape,
                    pattern,
                    negated,
                } => match format.raw_field(line, start) {
                    RawField::Null => false,
                    RawField::Text(b) => {
                        let matched = match shape {
                            LikeShape::Prefix(p) => b.starts_with(p),
                            LikeShape::Suffix(s) => b.ends_with(s),
                            LikeShape::General => like_match(&String::from_utf8_lossy(b), pattern),
                        };
                        matched != *negated
                    }
                    RawField::Opaque => match parse(item.local, start)? {
                        Value::Null => false,
                        Value::Text(s) => like_match(&s, pattern) != *negated,
                        other => {
                            return Err(NoDbError::execution(format!("LIKE on non-text {other}")))
                        }
                    },
                },
                PredOp::IsNull { negated } => match format.raw_field(line, start) {
                    RawField::Null => !negated,
                    RawField::Text(_) => *negated,
                    RawField::Opaque => parse(item.local, start)?.is_null() != *negated,
                },
            };
            if !pass {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl PredOp {
    /// Test an already-converted value — the warm-path variant, used
    /// when positions come from the positional map and no raw slice is
    /// at hand. Same semantics as the raw-path arms of
    /// [`ScanPredicate::matches`].
    pub fn test_value(&self, v: &Value) -> Result<bool> {
        Ok(match self {
            PredOp::Cmp { op, lit } => match v.sql_cmp(lit) {
                None => false,
                Some(ord) => cmp_matches(*op, ord),
            },
            PredOp::Like {
                pattern, negated, ..
            } => match v {
                Value::Null => false,
                Value::Text(s) => like_match(s, pattern) != *negated,
                other => return Err(NoDbError::execution(format!("LIKE on non-text {other}"))),
            },
            PredOp::IsNull { negated } => v.is_null() != *negated,
        })
    }
}

/// Compile one conjunct into zero or more items (BETWEEN yields two).
/// `attr` is filled in later from the projection.
fn compile_conjunct(f: &BoundExpr, dtype: &impl Fn(usize) -> DataType, out: &mut Vec<PredItem>) {
    let item = |local, op| PredItem { local, attr: 0, op };
    match f {
        BoundExpr::Binary { op, left, right } if op.is_comparison() => {
            match (left.as_ref(), right.as_ref()) {
                (BoundExpr::Col(i), BoundExpr::Lit(v)) if !v.is_null() => {
                    out.push(item(
                        *i,
                        PredOp::Cmp {
                            op: *op,
                            lit: v.clone(),
                        },
                    ));
                }
                (BoundExpr::Lit(v), BoundExpr::Col(i)) if !v.is_null() => {
                    out.push(item(
                        *i,
                        PredOp::Cmp {
                            op: op.swapped(),
                            lit: v.clone(),
                        },
                    ));
                }
                _ => {}
            }
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            if let (BoundExpr::Col(i), BoundExpr::Lit(Value::Text(p))) =
                (expr.as_ref(), pattern.as_ref())
            {
                // Only text columns: LIKE on any other type is a runtime
                // error the ordinary path must keep raising.
                if dtype(*i) == DataType::Text {
                    out.push(item(
                        *i,
                        PredOp::Like {
                            shape: like_shape(p),
                            pattern: p.clone(),
                            negated: *negated,
                        },
                    ));
                }
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            if let BoundExpr::Col(i) = expr.as_ref() {
                out.push(item(*i, PredOp::IsNull { negated: *negated }));
            }
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            // x BETWEEN l AND h ⊆ (x >= l) AND (x <= h): failing either
            // bound implies the BETWEEN is FALSE or NULL.
            if let BoundExpr::Col(i) = expr.as_ref() {
                if let BoundExpr::Lit(v) = low.as_ref() {
                    if !v.is_null() {
                        out.push(item(
                            *i,
                            PredOp::Cmp {
                                op: BinOp::GtEq,
                                lit: v.clone(),
                            },
                        ));
                    }
                }
                if let BoundExpr::Lit(v) = high.as_ref() {
                    if !v.is_null() {
                        out.push(item(
                            *i,
                            PredOp::Cmp {
                                op: BinOp::LtEq,
                                lit: v.clone(),
                            },
                        ));
                    }
                }
            }
        }
        _ => {}
    }
}

fn cmp_matches(op: BinOp, ord: Ordering) -> bool {
    // `compile_conjunct` only builds `PredOp::Cmp` from comparison ops
    // (and BETWEEN's GtEq/LtEq), so `holds` always answers. Were it not
    // to, passing the row through is sound: the screen is an early
    // reject in front of the full filter evaluation.
    op.holds(ord).unwrap_or(true)
}

/// Recognize `lit%` / `%lit` patterns whose literal part has no
/// wildcards — those match with one slice comparison on raw bytes.
fn like_shape(pattern: &str) -> LikeShape {
    let b = pattern.as_bytes();
    if b.len() >= 2 && b.ends_with(b"%") {
        let lit = &b[..b.len() - 1];
        if !lit.is_empty() && !lit.iter().any(|&c| c == b'%' || c == b'_') {
            return LikeShape::Prefix(lit.to_vec());
        }
    }
    if b.len() >= 2 && b.starts_with(b"%") {
        let lit = &b[1..];
        if !lit.is_empty() && !lit.iter().any(|&c| c == b'%' || c == b'_') {
            return LikeShape::Suffix(lit.to_vec());
        }
    }
    LikeShape::General
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Col(i)
    }

    fn lit(v: Value) -> BoundExpr {
        BoundExpr::Lit(v)
    }

    fn cmp(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn compiles_comparisons_both_ways() {
        let filters = vec![
            cmp(BinOp::Lt, col(1), lit(Value::Int64(5))),
            cmp(BinOp::Gt, lit(Value::Int64(3)), col(0)),
        ];
        let p = ScanPredicate::compile(&filters, &[2, 7], |_| DataType::Int64).unwrap();
        assert_eq!(p.max_attr(), 7);
        assert_eq!(p.items().len(), 2);
        assert_eq!(p.items()[0].attr, 7);
        // `3 > c0` flips to `c0 < 3`.
        assert_eq!(
            p.items()[1].op,
            PredOp::Cmp {
                op: BinOp::Lt,
                lit: Value::Int64(3)
            }
        );
    }

    #[test]
    fn null_literals_and_complex_shapes_stay_residual() {
        let filters = vec![
            cmp(BinOp::Eq, col(0), lit(Value::Null)),
            cmp(BinOp::Eq, col(0), col(1)),
        ];
        assert!(ScanPredicate::compile(&filters, &[0, 1], |_| DataType::Int64).is_none());
    }

    #[test]
    fn like_compiles_only_on_text_columns() {
        let like = BoundExpr::Like {
            expr: Box::new(col(0)),
            pattern: Box::new(lit(Value::Text("PROMO%".into()))),
            negated: false,
        };
        let p =
            ScanPredicate::compile(std::slice::from_ref(&like), &[4], |_| DataType::Text).unwrap();
        assert!(matches!(
            &p.items()[0].op,
            PredOp::Like {
                shape: LikeShape::Prefix(pfx),
                ..
            } if pfx == b"PROMO"
        ));
        assert!(
            ScanPredicate::compile(std::slice::from_ref(&like), &[4], |_| DataType::Int64)
                .is_none()
        );
    }

    #[test]
    fn like_shapes_recognized() {
        assert_eq!(like_shape("abc%"), LikeShape::Prefix(b"abc".to_vec()));
        assert_eq!(like_shape("%abc"), LikeShape::Suffix(b"abc".to_vec()));
        for general in ["a%c", "%a%", "a_c%", "%", "abc", "%%"] {
            assert_eq!(like_shape(general), LikeShape::General, "{general}");
        }
    }

    #[test]
    fn between_expands_to_bound_checks() {
        let between = BoundExpr::Between {
            expr: Box::new(col(0)),
            low: Box::new(lit(Value::Int64(2))),
            high: Box::new(lit(Value::Int64(9))),
            negated: false,
        };
        let p = ScanPredicate::compile(std::slice::from_ref(&between), &[3], |_| DataType::Int64)
            .unwrap();
        assert_eq!(p.items().len(), 2);
    }
}
