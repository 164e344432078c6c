//! Optimizer helpers: conjunct manipulation, OR-factoring, selectivity and
//! cardinality estimation.
//!
//! The binder drives planning; this module supplies the reusable pieces.
//! With `use_stats` off (or no statistics collected yet) every estimate
//! falls back to PostgreSQL-style defaults — exactly the "without
//! statistics the query plans are poor" regime the paper contrasts in
//! Figure 12.

use nodb_common::Value;
use nodb_stats::{ColumnStats, TableStats, DEFAULT_EQ_SEL, DEFAULT_INEQ_SEL, DEFAULT_LIKE_SEL};

use crate::ast::{AstBinOp, AstExpr};
use crate::binder::CatalogView;
use crate::expr::{BinOp, BoundExpr};
use crate::plan::{AggStrategy, JoinKind, LogicalPlan};

/// Row-count guess for tables without statistics.
pub const DEFAULT_TABLE_ROWS: f64 = 1000.0;
/// Fallback distinct count (PostgreSQL's 200).
pub const DEFAULT_NDV: f64 = 200.0;
/// Estimated groups below this pick hash aggregation.
pub const HASH_AGG_GROUP_LIMIT: f64 = 500_000.0;

/// Split an AST expression into its top-level AND conjuncts.
pub fn split_conjuncts(e: &AstExpr, out: &mut Vec<AstExpr>) {
    match e {
        AstExpr::Binary {
            op: AstBinOp::And,
            left,
            right,
        } => {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Split an OR expression into its top-level disjuncts.
fn split_disjuncts(e: &AstExpr, out: &mut Vec<AstExpr>) {
    match e {
        AstExpr::Binary {
            op: AstBinOp::Or,
            left,
            right,
        } => {
            split_disjuncts(left, out);
            split_disjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

fn conjoin(mut parts: Vec<AstExpr>) -> Option<AstExpr> {
    let first = parts.pop()?;
    Some(parts.into_iter().fold(first, |acc, p| AstExpr::Binary {
        op: AstBinOp::And,
        left: Box::new(p),
        right: Box::new(acc),
    }))
}

fn disjoin(mut parts: Vec<AstExpr>) -> Option<AstExpr> {
    let first = parts.pop()?;
    Some(parts.into_iter().fold(first, |acc, p| AstExpr::Binary {
        op: AstBinOp::Or,
        left: Box::new(p),
        right: Box::new(acc),
    }))
}

/// Factor conjuncts common to *every* disjunct out of an OR expression:
/// `(a AND x) OR (a AND y)` → `a AND (x OR y)`.
///
/// TPC-H Q19 relies on this: its predicate is an OR of three conjunctions
/// that all contain `p_partkey = l_partkey`; factoring exposes the
/// equi-join so the planner can use a hash join instead of a cross
/// product.
pub fn factor_or(e: &AstExpr) -> Vec<AstExpr> {
    let mut disjuncts = Vec::new();
    split_disjuncts(e, &mut disjuncts);
    if disjuncts.len() < 2 {
        return vec![e.clone()];
    }
    let mut per_disjunct: Vec<Vec<AstExpr>> = disjuncts
        .iter()
        .map(|d| {
            let mut v = Vec::new();
            split_conjuncts(d, &mut v);
            v
        })
        .collect();
    // Common = conjuncts present (structurally) in every disjunct.
    let mut common: Vec<AstExpr> = Vec::new();
    let first = per_disjunct[0].clone();
    for cand in first {
        if per_disjunct[1..].iter().all(|d| d.contains(&cand)) && !common.contains(&cand) {
            common.push(cand);
        }
    }
    if common.is_empty() {
        return vec![e.clone()];
    }
    // Remove common parts from each disjunct.
    for d in &mut per_disjunct {
        d.retain(|c| !common.contains(c));
    }
    let mut out = common;
    // Rebuild the residual OR unless some disjunct became empty (then the
    // OR is implied by the common part: a OR (a AND x) = a).
    if per_disjunct.iter().all(|d| !d.is_empty()) {
        let rebuilt: Vec<AstExpr> = per_disjunct
            .into_iter()
            .map(|d| conjoin(d).expect("non-empty"))
            .collect();
        if let Some(or) = disjoin(rebuilt) {
            out.push(or);
        }
    }
    out
}

/// Column-statistics lookup the estimator needs: maps a bound ordinal back
/// to per-attribute stats.
pub trait ColumnStatsLookup {
    /// Stats for the column behind bound ordinal `col`, if any.
    fn column_stats(&self, col: usize) -> Option<&ColumnStats>;
}

/// No statistics at all (the `use_stats = false` regime).
pub struct NoStats;

impl ColumnStatsLookup for NoStats {
    fn column_stats(&self, _col: usize) -> Option<&ColumnStats> {
        None
    }
}

/// Stats lookup for a scan: projection ordinal → table attribute stats.
pub struct ScanStatsLookup<'a> {
    /// Table stats.
    pub stats: &'a TableStats,
    /// Projection (ordinal → attribute).
    pub projection: &'a [usize],
}

impl ColumnStatsLookup for ScanStatsLookup<'_> {
    fn column_stats(&self, col: usize) -> Option<&ColumnStats> {
        let attr = *self.projection.get(col)?;
        self.stats.column(attr as u32)
    }
}

/// Estimate the selectivity of one bound predicate.
pub fn selectivity(e: &BoundExpr, lookup: &dyn ColumnStatsLookup) -> f64 {
    match e {
        BoundExpr::Lit(Value::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        BoundExpr::Binary { op, left, right } => match op {
            BinOp::And => selectivity(left, lookup) * selectivity(right, lookup),
            BinOp::Or => {
                let a = selectivity(left, lookup);
                let b = selectivity(right, lookup);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                comparison_selectivity(*op, left, right, lookup)
            }
            _ => DEFAULT_INEQ_SEL,
        },
        BoundExpr::Unary {
            op: crate::expr::UnOp::Not,
            expr,
        } => (1.0 - selectivity(expr, lookup)).clamp(0.0, 1.0),
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let s = match (expr.as_ref(), low.as_ref(), high.as_ref()) {
                (BoundExpr::Col(c), BoundExpr::Lit(lo), BoundExpr::Lit(hi)) => {
                    match lookup.column_stats(*c) {
                        Some(st) => st.selectivity_range(Some(lo), Some(hi)),
                        None => DEFAULT_INEQ_SEL * DEFAULT_INEQ_SEL,
                    }
                }
                _ => DEFAULT_INEQ_SEL * DEFAULT_INEQ_SEL,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let s = match expr.as_ref() {
                BoundExpr::Col(c) => match lookup.column_stats(*c) {
                    Some(st) => list
                        .iter()
                        .map(|v| st.selectivity_eq(v))
                        .sum::<f64>()
                        .clamp(0.0, 1.0),
                    None => (DEFAULT_EQ_SEL * list.len() as f64).clamp(0.0, 1.0),
                },
                _ => (DEFAULT_EQ_SEL * list.len() as f64).clamp(0.0, 1.0),
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            // Only a constant pattern can consult statistics; a
            // parameterized or computed pattern estimates at the default
            // (and is refreshed with the concrete value at execute time
            // once parameters are substituted).
            let s = match (expr.as_ref(), pattern.as_ref()) {
                (BoundExpr::Col(c), BoundExpr::Lit(Value::Text(p))) => {
                    match lookup.column_stats(*c) {
                        Some(st) => st.selectivity_like(p),
                        None => DEFAULT_LIKE_SEL,
                    }
                }
                _ => DEFAULT_LIKE_SEL,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            let s = match expr.as_ref() {
                BoundExpr::Col(c) => lookup
                    .column_stats(*c)
                    .map_or(0.01, |st| st.null_fraction()),
                _ => 0.01,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        _ => DEFAULT_INEQ_SEL,
    }
}

fn comparison_selectivity(
    op: BinOp,
    left: &BoundExpr,
    right: &BoundExpr,
    lookup: &dyn ColumnStatsLookup,
) -> f64 {
    // Normalize to Col <op> Lit.
    let (col, lit, op) = match (left, right) {
        (BoundExpr::Col(c), BoundExpr::Lit(v)) => (*c, v, op),
        (BoundExpr::Lit(v), BoundExpr::Col(c)) => (*c, v, op.swapped()),
        _ => {
            return match op {
                BinOp::Eq => DEFAULT_EQ_SEL,
                BinOp::NotEq => 1.0 - DEFAULT_EQ_SEL,
                _ => DEFAULT_INEQ_SEL,
            }
        }
    };
    let Some(st) = lookup.column_stats(col) else {
        return match op {
            BinOp::Eq => DEFAULT_EQ_SEL,
            BinOp::NotEq => 1.0 - DEFAULT_EQ_SEL,
            _ => DEFAULT_INEQ_SEL,
        };
    };
    match op {
        BinOp::Eq => st.selectivity_eq(lit),
        BinOp::NotEq => (1.0 - st.selectivity_eq(lit)).clamp(0.0, 1.0),
        BinOp::Lt | BinOp::LtEq => st.selectivity_range(None, Some(lit)),
        BinOp::Gt | BinOp::GtEq => st.selectivity_range(Some(lit), None),
        _ => DEFAULT_INEQ_SEL,
    }
}

/// Combined selectivity of pushed-down scan conjuncts.
pub fn conjunct_selectivity(filters: &[BoundExpr], lookup: &dyn ColumnStatsLookup) -> f64 {
    filters
        .iter()
        .map(|f| selectivity(f, lookup))
        .product::<f64>()
        .clamp(0.0, 1.0)
}

/// Estimated rows out of a scan of a table with `stats` (none: the
/// default row count and selectivities) producing `projection` under
/// the pushed-down `filters`.
pub(crate) fn scan_estimate(
    stats: Option<&TableStats>,
    projection: &[usize],
    filters: &[BoundExpr],
) -> f64 {
    let base = stats
        .and_then(|s| s.row_count())
        .map_or(DEFAULT_TABLE_ROWS, |r| r as f64);
    let sel = match stats {
        Some(stats) => conjunct_selectivity(filters, &ScanStatsLookup { stats, projection }),
        None => conjunct_selectivity(filters, &NoStats),
    };
    (base * sel).max(1.0)
}

/// Hash vs. sort aggregation (the Figure 12 mechanism) from the group
/// keys' distinct counts and the input estimate; also returns the
/// estimated group count.
pub(crate) fn agg_strategy(
    key_ndvs: impl Iterator<Item = f64>,
    input_rows: f64,
) -> (AggStrategy, f64) {
    let groups = key_ndvs
        .map(|ndv| ndv.max(1.0))
        .product::<f64>()
        .min(input_rows.max(1.0));
    let strategy = if groups <= HASH_AGG_GROUP_LIMIT {
        AggStrategy::Hash
    } else {
        AggStrategy::Sort
    };
    (strategy, groups)
}

/// Estimated rows out of an equi-join: `|L|·|R| / max(ndv_l, ndv_r)` per
/// key pair (keys assumed independent).
pub fn join_cardinality(left_rows: f64, right_rows: f64, key_ndvs: &[(f64, f64)]) -> f64 {
    let mut card = left_rows * right_rows;
    for &(nl, nr) in key_ndvs {
        card /= nl.max(nr).max(1.0);
    }
    card.max(1.0)
}

// ----- execute-time refresh (prepared statements) ------------------------

/// Re-run the cheap, stats-driven half of optimization over an already
/// bound plan — the execute-time pass of a prepared statement.
///
/// Binding fixes the things that cannot change without re-binding (join
/// order, column layouts, pushed-down filters); what *can* go stale
/// between executions of a cached plan is everything derived from the
/// engine's on-the-fly statistics, which grow as queries touch the raw
/// file. This pass walks the plan bottom-up and, when `use_stats` is on:
///
/// * recomputes every scan's `estimated_rows` from the *current* table
///   statistics and the (by now parameter-substituted, hence concrete)
///   pushed-down filters,
/// * recomputes join estimates from refreshed inputs and current key
///   NDVs, and
/// * re-chooses the aggregation strategy (hash vs. sort) from current
///   group-key NDVs — the paper's Figure 12 mechanism, applied at every
///   execute instead of only at prepare time.
///
/// Returns the refreshed row estimate of the root. With `use_stats`
/// off the plan is left exactly as bound (the "w/o statistics" regime).
pub fn refresh_stats(plan: &mut LogicalPlan, catalog: &dyn CatalogView, use_stats: bool) -> f64 {
    if !use_stats {
        return plan_est(plan);
    }
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filters,
            estimated_rows,
            ..
        } => {
            *estimated_rows = scan_estimate(catalog.stats_of(table).as_ref(), projection, filters);
            *estimated_rows
        }
        LogicalPlan::Filter { input, .. } => refresh_stats(input, catalog, use_stats),
        LogicalPlan::Join {
            left,
            right,
            on,
            kind,
            estimated_rows,
            ..
        } => {
            let l = refresh_stats(left, catalog, use_stats);
            let r = refresh_stats(right, catalog, use_stats);
            *estimated_rows = match kind {
                JoinKind::Inner => {
                    let ndvs: Vec<(f64, f64)> = on
                        .iter()
                        .map(|&(lc, rc)| {
                            (
                                column_ndv(left, lc, catalog).unwrap_or(DEFAULT_NDV),
                                column_ndv(right, rc, catalog).unwrap_or(DEFAULT_NDV),
                            )
                        })
                        .collect();
                    join_cardinality(l, r, &ndvs)
                }
                JoinKind::Semi | JoinKind::Anti => (l * 0.5).max(1.0),
            };
            *estimated_rows
        }
        LogicalPlan::Aggregate {
            input,
            group,
            strategy,
            ..
        } => {
            let child = refresh_stats(input, catalog, use_stats);
            if group.is_empty() {
                return 1.0;
            }
            let ndvs = group
                .iter()
                .map(|&g| column_ndv(input, g, catalog).unwrap_or(DEFAULT_NDV));
            let (chosen, groups) = agg_strategy(ndvs, child);
            *strategy = chosen;
            groups
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Distinct { input } => refresh_stats(input, catalog, use_stats),
        LogicalPlan::Limit { input, n } => {
            let child = refresh_stats(input, catalog, use_stats);
            child.min(*n as f64)
        }
    }
}

/// The row estimate already recorded on a plan (nearest annotated node).
fn plan_est(plan: &LogicalPlan) -> f64 {
    match plan {
        LogicalPlan::Scan { estimated_rows, .. } | LogicalPlan::Join { estimated_rows, .. } => {
            *estimated_rows
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input } => plan_est(input),
    }
}

/// Trace output ordinal `col` of `plan` down to a base-table column and
/// return its *current* distinct-count, when the column reaches a scan
/// leaf unchanged (through filters, join concatenation, identity
/// projections and group keys).
fn column_ndv(plan: &LogicalPlan, col: usize, catalog: &dyn CatalogView) -> Option<f64> {
    match plan {
        LogicalPlan::Scan {
            table, projection, ..
        } => {
            let attr = *projection.get(col)? as u32;
            catalog
                .stats_of(table)
                .and_then(|s| s.column(attr).map(|cs| cs.distinct()))
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input } => column_ndv(input, col, catalog),
        LogicalPlan::Join {
            left, right, kind, ..
        } => {
            let n_left = left.schema().len();
            if col < n_left {
                column_ndv(left, col, catalog)
            } else {
                match kind {
                    JoinKind::Inner => column_ndv(right, col - n_left, catalog),
                    // Semi/anti joins output only left columns.
                    JoinKind::Semi | JoinKind::Anti => None,
                }
            }
        }
        LogicalPlan::Project { input, exprs, .. } => match exprs.get(col)? {
            BoundExpr::Col(i) => column_ndv(input, *i, catalog),
            _ => None,
        },
        LogicalPlan::Aggregate { input, group, .. } => {
            let &g = group.get(col)?;
            column_ndv(input, g, catalog)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col_eq_col(a: &str, b: &str) -> AstExpr {
        AstExpr::Binary {
            op: AstBinOp::Eq,
            left: Box::new(AstExpr::Column {
                table: None,
                name: a.into(),
            }),
            right: Box::new(AstExpr::Column {
                table: None,
                name: b.into(),
            }),
        }
    }

    fn col_eq_lit(a: &str, v: i64) -> AstExpr {
        AstExpr::Binary {
            op: AstBinOp::Eq,
            left: Box::new(AstExpr::Column {
                table: None,
                name: a.into(),
            }),
            right: Box::new(AstExpr::Literal(Value::Int64(v))),
        }
    }

    fn and(a: AstExpr, b: AstExpr) -> AstExpr {
        AstExpr::Binary {
            op: AstBinOp::And,
            left: Box::new(a),
            right: Box::new(b),
        }
    }

    fn or(a: AstExpr, b: AstExpr) -> AstExpr {
        AstExpr::Binary {
            op: AstBinOp::Or,
            left: Box::new(a),
            right: Box::new(b),
        }
    }

    #[test]
    fn factor_or_extracts_common_join_key() {
        // (j AND a) OR (j AND b) → j, (a OR b)   — the Q19 shape.
        let j = col_eq_col("p_partkey", "l_partkey");
        let e = or(
            and(j.clone(), col_eq_lit("x", 1)),
            and(j.clone(), col_eq_lit("x", 2)),
        );
        let parts = factor_or(&e);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], j);
        // Residual is an OR.
        assert!(matches!(
            &parts[1],
            AstExpr::Binary {
                op: AstBinOp::Or,
                ..
            }
        ));
    }

    #[test]
    fn factor_or_without_common_part_is_identity() {
        let e = or(col_eq_lit("a", 1), col_eq_lit("b", 2));
        let parts = factor_or(&e);
        assert_eq!(parts, vec![e]);
    }

    #[test]
    fn factor_or_absorbs_implied_disjunct() {
        // a OR (a AND x) → a.
        let a = col_eq_lit("a", 1);
        let e = or(a.clone(), and(a.clone(), col_eq_lit("x", 2)));
        let parts = factor_or(&e);
        assert_eq!(parts, vec![a]);
    }

    #[test]
    fn split_conjuncts_flattens_nested_ands() {
        let e = and(
            col_eq_lit("a", 1),
            and(col_eq_lit("b", 2), col_eq_lit("c", 3)),
        );
        let mut out = Vec::new();
        split_conjuncts(&e, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn default_selectivities_without_stats() {
        let eq = BoundExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(BoundExpr::Col(0)),
            right: Box::new(BoundExpr::Lit(Value::Int64(1))),
        };
        assert_eq!(selectivity(&eq, &NoStats), DEFAULT_EQ_SEL);
        let lt = BoundExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(BoundExpr::Col(0)),
            right: Box::new(BoundExpr::Lit(Value::Int64(1))),
        };
        assert_eq!(selectivity(&lt, &NoStats), DEFAULT_INEQ_SEL);
    }

    #[test]
    fn join_cardinality_divides_by_max_ndv() {
        let c = join_cardinality(1000.0, 500.0, &[(100.0, 50.0)]);
        assert_eq!(c, 5000.0);
        // Never below 1.
        assert_eq!(join_cardinality(1.0, 1.0, &[(1e9, 1e9)]), 1.0);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use nodb_common::DataType;
    use nodb_stats::{StatsBuilder, TableStats};

    fn lineitem_like_stats() -> TableStats {
        let mut t = TableStats::new();
        t.set_row_count(10_000);
        // attr 0: uniform ints 0..100
        let mut b = StatsBuilder::new(DataType::Int32);
        for i in 0..10_000 {
            b.offer(&Value::Int32(i % 100));
        }
        t.set_column(0, b.finalize(Some(10_000.0)));
        // attr 1: skewed text (80% "A")
        let mut b = StatsBuilder::new(DataType::Text);
        for i in 0..5_000 {
            let s = if i % 5 < 4 { "A" } else { "B" };
            b.offer(&Value::Text(s.into()));
        }
        t.set_column(1, b.finalize(Some(10_000.0)));
        t
    }

    fn col_lt(c: usize, v: i64) -> BoundExpr {
        BoundExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(BoundExpr::Col(c)),
            right: Box::new(BoundExpr::Lit(Value::Int64(v))),
        }
    }

    #[test]
    fn scan_lookup_maps_projection_to_attrs() {
        let stats = lineitem_like_stats();
        // Projection [1, 0]: bound ordinal 0 -> attr 1 (text), 1 -> attr 0.
        let lookup = ScanStatsLookup {
            stats: &stats,
            projection: &[1, 0],
        };
        let sel_text_eq = selectivity(
            &BoundExpr::Binary {
                op: BinOp::Eq,
                left: Box::new(BoundExpr::Col(0)),
                right: Box::new(BoundExpr::Lit(Value::Text("A".into()))),
            },
            &lookup,
        );
        assert!(
            (0.6..=1.0).contains(&sel_text_eq),
            "skewed eq {sel_text_eq}"
        );
        let sel_int_half = selectivity(&col_lt(1, 50), &lookup);
        assert!(
            (0.35..=0.65).contains(&sel_int_half),
            "range {sel_int_half}"
        );
    }

    #[test]
    fn conjunction_multiplies_and_or_combines() {
        let stats = lineitem_like_stats();
        let lookup = ScanStatsLookup {
            stats: &stats,
            projection: &[0],
        };
        let half = col_lt(0, 50);
        let and = BoundExpr::and(half.clone(), col_lt(0, 25));
        let s_and = selectivity(&and, &lookup);
        // AND of (≈0.5, ≈0.25) under independence ≈ 0.125.
        assert!((0.05..=0.25).contains(&s_and), "{s_and}");
        let or = BoundExpr::Binary {
            op: BinOp::Or,
            left: Box::new(half.clone()),
            right: Box::new(col_lt(0, 25)),
        };
        let s_or = selectivity(&or, &lookup);
        assert!(s_or > s_and, "OR ({s_or}) must exceed AND ({s_and})");
        let not = BoundExpr::Unary {
            op: crate::expr::UnOp::Not,
            expr: Box::new(half),
        };
        let s_not = selectivity(&not, &lookup);
        assert!((0.35..=0.65).contains(&s_not), "{s_not}");
    }

    #[test]
    fn between_and_inlist_use_stats() {
        let stats = lineitem_like_stats();
        let lookup = ScanStatsLookup {
            stats: &stats,
            projection: &[0],
        };
        let between = BoundExpr::Between {
            expr: Box::new(BoundExpr::Col(0)),
            low: Box::new(BoundExpr::Lit(Value::Int64(25))),
            high: Box::new(BoundExpr::Lit(Value::Int64(75))),
            negated: false,
        };
        let s = selectivity(&between, &lookup);
        assert!((0.35..=0.65).contains(&s), "between {s}");
        let inlist = BoundExpr::InList {
            expr: Box::new(BoundExpr::Col(0)),
            list: vec![Value::Int64(3), Value::Int64(7), Value::Int64(11)],
            negated: false,
        };
        let s = selectivity(&inlist, &lookup);
        assert!((0.005..=0.1).contains(&s), "inlist {s}");
    }
}
