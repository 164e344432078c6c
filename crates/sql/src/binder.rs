//! Binder: turns a parsed [`SelectStmt`] into an optimized
//! [`LogicalPlan`] — the one place a plan is decided.
//!
//! Planning and optimization are interleaved: predicate classification,
//! projection pruning, join ordering and strategy choices all happen while
//! the plan is assembled, because each decision changes the column layout
//! the next one binds against. Every predicate is bound once, as
//! written: a WHERE conjunct over one table filters that table's scan
//! (a constant one filters the first FROM table's scan), an equi-join
//! conjunct becomes a join key, any other multi-table conjunct filters
//! the smallest join that covers its tables, and HAVING filters groups
//! above the aggregate. A scan's projection is the columns the rest of
//! the plan uses plus those its filters test. Nothing rewrites the plan
//! afterwards; only
//! [`crate::optimizer::refresh_stats`] re-derives its statistics-driven
//! choices at execute time.
//!
//! One scalar binder serves every context. Over an aggregate's output
//! (the grouped SELECT list and HAVING) it runs with a hook that reads a
//! GROUP BY column from its key slot and an aggregate call from its
//! result slot, so every operator WHERE accepts binds there too.
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

use nodb_common::{DataType, Field, NoDbError, Result, Schema, Value};
use nodb_stats::TableStats;

use crate::ast::*;
use crate::expr::{AggExpr, AggFunc, BinOp, BoundExpr, UnOp};
use crate::optimizer::{
    agg_strategy, factor_or, join_cardinality, scan_estimate, split_conjuncts, DEFAULT_NDV,
};
use crate::plan::{AggStrategy, JoinKind, LogicalPlan, SortKey};

/// What the planner needs to know about registered tables.
pub trait CatalogView {
    /// Schema of `table` (error when unknown).
    fn schema_of(&self, table: &str) -> Result<Schema>;
    /// Current statistics for `table`, if any were collected.
    fn stats_of(&self, table: &str) -> Option<TableStats>;
}

/// Planner knobs.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Consult statistics for join ordering, build-side choice and
    /// aggregation strategy. Off = the paper's "w/o statistics" regime
    /// (Figure 12): as-written join order, pessimistic sort aggregation.
    pub use_stats: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions { use_stats: true }
    }
}

/// Bind and optimize a statement.
pub fn bind(
    stmt: &SelectStmt,
    catalog: &dyn CatalogView,
    options: &PlannerOptions,
) -> Result<LogicalPlan> {
    Binder {
        catalog,
        options,
        tables: Vec::new(),
        param_types: Vec::new(),
    }
    .run(stmt)
}

struct BoundTable {
    alias: String,
    schema: Schema,
    stats: Option<TableStats>,
    name: String,
}

/// One equi-join conjunct, as `((table, column), (table, column))`.
type EquiEdge = ((usize, usize), (usize, usize));

struct Rel {
    plan: LogicalPlan,
    layout: Vec<(usize, usize)>,
    tables: BTreeSet<usize>,
    est: f64,
}

struct ExistsSpec {
    inner_table: String,
    inner_schema: Schema,
    inner_stats: Option<TableStats>,
    /// (outer (t, col), inner col ordinal in inner schema).
    on: Vec<((usize, usize), usize)>,
    /// Inner-only conjuncts (AST, bound later against the inner scan).
    inner_filters: Vec<AstExpr>,
    negated: bool,
}

struct Binder<'a> {
    catalog: &'a dyn CatalogView,
    options: &'a PlannerOptions,
    tables: Vec<BoundTable>,
    /// Parameter types inferred from context before scalar binding
    /// (`param_types[idx]` is `None` when no surrounding column or
    /// literal gave a hint).
    param_types: Vec<Option<DataType>>,
}

impl Binder<'_> {
    fn run(mut self, stmt: &SelectStmt) -> Result<LogicalPlan> {
        if stmt.from.is_empty() {
            return Err(NoDbError::plan("FROM clause is required"));
        }
        // 1. Resolve FROM tables.
        for tr in &stmt.from {
            let schema = self.catalog.schema_of(&tr.name)?;
            let alias = tr.alias.clone().unwrap_or_else(|| tr.name.clone());
            if self.tables.iter().any(|t| t.alias == alias) {
                return Err(NoDbError::plan(format!("duplicate table alias `{alias}`")));
            }
            let stats = if self.options.use_stats {
                self.catalog.stats_of(&tr.name)
            } else {
                None
            };
            self.tables.push(BoundTable {
                alias,
                schema,
                stats,
                name: tr.name.clone(),
            });
        }
        // 1b. Infer parameter types from context (needs the resolved
        //     tables, must precede any scalar binding).
        self.infer_stmt_param_types(stmt)?;

        // 2. Expand the projection list.
        let mut projections: Vec<(AstExpr, Option<String>)> = Vec::new();
        for item in &stmt.projections {
            match item {
                SelectItem::Wildcard => {
                    for t in &self.tables {
                        for f in t.schema.fields() {
                            projections.push((
                                AstExpr::Column {
                                    table: Some(t.alias.clone()),
                                    name: f.name.to_ascii_lowercase(),
                                },
                                Some(f.name.clone()),
                            ));
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => projections.push((expr.clone(), alias.clone())),
            }
        }
        if projections.is_empty() {
            return Err(NoDbError::plan("empty select list"));
        }

        // 3. Split WHERE into conjuncts; factor OR-of-conjunctions.
        let mut raw_conjuncts = Vec::new();
        if let Some(w) = &stmt.where_clause {
            split_conjuncts(w, &mut raw_conjuncts);
        }
        let mut conjuncts: Vec<AstExpr> = Vec::new();
        for c in raw_conjuncts {
            conjuncts.extend(factor_or(&c));
        }
        // 4. Extract EXISTS specs.
        let mut exists_specs: Vec<ExistsSpec> = Vec::new();
        let mut plain_conjuncts: Vec<AstExpr> = Vec::new();
        for c in conjuncts {
            match c {
                AstExpr::Exists { subquery, negated } => {
                    exists_specs.push(self.exists_spec(&subquery, negated)?);
                }
                AstExpr::Not(inner) => match *inner {
                    AstExpr::Exists { subquery, negated } => {
                        exists_specs.push(self.exists_spec(&subquery, !negated)?);
                    }
                    other => plain_conjuncts.push(AstExpr::Not(Box::new(other))),
                },
                other => plain_conjuncts.push(other),
            }
        }

        // 5. Classify conjuncts: per-table filters, equi-join edges,
        //    residuals. A constant conjunct filters the first table's
        //    scan, after that table's own filters.
        let mut scan_filters: Vec<Vec<AstExpr>> = vec![Vec::new(); self.tables.len()];
        let mut constants: Vec<AstExpr> = Vec::new();
        let mut edges: Vec<((usize, usize), (usize, usize))> = Vec::new();
        let mut residuals: Vec<AstExpr> = Vec::new();
        for c in plain_conjuncts {
            if c.contains_agg() {
                return Err(NoDbError::plan("aggregates are not allowed in WHERE"));
            }
            let mut tset = BTreeSet::new();
            self.tables_of(&c, &mut tset)?;
            match (tset.first(), tset.len()) {
                (Some(&t), 1) => per_table(&mut scan_filters, t)?.push(c),
                (_, 2) => {
                    if let Some(edge) = self.as_equi_edge(&c)? {
                        edges.push(edge);
                    } else {
                        residuals.push(c);
                    }
                }
                (_, 0) => constants.push(c),
                // >2 tables: residual, bound once enough tables are joined.
                _ => residuals.push(c),
            }
        }
        scan_filters
            .first_mut()
            .ok_or_else(|| NoDbError::internal("no FROM table"))?
            .extend(constants);

        // 6. Columns each table produces for the rest of the plan; scan
        //    filters add theirs in step 7.
        let mut used: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.tables.len()];
        for e in projections.iter().map(|(e, _)| e).chain(&residuals) {
            self.collect_usage(e, &mut used)?;
        }
        for e in stmt.group_by.iter().chain(&stmt.having) {
            self.collect_usage(e, &mut used)?;
        }
        for ob in &stmt.order_by {
            // Order-by may reference output aliases; only mark genuine
            // columns.
            let _ = self.collect_usage(&ob.expr, &mut used);
        }
        let join_keys = edges.iter().flat_map(|&(a, b)| [a, b]);
        let exists_keys = exists_specs
            .iter()
            .flat_map(|s| s.on.iter().map(|&(o, _)| o));
        for (t, c) in join_keys.chain(exists_keys) {
            per_table(&mut used, t)?.insert(c);
        }

        // 7. Build scans, binding each table's filters to its attributes.
        let mut rels: Vec<Rel> = Vec::new();
        let per_scan = scan_filters.iter().zip(used);
        for ((t, bt), (filters, used)) in self.tables.iter().enumerate().zip(per_scan) {
            let resolver = |table: Option<&str>, name: &str| -> Result<usize> {
                let (rt, rc) = self.resolve_required(table, name)?;
                if rt != t {
                    return Err(NoDbError::internal("cross-table filter on scan"));
                }
                Ok(rc)
            };
            let filters = filters
                .iter()
                .map(|f| self.bind_scalar(f, &resolver, &mut no_hook))
                .collect::<Result<_>>()?;
            let (plan, projection, est) =
                self.scan_leaf(&bt.name, &bt.schema, bt.stats.as_ref(), used, filters)?;
            rels.push(Rel {
                layout: projection.iter().map(|&c| (t, c)).collect(),
                tables: std::iter::once(t).collect(),
                plan,
                est,
            });
        }

        // 8. Join tree; each residual filters the first join covering
        //    its tables, and the last join covers them all.
        let mut tree = self.build_join_tree(rels, &edges, &mut residuals)?;
        if !residuals.is_empty() {
            return Err(NoDbError::internal("a WHERE conjunct was left unplaced"));
        }

        // 9. Semi/anti joins for EXISTS.
        for spec in exists_specs {
            tree = self.apply_exists(tree, spec)?;
        }

        // 10/11. Aggregate + Project.
        let has_agg = !stmt.group_by.is_empty()
            || stmt.having.is_some()
            || projections.iter().any(|(e, _)| e.contains_agg());
        let (plan_below_sort, out_names, proj_asts) = if has_agg {
            self.plan_aggregate(tree, stmt, &projections)?
        } else {
            let layout = tree.layout.clone();
            let resolver = self.layout_resolver(&layout);
            let mut exprs = Vec::with_capacity(projections.len());
            for (e, _) in &projections {
                exprs.push(self.bind_scalar(e, &resolver, &mut no_hook)?);
            }
            let input_types = tree.plan.schema().types();
            let names = self.output_names(&projections);
            let schema = named_schema(&names, &exprs, &input_types)?;
            let proj_asts: Vec<AstExpr> = projections.iter().map(|(e, _)| e.clone()).collect();
            (
                LogicalPlan::Project {
                    input: Box::new(tree.plan),
                    exprs,
                    schema,
                },
                names,
                proj_asts,
            )
        };

        // 12. DISTINCT (over complete output rows), then Sort.
        let mut plan = plan_below_sort;
        if stmt.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        if !stmt.order_by.is_empty() {
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for ob in &stmt.order_by {
                let col = self.resolve_order_key(&ob.expr, &out_names, &proj_asts)?;
                keys.push(SortKey { col, desc: ob.desc });
            }
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }

        // 13. Limit.
        if let Some(n) = stmt.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    // ----- parameter typing --------------------------------------------

    /// Infer parameter types before binding: a parameter compared with
    /// (or arithmetically combined with) a column or literal takes that
    /// side's type, LIKE operands are text, BETWEEN/IN members share the
    /// tested expression's type. Parameters in positions with no usable
    /// context stay untyped (`None`) — their execute-time values pass
    /// through unchecked.
    ///
    /// Validates `$N` contiguity first ([`SelectStmt::param_count`]),
    /// which also bounds the slot vector allocated below — `bind` may
    /// be reached without a prior count check (e.g. EXPLAIN paths), so
    /// a lone `$4000000000` must fail here, not allocate.
    fn infer_stmt_param_types(&mut self, stmt: &SelectStmt) -> Result<()> {
        let n = stmt.param_count()?;
        if n == 0 {
            return Ok(());
        }
        let mut types = vec![None; n];
        for e in stmt.exprs() {
            self.assign_param_types(e, None, None, &mut types);
        }
        self.param_types = types;
        Ok(())
    }

    /// Shallow type probe: columns and literals have a known type,
    /// everything else contributes no hint. Unqualified names resolve
    /// against an EXISTS subquery's inner schema first.
    fn probe_type(&self, e: &AstExpr, inner: Option<&Schema>) -> Option<DataType> {
        match e {
            AstExpr::Column { table, name } => {
                if table.is_none() {
                    if let Some(s) = inner {
                        if let Some(c) = s.index_of(name) {
                            return Some(s.field(c).dtype);
                        }
                    }
                }
                match self.try_resolve(table.as_deref(), name) {
                    Ok(Some((t, c))) => self.tables.get(t).map(|bt| bt.schema.field(c).dtype),
                    _ => None,
                }
            }
            AstExpr::Literal(v) => v.data_type(),
            AstExpr::Neg(x) => self.probe_type(x, inner),
            _ => None,
        }
    }

    fn assign_param_types(
        &self,
        e: &AstExpr,
        hint: Option<DataType>,
        inner: Option<&Schema>,
        out: &mut [Option<DataType>],
    ) {
        match e {
            AstExpr::Param(i) => {
                if let Some(slot) = out.get_mut(*i) {
                    if slot.is_none() {
                        *slot = hint;
                    }
                }
            }
            AstExpr::Column { .. } | AstExpr::Literal(_) | AstExpr::Interval { .. } => {}
            AstExpr::Binary { op, left, right } => {
                // Comparisons and arithmetic type a parameter from the
                // opposite side; AND/OR sides are independent predicates.
                let (lh, rh) = match op {
                    AstBinOp::And | AstBinOp::Or => (None, None),
                    _ => (self.probe_type(right, inner), self.probe_type(left, inner)),
                };
                self.assign_param_types(left, lh, inner, out);
                self.assign_param_types(right, rh, inner, out);
            }
            AstExpr::Not(x) => self.assign_param_types(x, None, inner, out),
            AstExpr::Neg(x) => self.assign_param_types(x, hint, inner, out),
            AstExpr::Like { expr, pattern, .. } => {
                self.assign_param_types(expr, Some(DataType::Text), inner, out);
                self.assign_param_types(pattern, Some(DataType::Text), inner, out);
            }
            AstExpr::Between {
                expr, low, high, ..
            } => {
                let t = self
                    .probe_type(expr, inner)
                    .or_else(|| self.probe_type(low, inner))
                    .or_else(|| self.probe_type(high, inner));
                self.assign_param_types(expr, t, inner, out);
                self.assign_param_types(low, t, inner, out);
                self.assign_param_types(high, t, inner, out);
            }
            AstExpr::InList { expr, list, .. } => {
                let t = list.iter().find_map(|i| self.probe_type(i, inner));
                self.assign_param_types(expr, t, inner, out);
                let et = self.probe_type(expr, inner);
                for i in list {
                    self.assign_param_types(i, et, inner, out);
                }
            }
            AstExpr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    self.assign_param_types(c, None, inner, out);
                    self.assign_param_types(r, None, inner, out);
                }
                if let Some(x) = else_expr {
                    self.assign_param_types(x, None, inner, out);
                }
            }
            AstExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    self.assign_param_types(a, None, inner, out);
                }
            }
            AstExpr::Exists { subquery, .. } => {
                let inner_schema = subquery
                    .from
                    .first()
                    .and_then(|tr| self.catalog.schema_of(&tr.name).ok());
                for e in subquery.exprs() {
                    self.assign_param_types(e, None, inner_schema.as_ref().or(inner), out);
                }
            }
            AstExpr::IsNull { expr, .. } => self.assign_param_types(expr, None, inner, out),
        }
    }

    // ----- name resolution ---------------------------------------------

    /// Resolve a column to `(table idx, column idx)`, or `None` when the
    /// name is unknown (callers decide whether that is an error).
    fn try_resolve(&self, table: Option<&str>, name: &str) -> Result<Option<(usize, usize)>> {
        match table {
            Some(q) => {
                let Some((t, bt)) = self.tables.iter().enumerate().find(|(_, bt)| bt.alias == q)
                else {
                    return Ok(None);
                };
                Ok(bt.schema.index_of(name).map(|c| (t, c)))
            }
            None => {
                let mut found = None;
                for (t, bt) in self.tables.iter().enumerate() {
                    if let Some(c) = bt.schema.index_of(name) {
                        if found.is_some() {
                            return Err(NoDbError::plan(format!("ambiguous column `{name}`")));
                        }
                        found = Some((t, c));
                    }
                }
                Ok(found)
            }
        }
    }

    fn resolve_required(&self, table: Option<&str>, name: &str) -> Result<(usize, usize)> {
        self.try_resolve(table, name)?.ok_or_else(|| {
            NoDbError::plan(format!(
                "unknown column `{}{name}`",
                table.map(|t| format!("{t}.")).unwrap_or_default()
            ))
        })
    }

    fn layout_resolver<'b>(
        &'b self,
        layout: &'b [(usize, usize)],
    ) -> impl Fn(Option<&str>, &str) -> Result<usize> + 'b {
        move |table, name| {
            let (t, c) = self.resolve_required(table, name)?;
            layout
                .iter()
                .position(|&(lt, lc)| lt == t && lc == c)
                .ok_or_else(|| NoDbError::internal(format!("column `{name}` missing from layout")))
        }
    }

    /// Record which base-table columns an expression touches (EXISTS
    /// subqueries are not entered).
    fn collect_usage(&self, e: &AstExpr, used: &mut [BTreeSet<usize>]) -> Result<()> {
        if let AstExpr::Column { table, name } = e {
            if let Some((t, c)) = self.try_resolve(table.as_deref(), name)? {
                per_table(used, t)?.insert(c);
            }
        }
        e.try_for_each_child(|c| self.collect_usage(c, used))
    }

    /// The set of FROM tables an expression references.
    fn tables_of(&self, e: &AstExpr, out: &mut BTreeSet<usize>) -> Result<()> {
        let mut used: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.tables.len()];
        self.collect_usage(e, &mut used)?;
        for (t, s) in used.iter().enumerate() {
            if !s.is_empty() {
                out.insert(t);
            }
        }
        Ok(())
    }

    /// Is this conjunct `colA = colB` across two different tables?
    fn as_equi_edge(&self, e: &AstExpr) -> Result<Option<EquiEdge>> {
        if let AstExpr::Binary {
            op: AstBinOp::Eq,
            left,
            right,
        } = e
        {
            if let (
                AstExpr::Column {
                    table: ta,
                    name: na,
                },
                AstExpr::Column {
                    table: tb,
                    name: nb,
                },
            ) = (left.as_ref(), right.as_ref())
            {
                let a = self.resolve_required(ta.as_deref(), na)?;
                let b = self.resolve_required(tb.as_deref(), nb)?;
                if a.0 != b.0 {
                    return Ok(Some((a, b)));
                }
            }
        }
        Ok(None)
    }

    // ----- join tree ----------------------------------------------------

    fn build_join_tree(
        &self,
        mut rels: Vec<Rel>,
        edges: &[EquiEdge],
        residuals: &mut Vec<AstExpr>,
    ) -> Result<Rel> {
        if rels.is_empty() {
            return Err(NoDbError::internal("a join tree of no relations"));
        }
        // Pick starting relation.
        let start = if self.options.use_stats {
            rels.iter()
                .enumerate()
                .min_by(|a, b| a.1.est.total_cmp(&b.1.est))
                .map_or(0, |(i, _)| i)
        } else {
            0
        };
        let mut current = self.attach_residuals(rels.remove(start), residuals)?;
        while !rels.is_empty() {
            // Candidates connected to the current tree by an edge.
            let connected: Vec<usize> = rels
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    edges.iter().any(|(a, b)| {
                        (current.tables.contains(&a.0) && r.tables.contains(&b.0))
                            || (current.tables.contains(&b.0) && r.tables.contains(&a.0))
                    })
                })
                .map(|(i, _)| i)
                .collect();
            let pick = if self.options.use_stats {
                let pool = if connected.is_empty() {
                    (0..rels.len()).collect::<Vec<_>>()
                } else {
                    connected
                };
                pool.into_iter()
                    .filter_map(|i| Some((i, self.join_est(&current, rels.get(i)?, edges))))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map_or(0, |(i, _)| i)
            } else if let Some(&first) = connected.first() {
                first
            } else {
                0
            };
            let next = rels.remove(pick);
            current = self.attach_residuals(self.join_pair(current, next, edges)?, residuals)?;
        }
        Ok(current)
    }

    fn key_ndv(&self, (t, c): (usize, usize)) -> f64 {
        self.tables
            .get(t)
            .and_then(|bt| bt.stats.as_ref())
            .and_then(|s| s.column(c as u32).map(|cs| cs.distinct()))
            .unwrap_or(DEFAULT_NDV)
    }

    fn join_est(&self, a: &Rel, b: &Rel, edges: &[EquiEdge]) -> f64 {
        let mut ndvs = Vec::new();
        for (x, y) in edges {
            if a.tables.contains(&x.0) && b.tables.contains(&y.0) {
                ndvs.push((self.key_ndv(*x), self.key_ndv(*y)));
            } else if a.tables.contains(&y.0) && b.tables.contains(&x.0) {
                ndvs.push((self.key_ndv(*y), self.key_ndv(*x)));
            }
        }
        join_cardinality(a.est, b.est, &ndvs)
    }

    fn join_pair(&self, a: Rel, b: Rel, edges: &[EquiEdge]) -> Result<Rel> {
        // Hash joins build on the left input: put the smaller side left
        // when statistics are available; otherwise keep the accumulated
        // tree on the left (the uninformed default the paper penalizes).
        let (build, probe) = if self.options.use_stats && b.est < a.est {
            (b, a)
        } else {
            (a, b)
        };
        let est = self.join_est(&build, &probe, edges);
        let mut on = Vec::new();
        for (x, y) in edges {
            let (bx, px) = (
                build.tables.contains(&x.0) && probe.tables.contains(&y.0),
                build.tables.contains(&y.0) && probe.tables.contains(&x.0),
            );
            if bx {
                on.push((
                    layout_pos(&build.layout, *x)?,
                    layout_pos(&probe.layout, *y)?,
                ));
            } else if px {
                on.push((
                    layout_pos(&build.layout, *y)?,
                    layout_pos(&probe.layout, *x)?,
                ));
            }
        }
        let mut layout = build.layout.clone();
        layout.extend_from_slice(&probe.layout);
        let mut tables = build.tables.clone();
        tables.extend(probe.tables.iter().copied());
        let schema = self.layout_schema(&layout)?;
        Ok(Rel {
            plan: LogicalPlan::Join {
                left: Box::new(build.plan),
                right: Box::new(probe.plan),
                on,
                kind: JoinKind::Inner,
                schema,
                estimated_rows: est,
            },
            layout,
            tables,
            est,
        })
    }

    /// Attach any residual conjunct fully covered by `rel`'s tables.
    fn attach_residuals(&self, mut rel: Rel, residuals: &mut Vec<AstExpr>) -> Result<Rel> {
        let mut keep = Vec::new();
        for r in std::mem::take(residuals) {
            let mut tset = BTreeSet::new();
            self.tables_of(&r, &mut tset)?;
            if tset.is_subset(&rel.tables) {
                let resolver = self.layout_resolver(&rel.layout);
                let predicate = self.bind_scalar(&r, &resolver, &mut no_hook)?;
                rel.plan = LogicalPlan::Filter {
                    input: Box::new(rel.plan),
                    predicate,
                };
            } else {
                keep.push(r);
            }
        }
        *residuals = keep;
        Ok(rel)
    }

    /// A scan leaf of `table`. `filters` are bound to table attributes;
    /// the projection is `used` plus the columns they test. Returns the
    /// leaf, its projection and its row estimate.
    fn scan_leaf(
        &self,
        table: &str,
        schema: &Schema,
        stats: Option<&TableStats>,
        mut used: BTreeSet<usize>,
        filters: Vec<BoundExpr>,
    ) -> Result<(LogicalPlan, Vec<usize>, f64)> {
        for f in &filters {
            f.referenced_columns(&mut used);
        }
        let projection: Vec<usize> = used.into_iter().collect();
        // The projection ascends, so an attribute's ordinal is its rank.
        let filters: Vec<BoundExpr> = filters
            .iter()
            .map(|f| f.map_columns(&|c| projection.partition_point(|&p| p < c)))
            .collect();
        let estimated_rows = scan_estimate(stats, &projection, &filters);
        let scan = LogicalPlan::Scan {
            table: table.to_string(),
            projection: projection.clone(),
            filters,
            schema: schema.project(&projection)?,
            estimated_rows,
        };
        Ok((scan, projection, estimated_rows))
    }

    fn layout_schema(&self, layout: &[(usize, usize)]) -> Result<Schema> {
        let fields = layout
            .iter()
            .map(|&(t, c)| {
                let bt = self.tables.get(t).ok_or_else(|| bad_table(t))?;
                let f = bt.schema.field(c);
                Ok(Field::new(format!("{}.{}", bt.alias, f.name), f.dtype))
            })
            .collect::<Result<_>>()?;
        Schema::new(fields)
    }

    // ----- EXISTS -------------------------------------------------------

    fn exists_spec(&self, sub: &SelectStmt, negated: bool) -> Result<ExistsSpec> {
        let [inner] = sub.from.as_slice() else {
            return Err(NoDbError::plan(
                "EXISTS subqueries must reference exactly one table",
            ));
        };
        let inner_name = inner.name.clone();
        let inner_schema = self.catalog.schema_of(&inner_name)?;
        let inner_stats = if self.options.use_stats {
            self.catalog.stats_of(&inner_name)
        } else {
            None
        };
        let mut on = Vec::new();
        let mut inner_filters = Vec::new();
        let mut conjuncts = Vec::new();
        if let Some(w) = &sub.where_clause {
            split_conjuncts(w, &mut conjuncts);
        }
        for c in conjuncts {
            // Try: inner-col = outer-col correlation.
            if let AstExpr::Binary {
                op: AstBinOp::Eq,
                left,
                right,
            } = &c
            {
                let l = self.classify_sub_column(left, &inner_schema)?;
                let r = self.classify_sub_column(right, &inner_schema)?;
                match (l, r) {
                    (SubCol::Inner(ic), SubCol::Outer(oc)) => {
                        on.push((oc, ic));
                        continue;
                    }
                    (SubCol::Outer(oc), SubCol::Inner(ic)) => {
                        on.push((oc, ic));
                        continue;
                    }
                    _ => {}
                }
            }
            // Otherwise the conjunct must be inner-only.
            if is_inner_only(&c, &inner_schema) {
                inner_filters.push(c);
            } else {
                return Err(NoDbError::plan(
                    "unsupported correlated predicate in EXISTS (only inner-col = outer-col \
                     equality plus inner-only filters are supported)",
                ));
            }
        }
        if on.is_empty() {
            return Err(NoDbError::plan(
                "uncorrelated EXISTS subqueries are not supported",
            ));
        }
        Ok(ExistsSpec {
            inner_table: inner_name,
            inner_schema,
            inner_stats,
            on,
            inner_filters,
            negated,
        })
    }

    fn classify_sub_column(&self, e: &AstExpr, inner: &Schema) -> Result<SubCol> {
        if let AstExpr::Column { table, name } = e {
            if table.is_none() {
                if let Some(c) = inner.index_of(name) {
                    return Ok(SubCol::Inner(c));
                }
            }
            if let Some((t, c)) = self.try_resolve(table.as_deref(), name)? {
                return Ok(SubCol::Outer((t, c)));
            }
            return Err(NoDbError::plan(format!(
                "unknown column `{name}` in EXISTS subquery"
            )));
        }
        Ok(SubCol::Neither)
    }

    fn apply_exists(&self, outer: Rel, spec: ExistsSpec) -> Result<Rel> {
        // Inner scan: correlation columns plus what the filters test.
        let resolver = |_table: Option<&str>, name: &str| spec.inner_schema.resolve(name);
        let filters = spec
            .inner_filters
            .iter()
            .map(|f| self.bind_scalar(f, &resolver, &mut no_hook))
            .collect::<Result<_>>()?;
        let used = spec.on.iter().map(|&(_, ic)| ic).collect();
        let (inner_plan, projection, _) = self.scan_leaf(
            &spec.inner_table,
            &spec.inner_schema,
            spec.inner_stats.as_ref(),
            used,
            filters,
        )?;
        let mut on = Vec::new();
        for (oc, ic) in &spec.on {
            on.push((
                layout_pos(&outer.layout, *oc)?,
                projection
                    .iter()
                    .position(|&p| p == *ic)
                    .ok_or_else(|| NoDbError::internal("correlation column missing"))?,
            ));
        }
        let kind = if spec.negated {
            JoinKind::Anti
        } else {
            JoinKind::Semi
        };
        let schema = self.layout_schema(&outer.layout)?;
        let est_out = (outer.est * 0.5).max(1.0);
        Ok(Rel {
            plan: LogicalPlan::Join {
                left: Box::new(outer.plan),
                right: Box::new(inner_plan),
                on,
                kind,
                schema,
                estimated_rows: est_out,
            },
            layout: outer.layout,
            tables: outer.tables,
            est: est_out,
        })
    }

    // ----- aggregation ---------------------------------------------------

    #[allow(clippy::type_complexity)]
    fn plan_aggregate(
        &self,
        tree: Rel,
        stmt: &SelectStmt,
        projections: &[(AstExpr, Option<String>)],
    ) -> Result<(LogicalPlan, Vec<String>, Vec<AstExpr>)> {
        let layout = tree.layout.clone();
        let resolver = self.layout_resolver(&layout);
        // Group keys must be plain columns (the TPC-H subset never groups
        // on computed expressions).
        let mut group: Vec<usize> = Vec::new();
        for g in &stmt.group_by {
            match g {
                AstExpr::Column { table, name } => {
                    group.push(resolver(table.as_deref(), name)?);
                }
                other => {
                    return Err(NoDbError::plan(format!(
                        "GROUP BY supports plain columns only, got {other:?}"
                    )))
                }
            }
        }
        let n_group = group.len();
        // Over the aggregate's output, a GROUP BY expression reads its key
        // slot and an aggregate call its result slot: calls are shared
        // when they are structurally equal, and their arguments bind over
        // the input. Any other column reference is an error. HAVING may
        // add calls the SELECT list does not make.
        let mut calls: Vec<AstExpr> = Vec::new();
        let mut aggs: Vec<AggExpr> = Vec::new();
        let mut over_groups = |e: &AstExpr| -> Result<Option<BoundExpr>> {
            if let Some(key) = stmt.group_by.iter().position(|g| g == e) {
                return Ok(Some(BoundExpr::Col(key)));
            }
            match e {
                AstExpr::Agg { func, arg } => {
                    let slot = match calls.iter().position(|c| c == e) {
                        Some(slot) => slot,
                        None => {
                            let arg = match arg {
                                Some(a) => Some(self.bind_scalar(a, &resolver, &mut no_hook)?),
                                None => None,
                            };
                            aggs.push(AggExpr {
                                func: agg_func(*func),
                                arg,
                            });
                            calls.push(e.clone());
                            calls.len() - 1
                        }
                    };
                    Ok(Some(BoundExpr::Col(n_group + slot)))
                }
                AstExpr::Column { table, name } => Err(NoDbError::plan(format!(
                    "column `{}{name}` must appear in GROUP BY or inside an aggregate",
                    table
                        .as_deref()
                        .map(|t| format!("{t}."))
                        .unwrap_or_default()
                ))),
                _ => Ok(None),
            }
        };
        let mut bind = |e: &AstExpr| self.bind_scalar(e, &resolver, &mut over_groups);
        let out_exprs = projections
            .iter()
            .map(|(e, _)| bind(e))
            .collect::<Result<Vec<_>>>()?;
        let having = stmt.having.as_ref().map(bind).transpose()?;

        let input_types = tree.plan.schema().types();
        // Aggregate output schema.
        let mut fields = Vec::new();
        for (i, &g) in group.iter().enumerate() {
            let f = tree.plan.schema().field(g);
            fields.push(Field::new(format!("g{i}.{}", f.name), f.dtype));
        }
        for (i, a) in aggs.iter().enumerate() {
            if let Some(e) = &a.arg {
                check_case_types(e, &input_types, &format!("aggregate argument {e}"))?;
            }
            fields.push(Field::new(format!("agg{i}"), a.output_type(&input_types)));
        }
        let agg_schema = Schema::new(fields)?;

        // Strategy (the Figure 12 mechanism).
        let strategy = if group.is_empty() {
            AggStrategy::Plain
        } else if self.options.use_stats {
            let ndvs = group
                .iter()
                .map(|&g| layout.get(g).map_or(DEFAULT_NDV, |&k| self.key_ndv(k)));
            agg_strategy(ndvs, tree.est).0
        } else {
            // Without statistics the group count is unknown; fall back to
            // sort aggregation (safe for any cardinality, slower for few
            // groups — exactly the penalty Figure 12 shows).
            AggStrategy::Sort
        };

        let mut agg_plan = LogicalPlan::Aggregate {
            input: Box::new(tree.plan),
            group,
            aggs,
            strategy,
            schema: agg_schema,
        };
        // HAVING filters groups, between the aggregation and the
        // projection.
        if let Some(predicate) = having {
            agg_plan = LogicalPlan::Filter {
                input: Box::new(agg_plan),
                predicate,
            };
        }

        let agg_types = agg_plan.schema().types();
        let names = self.output_names(projections);
        let out_schema = named_schema(&names, &out_exprs, &agg_types)?;
        let proj_asts: Vec<AstExpr> = projections.iter().map(|(e, _)| e.clone()).collect();
        Ok((
            LogicalPlan::Project {
                input: Box::new(agg_plan),
                exprs: out_exprs,
                schema: out_schema,
            },
            names,
            proj_asts,
        ))
    }

    // ----- scalar binding -------------------------------------------------

    /// Bind `e`: `resolve` places a column reference in the input, and
    /// `hook` sees every node first. In aggregate context the hook binds
    /// group keys and aggregate calls over the aggregate's output;
    /// elsewhere it is [`no_hook`].
    fn bind_scalar(
        &self,
        e: &AstExpr,
        resolve: &dyn Fn(Option<&str>, &str) -> Result<usize>,
        hook: &mut Hook<'_>,
    ) -> Result<BoundExpr> {
        if let Some(bound) = hook(e)? {
            return Ok(bound);
        }
        match e {
            AstExpr::Column { table, name } => Ok(BoundExpr::Col(resolve(table.as_deref(), name)?)),
            AstExpr::Literal(v) => Ok(BoundExpr::Lit(v.clone())),
            AstExpr::Param(i) => Ok(BoundExpr::Param {
                idx: *i,
                dtype: self.param_types.get(*i).copied().flatten(),
            }),
            AstExpr::Interval { .. } => Err(NoDbError::plan(
                "INTERVAL is only supported in date ± interval arithmetic with literal dates",
            )),
            AstExpr::Binary { op, left, right } => {
                // Fold `date ± interval` eagerly.
                if let AstExpr::Interval { n, unit } = right.as_ref() {
                    let base = self.bind_scalar(left, resolve, hook)?;
                    if let BoundExpr::Lit(Value::Date(d)) = base {
                        let n = match op {
                            AstBinOp::Add => *n,
                            AstBinOp::Sub => -*n,
                            _ => return Err(NoDbError::plan("INTERVAL only supports + and -")),
                        };
                        let folded = match unit {
                            IntervalUnit::Day => d.add_days(n as i32),
                            IntervalUnit::Month => d.add_months(n as i32),
                            IntervalUnit::Year => d.add_years(n as i32),
                        };
                        return Ok(BoundExpr::Lit(Value::Date(folded)));
                    }
                    return Err(NoDbError::plan(
                        "interval arithmetic requires a literal date",
                    ));
                }
                let l = self.bind_scalar(left, resolve, hook)?;
                let r = self.bind_scalar(right, resolve, hook)?;
                Ok(BoundExpr::Binary {
                    op: convert_op(*op),
                    left: Box::new(l),
                    right: Box::new(r),
                })
            }
            AstExpr::Not(x) => Ok(BoundExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(self.bind_scalar(x, resolve, hook)?),
            }),
            AstExpr::Neg(x) => Ok(BoundExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(self.bind_scalar(x, resolve, hook)?),
            }),
            AstExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let bound = self.bind_scalar(expr, resolve, hook)?;
                // The pattern is any text expression: a literal, a
                // parameter (`name LIKE ?`, typed Text by the inference
                // pre-pass) or a computed value. Non-text literals are
                // rejected here; non-text runtime values fail in eval.
                let pattern = self.bind_scalar(pattern, resolve, hook)?;
                if let BoundExpr::Lit(v) = &pattern {
                    if !matches!(v, Value::Text(_) | Value::Null) {
                        return Err(NoDbError::plan(format!(
                            "LIKE pattern must be text, got {v}"
                        )));
                    }
                }
                Ok(BoundExpr::Like {
                    expr: Box::new(bound),
                    pattern: Box::new(pattern),
                    negated: *negated,
                })
            }
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => Ok(BoundExpr::Between {
                expr: Box::new(self.bind_scalar(expr, resolve, hook)?),
                low: Box::new(self.bind_scalar(low, resolve, hook)?),
                high: Box::new(self.bind_scalar(high, resolve, hook)?),
                negated: *negated,
            }),
            AstExpr::InList {
                expr,
                list,
                negated,
            } => {
                let bound = self.bind_scalar(expr, resolve, hook)?;
                let items = list
                    .iter()
                    .map(|item| self.bind_scalar(item, resolve, hook))
                    .collect::<Result<Vec<_>>>()?;
                if items.iter().all(|i| matches!(i, BoundExpr::Lit(_))) {
                    // All-literal lists keep the dedicated InList form
                    // (single membership probe, stats-aware selectivity).
                    let values = items
                        .into_iter()
                        .filter_map(|i| match i {
                            BoundExpr::Lit(v) => Some(v),
                            _ => None,
                        })
                        .collect();
                    return Ok(BoundExpr::InList {
                        expr: Box::new(bound),
                        list: values,
                        negated: *negated,
                    });
                }
                // Lists with parameters (`grp IN (?, ?)`) or computed
                // members desugar into an OR-chain of equalities, which
                // has identical three-valued semantics: a NULL member
                // compares as NULL, so a non-matching probe yields NULL
                // (and NOT IN of it yields NULL), exactly like the
                // membership form.
                let ors = items
                    .into_iter()
                    .map(|item| BoundExpr::Binary {
                        op: BinOp::Eq,
                        left: Box::new(bound.clone()),
                        right: Box::new(item),
                    })
                    .reduce(|a, b| BoundExpr::Binary {
                        op: BinOp::Or,
                        left: Box::new(a),
                        right: Box::new(b),
                    })
                    .ok_or_else(|| NoDbError::plan("IN list cannot be empty"))?;
                Ok(if *negated {
                    BoundExpr::Unary {
                        op: UnOp::Not,
                        expr: Box::new(ors),
                    }
                } else {
                    ors
                })
            }
            AstExpr::Case {
                branches,
                else_expr,
            } => {
                let mut bs = Vec::with_capacity(branches.len());
                for (c, r) in branches {
                    bs.push((
                        self.bind_scalar(c, resolve, hook)?,
                        self.bind_scalar(r, resolve, hook)?,
                    ));
                }
                let else_expr = match else_expr {
                    Some(x) => Some(Box::new(self.bind_scalar(x, resolve, hook)?)),
                    None => None,
                };
                Ok(BoundExpr::Case {
                    branches: bs,
                    else_expr,
                })
            }
            AstExpr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.bind_scalar(expr, resolve, hook)?),
                negated: *negated,
            }),
            AstExpr::Agg { .. } => Err(NoDbError::plan(
                "aggregate calls are not allowed in this context",
            )),
            AstExpr::Exists { .. } => Err(NoDbError::plan(
                "EXISTS is only supported as a top-level WHERE conjunct",
            )),
        }
    }

    // ----- output naming / order-by -------------------------------------

    fn output_names(&self, projections: &[(AstExpr, Option<String>)]) -> Vec<String> {
        let mut names = Vec::with_capacity(projections.len());
        for (e, alias) in projections {
            let base = match alias {
                Some(a) => a.clone(),
                None => derive_name(e),
            };
            let mut name = base.clone();
            let mut k = 1;
            while names.contains(&name) {
                k += 1;
                name = format!("{base}_{k}");
            }
            names.push(name);
        }
        names
    }

    fn resolve_order_key(
        &self,
        e: &AstExpr,
        out_names: &[String],
        proj_asts: &[AstExpr],
    ) -> Result<usize> {
        // 1. Alias / output-name match.
        if let AstExpr::Column { table: None, name } = e {
            if let Some(i) = out_names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
                return Ok(i);
            }
        }
        // 2. Structural match with a projected expression.
        if let Some(i) = proj_asts.iter().position(|p| p == e) {
            return Ok(i);
        }
        Err(NoDbError::plan(format!(
            "ORDER BY expression must be a projected column or alias, got {e:?}"
        )))
    }
}

enum SubCol {
    Inner(usize),
    Outer((usize, usize)),
    Neither,
}

/// Binds what a scope gives its own meaning to, or `None` to bind the
/// node as usual (see [`Binder::bind_scalar`]).
type Hook<'h> = dyn FnMut(&AstExpr) -> Result<Option<BoundExpr>> + 'h;

/// The hook outside aggregate context: every node binds as usual.
fn no_hook(_: &AstExpr) -> Result<Option<BoundExpr>> {
    Ok(None)
}

/// Does `e` read only columns of an EXISTS subquery's own table
/// (unqualified names of `inner`), with no aggregate or subquery?
fn is_inner_only(e: &AstExpr, inner: &Schema) -> bool {
    match e {
        AstExpr::Column { table, name } => table.is_none() && inner.index_of(name).is_some(),
        AstExpr::Agg { .. } | AstExpr::Exists { .. } => false,
        _ => e
            .try_for_each_child(|c| {
                if is_inner_only(c, inner) {
                    Ok(())
                } else {
                    Err(())
                }
            })
            .is_ok(),
    }
}

fn agg_func(func: AggFuncAst) -> AggFunc {
    match func {
        AggFuncAst::Count => AggFunc::Count,
        AggFuncAst::Sum => AggFunc::Sum,
        AggFuncAst::Avg => AggFunc::Avg,
        AggFuncAst::Min => AggFunc::Min,
        AggFuncAst::Max => AggFunc::Max,
    }
}

fn convert_op(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Or => BinOp::Or,
        AstBinOp::And => BinOp::And,
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::NotEq => BinOp::NotEq,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::LtEq => BinOp::LtEq,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::GtEq => BinOp::GtEq,
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
    }
}

fn derive_name(e: &AstExpr) -> String {
    match e {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::Agg { func, .. } => match func {
            AggFuncAst::Count => "count".into(),
            AggFuncAst::Sum => "sum".into(),
            AggFuncAst::Avg => "avg".into(),
            AggFuncAst::Min => "min".into(),
            AggFuncAst::Max => "max".into(),
        },
        AstExpr::Case { .. } => "case".into(),
        _ => "?column?".into(),
    }
}

fn named_schema(names: &[String], exprs: &[BoundExpr], input: &[DataType]) -> Result<Schema> {
    let mut fields = Vec::with_capacity(exprs.len());
    for (n, e) in names.iter().zip(exprs) {
        check_case_types(e, input, &format!("output column `{n}`"))?;
        fields.push(Field::new(n.clone(), e.infer_type(input)));
    }
    Schema::new(fields)
}

/// Reject a CASE in `e` whose result branches have no common type: a
/// column has one type, and text does not widen into a number.
fn check_case_types(e: &BoundExpr, input: &[DataType], place: &str) -> Result<()> {
    match e.case_type_clash(input) {
        Some((a, b)) => Err(NoDbError::plan(format!(
            "CASE in {place} mixes {a} and {b} results; its branches need one type"
        ))),
        None => Ok(()),
    }
}

/// A table index the binder resolved itself that names no FROM table.
fn bad_table(t: usize) -> NoDbError {
    NoDbError::internal(format!("table index {t} is past the FROM list"))
}

/// The per-FROM-table slot for table `t`.
fn per_table<T>(slots: &mut [T], t: usize) -> Result<&mut T> {
    slots.get_mut(t).ok_or_else(|| bad_table(t))
}

fn layout_pos(layout: &[(usize, usize)], key: (usize, usize)) -> Result<usize> {
    layout
        .iter()
        .position(|&p| p == key)
        .ok_or_else(|| NoDbError::internal("join key missing from layout"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parser::parse;
    use nodb_stats::StatsBuilder;

    struct MockCatalog {
        tables: Vec<(String, Schema, Option<TableStats>)>,
    }

    impl CatalogView for MockCatalog {
        fn schema_of(&self, table: &str) -> Result<Schema> {
            self.tables
                .iter()
                .find(|(n, _, _)| n == table)
                .map(|(_, s, _)| s.clone())
                .ok_or_else(|| NoDbError::catalog(format!("unknown table `{table}`")))
        }
        fn stats_of(&self, table: &str) -> Option<TableStats> {
            self.tables
                .iter()
                .find(|(n, _, _)| n == table)
                .and_then(|(_, _, st)| st.clone())
        }
    }

    fn col_stats(ndv: i64, rows: usize) -> nodb_stats::ColumnStats {
        let mut b = StatsBuilder::new(DataType::Int32);
        for i in 0..rows {
            b.offer(&Value::Int32((i as i64 % ndv) as i32));
        }
        b.finalize(Some(rows as f64))
    }

    /// A statistics-free table for exact-text plan assertions.
    const T_SCHEMA: &str = "id int, grp text, score double, k int";

    fn catalog() -> MockCatalog {
        let t1 = Schema::parse("a int, b int, c text, d date").unwrap();
        let t2 = Schema::parse("x int, y int, z text").unwrap();
        let mut st1 = TableStats::new();
        st1.set_row_count(10_000);
        st1.set_column(0, col_stats(10_000, 4000)); // a: key-like
        st1.set_column(1, col_stats(5, 4000)); // b: 5 distinct
        let mut st2 = TableStats::new();
        st2.set_row_count(100);
        st2.set_column(0, col_stats(100, 100)); // x: key-like
        MockCatalog {
            tables: vec![
                ("t1".into(), t1, Some(st1)),
                ("t2".into(), t2, Some(st2)),
                ("t".into(), Schema::parse(T_SCHEMA).unwrap(), None),
            ],
        }
    }

    fn plan(sql: &str) -> LogicalPlan {
        bind(&parse(sql).unwrap(), &catalog(), &PlannerOptions::default()).unwrap()
    }

    fn plan_no_stats(sql: &str) -> LogicalPlan {
        bind(
            &parse(sql).unwrap(),
            &catalog(),
            &PlannerOptions { use_stats: false },
        )
        .unwrap()
    }

    fn find_scan<'a>(p: &'a LogicalPlan, table: &str) -> &'a LogicalPlan {
        fn walk<'a>(p: &'a LogicalPlan, table: &str, out: &mut Option<&'a LogicalPlan>) {
            match p {
                LogicalPlan::Scan { table: t, .. } if t == table => *out = Some(p),
                LogicalPlan::Scan { .. } => {}
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Distinct { input } => walk(input, table, out),
                LogicalPlan::Join { left, right, .. } => {
                    walk(left, table, out);
                    walk(right, table, out);
                }
            }
        }
        let mut out = None;
        walk(p, table, &mut out);
        out.unwrap_or_else(|| panic!("no scan of {table} in:\n{p}"))
    }

    #[test]
    fn projection_pruning_keeps_only_used_columns() {
        let p = plan("select a from t1 where b < 3");
        match find_scan(&p, "t1") {
            LogicalPlan::Scan {
                projection,
                filters,
                ..
            } => {
                assert_eq!(projection, &vec![0, 1]); // a, b
                assert_eq!(filters.len(), 1);
                // Filter bound to projection space: b is local ordinal 1.
                assert_eq!(filters[0].to_string(), "(#1 < 3)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wildcard_projects_everything() {
        let p = plan("select * from t2");
        match find_scan(&p, "t2") {
            LogicalPlan::Scan { projection, .. } => assert_eq!(projection, &vec![0, 1, 2]),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.schema().len(), 3);
    }

    #[test]
    fn join_extracts_equi_edge_and_orders_by_size() {
        // t2 (100 rows) is smaller than t1 (10k): with stats it becomes
        // the build (left) side.
        let p = plan("select a, x from t1, t2 where a = x");
        match &p {
            LogicalPlan::Project { input, .. } => match input.as_ref() {
                LogicalPlan::Join {
                    left, right, on, ..
                } => {
                    assert!(
                        matches!(left.as_ref(), LogicalPlan::Scan { table, .. } if table == "t2")
                    );
                    assert!(
                        matches!(right.as_ref(), LogicalPlan::Scan { table, .. } if table == "t1")
                    );
                    assert_eq!(on.len(), 1);
                }
                other => panic!("expected join, got:\n{other}"),
            },
            other => panic!("{other}"),
        }
        // Without stats: as-written order (t1 left).
        let p = plan_no_stats("select a, x from t1, t2 where a = x");
        match &p {
            LogicalPlan::Project { input, .. } => match input.as_ref() {
                LogicalPlan::Join { left, .. } => {
                    assert!(
                        matches!(left.as_ref(), LogicalPlan::Scan { table, .. } if table == "t1")
                    );
                }
                other => panic!("{other}"),
            },
            other => panic!("{other}"),
        }
    }

    #[test]
    fn exists_becomes_semi_join() {
        let p = plan(
            "select count(*) from t1 where exists \
             (select * from t2 where x = a and y > 0)",
        );
        let s = p.explain();
        assert!(s.contains("SemiJoin"), "{s}");
        // Inner filter pushed to t2's scan.
        match find_scan(&p, "t2") {
            LogicalPlan::Scan {
                filters,
                projection,
                ..
            } => {
                assert_eq!(filters.len(), 1);
                assert_eq!(projection, &vec![0, 1]); // x (correlation), y (filter)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn not_exists_becomes_anti_join() {
        let p = plan("select count(*) from t1 where not exists (select * from t2 where x = a)");
        assert!(p.explain().contains("AntiJoin"), "{}", p.explain());
    }

    #[test]
    fn aggregate_strategy_follows_stats() {
        // b has 5 distinct values -> hash aggregation with stats.
        let p = plan("select b, count(*) from t1 group by b");
        assert!(p.explain().contains("HashAggregate"), "{}", p.explain());
        // Without stats -> pessimistic sort aggregation.
        let p = plan_no_stats("select b, count(*) from t1 group by b");
        assert!(p.explain().contains("SortAggregate"), "{}", p.explain());
        // No GROUP BY -> plain.
        let p = plan("select count(*) from t1");
        assert!(p.explain().contains("PlainAggregate"), "{}", p.explain());
    }

    #[test]
    fn aggregate_projection_rewrites_over_agg_output() {
        let p = plan("select b, sum(a) * 2 from t1 group by b");
        match &p {
            LogicalPlan::Project { exprs, .. } => {
                assert_eq!(exprs[0].to_string(), "#0"); // group key
                assert_eq!(exprs[1].to_string(), "(#1 * 2)"); // agg slot
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn duplicate_aggregates_are_shared() {
        let p = plan("select sum(a), sum(a) + 1 from t1");
        match &p {
            LogicalPlan::Project { input, .. } => match input.as_ref() {
                LogicalPlan::Aggregate { aggs, .. } => assert_eq!(aggs.len(), 1),
                other => panic!("{other}"),
            },
            other => panic!("{other}"),
        }
    }

    #[test]
    fn order_by_alias_and_column() {
        let p = plan("select b, sum(a) total from t1 group by b order by total desc, b");
        match &p {
            LogicalPlan::Sort { keys, .. } => {
                assert_eq!(keys[0].col, 1);
                assert!(keys[0].desc);
                assert_eq!(keys[1].col, 0);
                assert!(!keys[1].desc);
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn or_factoring_exposes_join() {
        // Q19 shape: both disjuncts contain a = x.
        let p = plan(
            "select count(*) from t1, t2 where \
             (a = x and b = 1 and y = 2) or (a = x and b = 3 and y = 4)",
        );
        let s = p.explain();
        assert!(s.contains("InnerJoin on=[("), "join missing:\n{s}");
        assert!(s.contains("Filter"), "residual OR missing:\n{s}");
    }

    #[test]
    fn interval_arithmetic_folds() {
        let p = plan("select a from t1 where d < date '1994-01-01' + interval '1' year");
        match find_scan(&p, "t1") {
            LogicalPlan::Scan { filters, .. } => {
                assert_eq!(filters[0].to_string(), "(#1 < 1995-01-01)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        let c = catalog();
        let opts = PlannerOptions::default();
        let run = |sql: &str| bind(&parse(sql).unwrap(), &c, &opts);
        assert!(run("select nope from t1").is_err());
        assert!(run("select a from missing").is_err());
        assert!(run("select a, count(*) from t1").is_err()); // a not grouped
        assert!(run("select a from t1 where sum(b) > 1").is_err()); // agg in WHERE
        assert!(run("select a from t1 order by zzz").is_err());
        // Ambiguity: both tables have no common names here, so make one.
        assert!(run("select a from t1, t1").is_err()); // duplicate alias
    }

    #[test]
    fn ungrouped_columns_are_named() {
        let c = catalog();
        let opts = PlannerOptions::default();
        for (sql, col) in [
            ("select a, count(*) from t1", "a"),
            (
                "select b, sum(a) from t1 group by b having t1.a > 1",
                "t1.a",
            ),
            ("select b from t1 group by b having c like 'x%'", "c"),
        ] {
            let err = bind(&parse(sql).unwrap(), &c, &opts).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "plan error: column `{col}` must appear in GROUP BY or inside an aggregate"
                ),
                "{sql}"
            );
        }
    }

    #[test]
    fn binds_parameters_with_inferred_types() {
        let stmt = parse("select a from t1 where b < $1 and d >= $2").unwrap();
        let mut p = bind(&stmt, &catalog(), &PlannerOptions::default()).unwrap();
        // Types flow from the compared columns: b int, d date.
        assert_eq!(
            p.param_types(2),
            vec![Some(DataType::Int32), Some(DataType::Date)]
        );
        match find_scan(&p, "t1") {
            LogicalPlan::Scan { filters, .. } => {
                assert_eq!(filters.len(), 2);
                let shown: Vec<String> = filters.iter().map(|f| f.to_string()).collect();
                assert!(shown.iter().any(|s| s.contains("$1")), "{shown:?}");
                assert!(shown.iter().any(|s| s.contains("$2")), "{shown:?}");
            }
            other => panic!("{other:?}"),
        }
        // Substitution produces a parameter-free plan.
        p.substitute_params(&[
            Value::Int64(3),
            Value::Date(nodb_common::Date::parse("1994-01-01").unwrap()),
        ]);
        assert!(!p.explain().contains('$'), "{p}");
        // Parameters in aggregate context (HAVING) bind too.
        let stmt = parse("select b, count(*) from t1 group by b having count(*) > ?").unwrap();
        let mut p = bind(&stmt, &catalog(), &PlannerOptions::default()).unwrap();
        assert_eq!(p.param_types(1).len(), 1);
        // LIKE patterns may be parameters; the slot is typed Text by
        // the inference pre-pass and substitutes like any other.
        let stmt = parse("select a from t1 where c like $1").unwrap();
        let mut p = bind(&stmt, &catalog(), &PlannerOptions::default()).unwrap();
        assert_eq!(p.param_types(1), vec![Some(DataType::Text)]);
        p.substitute_params(&[Value::Text("al%".into())]);
        assert!(p.explain().contains("LIKE 'al%'"), "{p}");
        // ... but a non-text literal pattern is still a bind-time error.
        let stmt = parse("select a from t1 where c like 42").unwrap();
        assert!(bind(&stmt, &catalog(), &PlannerOptions::default()).is_err());
        // Parameters inside IN lists bind (desugared to an OR-chain of
        // equalities), typed from the tested column.
        let stmt = parse("select a from t1 where b in (1, $1, 3)").unwrap();
        let mut p = bind(&stmt, &catalog(), &PlannerOptions::default()).unwrap();
        assert_eq!(p.param_types(1), vec![Some(DataType::Int32)]);
        p.substitute_params(&[Value::Int32(2)]);
        let shown = p.explain();
        assert!(!shown.contains('$'), "{shown}");
        assert!(shown.contains("OR"), "{shown}");
    }

    #[test]
    fn huge_param_index_fails_fast_in_bind() {
        // `bind` is reachable without a prior param_count check (the
        // EXPLAIN path); a lone $4000000000 must error on the gap, not
        // allocate a 4-billion-slot type vector.
        let stmt = parse("select a from t1 where b = $4000000000").unwrap();
        let err = bind(&stmt, &catalog(), &PlannerOptions::default())
            .unwrap_err()
            .to_string();
        assert!(err.contains("parameter $1"), "{err}");
    }

    fn catalog_without_stats() -> MockCatalog {
        let mut c = catalog();
        for t in &mut c.tables {
            t.2 = None;
        }
        c
    }

    #[test]
    fn refresh_stats_unstales_a_cached_plan() {
        use crate::optimizer::refresh_stats;
        // A catalog where statistics reveal a huge group count.
        let mut big = catalog_without_stats();
        let mut st = TableStats::new();
        st.set_row_count(2_000_000);
        st.set_column(0, col_stats(1000, 4000)); // a
        st.set_column(1, col_stats(1000, 4000)); // b
        big.tables[0].2 = Some(st);

        // Prepared cold: no statistics yet, so the binder guesses
        // default NDVs and picks hash aggregation.
        let stmt = parse("select a, b, count(*) from t1 group by a, b").unwrap();
        let mut plan = bind(&stmt, &catalog_without_stats(), &PlannerOptions::default()).unwrap();
        assert!(
            plan.explain().contains("HashAggregate"),
            "{}",
            plan.explain()
        );

        // Executed later, after statistics were collected: the refresh
        // pass re-estimates the scan from current stats and flips the
        // strategy to sort aggregation (~1M estimated groups).
        refresh_stats(&mut plan, &big, true);
        assert!(
            plan.explain().contains("SortAggregate"),
            "{}",
            plan.explain()
        );
        match find_scan(&plan, "t1") {
            LogicalPlan::Scan { estimated_rows, .. } => {
                assert_eq!(*estimated_rows, 2_000_000.0);
            }
            other => panic!("{other:?}"),
        }

        // With use_stats off the plan is left exactly as bound.
        let mut frozen = bind(
            &stmt,
            &catalog_without_stats(),
            &PlannerOptions { use_stats: false },
        )
        .unwrap();
        let before = frozen.explain();
        refresh_stats(&mut frozen, &big, false);
        assert_eq!(before, frozen.explain());
    }

    #[test]
    fn scan_estimates_reflect_stats() {
        let p = plan("select a from t1 where b = 1");
        match find_scan(&p, "t1") {
            LogicalPlan::Scan { estimated_rows, .. } => {
                // b has 5 distinct values over 10k rows -> ~2000.
                assert!(
                    (500.0..5000.0).contains(estimated_rows),
                    "est={estimated_rows}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn impure_having_on_a_key_stays_above_the_aggregate() {
        // `10 / k` can divide by zero; HAVING filters groups, so it is
        // evaluated once per group, never on rows.
        assert_eq!(
            plan("select k, count(*) from t group by k having 10 / k > 1").explain(),
            "Project [#0, #1]\n  Filter ((10 / #0) > 1)\n    HashAggregate group=[0] aggs=1\n      \
             Scan t proj=[3] (~1000 rows)\n"
        );
    }

    #[test]
    fn predicates_are_planned_as_written() {
        let cases = [
            // A pure HAVING over a group key still filters groups.
            (
                "select grp, count(*) from t group by grp having grp = 'a'",
                "Project [#0, #1]\n  Filter (#0 = a)\n    HashAggregate group=[0] aggs=1\n      \
                 Scan t proj=[1] (~1000 rows)\n",
            ),
            // Over the aggregate's output every operator binds as in
            // WHERE, the aggregate call read from its slot.
            (
                "select grp, count(*) from t group by grp having count(*) between 2 and 3",
                "Project [#0, #1]\n  Filter #1 BETWEEN 2 AND 3\n    HashAggregate group=[0] aggs=1\n      \
                 Scan t proj=[1] (~1000 rows)\n",
            ),
            // A constant conjunct filters the first FROM table's scan,
            // after that table's own filters, unfolded.
            (
                "select id from t where id > 10 + 5 and 1 = 1",
                "Project [#0]\n  Scan t proj=[0] filters=[(#0 > (10 + 5)), (1 = 1)] (~2 rows)\n",
            ),
            (
                "select x from t2, t1 where 1 = 2 and x = a",
                "Project [#0]\n  InnerJoin on=[(0, 0)] (~2 rows)\n    \
                 Scan t2 proj=[0] filters=[(1 = 2)] (~1 rows)\n    Scan t1 proj=[0] (~10000 rows)\n",
            ),
        ];
        for (sql, want) in cases {
            assert_eq!(plan(sql).explain(), want, "{sql}");
        }
    }
}
