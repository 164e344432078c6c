//! Physical planning: lower a [`LogicalPlan`] onto leaf scans supplied by
//! a [`TableProvider`].

use nodb_common::{NoDbError, Result};
use nodb_sql::{AggStrategy, BoundExpr, LogicalPlan};

use crate::ops::{
    BoxOp, DistinctOp, FilterOp, HashAggOp, HashJoinOp, LimitOp, PlainAggOp, ProjectOp, SortAggOp,
    SortOp,
};

/// Supplies leaf scans. Implemented by the in-situ engine (PostgresRaw
/// scan), the external-files straw-man and the conventional heap-file
/// engine — the rest of the operator tree is identical across all three.
///
/// Providers must be `Send + Sync`: the engine serves concurrent queries
/// from multiple threads against one catalog, so `scan` is called with a
/// shared reference from any thread.
pub trait TableProvider: Send + Sync {
    /// Open a scan producing the `projection` columns (table ordinals, in
    /// the given order) with `filters` (bound against the projection
    /// layout) applied.
    ///
    /// Providers *must* apply the filters in order, each to the rows the
    /// earlier ones passed (the in-situ scan exploits them for selective
    /// parsing; other leaves wrap their scan in
    /// [`FilterOp::conjuncts`](crate::FilterOp::conjuncts)).
    fn scan(&self, projection: &[usize], filters: &[BoundExpr]) -> Result<BoxOp>;
}

/// Resolves table names to providers.
pub trait ExecCatalog {
    /// Provider for `table`.
    fn provider(&self, table: &str) -> Result<&dyn TableProvider>;
}

/// Build an executable operator tree. Parameters must already be
/// substituted ([`LogicalPlan::substitute_params`]).
pub fn build_plan(plan: &LogicalPlan, catalog: &dyn ExecCatalog) -> Result<BoxOp> {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filters,
            ..
        } => catalog.provider(table)?.scan(projection, filters),
        LogicalPlan::Filter { input, predicate } => Ok(Box::new(FilterOp::new(
            build_plan(input, catalog)?,
            predicate.clone(),
        ))),
        LogicalPlan::Join {
            left,
            right,
            on,
            kind,
            ..
        } => Ok(Box::new(HashJoinOp::new(
            build_plan(left, catalog)?,
            build_plan(right, catalog)?,
            on.clone(),
            *kind,
        ))),
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            strategy,
            ..
        } => {
            let child = build_plan(input, catalog)?;
            let aggs = aggs.clone();
            Ok(match strategy {
                AggStrategy::Plain => {
                    if !group.is_empty() {
                        return Err(NoDbError::internal("plain aggregation with group keys"));
                    }
                    Box::new(PlainAggOp::new(child, aggs))
                }
                AggStrategy::Hash => Box::new(HashAggOp::new(child, group.clone(), aggs)),
                AggStrategy::Sort => Box::new(SortAggOp::new(child, group.clone(), aggs)),
            })
        }
        LogicalPlan::Project { input, exprs, .. } => Ok(Box::new(ProjectOp::new(
            build_plan(input, catalog)?,
            exprs.clone(),
        ))),
        LogicalPlan::Sort { input, keys } => Ok(Box::new(SortOp::new(
            build_plan(input, catalog)?,
            keys.clone(),
        ))),
        // A limit directly over a sort: one sort that keeps its first n.
        LogicalPlan::Limit { input, n } => match input.as_ref() {
            LogicalPlan::Sort { input, keys } if *n > 0 => Ok(Box::new(SortOp::top(
                build_plan(input, catalog)?,
                keys.clone(),
                *n,
            ))),
            _ => Ok(Box::new(LimitOp::new(build_plan(input, catalog)?, *n))),
        },
        LogicalPlan::Distinct { input } => {
            Ok(Box::new(DistinctOp::new(build_plan(input, catalog)?)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::RowsOp;
    use crate::run_to_vec;
    use nodb_common::Schema;
    use nodb_common::{Row, Value};
    use nodb_sql::binder::{CatalogView, PlannerOptions};
    use nodb_sql::plan_query;

    /// A provider serving a fixed in-memory table, applying projection
    /// and filters like a real scan would.
    struct MemTable {
        schema: Schema,
        rows: Vec<Row>,
    }

    impl TableProvider for MemTable {
        fn scan(&self, projection: &[usize], filters: &[BoundExpr]) -> Result<BoxOp> {
            let rows = self
                .rows
                .iter()
                .map(|r| Row(projection.iter().map(|&i| r.get(i).clone()).collect()))
                .collect();
            Ok(FilterOp::conjuncts(Box::new(RowsOp::new(rows)), filters))
        }
    }

    struct MemCatalog {
        tables: Vec<(String, MemTable)>,
    }

    impl ExecCatalog for MemCatalog {
        fn provider(&self, table: &str) -> Result<&dyn TableProvider> {
            self.tables
                .iter()
                .find(|(n, _)| n == table)
                .map(|(_, t)| t as &dyn TableProvider)
                .ok_or_else(|| NoDbError::catalog(format!("no provider for `{table}`")))
        }
    }

    impl CatalogView for MemCatalog {
        fn schema_of(&self, table: &str) -> Result<Schema> {
            self.tables
                .iter()
                .find(|(n, _)| n == table)
                .map(|(_, t)| t.schema.clone())
                .ok_or_else(|| NoDbError::catalog(format!("unknown table `{table}`")))
        }
        fn stats_of(&self, _table: &str) -> Option<nodb_stats::TableStats> {
            None
        }
    }

    fn catalog() -> MemCatalog {
        let orders = MemTable {
            schema: Schema::parse("o_id int, o_cust int, o_total double").unwrap(),
            rows: vec![
                Row(vec![
                    Value::Int32(1),
                    Value::Int32(10),
                    Value::Float64(100.0),
                ]),
                Row(vec![
                    Value::Int32(2),
                    Value::Int32(20),
                    Value::Float64(200.0),
                ]),
                Row(vec![
                    Value::Int32(3),
                    Value::Int32(10),
                    Value::Float64(50.0),
                ]),
            ],
        };
        let cust = MemTable {
            schema: Schema::parse("c_id int, c_name text").unwrap(),
            rows: vec![
                Row(vec![Value::Int32(10), Value::Text("alice".into())]),
                Row(vec![Value::Int32(20), Value::Text("bob".into())]),
            ],
        };
        MemCatalog {
            tables: vec![("orders".into(), orders), ("customer".into(), cust)],
        }
    }

    fn run(sql: &str) -> Vec<Row> {
        let cat = catalog();
        let plan = plan_query(sql, &cat, &PlannerOptions::default()).unwrap();
        run_to_vec(build_plan(&plan, &cat).unwrap()).unwrap()
    }

    #[test]
    fn end_to_end_select_filter() {
        let rows = run("select o_id from orders where o_total > 60 order by o_id");
        assert_eq!(
            rows,
            vec![Row(vec![Value::Int32(1)]), Row(vec![Value::Int32(2)])]
        );
    }

    #[test]
    fn end_to_end_join_group() {
        let rows = run("select c_name, sum(o_total) total from orders, customer \
             where o_cust = c_id group by c_name order by total desc");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0), &Value::Text("bob".into()));
        assert_eq!(rows[0].get(1), &Value::Float64(200.0));
        assert_eq!(rows[1].get(1), &Value::Float64(150.0));
    }

    #[test]
    fn end_to_end_exists() {
        let rows = run("select c_name from customer where exists \
             (select * from orders where o_cust = c_id and o_total < 60) \
             order by c_name");
        assert_eq!(rows, vec![Row(vec![Value::Text("alice".into())])]);
    }

    #[test]
    fn end_to_end_plain_agg_expression() {
        let rows = run("select 100.0 * sum(o_total) / count(*) from orders");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Float64(100.0 * 350.0 / 3.0));
    }
}
