//! Recursive-descent parser for the supported SQL subset.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use nodb_common::{Date, NoDbError, Result, Value};

use crate::ast::*;
use crate::lexer::{lex, Token};

/// Parse one SELECT statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<SelectStmt> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        next_param: 0,
        saw_dollar_param: false,
    };
    let stmt = p.select_stmt()?;
    p.accept(&Token::Semi);
    if !p.at_end() {
        return Err(NoDbError::sql(format!(
            "unexpected trailing tokens near {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Next index assigned to a `?` placeholder (they number themselves
    /// in order of appearance, statement-wide).
    next_param: usize,
    /// Whether an explicit `$N` placeholder has been seen (the two
    /// styles cannot be mixed — `?` numbering would become ambiguous).
    saw_dollar_param: bool,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn accept(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn accept_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token, ctx: &str) -> Result<()> {
        if self.accept(t) {
            Ok(())
        } else {
            Err(NoDbError::sql(format!(
                "expected {t:?} {ctx}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            Err(NoDbError::sql(format!(
                "expected `{kw}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self, ctx: &str) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(NoDbError::sql(format!(
                "expected identifier {ctx}, found {other:?}"
            ))),
        }
    }

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let distinct = self.accept_kw("distinct");
        let mut projections = Vec::new();
        loop {
            if self.accept(&Token::Star) {
                projections.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.accept_kw("as") {
                    Some(self.expect_ident("after AS")?)
                } else if let Some(Token::Ident(s)) = self.peek() {
                    // Bare alias, unless it's a clause keyword.
                    if matches!(
                        s.as_str(),
                        "from" | "where" | "group" | "having" | "order" | "limit"
                    ) {
                        None
                    } else {
                        let s = s.clone();
                        self.pos += 1;
                        Some(s)
                    }
                } else {
                    None
                };
                projections.push(SelectItem::Expr { expr, alias });
            }
            if !self.accept(&Token::Comma) {
                break;
            }
        }

        self.expect_kw("from")?;
        let mut from = Vec::new();
        let mut join_filter: Option<AstExpr> = None;
        from.push(self.table_ref()?);
        loop {
            if self.accept(&Token::Comma) {
                from.push(self.table_ref()?);
            } else if self.peek().is_some_and(|t| t.is_kw("join"))
                || (self.peek().is_some_and(|t| t.is_kw("inner"))
                    && self.peek2().is_some_and(|t| t.is_kw("join")))
            {
                self.accept_kw("inner");
                self.expect_kw("join")?;
                from.push(self.table_ref()?);
                if self.accept_kw("on") {
                    let on = self.expr()?;
                    join_filter = Some(AstExpr::and_opt(join_filter, on));
                }
            } else {
                break;
            }
        }

        let mut where_clause = if self.accept_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        if let Some(jf) = join_filter {
            where_clause = Some(AstExpr::and_opt(where_clause, jf));
        }

        let mut group_by = Vec::new();
        if self.accept_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
        }

        let having = if self.accept_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.accept_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.accept_kw("desc") {
                    true
                } else {
                    self.accept_kw("asc");
                    false
                };
                order_by.push(OrderByItem { expr, desc });
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.accept_kw("limit") {
            match self.bump() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                other => {
                    return Err(NoDbError::sql(format!(
                        "expected integer after LIMIT, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };

        Ok(SelectStmt {
            distinct,
            projections,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.expect_ident("as table name")?;
        let alias = if self.accept_kw("as") {
            Some(self.expect_ident("after AS")?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            if matches!(
                s.as_str(),
                "where" | "group" | "having" | "order" | "limit" | "join" | "inner" | "on"
            ) {
                None
            } else {
                let s = s.clone();
                self.pos += 1;
                Some(s)
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    // --- expressions: or > and > not > predicate > additive > mult > unary

    fn expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.and_expr()?;
        while self.accept_kw("or") {
            let right = self.and_expr()?;
            left = AstExpr::Binary {
                op: AstBinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.not_expr()?;
        while self.accept_kw("and") {
            let right = self.not_expr()?;
            left = AstExpr::Binary {
                op: AstBinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.accept_kw("not") {
            Ok(AstExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<AstExpr> {
        let left = self.additive()?;
        // Comparison operators.
        let op = match self.peek() {
            Some(Token::Eq) => Some(AstBinOp::Eq),
            Some(Token::NotEq) => Some(AstBinOp::NotEq),
            Some(Token::Lt) => Some(AstBinOp::Lt),
            Some(Token::LtEq) => Some(AstBinOp::LtEq),
            Some(Token::Gt) => Some(AstBinOp::Gt),
            Some(Token::GtEq) => Some(AstBinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        // [NOT] BETWEEN / IN / LIKE, IS [NOT] NULL.
        let negated = if self.peek().is_some_and(|t| t.is_kw("not"))
            && self
                .peek2()
                .is_some_and(|t| t.is_kw("between") || t.is_kw("in") || t.is_kw("like"))
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.accept_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(AstExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.accept_kw("in") {
            self.expect(&Token::LParen, "after IN")?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen, "after IN list")?;
            return Ok(AstExpr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.accept_kw("like") {
            let pattern = self.additive()?;
            return Ok(AstExpr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(NoDbError::sql("dangling NOT before predicate"));
        }
        if self.accept_kw("is") {
            let negated = self.accept_kw("not");
            self.expect_kw("null")?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => AstBinOp::Add,
                Some(Token::Minus) => AstBinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => AstBinOp::Mul,
                Some(Token::Slash) => AstBinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<AstExpr> {
        if self.accept(&Token::Minus) {
            // Fold negative literals immediately.
            return match self.unary()? {
                AstExpr::Literal(Value::Int64(v)) => Ok(AstExpr::Literal(Value::Int64(-v))),
                AstExpr::Literal(Value::Float64(v)) => Ok(AstExpr::Literal(Value::Float64(-v))),
                e => Ok(AstExpr::Neg(Box::new(e))),
            };
        }
        if self.accept(&Token::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.peek().cloned() {
            Some(Token::Int(v)) => {
                self.pos += 1;
                Ok(AstExpr::Literal(Value::Int64(v)))
            }
            Some(Token::Float(v)) => {
                self.pos += 1;
                Ok(AstExpr::Literal(Value::Float64(v)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(AstExpr::Literal(Value::Text(s)))
            }
            Some(Token::Question) => {
                self.pos += 1;
                if self.saw_dollar_param {
                    return Err(NoDbError::sql(
                        "cannot mix `?` and `$N` parameter placeholders in one statement",
                    ));
                }
                let idx = self.next_param;
                self.next_param += 1;
                Ok(AstExpr::Param(idx))
            }
            Some(Token::Param(n)) => {
                self.pos += 1;
                if self.next_param > 0 {
                    return Err(NoDbError::sql(
                        "cannot mix `?` and `$N` parameter placeholders in one statement",
                    ));
                }
                self.saw_dollar_param = true;
                Ok(AstExpr::Param(n as usize - 1))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Token::RParen, "to close parenthesis")?;
                Ok(e)
            }
            Some(Token::Ident(id)) => self.ident_expr(id),
            other => Err(NoDbError::sql(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }

    fn ident_expr(&mut self, id: String) -> Result<AstExpr> {
        match id.as_str() {
            // Soft keyword: `date '…'`. A bare `date` identifier (no string
            // literal following) still parses as a column reference below.
            "date" if matches!(self.peek2(), Some(Token::Str(_))) => {
                self.pos += 1; // consume `date`
                match self.bump() {
                    Some(Token::Str(s)) => {
                        let d = Date::parse(&s)
                            .map_err(|e| NoDbError::sql(format!("in DATE literal: {e}")))?;
                        Ok(AstExpr::Literal(Value::Date(d)))
                    }
                    other => Err(NoDbError::sql(format!(
                        "expected string after DATE, found {other:?}"
                    ))),
                }
            }
            "interval" => {
                self.pos += 1;
                let n = match self.bump() {
                    Some(Token::Str(s)) => s
                        .trim()
                        .parse::<i64>()
                        .map_err(|_| NoDbError::sql(format!("bad INTERVAL count `{s}`")))?,
                    Some(Token::Int(v)) => v,
                    other => {
                        return Err(NoDbError::sql(format!(
                            "expected count after INTERVAL, found {other:?}"
                        )))
                    }
                };
                let unit_name = self.expect_ident("as interval unit")?;
                let unit = match unit_name.as_str() {
                    "day" | "days" => IntervalUnit::Day,
                    "month" | "months" => IntervalUnit::Month,
                    "year" | "years" => IntervalUnit::Year,
                    other => {
                        return Err(NoDbError::sql(format!("unknown interval unit `{other}`")))
                    }
                };
                Ok(AstExpr::Interval { n, unit })
            }
            "case" => {
                self.pos += 1;
                let mut branches = Vec::new();
                while self.accept_kw("when") {
                    let cond = self.expr()?;
                    self.expect_kw("then")?;
                    let res = self.expr()?;
                    branches.push((cond, res));
                }
                if branches.is_empty() {
                    return Err(NoDbError::sql("CASE requires at least one WHEN"));
                }
                let else_expr = if self.accept_kw("else") {
                    Some(Box::new(self.expr()?))
                } else {
                    None
                };
                self.expect_kw("end")?;
                Ok(AstExpr::Case {
                    branches,
                    else_expr,
                })
            }
            "exists" => {
                self.pos += 1;
                self.expect(&Token::LParen, "after EXISTS")?;
                let sub = self.select_stmt()?;
                self.expect(&Token::RParen, "to close EXISTS")?;
                Ok(AstExpr::Exists {
                    subquery: Box::new(sub),
                    negated: false,
                })
            }
            "count" | "sum" | "avg" | "min" | "max" if self.peek2() == Some(&Token::LParen) => {
                self.pos += 2; // func + LParen
                let func = match id.as_str() {
                    "count" => AggFuncAst::Count,
                    "sum" => AggFuncAst::Sum,
                    "avg" => AggFuncAst::Avg,
                    "min" => AggFuncAst::Min,
                    _ => AggFuncAst::Max,
                };
                let arg = if self.accept(&Token::Star) {
                    if func != AggFuncAst::Count {
                        return Err(NoDbError::sql("only COUNT accepts *"));
                    }
                    None
                } else {
                    Some(Box::new(self.expr()?))
                };
                self.expect(&Token::RParen, "to close aggregate")?;
                Ok(AstExpr::Agg { func, arg })
            }
            _ => {
                self.pos += 1;
                if self.accept(&Token::Dot) {
                    let col = self.expect_ident("after `.`")?;
                    Ok(AstExpr::Column {
                        table: Some(id),
                        name: col,
                    })
                } else {
                    Ok(AstExpr::Column {
                        table: None,
                        name: id,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s = parse("select a, b from t where a < 5 limit 3;").unwrap();
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.from[0].name, "t");
        assert!(s.where_clause.is_some());
        assert_eq!(s.limit, Some(3));
    }

    #[test]
    fn parses_aliases_and_qualified_columns() {
        let s = parse("select t.a as x, b total from t1 t, t2 where t.a = t2.c").unwrap();
        match &s.projections[0] {
            SelectItem::Expr { expr, alias } => {
                assert_eq!(alias.as_deref(), Some("x"));
                assert_eq!(
                    expr,
                    &AstExpr::Column {
                        table: Some("t".into()),
                        name: "a".into()
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        match &s.projections[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("total")),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.from[0].alias.as_deref(), Some("t"));
    }

    #[test]
    fn parses_date_and_interval_arithmetic() {
        let s = parse("select 1 from t where d <= date '1998-12-01' - interval '90' day").unwrap();
        let w = s.where_clause.unwrap();
        match w {
            AstExpr::Binary {
                op: AstBinOp::LtEq,
                right,
                ..
            } => match *right {
                AstExpr::Binary {
                    op: AstBinOp::Sub,
                    left,
                    right,
                } => {
                    assert!(matches!(*left, AstExpr::Literal(Value::Date(_))));
                    assert!(matches!(
                        *right,
                        AstExpr::Interval {
                            n: 90,
                            unit: IntervalUnit::Day
                        }
                    ));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_between_in_like_case() {
        let s = parse(
            "select sum(case when p like 'PROMO%' then x else 0 end) from t \
             where d between 0.05 and 0.07 and m in ('MAIL', 'SHIP') and q not like 'z%'",
        )
        .unwrap();
        assert!(s.where_clause.is_some());
        match &s.projections[0] {
            SelectItem::Expr { expr, .. } => assert!(expr.contains_agg()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_exists_subquery() {
        let s = parse(
            "select count(*) from orders where exists \
             (select * from lineitem where l_orderkey = o_orderkey)",
        )
        .unwrap();
        match s.where_clause.unwrap() {
            AstExpr::Exists { subquery, negated } => {
                assert!(!negated);
                assert_eq!(subquery.from[0].name, "lineitem");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn not_exists_via_not() {
        let s = parse("select 1 from t where not exists (select * from u)").unwrap();
        assert!(matches!(s.where_clause.unwrap(), AstExpr::Not(_)));
    }

    #[test]
    fn parses_group_order_desc() {
        let s = parse("select a, sum(b) rev from t group by a order by rev desc, a asc").unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
    }

    #[test]
    fn parses_join_on_as_where_conjunct() {
        let s = parse("select 1 from a join b on a.x = b.y where a.z > 0").unwrap();
        assert_eq!(s.from.len(), 2);
        // ON clause folded into WHERE.
        match s.where_clause.unwrap() {
            AstExpr::Binary {
                op: AstBinOp::And, ..
            } => {}
            other => panic!("expected AND of where+on, got {other:?}"),
        }
    }

    #[test]
    fn negative_numbers_fold() {
        let s = parse("select -5, -2.5 from t").unwrap();
        match &s.projections[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr, &AstExpr::Literal(Value::Int64(-5)))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operator_precedence_mul_before_add_before_cmp() {
        let s = parse("select 1 from t where a + b * 2 < 10").unwrap();
        match s.where_clause.unwrap() {
            AstExpr::Binary {
                op: AstBinOp::Lt,
                left,
                ..
            } => match *left {
                AstExpr::Binary {
                    op: AstBinOp::Add,
                    right,
                    ..
                } => assert!(matches!(
                    *right,
                    AstExpr::Binary {
                        op: AstBinOp::Mul,
                        ..
                    }
                )),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_sql() {
        assert!(parse("select from t").is_err());
        assert!(parse("select a t").is_err()); // missing FROM
        assert!(parse("select a from t where").is_err());
        assert!(parse("select sum(*) from t").is_err());
        assert!(parse("select a from t limit x").is_err());
        // `t extra` is a valid aliased table, but trailing tokens after a
        // complete statement are rejected.
        assert!(parse("select a from t limit 1 2").is_err());
    }

    #[test]
    fn parses_parameter_placeholders() {
        // `?` numbers itself in order of appearance.
        let s = parse("select a from t where b = ? and c < ?").unwrap();
        let mut used = std::collections::BTreeSet::new();
        s.collect_params(&mut used);
        assert_eq!(used.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(s.param_count().unwrap(), 2);
        // `$N` is explicit and reusable.
        let s = parse("select a from t where b = $2 and c between $1 and $2").unwrap();
        assert_eq!(s.param_count().unwrap(), 2);
        // Gapped numbering is rejected at count time.
        let s = parse("select a from t where b = $3").unwrap();
        assert!(s.param_count().is_err());
        // The two styles cannot be mixed.
        assert!(parse("select a from t where b = ? and c = $1").is_err());
        assert!(parse("select a from t where b = $1 and c = ?").is_err());
        // Params inside EXISTS subqueries are statement-wide.
        let s =
            parse("select 1 from t where exists (select * from u where x = a and y = ?)").unwrap();
        assert_eq!(s.param_count().unwrap(), 1);
    }

    #[test]
    fn count_star_and_wildcard() {
        let s = parse("select * from t").unwrap();
        assert_eq!(s.projections[0], SelectItem::Wildcard);
        let s = parse("select count(*) from t").unwrap();
        match &s.projections[0] {
            SelectItem::Expr { expr, .. } => {
                assert!(matches!(
                    expr,
                    AstExpr::Agg {
                        func: AggFuncAst::Count,
                        arg: None
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }
}

#[cfg(test)]
mod fuzz {
    use proptest::prelude::*;

    proptest! {
        /// The parser must never panic — arbitrary garbage yields Err.
        #[test]
        fn parser_never_panics(input in "[ -~]{0,120}") {
            let _ = super::parse(&input);
        }

        /// SQL-shaped random input round-trips through the lexer/parser
        /// without panicking either.
        #[test]
        fn sqlish_never_panics(
            kw in prop_oneof![
                Just("select"), Just("from"), Just("where"), Just("group by"),
                Just("order by"), Just("and"), Just("or"), Just("between"),
                Just("case when"), Just("exists ("), Just("interval"),
                Just("date"), Just("sum("), Just("count(*)"),
            ],
            ident in "[a-z_][a-z0-9_]{0,8}",
            num in any::<i32>(),
            tail in "[ -~]{0,40}",
        ) {
            let _ = super::parse(&format!("select {ident} {kw} {num} {tail}"));
            let _ = super::parse(&format!("{kw} {ident} {num}"));
        }

        /// Multi-byte UTF-8 anywhere never panics the lexer or parser,
        /// and inside quotes it comes back as the literal's exact text.
        #[test]
        fn non_ascii_never_panics_and_literals_keep_it(
            pieces in proptest::collection::vec(
                prop_oneof![
                    Just("é"), Just("€"), Just("𝄞"), Just("ß"), Just("'"),
                    Just("a"), Just(" "), Just("--"), Just("="), Just("%"),
                ],
                0..24,
            ),
        ) {
            let text: String = pieces.concat();
            let _ = super::parse(&text);
            let _ = super::parse(&format!("select {text} from t"));
            let literal = text.replace('\'', "");
            let sql = format!("select c from t where c = '{literal}'");
            let toks = crate::lexer::lex(&sql).unwrap();
            prop_assert!(toks.contains(&crate::lexer::Token::Str(literal.clone())), "{}", sql);
            prop_assert!(super::parse(&sql).is_ok(), "{}", sql);
        }
    }
}

#[cfg(test)]
mod having_distinct {
    use super::*;

    #[test]
    fn parses_distinct_and_having() {
        let s = parse("select distinct a from t").unwrap();
        assert!(s.distinct);
        let s = parse("select a, count(*) from t group by a having count(*) > 2").unwrap();
        assert!(s.having.is_some());
        assert!(!s.distinct);
        // HAVING without GROUP BY parses (binder treats it as aggregate
        // context).
        assert!(parse("select count(*) from t having count(*) > 0").is_ok());
        // Qualified `t.distinct` parses as a column reference (DISTINCT
        // is a soft keyword, only special right after SELECT).
        assert!(parse("select t.distinct from t").is_ok());
    }
}
