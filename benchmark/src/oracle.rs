//! Answer checking: an order-insensitive checksum over result rows, and a
//! naive split-and-parse evaluator for the `wide.csv` queries.
//!
//! The evaluator shares nothing with the engine: it reads the file line by
//! line, splits on commas, parses every field with a digit loop and applies
//! the predicate. TPC-H and JSONL answers are instead taken, in set-up,
//! from an `AccessMode::ExternalFiles` engine, which keeps no auxiliary
//! structure. Either way an answer is a row count plus a checksum, and a
//! mismatch is a failed operation, never a panic.

use std::io::BufRead;
use std::path::Path;

use nodb_common::{Row, Value};

use crate::datagen::{fnv1a, FNV_OFFSET, WIDE_COLS};

/// What a query returned: how many rows, and the wrapping sum of the
/// per-row hashes (so row order does not matter, but every value does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Answer {
    pub rows: u64,
    pub checksum: u64,
}

impl Answer {
    /// Fold one engine result row in.
    pub fn add_row(&mut self, row: &Row) {
        self.add_hashed(row.values().iter().map(value_code));
    }

    fn add_hashed(&mut self, codes: impl Iterator<Item = u64>) {
        let mut h = FNV_OFFSET;
        for code in codes {
            h = fnv1a(h, &code.to_le_bytes());
        }
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(h);
    }
}

const NULL_CODE: u64 = 0x6e75_6c6c_6e75_6c6c;

/// One value as 64 bits. `Int32` and `Int64` of the same number agree (the
/// oracle does not know which width the engine infers for an aggregate);
/// floats are compared to six significant digits, because a sum taken in
/// another order may differ in its last bits.
fn value_code(v: &Value) -> u64 {
    match v {
        Value::Null => NULL_CODE,
        Value::Int32(_) | Value::Int64(_) | Value::Date(_) => {
            v.as_i64().expect("integer-like value") as u64
        }
        Value::Float64(f) => fnv1a(FNV_OFFSET, format!("{f:.5e}").as_bytes()),
        Value::Text(s) => fnv1a(FNV_OFFSET, s.as_bytes()),
        Value::Bool(b) => u64::from(*b),
    }
}

/// The two result shapes of the paper's micro-benchmark queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WideKind {
    /// `select cA, cB, .. from t where cK < X`
    Project,
    /// `select sum(cA), sum(cB), .., count(*) from t where cK < X`
    Aggregate,
}

/// One query over `wide.csv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideQuery {
    pub kind: WideKind,
    /// Projected or summed column ordinals.
    pub attrs: Vec<usize>,
    /// Column of the `<` predicate.
    pub pred_attr: usize,
    pub threshold: u64,
}

impl WideQuery {
    /// The SQL text sent to the engine.
    pub fn sql(&self) -> String {
        let list: Vec<String> = match self.kind {
            WideKind::Project => self.attrs.iter().map(|a| format!("c{a}")).collect(),
            WideKind::Aggregate => self
                .attrs
                .iter()
                .map(|a| format!("sum(c{a})"))
                .chain(std::iter::once("count(*)".to_string()))
                .collect(),
        };
        format!(
            "select {} from t where c{} < {}",
            list.join(", "),
            self.pred_attr,
            self.threshold
        )
    }
}

/// Running state of one query during the evaluator's single pass.
struct Eval<'q> {
    query: &'q WideQuery,
    row_limit: usize,
    matched: u64,
    sums: Vec<i64>,
    answer: Answer,
}

/// Evaluate every query in one pass over the file; query `i` sees only the
/// first `row_limits[i]` rows (`churn_sequence` asks each query about the
/// file as long as it was when the query ran).
pub fn eval_wide(
    path: &Path,
    queries: &[WideQuery],
    row_limits: &[usize],
) -> std::io::Result<Vec<Answer>> {
    assert_eq!(queries.len(), row_limits.len());
    let mut evals: Vec<Eval<'_>> = queries
        .iter()
        .zip(row_limits)
        .map(|(query, &row_limit)| Eval {
            query,
            row_limit,
            matched: 0,
            sums: vec![0; query.attrs.len()],
            answer: Answer::default(),
        })
        .collect();
    let mut reader = std::io::BufReader::with_capacity(1 << 16, std::fs::File::open(path)?);
    let mut line = Vec::new();
    let mut fields: Vec<i64> = Vec::with_capacity(WIDE_COLS);
    let mut row = 0usize;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        split_and_parse(&line, &mut fields);
        for e in evals.iter_mut().filter(|e| row < e.row_limit) {
            if fields[e.query.pred_attr] >= e.query.threshold as i64 {
                continue;
            }
            e.matched += 1;
            match e.query.kind {
                WideKind::Project => e
                    .answer
                    .add_hashed(e.query.attrs.iter().map(|&a| fields[a] as u64)),
                WideKind::Aggregate => {
                    for (sum, &a) in e.sums.iter_mut().zip(&e.query.attrs) {
                        *sum += fields[a];
                    }
                }
            }
        }
        row += 1;
    }
    Ok(evals
        .into_iter()
        .map(|mut e| {
            if e.query.kind == WideKind::Aggregate {
                // SQL: the sum of no rows is NULL, their count is 0.
                let matched = e.matched;
                let sums = e
                    .sums
                    .iter()
                    .map(move |&s| if matched == 0 { NULL_CODE } else { s as u64 });
                e.answer.add_hashed(sums.chain(std::iter::once(matched)));
            }
            e.answer
        })
        .collect())
}

/// Split one line on commas and parse every field as a non-negative
/// decimal integer.
fn split_and_parse(line: &[u8], fields: &mut Vec<i64>) {
    fields.clear();
    let mut cur = 0i64;
    for &b in line {
        match b {
            b',' => {
                fields.push(cur);
                cur = 0;
            }
            b'0'..=b'9' => cur = cur * 10 + i64::from(b - b'0'),
            _ => {}
        }
    }
    fields.push(cur);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 20 rows x 150 columns where `c<k>` of row `r` is `r * 1000 + k`.
    fn fixture(dir: &Path) -> std::path::PathBuf {
        let path = dir.join("fixture.csv");
        let mut text = String::new();
        for r in 0..20 {
            let row: Vec<String> = (0..WIDE_COLS).map(|k| (r * 1000 + k).to_string()).collect();
            text.push_str(&row.join(","));
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();
        path
    }

    fn rows_answer(rows: &[Vec<i64>]) -> Answer {
        let mut a = Answer::default();
        for r in rows {
            a.add_row(&Row(r.iter().map(|&v| Value::Int64(v)).collect()));
        }
        a
    }

    #[test]
    fn evaluator_matches_hand_computed_answers_on_a_20_row_fixture() {
        let dir = nodb_common::TempDir::new("bench-oracle").unwrap();
        let path = fixture(dir.path());
        let project = WideQuery {
            kind: WideKind::Project,
            attrs: vec![3, 149],
            pred_attr: 5,
            threshold: 4_000, // rows 0..=3: c5 = r*1000+5 < 4000
        };
        let aggregate = WideQuery {
            kind: WideKind::Aggregate,
            attrs: vec![0, 10],
            pred_attr: 1,
            threshold: 10_000, // rows 0..=9
        };
        let none = WideQuery {
            kind: WideKind::Aggregate,
            attrs: vec![0],
            pred_attr: 0,
            threshold: 0,
        };
        let queries = [project.clone(), aggregate.clone(), aggregate, none];
        let got = eval_wide(&path, &queries, &[20, 20, 5, 20]).unwrap();

        let expect_project: Vec<Vec<i64>> =
            (0..4).map(|r| vec![r * 1000 + 3, r * 1000 + 149]).collect();
        assert_eq!(got[0], rows_answer(&expect_project));
        // Order-insensitive: the same rows reversed give the same answer.
        let reversed: Vec<Vec<i64>> = expect_project.iter().rev().cloned().collect();
        assert_eq!(got[0], rows_answer(&reversed));

        let sum0: i64 = (0..10).map(|r| r * 1000).sum();
        let sum10: i64 = (0..10).map(|r| r * 1000 + 10).sum();
        assert_eq!(got[1], rows_answer(&[vec![sum0, sum10, 10]]));
        // Row limit 5: only rows 0..5 are visible.
        let sum0: i64 = (0..5).map(|r| r * 1000).sum();
        let sum10: i64 = (0..5).map(|r| r * 1000 + 10).sum();
        assert_eq!(got[2], rows_answer(&[vec![sum0, sum10, 5]]));
        // No qualifying row: one result row of NULL and 0.
        let mut empty = Answer::default();
        empty.add_row(&Row(vec![Value::Null, Value::Int64(0)]));
        assert_eq!(got[3], empty);

        // A wrong value or a missing row changes the answer.
        let mut wrong = expect_project.clone();
        wrong[2][1] += 1;
        assert_ne!(got[0], rows_answer(&wrong));
        assert_ne!(got[0], rows_answer(&expect_project[..3]));
        assert_eq!(project.sql(), "select c3, c149 from t where c5 < 4000");
    }

    #[test]
    fn integer_widths_agree_and_floats_compare_to_six_digits() {
        let code = |v: Value| value_code(&v);
        assert_eq!(code(Value::Int32(7)), code(Value::Int64(7)));
        assert_eq!(
            code(Value::Float64(1_234.567_891)),
            code(Value::Float64(1_234.567_899))
        );
        assert_ne!(code(Value::Float64(1234.56)), code(Value::Float64(1234.58)));
        assert_ne!(code(Value::Null), code(Value::Int64(0)));
    }
}
