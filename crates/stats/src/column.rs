//! Finalized per-attribute statistics and selectivity estimation.

use nodb_common::like::{like_match, literal_prefix};
use nodb_common::{DataType, Value};

use crate::histogram::Histogram;
use crate::{DEFAULT_INEQ_SEL, DEFAULT_LIKE_SEL};

/// Statistics for one attribute, built from a sample by
/// [`crate::StatsBuilder`].
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Attribute type.
    pub dtype: DataType,
    /// Values offered to the builder (the sample size).
    pub rows_sampled: u64,
    /// NULLs among them.
    pub null_count: u64,
    /// Exact minimum over the sample.
    pub min: Option<Value>,
    /// Exact maximum over the sample.
    pub max: Option<Value>,
    /// Estimated number of distinct values in the full column.
    pub ndv: f64,
    /// Equi-width histogram over the numeric projection.
    pub histogram: Option<Histogram>,
    /// Most common values with their sample frequency (fraction of
    /// non-null sampled rows).
    pub mcv: Vec<(Value, f64)>,
}

/// Numeric projection used by histograms and range estimation.
pub(crate) fn numeric_proj(v: &Value) -> Option<f64> {
    match v {
        Value::Date(d) => Some(d.days() as f64),
        Value::Bool(b) => Some(*b as i32 as f64),
        other => other.as_f64(),
    }
}

impl ColumnStats {
    /// Fraction of rows that are NULL in the sample.
    pub fn null_fraction(&self) -> f64 {
        if self.rows_sampled == 0 {
            0.0
        } else {
            self.null_count as f64 / self.rows_sampled as f64
        }
    }

    fn non_null_fraction(&self) -> f64 {
        1.0 - self.null_fraction()
    }

    fn mcv_mass(&self) -> f64 {
        self.mcv.iter().map(|(_, f)| f).sum()
    }

    /// Selectivity of `col = v`.
    pub fn selectivity_eq(&self, v: &Value) -> f64 {
        if v.is_null() || self.rows_sampled == 0 {
            return 0.0;
        }
        if let Some((_, f)) = self
            .mcv
            .iter()
            .find(|(m, _)| m.sql_cmp(v) == Some(std::cmp::Ordering::Equal))
        {
            return (f * self.non_null_fraction()).clamp(0.0, 1.0);
        }
        // Out-of-range values select nothing.
        if let (Some(min), Some(max)) = (&self.min, &self.max) {
            if v.sql_cmp(min) == Some(std::cmp::Ordering::Less)
                || v.sql_cmp(max) == Some(std::cmp::Ordering::Greater)
            {
                return 0.0;
            }
        }
        let rest_values = (self.ndv - self.mcv.len() as f64).max(1.0);
        let rest_mass = (1.0 - self.mcv_mass()).max(0.0);
        ((rest_mass / rest_values) * self.non_null_fraction()).clamp(0.0, 1.0)
    }

    /// Selectivity of a (half-)open range `low < col < high` (bound
    /// inclusivity is approximated continuously, as PostgreSQL does for
    /// histogram buckets).
    pub fn selectivity_range(&self, low: Option<&Value>, high: Option<&Value>) -> f64 {
        let lo = low.and_then(numeric_proj);
        let hi = high.and_then(numeric_proj);
        if (low.is_some() && lo.is_none()) || (high.is_some() && hi.is_none()) {
            // Non-numeric bound (e.g. text range): no histogram support.
            return DEFAULT_INEQ_SEL;
        }
        match &self.histogram {
            Some(h) => (h.fraction_between(lo, hi) * self.non_null_fraction()).clamp(0.0, 1.0),
            None => DEFAULT_INEQ_SEL,
        }
    }

    /// Selectivity of `col LIKE pattern`, using MCVs when available plus a
    /// small default for the unseen remainder.
    pub fn selectivity_like(&self, pattern: &str) -> f64 {
        if self.rows_sampled == 0 {
            return DEFAULT_LIKE_SEL;
        }
        let matched_mass: f64 = self
            .mcv
            .iter()
            .filter(|(v, _)| v.as_str().is_some_and(|s| like_match(s, pattern)))
            .map(|(_, f)| f)
            .sum();
        let rest = (1.0 - self.mcv_mass()).max(0.0);
        let prefix = literal_prefix(pattern);
        let rest_sel = if prefix.is_empty() {
            DEFAULT_INEQ_SEL
        } else {
            DEFAULT_LIKE_SEL
        };
        ((matched_mass + rest * rest_sel) * self.non_null_fraction()).clamp(0.0, 1.0)
    }

    /// Estimated distinct values, floored at 1.
    pub fn distinct(&self) -> f64 {
        self.ndv.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StatsBuilder;

    fn uniform_int_stats(n: i32, hint: Option<f64>) -> ColumnStats {
        let mut b = StatsBuilder::new(DataType::Int32);
        for i in 0..n {
            b.offer(&Value::Int32(i % 100));
        }
        b.finalize(hint)
    }

    #[test]
    fn eq_selectivity_near_uniform_inverse_ndv() {
        let s = uniform_int_stats(10_000, Some(10_000.0));
        let sel = s.selectivity_eq(&Value::Int32(42));
        assert!((sel - 0.01).abs() < 0.01, "sel={sel}");
        assert_eq!(s.selectivity_eq(&Value::Null), 0.0);
        // Out of range.
        assert_eq!(s.selectivity_eq(&Value::Int32(5000)), 0.0);
    }

    #[test]
    fn range_selectivity_tracks_histogram() {
        let s = uniform_int_stats(10_000, Some(10_000.0));
        let sel = s.selectivity_range(None, Some(&Value::Int32(50)));
        assert!((sel - 0.5).abs() < 0.08, "sel={sel}");
        let sel = s.selectivity_range(Some(&Value::Int32(25)), Some(&Value::Int32(75)));
        assert!((sel - 0.5).abs() < 0.08, "sel={sel}");
    }

    #[test]
    fn like_uses_mcvs_for_text() {
        let mut b = StatsBuilder::new(DataType::Text);
        for i in 0..1000 {
            let s = if i % 5 == 0 { "PROMO X" } else { "STD Y" };
            b.offer(&Value::Text(s.into()));
        }
        let st = b.finalize(Some(1000.0));
        let sel = st.selectivity_like("PROMO%");
        assert!(
            (0.1..=0.4).contains(&sel),
            "PROMO%-selectivity {sel} should be near 0.2"
        );
        assert!(st.selectivity_like("ZZZ%") < sel);
    }

    #[test]
    fn null_fraction_counts() {
        let mut b = StatsBuilder::new(DataType::Int32);
        for i in 0..10 {
            if i % 2 == 0 {
                b.offer(&Value::Null);
            } else {
                b.offer(&Value::Int32(i));
            }
        }
        let s = b.finalize(None);
        assert_eq!(s.null_fraction(), 0.5);
    }
}
