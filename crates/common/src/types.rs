//! Logical data types supported by the engine.

use std::fmt;

use crate::error::{NoDbError, Result};

/// Logical column type.
///
/// The set mirrors what PostgresRaw needed for its evaluation: integers of
/// two widths, doubles, variable-length text, calendar dates and booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 float.
    Float64,
    /// UTF-8 string (ASCII in the raw files we generate).
    Text,
    /// Calendar date stored as days since 1970-01-01.
    Date,
    /// Boolean, serialized as `t`/`f` in CSV.
    Bool,
}

impl DataType {
    /// Parse a type name as used in schema declarations (`int`, `bigint`,
    /// `double`, `text`, `date`, `bool`). Case-insensitive, with a few
    /// common aliases.
    pub fn parse(name: &str) -> Result<DataType> {
        match name.to_ascii_lowercase().as_str() {
            "int" | "int32" | "integer" => Ok(DataType::Int32),
            "bigint" | "int64" | "long" => Ok(DataType::Int64),
            "double" | "float64" | "float" | "decimal" | "numeric" | "real" => {
                Ok(DataType::Float64)
            }
            "text" | "varchar" | "char" | "string" => Ok(DataType::Text),
            "date" => Ok(DataType::Date),
            "bool" | "boolean" => Ok(DataType::Bool),
            other => Err(NoDbError::catalog(format!("unknown data type `{other}`"))),
        }
    }

    /// Whether values of this type order and compare numerically.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int32 | DataType::Int64 | DataType::Float64)
    }

    /// The wider of two numeric types (`Int32` < `Int64` < `Float64`),
    /// which a value of either converts to; `self` when either is not
    /// numeric.
    pub fn widest(self, other: DataType) -> DataType {
        let rank = |t: DataType| match t {
            DataType::Int32 => 1,
            DataType::Int64 => 2,
            DataType::Float64 => 3,
            _ => 0,
        };
        if rank(self) > 0 && rank(other) > rank(self) {
            other
        } else {
            self
        }
    }

    /// Relative CPU cost of converting one ASCII field of this type to its
    /// binary form. The PostgresRaw cache prioritizes keeping values that
    /// are expensive to re-convert (§4.3: "numerical attributes are
    /// significantly more expensive to convert"). Strings need no
    /// conversion, merely a copy, hence the low figure.
    pub fn conversion_cost(self) -> u32 {
        match self {
            DataType::Float64 => 8,
            DataType::Int64 => 6,
            DataType::Date => 6,
            DataType::Int32 => 5,
            DataType::Bool => 2,
            DataType::Text => 1,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int32 => "int",
            DataType::Int64 => "bigint",
            DataType::Float64 => "double",
            DataType::Text => "text",
            DataType::Date => "date",
            DataType::Bool => "bool",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_aliases_case_insensitively() {
        assert_eq!(DataType::parse("INTEGER").unwrap(), DataType::Int32);
        assert_eq!(DataType::parse("BigInt").unwrap(), DataType::Int64);
        assert_eq!(DataType::parse("decimal").unwrap(), DataType::Float64);
        assert_eq!(DataType::parse("varchar").unwrap(), DataType::Text);
        assert_eq!(DataType::parse("DATE").unwrap(), DataType::Date);
        assert_eq!(DataType::parse("boolean").unwrap(), DataType::Bool);
    }

    #[test]
    fn parse_rejects_unknown_names() {
        assert!(DataType::parse("blob").is_err());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for dt in [
            DataType::Int32,
            DataType::Int64,
            DataType::Float64,
            DataType::Text,
            DataType::Date,
            DataType::Bool,
        ] {
            assert_eq!(DataType::parse(&dt.to_string()).unwrap(), dt);
        }
    }

    #[test]
    fn conversion_cost_ranks_numerics_above_text() {
        assert!(DataType::Float64.conversion_cost() > DataType::Text.conversion_cost());
        assert!(DataType::Int32.conversion_cost() > DataType::Text.conversion_cost());
    }

    #[test]
    fn numeric_classification() {
        assert_eq!(DataType::Int32.widest(DataType::Float64), DataType::Float64);
        assert_eq!(DataType::Int64.widest(DataType::Int32), DataType::Int64);
        assert_eq!(DataType::Text.widest(DataType::Int64), DataType::Text);
        assert_eq!(DataType::Int64.widest(DataType::Date), DataType::Int64);
        assert!(DataType::Int32.is_numeric());
        assert!(DataType::Float64.is_numeric());
        assert!(!DataType::Text.is_numeric());
        assert!(!DataType::Date.is_numeric());
    }
}
