//! Row (tuple) representation exchanged by operators.

use std::fmt;

use crate::value::Value;

/// A tuple of values.
///
/// After *selective tuple formation* (§4.1) a row carries only the
/// attributes a query needs, so positional access is always relative to the
/// operator's output schema, not the raw file layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row(Vec::new())
    }

    /// A row with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Row {
        Row(Vec::with_capacity(n))
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the row carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Value at ordinal `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Append a value.
    pub fn push(&mut self, v: Value) {
        self.0.push(v);
    }

    /// Approximate heap footprint, for memory accounting.
    pub fn heap_size(&self) -> usize {
        self.0.iter().map(Value::heap_size).sum()
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Row {
        Row(v)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_pipe_separated() {
        let r = Row(vec![Value::Int32(1), Value::Text("a".into())]);
        assert_eq!(r.to_string(), "1 | a");
    }
}
