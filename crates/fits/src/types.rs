//! FITS binary-table column types (TFORM codes).

use nodb_common::{DataType, NoDbError, Result, Value};

/// Supported BINTABLE column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitsType {
    /// `J` — 32-bit big-endian integer.
    J,
    /// `K` — 64-bit big-endian integer.
    K,
    /// `E` — 32-bit big-endian IEEE float.
    E,
    /// `D` — 64-bit big-endian IEEE float.
    D,
    /// `nA` — fixed-width ASCII, space-padded.
    A(usize),
}

impl FitsType {
    /// Bytes per value.
    pub fn width(self) -> usize {
        match self {
            FitsType::J | FitsType::E => 4,
            FitsType::K | FitsType::D => 8,
            FitsType::A(n) => n,
        }
    }

    /// TFORM card value.
    pub fn tform(self) -> String {
        match self {
            FitsType::J => "1J".to_string(),
            FitsType::K => "1K".to_string(),
            FitsType::E => "1E".to_string(),
            FitsType::D => "1D".to_string(),
            FitsType::A(n) => format!("{n}A"),
        }
    }

    /// Parse a TFORM value (repeat count must be 1 for numerics).
    pub fn parse_tform(s: &str) -> Result<FitsType> {
        let s = s.trim().trim_matches('\'').trim();
        let split = s
            .find(|c: char| c.is_ascii_alphabetic())
            .ok_or_else(|| NoDbError::parse(format!("bad TFORM `{s}`")))?;
        let (count, code) = s.split_at(split);
        let count: usize = if count.is_empty() {
            1
        } else {
            count
                .parse()
                .map_err(|_| NoDbError::parse(format!("bad TFORM count `{s}`")))?
        };
        match code {
            "J" if count == 1 => Ok(FitsType::J),
            "K" if count == 1 => Ok(FitsType::K),
            "E" if count == 1 => Ok(FitsType::E),
            "D" if count == 1 => Ok(FitsType::D),
            "A" => Ok(FitsType::A(count)),
            _ => Err(NoDbError::parse(format!("unsupported TFORM `{s}`"))),
        }
    }

    /// Decode one big-endian value of this type from the start of
    /// `bytes`; text is read lossily, without its trailing spaces.
    pub fn decode(self, bytes: &[u8]) -> Result<Value> {
        let b = (bytes.get(..self.width())).ok_or_else(|| NoDbError::parse("short row"))?;
        Ok(match self {
            FitsType::J => Value::Int32(i32::from_be_bytes(array(b)?)),
            FitsType::K => Value::Int64(i64::from_be_bytes(array(b)?)),
            FitsType::E => Value::Float64(f32::from_be_bytes(array(b)?) as f64),
            FitsType::D => Value::Float64(f64::from_be_bytes(array(b)?)),
            FitsType::A(_) => Value::Text(String::from_utf8_lossy(b).trim_end().to_string()),
        })
    }

    /// The engine-side logical type (`E` widens to `Float64`).
    pub fn data_type(self) -> DataType {
        match self {
            FitsType::J => DataType::Int32,
            FitsType::K => DataType::Int64,
            FitsType::E | FitsType::D => DataType::Float64,
            FitsType::A(_) => DataType::Text,
        }
    }
}

/// `b`, a value's bytes, as the array its type decodes.
fn array<const N: usize>(b: &[u8]) -> Result<[u8; N]> {
    b.try_into()
        .map_err(|_| NoDbError::internal("FITS value of the wrong width"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tform_roundtrip() {
        for t in [
            FitsType::J,
            FitsType::K,
            FitsType::E,
            FitsType::D,
            FitsType::A(12),
        ] {
            assert_eq!(FitsType::parse_tform(&t.tform()).unwrap(), t);
        }
        assert_eq!(FitsType::parse_tform("'16A '").unwrap(), FitsType::A(16));
        assert_eq!(FitsType::parse_tform("D").unwrap(), FitsType::D);
        assert!(FitsType::parse_tform("3J").is_err());
        assert!(FitsType::parse_tform("X").is_err());
    }

    #[test]
    fn widths() {
        assert_eq!(FitsType::J.width(), 4);
        assert_eq!(FitsType::D.width(), 8);
        assert_eq!(FitsType::A(7).width(), 7);
    }
}
