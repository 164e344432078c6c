//! Binary tuple codec.
//!
//! Loaded engines store rows as: `header padding` (emulating the host's
//! per-tuple bookkeeping — PostgreSQL's HeapTupleHeader is 23+ bytes,
//! which is a real source of its larger tables), a null bitmap, then the
//! values (fixed-width numerics, length-prefixed text).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use nodb_common::{Column, DataType, Date, NoDbError, Result, Row, Schema, Value};

/// Encode a row. `header_bytes` zeros are prepended (profile-dependent).
pub fn encode(row: &Row, schema: &Schema, header_bytes: usize, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    out.resize(header_bytes, 0);
    let n = schema.len();
    let bitmap_at = out.len();
    out.resize(bitmap_at + n.div_ceil(8), 0);
    for (i, (v, f)) in row.values().iter().zip(schema.fields()).enumerate() {
        if v.is_null() {
            if let Some(byte) = out.get_mut(bitmap_at + i / 8) {
                *byte |= 1 << (i % 8);
            }
            continue;
        }
        match (f.dtype, v) {
            (DataType::Int32, Value::Int32(x)) => out.extend_from_slice(&x.to_le_bytes()),
            (DataType::Int64, Value::Int64(x)) => out.extend_from_slice(&x.to_le_bytes()),
            (DataType::Float64, Value::Float64(x)) => out.extend_from_slice(&x.to_le_bytes()),
            (DataType::Date, Value::Date(d)) => out.extend_from_slice(&d.0.to_le_bytes()),
            (DataType::Bool, Value::Bool(b)) => out.push(*b as u8),
            (DataType::Text, Value::Text(s)) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            (dt, v) => {
                return Err(NoDbError::internal(format!(
                    "value {v} does not match column type {dt}"
                )))
            }
        }
    }
    Ok(())
}

/// Decode the `projection` columns (ascending table ordinals) of an
/// encoded tuple, appending one value to each of `out` (one column per
/// projected attribute, in order). Fields past the last projected one
/// are not read. A tuple cut short before then is a typed error, never a
/// panic.
pub fn decode_projected(
    bytes: &[u8],
    schema: &Schema,
    header_bytes: usize,
    projection: &[usize],
    out: &mut [Column],
) -> Result<()> {
    let n = schema.len();
    let bitmap = field(bytes, header_bytes, n.div_ceil(8))?;
    let mut pos = header_bytes + bitmap.len();
    let mut want = projection.iter().zip(out.iter_mut()).peekable();
    for (i, f) in schema.fields().iter().enumerate() {
        if want.peek().is_none() {
            return Ok(());
        }
        let wanted = want.next_if(|(&p, _)| p == i).map(|(_, c)| c);
        if bitmap.get(i / 8).is_some_and(|b| b & (1 << (i % 8)) != 0) {
            if let Some(c) = wanted {
                c.push_null();
            }
            continue;
        }
        // Text carries a 4-byte length prefix before its bytes.
        let (prefix, len) = match f.dtype {
            DataType::Int32 | DataType::Date => (0, 4),
            DataType::Int64 | DataType::Float64 => (0, 8),
            DataType::Bool => (0, 1),
            DataType::Text => (
                4,
                u32::from_le_bytes(array(field(bytes, pos, 4)?)?) as usize,
            ),
        };
        let v = field(bytes, pos + prefix, len)?;
        pos += prefix + len;
        let Some(c) = wanted else { continue };
        c.push_value(&match f.dtype {
            DataType::Int32 => Value::Int32(i32::from_le_bytes(array(v)?)),
            DataType::Date => Value::Date(Date(i32::from_le_bytes(array(v)?))),
            DataType::Int64 => Value::Int64(i64::from_le_bytes(array(v)?)),
            DataType::Float64 => Value::Float64(f64::from_le_bytes(array(v)?)),
            DataType::Bool => Value::Bool(v.iter().any(|&b| b != 0)),
            DataType::Text => Value::Text(String::from_utf8_lossy(v).into_owned()),
        })?;
    }
    match want.peek() {
        Some(_) => Err(NoDbError::internal("projection index beyond schema")),
        None => Ok(()),
    }
}

/// The `len` bytes of `bytes` at `pos`, or the typed error for a
/// truncated tuple.
fn field(bytes: &[u8], pos: usize, len: usize) -> Result<&[u8]> {
    pos.checked_add(len)
        .and_then(|end| bytes.get(pos..end))
        .ok_or_else(|| NoDbError::internal("truncated tuple"))
}

/// A fixed-width value's bytes as an array.
fn array<const N: usize>(v: &[u8]) -> Result<[u8; N]> {
    v.try_into()
        .map_err(|_| NoDbError::internal("truncated tuple"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::parse("a int, b text, c double, d date, e bool, f bigint").unwrap()
    }

    /// The `projection` columns of one encoded tuple, as a row.
    fn decode(bytes: &[u8], s: &Schema, header: usize, projection: &[usize]) -> Result<Row> {
        let mut cols: Vec<Column> = projection
            .iter()
            .map(|&i| Column::new(s.field(i).dtype))
            .collect();
        decode_projected(bytes, s, header, projection, &mut cols)?;
        Ok(Row(cols.iter().map(|c| c.value(0)).collect()))
    }

    fn sample() -> Row {
        Row(vec![
            Value::Int32(-42),
            Value::Text("hello world".into()),
            Value::Float64(2.75),
            Value::Date(Date(9000)),
            Value::Bool(true),
            Value::Int64(1 << 40),
        ])
    }

    #[test]
    fn full_roundtrip() {
        let s = schema();
        let mut buf = Vec::new();
        encode(&sample(), &s, 24, &mut buf).unwrap();
        let row = decode(&buf, &s, 24, &[0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(row, sample());
    }

    #[test]
    fn projected_decode_skips_unneeded() {
        let s = schema();
        let mut buf = Vec::new();
        encode(&sample(), &s, 8, &mut buf).unwrap();
        let row = decode(&buf, &s, 8, &[1, 4]).unwrap();
        assert_eq!(
            row,
            Row(vec![Value::Text("hello world".into()), Value::Bool(true)])
        );
        let row = decode(&buf, &s, 8, &[]).unwrap();
        assert!(row.is_empty());
    }

    #[test]
    fn nulls_roundtrip() {
        let s = schema();
        let r = Row(vec![
            Value::Null,
            Value::Null,
            Value::Float64(1.0),
            Value::Null,
            Value::Null,
            Value::Null,
        ]);
        let mut buf = Vec::new();
        encode(&r, &s, 24, &mut buf).unwrap();
        let row = decode(&buf, &s, 24, &[0, 2, 5]).unwrap();
        assert_eq!(
            row,
            Row(vec![Value::Null, Value::Float64(1.0), Value::Null])
        );
    }

    #[test]
    fn header_bytes_affect_size_only() {
        let s = schema();
        let mut small = Vec::new();
        let mut big = Vec::new();
        encode(&sample(), &s, 8, &mut small).unwrap();
        encode(&sample(), &s, 24, &mut big).unwrap();
        assert_eq!(big.len() - small.len(), 16);
        assert_eq!(
            decode(&small, &s, 8, &[0]).unwrap(),
            decode(&big, &s, 24, &[0]).unwrap()
        );
    }

    /// A slot cut short anywhere — in the header, the null bitmap, a
    /// text length or a value — is a typed error, never a panic.
    #[test]
    fn every_truncated_prefix_is_an_error() {
        let s = schema();
        let mut buf = Vec::new();
        encode(&sample(), &s, 16, &mut buf).unwrap();
        let all: Vec<usize> = (0..s.len()).collect();
        assert!(decode(&buf, &s, 16, &all).is_ok());
        for cut in 0..buf.len() {
            let err = decode(&buf[..cut], &s, 16, &all).unwrap_err();
            assert!(err.to_string().contains("truncated tuple"), "{cut}: {err}");
        }
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let s = Schema::parse("a int").unwrap();
        let mut buf = Vec::new();
        assert!(encode(&Row(vec![Value::Text("x".into())]), &s, 0, &mut buf).is_err());
    }

    proptest! {
        #[test]
        fn random_rows_roundtrip(
            a in any::<i32>(),
            b in "[a-zA-Z0-9 ]{0,40}",
            c in any::<i32>().prop_map(|x| x as f64 / 7.0),
            d in -100_000i32..100_000,
            e in any::<bool>(),
            f in any::<i64>(),
            null_mask in 0u8..64,
        ) {
            let s = schema();
            let mut vals = vec![
                Value::Int32(a),
                Value::Text(b),
                Value::Float64(c),
                Value::Date(Date(d)),
                Value::Bool(e),
                Value::Int64(f),
            ];
            for (i, v) in vals.iter_mut().enumerate() {
                if null_mask & (1 << i) != 0 {
                    *v = Value::Null;
                }
            }
            let row = Row(vals);
            let mut buf = Vec::new();
            encode(&row, &s, 16, &mut buf).unwrap();
            let back = decode(&buf, &s, 16, &[0, 1, 2, 3, 4, 5]).unwrap();
            prop_assert_eq!(back, row);
        }
    }
}
