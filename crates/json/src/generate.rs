//! JSONL micro-benchmark data generator.
//!
//! The JSON Lines twin of `nodb_csv::MicroGen`: identical RNG stream,
//! identical logical values, different physical layout (`{"c0": ..}`
//! objects instead of comma-separated fields). Generating both formats
//! from the same seed gives the differential tests two files with
//! byte-different encodings of the *same* table.

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nodb_common::{DataType, Field, Result, Row, Schema, Value};

use crate::writer::{JsonlOptions, JsonlWriter};

/// Specification of a synthetic JSONL micro-benchmark table.
#[derive(Debug, Clone)]
pub struct JsonlGen {
    /// Number of records.
    pub rows: usize,
    /// Number of attributes per record.
    pub cols: usize,
    /// RNG seed; identical specs produce identical files, and a spec
    /// equal to a `nodb_csv::MicroGen` produces the same logical rows.
    pub seed: u64,
    /// Exclusive upper bound for generated integers.
    pub max_value: u32,
}

impl Default for JsonlGen {
    fn default() -> Self {
        JsonlGen {
            rows: 10_000,
            cols: 150,
            seed: 0x6e6f_6462, // "nodb" — same default stream as MicroGen
            max_value: 1_000_000_000,
        }
    }
}

impl JsonlGen {
    /// Builder-style row count.
    pub fn rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Builder-style column count.
    pub fn cols(mut self, cols: usize) -> Self {
        self.cols = cols;
        self
    }

    /// Builder-style seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The schema of the generated file: `c0, c1, ... c{cols-1}`, all
    /// `int` (the keys of every object).
    pub fn schema(&self) -> Schema {
        Schema::new(
            (0..self.cols)
                .map(|i| Field::new(format!("c{i}"), DataType::Int32))
                .collect(),
        )
        .expect("generated names are unique")
    }

    /// Write the file to `path`, returning the number of bytes written.
    pub fn write_to(&self, path: &Path) -> Result<u64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut w = JsonlWriter::create(path, &self.schema(), JsonlOptions::default())?;
        self.write_rows(&mut rng, &mut w, self.rows)?;
        w.finish()?;
        Ok(std::fs::metadata(path)?.len())
    }

    /// Append `extra_rows` more records (continuing from the same derived
    /// seed as `MicroGen::append_to`, for the append-update scenario).
    pub fn append_to(&self, path: &Path, extra_rows: usize) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x9e37_79b9));
        let mut w = JsonlWriter::append(path, &self.schema(), JsonlOptions::default())?;
        self.write_rows(&mut rng, &mut w, extra_rows)?;
        w.finish()?;
        Ok(())
    }

    fn write_rows(&self, rng: &mut StdRng, w: &mut JsonlWriter, rows: usize) -> Result<()> {
        let mut row = Row(vec![Value::Null; self.cols]);
        for _ in 0..rows {
            for v in row.0.iter_mut() {
                *v = Value::Int32(rng.gen_range(0..self.max_value) as i32);
            }
            w.write_row(&row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::TempDir;
    use nodb_csv::MicroGen;

    #[test]
    fn generates_requested_shape() {
        let td = TempDir::new("nodb-json-gen").unwrap();
        let p = td.file("micro.jsonl");
        JsonlGen::default()
            .rows(20)
            .cols(5)
            .seed(1)
            .write_to(&p)
            .unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 20);
        for l in lines {
            assert!(l.starts_with("{\"c0\":"));
            assert!(l.ends_with('}'));
            assert_eq!(l.matches(':').count(), 5);
        }
    }

    #[test]
    fn mirrors_microgen_values() {
        // Same seed/shape ⇒ the JSONL file encodes exactly the rows of
        // the CSV micro generator.
        let td = TempDir::new("nodb-json-gen").unwrap();
        let jp = td.file("m.jsonl");
        let cp = td.file("m.csv");
        JsonlGen::default()
            .rows(6)
            .cols(4)
            .seed(77)
            .write_to(&jp)
            .unwrap();
        MicroGen::default()
            .rows(6)
            .cols(4)
            .seed(77)
            .write_to(&cp)
            .unwrap();
        let json = std::fs::read_to_string(&jp).unwrap();
        let csv = std::fs::read_to_string(&cp).unwrap();
        for (jl, cl) in json.lines().zip(csv.lines()) {
            let from_csv: Vec<&str> = cl.split(',').collect();
            let mut from_json = Vec::new();
            for (i, part) in jl
                .trim_start_matches('{')
                .trim_end_matches('}')
                .split(',')
                .enumerate()
            {
                let (k, v) = part.split_once(':').unwrap();
                assert_eq!(k, format!("\"c{i}\""));
                from_json.push(v);
            }
            assert_eq!(from_json, from_csv);
        }
    }

    #[test]
    fn append_continues_like_microgen() {
        let td = TempDir::new("nodb-json-gen").unwrap();
        let p = td.file("m.jsonl");
        let spec = JsonlGen::default().rows(4).cols(2);
        spec.write_to(&p).unwrap();
        spec.append_to(&p, 3).unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap().lines().count(), 7);
    }
}
