//! CSV substrate for the NoDB reproduction.
//!
//! PostgresRaw's evaluation is built around character-delimited raw files
//! (§4: "CSV files are challenging for an in situ engine and a very common
//! data source"). This crate provides the low-level machinery the in-situ
//! scan operator is built on:
//!
//! * [`tokenize`] — field tokenization over raw bytes, including the
//!   paper's *selective tokenizing* (stop at the last attribute a query
//!   needs) and *incremental parsing* in both directions from a known
//!   position (§4.2, "Exploiting the Positional Map").
//! * [`lines`] — sequential line reading, lending each line out of one
//!   buffer, and runs of lines read by known position.
//! * [`writer`] — a buffered CSV writer (used by loaders, tests and
//!   generators).
//! * [`generate`] — the micro-benchmark file generator (150 random-integer
//!   attributes, configurable width) used by Figures 3–8 and 13.
//!
//! Fields are taken verbatim between delimiters: no quoting or escaping is
//! interpreted, matching the flat scientific/log files the paper targets
//! (and dbgen's `.tbl` output). Generators guarantee the delimiter never
//! appears inside a field.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod generate;
pub mod lines;
pub mod tokenize;
pub mod writer;

pub use format::CsvFormat;
pub use generate::MicroGen;
pub use lines::LineReader;
pub use writer::CsvWriter;

/// Options describing the physical layout of a character-delimited file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvOptions {
    /// Field delimiter (`,` for CSV, `|` for dbgen-style `.tbl`).
    pub delimiter: u8,
    /// Whether the first line is a header to skip.
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b',',
            has_header: false,
        }
    }
}

impl CsvOptions {
    /// dbgen-style options: pipe-delimited, no header.
    pub fn pipe() -> CsvOptions {
        CsvOptions {
            delimiter: b'|',
            has_header: false,
        }
    }
}
