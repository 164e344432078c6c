//! JSON Lines substrate for the NoDB reproduction.
//!
//! NoDB's thesis is that the engine should query raw files *where they
//! live* — and raw files are not only CSV. This crate teaches the engine
//! JSON Lines (one JSON object per line, a.k.a. NDJSON), the second
//! format behind the format-generic scan core:
//!
//! * [`tokenize`] — the keyed-record tokenizer implementing
//!   [`nodb_common::LineFormat`]: locate schema-declared top-level keys'
//!   value tokens (in any order, tolerating missing keys), convert them
//!   with the shared coercion rules, and navigate via the positional map.
//! * [`writer`] — a buffered JSONL writer (escaping inverse of the
//!   tokenizer), used by tests and generators.
//! * [`generate`] — the JSONL twin of `nodb_csv::MicroGen`, producing the
//!   same logical rows from the same seed in JSONL layout.
//!
//! Because records are still lines, everything the engine learned for CSV
//! applies unchanged: the sequential line reader and end-of-line index,
//! positional-map chunks of value offsets, the binary cache and on-the-fly
//! statistics. See `NoDb::register_jsonl` in
//! `nodb-core` for the engine-level entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod tokenize;
pub mod writer;

pub use generate::JsonlGen;
pub use tokenize::JsonFormat;
pub use writer::{JsonlOptions, JsonlWriter};
