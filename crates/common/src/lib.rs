//! Shared kernel for the NoDB / PostgresRaw reproduction.
//!
//! This crate holds the vocabulary types every other crate speaks:
//! [`DataType`], [`Value`], [`Column`], [`Schema`], [`Date`], [`Row`], and the common
//! [`NoDbError`] / [`Result`] pair. It also provides small utilities that
//! would otherwise pull in external dependencies: a self-cleaning temporary
//! directory ([`TempDir`]) and human-readable byte sizes ([`ByteSize`]).
//!
//! Nothing here is specific to in-situ processing; it is the substrate the
//! paper assumes from its host DBMS (PostgreSQL's type system and tuple
//! vocabulary).
//!
//! `unsafe` is denied crate-wide with one audited exception: the raw
//! `mmap`/`munmap`/`madvise` bindings inside [`io`] (the build
//! environment has no crates.io access, so `libc`/`memmap2` cannot be
//! used). No engine path maps a file; the mapping serves only
//! [`ByteSource::mapped`] callers outside the engine.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bytesize;
pub mod column;
pub mod date;
pub mod error;
pub mod format;
pub mod io;
pub mod knob;
pub mod like;
pub mod row;
pub mod schema;
pub mod swar;
pub mod tempdir;
pub mod types;
pub mod value;
pub mod workload;

pub use bytesize::ByteSize;
pub use column::Column;
pub use date::Date;
pub use error::{NoDbError, Result};
pub use format::{LineFormat, NO_POSITION};
pub use io::{ByteSource, IoBackend};
pub use row::Row;
pub use schema::{Field, Schema};
pub use tempdir::TempDir;
pub use types::DataType;
pub use value::Value;
pub use workload::WorkloadLog;
