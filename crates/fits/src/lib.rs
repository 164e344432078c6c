//! FITS binary-table substrate (paper §5.3, Figure 11).
//!
//! FITS (Flexible Image Transport System) is the standard archival format
//! in astronomy; the paper demonstrates that the NoDB philosophy applies
//! beyond CSV by querying FITS **binary tables** directly and comparing
//! against a procedural program written with NASA's CFITSIO library.
//!
//! This crate implements the relevant subset of the real format:
//! 2880-byte blocks, 80-character ASCII header cards, an empty primary
//! HDU, and one `BINTABLE` extension with big-endian fixed-width rows
//! (`TFORM` codes `J`, `K`, `E`, `D`, `nA`).
//!
//! * [`writer::FitsTableWriter`] / [`reader::FitsTable`] — produce and
//!   read files.
//! * [`format::FitsFormat`] — the table's rows as a
//!   [`nodb_common::LineFormat`], which `nodb_core::NoDb::register_fits`
//!   hands to the engine's one in-situ scan. Binary rows sit at known
//!   offsets, so no positional map is kept ("each tuple and attribute is
//!   usually located in a well-known location"); instead **caching**
//!   carries the adaptation, exactly as §5.3 observes.
//! * [`procedural`] — the CFITSIO stand-in: a direct, loop-based API that
//!   re-scans the file for every aggregate (what an astronomer's custom C
//!   program does).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod procedural;
pub mod reader;
pub mod types;
pub mod writer;

pub use format::FitsFormat;
pub use procedural::ProceduralFits;
pub use reader::FitsTable;
pub use types::FitsType;
pub use writer::FitsTableWriter;

/// FITS block size (bytes).
pub const BLOCK: usize = 2880;
/// Header card size (bytes).
pub const CARD: usize = 80;
