//! The **adaptive positional map** (NoDB paper, §4.2).
//!
//! The positional map is the paper's central innovation: an incrementally
//! built index of *where attributes live inside a raw file*, so that later
//! queries can jump (close) to the values they need instead of re-tokenizing
//! every tuple from the start of its line.
//!
//! Faithful properties implemented here:
//!
//! * **Populated as a side effect** of tokenization — the scan feeds
//!   positions it had to compute anyway into one [`BlockCollector`] per
//!   block it forms from the block's start, cold or map-covered, and the
//!   end-of-line index grows by the segment each cold pass read
//!   ([`EolIndex::absorb_segment`]).
//! * **Chunked storage, partitioned vertically and horizontally** — a
//!   [`chunk::Chunk`] covers one *block* of consecutive tuples × one set of
//!   attributes; attributes queried together live in the same chunk
//!   ("keeping in the same chunk attributes accessed together").
//! * **Relative positions** — offsets are stored relative to the tuple's
//!   line start, in 16-bit form when lines are short enough (the paper's
//!   storage-reduction point).
//! * **Attribute-order directory** — [`PositionalMap::fetch_block`]
//!   resolves, per attribute, either an exact position array or the
//!   *nearest indexed attribute* to anchor incremental forward/backward
//!   tokenization.
//! * **Pre-fetching into a temporary map** — [`BlockView`] is exactly the
//!   paper's per-query temporary map: all positional information a query
//!   needs for a batch, precomputed, then dropped.
//! * **Storage threshold + LRU** — [`PosMapConfig::budget`]; evicted
//!   chunks can be **spilled to disk** and transparently reloaded.
//! * **Droppable** — the map is auxiliary state; [`PositionalMap::clear`]
//!   loses no critical information.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod eol;
pub mod map;

pub use chunk::{BlockCollector, Chunk, OffsetStore};
pub use eol::EolIndex;
pub use map::{AttrPositions, BlockView, MapStats, PosMapConfig, PositionalMap};
