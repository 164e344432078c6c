//! The **adaptive binary cache** (NoDB paper, §4.3).
//!
//! Complementary to the positional map: instead of making raw-file access
//! fast, the cache *avoids* it by holding previously converted binary
//! values. Faithful properties:
//!
//! * **Populated on the fly, never forcing extra parsing** — only values a
//!   query converted anyway are inserted. Because *selective parsing*
//!   converts SELECT-list attributes only for qualifying tuples, cached
//!   columns can be *partial*; a presence bitmap records exactly which
//!   rows are valid ([`CachedColumn`]). A scan writes each value it
//!   converts once, into the typed [`ColumnBuilder`] of its (block ×
//!   attribute), and inserts the built columns when it publishes the
//!   block; a block formed from mid-way (an appended tail) leaves the
//!   rows before it as holes, which [`CachedColumn::absorb`] fills.
//! * **Same chunked shape as the positional map** — cache entries cover
//!   one block of tuples × one attribute, "following the format of the
//!   positional map such that it is easy to integrate it in the …
//!   query flow".
//! * **Conversion-cost priority** — "the PostgresRaw cache always
//!   gives priority to attributes more costly to convert" (ASCII→numeric
//!   conversion dominates; strings are cheap to re-materialize). Eviction
//!   minimizes `workload_heat × conversion_cost`, recency breaking ties.
//! * **Byte budget** — "the size of the cache is a parameter", driving the
//!   Figure 6 cache-utilization experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod store;

pub use column::{CachedColumn, ColumnBuilder};
pub use store::{CacheConfig, CacheStats, RawCache};
