//! Seeded stale exception: an `#[expect]` whose lint no longer fires is
//! `unfulfilled_lint_expectations` — one finding. The live `#[expect]`
//! on a real index stays quiet.
#![deny(clippy::indexing_slicing)]

#[expect(clippy::indexing_slicing, reason = "the caller checked the length")]
pub fn live(buf: &[u8]) -> u8 {
    buf[0]
}

#[expect(clippy::indexing_slicing, reason = "no longer indexes")]
pub fn stale(buf: &[u8]) -> Option<u8> {
    buf.first().copied()
}
