//! Seeded violation for a cast module: an unexplained narrowing `as`
//! cast — one finding. The widening cast and the `#[expect]`ed one stay
//! quiet.
#![deny(clippy::cast_possible_truncation)]

pub fn narrow(x: usize) -> u16 {
    x as u16
}

pub fn widen(x: u16) -> u64 {
    x as u64
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "x is a block-local offset < 2^16 by construction"
)]
pub fn explained(x: usize) -> u16 {
    x as u16
}
