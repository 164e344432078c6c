//! Seeded violations for the panic-path lints a hot module denies: a
//! computed index, `panic!`, `unwrap` and `expect` — one finding each.
//! The `#[cfg(test)]` module stays exempt through `crates/clippy.toml`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub fn four_panics(buf: &[u8], at: usize, opt: Option<u32>) -> u32 {
    let first = buf[at];
    if first == 0 {
        panic!("zero");
    }
    let a = opt.unwrap();
    let b = std::str::from_utf8(buf).expect("utf8");
    a + b.len() as u32
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v: Vec<u8> = "1".bytes().collect();
        assert_eq!(v[0], b'1');
        assert_eq!(v.first().copied().unwrap(), b'1');
    }
}
