//! Seeded violations for the unsafe rules: a site with no `// SAFETY:`
//! comment (clippy's `undocumented_unsafe_blocks`) and no entry in the
//! (absent) audit file (`nodb-analyze`'s unsafe arm).

pub fn first_byte(buf: &[u8]) -> u8 {
    unsafe { *buf.get_unchecked(0) }
}
