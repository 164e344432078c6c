//! Slotted pages.
//!
//! Classic layout: a small header, a slot array growing forward, tuple
//! data growing backward from the page end. "Each page contains a
//! collection of tuples as well as additional metadata information to
//! help in-page navigation" (§3).
//!
//! A page image read back from disk is untrusted: every read through
//! [`n_slots_of`] and [`tuple_of`] is bounds-checked, and a header, slot
//! entry or tuple that reaches past the image is a typed error.

use nodb_common::{NoDbError, Result};

/// Page size in bytes (PostgreSQL's default).
pub const PAGE_SIZE: usize = 8192;

const HDR: usize = 4; // n_slots u16, free_start offset implied
const SLOT: usize = 4; // offset u16, len u16

/// A slotted page over an owned byte buffer.
#[derive(Clone)]
pub struct Page {
    data: Vec<u8>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// Fresh empty page.
    pub fn new() -> Page {
        let mut data = vec![0u8; PAGE_SIZE];
        // free_end starts at PAGE_SIZE.
        data[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Page { data }
    }

    /// Interpret existing bytes as a page.
    pub fn from_bytes(data: Vec<u8>) -> Page {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        Page { data }
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Consume into raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }

    /// Number of tuples stored.
    pub fn n_slots(&self) -> usize {
        u16_at(&self.data, 0).unwrap_or(0)
    }

    fn free_end(&self) -> usize {
        u16_at(&self.data, 2).unwrap_or(0)
    }

    /// Bytes available for one more tuple (including its slot entry).
    pub fn free_space(&self) -> usize {
        let slots_end = HDR + self.n_slots() * SLOT;
        self.free_end().saturating_sub(slots_end)
    }

    /// Largest tuple that can ever fit in an empty page.
    pub fn max_tuple_len() -> usize {
        PAGE_SIZE - HDR - SLOT
    }

    /// Insert a tuple; returns its slot index, or `None` if it does not
    /// fit.
    pub fn insert(&mut self, tuple: &[u8]) -> Option<usize> {
        if tuple.len() + SLOT > self.free_space() || tuple.len() > u16::MAX as usize {
            return None;
        }
        let n = self.n_slots();
        let end = self.free_end();
        let start = end - tuple.len();
        self.data[start..end].copy_from_slice(tuple);
        let slot_off = HDR + n * SLOT;
        self.data[slot_off..slot_off + 2].copy_from_slice(&(start as u16).to_le_bytes());
        self.data[slot_off + 2..slot_off + 4].copy_from_slice(&(tuple.len() as u16).to_le_bytes());
        self.data[0..2].copy_from_slice(&((n + 1) as u16).to_le_bytes());
        self.data[2..4].copy_from_slice(&(start as u16).to_le_bytes());
        Some(n)
    }

    /// Tuple bytes at `slot`.
    pub fn tuple(&self, slot: usize) -> Result<&[u8]> {
        tuple_of(&self.data, slot)
    }
}

/// The little-endian `u16` at byte `at` of `page`, if the page holds it.
fn u16_at(page: &[u8], at: usize) -> Option<usize> {
    let bytes = page.get(at..at.checked_add(2)?)?;
    bytes
        .try_into()
        .ok()
        .map(|b| usize::from(u16::from_le_bytes(b)))
}

/// Number of tuples in a raw page image (zero-copy view used by scans —
/// a page is pinned once and never copied per tuple). A page too short
/// for its header or its slot array is an error.
pub fn n_slots_of(page: &[u8]) -> Result<usize> {
    let truncated = || NoDbError::internal("truncated heap page");
    let n = u16_at(page, 0).ok_or_else(truncated)?;
    if HDR + n * SLOT > page.len() {
        return Err(truncated());
    }
    Ok(n)
}

/// Tuple bytes at `slot` of a raw page image. A slot entry or tuple that
/// reaches past the page is an error.
pub fn tuple_of(page: &[u8], slot: usize) -> Result<&[u8]> {
    let truncated = || NoDbError::internal(format!("truncated heap slot {slot}"));
    let slot_off = slot.checked_mul(SLOT).and_then(|o| o.checked_add(HDR));
    let entry = |at: usize| slot_off.and_then(|o| u16_at(page, o.checked_add(at)?));
    let (start, len) = (
        entry(0).ok_or_else(truncated)?,
        entry(2).ok_or_else(truncated)?,
    );
    page.get(start..start + len).ok_or_else(truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_and_read_back() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!!").unwrap();
        assert_eq!(p.n_slots(), 2);
        assert_eq!(p.tuple(a).unwrap(), b"hello");
        assert_eq!(p.tuple(b).unwrap(), b"world!!");
    }

    #[test]
    fn rejects_when_full() {
        let mut p = Page::new();
        let big = vec![7u8; 4000];
        assert!(p.insert(&big).is_some());
        assert!(p.insert(&big).is_some());
        assert!(p.insert(&big).is_none()); // 3rd does not fit
        assert_eq!(p.n_slots(), 2);
    }

    #[test]
    fn max_tuple_fits_exactly() {
        let mut p = Page::new();
        let t = vec![1u8; Page::max_tuple_len()];
        assert!(p.insert(&t).is_some());
        assert_eq!(p.free_space(), 0);
        assert!(p.insert(b"x").is_none());
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = Page::new();
        p.insert(b"abc").unwrap();
        let q = Page::from_bytes(p.bytes().to_vec());
        assert_eq!(q.n_slots(), 1);
        assert_eq!(q.tuple(0).unwrap(), b"abc");
    }

    #[test]
    fn empty_page_is_an_error() {
        let err = n_slots_of(&[]).unwrap_err();
        assert!(err.to_string().contains("truncated heap page"), "{err}");
        assert!(n_slots_of(&[0]).is_err());
        assert!(tuple_of(&[], 0).is_err());
        // A slot count whose slot array reaches past the page.
        assert!(n_slots_of(&[3, 0, 0, 0, 0, 0]).is_err());
        assert_eq!(n_slots_of(Page::new().bytes()).unwrap(), 0);
    }

    #[test]
    fn slot_past_the_page_is_an_error() {
        let mut p = Page::new();
        p.insert(b"abc").unwrap();
        let mut bytes = p.into_bytes();
        // Slot 0's length, 0xffff: its tuple would reach past the page.
        bytes[HDR + 2..HDR + 4].copy_from_slice(&0xffffu16.to_le_bytes());
        let err = tuple_of(&bytes, 0).unwrap_err();
        assert!(err.to_string().contains("truncated heap slot 0"), "{err}");
        // A slot entry that is not on the page at all.
        assert!(tuple_of(&bytes, PAGE_SIZE).is_err());
        assert!(tuple_of(&bytes, usize::MAX).is_err());
    }

    proptest! {
        #[test]
        fn random_tuples_roundtrip(
            tuples in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..300), 0..40)
        ) {
            let mut p = Page::new();
            let mut stored = Vec::new();
            for t in &tuples {
                if let Some(slot) = p.insert(t) {
                    stored.push((slot, t.clone()));
                }
            }
            for (slot, t) in stored {
                prop_assert_eq!(p.tuple(slot).unwrap(), &t[..]);
            }
        }
    }
}
