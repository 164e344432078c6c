//! Positional-map chunks: one block of tuples × one set of attributes.
//!
//! A chunk is the unit of storage and eviction. Offsets are
//! relative to the tuple's line start ("holding relative positions reduces
//! storage requirements per position", §4.2) and are narrowed to 16 bits
//! when every line in the block is short enough.
#![deny(clippy::cast_possible_truncation)]

/// Relative attribute offsets, row-major (`rows × attrs.len()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OffsetStore {
    /// 16-bit offsets (lines shorter than 64 KiB).
    U16(Vec<u16>),
    /// 32-bit offsets.
    U32(Vec<u32>),
}

impl OffsetStore {
    /// Number of stored offsets.
    pub fn len(&self) -> usize {
        match self {
            OffsetStore::U16(v) => v.len(),
            OffsetStore::U32(v) => v.len(),
        }
    }

    /// True when no offsets are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offset at flat index `i`.
    pub fn get(&self, i: usize) -> u32 {
        match self {
            OffsetStore::U16(v) => u32::from(v[i]),
            OffsetStore::U32(v) => v[i],
        }
    }

    /// Bytes of storage used.
    pub fn bytes(&self) -> usize {
        match self {
            OffsetStore::U16(v) => v.len() * 2,
            OffsetStore::U32(v) => v.len() * 4,
        }
    }

    /// Store `offsets`, narrowed to 16 bits when every one fits.
    fn pack(offsets: &[u32]) -> OffsetStore {
        // One pass narrows and ORs: no offset has a bit above the low 16
        // exactly when the OR has none, and only then is the narrowed
        // copy kept.
        let mut high_bits = 0u32;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the narrowed copy is discarded below unless lossless"
        )]
        let narrowed: Vec<u16> = offsets
            .iter()
            .map(|&o| {
                high_bits |= o;
                o as u16
            })
            .collect();
        if high_bits <= u32::from(u16::MAX) {
            OffsetStore::U16(narrowed)
        } else {
            OffsetStore::U32(offsets.to_vec())
        }
    }
}

/// A materialized chunk of the positional map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Block ordinal: covers rows `[block * block_rows, …)`.
    pub block: u64,
    /// Number of tuples covered (≤ block_rows; the last block is short).
    pub rows: u32,
    /// Attribute ordinals covered, in storage order. Not necessarily the
    /// file order — "attributes do not necessarily appear in the map in
    /// the same order as in the raw file" (§4.2).
    pub attrs: Vec<u32>,
    /// `rows × attrs.len()` line-relative offsets, row-major.
    pub offsets: OffsetStore,
}

impl Chunk {
    /// Offset of `attrs[attr_pos]` for local row `r`.
    pub fn offset(&self, r: u32, attr_pos: usize) -> u32 {
        self.offsets.get(r as usize * self.attrs.len() + attr_pos)
    }

    /// Column of offsets for one attribute (by position in `attrs`).
    pub fn attr_column(&self, attr_pos: usize) -> Vec<u32> {
        let n = self.attrs.len();
        (0..self.rows as usize)
            .map(|r| self.offsets.get(r * n + attr_pos))
            .collect()
    }

    /// In-memory footprint (offsets + directory overhead).
    pub fn bytes(&self) -> usize {
        self.offsets.bytes() + self.attrs.len() * 4 + 48
    }

    /// Number of pointers (positions) held.
    pub fn pointer_count(&self) -> u64 {
        self.offsets.len() as u64
    }
}

/// Accumulates positions while a scan tokenizes one block, producing a
/// [`Chunk`]. The scan pushes one row at a time with offsets for the same
/// attribute set (the attributes it tokenized for the current query).
#[derive(Debug)]
pub struct BlockCollector {
    block: u64,
    attrs: Vec<u32>,
    /// Row-major u32 staging; narrowed at build time.
    staged: Vec<u32>,
    rows: u32,
}

impl BlockCollector {
    /// Start collecting for `block`, covering `attrs` (file ordinals).
    pub fn new(block: u64, attrs: Vec<u32>) -> BlockCollector {
        BlockCollector {
            block,
            attrs,
            staged: Vec::new(),
            rows: 0,
        }
    }

    /// The attribute set being collected.
    pub fn attrs(&self) -> &[u32] {
        &self.attrs
    }

    /// Rows collected so far.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Push one row's offsets (must match `attrs` length and order).
    pub fn push_row(&mut self, offsets: &[u32]) {
        debug_assert_eq!(offsets.len(), self.attrs.len());
        self.staged.extend_from_slice(offsets);
        self.rows += 1;
    }

    /// Finish, narrowing to 16-bit storage when possible.
    pub fn build(self) -> Chunk {
        Chunk {
            block: self.block,
            rows: self.rows,
            attrs: self.attrs,
            offsets: OffsetStore::pack(&self.staged),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_chunk() -> Chunk {
        let mut c = BlockCollector::new(3, vec![4, 7]);
        c.push_row(&[10, 40]);
        c.push_row(&[12, 44]);
        c.push_row(&[9, 38]);
        c.build()
    }

    #[test]
    fn collector_builds_row_major_chunk() {
        let c = sample_chunk();
        assert_eq!(c.rows, 3);
        assert_eq!(c.attrs, vec![4, 7]);
        assert_eq!(c.offset(0, 0), 10);
        assert_eq!(c.offset(1, 1), 44);
        assert_eq!(c.attr_column(1), vec![40, 44, 38]);
        assert!(matches!(c.offsets, OffsetStore::U16(_)));
    }

    #[test]
    fn wide_offsets_use_u32() {
        let mut c = BlockCollector::new(0, vec![0]);
        c.push_row(&[70_000]);
        let c = c.build();
        assert!(matches!(c.offsets, OffsetStore::U32(_)));
        assert_eq!(c.offset(0, 0), 70_000);
    }

    proptest! {
        /// Every pushed offset reads back through `Chunk::offset`, and the
        /// chunk is 16-bit exactly when every offset fits in 16 bits.
        #[test]
        fn roundtrip_random_chunks(
            attrs in proptest::collection::vec(0u32..200, 1..6),
            rows in proptest::collection::vec(
                proptest::collection::vec(0u32..100_000, 6), 0..20),
        ) {
            let nattrs = attrs.len();
            let mut coll = BlockCollector::new(7, attrs.clone());
            for r in &rows {
                coll.push_row(&r[..nattrs]);
            }
            let c = coll.build();
            prop_assert_eq!((c.block, c.rows as usize, &c.attrs), (7, rows.len(), &attrs));
            for (r, row) in rows.iter().enumerate() {
                for (a, &want) in row[..nattrs].iter().enumerate() {
                    prop_assert_eq!(c.offset(u32::try_from(r).unwrap(), a), want);
                }
            }
            let narrow = rows.iter().all(|r| r[..nattrs].iter().all(|&o| o <= u32::from(u16::MAX)));
            prop_assert_eq!(matches!(c.offsets, OffsetStore::U16(_)), narrow);
        }
    }
}
