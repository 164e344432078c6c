//! Hashable/equatable group, join and distinct keys, borrowed from the
//! values they describe.
//!
//! `Value` itself is not `Eq + Hash` (floats); a [`KeyRef`] is a
//! normalized view safe for hash tables: floats by bits (with integral
//! floats canonicalized to integers so `1.0` groups with `1`), dates in
//! their own variant, NULL as a distinct marker. Nothing is cloned to
//! build one: [`KeyRef::at`] reads a typed column slot, a text part
//! borrowing the column's arena, so operators hash and compare keys
//! straight off their batch columns.
//!
//! A composite key hashes with [`hash_key`] (an in-tree Fx-style
//! rotate-xor-multiply hash; there is no crates.io access) and is looked
//! up through a [`KeyIndex`], which maps hashes to slot numbers and
//! leaves the key values wherever the operator already keeps them:
//! equality is decided by comparing the stored values' `KeyRef`s with the
//! probing ones. Keys come from raw files and client parameters, so the
//! hash starts from a per-process random seed: which keys share a bucket
//! cannot be worked out from the keys alone. Slots are numbered in
//! insertion order, so no result depends on the seed.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

use nodb_common::column::Data;
use nodb_common::{Column, Value};

/// One normalized, borrowed key part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyRef<'a> {
    /// SQL NULL (groups with other NULLs, as GROUP BY does).
    Null,
    /// Any integer-valued number.
    Int(i64),
    /// Non-integral float, by bit pattern.
    FloatBits(u64),
    /// Boolean.
    Bool(bool),
    /// Date, by day number (never equal to a number).
    Date(i32),
    /// Text, by its UTF-8 bytes.
    Text(&'a [u8]),
}

impl<'a> KeyRef<'a> {
    /// Normalize one value.
    #[inline]
    pub fn of(v: &'a Value) -> KeyRef<'a> {
        match v {
            Value::Null => KeyRef::Null,
            Value::Int32(x) => KeyRef::Int(i64::from(*x)),
            Value::Int64(x) => KeyRef::Int(*x),
            Value::Date(d) => KeyRef::Date(d.days()),
            Value::Bool(b) => KeyRef::Bool(*b),
            Value::Float64(f) => KeyRef::float(*f),
            Value::Text(s) => KeyRef::Text(s.as_bytes()),
        }
    }

    /// Normalize lane `i` of a typed column, equal to [`KeyRef::of`] on
    /// the value the lane holds.
    #[inline]
    pub fn at(col: &'a Column, i: usize) -> KeyRef<'a> {
        if !col.is_valid(i) {
            return KeyRef::Null;
        }
        let k = match col.data() {
            Data::Int32(v) => v.get(i).map(|&x| KeyRef::Int(i64::from(x))),
            Data::Int64(v) => v.get(i).map(|&x| KeyRef::Int(x)),
            Data::Float64(v) => v.get(i).map(|&x| KeyRef::float(x)),
            Data::Date(v) => v.get(i).map(|&x| KeyRef::Date(x)),
            Data::Bool(v) => v.get(i).map(|&x| KeyRef::Bool(x)),
            Data::Text(t) => Some(KeyRef::Text(t.get_bytes(i))),
        };
        k.unwrap_or(KeyRef::Null)
    }

    /// A float, with integral values folded into the integers.
    #[inline]
    fn float(f: f64) -> KeyRef<'a> {
        if f.fract() == 0.0 && f.abs() < 9e15 {
            KeyRef::Int(f as i64)
        } else {
            KeyRef::FloatBits(f.to_bits())
        }
    }

    /// Is this part NULL? (Join keys with a NULL part never match.)
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, KeyRef::Null)
    }
}

/// The hash of a composite key: equal keys (part by part, under
/// [`KeyRef`] equality) hash equal.
#[inline]
pub fn hash_key<'a>(parts: impl IntoIterator<Item = KeyRef<'a>>) -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let mut h = FxHasher {
        hash: *SEED.get_or_init(|| RandomState::new().build_hasher().finish()),
    };
    for p in parts {
        p.hash(&mut h);
    }
    h.finish()
}

/// Fx-style word hasher: rotate, xor in the next word, multiply by an odd
/// constant. Cheap per word and well mixed in the *high* bits, which is
/// where [`KeyIndex`] takes its bucket number from.
#[derive(Debug, Clone, Copy)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            self.add(u64::from_le_bytes(buf));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            #[expect(
                clippy::indexing_slicing,
                reason = "a chunks_exact(8) remainder is < 8 bytes"
            )]
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hash → slot lookup over keys the caller stores (slot `i` is the
/// `i`-th key inserted). Open addressing with linear probing over a
/// power-of-two bucket array kept at most half full; the bucket is the
/// hash's top bits.
#[derive(Debug)]
pub struct KeyIndex {
    /// `slot + 1` per bucket; 0 marks an empty bucket.
    buckets: Vec<u32>,
    /// Each slot's hash (probe filter, and rehashing on growth).
    hashes: Vec<u64>,
    /// `64 - log2(buckets.len())`.
    shift: u32,
}

impl Default for KeyIndex {
    fn default() -> KeyIndex {
        KeyIndex::new()
    }
}

impl KeyIndex {
    const INITIAL_BUCKETS: usize = 16;

    /// An empty index.
    pub fn new() -> KeyIndex {
        KeyIndex {
            buckets: vec![0; Self::INITIAL_BUCKETS],
            hashes: Vec::new(),
            shift: 64 - Self::INITIAL_BUCKETS.trailing_zeros(),
        }
    }

    /// Number of keys (slots) inserted.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// No keys yet?
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The slot whose key has hash `hash` and satisfies `is_key`, which
    /// compares the caller's stored key for a slot with the probe.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "b is masked to the power-of-two bucket count; a bucket holds a slot of hashes"
    )]
    pub fn find(&self, hash: u64, mut is_key: impl FnMut(usize) -> bool) -> Option<usize> {
        let mask = self.buckets.len() - 1;
        let mut b = (hash >> self.shift) as usize;
        loop {
            let slot = self.buckets[b].checked_sub(1)? as usize;
            if self.hashes[slot] == hash && is_key(slot) {
                return Some(slot);
            }
            b = (b + 1) & mask;
        }
    }

    /// Add a key known to be absent (the caller just failed to
    /// [`find`](KeyIndex::find) it); returns its slot, `len()` before the
    /// call.
    pub fn insert(&mut self, hash: u64) -> usize {
        if 2 * (self.hashes.len() + 1) > self.buckets.len() {
            self.grow();
        }
        let slot = self.hashes.len();
        self.hashes.push(hash);
        self.place(hash, slot);
        slot
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "b is masked to the power-of-two bucket count"
    )]
    fn place(&mut self, hash: u64, slot: usize) {
        let mask = self.buckets.len() - 1;
        let mut b = (hash >> self.shift) as usize;
        while self.buckets[b] != 0 {
            b = (b + 1) & mask;
        }
        self.buckets[b] = slot as u32 + 1;
    }

    fn grow(&mut self) {
        self.buckets = vec![0; self.buckets.len() * 2];
        self.shift -= 1;
        for slot in 0..self.hashes.len() {
            #[expect(clippy::indexing_slicing, reason = "slot < hashes.len()")]
            self.place(self.hashes[slot], slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::Date;

    /// Do two value slices form the same key, part by part?
    fn same_key(a: &[Value], b: &[Value]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| KeyRef::of(x) == KeyRef::of(y))
    }

    /// Reference normalization: an owned part per value, with dates
    /// folded into the integers by setting bit 62. `KeyRef` must agree
    /// with it on every pair of values except those involving a date.
    #[derive(Debug, PartialEq)]
    enum RefPart {
        Null,
        Int(i64),
        FloatBits(u64),
        Bool(bool),
        Text(String),
    }

    fn ref_part(v: &Value) -> RefPart {
        match v {
            Value::Null => RefPart::Null,
            Value::Int32(x) => RefPart::Int(*x as i64),
            Value::Int64(x) => RefPart::Int(*x),
            Value::Date(d) => RefPart::Int(d.days() as i64 | (1 << 62)),
            Value::Bool(b) => RefPart::Bool(*b),
            Value::Float64(f) => {
                if f.fract() == 0.0 && f.abs() < 9e15 {
                    RefPart::Int(*f as i64)
                } else {
                    RefPart::FloatBits(f.to_bits())
                }
            }
            Value::Text(s) => RefPart::Text(s.clone()),
        }
    }

    fn corpus() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Int32(7),
            Value::Int64(7),
            Value::Float64(7.0),
            Value::Float64(7.5),
            Value::Int32(0),
            Value::Float64(0.0),
            Value::Float64(-0.0),
            Value::Float64(f64::NAN),
            Value::Float64(f64::INFINITY),
            Value::Float64(1e16),
            Value::Int64(-5),
            Value::Int64(5),
            Value::Int64(i64::MAX),
            Value::Bool(true),
            Value::Bool(false),
            Value::Int32(1),
            Value::Text("".into()),
            Value::Text("7".into()),
            Value::Text("A".into()),
            Value::Text("a longer text spanning words".into()),
            Value::Date(Date(5)),
            Value::Date(Date(-5)),
            Value::Date(Date(0)),
        ]
    }

    #[test]
    fn numeric_widths_share_keys() {
        let a = Value::Int32(7);
        let b = Value::Int64(7);
        let c = Value::Float64(7.0);
        assert_eq!(KeyRef::of(&a), KeyRef::of(&b));
        assert_eq!(KeyRef::of(&a), KeyRef::of(&c));
        assert_eq!(hash_key([KeyRef::of(&a)]), hash_key([KeyRef::of(&c)]));
    }

    #[test]
    fn dates_do_not_collide_with_ints() {
        for days in [5, 0, -5] {
            let d = Value::Date(Date(days));
            let i = Value::Int64(days as i64);
            assert_ne!(KeyRef::of(&d), KeyRef::of(&i), "day {days}");
        }
        // The reference scheme folds a pre-1970 date onto the negative
        // integer with the same day count.
        assert_eq!(
            ref_part(&Value::Date(Date(-5))),
            ref_part(&Value::Int64(-5))
        );
    }

    #[test]
    fn key_equality_and_hash_agree_with_the_reference_parts() {
        let vals = corpus();
        for a in &vals {
            for b in &vals {
                let (ka, kb) = (KeyRef::of(a), KeyRef::of(b));
                let dated = matches!(a, Value::Date(_)) || matches!(b, Value::Date(_));
                let want = if dated {
                    matches!((a, b), (Value::Date(x), Value::Date(y)) if x == y)
                } else {
                    ref_part(a) == ref_part(b)
                };
                assert_eq!(ka == kb, want, "{a:?} vs {b:?}");
                if ka == kb {
                    assert_eq!(hash_key([ka]), hash_key([kb]), "{a:?} vs {b:?}");
                }
            }
        }
        // A key read from a typed column slot equals the key of the value
        // read back from that slot, over the same corpus.
        for v in &vals {
            let dtype = v.data_type().unwrap_or(nodb_common::DataType::Int64);
            let col = Column::from_values(dtype, &[Value::Null, v.clone()]).unwrap();
            for i in 0..2 {
                let back = col.value(i);
                assert_eq!(KeyRef::at(&col, i), KeyRef::of(&back), "{v:?} lane {i}");
                assert_eq!(
                    hash_key([KeyRef::at(&col, i)]),
                    hash_key([KeyRef::of(&back)])
                );
            }
        }
    }

    #[test]
    fn composite_keys_work_in_hashmaps() {
        let k1 = [Value::Text("A".into()), Value::Int32(1)];
        let k2 = [Value::Text("A".into()), Value::Int64(1)];
        let k3 = [Value::Text("A".into()), Value::Int64(2)];
        let h = |k: &[Value]| hash_key(k.iter().map(KeyRef::of));
        let mut idx = KeyIndex::new();
        let stored = [k1.to_vec()];
        assert_eq!(
            idx.find(h(&k1), |_| panic!("an empty index compared a key")),
            None
        );
        assert_eq!(idx.insert(h(&k1)), 0);
        assert_eq!(idx.find(h(&k2), |s| same_key(&stored[s], &k2)), Some(0));
        assert_eq!(idx.find(h(&k3), |s| same_key(&stored[s], &k3)), None);
        // Part boundaries matter: ("ab", "c") is not ("a", "bc").
        let ab = [Value::Text("ab".into()), Value::Text("c".into())];
        let a = [Value::Text("a".into()), Value::Text("bc".into())];
        assert!(!same_key(&ab, &a));
        assert_ne!(h(&ab), h(&a));
    }

    #[test]
    fn null_detection() {
        let k = [Value::Null, Value::Int32(1)];
        assert!(k.iter().map(KeyRef::of).any(KeyRef::is_null));
        let k = [Value::Int32(1)];
        assert!(!k.iter().map(KeyRef::of).any(KeyRef::is_null));
    }

    #[test]
    fn index_grows_past_its_buckets_and_chains_equal_hashes() {
        let keys: Vec<Value> = (0..10_000).map(|i| Value::Int64(i * 32)).collect();
        let mut idx = KeyIndex::new();
        for k in &keys {
            let h = hash_key([KeyRef::of(k)]);
            assert_eq!(idx.find(h, |s| KeyRef::of(&keys[s]) == KeyRef::of(k)), None);
            idx.insert(h);
        }
        assert_eq!(idx.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            let h = hash_key([KeyRef::of(k)]);
            assert_eq!(
                idx.find(h, |s| KeyRef::of(&keys[s]) == KeyRef::of(k)),
                Some(i)
            );
        }
        // Distinct keys under one forced hash: probing must fall through
        // to the key comparison, not stop at the first equal hash.
        let mut idx = KeyIndex::new();
        for _ in 0..40 {
            idx.insert(42);
        }
        for want in 0..40 {
            assert_eq!(idx.find(42, |s| s == want), Some(want));
        }
        assert_eq!(idx.find(42, |_| false), None);
    }
}
