//! Group, join and distinct keys, normalised and hashed a batch at a time.
//!
//! `Value` itself is not `Eq + Hash` (floats), so a key column is
//! normalised first: [`Keys::new`] runs one typed loop over each key
//! column's lanes and turns every lane into a class tag and a 64-bit word.
//! `Int32`, `Int64` and integral `Float64` lanes (below 9e15 in
//! magnitude) are one class, so `1.0` groups with `1` and `-0.0` with `0`;
//! a non-integral float keys by its bits; dates, booleans and text are
//! classes of their own, and NULL is a class that equals only NULL. Text
//! of at most 8 bytes is its bytes packed into the word (the tag holds
//! the length); longer text keeps a hash of its bytes in the word and a
//! copy of the bytes beside it. The same loop folds each lane's tag and
//! word into the lane's hash of the whole key, and every hash ends with
//! a murmur3 finaliser. Comparing two lanes then compares tags and words,
//! and bytes only for long text: no per-row dispatch on the column type.
//!
//! A [`KeyIndex`] maps hashes to slot numbers and leaves the keys wherever
//! the operator keeps them: equality is decided by comparing normalised
//! lanes ([`KeyView::same`]). Keys come from raw files and client
//! parameters, so the hash starts from a per-process random seed: which
//! keys share a bucket cannot be worked out from the keys alone. Slots are
//! numbered in insertion order, so no result depends on the seed.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects
)]

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::mem::take;
use std::sync::OnceLock;

use nodb_common::column::Data;
use nodb_common::{Column, DataType};

/// Class tags of a normalised lane.
const NULL: u8 = 0;
const INT: u8 = 1;
const FLOAT: u8 = 2;
const BOOL: u8 = 3;
const DATE: u8 = 4;
/// Text longer than a word: the word is a hash of its bytes.
const LONG_TEXT: u8 = 5;
/// Text of `len <= 8` bytes is tagged `SHORT_TEXT + len`.
const SHORT_TEXT: u8 = 6;

/// The per-process hash seed.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().build_hasher().finish())
}

/// Fold one word into a running hash (an Fx round: rotate, xor, multiply).
#[inline]
fn round(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// The murmur3 64-bit finaliser: every input bit reaches the top bits,
/// which [`KeyIndex`] takes its bucket from.
#[inline]
fn finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Up to 8 bytes as one little-endian word, loaded a byte at a time
/// (copying fewer than 8 into a buffer costs a library call).
#[inline]
pub(crate) fn pack(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .rev()
        .fold(0, |w, &b| w.wrapping_shl(8) | u64::from(b))
}

/// A seeded hash of a long text's bytes.
fn long_hash(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = seed();
    for w in &mut words {
        h = round(h, u64::from_le_bytes(w.try_into().unwrap_or_default()));
    }
    finish(round(round(h, pack(words.remainder())), bytes.len() as u64))
}

/// A float's tag and word, integral values folded into the integers.
#[inline]
fn float_lane(f: f64) -> (u8, u64) {
    if f.fract() == 0.0 && f.abs() < 9e15 {
        (INT, f as i64 as u64)
    } else {
        (FLOAT, f.to_bits())
    }
}

/// The key columns of a batch, normalised, with each lane's hash of its
/// whole key. Lane `r`'s part `p` is cell `r * width + p`: a class tag
/// and a word, and for long text a span of `long`. Equal keys (part by
/// part) hash equal.
#[derive(Debug, Default)]
pub struct Keys {
    width: usize,
    tags: Vec<u8>,
    words: Vec<u64>,
    /// Per cell, its long text's bytes in `long` (keys with a text part).
    spans: Vec<(usize, usize)>,
    long: Vec<u8>,
    hashes: Vec<u64>,
    /// Does any part hold a NULL?
    nullable: bool,
}

impl Keys {
    /// Normalise and hash the first `n` lanes of the key columns `cols`.
    pub fn new(cols: &[&Column], n: usize) -> Keys {
        let (width, text) = (cols.len(), |c: &&Column| c.dtype() == DataType::Text);
        let cells = n.saturating_mul(width);
        let mut k = Keys {
            width,
            tags: vec![NULL; cells],
            words: vec![0; cells],
            spans: vec![(0, 0); if cols.iter().any(text) { cells } else { 0 }],
            hashes: vec![seed(); n],
            nullable: cols.iter().any(|c| c.null_count() > 0),
            ..Keys::default()
        };
        for (p, col) in cols.iter().enumerate() {
            k.normalise(p, col);
        }
        k
    }

    /// Normalise column `col` into part `p`, in one typed loop.
    fn normalise(&mut self, p: usize, col: &Column) {
        match col.data() {
            Data::Int32(v) => self.fill(p, col, v.iter().map(|&x| (INT, i64::from(x) as u64))),
            Data::Int64(v) => self.fill(p, col, v.iter().map(|&x| (INT, x as u64))),
            Data::Float64(v) => self.fill(p, col, v.iter().map(|&f| float_lane(f))),
            Data::Date(v) => self.fill(p, col, v.iter().map(|&d| (DATE, i64::from(d) as u64))),
            Data::Bool(v) => self.fill(p, col, v.iter().map(|&b| (BOOL, u64::from(b)))),
            Data::Text(t) => {
                let (mut long, mut spans) = (take(&mut self.long), take(&mut self.spans));
                let w = self.width;
                let lanes = t
                    .iter_bytes()
                    .enumerate()
                    .map(|(r, b)| match u8::try_from(b.len()) {
                        Ok(len @ 0..=8) => (SHORT_TEXT.wrapping_add(len), pack(b)),
                        _ => {
                            let start = long.len();
                            long.extend_from_slice(b);
                            if let Some(s) = spans.get_mut(r.wrapping_mul(w).wrapping_add(p)) {
                                *s = (start, long.len());
                            }
                            (LONG_TEXT, long_hash(b))
                        }
                    });
                self.fill(p, col, lanes);
                (self.long, self.spans) = (long, spans);
            }
        }
    }

    /// Take part `p` of every lane from `lanes` (NULL where `col` is),
    /// folding it into the lane's hash; the last part finishes the hash.
    #[inline]
    fn fill(&mut self, p: usize, col: &Column, lanes: impl Iterator<Item = (u8, u64)>) {
        let (w, all_valid) = (self.width, col.null_count() == 0);
        let last = p.wrapping_add(1) == w;
        for (r, (h, lane)) in self.hashes.iter_mut().zip(lanes).enumerate() {
            let (tag, word) = if all_valid || col.is_valid(r) {
                lane
            } else {
                (NULL, 0)
            };
            let i = r.wrapping_mul(w).wrapping_add(p);
            if let (Some(t), Some(x)) = (self.tags.get_mut(i), self.words.get_mut(i)) {
                (*t, *x) = (tag, word);
            }
            *h = round(*h, word) ^ u64::from(tag);
            if last {
                *h = finish(*h);
            }
        }
    }

    /// Each lane's hash.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Has lane `r` a NULL part? (Join keys with a NULL part never match.)
    #[inline]
    pub fn has_null(&self, r: usize) -> bool {
        self.nullable && self.view().cells(r).is_some_and(|(t, _)| t.contains(&NULL))
    }

    /// The normalised lanes, borrowed for comparing.
    #[inline]
    pub fn view(&self) -> KeyView<'_> {
        KeyView {
            width: self.width,
            tags: &self.tags,
            words: &self.words,
            spans: &self.spans,
            long: &self.long,
        }
    }

    /// Append lanes `lanes` of `from` (keys of the same parts); their
    /// hashes are not kept.
    pub fn extend(&mut self, from: &Keys, lanes: &[usize]) {
        let (w, text) = (from.width, !from.spans.is_empty());
        self.width = w;
        self.nullable |= from.nullable;
        let from = from.view();
        for &r in lanes {
            let Some((tags, words)) = from.cells(r) else {
                continue;
            };
            self.tags.extend_from_slice(tags);
            self.words.extend_from_slice(words);
            for cell in (r.saturating_mul(w)..).take(if text { w } else { 0 }) {
                let start = self.long.len();
                self.long.extend_from_slice(from.long(cell));
                self.spans.push((start, self.long.len()));
            }
        }
    }
}

/// [`Keys`]' normalised lanes, borrowed: what a probe loop compares.
#[derive(Debug, Clone, Copy)]
pub struct KeyView<'a> {
    width: usize,
    tags: &'a [u8],
    words: &'a [u64],
    spans: &'a [(usize, usize)],
    long: &'a [u8],
}

impl KeyView<'_> {
    /// Lane `r`'s tags and words.
    #[inline]
    fn cells(&self, r: usize) -> Option<(&[u8], &[u64])> {
        let cells = r.saturating_mul(self.width)..r.saturating_add(1).saturating_mul(self.width);
        Some((self.tags.get(cells.clone())?, self.words.get(cells)?))
    }

    /// The bytes of cell `i`'s long text (empty for any other cell).
    #[inline]
    fn long(&self, i: usize) -> &[u8] {
        let (a, b) = self.spans.get(i).copied().unwrap_or_default();
        self.long.get(a..b).unwrap_or_default()
    }

    /// Is lane `r`'s key equal, part by part, to lane `s` of `other`?
    #[inline]
    pub fn same(&self, r: usize, other: &KeyView<'_>, s: usize) -> bool {
        let w = self.width;
        let (a, b) = (r.wrapping_mul(w), s.wrapping_mul(w));
        (0..w).all(|p| {
            let (i, j) = (a.wrapping_add(p), b.wrapping_add(p));
            let tag = self.tags.get(i);
            tag == other.tags.get(j)
                && self.words.get(i) == other.words.get(j)
                && (self.spans.is_empty()
                    || tag != Some(&LONG_TEXT)
                    || self.long(i) == other.long(j))
        })
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
            shift: u64::BITS.wrapping_sub(Self::INITIAL_BUCKETS.trailing_zeros()),
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

    /// The bucket `hash` starts probing at, and the mask of bucket numbers.
    #[inline]
    fn home(&self, hash: u64) -> (usize, usize) {
        let mask = self.buckets.len().wrapping_sub(1);
        ((hash >> self.shift) as usize, mask)
    }

    /// The slot whose key has hash `hash` and satisfies `is_key`, which
    /// compares the caller's stored key for a slot with the probe.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "b is masked to the power-of-two bucket count; a bucket holds a slot of hashes"
    )]
    pub fn find(&self, hash: u64, mut is_key: impl FnMut(usize) -> bool) -> Option<usize> {
        let (mut b, mask) = self.home(hash);
        loop {
            let slot = self.buckets[b].checked_sub(1)? as usize;
            if self.hashes[slot] == hash && is_key(slot) {
                return Some(slot);
            }
            b = b.wrapping_add(1) & mask;
        }
    }

    /// Add a key known to be absent (the caller just failed to
    /// [`find`](KeyIndex::find) it); returns its slot, `len()` before the
    /// call.
    pub fn insert(&mut self, hash: u64) -> usize {
        let slot = self.hashes.len();
        if slot.saturating_add(1).saturating_mul(2) > self.buckets.len() {
            self.grow();
        }
        self.hashes.push(hash);
        self.place(hash, slot);
        slot
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "b is masked to the power-of-two bucket count"
    )]
    fn place(&mut self, hash: u64, slot: usize) {
        let (mut b, mask) = self.home(hash);
        while self.buckets[b] != 0 {
            b = b.wrapping_add(1) & mask;
        }
        self.buckets[b] = (slot as u32).wrapping_add(1);
    }

    fn grow(&mut self) {
        self.buckets = vec![0; self.buckets.len().saturating_mul(2)];
        self.shift = self.shift.saturating_sub(1);
        for slot in 0..self.hashes.len() {
            #[expect(clippy::indexing_slicing, reason = "slot < hashes.len()")]
            self.place(self.hashes[slot], slot);
        }
    }
}

/// The reference semantics the normalised lanes must reproduce.
#[cfg(test)]
pub(crate) mod reference {
    use nodb_common::Value;

    /// One normalized, borrowed key part: the specification of key
    /// equality that [`Keys`](super::Keys) implements a column at a time.
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
        pub fn of(v: &'a Value) -> KeyRef<'a> {
            match v {
                Value::Null => KeyRef::Null,
                Value::Int32(x) => KeyRef::Int(i64::from(*x)),
                Value::Int64(x) => KeyRef::Int(*x),
                Value::Date(d) => KeyRef::Date(d.days()),
                Value::Bool(b) => KeyRef::Bool(*b),
                Value::Float64(f) if f.fract() == 0.0 && f.abs() < 9e15 => KeyRef::Int(*f as i64),
                Value::Float64(f) => KeyRef::FloatBits(f.to_bits()),
                Value::Text(s) => KeyRef::Text(s.as_bytes()),
            }
        }

        /// Is this part NULL?
        pub fn is_null(self) -> bool {
            matches!(self, KeyRef::Null)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::KeyRef;
    use super::*;
    use nodb_common::{DataType, Date, Value};

    /// The normalised keys of one row of values, each its own column.
    fn row_keys(vals: &[Value]) -> Keys {
        let cols: Vec<Column> = vals
            .iter()
            .map(|v| {
                Column::from_values(
                    v.data_type().unwrap_or(DataType::Int64),
                    std::slice::from_ref(v),
                )
            })
            .collect::<nodb_common::Result<_>>()
            .unwrap();
        Keys::new(&cols.iter().collect::<Vec<_>>(), 1)
    }

    /// Do two value slices form the same key, through the normalised lanes?
    fn same_key(a: &[Value], b: &[Value]) -> bool {
        row_keys(a).view().same(0, &row_keys(b).view(), 0)
    }

    fn hash(vals: &[Value]) -> u64 {
        row_keys(vals).hashes()[0]
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
            Value::Text("12345678".into()),
            Value::Text("123456789".into()),
            Value::Text("a longer text spanning words".into()),
            Value::Text("a longer text spanning wordz".into()),
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
        assert!(same_key(std::slice::from_ref(&a), std::slice::from_ref(&c)));
        assert_eq!(hash(&[a]), hash(&[c]));
    }

    #[test]
    fn dates_do_not_collide_with_ints() {
        for days in [5, 0, -5] {
            let d = Value::Date(Date(days));
            let i = Value::Int64(days as i64);
            assert_ne!(KeyRef::of(&d), KeyRef::of(&i), "day {days}");
            assert!(!same_key(&[d], &[i]), "day {days}");
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
                let (ra, rb) = (std::slice::from_ref(a), std::slice::from_ref(b));
                assert_eq!(same_key(ra, rb), want, "{a:?} vs {b:?}");
                if want {
                    assert_eq!(hash(ra), hash(rb), "{a:?} vs {b:?}");
                }
            }
        }
        // Lanes of one typed column, NULL lanes included, agree with the
        // keys of the values read back from them.
        for v in &vals {
            let dtype = v.data_type().unwrap_or(DataType::Int64);
            let col = Column::from_values(dtype, &[Value::Null, v.clone()]).unwrap();
            let keys = Keys::new(&[&col], 2);
            for i in 0..2 {
                let back = row_keys(&[col.value(i)]);
                assert!(keys.view().same(i, &back.view(), 0), "{v:?} lane {i}");
                assert_eq!(keys.hashes()[i], back.hashes()[0], "{v:?} lane {i}");
            }
        }
    }

    #[test]
    fn composite_keys_work_in_hashmaps() {
        let k1 = [Value::Text("A".into()), Value::Int32(1)];
        let k2 = [Value::Text("A".into()), Value::Int64(1)];
        let k3 = [Value::Text("A".into()), Value::Int64(2)];
        let mut idx = KeyIndex::new();
        let stored = [k1.to_vec()];
        assert_eq!(
            idx.find(hash(&k1), |_| panic!("an empty index compared a key")),
            None
        );
        assert_eq!(idx.insert(hash(&k1)), 0);
        assert_eq!(idx.find(hash(&k2), |s| same_key(&stored[s], &k2)), Some(0));
        assert_eq!(idx.find(hash(&k3), |s| same_key(&stored[s], &k3)), None);
        // Part boundaries matter: ("ab", "c") is not ("a", "bc").
        let ab = [Value::Text("ab".into()), Value::Text("c".into())];
        let a = [Value::Text("a".into()), Value::Text("bc".into())];
        assert!(!same_key(&ab, &a));
        assert_ne!(hash(&ab), hash(&a));
    }

    #[test]
    fn null_detection() {
        let k = [Value::Null, Value::Int32(1)];
        assert!(k.iter().map(KeyRef::of).any(KeyRef::is_null));
        assert!(row_keys(&k).has_null(0));
        let k = [Value::Int32(1)];
        assert!(!k.iter().map(KeyRef::of).any(KeyRef::is_null));
        assert!(!row_keys(&k).has_null(0));
    }

    #[test]
    fn index_grows_past_its_buckets_and_chains_equal_hashes() {
        let col = Column::from_data(Data::Int64((0..10_000).map(|i| i * 32).collect()));
        let keys = Keys::new(&[&col], col.len());
        let mut idx = KeyIndex::new();
        for (r, &h) in keys.hashes().iter().enumerate() {
            assert_eq!(idx.find(h, |s| keys.view().same(s, &keys.view(), r)), None);
            idx.insert(h);
        }
        assert_eq!(idx.len(), col.len());
        for (r, &h) in keys.hashes().iter().enumerate() {
            assert_eq!(
                idx.find(h, |s| keys.view().same(s, &keys.view(), r)),
                Some(r)
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

    /// Keys that are dense, strided or calendar-shaped spread over the
    /// index: at load 0.5, a key is found within 2 buckets on average.
    #[test]
    fn hash_spreads_structured_keys() {
        const N: i64 = 8192;
        let sets = [
            ("sequential", Data::Int64((0..N).collect())),
            // TPC-H order keys: the first 8 of every 32.
            (
                "order keys",
                Data::Int64((0..N).map(|i| i / 8 * 32 + i % 8 + 1).collect()),
            ),
            (
                "multiples of 2^16",
                Data::Int64((0..N).map(|i| i << 16).collect()),
            ),
            (
                "consecutive dates",
                Data::Date((8035..8035 + N as i32).collect()),
            ),
        ];
        for (label, data) in sets {
            let col = Column::from_data(data);
            let keys = Keys::new(&[&col], col.len());
            let mut idx = KeyIndex::new();
            for &h in keys.hashes() {
                idx.insert(h);
            }
            assert!(2 * idx.len() <= idx.buckets.len(), "{label}: load > 0.5");
            // A key's probe length: its bucket's distance from its home
            // bucket, plus one.
            let mask = idx.buckets.len() - 1;
            let total: usize = (0..idx.buckets.len())
                .filter(|&b| idx.buckets[b] != 0)
                .map(|b| {
                    let slot = idx.buckets[b] as usize - 1;
                    let (home, _) = idx.home(idx.hashes[slot]);
                    (b.wrapping_sub(home) & mask) + 1
                })
                .sum();
            let mean = total as f64 / idx.len() as f64;
            assert!(mean <= 2.0, "{label}: mean probe length {mean:.2}");
        }
    }
}
