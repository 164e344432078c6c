//! Typed columns: the one in-memory shape of a column of values.
//!
//! A [`Column`] is one vector per [`DataType`] — `i32`, `i64`, `f64`, a
//! date's day number, `bool` — or, for text, one [`TextArena`] (`u32`
//! end offsets into a single byte buffer), plus a validity [`Bitmap`].
//! The binary cache stores its converted values in this shape (§4.3) and
//! every executor batch carries it, so a cache-served block reaches the
//! operators as typed slices, and expression kernels, keys and
//! aggregates loop over them without building one [`Value`] per cell.
//!
//! A NULL slot holds the type's default (0, `false`, the empty string);
//! the validity bit is authoritative.
#![deny(clippy::cast_possible_truncation)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::cmp::Ordering;

use crate::date::Date;
use crate::error::{NoDbError, Result};
use crate::row::Row;
use crate::types::DataType;
use crate::value::Value;

/// A growable bitmap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// `bits` zero bits.
    pub fn new(bits: usize) -> Bitmap {
        Bitmap {
            words: vec![0; bits.div_ceil(64)],
            len: bits,
            ones: 0,
        }
    }

    /// `bits` one bits.
    pub fn ones(bits: usize) -> Bitmap {
        let mut words = vec![u64::MAX; bits.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            if !bits.is_multiple_of(64) {
                *last = (1u64 << (bits % 64)) - 1;
            }
        }
        Bitmap {
            words,
            len: bits,
            ones: bits,
        }
    }

    /// One bit per flag, set where the flag is true.
    pub fn from_bools(flags: &[bool]) -> Bitmap {
        let words: Vec<u64> = flags.chunks(64).map(lane_mask).collect();
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        Bitmap {
            words,
            len: flags.len(),
            ones,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No bits?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (false past the end).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        i < self.len
            && self
                .words
                .get(i / 64)
                .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Set bit `i` to one (no-op past the end).
    #[inline]
    pub fn set(&mut self, i: usize) {
        if i >= self.len {
            return;
        }
        if let Some(w) = self.words.get_mut(i / 64) {
            let m = 1u64 << (i % 64);
            if *w & m == 0 {
                *w |= m;
                self.ones += 1;
            }
        }
    }

    /// Set bit `i` to zero (no-op past the end).
    #[inline]
    pub fn unset(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64).filter(|_| i < self.len) {
            let m = 1u64 << (i % 64);
            if *w & m != 0 {
                *w &= !m;
                self.ones -= 1;
            }
        }
    }

    /// Append one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let i = self.len;
        if i.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            if let Some(w) = self.words.last_mut() {
                *w |= 1u64 << (i % 64);
            }
            self.ones += 1;
        }
        self.len += 1;
    }

    /// Append `k` copies of `bit`: the partial last word, then whole
    /// words.
    pub fn push_n(&mut self, bit: bool, k: usize) {
        let len = self.len + k;
        // Bits past `len` are kept zero, so zero bits are just length.
        self.words.resize(len.div_ceil(64), 0);
        if bit {
            let mut i = self.len;
            while i < len {
                let take = (64 - i % 64).min(len - i);
                if let Some(w) = self.words.get_mut(i / 64) {
                    *w |= low_bits(take) << (i % 64);
                }
                i += take;
            }
            self.ones += k;
        }
        self.len = len;
    }

    /// Append bits `start..start + n` of `src` (those it has), a word at
    /// a time.
    pub fn extend_from(&mut self, src: &Bitmap, start: usize, n: usize) {
        let end = start.saturating_add(n).min(src.len);
        let mut i = start.min(end);
        while i < end {
            let take = 64.min(end - i);
            let bits = src.word_at(i) & low_bits(take);
            self.push_word(bits, take, bits.count_ones() as usize);
            i += take;
        }
    }

    /// The bits at `idx`, in that order (false past the end), packed a
    /// word at a time.
    fn gather(&self, idx: &[usize]) -> Bitmap {
        // Bits past `len` are zero, so no lane needs a length check.
        let bit = |i: usize| self.words.get(i / 64).map_or(0, |w| (w >> (i % 64)) & 1);
        let mut out = Bitmap::with_words(idx.len());
        for lanes in idx.chunks(64) {
            let bits = (lanes.iter().enumerate()).fold(0u64, |w, (j, &i)| w | (bit(i) << j));
            out.push_word(bits, lanes.len(), bits.count_ones() as usize);
        }
        out
    }

    /// No bits, with room for `bits` of them.
    fn with_words(bits: usize) -> Bitmap {
        Bitmap {
            words: Vec::with_capacity(bits.div_ceil(64)),
            ..Bitmap::default()
        }
    }

    /// Append the low `n` (≤ 64) bits of `bits`, whose higher bits are
    /// zero and `ones` of which are set.
    #[inline]
    fn push_word(&mut self, bits: u64, n: usize, ones: usize) {
        // No bits, no word: an empty word at a word boundary would shift
        // every later bit one word up.
        if n == 0 {
            return;
        }
        let off = self.len % 64;
        match off {
            0 => self.words.push(bits),
            _ => {
                if let Some(w) = self.words.last_mut() {
                    *w |= bits << off;
                }
                if off + n > 64 {
                    self.words.push(bits >> (64 - off));
                }
            }
        }
        self.ones += ones;
        self.len += n;
    }

    /// The 64 bits from bit `i` on (zero past the end).
    #[inline]
    fn word_at(&self, i: usize) -> u64 {
        let (w, off) = (i / 64, i % 64);
        let lo = self.words.get(w).map_or(0, |&x| x >> off);
        match off {
            0 => lo,
            _ => lo | self.words.get(w + 1).map_or(0, |&x| x << (64 - off)),
        }
    }

    /// Number of one bits.
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Heap bytes of the bit words.
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Keep the first `n` bits.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        self.words.truncate(n.div_ceil(64));
        if let Some(last) = self.words.last_mut() {
            if !n.is_multiple_of(64) {
                *last &= (1u64 << (n % 64)) - 1;
            }
        }
        self.len = n;
        self.ones = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }
}

/// Bit `j` set where `lanes[j]` is true (at most 64 lanes), eight lanes
/// per multiply: a `bool` is one byte holding 0 or 1, and the multiplier
/// moves byte `k`'s low bit to bit `56 + k` without carries.
#[inline]
fn lane_mask(lanes: &[bool]) -> u64 {
    let mut eights = lanes.chunks_exact(8);
    let mut mask = 0u64;
    for (k, eight) in eights.by_ref().enumerate() {
        #[expect(
            clippy::indexing_slicing,
            reason = "chunks_exact(8) yields eight lanes"
        )]
        let bytes: [u8; 8] = std::array::from_fn(|i| u8::from(eight[i]));
        let bits = u64::from_le_bytes(bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        mask |= bits << (8 * k);
    }
    let done = lanes.len() - eights.remainder().len();
    for (j, &k) in eights.remainder().iter().enumerate() {
        mask |= u64::from(k) << (done + j);
    }
    mask
}

/// A word whose low `n` bits (all 64 from `n = 64` on) are set.
#[inline]
fn low_bits(n: usize) -> u64 {
    match n {
        0..=63 => (1u64 << n) - 1,
        _ => u64::MAX,
    }
}

/// Text values of one column: the strings back to back in one buffer,
/// and each value's end offset (`offsets[i]..offsets[i + 1]` is value
/// `i`). Offsets are `u32`, so one column holds at most 4 GiB of text.
#[derive(Debug, Clone, PartialEq)]
pub struct TextArena {
    offsets: Vec<u32>,
    bytes: String,
}

impl TextArena {
    fn with_capacity(n: usize) -> TextArena {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        TextArena {
            offsets,
            bytes: String::new(),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// No values?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `i` (empty past the end).
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&a), Some(&b)) => self.bytes.get(a as usize..b as usize).unwrap_or_default(),
            _ => "",
        }
    }

    /// The UTF-8 bytes of value `i` (empty past the end).
    #[inline]
    pub fn get_bytes(&self, i: usize) -> &[u8] {
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&a), Some(&b)) => self
                .bytes
                .as_bytes()
                .get(a as usize..b as usize)
                .unwrap_or_default(),
            _ => &[],
        }
    }

    /// The UTF-8 bytes of every value, in order.
    #[inline]
    pub fn iter_bytes(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let bytes = self.bytes.as_bytes();
        self.offsets.windows(2).map(move |w| match w {
            [a, b] => bytes.get(*a as usize..*b as usize).unwrap_or_default(),
            _ => &[],
        })
    }

    /// Append one value; fails once the column would pass 4 GiB.
    #[inline]
    pub fn push(&mut self, s: &str) -> Result<()> {
        let end = u32::try_from(self.bytes.len() + s.len())
            .map_err(|_| NoDbError::execution("text column exceeds 4 GiB"))?;
        self.bytes.push_str(s);
        self.offsets.push(end);
        Ok(())
    }

    /// Append values `start..end` of `src` in one copy; fails once the
    /// column would pass 4 GiB.
    fn extend_range(&mut self, src: &TextArena, start: usize, end: usize) -> Result<()> {
        let (Some(&a), Some(&b)) = (src.offsets.get(start), src.offsets.get(end)) else {
            return Ok(());
        };
        let base = u32::try_from(self.bytes.len() + (b - a) as usize)
            .map_err(|_| NoDbError::execution("text column exceeds 4 GiB"))?
            - (b - a);
        self.bytes
            .push_str(src.bytes.get(a as usize..b as usize).unwrap_or_default());
        if let Some(ends) = src.offsets.get(start + 1..=end) {
            self.offsets.extend(ends.iter().map(|&o| o - a + base));
        }
        Ok(())
    }

    fn truncate(&mut self, n: usize) {
        if n < self.len() {
            let end = self.offsets.get(n).copied().unwrap_or(0);
            self.bytes.truncate(end as usize);
            self.offsets.truncate(n + 1);
        }
    }

    /// Bytes held: the text plus the offsets.
    fn heap_bytes(&self) -> usize {
        self.bytes.len() + self.offsets.len() * 4
    }
}

/// The typed values of a [`Column`].
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    /// 32-bit integers.
    Int32(Vec<i32>),
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Dates, as days since 1970-01-01.
    Date(Vec<i32>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Text.
    Text(TextArena),
}

/// Apply one expression to whichever vector a [`Data`] holds.
macro_rules! each_vec {
    ($data:expr, $v:ident => $body:expr, $t:ident => $text:expr) => {
        match $data {
            Data::Int32($v) => $body,
            Data::Int64($v) => $body,
            Data::Float64($v) => $body,
            Data::Date($v) => $body,
            Data::Bool($v) => $body,
            Data::Text($t) => $text,
        }
    };
}

impl Data {
    fn with_capacity(dtype: DataType, n: usize) -> Data {
        match dtype {
            DataType::Int32 => Data::Int32(Vec::with_capacity(n)),
            DataType::Int64 => Data::Int64(Vec::with_capacity(n)),
            DataType::Float64 => Data::Float64(Vec::with_capacity(n)),
            DataType::Date => Data::Date(Vec::with_capacity(n)),
            DataType::Bool => Data::Bool(Vec::with_capacity(n)),
            DataType::Text => Data::Text(TextArena::with_capacity(n)),
        }
    }

    fn dtype(&self) -> DataType {
        match self {
            Data::Int32(_) => DataType::Int32,
            Data::Int64(_) => DataType::Int64,
            Data::Float64(_) => DataType::Float64,
            Data::Date(_) => DataType::Date,
            Data::Bool(_) => DataType::Bool,
            Data::Text(_) => DataType::Text,
        }
    }

    fn len(&self) -> usize {
        each_vec!(self, v => v.len(), t => t.len())
    }

    /// Append `k` default slots.
    fn push_defaults(&mut self, k: usize) {
        let n = self.len() + k;
        match self {
            Data::Int32(v) | Data::Date(v) => v.resize(n, 0),
            Data::Int64(v) => v.resize(n, 0),
            Data::Float64(v) => v.resize(n, 0.0),
            Data::Bool(v) => v.resize(n, false),
            Data::Text(t) => {
                let end = t.offsets.last().copied().unwrap_or(0);
                t.offsets.resize(n + 1, end);
            }
        }
    }
}

/// One column of typed values with a validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: Data,
    valid: Bitmap,
}

impl Column {
    /// An empty column of `dtype`.
    pub fn new(dtype: DataType) -> Column {
        Column::with_capacity(dtype, 0)
    }

    /// An empty column of `dtype` with room for `n` values.
    pub fn with_capacity(dtype: DataType, n: usize) -> Column {
        Column {
            data: Data::with_capacity(dtype, n),
            valid: Bitmap::default(),
        }
    }

    /// `n` NULLs of `dtype`.
    pub fn nulls(dtype: DataType, n: usize) -> Column {
        // Zeroed allocations: pages a partial column never writes stay
        // untouched.
        let data = match dtype {
            DataType::Int32 => Data::Int32(vec![0; n]),
            DataType::Int64 => Data::Int64(vec![0; n]),
            DataType::Float64 => Data::Float64(vec![0.0; n]),
            DataType::Date => Data::Date(vec![0; n]),
            DataType::Bool => Data::Bool(vec![false; n]),
            DataType::Text => Data::Text(TextArena {
                offsets: vec![0; n + 1],
                bytes: String::new(),
            }),
        };
        Column {
            data,
            valid: Bitmap::new(n),
        }
    }

    /// A column of values that are all valid.
    pub fn from_data(data: Data) -> Column {
        let valid = Bitmap::ones(data.len());
        Column { data, valid }
    }

    /// A column of `data` whose lane `i` is NULL where `valid[i]` is
    /// false (NULL lanes are reset to the type's default).
    pub fn from_parts(mut data: Data, valid: &[bool]) -> Column {
        debug_assert_eq!(data.len(), valid.len());
        let bits = Bitmap::from_bools(valid);
        if bits.count() < valid.len() {
            match &mut data {
                Data::Int32(v) | Data::Date(v) => zero_invalid(v, valid, 0),
                Data::Int64(v) => zero_invalid(v, valid, 0),
                Data::Float64(v) => zero_invalid(v, valid, 0.0),
                Data::Bool(v) => zero_invalid(v, valid, false),
                Data::Text(_) => {}
            }
        }
        Column { data, valid: bits }
    }

    /// `n` copies of `v`; `dtype` types an all-NULL column.
    pub fn splat(v: &Value, dtype: DataType, n: usize) -> Result<Column> {
        let mut c = Column::with_capacity(v.data_type().unwrap_or(dtype), n);
        for _ in 0..n {
            c.push_value(v)?;
        }
        Ok(c)
    }

    /// A column holding `values`, typed `dtype` (see [`Column::push_value`]).
    pub fn from_values(dtype: DataType, values: &[Value]) -> Result<Column> {
        let mut c = Column::with_capacity(dtype, values.len());
        for v in values {
            c.push_value(v)?;
        }
        Ok(c)
    }

    /// The value type.
    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    /// The typed values (NULL lanes hold the type's default).
    pub fn data(&self) -> &Data {
        &self.data
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// No values?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULLs.
    pub fn null_count(&self) -> usize {
        self.valid.len() - self.valid.count()
    }

    /// Is lane `i` a value (not NULL)?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.valid.get(i)
    }

    /// The value at lane `i`, built (NULL past the end).
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            Data::Int32(v) => v.get(i).map_or(Value::Null, |&x| Value::Int32(x)),
            Data::Int64(v) => v.get(i).map_or(Value::Null, |&x| Value::Int64(x)),
            Data::Float64(v) => v.get(i).map_or(Value::Null, |&x| Value::Float64(x)),
            Data::Date(v) => v.get(i).map_or(Value::Null, |&x| Value::Date(Date(x))),
            Data::Bool(v) => v.get(i).map_or(Value::Null, |&x| Value::Bool(x)),
            Data::Text(t) => Value::Text(t.get(i).to_string()),
        }
    }

    /// Append each lane's value to the row of the same index (where rows
    /// leave the engine): one typed loop per column.
    pub fn push_into_rows(&self, rows: &mut [Row]) {
        let all_valid = self.null_count() == 0;
        let valid = |i: usize| all_valid || self.is_valid(i);
        match &self.data {
            Data::Int32(v) => push_lanes(rows, v, valid, Value::Int32),
            Data::Int64(v) => push_lanes(rows, v, valid, Value::Int64),
            Data::Float64(v) => push_lanes(rows, v, valid, Value::Float64),
            Data::Date(v) => push_lanes(rows, v, valid, |d| Value::Date(Date(d))),
            Data::Bool(v) => push_lanes(rows, v, valid, Value::Bool),
            Data::Text(t) => {
                for (i, row) in rows.iter_mut().enumerate() {
                    row.push(match valid(i) {
                        true => Value::Text(t.get(i).to_string()),
                        false => Value::Null,
                    });
                }
            }
        }
    }

    /// Append a NULL.
    #[inline]
    pub fn push_null(&mut self) {
        match &mut self.data {
            Data::Int32(v) | Data::Date(v) => v.push(0),
            Data::Int64(v) => v.push(0),
            Data::Float64(v) => v.push(0.0),
            Data::Bool(v) => v.push(false),
            Data::Text(t) => t.offsets.push(t.offsets.last().copied().unwrap_or(0)),
        }
        self.valid.push(false);
    }

    /// Append `k` NULLs.
    #[inline]
    pub fn push_nulls(&mut self, k: usize) {
        self.data.push_defaults(k);
        self.valid.push_n(false, k);
    }

    /// Append `v`. A value of the column's type is stored as it is; an
    /// integer widens into an `Int64` or `Float64` column. Any other
    /// value re-types the column when it is still all NULL, widens a
    /// numeric column to a wider numeric value's type, and otherwise is
    /// an error.
    #[inline]
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        if !self.push_typed(v)? {
            self.retype_for(v)?;
            if !self.push_typed(v)? {
                return Err(NoDbError::internal("re-typed column refused its value"));
            }
        }
        Ok(())
    }

    /// Overwrite lane `i` of a fixed-width column with `v`, a value of
    /// the column's type or NULL, in place; false, changing nothing, for
    /// a text column, a lane past the end, or a value of another type.
    #[inline]
    pub fn set(&mut self, i: usize, v: &Value) -> bool {
        let slot = match (&mut self.data, v) {
            (Data::Text(_), _) => None,
            (_, Value::Null) if i < self.valid.len() => {
                self.valid.unset(i);
                return true;
            }
            (Data::Int32(d), Value::Int32(x)) => d.get_mut(i).map(|s| *s = *x),
            (Data::Int64(d), Value::Int64(x)) => d.get_mut(i).map(|s| *s = *x),
            (Data::Float64(d), Value::Float64(x)) => d.get_mut(i).map(|s| *s = *x),
            (Data::Date(d), Value::Date(x)) => d.get_mut(i).map(|s| *s = x.days()),
            (Data::Bool(d), Value::Bool(x)) => d.get_mut(i).map(|s| *s = *x),
            _ => None,
        };
        if slot.is_some() {
            self.valid.set(i);
        }
        slot.is_some()
    }

    /// Copy lane `i` of `src`, a fixed-width column of the same type, over
    /// lane `i` of this one; false, changing nothing, for text, another
    /// type, or a lane past either end.
    #[inline]
    pub fn copy_lane(&mut self, i: usize, src: &Column) -> bool {
        fn copy<T: Copy>(d: &mut [T], s: &[T], i: usize) -> bool {
            match (d.get_mut(i), s.get(i)) {
                (Some(d), Some(&s)) => {
                    *d = s;
                    true
                }
                _ => false,
            }
        }
        let copied = match (&mut self.data, &src.data) {
            (Data::Int32(d), Data::Int32(s)) | (Data::Date(d), Data::Date(s)) => copy(d, s, i),
            (Data::Int64(d), Data::Int64(s)) => copy(d, s, i),
            (Data::Float64(d), Data::Float64(s)) => copy(d, s, i),
            (Data::Bool(d), Data::Bool(s)) => copy(d, s, i),
            _ => false,
        };
        if copied && src.is_valid(i) {
            self.valid.set(i);
        } else if copied {
            self.valid.unset(i);
        }
        copied
    }

    /// Append `v` if it is NULL or of a type the column holds as it is
    /// (or widens to); false, appending nothing, otherwise.
    #[inline]
    fn push_typed(&mut self, v: &Value) -> Result<bool> {
        match (&mut self.data, v) {
            (_, Value::Null) => {
                self.push_null();
                return Ok(true);
            }
            (Data::Int32(d), Value::Int32(x)) => d.push(*x),
            (Data::Int64(d), Value::Int64(x)) => d.push(*x),
            (Data::Int64(d), Value::Int32(x)) => d.push(i64::from(*x)),
            (Data::Float64(d), Value::Float64(x)) => d.push(*x),
            (Data::Float64(d), Value::Int32(x)) => d.push(f64::from(*x)),
            (Data::Float64(d), Value::Int64(x)) => d.push(*x as f64),
            (Data::Date(d), Value::Date(x)) => d.push(x.days()),
            (Data::Bool(d), Value::Bool(x)) => d.push(*x),
            (Data::Text(t), Value::Text(s)) => t.push(s)?,
            _ => return Ok(false),
        }
        self.valid.push(true);
        Ok(true)
    }

    /// Re-type or widen the column so that it can hold `v` (see
    /// [`Column::push_value`]).
    fn retype_for(&mut self, v: &Value) -> Result<()> {
        let (have, want) = (self.dtype(), v.data_type().unwrap_or(self.dtype()));
        if self.valid.count() == 0 {
            *self = Column::nulls(want, self.len());
            return Ok(());
        }
        let widened = match (&self.data, want) {
            (Data::Int32(d), DataType::Int64) => {
                Data::Int64(d.iter().map(|&x| i64::from(x)).collect())
            }
            (Data::Int32(d), DataType::Float64) => {
                Data::Float64(d.iter().map(|&x| f64::from(x)).collect())
            }
            (Data::Int64(d), DataType::Float64) => {
                Data::Float64(d.iter().map(|&x| x as f64).collect())
            }
            _ => {
                return Err(NoDbError::execution(format!(
                    "a {have} column cannot hold {v}"
                )))
            }
        };
        self.data = widened;
        Ok(())
    }

    /// Append lane `i` of `src` (typed when the types agree).
    #[inline]
    pub fn push_from(&mut self, src: &Column, i: usize) -> Result<()> {
        if !src.is_valid(i) {
            self.push_null();
            return Ok(());
        }
        match (&mut self.data, &src.data) {
            (Data::Int32(d), Data::Int32(s)) | (Data::Date(d), Data::Date(s)) => {
                d.push(s.get(i).copied().unwrap_or_default())
            }
            (Data::Int64(d), Data::Int64(s)) => d.push(s.get(i).copied().unwrap_or_default()),
            (Data::Float64(d), Data::Float64(s)) => d.push(s.get(i).copied().unwrap_or_default()),
            (Data::Bool(d), Data::Bool(s)) => d.push(s.get(i).copied().unwrap_or_default()),
            (Data::Text(d), Data::Text(s)) => d.push(s.get(i))?,
            _ => return self.push_value(&src.value(i)),
        }
        self.valid.push(true);
        Ok(())
    }

    /// The lanes at `idx`, in that order (a lane may repeat). An index
    /// past the end is an internal error. Validity is packed a word at a
    /// time, and one ascending run of consecutive indices (a selection)
    /// copies as a slice.
    pub fn gather(&self, idx: &[usize]) -> Result<Column> {
        let sorted = idx.is_sorted_by(|a, b| a < b);
        // Ascending lanes are in range if the last one is.
        let lanes = idx.iter().rev().take(if sorted { 1 } else { idx.len() });
        if let Some(i) = lanes.copied().find(|&i| i >= self.len()) {
            return Err(NoDbError::internal(format!(
                "lane {i} gathered from a column of {} lanes",
                self.len()
            )));
        }
        // One ascending run: the lanes `first..=last`.
        if let (true, Some(&a), Some(&b)) = (sorted, idx.first(), idx.last()) {
            if b - a + 1 == idx.len() {
                return Ok(self.slice(a, idx.len()));
            }
        }
        let valid = match self.null_count() {
            0 => Bitmap::ones(idx.len()),
            _ => self.valid.gather(idx),
        };
        let data = match &self.data {
            Data::Int32(v) => Data::Int32(gather_vec(v, idx)),
            Data::Int64(v) => Data::Int64(gather_vec(v, idx)),
            Data::Float64(v) => Data::Float64(gather_vec(v, idx)),
            Data::Date(v) => Data::Date(gather_vec(v, idx)),
            Data::Bool(v) => Data::Bool(gather_vec(v, idx)),
            Data::Text(t) => {
                // Each run of consecutive lanes in one copy.
                let mut out = TextArena::with_capacity(idx.len());
                for run in idx.chunk_by(|a, b| a + 1 == *b) {
                    if let (Some(&a), Some(&b)) = (run.first(), run.last()) {
                        out.extend_range(t, a, b + 1)?;
                    }
                }
                Data::Text(out)
            }
        };
        Ok(Column { data, valid })
    }

    /// Lanes `start..start + n`, copied.
    pub fn slice(&self, start: usize, n: usize) -> Column {
        let mut out = Column::with_capacity(self.dtype(), n);
        // A subset of a column fits its offsets: this cannot fail.
        let _ = out.extend_from(self, start, n);
        out
    }

    /// Drop every lane past the first `n`.
    pub fn truncate(&mut self, n: usize) {
        each_vec!(&mut self.data, v => v.truncate(n), t => t.truncate(n));
        self.valid.truncate(n);
    }

    /// Append every lane of `other` (typed when the types agree).
    pub fn append(&mut self, other: &Column) -> Result<()> {
        self.extend_from(other, 0, other.len())
    }

    /// Append lanes `start..start + n` of `src` (typed, in bulk, when the
    /// types agree).
    pub fn extend_from(&mut self, src: &Column, start: usize, n: usize) -> Result<()> {
        let end = (start + n).min(src.len());
        let start = start.min(end);
        let range = start..end;
        match (&mut self.data, &src.data) {
            (Data::Int32(d), Data::Int32(s)) | (Data::Date(d), Data::Date(s)) => {
                d.extend_from_slice(s.get(range).unwrap_or_default())
            }
            (Data::Int64(d), Data::Int64(s)) => {
                d.extend_from_slice(s.get(range).unwrap_or_default())
            }
            (Data::Float64(d), Data::Float64(s)) => {
                d.extend_from_slice(s.get(range).unwrap_or_default())
            }
            (Data::Bool(d), Data::Bool(s)) => d.extend_from_slice(s.get(range).unwrap_or_default()),
            (Data::Text(d), Data::Text(s)) => d.extend_range(s, start, end)?,
            _ => {
                for i in range {
                    self.push_from(src, i)?;
                }
                return Ok(());
            }
        }
        self.valid.extend_from(&src.valid, start, end - start);
        Ok(())
    }

    /// Bytes held by the values and the validity bitmap.
    pub fn bytes(&self) -> usize {
        let data = match &self.data {
            Data::Int32(v) | Data::Date(v) => v.len() * 4,
            Data::Int64(v) => v.len() * 8,
            Data::Float64(v) => v.len() * 8,
            Data::Bool(v) => v.len(),
            Data::Text(t) => t.heap_bytes(),
        };
        data + self.valid.bytes()
    }

    /// Release spare capacity.
    pub fn shrink_to_fit(&mut self) {
        each_vec!(&mut self.data, v => v.shrink_to_fit(), t => {
            t.bytes.shrink_to_fit();
            t.offsets.shrink_to_fit();
        });
    }

    /// Sort order of lanes `a` and `b`: NULLs first, then by value, as
    /// [`Value::total_cmp`] orders the values they hold.
    #[inline]
    pub fn cmp_lanes(&self, a: usize, b: usize) -> Ordering {
        match (self.is_valid(a), self.is_valid(b)) {
            (false, false) => return Ordering::Equal,
            (false, true) => return Ordering::Less,
            (true, false) => return Ordering::Greater,
            _ => {}
        }
        let at = |v: &[i32], i: usize| v.get(i).copied().unwrap_or_default();
        match &self.data {
            Data::Int32(v) | Data::Date(v) => at(v, a).cmp(&at(v, b)),
            Data::Int64(v) => v.get(a).cmp(&v.get(b)),
            Data::Float64(v) => v.get(a).partial_cmp(&v.get(b)).unwrap_or(Ordering::Equal),
            Data::Bool(v) => v.get(a).cmp(&v.get(b)),
            Data::Text(t) => t.get(a).cmp(t.get(b)),
        }
    }

    /// [`Value::sql_cmp`] of lane `i` against `other`, without building
    /// the lane's value.
    pub fn sql_cmp_value(&self, i: usize, other: &Value) -> Option<Ordering> {
        if !self.is_valid(i) {
            return None;
        }
        match (&self.data, other) {
            (Data::Int32(v), Value::Int32(x)) => v.get(i).map(|a| a.cmp(x)),
            (Data::Int64(v), Value::Int64(x)) => v.get(i).map(|a| a.cmp(x)),
            (Data::Date(v), Value::Date(x)) => v.get(i).map(|a| a.cmp(&x.days())),
            (Data::Text(t), Value::Text(x)) => Some(t.get(i).cmp(x.as_str())),
            _ => self.value(i).sql_cmp(other),
        }
    }
}

fn zero_invalid<T: Copy>(v: &mut [T], valid: &[bool], zero: T) {
    for (x, &ok) in v.iter_mut().zip(valid) {
        if !ok {
            *x = zero;
        }
    }
}

/// Push `wrap(v[i])` (NULL where `valid(i)` is false) onto row `i`.
fn push_lanes<T: Copy>(
    rows: &mut [Row],
    v: &[T],
    valid: impl Fn(usize) -> bool,
    wrap: impl Fn(T) -> Value,
) {
    for (i, (row, &x)) in rows.iter_mut().zip(v).enumerate() {
        row.push(if valid(i) { wrap(x) } else { Value::Null });
    }
}

fn gather_vec<T: Copy + Default>(v: &[T], idx: &[usize]) -> Vec<T> {
    idx.iter()
        .map(|&i| v.get(i).copied().unwrap_or_default())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample() -> Column {
        Column::from_values(
            DataType::Text,
            &[
                Value::Text("ab".into()),
                Value::Null,
                Value::Text("".into()),
                Value::Text("xyz".into()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn values_round_trip_through_every_type() {
        let cases = [
            (DataType::Int32, Value::Int32(-3)),
            (DataType::Int64, Value::Int64(1 << 40)),
            (DataType::Float64, Value::Float64(2.5)),
            (DataType::Date, Value::Date(Date(-5))),
            (DataType::Bool, Value::Bool(true)),
            (DataType::Text, Value::Text("hé".into())),
        ];
        for (dt, v) in cases {
            let c = Column::from_values(dt, &[v.clone(), Value::Null]).unwrap();
            assert_eq!(c.dtype(), dt);
            assert_eq!((c.value(0), c.value(1)), (v, Value::Null));
            assert_eq!(c.null_count(), 1);
        }
    }

    #[test]
    fn gather_filter_slice_and_append_keep_lanes() {
        let c = sample();
        let g = c.gather(&[3, 1, 0, 3]).unwrap();
        let got: Vec<Value> = (0..4).map(|i| g.value(i)).collect();
        assert_eq!(got, [c.value(3), Value::Null, c.value(0), c.value(3)]);
        let f = c.gather(&[0, 1, 3]).unwrap();
        assert_eq!((f.value(1), f.value(2)), (Value::Null, c.value(3)));
        // A whole word of dropped lanes first, then the kept ones.
        let mut vals = vec![Value::Int64(7); 128];
        vals[100] = Value::Null;
        let c128 = Column::from_values(DataType::Int64, &vals).unwrap();
        let keep: Vec<usize> = (64..128).collect();
        let f = c128.gather(&keep).unwrap();
        let want: Vec<Value> = (64..128).map(|i| c128.value(i)).collect();
        assert_eq!((0..64).map(|i| f.value(i)).collect::<Vec<_>>(), want);
        let s = c.slice(1, 2);
        assert_eq!((s.len(), s.value(1)), (2, c.value(2)));
        let mut a = c.slice(0, 1);
        a.append(&c).unwrap();
        assert_eq!((a.len(), a.value(4)), (5, c.value(3)));
        let mut t = c.clone();
        t.truncate(1);
        assert_eq!(t, c.slice(0, 1));
    }

    /// A selection whose lanes and NULLs straddle 64-lane words gathers
    /// what `push_from` copies lane by lane, for fixed-width and text
    /// columns, and so does the same list out of order.
    #[test]
    fn sorted_gather_across_words_matches_push_from() {
        let flags: Vec<bool> = (0..200)
            .map(|i| i % 7 != 3 && !(60..70).contains(&i))
            .collect();
        let sel = [
            0, 1, 2, 62, 63, 64, 65, 66, 127, 128, 129, 130, 140, 191, 192, 199,
        ];
        for text in [false, true] {
            let src = lanes(&flags, text);
            let mut want = Column::new(src.dtype());
            sel.iter().for_each(|&i| want.push_from(&src, i).unwrap());
            let got = src.gather(&sel).unwrap();
            assert_eq!(got, want);
            assert_bits(&got.valid, &sel.map(|i| src.is_valid(i)));
            let rev: Vec<usize> = sel.iter().rev().copied().collect();
            let mut want = Column::new(src.dtype());
            rev.iter().for_each(|&i| want.push_from(&src, i).unwrap());
            assert_eq!(src.gather(&rev).unwrap(), want);
        }
    }

    /// A lane past the end is an error whether or not the column has a
    /// NULL (it used to read as a default value in one case and as NULL
    /// in the other).
    #[test]
    fn gather_past_the_end_is_an_error() {
        let null_free = Column::from_values(DataType::Int32, &[Value::Int32(1)]).unwrap();
        for c in [sample(), null_free] {
            let err = c.gather(&[0, c.len()]).unwrap_err();
            assert!(matches!(err, NoDbError::Internal(_)), "{err}");
            assert_eq!(c.gather(&[0]).unwrap().value(0), c.value(0));
        }
    }

    #[test]
    fn push_value_widens_numbers_and_retypes_nulls() {
        let mut c = Column::new(DataType::Int32);
        c.push_value(&Value::Int32(1)).unwrap();
        c.push_value(&Value::Float64(0.5)).unwrap();
        assert_eq!(c.dtype(), DataType::Float64);
        assert_eq!(c.value(0), Value::Float64(1.0));
        assert!(c.push_value(&Value::Text("x".into())).is_err());
        let mut n = Column::nulls(DataType::Bool, 2);
        n.push_value(&Value::Text("x".into())).unwrap();
        assert_eq!((n.dtype(), n.null_count()), (DataType::Text, 2));
    }

    #[test]
    fn lane_order_matches_value_order() {
        let c = Column::from_values(
            DataType::Float64,
            &[
                Value::Float64(1.5),
                Value::Null,
                Value::Float64(-0.0),
                Value::Float64(0.0),
            ],
        )
        .unwrap();
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(c.cmp_lanes(a, b), c.value(a).total_cmp(&c.value(b)));
                assert_eq!(
                    c.sql_cmp_value(a, &c.value(b)),
                    c.value(a).sql_cmp(&c.value(b))
                );
            }
        }
    }

    #[test]
    fn bitmap_grows_and_truncates() {
        let mut b = Bitmap::default();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!((b.len(), b.count(), b.bytes()), (130, 44, 24));
        b.truncate(64);
        assert_eq!((b.len(), b.count(), b.bytes()), (64, 22, 8));
        assert!(b.get(63) && !b.get(64));
        let flags: Vec<bool> = (0..70).map(|i| i % 5 == 0).collect();
        let b = Bitmap::from_bools(&flags);
        assert!((0..70).all(|i| b.get(i) == flags[i]));
        let ones = Bitmap::ones(70);
        assert!((0..70).all(|i| ones.get(i)) && !ones.get(70));
        assert_eq!((ones.count(), ones.bytes()), (70, 16));
    }

    /// `b` holds exactly the bits of `want`: its length, one count and
    /// word count agree, and the bits past its end are zero.
    fn assert_bits(b: &Bitmap, want: &[bool]) {
        assert_eq!(b.len(), want.len());
        assert_eq!(b.count(), want.iter().filter(|&&x| x).count(), "ones");
        assert_eq!(b.words.len(), want.len().div_ceil(64), "words");
        for (i, &bit) in want.iter().enumerate() {
            assert_eq!(b.get(i), bit, "bit {i}");
        }
        if let (Some(last), tail @ 1..) = (b.words.last(), want.len() % 64) {
            assert_eq!(last >> tail, 0, "bits past the end");
        }
    }

    /// The bitmap of `bits`, built one `push` at a time.
    fn pushed(bits: &[bool]) -> Bitmap {
        let mut b = Bitmap::default();
        bits.iter().for_each(|&x| b.push(x));
        b
    }

    /// The lanes `start..start + n` of `src` (those it has) appended to
    /// `head` one `push_from` at a time.
    fn lane_by_lane(head: &Column, src: &Column, start: usize, n: usize) -> Column {
        let mut out = head.clone();
        for i in start..(start + n).min(src.len()) {
            out.push_from(src, i).unwrap();
        }
        out
    }

    /// A column of `flags.len()` lanes, NULL where the flag is false.
    fn lanes(flags: &[bool], text: bool) -> Column {
        let value = |i: usize| match text {
            true => Value::Text("x".repeat(i % 5)),
            false => Value::Int64(i as i64),
        };
        let values: Vec<Value> = (flags.iter().enumerate())
            .map(|(i, &ok)| if ok { value(i) } else { Value::Null })
            .collect();
        let dtype = if text {
            DataType::Text
        } else {
            DataType::Int64
        };
        Column::from_values(dtype, &values).unwrap()
    }

    proptest! {
        /// `push_n` from every start offset mod 64 (and across a word
        /// boundary) sets what `k` single pushes set.
        #[test]
        fn push_n_matches_single_pushes(bit in any::<bool>(), k in 0..200usize, seed in any::<u64>()) {
            for start in 0..130 {
                let mut want: Vec<bool> = (0..start).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
                let mut b = pushed(&want);
                b.push_n(bit, k);
                want.resize(start + k, bit);
                assert_bits(&b, &want);
            }
        }

        /// A word-wise range copy, then a truncate, hold the bits a
        /// bit-at-a-time copy holds.
        #[test]
        fn bitmap_copies_match_single_pushes(
            src in vec(any::<bool>(), 0..300),
            head in vec(any::<bool>(), 0..130),
            start in 0..320usize,
            n in 0..320usize,
            keep in 0..700usize,
        ) {
            let mut b = pushed(&head);
            b.extend_from(&pushed(&src), start, n);
            let mut want = head.clone();
            want.extend(src.iter().skip(start).take(n));
            assert_bits(&b, &want);
            b.truncate(keep);
            want.truncate(keep);
            assert_bits(&b, &want);
        }

        /// `extend_from`, `slice`, `append`, `truncate`, and `gather` of a
        /// selection (ascending) and of any index list, of a column with
        /// and without NULLs, at unaligned starts onto unaligned heads,
        /// equal the column `push_from` builds lane by lane.
        #[test]
        fn column_copies_match_lane_by_lane(
            valid in vec(any::<bool>(), 0..300),
            nulls in any::<bool>(),
            text in any::<bool>(),
            head in vec(any::<bool>(), 0..130),
            start in 0..320usize,
            n in 0..320usize,
            keep in 0..700usize,
            picks in (vec((any::<bool>(), 0..130usize), 0..6), vec(0..320usize, 0..200)),
        ) {
            // `keep` comes as runs, so whole words of dropped lanes occur.
            let (runs, idx) = picks;
            let lanes_kept: Vec<bool> = (runs.iter())
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
                .collect();
            let flags: Vec<bool> = valid.iter().map(|&v| v || !nulls).collect();
            let src = lanes(&flags, text);
            let head = lanes(&head, text);
            let mut got = head.clone();
            got.extend_from(&src, start, n).unwrap();
            let mut want = lane_by_lane(&head, &src, start, n);
            prop_assert_eq!(&got, &want);
            let flags_of = |c: &Column| (0..c.len()).map(|i| c.is_valid(i)).collect::<Vec<_>>();
            assert_bits(&got.valid, &flags_of(&want));
            let empty = Column::new(src.dtype());
            prop_assert_eq!(src.slice(start, n), lane_by_lane(&empty, &src, start, n));
            let picked = |lanes: &mut dyn Iterator<Item = usize>| {
                let mut out = empty.clone();
                lanes.for_each(|i| out.push_from(&src, i).unwrap());
                out
            };
            let kept: Vec<usize> = (0..src.len()).filter(|&i| lanes_kept.get(i) == Some(&true)).collect();
            let want_kept = picked(&mut kept.iter().copied());
            let got_kept = src.gather(&kept).unwrap();
            prop_assert_eq!(&got_kept, &want_kept);
            assert_bits(&got_kept.valid, &flags_of(&want_kept));
            let idx: Vec<usize> = idx.into_iter().filter(|&i| i < src.len()).collect();
            let got_picked = src.gather(&idx).unwrap();
            let want_picked = picked(&mut idx.iter().copied());
            prop_assert_eq!(&got_picked, &want_picked);
            assert_bits(&got_picked.valid, &flags_of(&want_picked));
            got.append(&src).unwrap();
            want = lane_by_lane(&want, &src, 0, src.len());
            prop_assert_eq!(&got, &want);
            got.truncate(keep);
            let want = lane_by_lane(&empty, &want, 0, keep);
            prop_assert_eq!(&got, &want);
            assert_bits(&got.valid, &flags_of(&want));
        }
    }
}
