//! The harness's own seeded input generators: `wide.csv`, `events.jsonl`
//! and `dim.csv`.
//!
//! They deliberately do not use the repository's `MicroGen`/`JsonlGen`: a
//! performance change may touch those, and the benchmark's inputs must
//! depend on `--seed` and `--scale` alone. Files are streamed to disk
//! (never held in memory, so the generator does not set the process's
//! peak RSS) and hashed on the way, so every result can name the exact
//! bytes it was measured on.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::rng::Rng;

/// Columns of `wide.csv`: `c0` .. `c149`, all `int`.
pub const WIDE_COLS: usize = 150;
/// Values of `wide.csv` are uniform in `0..WIDE_VALUE_RANGE`, so
/// `cK < WIDE_VALUE_RANGE / 10` selects one row in ten.
pub const WIDE_VALUE_RANGE: u64 = 1_000_000_000;
/// Rows of `wide.csv` at `--scale 1` (about 59 MB).
pub const WIDE_ROWS: usize = 40_000;
/// Rows of `events.jsonl` at `--scale 1` (about 11 MB).
pub const EVENT_ROWS: usize = 60_000;
/// Rows of `dim.csv`; does not scale.
pub const DIM_ROWS: usize = 2_000;

/// Schema of `events.jsonl`; `score` and `note` are missing on some rows.
pub const EVENTS_SCHEMA: &str = "event_id bigint, user_id int, ts bigint, kind text, \
     region text, latency_ms int, bytes int, status int, score double, session text, \
     ok bool, note text";
/// Schema of `dim.csv`, one row per user.
pub const DIM_SCHEMA: &str = "uid int, tier text, country text, credit int";

const KINDS: [&str; 8] = [
    "view", "click", "search", "cart", "purchase", "login", "logout", "error",
];
const REGIONS: [&str; 12] = [
    "us-east", "us-west", "eu-west", "eu-north", "eu-south", "ap-south", "ap-east", "ap-north",
    "sa-east", "af-south", "me-west", "ca-north",
];
const STATUSES: [u32; 5] = [200, 204, 301, 404, 500];
const TIERS: [&str; 4] = ["free", "basic", "pro", "enterprise"];
const WORDS: [&str; 10] = [
    "retry", "timeout", "cached", "slow", "mobile", "desktop", "bot", "partial", "ok", "stale",
];

/// A generated file and the identity of its bytes.
#[derive(Debug, Clone)]
pub struct InputFile {
    pub path: PathBuf,
    pub bytes: u64,
    /// FNV-1a (64-bit) of the content.
    pub fnv1a: u64,
}

/// `wide.csv` plus where each row starts (`row_starts[rows]` is the file
/// length), which `churn_sequence` needs to cut the file at row
/// boundaries.
#[derive(Debug, Clone)]
pub struct WideFile {
    pub file: InputFile,
    pub rows: usize,
    pub row_starts: Vec<u64>,
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Buffered file writer that counts and hashes what passes through.
struct HashedWriter {
    out: BufWriter<File>,
    bytes: u64,
    hash: u64,
}

impl HashedWriter {
    fn create(path: &Path) -> std::io::Result<HashedWriter> {
        Ok(HashedWriter {
            out: BufWriter::with_capacity(1 << 16, File::create(path)?),
            bytes: 0,
            hash: FNV_OFFSET,
        })
    }

    fn put(&mut self, chunk: &[u8]) -> std::io::Result<()> {
        self.bytes += chunk.len() as u64;
        self.hash = fnv1a(self.hash, chunk);
        self.out.write_all(chunk)
    }

    fn finish(mut self, path: &Path) -> std::io::Result<InputFile> {
        self.out.flush()?;
        Ok(InputFile {
            path: path.to_path_buf(),
            bytes: self.bytes,
            fnv1a: self.hash,
        })
    }
}

/// Append the decimal digits of `v` to `line`.
fn push_uint(line: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    line.extend_from_slice(&digits[at..]);
}

/// Schema text of `wide.csv`.
pub fn wide_schema() -> String {
    (0..WIDE_COLS)
        .map(|c| format!("c{c} int"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Write `rows` rows of [`WIDE_COLS`] uniform integers.
pub fn gen_wide(dir: &Path, seed: u64, rows: usize) -> std::io::Result<WideFile> {
    let path = dir.join("wide.csv");
    let mut out = HashedWriter::create(&path)?;
    let mut rng = Rng::new(seed, 1);
    let mut row_starts = Vec::with_capacity(rows + 1);
    let mut line = Vec::with_capacity(WIDE_COLS * 11);
    for _ in 0..rows {
        row_starts.push(out.bytes);
        line.clear();
        for c in 0..WIDE_COLS {
            if c > 0 {
                line.push(b',');
            }
            push_uint(&mut line, rng.below(WIDE_VALUE_RANGE));
        }
        line.push(b'\n');
        out.put(&line)?;
    }
    row_starts.push(out.bytes);
    Ok(WideFile {
        file: out.finish(&path)?,
        rows,
        row_starts,
    })
}

/// Write `rows` JSON objects of up to twelve keys. `event_id` is dense
/// (`0..rows`), `user_id` is uniform over [`DIM_ROWS`] users, `score` is
/// missing on one row in ten and `note` on three in ten, so the scan meets
/// absent keys as well as text.
pub fn gen_events(dir: &Path, seed: u64, rows: usize) -> std::io::Result<InputFile> {
    let path = dir.join("events.jsonl");
    let mut out = HashedWriter::create(&path)?;
    let mut rng = Rng::new(seed, 2);
    let mut line = String::with_capacity(320);
    let mut ts = 1_700_000_000_000u64;
    for id in 0..rows {
        use std::fmt::Write as _;
        ts += 1 + rng.below(2_000);
        line.clear();
        let pick = |rng: &mut Rng, n: usize| rng.below(n as u64) as usize;
        write!(
            line,
            "{{\"event_id\":{id},\"user_id\":{},\"ts\":{ts},\"kind\":\"{}\",\"region\":\"{}\",\
             \"latency_ms\":{},\"bytes\":{},\"status\":{}",
            rng.below(DIM_ROWS as u64),
            KINDS[pick(&mut rng, KINDS.len())],
            REGIONS[pick(&mut rng, REGIONS.len())],
            rng.below(2_000),
            rng.below(1_000_000),
            STATUSES[pick(&mut rng, STATUSES.len())],
        )
        .expect("writing to a String cannot fail");
        if rng.below(10) != 0 {
            write!(
                line,
                ",\"score\":{}.{:03}",
                rng.below(100),
                rng.below(1_000)
            )
            .expect("writing to a String cannot fail");
        }
        write!(
            line,
            ",\"session\":\"s{:012x}\",\"ok\":{}",
            rng.below(1 << 48),
            rng.below(20) != 0
        )
        .expect("writing to a String cannot fail");
        if rng.below(10) >= 3 {
            write!(
                line,
                ",\"note\":\"{} {}\"",
                WORDS[pick(&mut rng, WORDS.len())],
                WORDS[pick(&mut rng, WORDS.len())]
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}\n");
        out.put(line.as_bytes())?;
    }
    out.finish(&path)
}

/// Write [`DIM_ROWS`] rows `uid,tier,country,credit`, one per user.
pub fn gen_dim(dir: &Path, seed: u64) -> std::io::Result<InputFile> {
    let path = dir.join("dim.csv");
    let mut out = HashedWriter::create(&path)?;
    let mut rng = Rng::new(seed, 3);
    for uid in 0..DIM_ROWS {
        let line = format!(
            "{uid},{},C{:02},{}\n",
            TIERS[rng.below(TIERS.len() as u64) as usize],
            rng.below(20),
            rng.below(10_000)
        );
        out.put(line.as_bytes())?;
    }
    out.finish(&path)
}

/// Hash and measure a file the harness did not write itself (the TPC-H
/// tables come from `nodb-tpch`).
pub fn identify(path: &Path) -> std::io::Result<InputFile> {
    use std::io::Read;
    let mut f = File::open(path)?;
    let mut buf = vec![0u8; 1 << 16];
    let (mut bytes, mut hash) = (0u64, FNV_OFFSET);
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        bytes += n as u64;
        hash = fnv1a(hash, &buf[..n]);
    }
    Ok(InputFile {
        path: path.to_path_buf(),
        bytes,
        fnv1a: hash,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_bytes_and_row_starts_are_line_starts() {
        let dir = nodb_common::TempDir::new("bench-datagen").unwrap();
        let a = gen_wide(dir.path(), 7, 50).unwrap();
        let bytes = std::fs::read(&a.file.path).unwrap();
        let b = gen_wide(dir.path(), 7, 50).unwrap();
        assert_eq!(a.file.fnv1a, b.file.fnv1a);
        assert_eq!(a.file.fnv1a, fnv1a(FNV_OFFSET, &bytes));
        assert_eq!(a.file.bytes, bytes.len() as u64);
        assert_eq!(*a.row_starts.last().unwrap(), a.file.bytes);
        for &s in &a.row_starts[1..] {
            assert_eq!(bytes[s as usize - 1], b'\n');
        }
        let other = gen_wide(dir.path(), 8, 50).unwrap();
        assert_ne!(a.file.fnv1a, other.file.fnv1a);
        let first = bytes.split(|&b| b == b'\n').next().unwrap();
        assert_eq!(first.split(|&b| b == b',').count(), WIDE_COLS);
        let events = gen_events(dir.path(), 7, 40).unwrap();
        assert_eq!(identify(&events.path).unwrap().fnv1a, events.fnv1a);
    }
}
