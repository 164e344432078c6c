//! File access paths for the in-situ scan.
//!
//! Every path reads the raw file through positioned reads on one
//! [`ByteSource`]:
//!
//! * **Sequential tokenization** of every line — the first query on a file,
//!   or any region the positional map does not cover. [`LineReader`] keeps
//!   one buffer and lends each line out of it
//!   ([`LineReader::next_line_ref`]); no line is copied.
//! * **Chunked parallel tokenization** — a cold scan splits the file into
//!   line-aligned byte ranges ([`split_line_aligned`]) and hands each to a
//!   worker thread, which reads it with a bounded [`LineReader`]
//!   ([`LineReader::open_range`] or, when sharing one open file,
//!   [`LineReader::from_source`]). Every byte of the region belongs to
//!   exactly one chunk, and no line straddles a chunk boundary.
//! * **Position-driven access** — once the end-of-line index covers a
//!   block, the scan (in `nodb-core`) reads the block's byte range into
//!   one reused buffer with positioned reads and slices its rows out of
//!   it.

use std::path::Path;
use std::sync::Arc;

use nodb_common::{swar, ByteSource, IoBackend, Result};

/// Default I/O buffer: large enough to make syscall overhead irrelevant,
/// small enough to stay cache-friendly.
pub const DEFAULT_BUF: usize = 1 << 20;

/// A half-open byte range `[start, end)` of a file, aligned so that
/// `start` is a line start and `end` is one past a line end (or the file
/// end). Produced by [`split_line_aligned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteRange {
    /// First byte of the range (a line start).
    pub start: u64,
    /// One past the last byte (one past a `\n`, or the file length).
    pub end: u64,
}

impl ByteRange {
    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Split the file region `[start, end)` into at most `chunks` line-aligned
/// byte ranges of roughly equal size. See [`split_line_aligned_src`].
pub fn split_line_aligned(
    path: &Path,
    start: u64,
    end: u64,
    chunks: usize,
) -> Result<Vec<ByteRange>> {
    split_line_aligned_src(
        &ByteSource::open(path, IoBackend::Read)?,
        start,
        end,
        chunks,
    )
}

/// Split the file region `[start, end)` of an already-open [`ByteSource`]
/// into at most `chunks` line-aligned byte ranges of roughly equal size.
///
/// `start` must itself be a line start. Internal boundaries are moved
/// forward to the byte just past the next `\n`, so every line falls into
/// exactly one chunk and the chunks cover every byte of the region exactly
/// once (a trailing line without a final newline goes to the last chunk).
/// Fewer than `chunks` ranges are returned when lines are too long or the
/// region is too small to split further; an empty region yields no ranges.
pub fn split_line_aligned_src(
    src: &ByteSource,
    start: u64,
    end: u64,
    chunks: usize,
) -> Result<Vec<ByteRange>> {
    if end <= start {
        return Ok(Vec::new());
    }
    let chunks = chunks.max(1) as u64;
    let len = end - start;
    let target = len.div_ceil(chunks).max(1);
    let mut ranges = Vec::with_capacity(chunks as usize);
    let mut cur = start;
    while cur < end {
        let goal = (cur + target).min(end);
        let boundary = if goal >= end {
            end
        } else {
            next_line_start(src, goal, end)?
        };
        ranges.push(ByteRange {
            start: cur,
            end: boundary,
        });
        cur = boundary;
    }
    Ok(ranges)
}

/// Find the start of the first line at or after `from`: scanning from
/// `from` for a `\n` and returning the position after it (clamped to
/// `end`).
fn next_line_start(src: &ByteSource, from: u64, end: u64) -> Result<u64> {
    let mut buf = [0u8; 8192];
    let mut pos = from;
    while pos < end {
        let want = buf.len().min((end - pos) as usize);
        let n = src.read_at(pos, &mut buf[..want])?;
        if n == 0 {
            return Ok(end);
        }
        if let Some(i) = swar::find_byte(&buf[..n], b'\n') {
            return Ok((pos + i as u64 + 1).min(end));
        }
        pos += n as u64;
    }
    Ok(end)
}

/// Sequential line reader with explicit byte offsets. It fills one buffer
/// with positioned reads and lends each line as a slice of it. A line
/// that runs past the buffered bytes is moved to the front of the buffer
/// before the next read; a line longer than the whole buffer makes the
/// buffer grow.
pub struct LineReader {
    src: Arc<ByteSource>,
    /// Byte offset of the *next* line to be returned: the file offset of
    /// `buf[pos]`.
    offset: u64,
    /// Reading stops once `offset` reaches this bound (`u64::MAX` for
    /// whole-file readers).
    end: u64,
    /// Buffered file bytes; `buf[pos..filled]` is not yet returned.
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
    /// Smallest buffer a read allocates ([`DEFAULT_BUF`]; tests shrink it
    /// to make lines cross reads).
    min_buf: usize,
}

impl LineReader {
    /// Open a file for sequential line reading.
    pub fn open(path: &Path) -> Result<LineReader> {
        Self::open_at(path, 0)
    }

    /// Open and skip to `offset` (e.g. resume after a header or an append
    /// high-water mark). `offset` must be a line start.
    pub fn open_at(path: &Path, offset: u64) -> Result<LineReader> {
        Self::open_range(
            path,
            ByteRange {
                start: offset,
                end: u64::MAX,
            },
        )
    }

    /// Open a reader bounded to the line-aligned `range` (one chunk of a
    /// parallel scan): lines are returned until `range.end` is reached.
    pub fn open_range(path: &Path, range: ByteRange) -> Result<LineReader> {
        Ok(Self::from_source(
            Arc::new(ByteSource::open(path, IoBackend::Read)?),
            range,
        ))
    }

    /// Read lines of `range` from an already-open shared source. This is
    /// the chunk-parallel fast path: the file is opened **once**, and every
    /// worker reads its own range through the same [`ByteSource`].
    pub fn from_source(src: Arc<ByteSource>, range: ByteRange) -> LineReader {
        LineReader {
            src,
            offset: range.start,
            end: range.end,
            buf: Vec::new(),
            pos: 0,
            filled: 0,
            min_buf: DEFAULT_BUF,
        }
    }

    /// Byte offset where the *next* line starts (equivalently: one past
    /// the end of the last line returned, including its newline bytes).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The next line — its start offset and its bytes, lent out of the
    /// reader's buffer until the next call — or `None` at the end of the
    /// range or file. The newline and one `\r` before it are stripped; a
    /// final line without a newline is returned whole.
    pub fn next_line_ref(&mut self) -> Result<Option<(u64, &[u8])>> {
        let start = self.offset;
        if start >= self.end {
            return Ok(None);
        }
        // Bytes of the pending line already searched for a newline.
        let mut searched = 0;
        let (len, consumed) = loop {
            if let Some(i) = swar::find_byte(&self.buf[self.pos + searched..self.filled], b'\n') {
                break (searched + i, searched + i + 1);
            }
            searched = self.filled - self.pos;
            if !self.fill()? {
                if searched == 0 {
                    return Ok(None);
                }
                break (searched, searched);
            }
        };
        let line_start = self.pos;
        self.pos += consumed;
        self.offset += consumed as u64;
        let mut line = &self.buf[line_start..line_start + len];
        if consumed > len && line.last() == Some(&b'\r') {
            line = &line[..len - 1];
        }
        Ok(Some((start, line)))
    }

    /// [`LineReader::next_line_ref`], copying the line into `buf`
    /// (cleared first). Returns the line's start offset.
    pub fn next_line(&mut self, buf: &mut Vec<u8>) -> Result<Option<u64>> {
        buf.clear();
        let Some((start, line)) = self.next_line_ref()? else {
            return Ok(None);
        };
        buf.extend_from_slice(line);
        Ok(Some(start))
    }

    /// Move the bytes not yet returned to the front of the buffer, grow
    /// the buffer if they fill it, and read the file bytes that follow
    /// them into the rest; false when the source has none left.
    fn fill(&mut self) -> Result<bool> {
        let pending = self.filled - self.pos;
        self.buf.copy_within(self.pos..self.filled, 0);
        self.pos = 0;
        self.filled = pending;
        let next = self.offset + pending as u64;
        if self.buf.len() == pending {
            // No bigger than what is left of the file: a small file never
            // allocates the full default buffer.
            let left = usize::try_from(self.src.len().saturating_sub(next)).unwrap_or(usize::MAX);
            let size = (2 * pending).max(self.min_buf);
            self.buf.resize(size.min(pending.saturating_add(left)), 0);
        }
        let n = self.src.read_at(next, &mut self.buf[pending..])?;
        self.filled += n;
        Ok(n > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::TempDir;

    fn write_file(lines: &[&str]) -> (TempDir, std::path::PathBuf) {
        let td = TempDir::new("nodb-csv").unwrap();
        let p = td.file("data.csv");
        std::fs::write(&p, lines.join("\n")).unwrap();
        (td, p)
    }

    fn write_bytes(bytes: &[u8]) -> (TempDir, std::path::PathBuf) {
        let td = TempDir::new("nodb-csv").unwrap();
        let p = td.file("data.csv");
        std::fs::write(&p, bytes).unwrap();
        (td, p)
    }

    /// The lines of `bytes` that start in `[start, end)`, split by hand:
    /// (offset, bytes) with the newline and one `\r` before it stripped.
    /// A final line without a newline keeps any trailing `\r`.
    fn split_by_hand(bytes: &[u8], start: usize, end: usize) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        let mut line_start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                let mut line = &bytes[line_start..i];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                out.push((line_start as u64, line.to_vec()));
                line_start = i + 1;
            }
        }
        if line_start < bytes.len() {
            out.push((line_start as u64, bytes[line_start..].to_vec()));
        }
        out.retain(|&(off, _)| (start as u64..end as u64).contains(&off));
        out
    }

    /// Every line `r` lends, with its offset.
    fn read_all(r: &mut LineReader) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some((off, line)) = r.next_line_ref().unwrap() {
            out.push((off, line.to_vec()));
        }
        out
    }

    /// Offsets and lines over inputs that cross the buffer's edges: a
    /// final line without a newline, a line longer than the default
    /// buffer, a `\r\n` whose `\r` ends one read and whose `\n` starts the
    /// next, and a range reader whose range ends inside its buffer.
    #[test]
    fn line_reader_tracks_offsets() {
        let long = vec![b'x'; DEFAULT_BUF + 10];
        let mut crlf_split = vec![b'y'; DEFAULT_BUF - 1];
        crlf_split.extend_from_slice(b"\r\nafter\n");
        let inputs: [Vec<u8>; 4] = [
            b"abc\nde\n\nfgh".to_vec(),
            [&long[..], b"\nshort\n"].concat(),
            [b"head\n", &long[..], b"\r\ntail"].concat(),
            crlf_split,
        ];
        for bytes in &inputs {
            let (_td, p) = write_bytes(bytes);
            let got = read_all(&mut LineReader::open(&p).unwrap());
            assert_eq!(got, split_by_hand(bytes, 0, bytes.len()));
        }
        let (_td, p) = write_bytes(&inputs[0]);
        let got = read_all(&mut LineReader::open(&p).unwrap());
        assert_eq!(got[3], (8, b"fgh".to_vec()));

        // 200 short lines; the range covers lines 20..60, and the reader's
        // first read buffers the rest of the file past the range end.
        let body: String = (0..200).map(|i| format!("{i},{}\n", i * 3)).collect();
        let (_td, p) = write_bytes(body.as_bytes());
        let starts: Vec<usize> = split_by_hand(body.as_bytes(), 0, body.len())
            .iter()
            .map(|&(off, _)| off as usize)
            .collect();
        let range = ByteRange {
            start: starts[20] as u64,
            end: starts[60] as u64,
        };
        let got = read_all(&mut LineReader::open_range(&p, range).unwrap());
        assert_eq!(got, split_by_hand(body.as_bytes(), starts[20], starts[60]));
        assert_eq!(got.len(), 40);
    }

    #[test]
    fn line_reader_handles_trailing_newline_and_crlf() {
        let (_td, p) = write_bytes(b"a\r\nb\n");
        let mut r = LineReader::open(&p).unwrap();
        let mut buf = Vec::new();
        assert_eq!(r.next_line(&mut buf).unwrap(), Some(0));
        assert_eq!(buf, b"a");
        assert_eq!(r.next_line(&mut buf).unwrap(), Some(3));
        assert_eq!(buf, b"b");
        assert_eq!(r.next_line(&mut buf).unwrap(), None);
    }

    /// A long line comes back whole and without its `\r\n`, and a reader
    /// opened at a known line offset serves the line that starts there.
    #[test]
    fn line_at_handles_crlf_and_long_lines() {
        // A long line ending in `\r\n`, then a tail without a newline.
        let long = "x".repeat(5000);
        let (_td, p) = write_bytes(format!("{long}\r\ntail").as_bytes());
        let mut buf = Vec::new();
        let mut r = LineReader::open(&p).unwrap();
        assert_eq!(r.next_line(&mut buf).unwrap(), Some(0));
        assert_eq!(buf, long.as_bytes());
        assert_eq!(r.next_line(&mut buf).unwrap(), Some(5002));
        assert_eq!(buf, b"tail");
        assert_eq!(r.next_line(&mut buf).unwrap(), None);

        let mut r = LineReader::open_at(&p, 5002).unwrap();
        assert_eq!(r.next_line(&mut buf).unwrap(), Some(5002));
        assert_eq!(buf, b"tail");
    }

    #[test]
    fn open_at_resumes_mid_file() {
        let (_td, p) = write_file(&["abc", "de"]);
        let mut r = LineReader::open_at(&p, 4).unwrap();
        let mut buf = Vec::new();
        assert_eq!(r.next_line(&mut buf).unwrap(), Some(4));
        assert_eq!(buf, b"de");
    }

    #[test]
    fn line_reader_over_empty_file_is_done_immediately() {
        let (_td, p) = write_bytes(b"");
        let mut r = LineReader::open(&p).unwrap();
        assert_eq!(r.next_line_ref().unwrap(), None);
    }

    /// A file that grows after the reader opened it serves exactly the
    /// bytes it had at open; a new reader sees the appended lines.
    #[test]
    fn line_reader_serves_the_length_seen_at_open() {
        let (_td, p) = write_bytes(b"1,10\n");
        let mut r = LineReader::open(&p).unwrap();
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        std::io::Write::write_all(&mut f, b"2,20\n").unwrap();
        drop(f);
        assert_eq!(read_all(&mut r), vec![(0, b"1,10".to_vec())]);
        let r = read_all(&mut LineReader::open(&p).unwrap());
        assert_eq!(r, vec![(0, b"1,10".to_vec()), (5, b"2,20".to_vec())]);
    }

    /// A file cut below the length the reader opened with fails the next
    /// read with a typed error instead of lending a cut-off line.
    #[test]
    fn line_reader_fails_typed_when_the_file_shrinks() {
        let (_td, p) = write_file(&["abc", "de", "fgh"]);
        let mut r = LineReader::open(&p).unwrap();
        r.min_buf = 2;
        assert_eq!(r.next_line_ref().unwrap(), Some((0, &b"abc"[..])));
        std::fs::OpenOptions::new()
            .write(true)
            .open(&p)
            .unwrap()
            .set_len(4)
            .unwrap();
        match r.next_line_ref() {
            Err(nodb_common::NoDbError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}")
            }
            other => panic!("expected a typed EOF error, got {other:?}"),
        }
    }

    /// Read all lines of `range` through a bounded reader.
    fn range_lines(p: &std::path::Path, range: ByteRange) -> Vec<Vec<u8>> {
        let mut r = LineReader::open_range(p, range).unwrap();
        let mut buf = Vec::new();
        let mut out = Vec::new();
        while r.next_line(&mut buf).unwrap().is_some() {
            out.push(buf.clone());
        }
        out
    }

    #[test]
    fn split_covers_region_exactly_once() {
        let (_td, p) = write_file(&["aaaa", "bb", "cccccc", "d", "ee", "ffff"]);
        let len = std::fs::metadata(&p).unwrap().len();
        for chunks in 1..=8 {
            let ranges = split_line_aligned(&p, 0, len, chunks).unwrap();
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= chunks.max(1));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous, non-overlapping");
                assert!(!w[0].is_empty());
            }
        }
    }

    #[test]
    fn split_boundaries_are_line_aligned() {
        let (_td, p) = write_file(&["aaaa", "bb", "cccccc", "d", "ee", "ffff"]);
        let data = std::fs::read(&p).unwrap();
        let ranges = split_line_aligned(&p, 0, data.len() as u64, 3).unwrap();
        for r in &ranges[1..] {
            assert_eq!(
                data[r.start as usize - 1],
                b'\n',
                "chunk start {} must follow a newline",
                r.start
            );
        }
    }

    #[test]
    fn split_of_empty_region_is_empty() {
        let (_td, p) = write_file(&["abc"]);
        assert!(split_line_aligned(&p, 3, 3, 4).unwrap().is_empty());
        assert!(split_line_aligned(&p, 5, 3, 4).unwrap().is_empty());
    }

    #[test]
    fn split_single_long_line_yields_one_chunk() {
        let td = TempDir::new("nodb-csv").unwrap();
        let p = td.file("d.csv");
        std::fs::write(&p, "x".repeat(10_000)).unwrap();
        let ranges = split_line_aligned(&p, 0, 10_000, 8).unwrap();
        assert_eq!(
            ranges,
            vec![ByteRange {
                start: 0,
                end: 10_000
            }]
        );
    }

    #[test]
    fn open_range_stops_at_chunk_end() {
        let (_td, p) = write_file(&["abc", "de", "fgh"]);
        // "abc\nde\nfgh" — chunk covering only the first two lines.
        let lines = range_lines(&p, ByteRange { start: 0, end: 7 });
        assert_eq!(lines, vec![b"abc".to_vec(), b"de".to_vec()]);
        let rest = range_lines(&p, ByteRange { start: 7, end: 10 });
        assert_eq!(rest, vec![b"fgh".to_vec()]);
    }

    #[test]
    fn shared_source_slices_ranges_like_private_readers() {
        let (_td, p) = write_file(&["abc", "de", "fgh", "ij"]);
        let len = std::fs::metadata(&p).unwrap().len();
        let src = Arc::new(ByteSource::open(&p, IoBackend::Read).unwrap());
        let ranges = split_line_aligned_src(&src, 0, len, 3).unwrap();
        let mut all = Vec::new();
        for r in &ranges {
            all.extend(read_all(&mut LineReader::from_source(Arc::clone(&src), *r)));
        }
        assert_eq!(all, read_all(&mut LineReader::open(&p).unwrap()));
    }

    mod chunking_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The SWAR newline scanner and the buffer refills against a
            /// scalar reference split, over arbitrary *binary* bodies
            /// (all byte values, embedded `\r`, runs of newlines, short
            /// tails straddling the 8-byte word) read through buffers from
            /// one byte up, so lines cross reads and outgrow the buffer.
            #[test]
            fn lines_match_scalar_split(
                body in proptest::collection::vec(
                    prop_oneof![Just(b'\n'), Just(b'\r'), any::<u8>()],
                    0..200,
                ),
                min_buf in 1usize..40,
            ) {
                let td = TempDir::new("nodb-swar-prop").unwrap();
                let p = td.file("d.bin");
                std::fs::write(&p, &body).unwrap();
                let want = split_by_hand(&body, 0, body.len());
                let mut r = LineReader::open(&p).unwrap();
                prop_assert_eq!(&read_all(&mut r), &want);
                let mut r = LineReader::open(&p).unwrap();
                r.min_buf = min_buf;
                prop_assert_eq!(&read_all(&mut r), &want);
            }

            /// Line-aligned chunking over arbitrary CSV-ish bodies covers
            /// every byte exactly once and never splits a line: reading
            /// the chunks in order — each chunk re-opening the file or
            /// all of them sharing one source — yields exactly the lines
            /// of the whole file, including trailing-newline /
            /// no-trailing-newline, empty-line and CRLF edge cases.
            #[test]
            fn chunking_partitions_lines_exactly(
                lines in proptest::collection::vec("[a-z,]{0,12}", 0..40),
                trailing_newline in any::<bool>(),
                crlf in any::<bool>(),
                chunks in 1usize..9,
            ) {
                let sep = if crlf { "\r\n" } else { "\n" };
                let mut body = lines.join(sep);
                if trailing_newline && !body.is_empty() {
                    body.push_str(sep);
                }
                let td = TempDir::new("nodb-csv-prop").unwrap();
                let p = td.file("d.csv");
                std::fs::write(&p, &body).unwrap();
                let len = body.len() as u64;

                let ranges = split_line_aligned(&p, 0, len, chunks).unwrap();

                // Exact coverage: contiguous, non-empty, spanning [0, len).
                let mut covered = 0u64;
                for r in &ranges {
                    prop_assert_eq!(r.start, covered);
                    prop_assert!(r.end > r.start);
                    covered = r.end;
                }
                prop_assert_eq!(covered, len);
                // Boundaries are line-aligned.
                let bytes = body.as_bytes();
                for r in ranges.iter().skip(1) {
                    prop_assert_eq!(bytes[r.start as usize - 1], b'\n');
                }
                // Reading the chunks in order reproduces the file's lines.
                let whole = read_all(&mut LineReader::open(&p).unwrap());
                let whole_lines: Vec<Vec<u8>> = whole.iter().map(|(_, l)| l.clone()).collect();
                let mut chunked = Vec::new();
                for r in &ranges {
                    chunked.extend(range_lines(&p, *r));
                }
                prop_assert_eq!(&chunked, &whole_lines);
                let src = Arc::new(ByteSource::open(&p, IoBackend::Read).unwrap());
                prop_assert_eq!(&split_line_aligned_src(&src, 0, len, chunks).unwrap(), &ranges);
                let mut shared = Vec::new();
                for r in &ranges {
                    shared.extend(read_all(&mut LineReader::from_source(Arc::clone(&src), *r)));
                }
                prop_assert_eq!(&shared, &whole);
            }
        }
    }
}
