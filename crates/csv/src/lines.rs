//! File access paths for the in-situ scan.
//!
//! Every path reads the raw file through positioned reads on one
//! [`ByteSource`]:
//!
//! * **Sequential tokenization** of every line — the first query on a file,
//!   or any region the positional map does not cover. One [`LineReader`]
//!   per scan runs from its start offset to the end of the file, keeps one
//!   buffer and lends runs of whole lines out of it
//!   ([`LineReader::next_lines`]); no line is copied.
//! * **Position-driven access** — once the end-of-line index covers a
//!   block, the scan (in `nodb-core`) knows where its lines start and
//!   reads a run of them with one positioned read into a reused buffer
//!   ([`LineRun::unread`]), only when a value must come from the file.
//!
//! Both hand the scan a [`LineRun`]: whole lines in one buffer, and where
//! each starts. A line is a record as the format frames it
//! ([`Framing`]): up to a newline, or a fixed number of bytes within the
//! file's data region, found by stride with no newline search.

use std::path::Path;
use std::time::Instant;

use nodb_common::{swar, ByteSource, Framing, IoBackend, NoDbError, Result};

/// Default I/O buffer: large enough to make syscall overhead irrelevant,
/// small enough to stay cache-friendly.
pub const DEFAULT_BUF: usize = 1 << 20;

/// Sequential line reader with explicit byte offsets. It fills one buffer
/// with positioned reads and lends each line as a slice of it. A line
/// that runs past the buffered bytes is moved to the front of the buffer
/// before the next read; a line longer than the whole buffer makes the
/// buffer grow.
pub struct LineReader {
    src: ByteSource,
    framing: Framing,
    /// Byte offset of the *next* line to be returned: the file offset of
    /// `buf[pos]`.
    offset: u64,
    /// Buffered file bytes; `buf[pos..filled]` is not yet returned.
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
    /// Smallest buffer a read allocates ([`DEFAULT_BUF`]; tests shrink it
    /// to make lines cross reads).
    min_buf: usize,
    /// Bounds of the line [`LineReader::next_line`] reads, reused.
    spare: Vec<u64>,
}

impl LineReader {
    /// Open a file for sequential line reading.
    pub fn open(path: &Path) -> Result<LineReader> {
        Self::open_at(path, 0, Framing::Newline)
    }

    /// Open and skip to `offset` (e.g. resume after a header or an append
    /// high-water mark), reading records framed by `framing`. `offset`
    /// must be a record start; for fixed-width records, an offset before
    /// their region means its start.
    pub fn open_at(path: &Path, offset: u64, framing: Framing) -> Result<LineReader> {
        let offset = match framing {
            Framing::Fixed { start, .. } => offset.max(start),
            Framing::Newline => offset,
        };
        Ok(LineReader {
            src: ByteSource::open(path, IoBackend::Read)?,
            framing,
            offset,
            buf: Vec::new(),
            pos: 0,
            filled: 0,
            min_buf: DEFAULT_BUF,
            spare: Vec::new(),
        })
    }

    /// Byte offset where the *next* line starts (equivalently: one past
    /// the end of the last line returned, including its newline bytes).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Up to `max` whole lines at once, lent out of the reader's buffer
    /// until the next call, with `bounds` (cleared first) as the run's
    /// bounds. Only lines already buffered are lent, and the file is read
    /// only when none is; the run is empty at the end of the file, and a
    /// final line without a newline is lent whole. Fixed-width records
    /// are lent the same way up to the end of their region; a file that
    /// ends inside it fails with a parse error.
    pub fn next_lines<'a>(
        &'a mut self,
        max: usize,
        bounds: &'a mut Vec<u64>,
    ) -> Result<LineRun<'a>> {
        bounds.clear();
        if let Framing::Fixed { width, end, .. } = self.framing {
            return self.next_records(max, width, end, bounds);
        }
        // Buffer index of the next line, and bytes of it already searched
        // for a newline.
        let mut at = self.pos;
        let mut searched = 0;
        while bounds.len() < max {
            let pending = self.buf.get(at + searched..self.filled).unwrap_or_default();
            let len = match swar::find_byte(pending, b'\n') {
                Some(i) => searched + i + 1,
                None if !bounds.is_empty() => break,
                None => {
                    // No whole line is buffered: `fill` moves the pending
                    // bytes (`at` is `pos`) to the front.
                    searched = self.filled - at;
                    let more = self.fill()?;
                    at = self.pos;
                    match (more, searched) {
                        (true, _) => continue,
                        (false, 0) => break,
                        // A final line without a newline.
                        (false, _) => searched,
                    }
                }
            };
            bounds.push(self.offset);
            at += len;
            self.offset += len as u64;
            searched = 0;
        }
        let first = std::mem::replace(&mut self.pos, at);
        if !bounds.is_empty() {
            bounds.push(self.offset);
        }
        Ok(LineRun::lent(bounds, self.buf.get(first..at), true))
    }

    /// [`LineReader::next_lines`] over records of `width` bytes whose
    /// region ends at byte `end`.
    fn next_records<'a>(
        &'a mut self,
        max: usize,
        width: usize,
        end: u64,
        bounds: &'a mut Vec<u64>,
    ) -> Result<LineRun<'a>> {
        let left = end.saturating_sub(self.offset).checked_div(width as u64);
        // At most `max`, so the cast keeps every bit.
        let want = left.map_or(0, |left| left.min(max as u64) as usize);
        while want > 0 && self.filled - self.pos < width {
            if !self.fill()? {
                return Err(NoDbError::parse(format!(
                    "the file ends at byte {}, inside its data, which ends at byte {end}",
                    self.src.len()
                )));
            }
        }
        let n = want.min((self.filled - self.pos).checked_div(width).unwrap_or(0));
        bounds.extend((0..=n).map(|i| self.offset + (i * width) as u64));
        let first = self.pos;
        self.pos += n * width;
        self.offset += (n * width) as u64;
        Ok(LineRun::lent(bounds, self.buf.get(first..self.pos), false))
    }

    /// The next line, copied into `buf` (cleared first) without its
    /// newline (see [`LineRun::line`]). Returns the line's start offset,
    /// or `None` at the end of the file.
    pub fn next_line(&mut self, buf: &mut Vec<u8>) -> Result<Option<u64>> {
        buf.clear();
        let mut bounds = std::mem::take(&mut self.spare);
        let mut run = self.next_lines(1, &mut bounds)?;
        let start = run.start(0);
        if start.is_some() {
            buf.extend_from_slice(run.line(0)?);
        }
        self.spare = bounds;
        Ok(start)
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

/// A run of whole lines in one buffer, as a scan forms them: each line's
/// start offset and then the end of the last line (`bounds`), and the
/// bytes in between — lent by a [`LineReader`], or read with one
/// positioned read when a line is first asked for, so that a run whose
/// values all come from elsewhere reads nothing.
pub struct LineRun<'a> {
    bounds: &'a [u64],
    bytes: Option<&'a [u8]>,
    /// The source and buffer to read the bytes with while they are unread.
    unread: Option<(&'a ByteSource, &'a mut Vec<u8>)>,
    /// Whether lines end with a newline, which [`LineRun::line`] strips.
    newline: bool,
    /// Nanoseconds spent reading the run, and bytes read (both zero for a
    /// lent run or one never read).
    pub read_ns: u64,
    /// Bytes read.
    pub read_bytes: u64,
}

/// No lines: what a run the cache answers whole carries, so that it
/// neither opens nor reads the file.
impl Default for LineRun<'_> {
    fn default() -> Self {
        LineRun::lent(&[], None, true)
    }
}

impl<'a> LineRun<'a> {
    /// The records bounded by `bounds` and framed by `framing`, to be read
    /// from `src` into `buf` on first use. A file now shorter than the run
    /// fails that read.
    pub fn unread(
        bounds: &'a [u64],
        src: &'a ByteSource,
        buf: &'a mut Vec<u8>,
        framing: Framing,
    ) -> LineRun<'a> {
        LineRun {
            unread: Some((src, buf)),
            ..LineRun::lent(bounds, None, framing == Framing::Newline)
        }
    }

    fn lent(bounds: &'a [u64], bytes: Option<&'a [u8]>, newline: bool) -> LineRun<'a> {
        LineRun {
            bounds,
            bytes,
            unread: None,
            newline,
            read_ns: 0,
            read_bytes: 0,
        }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// No lines?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each line's start offset, in order.
    pub fn starts(&self) -> &'a [u64] {
        self.bounds.get(..self.len()).unwrap_or_default()
    }

    /// File offset where line `r` starts.
    pub fn start(&self, r: usize) -> Option<u64> {
        self.starts().get(r).copied()
    }

    /// Line `r` without its newline and one `\r` before it (a last line
    /// without a newline, and a fixed-width record, is whole), reading the
    /// run first if it is unread.
    #[inline]
    pub fn line(&mut self, r: usize) -> Result<&'a [u8]> {
        let missing = || NoDbError::internal(format!("line {r} is not in its run"));
        let bound = |i: usize| self.bounds.get(i).copied().ok_or_else(missing);
        let (base, end, start, next) = (bound(0)?, bound(self.len())?, bound(r)?, bound(r + 1)?);
        if let (None, Some((src, buf))) = (self.bytes, self.unread.take()) {
            let started = Instant::now();
            buf.resize((end - base) as usize, 0);
            src.read_exact_at(base, buf)?;
            self.read_ns = started.elapsed().as_nanos() as u64;
            self.read_bytes = end - base;
            self.bytes = Some(&buf[..]);
        }
        let span = (start - base) as usize..(next - base) as usize;
        match self.bytes.and_then(|b| b.get(span)) {
            Some([line @ .., b'\r', b'\n'] | [line @ .., b'\n']) if self.newline => Ok(line),
            Some(line) => Ok(line),
            None => Err(missing()),
        }
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

    /// Every line `r` lends, with its offset, taking up to `max` lines a
    /// call.
    fn read_lines(r: &mut LineReader, max: usize) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        let mut bounds = Vec::new();
        loop {
            let mut run = r.next_lines(max, &mut bounds).unwrap();
            if run.is_empty() {
                return out;
            }
            assert!(run.len() <= max);
            for i in 0..run.len() {
                out.push((run.start(i).unwrap(), run.line(i).unwrap().to_vec()));
            }
        }
    }

    /// Every line `r` lends, a few at a time.
    fn read_all(r: &mut LineReader) -> Vec<(u64, Vec<u8>)> {
        read_lines(r, 3)
    }

    /// Offsets and lines over inputs that cross the buffer's edges: a
    /// final line without a newline, a line longer than the default
    /// buffer, a `\r\n` whose `\r` ends one read and whose `\n` starts the
    /// next, and a reader opened mid-file.
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

        // 200 short lines; the reader starts at line 20 and runs to the end.
        let body: String = (0..200).map(|i| format!("{i},{}\n", i * 3)).collect();
        let (_td, p) = write_bytes(body.as_bytes());
        let start = split_by_hand(body.as_bytes(), 0, body.len())[20].0;
        let got = read_all(&mut LineReader::open_at(&p, start, Framing::Newline).unwrap());
        assert_eq!(
            got,
            split_by_hand(body.as_bytes(), start as usize, body.len())
        );
        assert_eq!(got.len(), 180);
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

        let mut r = LineReader::open_at(&p, 5002, Framing::Newline).unwrap();
        assert_eq!(r.next_line(&mut buf).unwrap(), Some(5002));
        assert_eq!(buf, b"tail");
    }

    #[test]
    fn open_at_resumes_mid_file() {
        let (_td, p) = write_file(&["abc", "de"]);
        let mut r = LineReader::open_at(&p, 4, Framing::Newline).unwrap();
        let mut buf = Vec::new();
        assert_eq!(r.next_line(&mut buf).unwrap(), Some(4));
        assert_eq!(buf, b"de");
    }

    #[test]
    fn line_reader_over_empty_file_is_done_immediately() {
        let (_td, p) = write_bytes(b"");
        let mut r = LineReader::open(&p).unwrap();
        assert_eq!(r.next_line(&mut Vec::new()).unwrap(), None);
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
        let mut buf = Vec::new();
        assert_eq!(r.next_line(&mut buf).unwrap(), Some(0));
        assert_eq!(buf, b"abc");
        std::fs::OpenOptions::new()
            .write(true)
            .open(&p)
            .unwrap()
            .set_len(4)
            .unwrap();
        match r.next_line(&mut buf) {
            Err(nodb_common::NoDbError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}")
            }
            other => panic!("expected a typed EOF error, got {other:?}"),
        }
    }

    /// A run over known bounds reads nothing until a line is asked for,
    /// then reads its range once; a file now shorter than a run fails it.
    #[test]
    fn unread_run_reads_on_first_use() {
        let (_td, p) = write_bytes(b"ab\r\ncd\nef");
        let src = ByteSource::open(&p, IoBackend::Read).unwrap();
        let mut buf = Vec::new();
        let bounds = [0, 4, 7, 9];
        let mut run = LineRun::unread(&bounds, &src, &mut buf, Framing::Newline);
        assert_eq!((run.len(), run.start(1), run.read_bytes), (3, Some(4), 0));
        assert_eq!(run.line(1).unwrap(), b"cd");
        assert_eq!(run.line(0).unwrap(), b"ab");
        assert_eq!(run.line(2).unwrap(), b"ef");
        assert_eq!(run.read_bytes, 9);
        assert!(run.line(3).is_err());
        assert!(LineRun::unread(&[0, 99], &src, &mut buf, Framing::Newline)
            .line(0)
            .is_err());
    }

    /// Fixed-width records come by stride from the start of their region
    /// to its end, whatever bytes they hold and whatever follows, through
    /// buffers small enough to cut records; a file that ends inside the
    /// region fails with a parse error after its whole records.
    #[test]
    fn fixed_width_records_frame_by_stride() {
        let records: [&[u8]; 4] = [b"a\r\n", b"\n\nb", b"xyz", b"\r\r\r"];
        let bytes = [b"HEAD".as_slice(), &records.concat(), b"\npad\n"].concat();
        let (_td, p) = write_bytes(&bytes);
        let framing = Framing::Fixed {
            width: 3,
            start: 4,
            end: 16,
        };
        let want: Vec<(u64, Vec<u8>)> = (records.iter().enumerate())
            .map(|(i, r)| (4 + 3 * i as u64, r.to_vec()))
            .collect();
        for (min_buf, max) in [(DEFAULT_BUF, 3), (1, 1), (4, 2), (5, 3)] {
            let mut r = LineReader::open_at(&p, 0, framing).unwrap();
            r.min_buf = min_buf;
            assert_eq!(read_lines(&mut r, max), want, "buffer {min_buf}, run {max}");
        }
        let mut r = LineReader::open_at(&p, 10, framing).unwrap();
        assert_eq!(read_all(&mut r), want[2..]);

        let cut = Framing::Fixed {
            width: 3,
            start: 4,
            end: 25,
        };
        let mut r = LineReader::open_at(&p, 0, cut).unwrap();
        let mut bounds = Vec::new();
        assert_eq!(r.next_lines(10, &mut bounds).unwrap().len(), 5);
        match r.next_lines(10, &mut bounds) {
            Err(NoDbError::Parse(m)) => assert!(m.contains("ends at byte 21"), "{m}"),
            other => panic!("expected a parse error, got {:?}", other.map(|r| r.len())),
        }
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
                max in 1usize..6,
            ) {
                let td = TempDir::new("nodb-swar-prop").unwrap();
                let p = td.file("d.bin");
                std::fs::write(&p, &body).unwrap();
                let want = split_by_hand(&body, 0, body.len());
                let mut r = LineReader::open(&p).unwrap();
                prop_assert_eq!(&read_all(&mut r), &want);
                let mut r = LineReader::open(&p).unwrap();
                r.min_buf = min_buf;
                prop_assert_eq!(&read_lines(&mut r, max), &want);
            }
        }
    }
}
