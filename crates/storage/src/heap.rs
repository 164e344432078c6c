//! Heap files: a sequence of slotted pages on disk, plus an overflow file
//! for tuples larger than a page.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use nodb_common::{NoDbError, Result};

use crate::page::{Page, PAGE_SIZE};

/// Tag prefix for inline tuples.
pub const TAG_INLINE: u8 = 0;
/// Tag prefix for overflowed tuples (reference into the overflow file).
pub const TAG_OVERFLOW: u8 = 1;

/// A heap file under construction or being read.
///
/// Holds no open file handle: reads open on demand (the buffer pool
/// bounds how often that happens), so handles are cheap to clone across
/// scans.
#[derive(Debug, Clone)]
pub struct HeapFile {
    path: PathBuf,
    overflow_path: PathBuf,
    n_pages: u32,
    n_rows: u64,
    overflow_rows: u64,
}

impl HeapFile {
    /// Create a new heap (truncates existing files).
    pub fn create(path: &Path) -> Result<HeapFile> {
        let overflow_path = path.with_extension("ovf");
        File::create(path)?;
        File::create(&overflow_path)?;
        Ok(HeapFile {
            path: path.to_path_buf(),
            overflow_path,
            n_pages: 0,
            n_rows: 0,
            overflow_rows: 0,
        })
    }

    /// Pages written.
    pub fn n_pages(&self) -> u32 {
        self.n_pages
    }

    /// Rows written.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Rows that went through the overflow path.
    pub fn overflow_rows(&self) -> u64 {
        self.overflow_rows
    }

    /// Total bytes on disk (heap + overflow).
    pub fn bytes_on_disk(&self) -> Result<u64> {
        Ok(std::fs::metadata(&self.path)?.len() + std::fs::metadata(&self.overflow_path)?.len())
    }

    /// The heap file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read one page's raw bytes (opens the file; scans should prefer
    /// [`HeapFile::open_reader`] + [`read_page_with`] to reuse a handle).
    pub fn read_page(&self, page_no: u32) -> Result<Vec<u8>> {
        let mut f = File::open(&self.path)?;
        read_page_with(&mut f, page_no)
    }

    /// Open a reusable read handle for [`read_page_with`].
    pub fn open_reader(&self) -> Result<File> {
        Ok(File::open(&self.path)?)
    }

    /// Open a reusable read handle on the overflow file (one per scan,
    /// as [`HeapFile::open_reader`] is for pages).
    pub fn open_overflow(&self) -> Result<OverflowReader> {
        let file = File::open(&self.overflow_path)?;
        let len = file.metadata()?.len();
        Ok(OverflowReader {
            file,
            len,
            buf: Vec::new(),
        })
    }
}

/// A read handle on a heap's overflow file: each overflowed tuple costs a
/// seek and a read (the expensive path wide rows force onto loaded
/// engines), into one reused buffer.
#[derive(Debug)]
pub struct OverflowReader {
    file: File,
    /// The file's length when opened: no reference may reach past it.
    len: u64,
    buf: Vec<u8>,
}

impl OverflowReader {
    /// The `len`-byte tuple at `offset`. A reference reaching past the
    /// overflow file's end (a corrupt page) is a typed error, raised
    /// before anything is allocated for it.
    pub fn read(&mut self, offset: u64, len: u32) -> Result<&[u8]> {
        let end = offset.checked_add(u64::from(len));
        if end.is_none_or(|end| end > self.len) {
            return Err(NoDbError::internal(format!(
                "overflow tuple of {len} bytes at byte {offset} reaches past \
                 the overflow file's end ({} bytes)",
                self.len
            )));
        }
        self.file.seek(SeekFrom::Start(offset))?;
        self.buf.resize(len as usize, 0);
        self.file.read_exact(&mut self.buf)?;
        Ok(&self.buf)
    }
}

/// Read one page through an existing handle (no open per page).
pub fn read_page_with(f: &mut File, page_no: u32) -> Result<Vec<u8>> {
    f.seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))?;
    let mut buf = vec![0u8; PAGE_SIZE];
    f.read_exact(&mut buf)?;
    Ok(buf)
}

/// Streaming heap writer used by the bulk loader.
pub struct HeapWriter {
    heap: HeapFile,
    file: File,
    overflow: File,
    overflow_len: u64,
    current: Page,
    scratch: Vec<u8>,
}

impl HeapWriter {
    /// Start writing a fresh heap at `path`.
    pub fn create(path: &Path) -> Result<HeapWriter> {
        let heap = HeapFile::create(path)?;
        let file = std::fs::OpenOptions::new().write(true).open(&heap.path)?;
        let overflow = std::fs::OpenOptions::new()
            .write(true)
            .open(&heap.overflow_path)?;
        Ok(HeapWriter {
            heap,
            file,
            overflow,
            overflow_len: 0,
            current: Page::new(),
            scratch: Vec::new(),
        })
    }

    /// Append one encoded tuple. Tuples that cannot fit in a page go to
    /// the overflow file, leaving a 13-byte reference in the page.
    pub fn append(&mut self, tuple: &[u8]) -> Result<()> {
        self.scratch.clear();
        if tuple.len() + 1 > Page::max_tuple_len() {
            // Overflow: [tag][offset u64][len u32]
            self.overflow.write_all(tuple)?;
            self.scratch.push(TAG_OVERFLOW);
            self.scratch
                .extend_from_slice(&self.overflow_len.to_le_bytes());
            self.scratch
                .extend_from_slice(&(tuple.len() as u32).to_le_bytes());
            self.overflow_len += tuple.len() as u64;
            self.heap.overflow_rows += 1;
        } else {
            self.scratch.push(TAG_INLINE);
            self.scratch.extend_from_slice(tuple);
        }
        if self.current.insert(&self.scratch).is_none() {
            self.flush_page()?;
            self.current
                .insert(&self.scratch)
                .expect("tuple fits in an empty page");
        }
        self.heap.n_rows += 1;
        Ok(())
    }

    fn flush_page(&mut self) -> Result<()> {
        let page = std::mem::take(&mut self.current);
        self.file.write_all(page.bytes())?;
        self.heap.n_pages += 1;
        self.current = Page::new();
        Ok(())
    }

    /// Finish writing; returns the readable heap.
    pub fn finish(mut self) -> Result<HeapFile> {
        if self.current.n_slots() > 0 {
            self.flush_page()?;
        }
        self.file.flush()?;
        self.overflow.flush()?;
        Ok(self.heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::TempDir;

    #[test]
    fn write_then_read_pages() {
        let td = TempDir::new("nodb-heap").unwrap();
        let p = td.file("t.heap");
        let mut w = HeapWriter::create(&p).unwrap();
        for i in 0..1000u32 {
            w.append(format!("tuple-{i}").as_bytes()).unwrap();
        }
        let heap = w.finish().unwrap();
        assert_eq!(heap.n_rows(), 1000);
        assert!(heap.n_pages() >= 1);
        // First tuple of first page.
        let page = Page::from_bytes(heap.read_page(0).unwrap());
        assert_eq!(&page.tuple(0).unwrap()[1..], b"tuple-0");
        assert_eq!(page.tuple(0).unwrap()[0], TAG_INLINE);
    }

    #[test]
    fn oversized_tuples_overflow() {
        let td = TempDir::new("nodb-heap").unwrap();
        let p = td.file("t.heap");
        let mut w = HeapWriter::create(&p).unwrap();
        let big = vec![0xabu8; PAGE_SIZE * 2];
        w.append(&big).unwrap();
        w.append(b"small").unwrap();
        let heap = w.finish().unwrap();
        assert_eq!(heap.overflow_rows(), 1);
        let page = Page::from_bytes(heap.read_page(0).unwrap());
        let t0 = page.tuple(0).unwrap();
        assert_eq!(t0[0], TAG_OVERFLOW);
        let offset = u64::from_le_bytes(t0[1..9].try_into().unwrap());
        let len = u32::from_le_bytes(t0[9..13].try_into().unwrap());
        let mut overflow = heap.open_overflow().unwrap();
        assert_eq!(overflow.read(offset, len).unwrap(), big);
        assert_eq!(overflow.read(offset, 7).unwrap(), &big[..7]);
    }

    #[test]
    fn overflow_reference_past_the_file_is_an_error() {
        let td = TempDir::new("nodb-heap").unwrap();
        let mut w = HeapWriter::create(&td.file("t.heap")).unwrap();
        w.append(&vec![1u8; PAGE_SIZE + 10]).unwrap();
        let heap = w.finish().unwrap();
        let mut overflow = heap.open_overflow().unwrap();
        let len = PAGE_SIZE as u32 + 10;
        for (offset, len) in [(0, len + 1), (1, len), (u64::MAX, 1), (0, u32::MAX)] {
            let err = overflow.read(offset, len).unwrap_err();
            assert!(
                err.to_string().contains("past the overflow file's end"),
                "{err}"
            );
        }
        assert_eq!(overflow.read(0, len).unwrap().len(), len as usize);
    }

    #[test]
    fn page_spill_preserves_order() {
        let td = TempDir::new("nodb-heap").unwrap();
        let p = td.file("t.heap");
        let mut w = HeapWriter::create(&p).unwrap();
        // ~3KB tuples: 2 per page.
        for i in 0..5u32 {
            let t = vec![i as u8; 3000];
            w.append(&t).unwrap();
        }
        let heap = w.finish().unwrap();
        assert_eq!(heap.n_pages(), 3);
        let mut seen = Vec::new();
        for pg in 0..heap.n_pages() {
            let page = Page::from_bytes(heap.read_page(pg).unwrap());
            for s in 0..page.n_slots() {
                seen.push(page.tuple(s).unwrap()[1]);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
