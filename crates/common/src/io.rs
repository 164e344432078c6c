//! How the engine reads a raw file.
//!
//! NoDB keeps the raw file as the only source of truth, so every byte a
//! scan tokenizes comes from it. [`ByteSource`] is one open raw file
//! serving positioned reads ([`ByteSource::read_at`]: `pread` on unix)
//! that take `&self`, so concurrent scans may share one handle. Callers keep
//! their own buffers: the line reader lends lines out of one, and the
//! map-assisted scan reads each block's bytes into one.
//!
//! The length is snapshotted at open. Bytes appended later are invisible
//! to the source (the semantics the end-of-line frontier relies on); a
//! file that shrinks below the snapshot while it is read fails the read
//! with a typed [`NoDbError::Io`] (`UnexpectedEof`) instead of serving a
//! cut-off record.
//!
//! [`IoBackend::Mmap`] opens a read-only mapping of the whole file instead
//! ([`ByteSource::mapped`]). No engine path uses it; it stays for the
//! benchmark's page-touch probe and goes with it.

use std::fs::File;
use std::path::Path;

use crate::error::{NoDbError, Result};

/// How [`ByteSource::open`] serves a file's bytes. The engine always
/// reads with `Read`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBackend {
    /// Positioned reads on a file descriptor.
    Read,
    /// A read-only memory mapping of the whole file (unix; falls back to
    /// `Read` elsewhere, for empty files and when mapping fails).
    Mmap,
}

impl std::fmt::Display for IoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoBackend::Read => "read",
            IoBackend::Mmap => "mmap",
        })
    }
}

/// One open raw file.
///
/// Cheap to share across threads (`Send + Sync`; positioned reads take
/// `&self`): no read moves a shared cursor.
#[derive(Debug)]
pub struct ByteSource {
    repr: Repr,
    len: u64,
}

#[derive(Debug)]
enum Repr {
    Read(ReadHandle),
    #[cfg(unix)]
    Mmap(sys::MmapRegion),
}

/// Positioned-read handle. Unix has `pread` (`FileExt::read_at`): no
/// cursor mutation, so a bare `File` is safe to share across threads.
/// Other platforms fall back to seek-then-read, which *does* move the
/// shared cursor — those serialize behind a mutex so concurrent
/// `read_at` calls on one shared source cannot read each other's bytes.
#[cfg(unix)]
type ReadHandle = File;
#[cfg(not(unix))]
type ReadHandle = std::sync::Mutex<File>;

#[cfg(unix)]
fn read_handle(file: File) -> ReadHandle {
    file
}

#[cfg(not(unix))]
fn read_handle(file: File) -> ReadHandle {
    std::sync::Mutex::new(file)
}

impl ByteSource {
    /// Open `path`, snapshotting its length. `Mmap` falls back to `Read`
    /// for empty files and on any mapping failure; it never errors for
    /// reasons `Read` would not.
    pub fn open(path: &Path, backend: IoBackend) -> Result<ByteSource> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(unix)]
        if backend == IoBackend::Mmap && len > 0 {
            if let Ok(region) = sys::MmapRegion::map(&file, len as usize) {
                region.advise_willneed();
                return Ok(ByteSource {
                    repr: Repr::Mmap(region),
                    len,
                });
            }
        }
        let _ = backend; // non-unix: every backend reads
        Ok(ByteSource {
            repr: Repr::Read(read_handle(file)),
            len,
        })
    }

    /// Total file length in bytes (snapshotted at open).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the file had no bytes at open time.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole file as one slice (`Mmap` backend only).
    pub fn mapped(&self) -> Option<&[u8]> {
        match &self.repr {
            Repr::Read(_) => None,
            #[cfg(unix)]
            Repr::Mmap(m) => Some(m.as_slice()),
        }
    }

    /// Read bytes at `offset` into `buf`, returning how many were read:
    /// `buf.len()`, fewer only where the snapshotted length ends, `0` at
    /// or past it. A file that ends before the snapshotted length — it
    /// shrank since open — is an [`std::io::ErrorKind::UnexpectedEof`]
    /// error. Takes `&self`: safe to call from many threads at once.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if offset >= self.len || buf.is_empty() {
            return Ok(0);
        }
        let want = buf.len().min((self.len - offset) as usize);
        match &self.repr {
            Repr::Read(file) => {
                let mut done = 0;
                while done < want {
                    let at = offset + done as u64;
                    let n = read_at_fd(file, at, &mut buf[done..want])?;
                    if n == 0 {
                        return Err(shrank(at, self.len));
                    }
                    done += n;
                }
                Ok(done)
            }
            #[cfg(unix)]
            Repr::Mmap(m) => {
                let s = &m.as_slice()[offset as usize..offset as usize + want];
                buf[..want].copy_from_slice(s);
                Ok(want)
            }
        }
    }

    /// Fill `buf` from `offset`, or fail with the same typed error as a
    /// shrunk file when the source ends before `buf` is full.
    pub fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let n = self.read_at(offset, buf)?;
        if n < buf.len() {
            return Err(shrank(offset + n as u64, offset + buf.len() as u64));
        }
        Ok(())
    }
}

/// The typed error for a file found to end at byte `at`, short of byte
/// `want`.
fn shrank(at: u64, want: u64) -> NoDbError {
    NoDbError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        format!("raw file shrank while being read: it ends at byte {at}, short of byte {want}"),
    ))
}

/// Positioned read on a shared file handle (`pread`: thread-safe, no
/// cursor).
#[cfg(unix)]
fn read_at_fd(file: &ReadHandle, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
    use std::os::unix::fs::FileExt;
    file.read_at(buf, offset)
}

/// Non-unix fallback: seek-then-read moves the handle's shared cursor,
/// so the mutex (see [`ReadHandle`]) makes the pair atomic.
#[cfg(not(unix))]
fn read_at_fd(file: &ReadHandle, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.lock().unwrap_or_else(|e| e.into_inner());
    f.seek(SeekFrom::Start(offset))?;
    f.read(buf)
}

/// Direct bindings to the three syscalls the mmap backend needs. Raw
/// `extern "C"` because the build environment cannot reach crates.io for
/// `libc`/`memmap2`; the constants are the POSIX values shared by Linux
/// and macOS for this call pattern.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::ffi::c_void;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 0x1;
    const MAP_SHARED: i32 = 0x1;
    const MADV_WILLNEED: i32 = 3;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    /// A read-only, whole-file, shared mapping. Unmapped on drop.
    #[derive(Debug)]
    pub(super) struct MmapRegion {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the region is read-only memory owned by this value for its
    // whole lifetime; concurrent `&self` reads from any thread are plain
    // loads from immutable pages.
    unsafe impl Send for MmapRegion {}
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        /// Map `len` bytes of `file` read-only. `len` must be non-zero
        /// (zero-length mappings are EINVAL by spec).
        pub(super) fn map(file: &File, len: usize) -> std::io::Result<MmapRegion> {
            debug_assert!(len > 0, "zero-length mappings are invalid");
            // SAFETY: requests a fresh read-only mapping of a descriptor
            // we own; the kernel picks the address. Failure is reported
            // as MAP_FAILED (-1), checked below.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == usize::MAX as *mut c_void || ptr.is_null() {
                return Err(std::io::Error::last_os_error());
            }
            Ok(MmapRegion { ptr, len })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until `drop` unmaps it; the file is treated as
            // immutable for the mapping's lifetime.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        pub(super) fn advise_willneed(&self) {
            // SAFETY: advice on a live mapping; errors are advisory.
            unsafe {
                madvise(self.ptr, self.len, MADV_WILLNEED);
            }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: unmaps the exact region returned by `mmap`; the
            // value owns it and no slice can outlive `self`.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn file_with(bytes: &[u8]) -> (TempDir, std::path::PathBuf) {
        let td = TempDir::new("nodb-io").unwrap();
        let p = td.file("data.bin");
        std::fs::write(&p, bytes).unwrap();
        (td, p)
    }

    #[test]
    fn display_names() {
        assert_eq!(IoBackend::Read.to_string(), "read");
        assert_eq!(IoBackend::Mmap.to_string(), "mmap");
    }

    #[test]
    fn read_backend_serves_positioned_reads() {
        let (_td, p) = file_with(b"0123456789");
        let src = ByteSource::open(&p, IoBackend::Read).unwrap();
        assert_eq!(src.len(), 10);
        assert!(src.mapped().is_none());
        let mut buf = [0u8; 4];
        assert_eq!(src.read_at(2, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"2345");
        // Short read at EOF, zero past it.
        assert_eq!(src.read_at(8, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"89");
        assert_eq!(src.read_at(10, &mut buf).unwrap(), 0);
        assert_eq!(src.read_at(99, &mut buf).unwrap(), 0);
    }

    /// A file cut below the length snapshotted at open fails the read
    /// with a typed error rather than serving the bytes that are left;
    /// a grown file serves exactly the snapshot.
    #[test]
    fn read_at_fails_typed_when_the_file_shrinks() {
        let (_td, p) = file_with(b"0123456789");
        let src = ByteSource::open(&p, IoBackend::Read).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&p)
            .unwrap()
            .set_len(4)
            .unwrap();
        let mut buf = [0u8; 8];
        match src.read_at(2, &mut buf) {
            Err(NoDbError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}")
            }
            other => panic!("expected a typed EOF error, got {other:?}"),
        }
        assert!(src.read_at(6, &mut buf).is_err());
        std::fs::write(&p, b"0123456789abcdef").unwrap();
        assert_eq!(src.read_at(6, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"6789");
    }

    #[cfg(unix)]
    #[test]
    fn mmap_backend_maps_and_reads_identically() {
        let (_td, p) = file_with(b"hello,raw,world\nsecond line\n");
        let read = ByteSource::open(&p, IoBackend::Read).unwrap();
        let mmap = ByteSource::open(&p, IoBackend::Mmap).unwrap();
        assert_eq!(mmap.mapped().unwrap(), std::fs::read(&p).unwrap());
        for off in [0u64, 5, 15, 27, 28] {
            let mut a = [0u8; 7];
            let mut b = [0u8; 7];
            let na = read.read_at(off, &mut a).unwrap();
            let nb = mmap.read_at(off, &mut b).unwrap();
            assert_eq!(na, nb, "length at offset {off}");
            assert_eq!(a[..na], b[..nb], "bytes at offset {off}");
        }
    }

    /// Mapping a zero-length file is invalid (EINVAL), so `Mmap` must
    /// degrade gracefully to `Read` instead of erroring.
    #[test]
    fn mmap_on_empty_file_degrades_to_read() {
        let (_td, p) = file_with(b"");
        let src = ByteSource::open(&p, IoBackend::Mmap).unwrap();
        assert!(src.is_empty());
        assert!(src.mapped().is_none());
        let mut buf = [0u8; 8];
        assert_eq!(src.read_at(0, &mut buf).unwrap(), 0);
    }
}
