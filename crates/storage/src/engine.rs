//! The loaded-table engine: bulk loader + heap scans behind
//! [`TableProvider`], with profiles emulating the paper's comparators.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use nodb_common::{Column, DataType, NoDbError, Result, Row, Schema, Value};
use nodb_csv::lines::LineReader;
use nodb_csv::tokenize;
use nodb_csv::CsvOptions;
use nodb_exec::{BatchQueue, BoxOp, FilterOp, Operator, TableProvider, ValueBatch};
use nodb_sql::BoundExpr;

use crate::bufpool::BufferPool;
use crate::heap::{HeapFile, HeapWriter, OverflowReader, TAG_OVERFLOW};
use crate::page::{self, Page};
use crate::tuple;

/// Which comparator a loaded engine emulates. The differences are
/// storage mechanics, not tuning constants: every profile scans a page at
/// a time into typed columns and hands them to the same operators as the
/// in-situ scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineProfile {
    /// PostgreSQL-like: 24-byte tuple headers (MVCC bookkeeping).
    PostgresLike,
    /// MySQL-like: 16-byte headers, but every tuple is copied through a
    /// storage-engine → server row-format conversion on read.
    MySqlLike,
    /// Commercial "DBMS X"-like: compact 8-byte headers (the smallest
    /// pages to read), at the price of a second verification pass over
    /// the pages during loading (slowest load).
    DbmsXLike,
}

impl EngineProfile {
    /// Per-tuple header padding written at load time.
    pub fn tuple_header_bytes(self) -> usize {
        match self {
            EngineProfile::PostgresLike => 24,
            EngineProfile::MySqlLike => 16,
            EngineProfile::DbmsXLike => 8,
        }
    }

    /// Human-readable name used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            EngineProfile::PostgresLike => "PostgreSQL",
            EngineProfile::MySqlLike => "MySQL",
            EngineProfile::DbmsXLike => "DBMS X",
        }
    }
}

/// What a bulk load cost.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Rows loaded.
    pub rows: u64,
    /// Heap pages written.
    pub pages: u32,
    /// Bytes on disk (heap + overflow).
    pub bytes_on_disk: u64,
    /// Rows that exceeded the page size and went to the overflow file.
    pub overflow_rows: u64,
    /// Wall-clock duration of the load.
    pub duration: Duration,
}

/// One loaded table: schema + heap + shared buffer pool.
pub struct LoadedTable {
    id: u32,
    schema: Schema,
    heap: HeapFile,
    profile: EngineProfile,
    pool: Arc<Mutex<BufferPool>>,
}

impl LoadedTable {
    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows stored.
    pub fn n_rows(&self) -> u64 {
        self.heap.n_rows()
    }
}

/// A loaded-mode engine instance: loads CSV files into heap tables and
/// serves scans over them.
pub struct StorageEngine {
    profile: EngineProfile,
    dir: PathBuf,
    pool: Arc<Mutex<BufferPool>>,
    tables: HashMap<String, Arc<LoadedTable>>,
    next_id: u32,
}

impl StorageEngine {
    /// Create an engine storing heap files under `dir`, with a buffer
    /// pool of `pool_pages` pages.
    pub fn new(dir: &Path, profile: EngineProfile, pool_pages: usize) -> Result<StorageEngine> {
        std::fs::create_dir_all(dir)?;
        Ok(StorageEngine {
            profile,
            dir: dir.to_path_buf(),
            pool: Arc::new(Mutex::new(BufferPool::new(pool_pages))),
            tables: HashMap::new(),
            next_id: 0,
        })
    }

    /// The engine's profile.
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }

    /// Bulk-load a raw file into a heap table — the up-front cost the
    /// NoDB philosophy eliminates. Parses and converts *every* field of
    /// *every* tuple, encodes binary tuples and writes slotted pages.
    /// `on_row` sees each converted row, in file order, so a caller can
    /// collect statistics without a second pass.
    pub fn load_csv(
        &mut self,
        name: &str,
        csv_path: &Path,
        schema: &Schema,
        opts: CsvOptions,
        mut on_row: impl FnMut(&Row),
    ) -> Result<LoadReport> {
        let start = Instant::now();
        let heap_path = self.dir.join(format!("{name}.heap"));
        let mut writer = HeapWriter::create(&heap_path)?;
        let mut reader = LineReader::open(csv_path)?;
        let mut line = Vec::new();
        let mut starts: Vec<u32> = Vec::new();
        let mut encoded = Vec::new();
        let mut row = Row::with_capacity(schema.len());
        let header_bytes = self.profile.tuple_header_bytes();
        let mut first = opts.has_header;
        while reader.next_line(&mut line)?.is_some() {
            if first {
                first = false;
                continue;
            }
            starts.clear();
            tokenize::tokenize_all(&line, opts.delimiter, &mut starts);
            if starts.len() < schema.len() {
                return Err(NoDbError::parse(format!(
                    "row has {} fields, schema expects {}",
                    starts.len(),
                    schema.len()
                )));
            }
            row.0.clear();
            for (f, &start) in schema.fields().iter().zip(&starts) {
                let bytes = tokenize::field_at(&line, opts.delimiter, start);
                row.0.push(Value::parse_field(bytes, f.dtype)?);
            }
            tuple::encode(&row, schema, header_bytes, &mut encoded)?;
            writer.append(&encoded)?;
            on_row(&row);
        }
        let heap = writer.finish()?;

        if self.profile == EngineProfile::DbmsXLike {
            // Second pass at load time: verify pages and build per-page
            // metadata (the kind of extra work that buys the commercial
            // engine its faster scans).
            let mut checksum = 0u64;
            for p in 0..heap.n_pages() {
                let bytes = heap.read_page(p)?;
                let page = Page::from_bytes(bytes);
                for s in 0..page.n_slots() {
                    for &b in page.tuple(s)? {
                        checksum = checksum.wrapping_mul(31).wrapping_add(b as u64);
                    }
                }
            }
            std::hint::black_box(checksum);
        }

        let report = LoadReport {
            rows: heap.n_rows(),
            pages: heap.n_pages(),
            bytes_on_disk: heap.bytes_on_disk()?,
            overflow_rows: heap.overflow_rows(),
            duration: start.elapsed(),
        };
        let id = self.next_id;
        self.next_id += 1;
        self.tables.insert(
            name.to_string(),
            Arc::new(LoadedTable {
                id,
                schema: schema.clone(),
                heap,
                profile: self.profile,
                pool: Arc::clone(&self.pool),
            }),
        );
        Ok(report)
    }

    /// Get a loaded table.
    pub fn table(&self, name: &str) -> Result<Arc<LoadedTable>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| NoDbError::catalog(format!("table `{name}` is not loaded")))
    }

    /// Drop a loaded table: forget it, delete its heap file from disk
    /// and release the pooled pages. Scans already running keep their
    /// shared handle (and, on unix, their open file) and finish
    /// normally; table ids are never reused, so their pooled pages can
    /// never be confused with a later table's.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let table = self
            .tables
            .remove(name)
            .ok_or_else(|| NoDbError::catalog(format!("table `{name}` is not loaded")))?;
        drop(table);
        // The heap and its sibling overflow file (HeapWriter::create
        // always makes both; wide rows may put most bytes in the
        // latter).
        for ext in ["heap", "ovf"] {
            let path = self.dir.join(format!("{name}.{ext}"));
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Drop the buffer pool contents (cold-cache experiment setting).
    pub fn clear_buffers(&self) {
        self.pool.lock().clear();
    }

    /// Buffer-pool statistics.
    pub fn pool_stats(&self) -> crate::bufpool::PoolStats {
        self.pool.lock().stats()
    }
}

impl TableProvider for LoadedTable {
    fn scan(&self, projection: &[usize], filters: &[BoundExpr]) -> Result<BoxOp> {
        let scan = HeapScanOp {
            table_id: self.id,
            schema: self.schema.clone(),
            file: self.heap.open_reader()?,
            overflow: None,
            heap: self.heap.clone(),
            profile: self.profile,
            pool: Arc::clone(&self.pool),
            types: projection
                .iter()
                .map(|&i| self.schema.field(i).dtype)
                .collect(),
            projection: projection.to_vec(),
            page_no: 0,
            out: BatchQueue::default(),
            scratch: Vec::new(),
        };
        Ok(FilterOp::conjuncts(Box::new(scan), filters))
    }
}

/// A heap scan: each page's tuples decoded into one typed column per
/// projected attribute, handed out as one batch.
struct HeapScanOp {
    table_id: u32,
    schema: Schema,
    /// Reused read handle (one open per scan, not per page).
    file: std::fs::File,
    /// The overflow file's read handle, opened at the scan's first
    /// overflowed tuple (one open per scan, not per tuple).
    overflow: Option<OverflowReader>,
    heap: HeapFile,
    profile: EngineProfile,
    pool: Arc<Mutex<BufferPool>>,
    projection: Vec<usize>,
    /// The projected columns' types, which output batches take.
    types: Vec<DataType>,
    /// The next page to decode.
    page_no: u32,
    /// The decoded page not yet handed out.
    out: BatchQueue,
    /// MySQL-style row-format conversion buffer.
    scratch: Vec<u8>,
}

/// One slot of a heap page: the tuple inline, or where the overflow file
/// holds it.
#[derive(Debug, PartialEq)]
enum Slot<'a> {
    Inline(&'a [u8]),
    Overflow { offset: u64, len: u32 },
}

impl Slot<'_> {
    /// Parse a slot's bytes: a tag, then the tuple or an overflow
    /// reference. A slot too short for either is a typed error.
    fn parse(t: &[u8]) -> Result<Slot<'_>> {
        let bad = || NoDbError::internal("truncated heap slot");
        match t.split_first() {
            Some((&TAG_OVERFLOW, r)) => {
                let offset = r.get(..8).and_then(|b| b.try_into().ok()).ok_or_else(bad)?;
                let len = r
                    .get(8..12)
                    .and_then(|b| b.try_into().ok())
                    .ok_or_else(bad)?;
                Ok(Slot::Overflow {
                    offset: u64::from_le_bytes(offset),
                    len: u32::from_le_bytes(len),
                })
            }
            Some((_, body)) => Ok(Slot::Inline(body)),
            None => Err(bad()),
        }
    }
}

impl HeapScanOp {
    /// Decode page `page_no` into a batch and move past it. Pages are
    /// pinned once (`Arc`) and read in place; only an overflowed tuple is
    /// read into a buffer of its own.
    fn decode_page(&mut self) -> Result<ValueBatch> {
        let (file, page_no) = (&mut self.file, self.page_no);
        let bytes = self.pool.lock().get((self.table_id, page_no), || {
            crate::heap::read_page_with(file, page_no)
        })?;
        self.page_no += 1;
        let rows = page::n_slots_of(&bytes)?;
        let mut cols: Vec<Column> = self
            .types
            .iter()
            .map(|&t| Column::with_capacity(t, rows))
            .collect();
        let header = self.profile.tuple_header_bytes();
        for s in 0..rows {
            let mut body = match Slot::parse(page::tuple_of(&bytes, s)?)? {
                Slot::Inline(body) => body,
                Slot::Overflow { offset, len } => {
                    let reader = match &mut self.overflow {
                        Some(reader) => reader,
                        none => none.insert(self.heap.open_overflow()?),
                    };
                    reader.read(offset, len)?
                }
            };
            if self.profile == EngineProfile::MySqlLike {
                // Storage-engine → server format conversion: a real copy
                // of the row bytes before decoding.
                self.scratch.clear();
                self.scratch.extend_from_slice(body);
                body = &self.scratch;
            }
            tuple::decode_projected(body, &self.schema, header, &self.projection, &mut cols)?;
        }
        Ok(ValueBatch::from_cols(cols, rows))
    }
}

impl Operator for HeapScanOp {
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<ValueBatch>> {
        while self.out.is_empty() && self.page_no < self.heap.n_pages() {
            let page = self.decode_page()?;
            self.out.push(page);
        }
        Ok(self.out.pop_batch(max_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::TempDir;
    use nodb_csv::MicroGen;
    use nodb_exec::run_to_vec;
    use nodb_sql::BinOp;

    fn setup(profile: EngineProfile) -> (TempDir, StorageEngine, Schema) {
        let td = TempDir::new("nodb-storage").unwrap();
        let csv = td.file("micro.csv");
        let spec = MicroGen::default().rows(500).cols(8).seed(11);
        spec.write_to(&csv).unwrap();
        let schema = spec.schema();
        let mut eng = StorageEngine::new(&td.path().join("db"), profile, 256).unwrap();
        let report = eng
            .load_csv("micro", &csv, &schema, CsvOptions::default(), |_| {})
            .unwrap();
        assert_eq!(report.rows, 500);
        (td, eng, schema)
    }

    #[test]
    fn load_and_scan_roundtrip_all_profiles() {
        let mut reference: Option<Vec<Row>> = None;
        for profile in [
            EngineProfile::PostgresLike,
            EngineProfile::MySqlLike,
            EngineProfile::DbmsXLike,
        ] {
            let (_td, eng, schema) = setup(profile);
            let t = eng.table("micro").unwrap();
            let proj: Vec<usize> = (0..schema.len()).collect();
            let rows = run_to_vec(t.scan(&proj, &[]).unwrap()).unwrap();
            assert_eq!(rows.len(), 500);
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(&rows, r, "profile {profile:?} disagrees"),
            }
        }
    }

    #[test]
    fn scan_applies_projection_and_filters() {
        let (_td, eng, _schema) = setup(EngineProfile::PostgresLike);
        let t = eng.table("micro").unwrap();
        // Project columns 2 and 5; filter on projected ordinal 0 (= col 2).
        let filter = BoundExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(BoundExpr::Col(0)),
            right: Box::new(BoundExpr::Lit(Value::Int64(500_000_000))),
        };
        let rows = run_to_vec(t.scan(&[2, 5], &[filter]).unwrap()).unwrap();
        assert!(!rows.is_empty());
        assert!(rows.len() < 500);
        for r in &rows {
            assert_eq!(r.len(), 2);
            assert!(r.get(0).as_i64().unwrap() < 500_000_000);
        }
    }

    #[test]
    fn pool_serves_repeat_scans_from_memory() {
        let (_td, eng, schema) = setup(EngineProfile::PostgresLike);
        let t = eng.table("micro").unwrap();
        let proj: Vec<usize> = (0..schema.len()).collect();
        run_to_vec(t.scan(&proj, &[]).unwrap()).unwrap();
        let misses_after_first = eng.pool_stats().misses;
        run_to_vec(t.scan(&proj, &[]).unwrap()).unwrap();
        assert_eq!(
            eng.pool_stats().misses,
            misses_after_first,
            "second scan must be all hits"
        );
        eng.clear_buffers();
        run_to_vec(t.scan(&proj, &[]).unwrap()).unwrap();
        assert!(eng.pool_stats().misses > misses_after_first);
    }

    #[test]
    fn wide_rows_take_overflow_path() {
        let td = TempDir::new("nodb-storage").unwrap();
        let csv = td.file("wide.csv");
        // 150 attrs × 64 chars ≈ 9.7 KB per row > 8 KB page.
        let spec = MicroGen::default().rows(20).cols(150).pad_width(64).seed(3);
        spec.write_to(&csv).unwrap();
        let schema = spec.schema();
        let mut eng =
            StorageEngine::new(&td.path().join("db"), EngineProfile::PostgresLike, 64).unwrap();
        let report = eng
            .load_csv("wide", &csv, &schema, CsvOptions::default(), |_| {})
            .unwrap();
        assert_eq!(report.overflow_rows, 20, "every row must overflow");
        let t = eng.table("wide").unwrap();
        let rows = run_to_vec(t.scan(&[0, 149], &[]).unwrap()).unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[0].get(0).as_str().unwrap().len(), 64);
    }

    /// An overflow reference whose length reaches past the overflow file
    /// fails the scan with a typed error before its length is allocated.
    #[test]
    fn corrupt_overflow_length_is_an_error() {
        let td = TempDir::new("nodb-storage").unwrap();
        let csv = td.file("wide.csv");
        let spec = MicroGen::default().rows(2).cols(150).pad_width(64).seed(3);
        spec.write_to(&csv).unwrap();
        let mut eng =
            StorageEngine::new(&td.path().join("db"), EngineProfile::PostgresLike, 64).unwrap();
        let report = eng
            .load_csv("wide", &csv, &spec.schema(), CsvOptions::default(), |_| {})
            .unwrap();
        assert_eq!(report.overflow_rows, 2);
        // Slot 0's tuple: [tag][offset u64][len u32]; claim 4 GiB.
        let heap = td.path().join("db").join("wide.heap");
        let mut bytes = std::fs::read(&heap).unwrap();
        let start = u16::from_le_bytes([bytes[4], bytes[5]]) as usize;
        assert_eq!(bytes[start], TAG_OVERFLOW);
        bytes[start + 9..start + 13].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&heap, &bytes).unwrap();
        let t = eng.table("wide").unwrap();
        let err = run_to_vec(t.scan(&[0], &[]).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("past the overflow file's end"),
            "{err}"
        );
    }

    /// Every prefix of an overflow reference is a typed error; the whole
    /// reference parses.
    #[test]
    fn truncated_overflow_reference_is_an_error() {
        let mut t = vec![TAG_OVERFLOW];
        t.extend_from_slice(&7u64.to_le_bytes());
        t.extend_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            Slot::parse(&t).unwrap(),
            Slot::Overflow { offset: 7, len: 9 }
        );
        for cut in 0..t.len() {
            let err = Slot::parse(&t[..cut]).unwrap_err();
            assert!(
                err.to_string().contains("truncated heap slot"),
                "{cut}: {err}"
            );
        }
    }

    #[test]
    fn unknown_table_errors() {
        let (_td, eng, _schema) = setup(EngineProfile::PostgresLike);
        assert!(eng.table("nope").is_err());
    }
}
