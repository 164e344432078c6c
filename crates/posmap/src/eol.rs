//! End-of-line index: tuple (line) start offsets.
//!
//! This is the minimal positional structure: with only line starts known, a
//! scan can jump to any tuple but must tokenize within the line. The
//! paper's cache-only variant ("PostgresRaw C") keeps exactly this — "an
//! additional minimal map maintaining positional information only for the
//! end of lines" (§5.1.2). The full positional map builds on top of it.
#![deny(clippy::cast_possible_truncation)]

/// Index of line-start byte offsets, built incrementally in row order.
#[derive(Debug, Default)]
pub struct EolIndex {
    starts: Vec<u64>,
    /// Byte offset one past the last indexed line's end (i.e. where the
    /// next un-indexed line starts). Used to resume indexing and to detect
    /// appends.
    frontier: u64,
    /// Set when the end of file was reached, fixing the row count.
    complete: bool,
}

impl EolIndex {
    /// New empty index.
    pub fn new() -> EolIndex {
        EolIndex::default()
    }

    /// Number of rows whose start offset is known.
    pub fn indexed_rows(&self) -> u64 {
        self.starts.len() as u64
    }

    /// Whether the whole file has been indexed (row count is exact).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Total row count, if known.
    pub fn row_count(&self) -> Option<u64> {
        self.complete.then_some(self.starts.len() as u64)
    }

    /// Offset where the next un-indexed line starts.
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Record a contiguous segment of line starts built by a cold scan
    /// pass: rows `[base_row, base_row + line_starts.len())`, with the
    /// segment's last line ending at byte `end` (the next line start).
    /// Rows are recorded in order, exactly once: rows already recorded
    /// are skipped and a gap (a `base_row` beyond the indexed extent) is
    /// ignored, so re-scans of the same rows are idempotent.
    pub fn absorb_segment(&mut self, base_row: u64, line_starts: &[u64], end: u64) {
        let have = self.starts.len() as u64;
        if base_row > have {
            return;
        }
        let Some(new) = usize::try_from(have - base_row)
            .ok()
            .and_then(|skip| line_starts.get(skip..))
            .filter(|new| !new.is_empty())
        else {
            return;
        };
        self.starts.extend_from_slice(new);
        self.frontier = end;
    }

    /// Set the resume offset of an *empty* index, so indexing starts past
    /// a prefix that holds no data rows (a header line). No-op once any
    /// row is recorded.
    pub fn set_base(&mut self, offset: u64) {
        if self.starts.is_empty() && !self.complete {
            self.frontier = offset;
        }
    }

    /// Mark the file as fully indexed.
    pub fn set_complete(&mut self) {
        self.complete = true;
    }

    /// Re-open the index for more rows (an append was detected, §4.5).
    pub fn reopen_for_append(&mut self) {
        self.complete = false;
    }

    /// Start offset of `row`, if indexed.
    pub fn start_of(&self, row: u64) -> Option<u64> {
        self.starts.get(usize::try_from(row).ok()?).copied()
    }

    /// Start offsets for rows `[from, to)` as a slice, if fully indexed.
    pub fn starts(&self, from: u64, to: u64) -> Option<&[u64]> {
        self.starts
            .get(usize::try_from(from).ok()?..usize::try_from(to).ok()?)
    }

    /// Approximate memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.starts.len() * std::mem::size_of::<u64>()
    }

    /// Number of stored pointers.
    pub fn pointer_count(&self) -> u64 {
        self.starts.len() as u64
    }

    /// Forget everything (map dropped / file invalidated).
    pub fn clear(&mut self) {
        self.starts.clear();
        self.frontier = 0;
        self.complete = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_exposes_frontier() {
        let mut e = EolIndex::new();
        e.absorb_segment(0, &[0], 10);
        e.absorb_segment(1, &[10], 25);
        assert_eq!(e.indexed_rows(), 2);
        assert_eq!(e.frontier(), 25);
        assert_eq!(e.start_of(0), Some(0));
        assert_eq!(e.start_of(1), Some(10));
        assert_eq!(e.start_of(2), None);
    }

    #[test]
    fn out_of_order_records_are_ignored() {
        let mut e = EolIndex::new();
        e.absorb_segment(0, &[0], 10);
        e.absorb_segment(0, &[0], 10); // duplicate
        e.absorb_segment(5, &[99], 120); // gap
        assert_eq!(e.indexed_rows(), 1);
        assert_eq!(e.frontier(), 10);
    }

    #[test]
    fn completion_fixes_row_count() {
        let mut e = EolIndex::new();
        e.absorb_segment(0, &[0], 4);
        assert_eq!(e.row_count(), None);
        e.set_complete();
        assert_eq!(e.row_count(), Some(1));
        e.reopen_for_append();
        assert_eq!(e.row_count(), None);
    }

    #[test]
    fn range_slice() {
        let mut e = EolIndex::new();
        for i in 0..5u64 {
            e.absorb_segment(i, &[i * 10], (i + 1) * 10);
        }
        assert_eq!(e.starts(1, 3), Some(&[10u64, 20][..]));
        assert_eq!(e.starts(4, 6), None);
    }

    #[test]
    fn absorb_segment_appends_and_skips_known_rows() {
        let mut e = EolIndex::new();
        e.absorb_segment(0, &[0, 10], 25);
        // Overlapping segment: rows 0..4, only 2..4 are new.
        e.absorb_segment(0, &[0, 10, 25, 40], 55);
        assert_eq!(e.indexed_rows(), 4);
        assert_eq!(e.start_of(2), Some(25));
        assert_eq!(e.start_of(3), Some(40));
        assert_eq!(e.frontier(), 55);
        // Fully-known segment: no change.
        e.absorb_segment(0, &[0, 10], 25);
        assert_eq!(e.indexed_rows(), 4);
        assert_eq!(e.frontier(), 55);
        // Gapped segment: ignored.
        e.absorb_segment(9, &[99], 120);
        assert_eq!(e.indexed_rows(), 4);
    }

    #[test]
    fn set_base_only_moves_an_empty_index() {
        let mut e = EolIndex::new();
        e.set_base(12);
        assert_eq!(e.frontier(), 12);
        e.absorb_segment(0, &[12], 30);
        e.set_base(0);
        assert_eq!(e.frontier(), 30, "base is fixed once rows exist");
    }

    #[test]
    fn clear_resets() {
        let mut e = EolIndex::new();
        e.absorb_segment(0, &[0], 4);
        e.set_complete();
        e.clear();
        assert_eq!(e.indexed_rows(), 0);
        assert!(!e.is_complete());
        assert_eq!(e.bytes(), 0);
    }
}
