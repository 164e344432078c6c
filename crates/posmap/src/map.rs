//! The adaptive positional map proper: directory, budget, LRU eviction.
#![deny(clippy::cast_possible_truncation)]

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nodb_common::{ByteSize, WorkloadLog};

use crate::chunk::Chunk;
use crate::eol::EolIndex;

/// Configuration of a per-table positional map.
#[derive(Debug, Clone)]
pub struct PosMapConfig {
    /// Tuples per horizontal block. Chunks are aligned to block
    /// boundaries so that any attribute is covered by at most one chunk
    /// per block; the default keeps a chunk of a few attributes well
    /// inside the CPU caches ("each chunk fits comfortably in the CPU
    /// caches", §4.2).
    pub block_rows: usize,
    /// Storage threshold for attribute chunks. `None` = unlimited. The
    /// end-of-line index is accounted separately (it is the minimal map
    /// the cache-only variant also keeps).
    pub budget: Option<ByteSize>,
    /// Always `None`: the type admits no other value, so this is no knob.
    /// It exists only so that the benchmark's `posmap.fetch_block_ns`
    /// probe, which still names the field, keeps compiling; the next
    /// benchmark change (ROADMAP item 1) deletes it. Chunks are never
    /// spilled to disk: an evicted chunk is dropped.
    pub spill_dir: Option<std::convert::Infallible>,
    /// Per-attribute access-frequency log. Budget evictions pick the
    /// chunk whose hottest attribute is coldest (recency breaking ties),
    /// so the map retains what the workload actually navigates by.
    /// `None` reads as a log with every attribute cold: plain LRU.
    pub workload: Option<Arc<WorkloadLog>>,
}

impl Default for PosMapConfig {
    fn default() -> Self {
        PosMapConfig {
            block_rows: 4096,
            budget: None,
            spill_dir: None,
            workload: None,
        }
    }
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MapStats {
    /// Chunks inserted.
    pub inserts: u64,
    /// Chunks evicted by the budget (an evicted chunk is dropped).
    pub drops: u64,
    /// Temporary maps built: block fetches that copied positions out.
    pub snapshots: u64,
}

/// Positional information the map can offer for one attribute over one
/// block — the entries of the paper's per-query *temporary map*.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrPositions {
    /// The attribute itself is indexed: line-relative start offsets, one
    /// per row of the block.
    Exact(Vec<u32>),
    /// A neighbouring attribute is indexed; the scan should jump there and
    /// tokenize forward (`anchor_attr < attr`) or backward
    /// (`anchor_attr > attr`) — §4.2 "incremental parsing can occur in
    /// both directions".
    Anchor {
        /// File ordinal of the indexed neighbour.
        anchor_attr: u32,
        /// Its line-relative offsets, one per row.
        positions: Vec<u32>,
    },
    /// Nothing indexed for this block; tokenize from the line start.
    None,
}

impl AttrPositions {
    /// The entry for `attr` from the positions `col` of attribute `held`:
    /// exact when it is `attr` itself, an anchor otherwise.
    fn of(attr: u32, held: u32, col: Vec<u32>) -> AttrPositions {
        match held == attr {
            true => AttrPositions::Exact(col),
            false => AttrPositions::Anchor {
                anchor_attr: held,
                positions: col,
            },
        }
    }

    /// True when the map offers no help.
    pub fn is_none(&self) -> bool {
        matches!(self, AttrPositions::None)
    }
}

/// The pre-fetched positional information for one block and one query —
/// the paper's temporary map (§4.2, "Pre-fetching"). Dropped when the
/// batch has been parsed.
#[derive(Debug)]
pub struct BlockView {
    /// Block ordinal.
    pub block: u64,
    /// One entry per requested attribute, in request order.
    pub entries: Vec<AttrPositions>,
    /// Rows covered by the chunks backing this view (0 when nothing is
    /// indexed for the block).
    pub rows: u32,
}

#[derive(Debug)]
struct Slot {
    /// `None` once evicted (the slot is on the free list).
    chunk: Option<Chunk>,
    /// LRU recency stamp. Atomic so that read-locked (`&self`) block
    /// fetches from concurrent warm scans still update recency.
    last_touch: AtomicU64,
}

/// The adaptive positional map for a single raw file.
///
/// See the crate docs for the faithful-behaviour summary. All methods are
/// infallible.
#[derive(Debug)]
pub struct PositionalMap {
    cfg: PosMapConfig,
    eol: EolIndex,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// block → (attr → slot).
    dir: HashMap<u64, BTreeMap<u32, usize>>,
    /// LRU clock; atomic so shared-lock readers can tick it.
    clock: AtomicU64,
    /// [`MapStats::snapshots`]; atomic so shared-lock readers count too.
    snapshots: AtomicU64,
    bytes_in_mem: usize,
    stats: MapStats,
}

impl PositionalMap {
    /// Create an empty map.
    pub fn new(cfg: PosMapConfig) -> PositionalMap {
        PositionalMap {
            cfg,
            eol: EolIndex::new(),
            slots: Vec::new(),
            free: Vec::new(),
            dir: HashMap::new(),
            clock: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            bytes_in_mem: 0,
            stats: MapStats::default(),
        }
    }

    /// Tuples per block.
    pub fn block_rows(&self) -> usize {
        self.cfg.block_rows
    }

    /// Block ordinal containing `row`.
    pub fn block_of(&self, row: u64) -> u64 {
        row / self.cfg.block_rows as u64
    }

    /// The end-of-line index (shared with the cache-only variant).
    pub fn eol(&self) -> &EolIndex {
        &self.eol
    }

    /// Mutable access to the end-of-line index (populated by scans).
    pub fn eol_mut(&mut self) -> &mut EolIndex {
        &mut self.eol
    }

    /// Bytes of attribute chunks currently held in memory.
    pub fn bytes_in_memory(&self) -> usize {
        self.bytes_in_mem
    }

    /// Total pointers held in memory (attribute positions + line starts).
    pub fn pointer_count(&self) -> u64 {
        let chunk_ptrs: u64 = self
            .slots
            .iter()
            .filter_map(|s| s.chunk.as_ref())
            .map(Chunk::pointer_count)
            .sum();
        chunk_ptrs + self.eol.pointer_count()
    }

    /// Counters for tests and experiments.
    pub fn stats(&self) -> MapStats {
        MapStats {
            snapshots: self.snapshots.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// Insert a chunk built by a scan. Newer chunks shadow older ones in
    /// the directory for the attributes they cover; the budget is enforced
    /// afterwards with LRU eviction.
    pub fn insert(&mut self, chunk: Chunk) {
        if chunk.rows == 0 || chunk.attrs.is_empty() {
            return;
        }
        let now = self.tick();
        let bytes = chunk.bytes();
        let block = chunk.block;
        let attrs = chunk.attrs.clone();
        let slot_id = self.alloc_slot(Slot {
            chunk: Some(chunk),
            last_touch: AtomicU64::new(now),
        });
        let block_dir = self.dir.entry(block).or_default();
        for a in attrs {
            block_dir.insert(a, slot_id);
        }
        self.bytes_in_mem += bytes;
        self.stats.inserts += 1;
        self.enforce_budget(slot_id);
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Pre-fetch positional information for `attrs` over `block` — builds
    /// the temporary map for one batch. Access order inside the scan is
    /// up to the caller (WHERE attributes first; see nodb-core). Concurrent
    /// warm scans call this under a read lock: recency still advances (the
    /// LRU stamps are atomic).
    pub fn fetch_block(&self, block: u64, attrs: &[u32]) -> BlockView {
        let clock = self.tick();
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        let mut entries = Vec::with_capacity(attrs.len());
        let mut rows = 0u32;
        for &attr in attrs {
            let entry = match self.slot_for(block, attr) {
                Some((held, slot)) => match self.column_of(slot, held, clock) {
                    Some(col) => {
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "columns hold ≤ block_rows (u32) positions"
                        )]
                        let len = col.len() as u32;
                        rows = rows.max(len);
                        AttrPositions::of(attr, held, col)
                    }
                    None => AttrPositions::None,
                },
                None => AttrPositions::None,
            };
            entries.push(entry);
        }
        BlockView {
            block,
            entries,
            rows,
        }
    }

    /// [`PositionalMap::fetch_block`], always `Some`. It exists only so
    /// that the benchmark's `posmap.fetch_block_ns` probe, which still
    /// calls it, keeps compiling; the next benchmark change (ROADMAP
    /// item 1) deletes it.
    #[doc(hidden)]
    pub fn fetch_block_shared(&self, block: u64, attrs: &[u32]) -> Option<BlockView> {
        Some(self.fetch_block(block, attrs))
    }

    /// Stamp the chunks a [`PositionalMap::fetch_block`] of `attrs` over
    /// `block` would read with one recency tick, copying no position: a
    /// block the cache answers whole keeps its chunks exactly as recent
    /// as one that reads them, so the eviction order does not depend on
    /// which it was.
    pub fn touch_block(&self, block: u64, attrs: &[u32]) {
        let clock = self.tick();
        for &attr in attrs {
            if let Some((_, slot)) = self.slot_for(block, attr) {
                self.slots[slot].last_touch.store(clock, Ordering::Relaxed);
            }
        }
    }

    /// Copy one attribute's offsets out of a slot and stamp its recency.
    /// `None` when the slot does not cover the attribute.
    fn column_of(&self, slot_id: usize, attr: u32, clock: u64) -> Option<Vec<u32>> {
        let slot = &self.slots[slot_id];
        let c = slot.chunk.as_ref()?;
        slot.last_touch.store(clock, Ordering::Relaxed);
        let pos = c.attrs.iter().position(|&a| a == attr)?;
        Some(c.attr_column(pos))
    }

    /// Rows covered by the chunk indexing `attr` in `block` (0 when
    /// unindexed). Used to detect blocks that grew through appends
    /// (§4.5).
    pub fn covered_rows(&self, block: u64, attr: u32) -> u32 {
        let Some(&slot) = self.dir.get(&block).and_then(|bd| bd.get(&attr)) else {
            return 0;
        };
        self.slots[slot].chunk.as_ref().map_or(0, |c| c.rows)
    }

    /// The paper's re-combination rule (§4.2, "Adaptive Behavior"): a new
    /// combined chunk for `attrs` is collected when the requested
    /// attributes all live in *different* chunks (or are partially
    /// uncovered).
    pub fn should_collect(&self, block: u64, attrs: &[u32]) -> bool {
        let Some(bd) = self.dir.get(&block) else {
            return true;
        };
        let mut slots = Vec::with_capacity(attrs.len());
        for &a in attrs {
            match bd.get(&a) {
                None => return true, // uncovered attribute
                Some(&s) => slots.push(s),
            }
        }
        if attrs.len() <= 1 {
            return false;
        }
        slots.sort_unstable();
        slots.dedup();
        slots.len() == attrs.len()
    }

    /// Drop everything (the map is auxiliary; §4.2 "may be dropped fully
    /// or partly at any time without any loss of critical information").
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.dir.clear();
        self.bytes_in_mem = 0;
        self.eol.clear();
    }

    fn alloc_slot(&mut self, slot: Slot) -> usize {
        if let Some(id) = self.free.pop() {
            self.slots[id] = slot;
            id
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        }
    }

    /// The attribute whose positions answer `attr` in `block`, and its
    /// slot: `attr`'s own chunk, else the nearest indexed neighbour's
    /// (an anchor).
    fn slot_for(&self, block: u64, attr: u32) -> Option<(u32, usize)> {
        match self.dir.get(&block).and_then(|bd| bd.get(&attr)) {
            Some(&slot) => Some((attr, slot)),
            None => self.nearest_attr(block, attr),
        }
    }

    fn nearest_attr(&self, block: u64, attr: u32) -> Option<(u32, usize)> {
        let bd = self.dir.get(&block)?;
        let left = bd.range(..attr).next_back().map(|(&a, &s)| (a, s));
        let right = bd.range(attr + 1..).next().map(|(&a, &s)| (a, s));
        match (left, right) {
            (None, None) => None,
            (Some(l), None) => Some(l),
            (None, Some(r)) => Some(r),
            (Some(l), Some(r)) => {
                // Prefer the closer anchor; ties go left (forward
                // tokenization is cheaper than backward: no re-scan of the
                // target field).
                if attr - l.0 <= r.0 - attr {
                    Some(l)
                } else {
                    Some(r)
                }
            }
        }
    }

    fn enforce_budget(&mut self, protect: usize) {
        let Some(budget) = self.cfg.budget else {
            return;
        };
        // A budget beyond the address space bounds nothing.
        let budget = usize::try_from(budget.bytes()).unwrap_or(usize::MAX);
        // One heat snapshot per enforcement pass (the log is shared and
        // briefly locked per call). No log reads as all-cold: plain LRU.
        let heats: Vec<u64> = self
            .cfg
            .workload
            .as_ref()
            .map(|w| w.heats())
            .unwrap_or_default();
        while self.bytes_in_mem > budget {
            // Find the next victim among in-memory chunks, excluding
            // `protect` unless it is the only one left: the chunk whose
            // hottest attribute is coldest, recency breaking ties.
            let mut victim: Option<(usize, (u64, u64))> = None;
            let mut in_mem = 0usize;
            for (id, s) in self.slots.iter().enumerate() {
                if let Some(c) = &s.chunk {
                    in_mem += 1;
                    if id != protect {
                        let heat = c
                            .attrs
                            .iter()
                            .map(|&a| heats.get(a as usize).copied().unwrap_or(0))
                            .max()
                            .unwrap_or(0);
                        let key = (heat, s.last_touch.load(Ordering::Relaxed));
                        match victim {
                            Some((_, k)) if k <= key => {}
                            _ => victim = Some((id, key)),
                        }
                    }
                }
            }
            let victim = match victim {
                Some((id, _)) => id,
                None if in_mem > 0 => protect, // protect is the only chunk
                None => return,
            };
            self.evict(victim);
            if victim == protect {
                return; // nothing else to do; budget smaller than one chunk
            }
        }
    }

    /// Drop a chunk: its directory entries go and its slot is freed.
    fn evict(&mut self, slot_id: usize) {
        let Some(chunk) = self.slots[slot_id].chunk.take() else {
            return;
        };
        self.bytes_in_mem -= chunk.bytes();
        self.stats.drops += 1;
        if let Some(bd) = self.dir.get_mut(&chunk.block) {
            bd.retain(|_, &mut s| s != slot_id);
            if bd.is_empty() {
                self.dir.remove(&chunk.block);
            }
        }
        self.free.push(slot_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::BlockCollector;

    fn chunk(block: u64, attrs: &[u32], rows: u32, base: u32) -> Chunk {
        let mut c = BlockCollector::new(block, attrs.to_vec());
        for r in 0..rows {
            let offs: Vec<u32> = attrs.iter().map(|&a| base + a * 10 + r).collect();
            c.push_row(&offs);
        }
        c.build()
    }

    #[test]
    fn exact_hit_returns_column() {
        let mut m = PositionalMap::new(PosMapConfig::default());
        m.insert(chunk(0, &[4, 7], 3, 100));
        let v = m.fetch_block(0, &[7]);
        assert_eq!(v.entries[0], AttrPositions::Exact(vec![170, 171, 172]));
        assert_eq!(v.rows, 3);
    }

    #[test]
    fn anchor_prefers_closer_neighbour() {
        let mut m = PositionalMap::new(PosMapConfig::default());
        m.insert(chunk(0, &[2, 12], 2, 0));
        // Attr 10: distance 8 to the left (2), 2 to the right (12).
        match &m.fetch_block(0, &[10]).entries[0] {
            AttrPositions::Anchor { anchor_attr, .. } => assert_eq!(*anchor_attr, 12),
            other => panic!("expected anchor, got {other:?}"),
        }
        // Attr 3: left anchor 2 wins.
        match &m.fetch_block(0, &[3]).entries[0] {
            AttrPositions::Anchor { anchor_attr, .. } => assert_eq!(*anchor_attr, 2),
            other => panic!("expected anchor, got {other:?}"),
        }
    }

    #[test]
    fn uncovered_block_has_no_positions() {
        let mut m = PositionalMap::new(PosMapConfig::default());
        m.insert(chunk(0, &[1], 2, 0));
        assert!(m.fetch_block(5, &[1]).entries[0].is_none());
    }

    #[test]
    fn newer_chunk_shadows_older() {
        let mut m = PositionalMap::new(PosMapConfig::default());
        m.insert(chunk(0, &[4], 2, 100));
        m.insert(chunk(0, &[4, 5], 2, 500));
        match &m.fetch_block(0, &[4]).entries[0] {
            AttrPositions::Exact(col) => assert_eq!(col[0], 540),
            other => panic!("expected exact, got {other:?}"),
        }
    }

    #[test]
    fn should_collect_matches_paper_rule() {
        let mut m = PositionalMap::new(PosMapConfig::default());
        // Nothing indexed: collect.
        assert!(m.should_collect(0, &[1, 2]));
        m.insert(chunk(0, &[1, 2], 2, 0));
        // Both in the same chunk: no need.
        assert!(!m.should_collect(0, &[1, 2]));
        // Partially uncovered: collect.
        assert!(m.should_collect(0, &[1, 9]));
        m.insert(chunk(0, &[9], 2, 0));
        // 1 and 9 now live in different chunks: collect the combination.
        assert!(m.should_collect(0, &[1, 9]));
        // Single attribute, covered: no need.
        assert!(!m.should_collect(0, &[9]));
    }

    #[test]
    fn budget_evicts_lru() {
        // One chunk here is ~84 bytes (16 u16 offsets + directory
        // overhead); a 200-byte budget holds two.
        let cfg = PosMapConfig {
            budget: Some(ByteSize(200)),
            ..Default::default()
        };
        let mut m = PositionalMap::new(cfg);
        m.insert(chunk(0, &[1], 16, 0));
        m.insert(chunk(1, &[1], 16, 0));
        // Touch block 0 so block 1 becomes LRU.
        let _ = m.fetch_block(0, &[1]);
        m.insert(chunk(2, &[1], 16, 0));
        assert!(m.bytes_in_memory() <= 200);
        assert!(m.stats().drops > 0);
        // Block 0 was kept hot; block 1 was the victim.
        assert!(matches!(
            m.fetch_block(0, &[1]).entries[0],
            AttrPositions::Exact(_)
        ));
        assert!(m.fetch_block(1, &[1]).entries[0].is_none());
    }

    /// A touch keeps a block's chunks (direct and anchor) exactly as
    /// recent as a fetch does, without counting a snapshot.
    #[test]
    fn touch_stamps_what_a_fetch_stamps() {
        // Which of blocks 0 and 1 survives block 2's insert, after block
        // 0's chunk is read as attribute 3's anchor. 200 bytes hold two
        // chunks.
        let survivors = |read: &dyn Fn(&PositionalMap)| {
            let mut m = PositionalMap::new(PosMapConfig {
                budget: Some(ByteSize(200)),
                ..Default::default()
            });
            m.insert(chunk(0, &[1], 16, 0));
            m.insert(chunk(1, &[2], 16, 0));
            read(&m);
            m.insert(chunk(2, &[1], 16, 0));
            let kept = |b: u64, a: u32| !m.fetch_block(b, &[a]).entries[0].is_none();
            (kept(0, 1), kept(1, 2))
        };
        let fetched = survivors(&|m| drop(m.fetch_block(0, &[3])));
        assert_eq!(fetched, (true, false));
        assert_eq!(survivors(&|m| m.touch_block(0, &[3])), fetched);
        let mut m = PositionalMap::new(PosMapConfig::default());
        m.insert(chunk(0, &[1], 16, 0));
        m.touch_block(0, &[1, 3]);
        assert_eq!(m.stats().snapshots, 0);
        let _ = m.fetch_block(0, &[1]);
        assert_eq!(m.stats().snapshots, 1);
    }

    #[test]
    fn workload_heat_overrides_lru() {
        let log = Arc::new(WorkloadLog::new());
        for _ in 0..50 {
            log.record_touches(&[1]); // attr 1 is hot
        }
        log.record_touches(&[2]); // attr 2 is cold
        let cfg = PosMapConfig {
            budget: Some(ByteSize(200)),
            workload: Some(Arc::clone(&log)),
            ..Default::default()
        };
        let mut m = PositionalMap::new(cfg);
        m.insert(chunk(0, &[1], 16, 0)); // hot attribute
        m.insert(chunk(1, &[2], 16, 0)); // cold attribute
                                         // Touch the cold chunk so pure LRU would evict the hot one.
        let _ = m.fetch_block(1, &[2]);
        m.insert(chunk(2, &[1], 16, 0));
        assert!(m.bytes_in_memory() <= 200);
        assert!(
            matches!(m.fetch_block(0, &[1]).entries[0], AttrPositions::Exact(_)),
            "chunk of the hot attribute survives"
        );
        assert!(
            m.fetch_block(1, &[2]).entries[0].is_none(),
            "chunk of the cold attribute evicted despite recency"
        );
    }

    #[test]
    fn clear_removes_everything() {
        let mut m = PositionalMap::new(PosMapConfig {
            budget: Some(ByteSize(100)),
            ..Default::default()
        });
        m.insert(chunk(0, &[1], 16, 0));
        m.insert(chunk(1, &[1], 16, 0));
        assert!(m.stats().drops >= 1, "setup must actually evict");
        m.eol_mut().absorb_segment(0, &[0], 10);
        m.clear();
        assert_eq!(m.bytes_in_memory(), 0);
        assert_eq!(m.pointer_count(), 0);
        assert!(m.fetch_block(1, &[1]).entries[0].is_none());
    }

    #[test]
    fn pointer_count_tracks_chunks_and_eol() {
        let mut m = PositionalMap::new(PosMapConfig::default());
        m.insert(chunk(0, &[1, 2], 4, 0)); // 8 pointers
        m.eol_mut().absorb_segment(0, &[0, 10], 20);
        assert_eq!(m.pointer_count(), 10);
    }
}
