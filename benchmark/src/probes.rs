//! Standalone layer probes: each times one layer's public functions over
//! the generated files, ten repeats, median.
//!
//! A probe says how fast a layer runs when nothing else does; the span
//! table says how much of an operation the layer holds. Together they say
//! how much of `cold_first_query` the layers explain
//! (`core.scan.residual_share`).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nodb_cache::{CacheConfig, ColumnBuilder, RawCache};
use nodb_common::{ByteSource, DataType, IoBackend, LineFormat, Row, Schema, Value, WorkloadLog};
use nodb_csv::lines::LineReader;
use nodb_csv::tokenize::{field_at, tokenize_all, tokenize_upto};
use nodb_json::JsonFormat;
use nodb_posmap::{BlockCollector, PosMapConfig, PositionalMap};
use nodb_server::protocol::{read_frame, Frame};

use crate::datagen::{InputFile, EVENTS_SCHEMA};
use crate::stats::median_of;
use crate::workloads::{prime, text, Measured, Res};

const REPEATS: usize = 10;
/// The cold query's furthest column is `c140`: 141 fields per line.
const TOKENIZE_UPTO: usize = 141;
/// Lines whose fields the conversion probe parses (150 fields each).
const PARSE_LINES: usize = 2_000;
const MB: f64 = 1e6;

/// Median seconds of `REPEATS` runs of `f`.
fn median_seconds(mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut seconds = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        f()?;
        seconds.push(t.elapsed().as_secs_f64());
    }
    Ok(median_of(&seconds))
}

/// Rates of the layers a cold scan passes through, kept for
/// `core.scan.residual_share`.
#[derive(Debug, Clone, Copy)]
pub struct ScanRates {
    pub io_bytes_per_s: f64,
    pub split_bytes_per_s: f64,
    pub tokenize_bytes_per_s: f64,
    pub parse_fields_per_s: f64,
}

/// Every probe. `wide` and `events` are the generated inputs.
pub fn run(wide: &InputFile, events: &InputFile) -> Res<(Vec<Measured>, ScanRates)> {
    let mut out = Vec::new();
    let wide_bytes = wide.bytes as f64;

    // common::io — sequential 1 MiB positioned reads, and a first touch of
    // every page of a fresh mapping.
    let read_s = median_seconds(|| prime(&wide.path).map(drop))?;
    let mmap_s = median_seconds(|| touch_mapping(&wide.path))?;
    out.push(Measured::new(
        "common.io.read_mb_per_s",
        wide_bytes / MB / read_s,
        REPEATS,
    ));
    out.push(Measured::new(
        "common.io.mmap_mb_per_s",
        wide_bytes / MB / mmap_s,
        REPEATS,
    ));

    // csv::lines — LineReader::next_line over the whole file.
    let split_s = median_seconds(|| {
        let mut reader = LineReader::open(&wide.path).map_err(text)?;
        let mut line = Vec::new();
        while reader.next_line(&mut line).map_err(text)?.is_some() {
            std::hint::black_box(&line);
        }
        Ok(())
    })?;
    out.push(Measured::new(
        "csv.lines.split_mb_per_s",
        wide_bytes / MB / split_s,
        REPEATS,
    ));

    // csv::tokenize — tokenize_upto on every line, from memory.
    let wide_text = std::fs::read(&wide.path).map_err(text)?;
    let wide_lines: Vec<&[u8]> = wide_text
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let mut starts: Vec<u32> = Vec::with_capacity(TOKENIZE_UPTO);
    let tokenize_s = median_seconds(|| {
        for line in &wide_lines {
            starts.clear();
            std::hint::black_box(tokenize_upto(line, b',', TOKENIZE_UPTO, &mut starts));
        }
        Ok(())
    })?;
    let line_bytes: usize = wide_lines.iter().map(|l| l.len() + 1).sum();
    out.push(Measured::new(
        "csv.tokenize.mb_per_s",
        line_bytes as f64 / MB / tokenize_s,
        REPEATS,
    ));
    out.push(Measured::new(
        "csv.tokenize.fields_per_s",
        (wide_lines.len() * TOKENIZE_UPTO) as f64 / tokenize_s,
        REPEATS,
    ));

    // common::value — Value::parse_field on pre-split integer fields.
    let mut fields: Vec<&[u8]> = Vec::new();
    for line in wide_lines.iter().take(PARSE_LINES) {
        starts.clear();
        tokenize_all(line, b',', &mut starts);
        fields.extend(starts.iter().map(|&s| field_at(line, b',', s)));
    }
    let parse_s = median_seconds(|| {
        for f in &fields {
            std::hint::black_box(Value::parse_field(f, DataType::Int32).map_err(text)?);
        }
        Ok(())
    })?;
    out.push(Measured::new(
        "common.value.parse_mfields_per_s",
        fields.len() as f64 / 1e6 / parse_s,
        REPEATS,
    ));
    drop(fields);
    drop(wide_lines);
    drop(wide_text);

    // json::tokenize — positions of all twelve keys on every line.
    let events_text = std::fs::read(&events.path).map_err(text)?;
    let format = JsonFormat::from_schema(&Schema::parse(EVENTS_SCHEMA).map_err(text)?);
    let keys = format.keys().len();
    let json_s = median_seconds(|| {
        for line in events_text.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            starts.clear();
            std::hint::black_box(
                format
                    .positions_upto(line, keys, &mut starts)
                    .map_err(text)?,
            );
        }
        Ok(())
    })?;
    out.push(Measured::new(
        "json.tokenize.mb_per_s",
        events_text.len() as f64 / MB / json_s,
        REPEATS,
    ));
    drop(events_text);

    out.push(posmap_fetch()?);
    out.push(cache_get()?);
    out.extend(protocol_frames()?);

    let rates = ScanRates {
        io_bytes_per_s: wide_bytes / mmap_s,
        split_bytes_per_s: wide_bytes / split_s,
        tokenize_bytes_per_s: line_bytes as f64 / tokenize_s,
        parse_fields_per_s: out
            .iter()
            .find(|m| m.name == "common.value.parse_mfields_per_s")
            .map_or(f64::INFINITY, |m| m.value * 1e6),
    };
    Ok((out, rates))
}

fn touch_mapping(path: &Path) -> Res<()> {
    let src = ByteSource::open(path, IoBackend::Mmap).map_err(text)?;
    let mapped = src
        .mapped()
        .ok_or_else(|| "this platform does not map files".to_string())?;
    let mut sum = 0u64;
    for page in mapped.chunks(4096) {
        sum += u64::from(page[0]);
    }
    std::hint::black_box(sum);
    Ok(())
}

const PROBE_BLOCKS: u64 = 16;
const PROBE_BLOCK_ROWS: usize = 4096;
const PROBE_ATTRS: u32 = 8;
const LOOKUPS: usize = 2_000;

/// `posmap.fetch_block_ns`: one `fetch_block_shared` of four attributes
/// (three indexed, one reached through an anchor) on a built map.
fn posmap_fetch() -> Res<Measured> {
    let mut map = PositionalMap::new(PosMapConfig {
        block_rows: PROBE_BLOCK_ROWS,
        budget: None,
        spill_dir: None,
        workload: None,
    });
    for block in 0..PROBE_BLOCKS {
        let mut collector = BlockCollector::new(block, (0..PROBE_ATTRS).collect());
        for row in 0..PROBE_BLOCK_ROWS as u32 {
            let offsets: Vec<u32> = (0..PROBE_ATTRS).map(|a| a * 10 + row % 7).collect();
            collector.push_row(&offsets);
        }
        map.insert(collector.build());
    }
    let wanted = [1, 3, 6, PROBE_ATTRS + 2];
    let seconds = median_seconds(|| {
        for i in 0..LOOKUPS as u64 {
            let view = map
                .fetch_block_shared(i % PROBE_BLOCKS, &wanted)
                .ok_or_else(|| "an in-memory chunk reported itself spilled".to_string())?;
            std::hint::black_box(view);
        }
        Ok(())
    })?;
    Ok(Measured::new(
        "posmap.fetch_block_ns",
        seconds * 1e9 / LOOKUPS as f64,
        REPEATS,
    ))
}

/// `cache.get_ns`: one `get_shared` hit on a populated cache.
fn cache_get() -> Res<Measured> {
    let mut cache = RawCache::new(CacheConfig {
        budget: None,
        cost_weight: 16,
        workload: Some(Arc::new(WorkloadLog::new())),
    });
    for block in 0..PROBE_BLOCKS {
        for attr in 0..PROBE_ATTRS {
            let mut column = ColumnBuilder::new(block, attr, DataType::Int32, PROBE_BLOCK_ROWS);
            for row in 0..PROBE_BLOCK_ROWS {
                column.set(row, &Value::Int32(row as i32));
            }
            cache.insert(column.build());
        }
    }
    let seconds = median_seconds(|| {
        for i in 0..LOOKUPS as u64 {
            let hit = cache
                .get_shared(i % PROBE_BLOCKS, (i % u64::from(PROBE_ATTRS)) as u32)
                .ok_or_else(|| "a cached column went missing".to_string())?;
            std::hint::black_box(hit);
        }
        Ok(())
    })?;
    Ok(Measured::new(
        "cache.get_ns",
        seconds * 1e9 / LOOKUPS as f64,
        REPEATS,
    ))
}

const FRAMES: usize = 20_000;

/// `server.protocol.{encode,decode}_mb_per_s` on `Row` frames shaped like
/// the rows `server_mixed` streams.
fn protocol_frames() -> Res<Vec<Measured>> {
    let frames: Vec<Frame> = (0..FRAMES as i64)
        .map(|i| {
            Frame::Row(Row(vec![
                Value::Int64(i),
                Value::Int32((i % 2_000) as i32),
                Value::Int32((i * 7 % 2_000) as i32),
                Value::Text(["view", "click", "search", "purchase"][(i % 4) as usize].to_string()),
            ]))
        })
        .collect();
    let mut wire = Vec::new();
    let encode_s = median_seconds(|| {
        wire.clear();
        for f in &frames {
            f.encode(&mut wire).map_err(text)?;
        }
        Ok(())
    })?;
    let decode_s = median_seconds(|| {
        let mut reader = wire.as_slice();
        let mut decoded = 0;
        while let Some(frame) = read_frame(&mut reader).map_err(text)? {
            std::hint::black_box(frame);
            decoded += 1;
        }
        if decoded == FRAMES {
            Ok(())
        } else {
            Err(format!("decoded {decoded} of {FRAMES} frames"))
        }
    })?;
    let mb = wire.len() as f64 / MB;
    Ok(vec![
        Measured::new("server.protocol.encode_mb_per_s", mb / encode_s, REPEATS),
        Measured::new("server.protocol.decode_mb_per_s", mb / decode_s, REPEATS),
    ])
}
