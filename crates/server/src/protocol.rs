//! The wire protocol: length-prefixed frames carrying SQL text and
//! parameters toward the server and typed rows, results and errors back.
//!
//! # Frame layout
//!
//! ```text
//! +----------------+-----+-------------------+
//! | u32 LE length  | tag | payload ...       |
//! +----------------+-----+-------------------+
//! ```
//!
//! `length` counts the tag byte plus the payload and is capped at
//! [`MAX_FRAME_BYTES`]; a larger announced length is a protocol error
//! *before* any allocation happens, so a hostile or corrupted peer
//! cannot make either side reserve unbounded memory. All integers are
//! little-endian; strings are `u32` length + UTF-8 bytes.
//!
//! # Conversation
//!
//! ```text
//! server -> Hello                      (on accept)
//! client -> Execute { sql, params }
//! server -> RowSchema                  (on success)
//!           Row*                       (zero or more, streamed lazily)
//!           Done { rows }
//!        |  Error { kind, message }    (statement failed)
//!        |  Busy { message }           (admission control rejected it)
//! client -> Stats { table }            (observability request)
//! server -> StatsReport(payload)       (counters + footprints + phases)
//!        |  Error { kind, message }    (e.g. unknown table)
//! client -> Cancel                     (abort the in-flight row stream)
//! server -> Cancelled { rows }         (stream stopped; connection reusable)
//! client -> Goodbye                    (clean close)
//! ```
//!
//! Rows are streamed frame-by-frame straight off the engine's lazy
//! [`QueryCursor`](nodb_core::QueryCursor): a client that stops reading
//! (or disconnects) makes the server's writes fail, which drops the
//! cursor and stops the underlying raw-file scan at block granularity.
//!
//! `Cancel` is the polite version of that disconnect: the client keeps
//! draining row frames while the server, which checks for an inbound
//! frame without waiting at each flush boundary, drops its cursor (the same early-stop path an
//! abandoned cursor takes) and answers `Cancelled` with the number of
//! rows it had streamed. Because the server might finish the stream
//! before noticing, a `Cancel` that arrives *between* statements is
//! answered with `Cancelled { rows: 0 }` — so a client that sent
//! `Cancel` always reads exactly one `Cancelled`, whether or not it won
//! the race, and the connection stays usable either way.
//!
//! Every decoder returns a typed [`NoDbError`] on truncated input,
//! unknown tags, bad lengths or invalid UTF-8 — never a panic.

use std::io::{Read, Write};

use nodb_common::{DataType, Date, Field, NoDbError, Result, Row, Schema, Value};

/// Protocol version carried in [`Frame::Hello`]. Bump on incompatible
/// frame-layout changes; the client refuses mismatched servers.
///
/// v2 added the `Stats` / `StatsReport` observability frames.
/// v3 added the `Cancel` / `Cancelled` in-flight-stream abort frames.
pub const PROTOCOL_VERSION: u16 = 3;

/// Upper bound on the announced frame length (tag + payload), checked
/// before any payload allocation. One frame carries one row (or one SQL
/// statement with its parameters), so 16 MiB is far beyond anything the
/// engine produces while still bounding a malicious length prefix.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// One protocol frame. See the [module docs](self) for the layout and
/// the conversation in which each frame may appear.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Server greeting, sent once per connection on accept.
    Hello {
        /// [`PROTOCOL_VERSION`] of the serving side.
        version: u16,
        /// Human-readable server identification.
        server: String,
    },
    /// Execute a SQL statement with positional parameters. The server
    /// caches the prepared form per connection, keyed by the SQL text,
    /// so repeated `Execute`s with the same text skip lex/parse/bind.
    Execute {
        /// Statement text (`?` / `$N` placeholders allowed).
        sql: String,
        /// Positional parameter values, one per placeholder slot.
        params: Vec<Value>,
    },
    /// Output schema of a successfully started statement; precedes the
    /// row stream.
    RowSchema {
        /// Column `(name, type)` pairs, in output order.
        columns: Vec<(String, DataType)>,
    },
    /// One result row.
    Row(Row),
    /// End of a successful row stream.
    Done {
        /// Number of `Row` frames that preceded this one.
        rows: u64,
    },
    /// The statement failed. `kind` mirrors the [`NoDbError`] variant so
    /// the client can rebuild a typed error (see [`ErrorKind`]).
    Error {
        /// Coarse error category.
        kind: ErrorKind,
        /// Human-readable message.
        message: String,
    },
    /// Admission control rejected the request: the server is at its
    /// configured in-flight query (or connection) capacity. Back off and
    /// retry; nothing was executed.
    Busy {
        /// What was saturated.
        message: String,
    },
    /// Request the server-side observability view of one table: scan
    /// metrics, auxiliary footprints, phase profile and workload heat.
    Stats {
        /// The registered table name.
        table: String,
    },
    /// Reply to [`Frame::Stats`].
    StatsReport(StatsPayload),
    /// Abort the in-flight row stream without severing the connection.
    /// The server drops its cursor (stopping the raw scan the way an
    /// abandoned cursor does) and answers [`Frame::Cancelled`]; sent
    /// between statements it is a no-op that still gets its `Cancelled`,
    /// so the client always reads exactly one acknowledgement.
    Cancel,
    /// Acknowledges a [`Frame::Cancel`]: the stream (if any) is stopped
    /// and the connection is ready for the next request.
    Cancelled {
        /// `Row` frames streamed before the cancellation took effect
        /// (0 when the `Cancel` arrived between statements).
        rows: u64,
    },
    /// Clean end of the conversation (sent by the client before
    /// closing, and by the server to idle connections during shutdown).
    Goodbye,
}

/// Everything a `Stats` request reports about one in-situ table: the
/// engine's [`ScanMetrics`](nodb_core::ScanMetrics) counters, the
/// auxiliary-structure footprint
/// ([`AuxInfo`](nodb_core::AuxInfo)-shaped), the cumulative
/// [`PhaseProfile`](nodb_core::PhaseProfile), and the per-attribute
/// workload heat driving budgeted evictions. Plain wire-friendly fields
/// so the payload can outlive engine-struct changes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsPayload {
    /// Queries that scanned the table.
    pub scans: u64,
    /// Tuples emitted to query plans.
    pub rows_emitted: u64,
    /// Fields located by scanning characters.
    pub fields_tokenized: u64,
    /// Fields located by jumping straight to a map position.
    pub fields_via_map: u64,
    /// Fields located by incremental parsing from a map anchor.
    pub fields_via_anchor: u64,
    /// Field values converted from ASCII to binary.
    pub fields_parsed: u64,
    /// Field values served from the binary cache.
    pub fields_from_cache: u64,
    /// Bytes of raw file consumed by sequential tokenization.
    pub bytes_tokenized: u64,
    /// Positional-map bytes in memory.
    pub posmap_bytes: u64,
    /// Total positional pointers held.
    pub posmap_pointers: u64,
    /// Cache bytes in memory.
    pub cache_bytes: u64,
    /// Cache utilization in `[0, 1]` (0 when no budget set).
    pub cache_utilization: f64,
    /// Attributes with collected statistics.
    pub stats_attrs: u64,
    /// Estimated nanoseconds fetching raw bytes.
    pub io_ns: u64,
    /// Raw-file bytes fetched.
    pub io_bytes: u64,
    /// Estimated nanoseconds tokenizing.
    pub tokenize_ns: u64,
    /// Bytes consumed by tokenization.
    pub tokenize_bytes: u64,
    /// Estimated nanoseconds converting values.
    pub parse_ns: u64,
    /// Field values converted.
    pub parse_values: u64,
    /// `(attribute ordinal, decayed touch count)` for attributes with
    /// nonzero workload heat, ascending by ordinal.
    pub heats: Vec<(u32, u64)>,
}

/// Wire encoding of [`NoDbError`] categories (one byte in an
/// [`Frame::Error`] frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorKind {
    /// [`NoDbError::Io`]
    Io = 0,
    /// [`NoDbError::Parse`]
    Parse = 1,
    /// [`NoDbError::Sql`]
    Sql = 2,
    /// [`NoDbError::Plan`]
    Plan = 3,
    /// [`NoDbError::Execution`]
    Execution = 4,
    /// [`NoDbError::Catalog`]
    Catalog = 5,
    /// [`NoDbError::Config`]
    Config = 6,
    /// [`NoDbError::Internal`]
    Internal = 7,
    /// The server is shutting down and refuses new work.
    Shutdown = 8,
}

impl ErrorKind {
    /// Classify an engine error for the wire.
    pub fn of(e: &NoDbError) -> ErrorKind {
        match e {
            NoDbError::Io(_) => ErrorKind::Io,
            NoDbError::Parse(_) => ErrorKind::Parse,
            NoDbError::Sql(_) => ErrorKind::Sql,
            NoDbError::Plan(_) => ErrorKind::Plan,
            NoDbError::Execution(_) => ErrorKind::Execution,
            NoDbError::Catalog(_) => ErrorKind::Catalog,
            NoDbError::Config(_) => ErrorKind::Config,
            // Busy travels as its own frame, but classify it anyway so
            // an engine-level Busy does not panic the encoder.
            NoDbError::Busy(_) => ErrorKind::Execution,
            NoDbError::Internal(_) => ErrorKind::Internal,
        }
    }

    /// Rebuild a typed [`NoDbError`] on the client side.
    pub fn to_error(self, message: String) -> NoDbError {
        match self {
            ErrorKind::Io => NoDbError::Io(std::io::Error::other(message)),
            ErrorKind::Parse => NoDbError::Parse(message),
            ErrorKind::Sql => NoDbError::Sql(message),
            ErrorKind::Plan => NoDbError::Plan(message),
            ErrorKind::Execution => NoDbError::Execution(message),
            ErrorKind::Catalog => NoDbError::Catalog(message),
            ErrorKind::Config => NoDbError::Config(message),
            ErrorKind::Internal => NoDbError::Internal(message),
            ErrorKind::Shutdown => NoDbError::Execution(format!("server shutdown: {message}")),
        }
    }

    fn from_u8(b: u8) -> Result<ErrorKind> {
        Ok(match b {
            0 => ErrorKind::Io,
            1 => ErrorKind::Parse,
            2 => ErrorKind::Sql,
            3 => ErrorKind::Plan,
            4 => ErrorKind::Execution,
            5 => ErrorKind::Catalog,
            6 => ErrorKind::Config,
            7 => ErrorKind::Internal,
            8 => ErrorKind::Shutdown,
            other => return Err(wire_err(format!("unknown error kind {other}"))),
        })
    }
}

// Frame tags. Client->server: 0x0_, server->client: 0x1_.
const TAG_EXECUTE: u8 = 0x01;
const TAG_GOODBYE: u8 = 0x02;
const TAG_STATS: u8 = 0x03;
const TAG_CANCEL: u8 = 0x04;
const TAG_HELLO: u8 = 0x10;
const TAG_SCHEMA: u8 = 0x11;
const TAG_ROW: u8 = 0x12;
const TAG_DONE: u8 = 0x13;
const TAG_ERROR: u8 = 0x14;
const TAG_BUSY: u8 = 0x15;
const TAG_STATS_REPORT: u8 = 0x16;
const TAG_CANCELLED: u8 = 0x17;

// Value tags.
const VAL_NULL: u8 = 0;
const VAL_INT32: u8 = 1;
const VAL_INT64: u8 = 2;
const VAL_FLOAT64: u8 = 3;
const VAL_TEXT: u8 = 4;
const VAL_DATE: u8 = 5;
const VAL_BOOL: u8 = 6;

fn wire_err(msg: impl std::fmt::Display) -> NoDbError {
    NoDbError::parse(format!("wire protocol: {msg}"))
}

fn dtype_to_u8(t: DataType) -> u8 {
    match t {
        DataType::Int32 => 0,
        DataType::Int64 => 1,
        DataType::Float64 => 2,
        DataType::Text => 3,
        DataType::Date => 4,
        DataType::Bool => 5,
    }
}

fn dtype_from_u8(b: u8) -> Result<DataType> {
    Ok(match b {
        0 => DataType::Int32,
        1 => DataType::Int64,
        2 => DataType::Float64,
        3 => DataType::Text,
        4 => DataType::Date,
        5 => DataType::Bool,
        other => return Err(wire_err(format!("unknown data type {other}"))),
    })
}

// ----- encoding -------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    let n = u32::try_from(s.len()).map_err(|_| {
        wire_err(format!(
            "string of {} bytes exceeds the u32 length field",
            s.len()
        ))
    })?;
    put_u32(out, n);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Encode a collection count into a `u16` wire field, rejecting
/// collections the field cannot represent instead of truncating.
fn put_count_u16(out: &mut Vec<u8>, n: usize, what: &str) -> Result<()> {
    let v = u16::try_from(n)
        .map_err(|_| wire_err(format!("{what} count {n} exceeds the u16 wire field")))?;
    put_u16(out, v);
    Ok(())
}

fn put_value(out: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Null => out.push(VAL_NULL),
        Value::Int32(x) => {
            out.push(VAL_INT32);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Int64(x) => {
            out.push(VAL_INT64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float64(x) => {
            out.push(VAL_FLOAT64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(VAL_TEXT);
            put_str(out, s)?;
        }
        Value::Date(d) => {
            out.push(VAL_DATE);
            out.extend_from_slice(&d.days().to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(u8::from(*b));
        }
    }
    Ok(())
}

impl Frame {
    /// Append this frame's full wire form — length prefix, tag, payload
    /// — to `out`. Fails (restoring `out` to its original length) when a
    /// string, count or body length overflows its wire field — checked
    /// conversions, never silent truncation.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        let len_at = out.len();
        put_u32(out, 0); // patched below
        if let Err(e) = self.encode_body(out) {
            out.truncate(len_at);
            return Err(e);
        }
        let body_len = out.len() - len_at - 4;
        match u32::try_from(body_len) {
            Ok(n) if n <= MAX_FRAME_BYTES => {
                out[len_at..len_at + 4].copy_from_slice(&n.to_le_bytes());
                Ok(())
            }
            _ => {
                out.truncate(len_at);
                Err(wire_err(format!(
                    "encoded frame body of {body_len} bytes exceeds the \
                     {MAX_FRAME_BYTES}-byte cap"
                )))
            }
        }
    }

    /// The tag + payload of [`Frame::encode`], without the length prefix.
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            Frame::Hello { version, server } => {
                out.push(TAG_HELLO);
                put_u16(out, *version);
                put_str(out, server)?;
            }
            Frame::Execute { sql, params } => {
                out.push(TAG_EXECUTE);
                put_str(out, sql)?;
                put_count_u16(out, params.len(), "parameter")?;
                for p in params {
                    put_value(out, p)?;
                }
            }
            Frame::RowSchema { columns } => {
                out.push(TAG_SCHEMA);
                put_count_u16(out, columns.len(), "column")?;
                for (name, dtype) in columns {
                    put_str(out, name)?;
                    out.push(dtype_to_u8(*dtype));
                }
            }
            Frame::Row(row) => {
                out.push(TAG_ROW);
                put_count_u16(out, row.values().len(), "row value")?;
                for v in row.values() {
                    put_value(out, v)?;
                }
            }
            Frame::Done { rows } => {
                out.push(TAG_DONE);
                put_u64(out, *rows);
            }
            Frame::Error { kind, message } => {
                out.push(TAG_ERROR);
                // CAST: ErrorKind is #[repr(u8)] with explicit
                // discriminants 0..=8 — the discriminant is the wire byte.
                out.push(*kind as u8);
                put_str(out, message)?;
            }
            Frame::Busy { message } => {
                out.push(TAG_BUSY);
                put_str(out, message)?;
            }
            Frame::Stats { table } => {
                out.push(TAG_STATS);
                put_str(out, table)?;
            }
            Frame::StatsReport(p) => {
                out.push(TAG_STATS_REPORT);
                for v in [
                    p.scans,
                    p.rows_emitted,
                    p.fields_tokenized,
                    p.fields_via_map,
                    p.fields_via_anchor,
                    p.fields_parsed,
                    p.fields_from_cache,
                    p.bytes_tokenized,
                    p.posmap_bytes,
                    p.posmap_pointers,
                    p.cache_bytes,
                    p.cache_utilization.to_bits(),
                    p.stats_attrs,
                    p.io_ns,
                    p.io_bytes,
                    p.tokenize_ns,
                    p.tokenize_bytes,
                    p.parse_ns,
                    p.parse_values,
                ] {
                    put_u64(out, v);
                }
                let n = u32::try_from(p.heats.len())
                    .map_err(|_| wire_err("heat count exceeds the u32 wire field"))?;
                put_u32(out, n);
                for (attr, heat) in &p.heats {
                    put_u32(out, *attr);
                    put_u64(out, *heat);
                }
            }
            Frame::Cancel => out.push(TAG_CANCEL),
            Frame::Cancelled { rows } => {
                out.push(TAG_CANCELLED);
                put_u64(out, *rows);
            }
            Frame::Goodbye => out.push(TAG_GOODBYE),
        }
        Ok(())
    }

    /// Encode into a fresh buffer (convenience for one-off frames).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.encode(&mut out)?;
        Ok(out)
    }

    /// Decode one frame body (tag + payload, *without* the length
    /// prefix). Trailing bytes after a complete frame are an error: a
    /// frame is exactly one message.
    pub fn decode(body: &[u8]) -> Result<Frame> {
        let mut r = Reader::new(body);
        let tag = r.u8()?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                version: r.u16()?,
                server: r.string()?,
            },
            TAG_EXECUTE => {
                let sql = r.string()?;
                let n = r.u16()? as usize;
                let mut params = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    params.push(r.value()?);
                }
                Frame::Execute { sql, params }
            }
            TAG_SCHEMA => {
                let n = r.u16()? as usize;
                let mut columns = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    let name = r.string()?;
                    let dtype = dtype_from_u8(r.u8()?)?;
                    columns.push((name, dtype));
                }
                Frame::RowSchema { columns }
            }
            TAG_ROW => {
                let n = r.u16()? as usize;
                let mut values = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    values.push(r.value()?);
                }
                Frame::Row(Row(values))
            }
            TAG_DONE => Frame::Done { rows: r.u64()? },
            TAG_ERROR => Frame::Error {
                kind: ErrorKind::from_u8(r.u8()?)?,
                message: r.string()?,
            },
            TAG_BUSY => Frame::Busy {
                message: r.string()?,
            },
            TAG_STATS => Frame::Stats { table: r.string()? },
            TAG_STATS_REPORT => {
                let mut p = StatsPayload {
                    scans: r.u64()?,
                    rows_emitted: r.u64()?,
                    fields_tokenized: r.u64()?,
                    fields_via_map: r.u64()?,
                    fields_via_anchor: r.u64()?,
                    fields_parsed: r.u64()?,
                    fields_from_cache: r.u64()?,
                    bytes_tokenized: r.u64()?,
                    posmap_bytes: r.u64()?,
                    posmap_pointers: r.u64()?,
                    cache_bytes: r.u64()?,
                    cache_utilization: f64::from_bits(r.u64()?),
                    stats_attrs: r.u64()?,
                    io_ns: r.u64()?,
                    io_bytes: r.u64()?,
                    tokenize_ns: r.u64()?,
                    tokenize_bytes: r.u64()?,
                    parse_ns: r.u64()?,
                    parse_values: r.u64()?,
                    heats: Vec::new(),
                };
                let n = r.u32()? as usize;
                p.heats.reserve(n.min(r.remaining()));
                for _ in 0..n {
                    let attr = r.u32()?;
                    let heat = r.u64()?;
                    p.heats.push((attr, heat));
                }
                Frame::StatsReport(p)
            }
            TAG_CANCEL => Frame::Cancel,
            TAG_CANCELLED => Frame::Cancelled { rows: r.u64()? },
            TAG_GOODBYE => Frame::Goodbye,
            other => return Err(wire_err(format!("unknown frame tag {other:#04x}"))),
        };
        if r.remaining() != 0 {
            return Err(wire_err(format!(
                "{} trailing byte(s) after frame",
                r.remaining()
            )));
        }
        Ok(frame)
    }
}

/// How many consecutive read-timeout ticks [`read_frame`]
/// tolerates *mid-frame* before declaring the peer stalled. With the
/// server's 50 ms idle poll this is ~10 s of patience —
/// enough for any real network hiccup, small enough that a stalled
/// client cannot hold graceful shutdown hostage. The mid-stream `Cancel`
/// poll reads with a 1 ms timeout, so a stalled `Cancel` costs ~0.2 s.
const MAX_MIDFRAME_TIMEOUTS: u32 = 200;

/// Read exactly one frame from `r`. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer closed); mid-frame EOF, an oversized
/// announced length, or a malformed body are typed errors.
///
/// On a stream with a read timeout set (the server's idle poll), a
/// timeout that fires *before any byte of a frame arrived* surfaces as a
/// `WouldBlock`/`TimedOut` [`NoDbError::Io`]: the caller treats it as an
/// idle tick, checks for shutdown, and polls again. A timeout
/// *mid-frame* retries internally (the peer has committed a length
/// prefix; the rest is in flight), giving up with a typed error after a
/// bounded number of ticks. A blocking stream or a slice never times
/// out.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    fn fill(r: &mut impl Read, buf: &mut [u8], mut filled: usize, what: &str) -> Result<usize> {
        let mut stalled: u32 = 0;
        while filled < buf.len() {
            match r.read(&mut buf[filled..]) {
                Ok(0) => {
                    return if filled == 0 {
                        Ok(0)
                    } else {
                        Err(wire_err(format!("connection closed mid-{what}")))
                    };
                }
                Ok(n) => {
                    filled += n;
                    stalled = 0;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if filled == 0 {
                        // Idle between frames: let the caller decide.
                        return Err(NoDbError::Io(e));
                    }
                    stalled += 1;
                    if stalled > MAX_MIDFRAME_TIMEOUTS {
                        return Err(wire_err(format!("peer stalled mid-{what}")));
                    }
                }
                Err(e) => return Err(NoDbError::Io(e)),
            }
        }
        Ok(filled)
    }

    let mut len = [0u8; 4];
    if fill(r, &mut len, 0, "length prefix")? == 0 {
        return Ok(None); // clean EOF at a frame boundary
    }
    let len = u32::from_le_bytes(len);
    if len == 0 {
        return Err(wire_err("zero-length frame"));
    }
    if len > MAX_FRAME_BYTES {
        return Err(wire_err(format!(
            "announced frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut body = vec![0u8; len as usize];
    // `filled = 0` would mean EOF here, but the peer already sent the
    // prefix, so treat a zero-fill as the mid-frame close it is.
    match fill(r, &mut body, 0, "frame body")? {
        0 if !body.is_empty() => Err(wire_err("connection closed mid-frame body")),
        _ => Frame::decode(&body).map(Some),
    }
}

/// Write one frame to `w` (single `write_all` of the encoded bytes).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    w.write_all(&frame.to_bytes()?)?;
    Ok(())
}

/// Build a [`Frame::RowSchema`] from an engine [`Schema`].
pub fn schema_frame(schema: &Schema) -> Frame {
    Frame::RowSchema {
        columns: schema
            .fields()
            .iter()
            .map(|f| (f.name.clone(), f.dtype))
            .collect(),
    }
}

/// Rebuild an engine [`Schema`] from a [`Frame::RowSchema`] column list.
pub fn schema_of_columns(columns: &[(String, DataType)]) -> Result<Schema> {
    Schema::new(
        columns
            .iter()
            .map(|(n, t)| Field::new(n.clone(), *t))
            .collect(),
    )
}

/// Bounds-checked cursor over a frame body. Every accessor returns a
/// typed error on underrun instead of panicking, which is what makes
/// `Frame::decode` safe on truncated or garbage input.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(wire_err(format!(
                "truncated frame: wanted {n} byte(s), {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        // The length is validated against what is actually present
        // before any allocation: a lying prefix cannot reserve memory.
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| wire_err("string is not valid UTF-8"))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            VAL_NULL => Value::Null,
            VAL_INT32 => Value::Int32(self.i32()?),
            VAL_INT64 => Value::Int64(self.i64()?),
            VAL_FLOAT64 => Value::Float64(f64::from_bits(self.u64()?)),
            VAL_TEXT => Value::Text(self.string()?),
            VAL_DATE => Value::Date(Date(self.i32()?)),
            VAL_BOOL => match self.u8()? {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                other => return Err(wire_err(format!("bad bool byte {other}"))),
            },
            other => return Err(wire_err(format!("unknown value tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.to_bytes().expect("encode");
        let got = read_frame(&mut &bytes[..]).expect("read").expect("frame");
        assert_eq!(got, f);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello {
            version: PROTOCOL_VERSION,
            server: "nodb 0.1".into(),
        });
        roundtrip(Frame::Execute {
            sql: "select * from t where a < ? and b like $2".into(),
            params: vec![
                Value::Null,
                Value::Int32(-7),
                Value::Int64(1 << 40),
                Value::Float64(-0.25),
                Value::Text("al%".into()),
                Value::Date(Date(20_000)),
                Value::Bool(true),
            ],
        });
        roundtrip(Frame::RowSchema {
            columns: vec![
                ("id".into(), DataType::Int32),
                ("name".into(), DataType::Text),
                ("day".into(), DataType::Date),
            ],
        });
        roundtrip(Frame::Row(Row(vec![
            Value::Int32(1),
            Value::Text("x".into()),
            Value::Null,
        ])));
        roundtrip(Frame::Done { rows: u64::MAX });
        roundtrip(Frame::Error {
            kind: ErrorKind::Plan,
            message: "unknown table `z`".into(),
        });
        roundtrip(Frame::Busy {
            message: "8 queries in flight".into(),
        });
        roundtrip(Frame::Stats {
            table: "lineitem".into(),
        });
        roundtrip(Frame::StatsReport(StatsPayload {
            scans: 3,
            rows_emitted: 1_000_000,
            fields_tokenized: 42,
            fields_via_map: 7,
            fields_via_anchor: 5,
            fields_parsed: 99,
            fields_from_cache: 11,
            bytes_tokenized: 1 << 33,
            posmap_bytes: 4096,
            posmap_pointers: 1024,
            cache_bytes: 8192,
            cache_utilization: 0.75,
            stats_attrs: 4,
            io_ns: 17,
            io_bytes: 1 << 20,
            tokenize_ns: 23,
            tokenize_bytes: 1 << 19,
            parse_ns: 29,
            parse_values: 31,
            heats: vec![(0, 12), (3, 1), (u32::MAX, u64::MAX)],
        }));
        roundtrip(Frame::StatsReport(StatsPayload::default()));
        roundtrip(Frame::Cancel);
        roundtrip(Frame::Cancelled { rows: 12_345 });
        roundtrip(Frame::Goodbye);
    }

    #[test]
    fn truncated_stats_report_is_a_typed_error() {
        let bytes = Frame::StatsReport(StatsPayload {
            heats: vec![(1, 2)],
            ..StatsPayload::default()
        })
        .to_bytes()
        .expect("encode");
        // Strip the length prefix, then cut the body everywhere.
        let body = &bytes[4..];
        for cut in 1..body.len() {
            assert!(Frame::decode(&body[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn nan_float_survives_bitwise() {
        let bytes = Frame::Row(Row(vec![Value::Float64(f64::NAN)]))
            .to_bytes()
            .expect("encode");
        let got = read_frame(&mut &bytes[..]).unwrap().unwrap();
        match got {
            Frame::Row(Row(vs)) => match vs[0] {
                Value::Float64(f) => assert!(f.is_nan()),
                ref other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_is_error() {
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
        let bytes = Frame::Goodbye.to_bytes().expect("encode");
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert!(matches!(err, NoDbError::Parse(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_FRAME_BYTES + 1);
        bytes.push(TAG_GOODBYE);
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn garbage_tags_and_trailing_bytes_are_typed_errors() {
        assert!(Frame::decode(&[0xEE]).is_err());
        assert!(Frame::decode(&[]).is_err());
        // Valid Goodbye followed by junk.
        assert!(Frame::decode(&[TAG_GOODBYE, 0, 1, 2]).is_err());
        // A row whose value tag is garbage.
        let mut body = vec![TAG_ROW];
        put_u16(&mut body, 1);
        body.push(250);
        assert!(Frame::decode(&body).is_err());
    }

    #[test]
    fn lying_string_length_is_bounded() {
        // Claims a 3 GiB string with 2 bytes present.
        let mut body = vec![TAG_BUSY];
        put_u32(&mut body, 3 << 30);
        body.extend_from_slice(b"hi");
        let err = Frame::decode(&body).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn error_kinds_roundtrip_to_typed_errors() {
        let e = ErrorKind::of(&NoDbError::catalog("nope"));
        assert_eq!(e, ErrorKind::Catalog);
        assert!(matches!(
            e.to_error("nope".into()),
            NoDbError::Catalog(m) if m == "nope"
        ));
        for b in 0..=8u8 {
            assert!(ErrorKind::from_u8(b).is_ok());
        }
        assert!(ErrorKind::from_u8(9).is_err());
    }
}
