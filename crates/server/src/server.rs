//! The blocking, thread-per-connection query server.
//!
//! One shared [`NoDb`] serves every connection — `query(&self)` is
//! concurrent and the adaptive aux structures (positional maps, caches,
//! statistics) are engine-internal and thread-safe, so a cold scan by
//! one client warms the warm path for all of them.
//!
//! # Admission control
//!
//! Two independent caps, both answered with a typed
//! [`Frame::Busy`](crate::protocol::Frame) instead of an
//! unbounded queue or a hang:
//!
//! - `max_connections`: excess *connections* are greeted with `Busy`
//!   and closed at accept time.
//! - `max_inflight`: excess *queries* on accepted connections get a
//!   `Busy` reply; the connection stays open and the client may retry.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] flips a flag and self-dials the listener
//! to wake `accept`. The accept loop stops taking connections (the
//! listener is dropped immediately, so new dials are refused by the
//! OS), idle handlers send `Goodbye` and exit at their next poll tick,
//! and in-flight cursors run to completion — shutdown *drains*, it does
//! not sever.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nodb_common::{NoDbError, Result, Value};
use nodb_core::{NoDb, Params, Statement};

use crate::conn::Conn;
use crate::protocol::{
    read_frame, schema_frame, write_frame, ErrorKind, Frame, StatsPayload, PROTOCOL_VERSION,
};

/// Build the observability view of one in-situ table that a
/// [`Frame::Stats`] request returns: scan metrics, auxiliary footprint,
/// cumulative phase profile and workload heat, all read from the same
/// engine snapshot the embedded accessors expose. Shared by the server's
/// request handler and the CLI's local `\stats` view so both render
/// identical numbers.
pub fn collect_stats(db: &NoDb, table: &str) -> Result<StatsPayload> {
    let m = db.metrics(table)?;
    let aux = db.aux_info(table)?;
    let prof = db.profile(table)?;
    let heats = db
        .workload_heats(table)?
        .into_iter()
        .enumerate()
        .filter(|&(_, h)| h > 0)
        .map(|(a, h)| (a as u32, h))
        .collect();
    Ok(StatsPayload {
        scans: m.scans,
        rows_emitted: m.rows_emitted,
        fields_tokenized: m.fields_tokenized,
        fields_via_map: m.fields_via_map,
        fields_via_anchor: m.fields_via_anchor,
        fields_parsed: m.fields_parsed,
        fields_from_cache: m.fields_from_cache,
        bytes_tokenized: m.bytes_tokenized,
        posmap_bytes: aux.posmap_bytes as u64,
        posmap_pointers: aux.posmap_pointers,
        cache_bytes: aux.cache_bytes as u64,
        cache_utilization: aux.cache_utilization,
        stats_attrs: aux.stats_attrs as u64,
        io_ns: prof.io_ns,
        io_bytes: prof.io_bytes,
        tokenize_ns: prof.tokenize_ns,
        tokenize_bytes: prof.tokenize_bytes,
        parse_ns: prof.parse_ns,
        parse_values: prof.parse_values,
        heats,
    })
}

/// Tuning knobs for [`NodbServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum queries executing concurrently across all connections.
    /// The `max_inflight + 1`-th concurrent `Execute` gets a `Busy`
    /// frame without touching the engine.
    pub max_inflight: usize,
    /// Maximum concurrently-open client connections; excess dials are
    /// greeted with `Busy` and closed.
    pub max_connections: usize,
}

/// How often idle handler threads wake up to check for shutdown. Bounds
/// shutdown latency for connections that are sitting idle between
/// statements.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Name reported in the `Hello` greeting.
const SERVER_NAME: &str = concat!("nodb-server ", env!("CARGO_PKG_VERSION"));

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_inflight: 8,
            max_connections: 64,
        }
    }
}

/// Monotonic counters describing everything the server did; returned by
/// [`NodbServer::serve`] and snapshotted via [`ServerHandle::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and handled.
    pub connections_served: u64,
    /// Connections turned away with `Busy` at the `max_connections` cap.
    pub connections_rejected: u64,
    /// Statements that ran (successfully or not).
    pub queries_executed: u64,
    /// Statements turned away with `Busy` at the `max_inflight` cap.
    pub queries_rejected: u64,
    /// Statements that reached the engine and came back with an error.
    pub queries_failed: u64,
    /// Row streams aborted by a client `Cancel` frame.
    pub queries_cancelled: u64,
}

struct State {
    shutdown: AtomicBool,
    inflight: AtomicUsize,
    max_inflight: usize,
    open_conns: AtomicUsize,
    connections_served: AtomicU64,
    connections_rejected: AtomicU64,
    queries_executed: AtomicU64,
    queries_rejected: AtomicU64,
    queries_failed: AtomicU64,
    queries_cancelled: AtomicU64,
}

impl State {
    fn new(max_inflight: usize) -> State {
        State {
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            max_inflight,
            open_conns: AtomicUsize::new(0),
            connections_served: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            queries_executed: AtomicU64::new(0),
            queries_rejected: AtomicU64::new(0),
            queries_failed: AtomicU64::new(0),
            queries_cancelled: AtomicU64::new(0),
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Claim a query permit if one is free. Lock-free: a CAS loop over
    /// the in-flight count against the configured ceiling.
    fn try_acquire(&self) -> bool {
        self.inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.max_inflight).then_some(n + 1)
            })
            .is_ok()
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            connections_served: self.connections_served.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            queries_executed: self.queries_executed.load(Ordering::Relaxed),
            queries_rejected: self.queries_rejected.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            queries_cancelled: self.queries_cancelled.load(Ordering::Relaxed),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// Where [`ServerHandle::shutdown`] dials to wake a blocked `accept`.
#[derive(Clone)]
enum WakeTarget {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

/// Remote control for a running [`NodbServer`]; cheap to clone and send
/// to other threads.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
    wake: WakeTarget,
}

impl ServerHandle {
    /// Begin graceful shutdown: stop accepting, let idle connections go
    /// with `Goodbye`, and drain in-flight query streams to completion.
    /// Idempotent; returns immediately — join the thread running
    /// [`NodbServer::serve`] to wait for the drain.
    pub fn shutdown(&self) {
        if self.state.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the accept loop. If the dial itself fails the listener is
        // already gone, which is exactly the state we wanted.
        match &self.wake {
            WakeTarget::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
            }
            WakeTarget::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }

    /// Has shutdown been requested?
    pub fn is_shutdown(&self) -> bool {
        self.state.is_shutdown()
    }

    /// Snapshot of the server's counters so far.
    pub fn stats(&self) -> ServerStats {
        self.state.stats()
    }
}

/// A bound-but-not-yet-serving query server. Construct with
/// [`bind_tcp`](NodbServer::bind_tcp) or
/// [`bind_unix`](NodbServer::bind_unix), grab a [`ServerHandle`], then
/// call [`serve`](NodbServer::serve) (usually on a dedicated thread).
pub struct NodbServer {
    db: Arc<NoDb>,
    config: ServerConfig,
    listener: Listener,
    state: Arc<State>,
    wake: WakeTarget,
}

impl NodbServer {
    /// Bind a TCP listener. `addr` may use port `0` to let the OS pick;
    /// read the result back with [`local_addr`](NodbServer::local_addr).
    pub fn bind_tcp(
        db: Arc<NoDb>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<NodbServer> {
        let listener = TcpListener::bind(addr)?;
        let wake = WakeTarget::Tcp(listener.local_addr()?);
        Ok(NodbServer::assemble(
            db,
            config,
            Listener::Tcp(listener),
            wake,
        ))
    }

    /// Bind a unix-domain socket at `path` (removed on clean shutdown;
    /// a stale socket file from a crashed run is removed first).
    pub fn bind_unix(
        db: Arc<NoDb>,
        path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> Result<NodbServer> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        let wake = WakeTarget::Unix(path.clone());
        Ok(NodbServer::assemble(
            db,
            config,
            Listener::Unix(listener, path),
            wake,
        ))
    }

    fn assemble(
        db: Arc<NoDb>,
        config: ServerConfig,
        listener: Listener,
        wake: WakeTarget,
    ) -> NodbServer {
        let state = Arc::new(State::new(config.max_inflight.max(1)));
        NodbServer {
            db,
            config,
            listener,
            state,
            wake,
        }
    }

    /// The TCP address actually bound, if this is a TCP server.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(..) => None,
        }
    }

    /// A clonable handle for shutdown and stats.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
            wake: self.wake.clone(),
        }
    }

    /// Run the accept loop until [`ServerHandle::shutdown`] is called,
    /// then drain every handler thread and return the final counters.
    pub fn serve(self) -> Result<ServerStats> {
        let NodbServer {
            db,
            config,
            listener,
            state,
            ..
        } = self;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();

        loop {
            if state.is_shutdown() {
                break;
            }
            let conn = match &listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    // Frames are written in batches and each request is
                    // a full round-trip; Nagle+delayed-ACK would add
                    // tens of ms per query on loopback.
                    let _ = s.set_nodelay(true);
                    Conn::Tcp(s)
                }),
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            // Re-check after (possibly) being woken by the self-dial.
            if state.is_shutdown() {
                break;
            }
            let mut conn = match conn {
                Ok(c) => c,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NoDbError::Io(e)),
            };

            // Reap finished handler threads so a long soak with many
            // short connections does not accumulate join handles.
            let mut i = 0;
            while i < handlers.len() {
                if handlers[i].is_finished() {
                    let _ = handlers.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }

            if state.open_conns.load(Ordering::Acquire) >= config.max_connections {
                state.connections_rejected.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut conn,
                    &Frame::Busy {
                        message: format!(
                            "server at its {}-connection capacity",
                            config.max_connections
                        ),
                    },
                );
                continue; // dropping `conn` closes it
            }

            state.open_conns.fetch_add(1, Ordering::AcqRel);
            state.connections_served.fetch_add(1, Ordering::Relaxed);
            let db = Arc::clone(&db);
            let state_for_thread = Arc::clone(&state);
            handlers.push(std::thread::spawn(move || {
                let _ = handle_connection(&db, &state_for_thread, &mut conn);
                state_for_thread.open_conns.fetch_sub(1, Ordering::AcqRel);
            }));
        }

        // Refuse new connections immediately; unix sockets also drop
        // their filesystem entry.
        match listener {
            Listener::Tcp(l) => drop(l),
            Listener::Unix(l, path) => {
                drop(l);
                let _ = std::fs::remove_file(path);
            }
        }

        // Drain: every in-flight cursor runs to completion (or its
        // client hangs up); idle handlers exit at the next poll tick.
        for h in handlers {
            let _ = h.join();
        }
        Ok(state.stats())
    }
}

/// What the polling reader observed while waiting for the next request.
enum Inbound {
    Frame(Frame),
    /// Peer closed cleanly at a frame boundary.
    Eof,
    /// No request pending and the server is shutting down.
    Shutdown,
}

fn read_request(conn: &mut Conn, state: &State) -> Result<Inbound> {
    loop {
        match read_frame(conn) {
            Ok(Some(f)) => return Ok(Inbound::Frame(f)),
            Ok(None) => return Ok(Inbound::Eof),
            Err(NoDbError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle poll tick: nothing arrived within the read
                // timeout. `read_frame` only surfaces this when
                // no bytes of a frame were consumed, so it is safe to
                // spin.
                if state.is_shutdown() {
                    return Ok(Inbound::Shutdown);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(db: &NoDb, state: &State, conn: &mut Conn) -> Result<()> {
    conn.set_read_timeout(Some(POLL_INTERVAL))?;
    write_frame(
        conn,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            server: SERVER_NAME.to_string(),
        },
    )?;

    // Per-connection prepared-statement cache keyed by SQL text:
    // repeated Executes with the same text skip lex/parse/bind/plan
    // entirely, which is what makes parameterized client loops cheap.
    let mut statements: HashMap<String, Statement<'_>> = HashMap::new();

    loop {
        match read_request(conn, state)? {
            Inbound::Eof => return Ok(()),
            Inbound::Shutdown => {
                let _ = write_frame(conn, &Frame::Goodbye);
                return Ok(());
            }
            Inbound::Frame(Frame::Goodbye) => {
                let _ = write_frame(conn, &Frame::Goodbye);
                return Ok(());
            }
            Inbound::Frame(Frame::Execute { sql, params }) => {
                if !state.try_acquire() {
                    state.queries_rejected.fetch_add(1, Ordering::Relaxed);
                    write_frame(
                        conn,
                        &Frame::Busy {
                            message: format!("{} queries already in flight", state.max_inflight),
                        },
                    )?;
                    continue;
                }
                let outcome = run_statement(db, state, &mut statements, conn, sql, params);
                state.release();
                outcome?;
            }
            Inbound::Frame(Frame::Cancel) => {
                // The stream this Cancel aimed at already finished (the
                // client lost the race with Done). Acknowledge anyway so
                // the client's cancel handshake always reads exactly one
                // Cancelled, then carry on.
                write_frame(conn, &Frame::Cancelled { rows: 0 })?;
            }
            Inbound::Frame(Frame::Stats { table }) => {
                // Observability is read-only and cheap (atomic loads and
                // short shared-lock sections), so it bypasses admission
                // control: a saturated server must stay inspectable.
                match collect_stats(db, &table) {
                    Ok(p) => write_frame(conn, &Frame::StatsReport(p))?,
                    Err(e) => write_frame(
                        conn,
                        &Frame::Error {
                            kind: ErrorKind::of(&e),
                            message: e.to_string(),
                        },
                    )?,
                }
            }
            Inbound::Frame(other) => {
                // Server-to-client frames arriving at the server are a
                // protocol violation; answer typed and keep going.
                write_frame(
                    conn,
                    &Frame::Error {
                        kind: ErrorKind::Parse,
                        message: format!("unexpected frame from client: {other:?}"),
                    },
                )?;
            }
        }
    }
}

/// Flush threshold for the row-stream write buffer. Batching keeps
/// syscall counts sane for small rows while still surfacing a client
/// disconnect (failed write → cursor dropped → scan early-stop) within
/// one buffer's worth of rows. Each flush is followed by one wait-free
/// [`poll_cancel`].
const FLUSH_BYTES: usize = 32 * 1024;

/// How long [`poll_cancel`] waits for each further byte of a frame whose
/// first byte has arrived; `read_frame` bounds how many such
/// waits one frame may take.
const MIDFRAME_WAIT: Duration = Duration::from_millis(1);

/// Check for an inbound frame mid-stream without stalling the row flow.
/// One non-blocking one-byte read: when nothing has arrived it returns
/// `false` at once. When a byte is there, the rest of the frame is read
/// with a short per-read timeout and bounded mid-frame patience. Returns
/// `true` when the client sent [`Frame::Cancel`]; anything else inbound
/// mid-stream is a protocol violation (requests are not pipelined) and
/// surfaces as an error, which closes the connection.
fn poll_cancel(conn: &mut Conn) -> Result<bool> {
    let mut first = [0u8; 1];
    conn.set_nonblocking(true)?;
    let peeked = conn.read(&mut first);
    conn.set_nonblocking(false)?;
    match peeked {
        Ok(0) => return Err(NoDbError::parse("connection closed mid-stream".to_string())),
        Ok(_) => {}
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::Interrupted =>
        {
            return Ok(false);
        }
        Err(e) => return Err(NoDbError::Io(e)),
    }
    conn.set_read_timeout(Some(MIDFRAME_WAIT))?;
    let polled = read_frame(&mut (&first[..]).chain(&mut *conn)).and_then(|frame| match frame {
        Some(Frame::Cancel) => Ok(true),
        Some(other) => Err(NoDbError::parse(format!(
            "unexpected frame mid-stream: {other:?}"
        ))),
        None => Err(NoDbError::parse("connection closed mid-stream".to_string())),
    });
    conn.set_read_timeout(Some(POLL_INTERVAL))?;
    polled
}

fn run_statement<'db>(
    db: &'db NoDb,
    state: &State,
    statements: &mut HashMap<String, Statement<'db>>,
    conn: &mut Conn,
    sql: String,
    params: Vec<Value>,
) -> Result<()> {
    state.queries_executed.fetch_add(1, Ordering::Relaxed);

    if !statements.contains_key(&sql) {
        match db.prepare(&sql) {
            Ok(stmt) => {
                statements.insert(sql.clone(), stmt);
            }
            Err(e) => {
                state.queries_failed.fetch_add(1, Ordering::Relaxed);
                return write_frame(
                    conn,
                    &Frame::Error {
                        kind: ErrorKind::of(&e),
                        message: e.to_string(),
                    },
                );
            }
        }
    }
    let stmt = statements.get(&sql).expect("statement cached above");

    let params = Params::from(params);
    let cursor = match stmt.execute(&params) {
        Ok(c) => c,
        Err(e) => {
            state.queries_failed.fetch_add(1, Ordering::Relaxed);
            return write_frame(
                conn,
                &Frame::Error {
                    kind: ErrorKind::of(&e),
                    message: e.to_string(),
                },
            );
        }
    };

    let mut buf = Vec::with_capacity(FLUSH_BYTES + 4096);
    schema_frame(cursor.schema()).encode(&mut buf)?;
    let mut rows: u64 = 0;
    // Streaming loop: a failed write (client hung up) propagates `Err`
    // out of this function, dropping `cursor` mid-iteration — which is
    // precisely what stops the underlying raw scan at block granularity.
    // A polite `Cancel` frame takes the same cursor-drop path, but the
    // connection survives: flush what was streamed, acknowledge, return.
    for row in cursor {
        match row {
            Ok(r) => {
                Frame::Row(r).encode(&mut buf)?;
                rows += 1;
                if buf.len() >= FLUSH_BYTES {
                    conn.write_all(&buf)?;
                    buf.clear();
                    if poll_cancel(conn)? {
                        state.queries_cancelled.fetch_add(1, Ordering::Relaxed);
                        write_frame(conn, &Frame::Cancelled { rows })?;
                        return Ok(());
                    }
                }
            }
            Err(e) => {
                state.queries_failed.fetch_add(1, Ordering::Relaxed);
                Frame::Error {
                    kind: ErrorKind::of(&e),
                    message: e.to_string(),
                }
                .encode(&mut buf)?;
                conn.write_all(&buf)?;
                return Ok(());
            }
        }
    }
    Frame::Done { rows }.encode(&mut buf)?;
    conn.write_all(&buf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use nodb_common::{Schema, TempDir};
    use nodb_core::{AccessMode, NoDbConfig};
    use nodb_csv::CsvOptions;

    use super::*;
    use crate::protocol::read_frame;

    fn pair() -> (Conn, UnixStream) {
        let (server, client) = UnixStream::pair().unwrap();
        (Conn::Unix(server), client)
    }

    #[test]
    fn poll_cancel_returns_at_once_when_nothing_is_inbound() {
        let (mut conn, _client) = pair();
        let started = Instant::now();
        for _ in 0..100 {
            assert!(!poll_cancel(&mut conn).unwrap());
        }
        let spent = started.elapsed();
        assert!(
            spent < Duration::from_millis(50),
            "100 polls with nothing inbound took {spent:?}"
        );
    }

    #[test]
    fn poll_cancel_reads_a_cancel_split_by_a_pause() {
        let (mut conn, mut client) = pair();
        let bytes = Frame::Cancel.to_bytes().unwrap();
        client.write_all(&bytes[..1]).unwrap();
        let rest = bytes[1..].to_vec();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            client.write_all(&rest).unwrap();
            client
        });
        assert!(poll_cancel(&mut conn).unwrap());
        let _client = writer.join().unwrap();
        // The whole frame was consumed: the next poll sees nothing.
        assert!(!poll_cancel(&mut conn).unwrap());
    }

    /// End to end through the connection handler: a non-`Cancel` frame
    /// sent while rows stream is a typed error, and the server closes the
    /// connection instead of finishing the stream.
    #[test]
    fn a_non_cancel_frame_mid_stream_closes_the_connection() {
        let td = TempDir::new("nodb-poll-cancel").unwrap();
        let csv = td.file("t.csv");
        let text: String = (0..20_000).map(|i| format!("{i},row-{i}\n")).collect();
        std::fs::write(&csv, text).unwrap();
        let mut db = NoDb::new(NoDbConfig::default()).unwrap();
        db.register_csv(
            "t",
            &csv,
            Schema::parse("a int, b text").unwrap(),
            CsvOptions::default(),
            AccessMode::InSitu,
        )
        .unwrap();
        let state = State::new(8);
        let (mut conn, mut client) = pair();

        let (served, frames) = std::thread::scope(|s| {
            let (db, state) = (&db, &state);
            // The handler owns `conn`, so the socket closes when it returns.
            let server = s.spawn(move || handle_connection(db, state, &mut conn));
            assert!(matches!(
                read_frame(&mut client).unwrap(),
                Some(Frame::Hello { .. })
            ));
            write_frame(
                &mut client,
                &Frame::Execute {
                    sql: "select a, b from t".to_string(),
                    params: Vec::new(),
                },
            )
            .unwrap();
            assert!(matches!(
                read_frame(&mut client).unwrap(),
                Some(Frame::RowSchema { .. })
            ));
            write_frame(&mut client, &Frame::Goodbye).unwrap();
            let mut frames = Vec::new();
            while let Some(frame) = read_frame(&mut client).unwrap() {
                frames.push(frame);
            }
            (server.join().unwrap(), frames)
        });

        assert!(
            matches!(served, Err(NoDbError::Parse(ref m)) if m.contains("mid-stream")),
            "{served:?}"
        );
        assert!(
            frames.iter().all(|f| matches!(f, Frame::Row(_))),
            "the stream must end without a terminator"
        );
        assert!(frames.len() < 20_000, "the stream ran to completion");
    }
}
