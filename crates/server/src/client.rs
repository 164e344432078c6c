//! A small blocking client for the NoDB wire protocol.
//!
//! Used by the CLI's `\connect` mode and by the soak tests. One
//! [`NodbClient`] is one connection; it is *not* `Sync` — concurrency
//! comes from opening more connections, which is exactly what the
//! server's admission control is there to meter.
//!
//! Every reply frame is read through one buffered reader over a second
//! handle on the socket, so a `Row` frame costs a copy out of that
//! buffer rather than its own `read` calls. That reader is the only read
//! path: bytes it has read ahead belong to the next frame, and a read
//! that went around it would lose them. Requests are written, and an
//! abandoned stream severs the socket, through the original handle.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use nodb_common::{NoDbError, Result, Row, Schema, Value};
use nodb_core::QueryResult;

use crate::conn::Conn;
use crate::protocol::{
    read_frame, schema_of_columns, write_frame, Frame, StatsPayload, PROTOCOL_VERSION,
};

/// Blocking connection to a running `nodb-server`.
pub struct NodbClient {
    /// Write half: requests and `shutdown`.
    conn: Conn,
    /// Read half: every reply frame comes through this buffer.
    reader: BufReader<Conn>,
    server: String,
    /// Set when a [`RowStream`] was dropped mid-stream: the socket was
    /// severed to propagate the cancellation, so the connection cannot
    /// be reused.
    poisoned: bool,
}

impl NodbClient {
    /// Connect to `target`: either `host:port` for TCP or `unix:PATH`
    /// for a unix-domain socket. Waits for the server's `Hello`; a
    /// `Busy` greeting (connection cap reached) surfaces as
    /// [`NoDbError::Busy`].
    pub fn connect(target: &str) -> Result<NodbClient> {
        let conn = match target.strip_prefix("unix:") {
            Some(path) => Conn::Unix(UnixStream::connect(path)?),
            None => {
                let s = TcpStream::connect(target)?;
                // Requests are single small frames followed by a wait
                // for the reply; Nagle would hold them back.
                s.set_nodelay(true)?;
                Conn::Tcp(s)
            }
        };
        let mut client = NodbClient {
            reader: BufReader::new(conn.try_clone()?),
            conn,
            server: String::new(),
            poisoned: false,
        };
        match client.read()? {
            Frame::Hello { version, server } => {
                if version != PROTOCOL_VERSION {
                    return Err(NoDbError::config(format!(
                        "protocol version mismatch: server speaks v{version}, client v{PROTOCOL_VERSION}"
                    )));
                }
                client.server = server;
                Ok(client)
            }
            Frame::Busy { message } => Err(NoDbError::busy(message)),
            other => Err(NoDbError::parse(format!(
                "expected Hello from server, got {other:?}"
            ))),
        }
    }

    /// The server identification string from its `Hello`.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// Execute `sql` with no parameters and collect the whole result.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        self.query_params(sql, &[])
    }

    /// Execute `sql` with positional parameters and collect the whole
    /// result. An admission-control rejection surfaces as
    /// [`NoDbError::Busy`] — retry later; nothing executed.
    pub fn query_params(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        self.stream(sql, params)?.collect_result()
    }

    /// Execute `sql` and stream rows lazily. Dropping the returned
    /// [`RowStream`] before `Done` severs the connection, which the
    /// server observes as a failed write — its cursor drops and the
    /// raw-file scan stops at block granularity. The client is poisoned
    /// afterwards; reconnect to run more statements.
    pub fn stream(&mut self, sql: &str, params: &[Value]) -> Result<RowStream<'_>> {
        if self.poisoned {
            return Err(NoDbError::config(
                "connection was severed by an abandoned row stream; reconnect",
            ));
        }
        self.send(&Frame::Execute {
            sql: sql.to_string(),
            params: params.to_vec(),
        })?;
        match self.read()? {
            Frame::RowSchema { columns } => {
                let schema = schema_of_columns(&columns)?;
                Ok(RowStream {
                    client: self,
                    schema,
                    rows: 0,
                    done: false,
                })
            }
            Frame::Busy { message } => Err(NoDbError::busy(message)),
            Frame::Error { kind, message } => Err(kind.to_error(message)),
            other => Err(NoDbError::parse(format!(
                "expected RowSchema, got {other:?}"
            ))),
        }
    }

    /// Fetch the server-side observability view of `table`: scan
    /// metrics, auxiliary footprints, phase profile and workload heat
    /// (the CLI's `\stats` / `\metrics` over `\connect`). An unknown
    /// table surfaces as the server's typed [`NoDbError::Catalog`].
    pub fn table_stats(&mut self, table: &str) -> Result<StatsPayload> {
        if self.poisoned {
            return Err(NoDbError::config(
                "connection was severed by an abandoned row stream; reconnect",
            ));
        }
        self.send(&Frame::Stats {
            table: table.to_string(),
        })?;
        match self.read()? {
            Frame::StatsReport(p) => Ok(p),
            Frame::Error { kind, message } => Err(kind.to_error(message)),
            other => Err(NoDbError::parse(format!(
                "expected StatsReport, got {other:?}"
            ))),
        }
    }

    /// Say `Goodbye` and close the connection cleanly.
    pub fn close(mut self) -> Result<()> {
        if !self.poisoned {
            self.send(&Frame::Goodbye)?;
            // Wait for the server's Goodbye (or EOF) so the server-side
            // handler has observed the close before we return.
            loop {
                match read_frame(&mut self.reader) {
                    Ok(Some(Frame::Goodbye)) | Ok(None) | Err(_) => break,
                    Ok(Some(_)) => {}
                }
            }
        }
        Ok(())
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        write_frame(&mut self.conn, frame)?;
        self.conn.flush()?;
        Ok(())
    }

    fn read(&mut self) -> Result<Frame> {
        read_frame(&mut self.reader)?
            .ok_or_else(|| NoDbError::parse("server closed the connection"))
    }
}

/// Lazy row stream for one statement; yields `Result<Row>` like the
/// embedded engine's `QueryCursor`. Dropping it mid-stream cancels the
/// query server-side (see [`NodbClient::stream`]).
pub struct RowStream<'c> {
    client: &'c mut NodbClient,
    schema: Schema,
    rows: u64,
    done: bool,
}

impl RowStream<'_> {
    /// Output schema, known before the first row arrives.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Abort the stream without severing the connection: send
    /// [`Frame::Cancel`], drain whatever row frames were already in
    /// flight, and wait for the server's `Cancelled` acknowledgement.
    /// Returns the number of rows the server streamed before stopping.
    /// The server drops its cursor — the same early-stop path an
    /// abandoned cursor takes, so the raw scan halts at block
    /// granularity — but unlike dropping the [`RowStream`], the client
    /// is *not* poisoned: the connection carries further statements.
    ///
    /// If the stream finishes (`Done`) or fails (`Error`) before the
    /// server sees the `Cancel`, the server acknowledges the stale
    /// cancel anyway; this method consumes that acknowledgement, so the
    /// conversation is in sync either way. A statement error observed
    /// while cancelling is returned after the handshake completes.
    pub fn cancel(mut self) -> Result<u64> {
        if self.done {
            return Ok(self.rows); // already complete; nothing in flight
        }
        self.client.send(&Frame::Cancel)?;
        let mut failed: Option<NoDbError> = None;
        loop {
            match self.client.read()? {
                // Rows (and possibly the stream's own terminator) that
                // were in flight before the server saw the Cancel.
                Frame::Row(_) | Frame::Done { .. } => {}
                Frame::Error { kind, message } => failed = Some(kind.to_error(message)),
                Frame::Cancelled { rows } => {
                    self.done = true;
                    return match failed {
                        Some(e) => Err(e),
                        None => Ok(rows),
                    };
                }
                other => {
                    return Err(NoDbError::parse(format!(
                        "expected Cancelled, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Drain the stream into a [`QueryResult`] (the shape the embedded
    /// `NoDb::query` returns, so results are directly comparable).
    pub fn collect_result(mut self) -> Result<QueryResult> {
        let mut rows = Vec::new();
        for row in &mut self {
            rows.push(row?);
        }
        Ok(QueryResult {
            schema: self.schema.clone(),
            rows,
        })
    }
}

impl Iterator for RowStream<'_> {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.client.read() {
            Ok(Frame::Row(row)) => {
                self.rows += 1;
                Some(Ok(row))
            }
            Ok(Frame::Done { rows }) => {
                self.done = true;
                if rows != self.rows {
                    return Some(Err(NoDbError::internal(format!(
                        "server reported {rows} rows, stream carried {}",
                        self.rows
                    ))));
                }
                None
            }
            Ok(Frame::Error { kind, message }) => {
                self.done = true;
                Some(Err(kind.to_error(message)))
            }
            Ok(other) => {
                self.done = true;
                Some(Err(NoDbError::parse(format!(
                    "expected Row/Done, got {other:?}"
                ))))
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

impl Drop for RowStream<'_> {
    fn drop(&mut self) {
        if !self.done {
            // Abandoned mid-stream: sever the socket so the server's
            // next write fails and its scan stops early. The connection
            // cannot carry further statements after this.
            let _ = self.client.conn.shutdown();
            self.client.poisoned = true;
        }
    }
}
