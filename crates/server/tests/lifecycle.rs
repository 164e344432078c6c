//! Admission-control and shutdown behavior of the query server.
//!
//! Deterministic concurrency tests: a custom [`TableProvider`] whose
//! scan blocks on an explicit gate lets the tests hold queries
//! in-flight for exactly as long as they need — no sleeps-as-sync.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nodb_common::column::Data;
use nodb_common::{Column, NoDbError, Schema, Value};
use nodb_core::{NoDb, NoDbConfig};
use nodb_exec::{BoxOp, Operator, TableProvider, ValueBatch};
use nodb_server::{NodbClient, NodbServer, ServerConfig};
use nodb_sql::BoundExpr;

/// A reusable "hold the scan open" gate: scans report in and then wait
/// until the test opens the gate.
struct Gate {
    started: AtomicUsize,
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            started: AtomicUsize::new(0),
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait_for_starters(&self, n: usize, within: Duration) {
        let deadline = Instant::now() + within;
        while self.started.load(Ordering::Acquire) < n {
            assert!(
                Instant::now() < deadline,
                "only {} of {n} gated scans started",
                self.started.load(Ordering::Acquire)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Emits `rows` single-int rows, but only after the gate opens.
struct GatedProvider {
    gate: Arc<Gate>,
    rows: i32,
}

struct GatedOp {
    gate: Arc<Gate>,
    next: i32,
    rows: i32,
    reported: bool,
}

impl Operator for GatedOp {
    fn next_batch(&mut self, max_rows: usize) -> nodb_common::Result<Option<ValueBatch>> {
        if !self.reported {
            self.reported = true;
            self.gate.started.fetch_add(1, Ordering::AcqRel);
            let mut open = self.gate.open.lock().unwrap();
            while !*open {
                open = self.gate.cv.wait(open).unwrap();
            }
        }
        let want = i32::try_from(max_rows.max(1)).unwrap_or(i32::MAX);
        let end = self.rows.min(self.next.saturating_add(want));
        if self.next >= end {
            return Ok(None);
        }
        let values: Vec<i32> = (self.next..end).collect();
        self.next = end;
        let n = values.len();
        Ok(Some(ValueBatch::from_cols(
            vec![Column::from_data(Data::Int32(values))],
            n,
        )))
    }
}

impl TableProvider for GatedProvider {
    fn scan(&self, _projection: &[usize], _filters: &[BoundExpr]) -> nodb_common::Result<BoxOp> {
        Ok(Box::new(GatedOp {
            gate: Arc::clone(&self.gate),
            next: 0,
            rows: self.rows,
            reported: false,
        }))
    }
}

fn gated_engine(gate: &Arc<Gate>, rows: i32) -> Arc<NoDb> {
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_provider(
        "gated",
        Schema::parse("v int").unwrap(),
        Box::new(GatedProvider {
            gate: Arc::clone(gate),
            rows,
        }),
    )
    .unwrap();
    Arc::new(db)
}

fn start_tcp(
    db: Arc<NoDb>,
    config: ServerConfig,
) -> (
    String,
    nodb_server::ServerHandle,
    std::thread::JoinHandle<nodb_common::Result<nodb_server::ServerStats>>,
) {
    let server = NodbServer::bind_tcp(db, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

#[test]
fn pool_saturation_answers_busy_not_hang() {
    let gate = Gate::new();
    let db = gated_engine(&gate, 4);
    let (addr, handle, join) = start_tcp(
        db,
        ServerConfig {
            max_inflight: 2,
            ..ServerConfig::default()
        },
    );

    // Two queries occupy both permits and park inside their scans.
    let holders: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = NodbClient::connect(&addr).unwrap();
                let r = c.query("select v from gated").unwrap();
                c.close().unwrap();
                r.rows.len()
            })
        })
        .collect();
    gate.wait_for_starters(2, Duration::from_secs(10));

    // The third concurrent query must get a typed Busy, immediately.
    let mut crowded = NodbClient::connect(&addr).unwrap();
    let t = Instant::now();
    let err = crowded.query("select v from gated").unwrap_err();
    assert!(
        matches!(err, NoDbError::Busy(_)),
        "expected Busy, got: {err}"
    );
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "Busy should not queue behind the saturated pool"
    );

    // Capacity freed -> the same connection succeeds on retry.
    gate.open();
    for h in holders {
        assert_eq!(h.join().unwrap(), 4);
    }
    let r = crowded.query("select v from gated").unwrap();
    assert_eq!(r.rows.len(), 4);
    crowded.close().unwrap();

    handle.shutdown();
    let stats = join.join().unwrap().unwrap();
    assert_eq!(stats.queries_rejected, 1);
    assert_eq!(stats.queries_executed, 3);
}

#[test]
fn connection_cap_answers_busy_at_accept() {
    let gate = Gate::new();
    gate.open(); // irrelevant here; don't block anything
    let db = gated_engine(&gate, 1);
    let (addr, handle, join) = start_tcp(
        db,
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    );

    let _a = NodbClient::connect(&addr).unwrap();
    let _b = NodbClient::connect(&addr).unwrap();
    // Give the server a beat to tick both connections' open counters.
    let deadline = Instant::now() + Duration::from_secs(5);
    let err = loop {
        match NodbClient::connect(&addr) {
            Err(e) => break e,
            Ok(c) => {
                // Raced an open slot before the counters settled; close
                // and try again.
                let _ = c.close();
                assert!(Instant::now() < deadline, "third connection never refused");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    assert!(matches!(err, NoDbError::Busy(_)), "got: {err}");

    handle.shutdown();
    let stats = join.join().unwrap().unwrap();
    assert!(stats.connections_rejected >= 1);
}

#[test]
fn client_disconnect_mid_stream_stops_the_raw_scan() {
    // A real CSV big enough that the whole result cannot hide in socket
    // buffers: ~20 MB. The client reads a handful of rows and hangs up;
    // the server's next flush fails, dropping its cursor, which stops
    // the raw scan at block granularity.
    let td = nodb_common::TempDir::new("nodb-server-drop").unwrap();
    let path = td.file("wide.csv");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        let pad = "x".repeat(80);
        for i in 0..200_000 {
            writeln!(f, "{i},{pad}").unwrap();
        }
    }
    let mut db = NoDb::new(NoDbConfig::postgres_raw()).unwrap();
    db.register_csv(
        "wide",
        &path,
        Schema::parse("id int, pad text").unwrap(),
        Default::default(),
        nodb_core::AccessMode::InSitu,
    )
    .unwrap();
    let db = Arc::new(db);
    let (addr, handle, join) = start_tcp(Arc::clone(&db), ServerConfig::default());

    let mut client = NodbClient::connect(&addr).unwrap();
    {
        let mut stream = client.stream("select id, pad from wide", &[]).unwrap();
        for _ in 0..5 {
            stream.next().unwrap().unwrap();
        }
        // Dropping mid-stream severs the connection.
    }

    // The scan must stop early: wait until the metrics stop moving,
    // then check how much of the table was actually emitted.
    let total: u64 = 200_000;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = db.metrics("wide").unwrap().rows_emitted;
    let emitted = loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = db.metrics("wide").unwrap().rows_emitted;
        if now == last {
            break now;
        }
        assert!(Instant::now() < deadline, "scan did not settle");
        last = now;
    };
    assert!(
        emitted < total,
        "disconnect did not stop the scan: all {emitted} rows were emitted"
    );

    // The engine (and server) are still healthy afterwards.
    let mut fresh = NodbClient::connect(&addr).unwrap();
    let r = fresh.query("select count(*) from wide").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int64(total as i64));
    fresh.close().unwrap();

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_in_flight_streams_and_refuses_new_connections() {
    let gate = Gate::new();
    let db = gated_engine(&gate, 1000);
    let (addr, handle, join) = start_tcp(db, ServerConfig::default());

    // A query parks inside its scan, holding a stream in flight.
    let addr2 = addr.clone();
    let in_flight = std::thread::spawn(move || {
        let mut c = NodbClient::connect(&addr2).unwrap();
        let r = c.query("select v from gated").unwrap();
        r.rows.len()
    });
    gate.wait_for_starters(1, Duration::from_secs(10));

    handle.shutdown();

    // New connections are refused once the accept loop has wound down
    // (poll briefly: the self-dial wake is asynchronous).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match NodbClient::connect(&addr) {
            Err(_) => break,
            Ok(c) => {
                let _ = c.close();
                assert!(
                    Instant::now() < deadline,
                    "connections still accepted after shutdown"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }

    // ... but the in-flight stream drains to completion, bit-complete.
    gate.open();
    assert_eq!(in_flight.join().unwrap(), 1000);
    let stats = join.join().unwrap().unwrap();
    assert_eq!(stats.queries_executed, 1);
}
