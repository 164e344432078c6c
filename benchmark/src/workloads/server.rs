//! `server_mixed`: a closed loop of clients against an in-process
//! `NodbServer` on TCP loopback.
//!
//! One warmed engine serves `events.jsonl` and `dim.csv` to
//! `min(cores, 4)` connections; each replays its own seeded request
//! stream and sends the next request only when the last reply is complete
//! (callers wait for replies, so the loop is closed). The mix: 50 %
//! parameterised selective aggregate, 25 % point lookup with `limit 50`,
//! 15 % join + group-by + order-by + `limit 10`, 10 % projection stream of
//! a twelfth of the rows. This is the only workload in which frame
//! encoding, socket writes, per-connection statement caches and admission
//! do most of the work; the tokenizers do little, because the scans are
//! served from the cache.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use nodb_common::{NoDbError, Schema, Value};
use nodb_core::{AccessMode, NoDb, NoDbConfig, Params, Statement};
use nodb_csv::CsvOptions;
use nodb_server::{NodbClient, NodbServer, ServerConfig, ServerHandle};

use super::{
    execute, prime, setup_repeats, text, Budget, Counters, Env, Measured, OpLog, Pass, Res,
    SetupClock,
};
use crate::datagen::{self, DIM_SCHEMA, EVENTS_SCHEMA};
use crate::oracle::Answer;
use crate::rng::Rng;
use crate::stats::{median_of, percentile, sorted};
use crate::trace::{durations_ms, Tracer};

const AGGREGATE_SQL: &str = "select count(*), sum(bytes), avg(latency_ms) from events \
     where status = ? and latency_ms < ?";
const LOOKUP_SQL: &str = "select event_id, ts, kind, bytes from events where user_id = ? limit 50";
const GROUP_SQL: &str = "select region, count(*) as n, sum(bytes) as b from events, dim \
     where user_id = uid and tier = ? and kind = ? \
     group by region order by n desc, region limit 10";
const STREAM_SQL: &str = "select event_id, user_id, latency_ms, kind from events \
     where event_id >= ? and event_id < ?";
const RTT_SQL: &str = "select event_id from events limit 1";

/// Statements that touch every column of both tables, so that after
/// set-up every scan of the measured phase is served from the cache.
const WARM_EVENTS_SQL: &str = "select count(event_id), count(user_id), count(ts), count(kind), \
     count(region), count(latency_ms), count(bytes), count(status), count(score), \
     count(session), count(ok), count(note) from events";
const WARM_DIM_SQL: &str = "select count(uid), count(tier), count(country), count(credit) from dim";

/// Distinct requests per class in the pool, and how many requests of the
/// class every block of a connection's stream holds (50, 25, 15 and 10 %).
/// The pool is small because every distinct request costs one full scan
/// of an engine without auxiliary structures to get its expected answer.
const CLASSES: [(&str, usize, usize); 4] = [
    (AGGREGATE_SQL, 20, 10),
    (LOOKUP_SQL, 10, 5),
    (GROUP_SQL, 6, 3),
    (STREAM_SQL, 4, 2),
];

/// Requests per block of a connection's stream. Every block holds each
/// class in exactly its share, in seeded order: a stream request costs
/// twenty aggregates, so blocks drawn class by class would differ in work
/// by the luck of the draw, and so would runs. Tracing is switched between
/// blocks.
const BLOCK: usize = 20;
const RTT_SAMPLES: usize = 200;
const WIRE_SAMPLES: usize = 200;

/// One request of the pool with its expected answer.
struct Request {
    sql: &'static str,
    params: Vec<Value>,
    expected: Answer,
}

fn int(v: u64) -> Value {
    Value::Int64(v as i64)
}

/// The seeded pool, grouped by class in [`CLASSES`] order.
fn request_pool(seed: u64, event_rows: usize) -> Vec<Vec<(&'static str, Vec<Value>)>> {
    let mut rng = Rng::new(seed, 20);
    let stream_rows = (event_rows / 12).max(1) as u64;
    CLASSES
        .iter()
        .map(|&(sql, count, _)| {
            (0..count)
                .map(|_| {
                    let params = match sql {
                        AGGREGATE_SQL => vec![
                            int([200, 204, 301, 404, 500][rng.below(5) as usize]),
                            int(100 + rng.below(300)),
                        ],
                        LOOKUP_SQL => vec![int(rng.below(datagen::DIM_ROWS as u64))],
                        GROUP_SQL => vec![
                            Value::Text(
                                ["free", "basic", "pro", "enterprise"][rng.below(4) as usize]
                                    .to_string(),
                            ),
                            Value::Text(
                                ["view", "click", "search", "cart"][rng.below(4) as usize]
                                    .to_string(),
                            ),
                        ],
                        _ => {
                            let from = rng.below(event_rows as u64 - stream_rows + 1);
                            vec![int(from), int(from + stream_rows)]
                        }
                    };
                    (sql, params)
                })
                .collect()
        })
        .collect()
}

/// The endless request stream of one connection: block after block, each
/// with every class in its share, shuffled; uniform within the class.
struct Stream<'a> {
    pool: &'a [Vec<Request>],
    rng: Rng,
    /// Classes of the requests left in the current block.
    block: Vec<usize>,
}

impl<'a> Stream<'a> {
    fn new(pool: &'a [Vec<Request>], rng: Rng) -> Stream<'a> {
        Stream {
            pool,
            rng,
            block: Vec::with_capacity(BLOCK),
        }
    }

    /// The next request and the index of its class.
    fn next(&mut self) -> (usize, &'a Request) {
        if self.block.is_empty() {
            for (class, &(_, _, count)) in CLASSES.iter().enumerate() {
                self.block.extend(std::iter::repeat_n(class, count));
            }
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let class = self.block.pop().expect("a block is never empty here");
        let requests = &self.pool[class];
        (
            class,
            &requests[self.rng.below(requests.len() as u64) as usize],
        )
    }
}

fn engine(events: &Path, dim: &Path, mode: AccessMode) -> Result<NoDb, NoDbError> {
    let mut db = NoDb::new(NoDbConfig::default())?;
    db.register_jsonl("events", events, Schema::parse(EVENTS_SCHEMA)?, mode)?;
    db.register_csv(
        "dim",
        dim,
        Schema::parse(DIM_SCHEMA)?,
        CsvOptions::default(),
        mode,
    )?;
    Ok(db)
}

/// A serving engine with connected clients.
struct Running {
    db: Arc<NoDb>,
    handle: ServerHandle,
    serving: JoinHandle<nodb_common::Result<nodb_server::ServerStats>>,
    clients: Vec<NodbClient>,
}

impl Running {
    /// Everything the program does before the first measured request:
    /// engine, registration, cache warm-up, bind, accept loop, connections,
    /// and one request of every class per connection (which fills the
    /// per-connection statement caches).
    fn start(events: &Path, dim: &Path, pool: &[Vec<Request>], clients: usize) -> Res<Running> {
        let db = engine(events, dim, AccessMode::InSitu).map_err(text)?;
        db.query(WARM_EVENTS_SQL).map_err(text)?;
        db.query(WARM_DIM_SQL).map_err(text)?;
        let db = Arc::new(db);
        let server = NodbServer::bind_tcp(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
            .map_err(text)?;
        let addr: SocketAddr = server
            .local_addr()
            .ok_or_else(|| "TCP server without an address".to_string())?;
        let handle = server.handle();
        let serving = std::thread::spawn(move || server.serve());
        let mut running = Running {
            db,
            handle,
            serving,
            clients: Vec::new(),
        };
        for _ in 0..clients {
            let connected = NodbClient::connect(&addr.to_string()).and_then(|mut client| {
                for class in pool {
                    let first = &class[0];
                    client.query_params(first.sql, &first.params)?;
                }
                Ok(client)
            });
            match connected {
                Ok(client) => running.clients.push(client),
                Err(e) => {
                    running.stop()?;
                    return Err(e.to_string());
                }
            }
        }
        Ok(running)
    }

    /// Close the connections, shut the server down and wait for its thread.
    fn stop(self) -> Res<nodb_server::ServerStats> {
        for client in self.clients {
            client.close().map_err(text)?;
        }
        self.handle.shutdown();
        self.serving
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(text)
    }
}

/// Send one request and stream its reply; `Busy` and errors are failures.
fn request(client: &mut NodbClient, req: &Request, tr: &mut Tracer) -> bool {
    let outcome = tr.op("op", |tr| {
        let mut rows = tr.leaf("server.first_frame", || client.stream(req.sql, &req.params))?;
        tr.leaf("server.drain", || {
            let mut answer = Answer::default();
            for row in &mut rows {
                answer.add_row(&row?);
            }
            Ok::<Answer, NoDbError>(answer)
        })
    });
    matches!(outcome, Ok(answer) if answer == req.expected)
}

/// The closed loop of one connection.
fn client_loop(
    client: &mut NodbClient,
    mut stream: Stream<'_>,
    budget: Budget,
    trace: bool,
    tr: &mut Tracer,
    started: Instant,
) -> OpLog {
    let mut ops = OpLog::default();
    let mut block = 0;
    while budget.allows(block, started) {
        tr.enabled = trace && block % 2 == 0;
        for _ in 0..BLOCK {
            let (class, req) = stream.next();
            let t = Instant::now();
            let ok = request(client, req, tr);
            ops.record(t, class, tr.enabled, ok);
        }
        block += 1;
    }
    ops
}

pub fn run(env: &Env, budget: Budget, trace: bool) -> Res<Pass> {
    let event_rows = env.scaled(datagen::EVENT_ROWS, 600);
    let events = env.generate(|| datagen::gen_events(&env.dir, env.seed, event_rows))?;
    let dim = env.generate(|| datagen::gen_dim(&env.dir, env.seed))?;
    env.note_input("events.jsonl", &events);
    env.note_input("dim.csv", &dim);
    let connections = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));

    // Expected answers from an engine that keeps no auxiliary structure.
    let wanted = request_pool(env.seed, event_rows);
    let flat: Vec<&(&'static str, Vec<Value>)> = wanted.iter().flatten().collect();
    let answers = env.expect(|| {
        let oracle = engine(&events.path, &dim.path, AccessMode::ExternalFiles).map_err(text)?;
        let mut statements: HashMap<&str, Statement<'_>> = HashMap::new();
        flat.iter()
            .map(|(sql, params)| {
                if !statements.contains_key(sql) {
                    statements.insert(sql, oracle.prepare(sql).map_err(text)?);
                }
                execute(
                    &statements[sql],
                    &Params::from(params.clone()),
                    &mut Tracer::off(),
                )
                .map(|(answer, _)| answer)
                .map_err(text)
            })
            .collect()
    })?;
    let mut answers = answers.into_iter();
    let pool: Vec<Vec<Request>> = wanted
        .iter()
        .map(|class| {
            class
                .iter()
                .zip(answers.by_ref())
                .map(|((sql, params), expected)| Request {
                    sql,
                    params: params.clone(),
                    expected,
                })
                .collect()
        })
        .collect();

    let mut pass = Pass {
        raw_bytes: events.bytes + dim.bytes,
        // A connection's log is a whole number of its blocks, so no block
        // of the merged log mixes two connections.
        block_ops: BLOCK,
        clients: connections,
        ..Pass::default()
    };
    let mut running = None;
    for _ in 0..setup_repeats(trace) {
        if let Some(previous) = running.take() {
            Running::stop(previous)?;
        }
        let mut clock = SetupClock::default();
        clock.time(|| prime(&events.path))?;
        clock.time(|| prime(&dim.path))?;
        running = Some(clock.time(|| Running::start(&events.path, &dim.path, &pool, connections))?);
        pass.setup_s.push(clock.seconds());
    }
    let mut running = running.expect("set-up runs at least once");

    let tables = ["events", "dim"];
    let before = Counters::snapshot(&running.db, &tables)?;
    let served_before = running.handle.stats();
    let epoch = Instant::now();
    let started = Instant::now();
    let per_client: Vec<(OpLog, Tracer)> = std::thread::scope(|scope| {
        let workers: Vec<_> = running
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let stream = Stream::new(&pool, Rng::new(env.seed, 100 + i as u64));
                scope.spawn(move || {
                    let mut tr = Tracer::new(epoch, i as u32, false);
                    let ops = client_loop(client, stream, budget, trace, &mut tr, started);
                    (ops, tr)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a client thread panicked"))
            .collect()
    });
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.counters = Counters::snapshot(&running.db, &tables)?.since(&before);
    let served = running.handle.stats();
    for (ops, tr) in per_client {
        pass.ops.absorb(ops);
        pass.tracers.push(tr);
    }
    pass.notes.push(format!(
        "server_mixed: closed loop, {connections} connection(s), {} requests",
        pass.ops.ms.len()
    ));

    if trace {
        let spans: Vec<_> = pass
            .tracers
            .iter()
            .flat_map(|t| t.spans().iter().cloned())
            .collect();
        let first_frame = durations_ms(&spans, "server.first_frame");
        let drain = durations_ms(&spans, "server.drain");
        let op_ms = sorted(&pass.ops.ms);
        pass.layer = vec![
            Measured::new(
                "server.first_frame_ms_p50",
                median_of(&first_frame),
                first_frame.len(),
            ),
            Measured::new("server.drain_ms_p50", median_of(&drain), drain.len()),
            Measured::new("server.op_ms_p99", percentile(&op_ms, 99.0), op_ms.len()),
            Measured::new("server.op_ms_max", percentile(&op_ms, 100.0), op_ms.len()),
            Measured::new(
                "server.queries_executed",
                (served.queries_executed - served_before.queries_executed) as f64,
                1,
            ),
            Measured::new(
                "server.queries_rejected",
                (served.queries_rejected - served_before.queries_rejected) as f64,
                1,
            ),
        ];
        let client = &mut running.clients[0];
        pass.layer.push(round_trip(client)?);
        // The embedded replay is also where this workload's `sql.prepare`
        // and `core.session.execute` spans come from: over the wire both
        // happen inside the server.
        let mut embedded = Tracer::new(epoch, connections as u32, true);
        pass.layer.push(wire_overhead(
            client,
            &running.db,
            &pool,
            env.seed,
            &mut embedded,
            &mut pass.notes,
        )?);
        pass.tracers.push(embedded);
    }
    running.stop()?;
    Ok(pass)
}

/// `server.rtt_us_p50`: the cheapest request the protocol can carry.
fn round_trip(client: &mut NodbClient) -> Res<Measured> {
    let mut us = Vec::with_capacity(RTT_SAMPLES);
    for _ in 0..RTT_SAMPLES {
        let t = Instant::now();
        client.query(RTT_SQL).map_err(text)?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(Measured::new("server.rtt_us_p50", median_of(&us), us.len()))
}

/// `server.wire_overhead_ratio`: one connection alone replays a request
/// list over TCP; the same list is then executed embedded, on the same
/// engine, with statements prepared once per text as a connection's cache
/// would. The ratio of the two medians is what the wire costs.
fn wire_overhead(
    client: &mut NodbClient,
    db: &NoDb,
    pool: &[Vec<Request>],
    seed: u64,
    tr: &mut Tracer,
    notes: &mut Vec<String>,
) -> Res<Measured> {
    let mut stream = Stream::new(pool, Rng::new(seed, 99));
    let list: Vec<&Request> = (0..WIRE_SAMPLES).map(|_| stream.next().1).collect();
    let mut tcp_ms = Vec::with_capacity(list.len());
    for req in &list {
        let t = Instant::now();
        request(client, req, &mut Tracer::off());
        tcp_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut statements: HashMap<&str, Statement<'_>> = HashMap::new();
    for &(sql, _, _) in &CLASSES {
        let stmt = tr.leaf("sql.prepare", || db.prepare(sql)).map_err(text)?;
        statements.insert(sql, stmt);
    }
    let mut embedded_ms = Vec::with_capacity(list.len());
    for req in &list {
        let params = Params::from(req.params.clone());
        let t = Instant::now();
        tr.op("embedded_op", |tr| {
            execute(&statements[req.sql], &params, tr)
        })
        .map_err(text)?;
        embedded_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (tcp, embedded) = (median_of(&tcp_ms), median_of(&embedded_ms));
    notes.push(format!(
        "server.wire_overhead_ratio = TCP p50 {tcp:.4} ms / embedded p50 {embedded:.4} ms, \
         one connection, {WIRE_SAMPLES} requests of the mix"
    ));
    Ok(Measured::new(
        "server.wire_overhead_ratio",
        tcp / embedded,
        list.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_a_stream_holds_each_class_in_its_share() {
        assert_eq!(BLOCK, CLASSES.iter().map(|c| c.2).sum::<usize>());
        let pool: Vec<Vec<Request>> = CLASSES
            .iter()
            .map(|&(sql, count, _)| {
                (0..count)
                    .map(|_| Request {
                        sql,
                        params: Vec::new(),
                        expected: Answer::default(),
                    })
                    .collect()
            })
            .collect();
        let mut stream = Stream::new(&pool, Rng::new(7, 100));
        let mut orders = Vec::new();
        for _ in 0..10 {
            let classes: Vec<usize> = (0..BLOCK).map(|_| stream.next().0).collect();
            for (class, &(_, _, count)) in CLASSES.iter().enumerate() {
                assert_eq!(classes.iter().filter(|&&c| c == class).count(), count);
            }
            orders.push(classes);
        }
        orders.dedup();
        assert!(orders.len() > 1, "blocks are shuffled");
    }
}
