//! `nodb-server` — serve in-situ SQL over raw files to many clients.
//!
//! ```text
//! $ nodb-server --listen 127.0.0.1:5433 \
//!       --register events ./events.csv "day date, user text, ms int"
//! nodb-server listening on 127.0.0.1:5433
//! ```
//!
//! One shared engine serves every connection, so the positional maps,
//! caches and statistics built by one client's queries speed up all the
//! others. Stop it with `shutdown` on stdin, end-of-input, or SIGTERM
//! via your process manager — all paths drain in-flight queries.

use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;

use nodb_common::{knob, Schema};
use nodb_core::{AccessMode, NoDb, NoDbConfig};
use nodb_csv::CsvOptions;
use nodb_server::{NodbServer, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = NoDbConfig::postgres_raw();
    let mut server_config = ServerConfig::default();
    let mut listen: Option<String> = None;
    let mut unix: Option<String> = None;
    // (name, path, schema) triples from repeated --register flags.
    let mut tables: Vec<(String, String, String)> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print_help();
                return;
            }
            "--listen" => {
                i += 1;
                listen = Some(require(&args, i, "--listen needs host:port"));
            }
            "--unix" => {
                i += 1;
                unix = Some(require(&args, i, "--unix needs a socket path"));
            }
            "--max-inflight" => {
                i += 1;
                server_config.max_inflight = require(&args, i, "--max-inflight needs a count")
                    .parse()
                    .unwrap_or_else(|_| die("--max-inflight needs a count"));
            }
            "--max-connections" => {
                i += 1;
                server_config.max_connections =
                    require(&args, i, "--max-connections needs a count")
                        .parse()
                        .unwrap_or_else(|_| die("--max-connections needs a count"));
            }
            "--register" => {
                let name = require(&args, i + 1, "--register needs NAME PATH SCHEMA");
                let path = require(&args, i + 2, "--register needs NAME PATH SCHEMA");
                let schema = require(&args, i + 3, "--register needs NAME PATH SCHEMA");
                tables.push((name, path, schema));
                i += 3;
            }
            // Engine knobs come from the shared registry
            // (`nodb_common::knob`): one parser for the flag and its
            // environment variable, loud errors for typos in either.
            flag => match knob::find_flag(flag) {
                Some(k) => {
                    i += 1;
                    let raw = require(&args, i, "flag needs a value");
                    if let Err(e) = config.set_knob(k.name, &raw) {
                        die(&e.to_string());
                    }
                }
                None => {
                    eprintln!("{} (see --help)", knob::unknown_flag_error(flag));
                    std::process::exit(2);
                }
            },
        }
        i += 1;
    }

    if listen.is_some() == unix.is_some() {
        die("exactly one of --listen host:port or --unix PATH is required");
    }

    let mut db = match NoDb::new(config) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("failed to start engine: {e}");
            std::process::exit(1);
        }
    };
    for (name, path, schema) in &tables {
        if let Err(e) = register(&mut db, name, path, schema) {
            eprintln!("failed to register `{name}`: {e}");
            std::process::exit(1);
        }
        println!("registered `{name}` -> {path}");
    }
    let db = Arc::new(db);

    let server = match &listen {
        Some(addr) => NodbServer::bind_tcp(Arc::clone(&db), addr.as_str(), server_config),
        None => NodbServer::bind_unix(
            Arc::clone(&db),
            unix.as_deref().expect("validated above"),
            server_config,
        ),
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind: {e}");
            std::process::exit(1);
        }
    };

    let where_ = match (&listen, &unix) {
        (Some(_), _) => server
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default(),
        (None, Some(p)) => format!("unix:{p}"),
        _ => unreachable!(),
    };
    println!("nodb-server listening on {where_}");

    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    // Block on stdin: `shutdown` (or EOF) begins the graceful drain.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "shutdown" => break,
            Ok(l) if l.trim() == "stats" => {
                let s = handle.stats();
                println!(
                    "connections: {} served, {} rejected; queries: {} run, {} busy, {} failed",
                    s.connections_served,
                    s.connections_rejected,
                    s.queries_executed,
                    s.queries_rejected,
                    s.queries_failed
                );
            }
            Ok(_) => println!("commands: stats, shutdown (or EOF)"),
            Err(_) => break,
        }
    }

    handle.shutdown();
    match serving.join() {
        Ok(Ok(stats)) => {
            println!(
                "drained; served {} connection(s), {} query(ies)",
                stats.connections_served, stats.queries_executed
            );
        }
        Ok(Err(e)) => {
            eprintln!("server error: {e}");
            std::process::exit(1);
        }
        Err(_) => {
            eprintln!("server thread panicked");
            std::process::exit(1);
        }
    }
}

fn register(
    db: &mut NoDb,
    name: &str,
    path: &str,
    schema: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let p = Path::new(path);
    let schema = Schema::parse(schema)?;
    if path.ends_with(".jsonl") || path.ends_with(".ndjson") {
        db.register_jsonl(name, p, schema, AccessMode::InSitu)?;
    } else {
        db.register_csv(name, p, schema, CsvOptions::default(), AccessMode::InSitu)?;
    }
    Ok(())
}

fn require(args: &[String], i: usize, msg: &str) -> String {
    args.get(i).cloned().unwrap_or_else(|| die(msg))
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn print_help() {
    println!(
        "nodb-server — concurrent in-situ SQL server over raw files

usage: nodb-server (--listen HOST:PORT | --unix PATH) [options]

options:
  --listen HOST:PORT        TCP listen address (port 0 = OS-assigned)
  --unix PATH               unix-domain socket path (instead of --listen)
  --register NAME PATH \"SCHEMA\"
                            serve a raw file as table NAME (repeatable);
                            format by extension: .jsonl/.ndjson, else CSV
  --max-inflight N          queries running concurrently before Busy (default 8)
  --max-connections N       open connections before Busy-at-accept (default 64)

engine knobs (flag wins over its environment variable):
{}
stdin commands while serving: stats, shutdown (EOF also shuts down)",
        NoDbConfig::knob_help()
    );
}
