//! `nodb` — an interactive SQL shell over raw data files.
//!
//! ```text
//! $ nodb
//! nodb> \register events ./events.csv "day date, user text, action text, ms int"
//! nodb> select action, count(*) from events group by action order by count desc;
//! nodb> \metrics events
//! nodb> \quit
//! ```
//!
//! No loading step, ever: files are queried in place, and the engine's
//! positional map / cache / statistics build up behind your session.

use std::io::{BufRead, Write};
use std::path::Path;

use nodb_common::{ByteSize, Schema};
use nodb_core::{AccessMode, NoDb, NoDbConfig};
use nodb_csv::CsvOptions;
use nodb_server::{collect_stats, NodbClient, StatsPayload};

mod commands;

use commands::{parse_line, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = NoDbConfig::postgres_raw();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print_help();
                return;
            }
            "--posmap-budget" => {
                i += 1;
                config.posmap_budget = Some(size_arg(&args, i, "--posmap-budget"));
            }
            "--cache-budget" => {
                i += 1;
                config.cache_budget = Some(size_arg(&args, i, "--cache-budget"));
            }
            flag => die(&format!("unknown argument `{flag}` (see --help)")),
        }
        i += 1;
    }
    let mut db = match NoDb::new(config) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("failed to start engine: {e}");
            std::process::exit(1);
        }
    };

    println!("nodb — in-situ SQL over raw files (\\help for commands)");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let mut timing = false;
    // `Some` while attached to a remote nodb-server via \connect; SQL
    // then streams over the wire instead of the embedded engine.
    let mut remote: Option<NodbClient> = None;
    loop {
        print!("nodb> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Accumulate SQL until a terminating `;`; backslash-commands are
        // single-line.
        if !line.starts_with('\\') {
            buffer.push_str(line);
            buffer.push(' ');
            if !line.ends_with(';') {
                continue;
            }
        }
        let input = if line.starts_with('\\') {
            line.to_string()
        } else {
            std::mem::take(&mut buffer)
        };
        match parse_line(&input) {
            Ok(Command::Quit) => break,
            Ok(Command::Help) => print_help(),
            Ok(cmd) => {
                if let Err(e) = execute(&mut db, &mut remote, cmd, &mut timing) {
                    eprintln!("error: {e}");
                }
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

fn execute(
    db: &mut NoDb,
    remote: &mut Option<NodbClient>,
    cmd: Command,
    timing: &mut bool,
) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Connect { target } => {
            let client = NodbClient::connect(&target)?;
            println!("connected to {} at {target}", client.server());
            if let Some(old) = remote.replace(client) {
                let _ = old.close();
            }
        }
        Command::Disconnect => match remote.take() {
            Some(client) => {
                client.close()?;
                println!("disconnected; SQL runs on the embedded engine again");
            }
            None => println!("not connected"),
        },
        Command::Sql { sql } if remote.is_some() => {
            // Remote mode: stream frames off the wire. Identical output
            // shape to the embedded path; the server's shared engine
            // does the scanning, so other clients' queries warm ours.
            let t = std::time::Instant::now();
            let client = remote.as_mut().expect("guarded by remote.is_some()");
            let stream = client.stream(&sql, &[])?;
            let names: Vec<&str> = stream
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            println!("{}", names.join(" | "));
            let mut n = 0usize;
            for row in stream {
                println!("{}", row?);
                n += 1;
            }
            println!("({n} rows)");
            if *timing {
                println!("Time: {:.3} ms", t.elapsed().as_secs_f64() * 1e3);
            }
        }
        Command::Register { .. } if remote.is_some() => {
            return Err("\\register is not available while connected to a server; \
                        register tables with nodb-server --register, or \\disconnect first"
                .into());
        }
        Command::Register {
            name,
            path,
            schema,
            delimiter,
            has_header,
        } => {
            let p = Path::new(&path);
            if path.ends_with(".fits") {
                db.register_fits(&name, p, AccessMode::InSitu)?;
            } else if path.ends_with(".jsonl") || path.ends_with(".ndjson") {
                let schema = Schema::parse(&schema.ok_or("JSONL files need a schema string")?)?;
                db.register_jsonl(&name, p, schema, AccessMode::InSitu)?;
            } else {
                let schema = Schema::parse(&schema.ok_or("CSV files need a schema string")?)?;
                let opts = CsvOptions {
                    delimiter,
                    has_header,
                };
                db.register_csv(&name, p, schema, opts, AccessMode::InSitu)?;
            }
            println!("registered `{name}` -> {path}");
        }
        Command::Metrics { table } => {
            // While \connect'ed, read the *server's* engine over the
            // Stats frame — the embedded engine has done no work, and
            // printing its zeros for a remote table would be a lie.
            let p = fetch_stats(db, remote, &table)?;
            print_metrics(&p);
        }
        Command::Stats { table } => {
            let p = fetch_stats(db, remote, &table)?;
            print_metrics(&p);
            print_profile(&p);
        }
        Command::Explain { .. } if remote.is_some() => {
            return Err("\\explain is not available while connected to a server; \
                        \\disconnect to plan against the embedded engine"
                .into());
        }
        Command::Explain { sql } => {
            print!("{}", db.explain(&sql)?);
        }
        Command::Sql { sql } => {
            // Stream from the cursor: rows print as the scan produces
            // them, and nothing holds the full result set in memory —
            // a LIMIT (or a closed pipe) stops the raw-file scan early.
            let t = std::time::Instant::now();
            let mut cursor = db.query_stream(&sql)?;
            println!("{}", cursor.columns().join(" | "));
            let mut n = 0usize;
            for row in cursor.by_ref() {
                println!("{}", row?);
                n += 1;
            }
            println!("({n} rows)");
            if *timing {
                println!("Time: {:.3} ms", t.elapsed().as_secs_f64() * 1e3);
            }
        }
        Command::Timing { setting } => {
            *timing = setting.unwrap_or(!*timing);
            println!("Timing is {}.", if *timing { "on" } else { "off" });
        }
        Command::Quit | Command::Help => {}
    }
    Ok(())
}

/// One observability snapshot for `table`, from wherever SQL currently
/// runs: the server's shared engine when `\connect`ed (over the Stats
/// frame), the embedded engine otherwise. Both paths produce the same
/// [`StatsPayload`], so `\metrics` / `\stats` render identically.
fn fetch_stats(
    db: &NoDb,
    remote: &mut Option<NodbClient>,
    table: &str,
) -> Result<StatsPayload, Box<dyn std::error::Error>> {
    match remote.as_mut() {
        Some(client) => Ok(client.table_stats(table)?),
        None => Ok(collect_stats(db, table)?),
    }
}

fn print_metrics(p: &StatsPayload) {
    println!(
        "scans={} rows_emitted={} tokenized={} parsed={} from_cache={} \
         via_map={} via_anchor={}",
        p.scans,
        p.rows_emitted,
        p.fields_tokenized,
        p.fields_parsed,
        p.fields_from_cache,
        p.fields_via_map,
        p.fields_via_anchor
    );
    println!(
        "posmap: {} pointers / {} bytes; cache: {} bytes ({:.1}% of budget); stats on {} attrs",
        p.posmap_pointers,
        p.posmap_bytes,
        p.cache_bytes,
        p.cache_utilization * 100.0,
        p.stats_attrs
    );
}

fn print_profile(p: &StatsPayload) {
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "phase: io {:.3} ms / {} bytes; tokenize {:.3} ms / {} bytes; \
         parse {:.3} ms / {} values",
        ms(p.io_ns),
        p.io_bytes,
        ms(p.tokenize_ns),
        p.tokenize_bytes,
        ms(p.parse_ns),
        p.parse_values
    );
    if p.heats.is_empty() {
        println!("workload: no column touches recorded");
    } else {
        let cols: Vec<String> = p
            .heats
            .iter()
            .map(|(attr, heat)| format!("#{attr}={heat}"))
            .collect();
        println!("workload heat (decayed touches): {}", cols.join(" "));
    }
}

/// The byte size given as `flag`'s value (`args[i]`); exits 2 naming
/// the flag when it is missing or malformed.
fn size_arg(args: &[String], i: usize, flag: &str) -> ByteSize {
    let raw = args.get(i).map_or("", String::as_str);
    ByteSize::parse_flag(flag, raw).unwrap_or_else(|e| die(&e.to_string()))
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn print_help() {
    println!(
        "usage: nodb [--posmap-budget SIZE] [--cache-budget SIZE]

options:
  --posmap-budget SIZE   positional-map memory cap per table, e.g. 64MB (default unbounded)
  --cache-budget SIZE    parsed-value cache cap per table, e.g. 256MB (default unbounded)"
    );
    println!(
        "\n\
         \\register NAME PATH \"col type, ...\"   register a CSV file (in situ)\n\
         \\register NAME PATH \"col type, ...\" header  ... whose first line names its columns\n\
         \\register NAME PATH.jsonl \"col type, ...\"  register a JSON Lines file (keys = column names)\n\
         \\register NAME PATH.fits              register a FITS binary table\n\
         \\sep NAME PATH '|' \"col type, ...\"    register with a delimiter\n\
         \\explain SELECT ...                   show the query plan\n\
         \\metrics NAME                         show scan work counters\n\
         \\stats NAME                           counters + phase timings + workload heat\n\
         \x20                                     (local, or the server's when \\connect'ed)\n\
         \\connect HOST:PORT | unix:PATH        attach to a running nodb-server; SQL runs there\n\
         \\disconnect                           detach and run SQL locally again\n\
         \\timing [on|off]                      toggle per-statement wall-clock reporting\n\
         \\help                                 this text\n\
         \\quit                                 exit\n\
         SELECT ... ;                          run SQL (terminate with ;)"
    );
}
