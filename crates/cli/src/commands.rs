//! Shell-command parsing (kept separate from I/O for testability).

/// One shell action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Register a file as a table.
    Register {
        /// Table name.
        name: String,
        /// File path.
        path: String,
        /// Schema description for CSV (`None` for FITS).
        schema: Option<String>,
        /// Field delimiter.
        delimiter: u8,
        /// Does the CSV file's first line name its columns (skipped)?
        has_header: bool,
    },
    /// Show work counters.
    Metrics {
        /// Table name.
        table: String,
    },
    /// Show the full resource-accounting view: scan metrics, phase
    /// timings, auxiliary footprints and per-column workload heat.
    Stats {
        /// Table name.
        table: String,
    },
    /// Show a plan.
    Explain {
        /// Query text.
        sql: String,
    },
    /// Run SQL.
    Sql {
        /// Query text.
        sql: String,
    },
    /// Toggle (or set) per-statement wall-clock reporting.
    Timing {
        /// `Some(on)` for `\timing on|off`, `None` for a bare toggle.
        setting: Option<bool>,
    },
    /// Attach to a running `nodb-server`; subsequent SQL runs remotely.
    Connect {
        /// `host:port` for TCP or `unix:PATH` for a unix-domain socket.
        target: String,
    },
    /// Detach from the server and run SQL locally again.
    Disconnect,
    /// Print help.
    Help,
    /// Exit.
    Quit,
}

/// Split a line respecting double-quoted segments.
fn tokens(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    for ch in line.chars() {
        match ch {
            '"' => quoted = !quoted,
            c if c.is_whitespace() && !quoted => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Parse one input line into a [`Command`].
pub fn parse_line(input: &str) -> Result<Command, String> {
    let input = input.trim();
    if let Some(rest) = input.strip_prefix('\\') {
        let toks = tokens(rest);
        match toks.first().map(|s| s.as_str()) {
            Some("register") => {
                let usage = "usage: \\register NAME PATH [\"col type, ...\" [header]]";
                if toks.len() < 3 {
                    return Err(usage.into());
                }
                let schema = toks.get(3).cloned();
                if !toks[2].ends_with(".fits") && schema.is_none() {
                    return Err("CSV registration needs a schema string".into());
                }
                let has_header = match toks.get(4).map(String::as_str) {
                    None => false,
                    Some("header") if toks.len() == 5 => true,
                    Some(_) => return Err(usage.into()),
                };
                Ok(Command::Register {
                    name: toks[1].clone(),
                    path: toks[2].clone(),
                    schema,
                    delimiter: b',',
                    has_header,
                })
            }
            Some("sep") => {
                if toks.len() < 5 {
                    return Err(
                        "usage: \\sep NAME PATH 'D' \"col type, ...\" (D = delimiter char)".into(),
                    );
                }
                let d = toks[3].trim_matches('\'');
                if d.len() != 1 {
                    return Err("delimiter must be a single character".into());
                }
                Ok(Command::Register {
                    name: toks[1].clone(),
                    path: toks[2].clone(),
                    schema: Some(toks[4].clone()),
                    delimiter: d.as_bytes()[0],
                    has_header: false,
                })
            }
            Some("metrics") => match toks.get(1) {
                Some(t) => Ok(Command::Metrics { table: t.clone() }),
                None => Err("usage: \\metrics NAME".into()),
            },
            Some("stats") => match toks.get(1) {
                Some(t) => Ok(Command::Stats { table: t.clone() }),
                None => Err("usage: \\stats NAME".into()),
            },
            Some("explain") => {
                let sql = rest.trim_start_matches("explain").trim();
                if sql.is_empty() {
                    return Err("usage: \\explain SELECT ...".into());
                }
                Ok(Command::Explain {
                    sql: sql.trim_end_matches(';').to_string(),
                })
            }
            Some("timing") => match toks.get(1).map(|s| s.as_str()) {
                None => Ok(Command::Timing { setting: None }),
                Some("on") => Ok(Command::Timing {
                    setting: Some(true),
                }),
                Some("off") => Ok(Command::Timing {
                    setting: Some(false),
                }),
                Some(other) => Err(format!("usage: \\timing [on|off] (got `{other}`)")),
            },
            Some("connect") => match toks.get(1) {
                Some(t) => Ok(Command::Connect { target: t.clone() }),
                None => Err("usage: \\connect HOST:PORT | unix:PATH".into()),
            },
            Some("disconnect") => Ok(Command::Disconnect),
            Some("help") => Ok(Command::Help),
            Some("quit") | Some("q") | Some("exit") => Ok(Command::Quit),
            other => Err(format!("unknown command {other:?} (\\help lists commands)")),
        }
    } else {
        Ok(Command::Sql {
            sql: input.trim_end_matches(';').to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_register_with_quoted_schema() {
        let c = parse_line("\\register t data.csv \"a int, b text\"").unwrap();
        assert_eq!(
            c,
            Command::Register {
                name: "t".into(),
                path: "data.csv".into(),
                schema: Some("a int, b text".into()),
                delimiter: b',',
                has_header: false,
            }
        );
    }

    #[test]
    fn parses_register_with_header() {
        let c = parse_line("\\register t t.csv \"a int, b int\" header").unwrap();
        assert!(matches!(
            c,
            Command::Register {
                has_header: true,
                ..
            }
        ));
        // Only the word `header`, and only last.
        assert!(parse_line("\\register t t.csv \"a int\" headers").is_err());
        assert!(parse_line("\\register t t.csv \"a int\" header extra").is_err());
    }

    #[test]
    fn parses_fits_register_without_schema() {
        let c = parse_line("\\register sky cat.fits").unwrap();
        assert!(matches!(c, Command::Register { schema: None, .. }));
        // ... but CSV without schema is rejected.
        assert!(parse_line("\\register t data.csv").is_err());
    }

    #[test]
    fn parses_jsonl_register_with_schema() {
        let c = parse_line("\\register ev events.jsonl \"id int, msg text\"").unwrap();
        assert!(matches!(
            c,
            Command::Register {
                schema: Some(_),
                ..
            }
        ));
        // JSONL is schema-declared too: no schema, no registration.
        assert!(parse_line("\\register ev events.jsonl").is_err());
    }

    #[test]
    fn parses_sep_with_pipe() {
        let c = parse_line("\\sep li lineitem.tbl '|' \"a int, b text\"").unwrap();
        match c {
            Command::Register { delimiter, .. } => assert_eq!(delimiter, b'|'),
            other => panic!("{other:?}"),
        }
        assert!(parse_line("\\sep li lineitem.tbl '||' \"a int\"").is_err());
    }

    #[test]
    fn parses_sql_and_strips_semicolon() {
        let c = parse_line("select 1 from t;").unwrap();
        assert_eq!(
            c,
            Command::Sql {
                sql: "select 1 from t".into()
            }
        );
    }

    #[test]
    fn parses_timing_toggle() {
        assert_eq!(
            parse_line("\\timing").unwrap(),
            Command::Timing { setting: None }
        );
        assert_eq!(
            parse_line("\\timing on").unwrap(),
            Command::Timing {
                setting: Some(true)
            }
        );
        assert_eq!(
            parse_line("\\timing off").unwrap(),
            Command::Timing {
                setting: Some(false)
            }
        );
        assert!(parse_line("\\timing maybe").is_err());
    }

    #[test]
    fn parses_connect_and_disconnect() {
        assert_eq!(
            parse_line("\\connect 127.0.0.1:5433").unwrap(),
            Command::Connect {
                target: "127.0.0.1:5433".into()
            }
        );
        assert_eq!(
            parse_line("\\connect unix:/tmp/nodb.sock").unwrap(),
            Command::Connect {
                target: "unix:/tmp/nodb.sock".into()
            }
        );
        assert!(parse_line("\\connect").is_err());
        assert_eq!(parse_line("\\disconnect").unwrap(), Command::Disconnect);
    }

    #[test]
    fn parses_meta_commands() {
        assert_eq!(parse_line("\\quit").unwrap(), Command::Quit);
        assert_eq!(parse_line("\\help").unwrap(), Command::Help);
        assert_eq!(
            parse_line("\\metrics t").unwrap(),
            Command::Metrics { table: "t".into() }
        );
        assert!(matches!(
            parse_line("\\explain select a from t;").unwrap(),
            Command::Explain { .. }
        ));
        assert!(parse_line("\\metrics").is_err());
        assert!(parse_line("\\bogus").is_err());
    }

    #[test]
    fn parses_stats() {
        assert_eq!(
            parse_line("\\stats events").unwrap(),
            Command::Stats {
                table: "events".into()
            }
        );
        assert!(parse_line("\\stats").is_err());
    }
}
