//! `nodb-server`'s command-line flags: a malformed budget or an unknown
//! flag exits 2 with a message naming the flag, and `--help` lists both
//! budget flags.

use std::process::{Command, Output, Stdio};

fn server(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nodb-server"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn nodb-server")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn malformed_budget_exits_2_naming_the_flag() {
    let out = server(&["--listen", "127.0.0.1:0", "--cache-budget", "lots"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--cache-budget"), "{}", stderr(&out));
}

#[test]
fn unknown_flag_exits_2_naming_the_flag() {
    let out = server(&["--listen", "127.0.0.1:0", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--frobnicate"), "{}", stderr(&out));
}

#[test]
fn budgets_parse_and_help_lists_them() {
    // End of input drains the server: the flags were accepted.
    let out = server(&[
        "--listen",
        "127.0.0.1:0",
        "--posmap-budget",
        "64MB",
        "--cache-budget",
        "1.5GB",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let help = server(&["--help"]);
    let text = String::from_utf8_lossy(&help.stdout);
    assert!(text.contains("--posmap-budget SIZE"), "{text}");
    assert!(text.contains("--cache-budget SIZE"), "{text}");
}
