//! The `nodb` shell's command-line flags: a malformed budget or an
//! unknown flag exits 2 with a message naming the flag, and `--help`
//! lists both budget flags.

use std::process::{Command, Output, Stdio};

fn nodb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nodb"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn nodb")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn malformed_budget_exits_2_naming_the_flag() {
    let out = nodb(&["--cache-budget", "lots"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--cache-budget"), "{}", stderr(&out));
}

#[test]
fn unknown_flag_exits_2_naming_the_flag() {
    let out = nodb(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--frobnicate"), "{}", stderr(&out));
}

#[test]
fn budgets_parse_and_help_lists_them() {
    // End of input ends the shell: the flags were accepted.
    let out = nodb(&["--posmap-budget", "64MB", "--cache-budget", "1.5GB"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let help = nodb(&["--help"]);
    let text = String::from_utf8_lossy(&help.stdout);
    assert!(text.contains("--posmap-budget SIZE"), "{text}");
    assert!(text.contains("--cache-budget SIZE"), "{text}");
}
