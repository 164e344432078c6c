//! `\register` through the `nodb` shell: a CSV file whose first line
//! names its columns is queried once registered with `header`.

use std::io::Write;
use std::process::{Command, Stdio};

use nodb_common::TempDir;

/// Run the shell over `script` and return its stdout.
fn shell(script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nodb"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn nodb");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("nodb exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn register_with_header_skips_the_first_line() {
    let dir = TempDir::new("nodb-cli-register").unwrap();
    let path = dir.file("t.csv");
    std::fs::write(&path, "id,x\n1,2\n3,4\n").unwrap();
    let path = path.display();
    let out = shell(&format!(
        "\\register t {path} \"a int, b int\" header\nselect sum(a), sum(b) from t;\n\\quit\n"
    ));
    assert!(out.contains("4 | 6"), "{out}");
    assert!(out.contains("(1 rows)"), "{out}");
    // Without `header`, the column names are row 0, which is no int.
    let out = shell(&format!(
        "\\register u {path} \"a int, b int\"\nselect sum(a) from u;\n\\quit\n"
    ));
    assert!(!out.contains("(1 rows)"), "{out}");
}
