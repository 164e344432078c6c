//! The engine is configured through `NoDbConfig` only: no environment
//! variable changes what it does. `crates/clippy.toml` bans the
//! `std::env` readers in every crate under `crates/`; this test covers
//! what that configuration does not reach — the facade package's `src/`
//! and `examples/` and the vendored `shims/` — and the README, which
//! must document no `NODB_*` variable either.

use std::path::{Path, PathBuf};

/// Every `NODB_` variable name on `line`: the prefix, not preceded by an
/// identifier character, followed by at least one of `A-Z`, `0-9`, `_`.
fn nodb_vars(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (start, _) in line.match_indices("NODB_") {
        let before = line[..start].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let rest = &line[start..];
        let len = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        let name = rest[..len].trim_end_matches('_');
        if name.len() > "NODB_".len() {
            out.push(name);
        }
    }
    out
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.ends_with("target") {
            continue;
        } else if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[test]
fn matcher_finds_whole_variable_names_only() {
    assert_eq!(nodb_vars("set NODB_SCAN_THREADS=4"), ["NODB_SCAN_THREADS"]);
    assert_eq!(nodb_vars("NODB_A and `NODB_B_2`"), ["NODB_A", "NODB_B_2"]);
    assert_eq!(nodb_vars("NODB_X_=trailing"), ["NODB_X"]);
    assert!(nodb_vars("a bare NODB_ prefix, or NODB_* as a pattern").is_empty());
    assert!(nodb_vars("MYNODB_X and my_NODB_Y").is_empty());
}

#[test]
fn readme_src_and_examples_name_no_nodb_variable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("README.md")];
    files_under(&root.join("src"), &mut files);
    files_under(&root.join("examples"), &mut files);
    files_under(&root.join("shims"), &mut files);
    assert!(files.len() > 2, "walked only {files:?}");
    let mut found = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue; // not text
        };
        for (i, line) in text.lines().enumerate() {
            for var in nodb_vars(line) {
                found.push(format!("{}:{}: {var}", path.display(), i + 1));
            }
        }
    }
    assert!(
        found.is_empty(),
        "configure through NoDbConfig, not the environment:\n{}",
        found.join("\n")
    );
}
