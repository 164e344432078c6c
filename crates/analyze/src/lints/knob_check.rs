//! Knob cross-check: every `NODB_*` string literal in the tree must be a
//! registered knob environment variable (`nodb_common::knob::all()`), so
//! an env var cannot be read (or documented, or set in CI) that the
//! registry — and therefore `validate_env` and `--help` — doesn't know
//! about. The README is held to both directions: every registered
//! knob's env var and CLI flag must be mentioned in it, and every
//! `NODB_…` token it mentions must be a registered knob env var, so it
//! cannot document a knob that no longer exists.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::lexer::{in_spans, test_spans};
use crate::report::Finding;
use crate::SourceFile;

/// Extract `NODB_…` tokens from one string literal.
fn nodb_vars(s: &str) -> Vec<String> {
    let b = s.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = s[from..].find("NODB_") {
        let start = from + pos;
        let mut end = start + "NODB_".len();
        while end < b.len()
            && (b[end].is_ascii_uppercase() || b[end].is_ascii_digit() || b[end] == b'_')
        {
            end += 1;
        }
        // Require at least one character after the prefix, and a
        // non-identifier boundary before it.
        let before_ok = start == 0 || !b[start - 1].is_ascii_alphanumeric();
        if end > start + "NODB_".len() && before_ok {
            out.push(s[start..end].trim_end_matches('_').to_string());
        }
        from = end.max(from + pos + 1);
    }
    out
}

/// Run the knob arm over the whole tree.
pub fn run(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let valid: BTreeSet<&str> = cfg.knob_envs.iter().map(|s| s.as_str()).collect();
    for sf in files {
        let rel = sf.rel_str();
        if rel.starts_with("tests/") || rel.contains("/tests/") {
            continue; // integration tests may fabricate var names
        }
        let tests = test_spans(&sf.lexed.mask);
        for lit in &sf.lexed.strings {
            if in_spans(&tests, lit.line) {
                continue; // unit tests may fabricate var names
            }
            for var in nodb_vars(&lit.content) {
                if !valid.contains(var.as_str()) {
                    findings.push(Finding {
                        lint: "knob",
                        file: sf.rel.clone(),
                        line: lit.line,
                        message: format!(
                            "`{var}` is not a registered knob env var \
                             (nodb_common::knob::all()) — register it or waive it \
                             with a justification"
                        ),
                        waiver_key: Some(var),
                    });
                }
            }
        }
    }
    match std::fs::read_to_string(cfg.root.join(&cfg.readme)) {
        Ok(readme) => check_readme(&readme, &valid, cfg, &mut findings),
        Err(e) if !cfg.knob_docs.is_empty() => findings.push(Finding {
            lint: "knob",
            file: cfg.readme.clone(),
            line: 0,
            message: format!("README unreadable for the knob doc check: {e}"),
            waiver_key: None,
        }),
        Err(_) => {}
    }
    findings
}

/// The README against the registry, in both directions.
fn check_readme(readme: &str, valid: &BTreeSet<&str>, cfg: &Config, out: &mut Vec<Finding>) {
    for (env, flag) in &cfg.knob_docs {
        for (what, needle) in [("env var", env), ("flag", flag)] {
            if !readme.contains(needle.as_str()) {
                out.push(Finding {
                    lint: "knob",
                    file: cfg.readme.clone(),
                    line: 0,
                    message: format!("knob {what} `{needle}` is not mentioned in the README"),
                    waiver_key: Some(needle.clone()),
                });
            }
        }
    }
    for (i, line) in readme.lines().enumerate() {
        for var in nodb_vars(line) {
            if !valid.contains(var.as_str()) {
                out.push(Finding {
                    lint: "knob",
                    file: cfg.readme.clone(),
                    line: i + 1,
                    message: format!(
                        "the README documents `{var}`, which is not a registered knob \
                         env var (nodb_common::knob::all()) — drop it or waive it with \
                         a justification"
                    ),
                    waiver_key: Some(var),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_vars_from_literals() {
        assert_eq!(
            nodb_vars("set NODB_IO_BACKEND=mmap"),
            vec!["NODB_IO_BACKEND"]
        );
        assert_eq!(nodb_vars("NODB_A and NODB_B_2"), vec!["NODB_A", "NODB_B_2"]);
        assert!(nodb_vars("bare NODB_ prefix").is_empty());
        assert!(nodb_vars("MYNODB_X").is_empty());
        assert_eq!(nodb_vars("NODB_X_=trailing"), vec!["NODB_X"]);
    }
}
