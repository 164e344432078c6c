//! Environment-variable ban: the engine is configured through
//! `NoDbConfig` only, so no `NODB_*` string literal may appear in
//! non-test source, and the README may document none. A literal that
//! configures something other than the engine (a harness's data
//! directory, say) needs a waiver with a written justification.

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
                findings.push(banned(sf.rel.clone(), lit.line, var));
            }
        }
    }
    // A tree without a README has nothing to document.
    if let Ok(readme) = std::fs::read_to_string(cfg.root.join(&cfg.readme)) {
        for (i, line) in readme.lines().enumerate() {
            for var in nodb_vars(line) {
                findings.push(banned(cfg.readme.clone(), i + 1, var));
            }
        }
    }
    findings
}

fn banned(file: std::path::PathBuf, line: usize, var: String) -> Finding {
    Finding {
        lint: "knob",
        file,
        line,
        message: format!(
            "`{var}`: nothing may be configured through a `NODB_*` environment \
             variable (the engine takes `NoDbConfig` only) — drop it or waive it \
             with a justification"
        ),
        waiver_key: Some(var),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_vars_from_literals() {
        assert_eq!(
            nodb_vars("set NODB_SCAN_THREADS=4"),
            vec!["NODB_SCAN_THREADS"]
        );
        assert_eq!(nodb_vars("NODB_A and NODB_B_2"), vec!["NODB_A", "NODB_B_2"]);
        assert!(nodb_vars("bare NODB_ prefix").is_empty());
        assert!(nodb_vars("MYNODB_X").is_empty());
        assert_eq!(nodb_vars("NODB_X_=trailing"), vec!["NODB_X"]);
    }
}
