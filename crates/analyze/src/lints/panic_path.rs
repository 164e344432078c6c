//! Panic-path lint: the hot-path modules (the scan pump, both per-record
//! tokenizers, the batch executor, the typed column, the cache's column
//! builder, and the heap and FITS leaves) must never panic on malformed
//! input — a panic there takes down a server worker thread mid-query. Outside `#[cfg(test)]`, these files
//! may not use `.unwrap()`, `.expect(…)`, the panicking macros, or
//! fixed-offset slice indexing (`buf[0]` — a lexically provable
//! bounds-check-free pattern; computed indices derived from the
//! tokenizer's own bounds are out of lexical reach and stay allowed).

use crate::lexer::{in_spans, test_spans};
use crate::report::Finding;
use crate::scan_util::{line_text, tokens};
use crate::SourceFile;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Run the panic-path arm over one hot-path file.
pub fn run(sf: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = tokens(&sf.lexed.mask);
    let tests = test_spans(&sf.lexed.mask);
    for (i, t) in toks.iter().enumerate() {
        if in_spans(&tests, t.line) {
            continue;
        }
        let next = |k: usize| toks.get(i + k).map(|t| t.text);
        let prev = i.checked_sub(1).and_then(|k| toks.get(k)).map(|t| t.text);
        let mut hit: Option<String> = None;
        if t.text == "unwrap" && prev == Some(".") && next(1) == Some("(") && next(2) == Some(")") {
            hit = Some("`.unwrap()` — convert to a typed, located NoDbError".into());
        } else if t.text == "expect" && prev == Some(".") && next(1) == Some("(") {
            hit = Some("`.expect(…)` — convert to a typed, located NoDbError".into());
        } else if PANIC_MACROS.contains(&t.text) && next(1) == Some("!") {
            hit = Some(format!(
                "`{}!` — hot-path modules must return errors, not panic",
                t.text
            ));
        } else if t.text == "["
            && matches!(prev, Some(p) if p == ")" || p == "]"
                || p.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_'))
            && matches!(next(1), Some(n) if n.bytes().all(|b| b.is_ascii_digit()) && !n.is_empty())
            && next(2) == Some("]")
        {
            hit = Some(format!(
                "fixed-offset index `[{}]` can panic — use `.get({})` and \
                 surface a typed error",
                toks[i + 1].text,
                toks[i + 1].text
            ));
        }
        if let Some(msg) = hit {
            findings.push(Finding {
                lint: "panic-path",
                file: sf.rel.clone(),
                line: t.line,
                message: msg,
                waiver_key: Some(line_text(&sf.src, t.line)),
            });
        }
    }
    findings
}
