//! Atomic-ordering audit: every `Ordering::Relaxed` outside the
//! designated counter modules needs an `// ORDERING:` justification —
//! either within the 3 lines above the site or anywhere earlier in the
//! enclosing function (counter modules batch many sites per function;
//! one justification covers the function).
//!
//! `Relaxed` is the only audited ordering: stronger orderings are
//! conservative by construction, while a misplaced `Relaxed` on a flag
//! or handshake is a real reordering bug.

use std::collections::BTreeSet;

use crate::lexer::{in_spans, test_spans};
use crate::report::Finding;
use crate::scan_util::{enclosing_fn, fn_spans, line_of, tokens};
use crate::SourceFile;

/// Run the atomic-ordering arm over one non-designated file.
pub fn run(sf: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mask = &sf.lexed.mask;
    let ordering_lines: BTreeSet<usize> = sf
        .lexed
        .comment_lines_with("ORDERING:")
        .into_iter()
        .collect();
    let tests = test_spans(mask);
    let spans = fn_spans(&tokens(mask));
    let mut from = 0usize;
    while let Some(pos) = mask[from..].find("Ordering::Relaxed") {
        let at = from + pos;
        from = at + "Ordering::Relaxed".len();
        let line = line_of(mask, at);
        if in_spans(&tests, line) {
            continue;
        }
        let nearby = (line.saturating_sub(3)..=line).any(|l| ordering_lines.contains(&l));
        let in_fn = enclosing_fn(&spans, line)
            .is_some_and(|(start, _)| ordering_lines.iter().any(|&l| l >= start && l <= line));
        if !nearby && !in_fn {
            findings.push(Finding {
                lint: "atomic-ordering",
                file: sf.rel.clone(),
                line,
                message: "`Ordering::Relaxed` outside a designated counter module \
                          without an `// ORDERING:` justification"
                    .into(),
            });
        }
    }
    findings
}
