//! Unsafe audit: every `unsafe` keyword in the tree needs a committed
//! entry in `analyze/unsafe_audit.toml` keyed by file + content hash of
//! the unsafe item. New or modified unsafe cannot land without a
//! reviewable ledger diff; deleting an entry makes the run fail. (The
//! adjacent `// SAFETY:` comment is clippy's
//! `undocumented_unsafe_blocks`, denied workspace-wide.)

use std::collections::BTreeSet;

use crate::report::Finding;
use crate::scan_util::{fnv64_normalized, line_of};
use crate::SourceFile;

/// One committed audit entry.
#[derive(Debug, Clone)]
pub struct AuditEntry {
    /// File the unsafe item lives in (relative path, `/`-separated).
    pub file: String,
    /// `fnv64:…` content hash of the item.
    pub hash: String,
    /// Short description of the item.
    pub item: String,
    /// Why the unsafe is sound. Must be non-empty.
    pub justification: String,
    /// Line of the entry in the audit file (for findings).
    pub toml_line: usize,
}

/// One live `unsafe` occurrence found in the tree.
#[derive(Debug)]
pub struct UnsafeSite {
    /// File (relative, `/`-separated).
    pub file: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// `fnv64:…` content hash of the item.
    pub hash: String,
    /// First line of the item, for audit-entry templates.
    pub snippet: String,
}

/// Find every `unsafe` keyword (as a code token — comments and strings
/// are masked) and hash the item it introduces: from the start of the
/// keyword's line to the matching close of the first brace after it (or
/// the terminating `;` for a bodiless form).
pub fn sites(sf: &SourceFile) -> Vec<UnsafeSite> {
    let mask = sf.lexed.mask.as_bytes();
    let src = sf.src.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = sf.lexed.mask[from..].find("unsafe") {
        let at = from + pos;
        from = at + "unsafe".len();
        let before_ok = at == 0 || !is_word(mask[at - 1]);
        let after_ok = from >= mask.len() || !is_word(mask[from]);
        if !before_ok || !after_ok {
            continue; // `unsafe_code` and friends
        }
        let line = line_of(&sf.lexed.mask, at);
        // Span start: beginning of the keyword's line.
        let span_start = sf.lexed.mask[..at].rfind('\n').map(|p| p + 1).unwrap_or(0);
        // Span end: matching close of the first `{` after the keyword,
        // or the first `;` if one comes before any brace.
        let mut depth = 0usize;
        let mut end = mask.len();
        for (k, &b) in mask.iter().enumerate().skip(at) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = k + 1;
                    break;
                }
                _ => {}
            }
        }
        let hash = format!("fnv64:{:016x}", fnv64_normalized(&src[span_start..end]));
        let snippet = sf
            .src
            .lines()
            .nth(line - 1)
            .unwrap_or("")
            .trim()
            .to_string();
        out.push(UnsafeSite {
            file: sf.rel_str(),
            line,
            hash,
            snippet,
        });
    }
    out
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Run the audit over all files against the committed entries.
pub fn run(files: &[SourceFile], entries: &[AuditEntry], audit_path: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for sf in files {
        for site in sites(sf) {
            match entries
                .iter()
                .position(|e| e.file == site.file && e.hash == site.hash)
            {
                Some(idx) => {
                    used.insert(idx);
                }
                None => findings.push(Finding {
                    lint: "unsafe",
                    file: sf.rel.clone(),
                    line: site.line,
                    message: format!(
                        "unaudited `unsafe` (content hash {}): {} — audit it and add \
                         a justified entry to {audit_path} (run with \
                         --print-unsafe-entries for a template)",
                        site.hash, site.snippet
                    ),
                }),
            }
        }
    }
    for (idx, e) in entries.iter().enumerate() {
        if e.justification.trim().is_empty() {
            findings.push(Finding {
                lint: "unsafe",
                file: audit_path.into(),
                line: e.toml_line,
                message: format!(
                    "audit entry for {} ({}) has an empty justification",
                    e.file, e.hash
                ),
            });
        }
        if !used.contains(&idx) {
            findings.push(Finding {
                lint: "unsafe",
                file: audit_path.into(),
                line: e.toml_line,
                message: format!(
                    "stale audit entry: no `unsafe` in {} has hash {} — the item \
                     was removed or modified; re-audit and update the entry",
                    e.file, e.hash
                ),
            });
        }
    }
    findings
}
