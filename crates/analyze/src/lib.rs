//! `nodb-analyze`: the workspace invariant linter.
//!
//! NoDB's adaptive auxiliary structures are only correct if a web of
//! cross-crate invariants holds — audited `unsafe` in the mmap byte
//! source, the `RawTableRuntime` lock-acquisition DAG, justified
//! `Relaxed` atomics, panic-free hot paths, checked offset casts, and a
//! single knob registry behind every `NODB_*` env var. This crate is a
//! hand-rolled, dependency-free static-analysis pass that enforces those
//! invariants as a CI gate, with committed allowlists
//! (`analyze/unsafe_audit.toml`, `analyze/waivers.toml`) so every
//! exception is a reviewable diff with a written justification.
//!
//! Lint arms:
//!
//! - **unsafe** — every `unsafe` needs an adjacent `// SAFETY:` comment
//!   and a committed, content-hashed audit entry; deleting an entry (or
//!   editing the unsafe item) fails the run until re-audited.
//! - **lock-order** — acquisitions of the split runtime's locks must
//!   follow the declared DAG `file_len_seen → posmap → cache → stats`.
//! - **atomic-ordering** — `Ordering::Relaxed` outside designated
//!   counter modules needs an `// ORDERING:` justification.
//! - **panic-path** — no `unwrap`/`expect`/panicking macros/fixed-offset
//!   indexing in hot-path modules outside `#[cfg(test)]`.
//! - **cast** — no unexplained narrowing `as` casts in wire-protocol and
//!   positional-map offset arithmetic.
//! - **knob** — every `NODB_*` string literal is a registered knob env
//!   var, and every knob's env var and flag is documented in the README.
//!
//! A waiver, hot-path, cast or designated-counter entry that matches no
//! walked file is itself a finding, so the policy cannot silently cover
//! a file that was moved or deleted.
//!
//! Run it with `cargo run -p nodb-analyze`; see the README's "Static
//! analysis" section for the waiver workflow.

pub mod config;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod scan_util;
pub mod toml;
pub mod walk;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use config::Config;
use lints::unsafe_audit::AuditEntry;
use report::{Finding, Report};

/// One loaded source file: path (relative to the tree root), raw text,
/// and its lexed view.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the tree root.
    pub rel: PathBuf,
    /// Raw file contents.
    pub src: String,
    /// Masked/structured view from [`lexer::lex`].
    pub lexed: lexer::Lexed,
}

impl SourceFile {
    /// The relative path with `/` separators (allowlist key form).
    pub fn rel_str(&self) -> String {
        self.rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/")
    }
}

/// A waiver from `analyze/waivers.toml`: suppresses findings of `lint`
/// in `file` whose waiver key equals `key`, with a written reason.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Lint arm the waiver applies to.
    pub lint: String,
    /// File (relative, `/`-separated) the waiver applies to.
    pub file: String,
    /// Content-addressed key (trimmed source line, or env-var name for
    /// the knob arm) — line numbers drift, content doesn't.
    pub key: String,
    /// Why the finding is acceptable. Must be non-empty.
    pub justification: String,
    /// Line of the entry in the waiver file.
    pub toml_line: usize,
}

/// Load every `.rs` file the policy covers.
pub fn load_sources(cfg: &Config) -> Result<Vec<SourceFile>, String> {
    let subdirs: Vec<&str> = cfg.subdirs.iter().map(|s| s.as_str()).collect();
    let rels = walk::rust_files(&cfg.root, &subdirs)
        .map_err(|e| format!("walking {}: {e}", cfg.root.display()))?;
    let mut out = Vec::with_capacity(rels.len());
    for rel in rels {
        let path = cfg.root.join(&rel);
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let lexed = lexer::lex(&src);
        out.push(SourceFile { rel, src, lexed });
    }
    Ok(out)
}

/// Parse the committed unsafe audit file (absent file = no entries).
pub fn load_audit(path: &Path) -> Result<Vec<AuditEntry>, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(Vec::new());
    };
    let entries = toml::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for e in entries {
        if e.section != "unsafe" {
            return Err(format!(
                "{}: line {}: unknown section `[[{}]]` (expected `[[unsafe]]`)",
                path.display(),
                e.line,
                e.section
            ));
        }
        out.push(AuditEntry {
            file: e.require("file").map_err(|p| p.to_string())?.to_string(),
            hash: e.require("hash").map_err(|p| p.to_string())?.to_string(),
            item: e.require("item").map_err(|p| p.to_string())?.to_string(),
            justification: e
                .require("justification")
                .map_err(|p| p.to_string())?
                .to_string(),
            toml_line: e.line,
        });
    }
    Ok(out)
}

/// Parse the committed waiver file (absent file = no waivers).
pub fn load_waivers(path: &Path) -> Result<Vec<Waiver>, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(Vec::new());
    };
    let entries = toml::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for e in entries {
        if e.section != "waiver" {
            return Err(format!(
                "{}: line {}: unknown section `[[{}]]` (expected `[[waiver]]`)",
                path.display(),
                e.line,
                e.section
            ));
        }
        out.push(Waiver {
            lint: e.require("lint").map_err(|p| p.to_string())?.to_string(),
            file: e.require("file").map_err(|p| p.to_string())?.to_string(),
            key: e.require("key").map_err(|p| p.to_string())?.to_string(),
            justification: e
                .require("justification")
                .map_err(|p| p.to_string())?
                .to_string(),
            toml_line: e.line,
        });
    }
    Ok(out)
}

/// The lint arm names accepted by `--lint`.
pub const LINT_NAMES: &[&str] = &[
    "unsafe",
    "lock-order",
    "atomic-ordering",
    "panic-path",
    "cast",
    "knob",
];

/// Run the configured lints over the tree and apply waivers.
///
/// `only`: restrict to a subset of [`LINT_NAMES`] (empty = all).
pub fn run(cfg: &Config, only: &[String]) -> Result<Report, String> {
    let files = load_sources(cfg)?;
    let audit = load_audit(&cfg.root.join(&cfg.audit_path))?;
    let waivers = load_waivers(&cfg.root.join(&cfg.waivers_path))?;
    let enabled = |name: &str| only.is_empty() || only.iter().any(|o| o == name);

    let mut findings: Vec<Finding> = Vec::new();

    if enabled("unsafe") {
        findings.extend(lints::unsafe_audit::run(
            &files,
            &audit,
            &cfg.audit_path.to_string_lossy(),
        ));
    }
    if enabled("lock-order") {
        for sf in &files {
            let rel = sf.rel_str();
            if cfg
                .lock_prefixes
                .iter()
                .any(|p| rel.starts_with(p.as_str()))
            {
                findings.extend(lints::lock_order::run(sf, &cfg.lock_dag));
            }
        }
    }
    if enabled("atomic-ordering") {
        for sf in &files {
            let rel = sf.rel_str();
            if rel.starts_with("tests/") || rel.contains("/tests/") {
                continue; // test code is exempt, like #[cfg(test)]
            }
            if cfg.atomic_designated.iter().any(|(f, _)| *f == rel) {
                continue;
            }
            findings.extend(lints::atomic_order::run(sf));
        }
    }
    if enabled("panic-path") {
        for sf in &files {
            if cfg.hot_files.iter().any(|f| *f == sf.rel_str()) {
                findings.extend(lints::panic_path::run(sf));
            }
        }
    }
    if enabled("cast") {
        for sf in &files {
            if cfg.cast_files.iter().any(|f| *f == sf.rel_str()) {
                findings.extend(lints::cast_check::run(sf));
            }
        }
    }
    if enabled("knob") {
        findings.extend(lints::knob_check::run(&files, cfg));
    }

    // A policy path that names no walked file covers nothing: like a
    // stale waiver, it is a finding (the file moved or was deleted).
    let walked: BTreeSet<String> = files.iter().map(SourceFile::rel_str).collect();
    let policy_paths: [(&str, &str, Vec<&String>); 3] = [
        ("panic-path", "hot_files", cfg.hot_files.iter().collect()),
        ("cast", "cast_files", cfg.cast_files.iter().collect()),
        (
            "atomic-ordering",
            "atomic_designated",
            cfg.atomic_designated.iter().map(|(f, _)| f).collect(),
        ),
    ];
    for (arm, list, paths) in policy_paths {
        if !enabled(arm) {
            continue;
        }
        for path in paths.into_iter().filter(|p| !walked.contains(*p)) {
            findings.push(Finding {
                lint: "policy",
                message: format!(
                    "stale `{list}` entry: no walked file is `{path}` — fix or delete it"
                ),
                file: PathBuf::from(path),
                line: 0,
                waiver_key: None,
            });
        }
    }

    // Apply waivers: content-addressed, per lint arm and file. A waiver
    // with an empty justification is itself a finding, as is a waiver
    // that no longer matches anything (stale waivers must be deleted,
    // keeping the allowlist an honest record of current exceptions).
    let mut used: BTreeSet<usize> = BTreeSet::new();
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for f in findings {
        let matched = f.waiver_key.as_ref().and_then(|key| {
            waivers.iter().position(|w| {
                w.lint == f.lint
                    && f.file.to_string_lossy().replace('\\', "/") == w.file
                    && w.key == *key
            })
        });
        match matched {
            Some(idx) if !waivers[idx].justification.trim().is_empty() => {
                used.insert(idx);
                report.waived.push((f, waivers[idx].justification.clone()));
            }
            _ => report.findings.push(f),
        }
    }
    for (idx, w) in waivers.iter().enumerate() {
        if w.justification.trim().is_empty() {
            report.findings.push(Finding {
                lint: "waiver",
                file: cfg.waivers_path.clone(),
                line: w.toml_line,
                message: format!(
                    "waiver for [{}] {} (key `{}`) has an empty justification",
                    w.lint, w.file, w.key
                ),
                waiver_key: None,
            });
        } else if !used.contains(&idx) && (only.is_empty() || only.contains(&w.lint)) {
            report.findings.push(Finding {
                lint: "waiver",
                file: cfg.waivers_path.clone(),
                line: w.toml_line,
                message: format!(
                    "stale waiver: no [{}] finding in {} matches key `{}` — delete it",
                    w.lint, w.file, w.key
                ),
                waiver_key: None,
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (a.lint, &a.file, a.line).cmp(&(b.lint, &b.file, b.line)));
    Ok(report)
}

/// Render TOML audit-entry templates for every currently unaudited
/// `unsafe` site (the `--print-unsafe-entries` mode).
pub fn unsafe_entry_templates(cfg: &Config) -> Result<String, String> {
    let files = load_sources(cfg)?;
    let audit = load_audit(&cfg.root.join(&cfg.audit_path))?;
    let mut out = String::new();
    for sf in &files {
        for site in lints::unsafe_audit::sites(sf) {
            let covered = audit
                .iter()
                .any(|e| e.file == site.file && e.hash == site.hash);
            if !covered {
                out.push_str(&format!(
                    "[[unsafe]]\nfile = {}\nhash = {}\nitem = {}\njustification = \"\"\n\n",
                    toml::quote(&site.file),
                    toml::quote(&site.hash),
                    toml::quote(&site.snippet),
                ));
            }
        }
    }
    Ok(out)
}
