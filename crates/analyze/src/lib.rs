//! `nodb-analyze`: the workspace invariants the compiler cannot hold.
//!
//! NoDB's adaptive auxiliary structures are only correct if a web of
//! cross-crate invariants holds. Most are clippy lints now (see the
//! README's "Static analysis" section): panic-free hot modules, checked
//! narrowing casts, no environment-variable configuration and a
//! `// SAFETY:` comment on every unsafe block. This crate is a
//! hand-rolled, dependency-free static-analysis pass for the three that
//! have no lint, run as a CI gate:
//!
//! - **unsafe** — every `unsafe` needs a committed, content-hashed
//!   entry in `analyze/unsafe_audit.toml`; deleting an entry (or editing
//!   the unsafe item) fails the run until re-audited.
//! - **lock-order** — acquisitions of the split runtime's locks must
//!   follow the declared DAG `file_len_seen → posmap → cache → stats`.
//! - **atomic-ordering** — `Ordering::Relaxed` outside designated
//!   counter modules needs an `// ORDERING:` justification.
//!
//! A designated-counter entry that matches no walked file is itself a
//! finding, so the policy cannot silently cover a file that was moved
//! or deleted.
//!
//! Run it with `cargo run -p nodb-analyze`.

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

/// The lint arm names accepted by `--lint`.
pub const LINT_NAMES: &[&str] = &["unsafe", "lock-order", "atomic-ordering"];

/// Run the configured lints over the tree.
///
/// `only`: restrict to a subset of [`LINT_NAMES`] (empty = all).
pub fn run(cfg: &Config, only: &[String]) -> Result<Report, String> {
    let files = load_sources(cfg)?;
    let audit = load_audit(&cfg.root.join(&cfg.audit_path))?;
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
        // A designated path that names no walked file covers nothing: it
        // is a finding (the file moved or was deleted).
        let walked: BTreeSet<String> = files.iter().map(SourceFile::rel_str).collect();
        for (path, _) in cfg
            .atomic_designated
            .iter()
            .filter(|(p, _)| !walked.contains(p))
        {
            findings.push(Finding {
                lint: "policy",
                message: format!(
                    "stale `atomic_designated` entry: no walked file is `{path}` — fix or \
                     delete it"
                ),
                file: PathBuf::from(path),
                line: 0,
            });
        }
    }

    findings.sort_by(|a, b| (a.lint, &a.file, a.line).cmp(&(b.lint, &b.file, b.line)));
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
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
