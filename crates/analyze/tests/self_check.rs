//! Self-test: the committed unsafe ledger must match the live tree. The
//! workspace lints clean as-is, every unsafe site is audited, and
//! deleting *any* entry from `analyze/unsafe_audit.toml` makes the run
//! fail — the ledger is load-bearing, not decorative.

use std::path::{Path, PathBuf};

use nodb_analyze::config::Config;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn live_tree_lints_clean() {
    let cfg = Config::for_workspace(&workspace_root());
    let report = nodb_analyze::run(&cfg, &[]).expect("lint run");
    assert!(
        report.is_clean(),
        "the workspace has unwaived lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_unsafe_site_is_audited() {
    let cfg = Config::for_workspace(&workspace_root());
    let templates = nodb_analyze::unsafe_entry_templates(&cfg).expect("scan");
    assert!(
        templates.is_empty(),
        "unaudited unsafe sites need entries in analyze/unsafe_audit.toml:\n{templates}"
    );
}

#[test]
fn deleting_any_audit_entry_fails_the_run() {
    let cfg = Config::for_workspace(&workspace_root());
    let files = nodb_analyze::load_sources(&cfg).expect("sources");
    let audit = nodb_analyze::load_audit(&cfg.root.join(&cfg.audit_path)).expect("audit");
    assert!(
        !audit.is_empty(),
        "the audit ledger is empty — the deletion guarantee is vacuous"
    );
    for removed in 0..audit.len() {
        let mut truncated = audit.clone();
        let gone = truncated.remove(removed);
        let findings = nodb_analyze::lints::unsafe_audit::run(
            &files,
            &truncated,
            &cfg.audit_path.to_string_lossy(),
        );
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("unaudited") && f.message.contains(&gone.hash)),
            "removing the entry for {} ({}) did not fail the unsafe arm",
            gone.file,
            gone.hash
        );
    }
}
