//! Fixture-corpus tests. Every `nodb-analyze` arm must catch its seeded
//! violation and the clean tree must pass with zero findings. The
//! invariants that moved onto clippy lints are held to the same
//! standard: `cargo clippy -- -D warnings` must fail on each seeded
//! fixture crate with exactly the lint it seeds.

use std::path::{Path, PathBuf};
use std::process::Command;

use nodb_analyze::config::Config;
use nodb_analyze::report::Report;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str, tweak: impl FnOnce(&mut Config)) -> Report {
    let mut cfg = Config::for_fixture(&fixture(name));
    tweak(&mut cfg);
    nodb_analyze::run(&cfg, &[]).expect("lint run")
}

fn lints_of(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.lint).collect()
}

/// Run `cargo clippy -- -D warnings` on the standalone fixture crate
/// `name` and check how often each lint fires. `--tests` compiles the
/// crate's `#[cfg(test)]` code too, so the `allow-*-in-tests` keys of
/// `crates/clippy.toml` (which clippy finds above the fixture) are held
/// as well.
fn assert_clippy_fires(name: &str, want: &[(&str, usize)]) {
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--tests"])
        .args(["--message-format=json", "--manifest-path"])
        .arg(fixture(name).join("Cargo.toml"))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixtures"))
        .args(["--", "-D", "warnings"])
        .output()
        .expect("run cargo clippy");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "clippy passed on the seeded fixture `{name}`:\n{stderr}"
    );
    for &(lint, n) in want {
        let fired = stdout
            .matches(&format!(r#""code":{{"code":"{lint}""#))
            .count();
        assert_eq!(
            fired, n,
            "`{lint}` fired {fired} time(s) on fixture `{name}`, want {n}:\n{stderr}"
        );
    }
}

#[test]
fn clean_fixture_passes_every_arm() {
    let report = run("clean", |_| {});
    assert!(
        report.is_clean(),
        "expected a clean run, got: {:#?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn unsafe_without_safety_comment_or_audit_entry_is_caught() {
    // The ledger half: no entry in the (absent) audit file.
    let report = run("unsafe_bad", |_| {});
    assert_eq!(lints_of(&report), vec!["unsafe"], "{:#?}", report.findings);
    assert!(
        report.findings[0].message.contains("unaudited"),
        "{:#?}",
        report.findings
    );
    // The comment half: no `// SAFETY:` on the block.
    assert_clippy_fires("unsafe_bad", &[("clippy::undocumented_unsafe_blocks", 1)]);
}

#[test]
fn lock_dag_inversion_and_reacquisition_are_caught() {
    let report = run("lock_bad", |_| {});
    let locks: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "lock-order")
        .collect();
    assert_eq!(locks.len(), 2, "{:#?}", report.findings);
    assert!(
        locks
            .iter()
            .any(|f| f.message.contains("posmap") && f.message.contains("stats")),
        "inversion finding: {locks:#?}"
    );
    assert!(
        locks.iter().any(|f| f.message.contains("self-deadlock")),
        "reacquisition finding: {locks:#?}"
    );
}

#[test]
fn unjustified_relaxed_ordering_is_caught() {
    let report = run("atomic_bad", |_| {});
    assert_eq!(
        lints_of(&report),
        vec!["atomic-ordering"],
        "{:#?}",
        report.findings
    );
    // The ORDERING:-commented load two functions down must not fire.
    assert_eq!(report.findings[0].line, 7, "{:#?}", report.findings);
}

/// A computed index, `panic!`, `unwrap` and `expect` fire once each; the
/// `unwrap` and index in the `#[cfg(test)]` module stay exempt.
#[test]
fn hot_path_panics_are_caught() {
    assert_clippy_fires(
        "panic_bad",
        &[
            ("clippy::indexing_slicing", 1),
            ("clippy::panic", 1),
            ("clippy::unwrap_used", 1),
            ("clippy::expect_used", 1),
        ],
    );
}

/// Only the bare `x as u16`; the widening cast and the `#[expect]`ed one
/// stay quiet.
#[test]
fn unexplained_narrowing_cast_is_caught() {
    assert_clippy_fires("cast_bad", &[("clippy::cast_possible_truncation", 1)]);
}

/// No crate reads an environment variable: `NoDbConfig` is the engine's
/// only configuration.
#[test]
fn unregistered_knob_env_var_is_caught() {
    assert_clippy_fires("knob_bad", &[("clippy::disallowed_methods", 1)]);
}

/// An `#[expect]` whose lint no longer fires fails the build, so a stale
/// exception cannot outlive the code it excused; a live one stays quiet.
#[test]
fn stale_expect_is_caught() {
    assert_clippy_fires(
        "stale_expect",
        &[
            ("unfulfilled_lint_expectations", 1),
            ("clippy::indexing_slicing", 0),
        ],
    );
}

#[test]
fn stale_policy_path_is_caught() {
    let report = run("clean", |cfg| {
        cfg.atomic_designated = vec![("src/missing.rs".into(), "moved".into())];
    });
    assert_eq!(lints_of(&report), vec!["policy"], "{:#?}", report.findings);
    assert!(
        report.findings[0].message.contains("atomic_designated"),
        "{:#?}",
        report.findings
    );
}

#[test]
fn lint_filter_restricts_the_run() {
    let cfg = Config::for_fixture(&fixture("atomic_bad"));
    let only = vec!["lock-order".to_string()];
    let report = nodb_analyze::run(&cfg, &only).expect("lint run");
    assert!(report.is_clean(), "{:#?}", report.findings);
}
