//! Fixture-corpus tests: every lint arm must catch its seeded
//! violation, the clean tree must pass with zero findings, and the
//! waiver machinery must suppress justified exceptions while flagging
//! stale ones.

use std::path::{Path, PathBuf};

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

#[test]
fn clean_fixture_passes_every_arm() {
    let report = run("clean", |cfg| {
        cfg.hot_files = vec!["src/lib.rs".into()];
        cfg.cast_files = vec!["src/lib.rs".into()];
        cfg.knob_envs = vec!["NODB_FIX".into()];
    });
    assert!(
        report.is_clean(),
        "expected a clean run, got: {:#?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn unsafe_without_safety_comment_or_audit_entry_is_caught() {
    let report = run("unsafe_bad", |_| {});
    let unsafe_findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "unsafe")
        .collect();
    assert_eq!(unsafe_findings.len(), 2, "{:#?}", report.findings);
    assert!(
        unsafe_findings.iter().any(|f| f.message.contains("SAFETY")),
        "missing-SAFETY finding: {unsafe_findings:#?}"
    );
    assert!(
        unsafe_findings
            .iter()
            .any(|f| f.message.contains("unaudited")),
        "unaudited finding: {unsafe_findings:#?}"
    );
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

#[test]
fn hot_path_panics_are_caught() {
    let report = run("panic_bad", |cfg| {
        cfg.hot_files = vec!["src/lib.rs".into()];
    });
    let panics: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "panic-path")
        .collect();
    // unwrap, expect, panic! and the buf[0] literal index; the unwrap
    // inside #[cfg(test)] stays exempt.
    assert_eq!(panics.len(), 4, "{:#?}", report.findings);
}

#[test]
fn unexplained_narrowing_cast_is_caught() {
    let report = run("cast_bad", |cfg| {
        cfg.cast_files = vec!["src/lib.rs".into()];
    });
    assert_eq!(lints_of(&report), vec!["cast"], "{:#?}", report.findings);
    // Only the bare `x as u16`; the widening cast and the CAST:-
    // commented one stay quiet.
    assert_eq!(report.findings[0].line, 5, "{:#?}", report.findings);
}

#[test]
fn unregistered_knob_env_var_is_caught() {
    let report = run("knob_bad", |cfg| {
        cfg.knob_envs = vec!["NODB_FIX".into()];
    });
    assert_eq!(lints_of(&report), vec!["knob"], "{:#?}", report.findings);
    assert!(
        report.findings[0].message.contains("NODB_NOT_REGISTERED"),
        "{:#?}",
        report.findings
    );
}

#[test]
fn waivers_suppress_justified_findings_and_stale_waivers_fire() {
    let report = run("waivers", |cfg| {
        cfg.cast_files = vec!["src/lib.rs".into()];
    });
    assert_eq!(report.waived.len(), 1, "{:#?}", report.waived);
    assert!(
        report.findings.iter().all(|f| f.lint != "cast"),
        "the waived cast finding resurfaced: {:#?}",
        report.findings
    );
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "waiver")
        .collect();
    assert_eq!(stale.len(), 1, "{:#?}", report.findings);
    assert!(stale[0].message.contains("stale"), "{stale:#?}");
}

#[test]
fn stale_policy_path_is_caught() {
    let report = run("clean", |cfg| {
        cfg.hot_files = vec!["src/missing.rs".into()];
        cfg.knob_envs = vec!["NODB_FIX".into()];
    });
    assert_eq!(lints_of(&report), vec!["policy"], "{:#?}", report.findings);
    assert!(
        report.findings[0].message.contains("hot_files"),
        "{:#?}",
        report.findings
    );
}

#[test]
fn lint_filter_restricts_the_run() {
    let cfg = {
        let mut c = Config::for_fixture(&fixture("panic_bad"));
        c.hot_files = vec!["src/lib.rs".into()];
        c
    };
    let only = vec!["cast".to_string()];
    let report = nodb_analyze::run(&cfg, &only).expect("lint run");
    assert!(report.is_clean(), "{:#?}", report.findings);
}
