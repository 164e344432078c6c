//! CLI for the workspace invariant linter. See the crate docs and the
//! README's "Static analysis" section.
//!
//! ```text
//! cargo run -p nodb-analyze                 # lint the workspace
//! cargo run -p nodb-analyze -- --lint unsafe  # one arm only
//! cargo run -p nodb-analyze -- --print-unsafe-entries
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use nodb_analyze::config::Config;
use nodb_analyze::LINT_NAMES;

fn usage() -> String {
    format!(
        "usage: nodb-analyze [--root PATH] [--lint NAME]... \
         [--print-unsafe-entries] [--list]\n       lints: {}",
        LINT_NAMES.join(", ")
    )
}

/// Walk upward from `start` to the directory containing the workspace
/// `Cargo.toml` (identified by its `[workspace]` table).
fn find_workspace_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut print_templates = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--lint" => match args.next() {
                Some(name) if LINT_NAMES.contains(&name.as_str()) => only.push(name),
                Some(name) => {
                    eprintln!("unknown lint `{name}`\n{}", usage());
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--lint needs a name\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--print-unsafe-entries" => print_templates = true,
            "--list" => {
                println!("{}", LINT_NAMES.join("\n"));
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(find_workspace_root)) {
        Some(r) => r,
        None => {
            eprintln!(
                "could not locate the workspace root (run from inside the repo or pass --root)"
            );
            return ExitCode::from(2);
        }
    };
    let cfg = Config::for_workspace(&root);

    if print_templates {
        return match nodb_analyze::unsafe_entry_templates(&cfg) {
            Ok(t) if t.is_empty() => {
                println!("# every unsafe site is already audited");
                ExitCode::SUCCESS
            }
            Ok(t) => {
                print!("{t}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("nodb-analyze: {e}");
                ExitCode::from(2)
            }
        };
    }

    match nodb_analyze::run(&cfg, &only) {
        Ok(report) => {
            for f in &report.findings {
                println!("{f}");
            }
            println!(
                "nodb-analyze: {} file(s), {} finding(s)",
                report.files_scanned,
                report.findings.len()
            );
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("nodb-analyze: {e}");
            ExitCode::from(2)
        }
    }
}
