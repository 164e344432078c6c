//! Who measured what on which machine: printed with every result, and
//! compared by `compare` before it compares anything else.

use std::path::Path;

use nodb_core::NoDbConfig;

use crate::json::Json;
use crate::workloads::Env;

/// Remove every `NODB_*` variable from the environment and return their
/// names: the engine reads its defaults from them, and the benchmark
/// measures `NoDbConfig::default()`, not the caller's shell. Called first
/// thing in `main`, before any thread exists.
pub fn clear_nodb_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("NODB_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The first line of `file` that starts with `key`, after its colon.
fn proc_field(file: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(file)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1e3)
}

/// The commit of the enclosing git checkout, read from `.git` without
/// spawning `git`; the driver's checkout is not a repository.
fn git_commit(repo: &Path) -> Option<String> {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => std::fs::read_to_string(repo.join(".git").join(reference))
            .ok()
            .map(|h| h.trim().to_string())
            .or_else(|| {
                // A packed ref: `<hash> <ref>` lines in .git/packed-refs.
                std::fs::read_to_string(repo.join(".git/packed-refs"))
                    .ok()?
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
            }),
    }
}

/// Machine, build and input identity of this run.
pub fn fingerprint(env: &Env, cleared: &[String], repo: &Path) -> Json {
    let text = |v: Option<String>| Json::Str(v.unwrap_or_else(|| "unknown".to_string()));
    let inputs = env.inputs.borrow();
    Json::obj([
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", text(proc_field("/proc/cpuinfo", "model name"))),
        ("ram", text(proc_field("/proc/meminfo", "MemTotal"))),
        (
            "kernel",
            text(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .ok()
                    .map(|s| s.trim().to_string()),
            ),
        ),
        ("rustc", Json::Str(env!("BENCH_RUSTC_VERSION").to_string())),
        ("git_commit", text(git_commit(repo))),
        (
            "io_backend",
            Json::Str(NoDbConfig::default().effective_io_backend().to_string()),
        ),
        (
            "page_cache",
            Json::Str("hot: set-up reads every input once before timing".to_string()),
        ),
        (
            "nodb_env_cleared",
            Json::Arr(cleared.iter().cloned().map(Json::Str).collect()),
        ),
        ("seed", Json::Num(env.seed as f64)),
        ("scale", Json::Num(env.scale)),
        (
            "inputs",
            Json::obj(inputs.iter().map(|(name, file)| {
                (
                    name.clone(),
                    Json::obj([
                        ("bytes", Json::Num(file.bytes as f64)),
                        ("fnv1a", Json::Str(format!("{:016x}", file.fnv1a))),
                    ]),
                )
            })),
        ),
    ])
}

/// The fields two result sets must agree on before their numbers may be
/// compared. The commit is not among them: comparing two commits is the
/// point.
pub const IDENTITY_FIELDS: [&str; 9] = [
    "cores",
    "cpu_model",
    "ram",
    "kernel",
    "rustc",
    "io_backend",
    "seed",
    "scale",
    "inputs",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_peak_rss_and_a_detached_or_symbolic_head() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        let dir = nodb_common::TempDir::new("bench-git").unwrap();
        assert_eq!(git_commit(dir.path()), None);
        std::fs::create_dir_all(dir.path().join(".git/refs/heads")).unwrap();
        std::fs::write(dir.path().join(".git/HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.path().join(".git/refs/heads/main"), "abc123\n").unwrap();
        assert_eq!(git_commit(dir.path()).as_deref(), Some("abc123"));
        std::fs::write(dir.path().join(".git/HEAD"), "def456\n").unwrap();
        assert_eq!(git_commit(dir.path()).as_deref(), Some("def456"));
    }
}
