//! Lint configuration: which files each lint arm covers, the lock DAG,
//! the designated counter modules, and where the committed allowlists
//! live.
//!
//! The configuration is plain data so the fixture tests can point the
//! same lint engine at a seeded violation corpus; [`Config::for_workspace`]
//! is the committed policy for the real tree.

use std::path::{Path, PathBuf};

/// Full lint policy for one tree.
#[derive(Debug, Clone)]
pub struct Config {
    /// Tree root (workspace root for the real run).
    pub root: PathBuf,
    /// Subdirectories of `root` to scan for `.rs` files.
    pub subdirs: Vec<String>,
    /// Committed unsafe audit file, relative to `root`.
    pub audit_path: PathBuf,
    /// Committed waiver file, relative to `root` (optional: a tree with
    /// no waivers needs no file).
    pub waivers_path: PathBuf,
    /// Hot-path modules (relative paths) where the panic lint forbids
    /// `unwrap`/`expect`/`panic!`/literal-index outside `#[cfg(test)]`.
    pub hot_files: Vec<String>,
    /// Files whose `Ordering::Relaxed` sites are designated counters and
    /// need no per-site justification, with the designation's reason.
    pub atomic_designated: Vec<(String, String)>,
    /// Files covered by the lossy-`as`-cast arm.
    pub cast_files: Vec<String>,
    /// Path prefixes covered by the lock-order arm.
    pub lock_prefixes: Vec<String>,
    /// Lock acquisition DAG, outermost first: a lock may only be
    /// acquired while holding locks that appear *earlier* in this list.
    pub lock_dag: Vec<String>,
    /// The set of valid `NODB_*` environment variables (the live knob
    /// registry for the real tree).
    pub knob_envs: Vec<String>,
    /// `(env, flag)` pairs the README must mention.
    pub knob_docs: Vec<(String, String)>,
    /// README path relative to `root` (checked by the knob arm when the
    /// file exists).
    pub readme: PathBuf,
}

impl Config {
    /// The committed policy for the NoDB workspace rooted at `root`.
    pub fn for_workspace(root: &Path) -> Config {
        let knobs = nodb_common::knob::all();
        Config {
            root: root.to_path_buf(),
            subdirs: ["crates", "src", "tools", "shims", "tests", "examples"]
                .map(String::from)
                .to_vec(),
            audit_path: PathBuf::from("analyze/unsafe_audit.toml"),
            waivers_path: PathBuf::from("analyze/waivers.toml"),
            hot_files: [
                // The in-situ scan pump: a malformed record must surface
                // as a typed, located NoDbError, never panic a server
                // worker.
                "crates/core/src/scan.rs",
                // The per-record tokenizers both formats run per line.
                "crates/csv/src/tokenize.rs",
                "crates/json/src/tokenize.rs",
                // The executor a server worker spends its warm time in:
                // batches, expression evaluation, operators and keys.
                "crates/exec/src/batch.rs",
                "crates/exec/src/eval.rs",
                "crates/exec/src/key.rs",
                "crates/exec/src/ops.rs",
            ]
            .map(String::from)
            .to_vec(),
            atomic_designated: vec![
                (
                    "crates/core/src/runtime.rs".into(),
                    "ScanMetricsAtomic: monotonic work counters, read only by \
                     snapshot() observers; no ordering with other memory"
                        .into(),
                ),
                (
                    "crates/core/src/profile.rs".into(),
                    "PhaseProfileAtomic: cumulative phase timers/byte counters, \
                     same single-location counter shape as ScanMetricsAtomic"
                        .into(),
                ),
                (
                    "crates/server/src/server.rs".into(),
                    "ServerStats: connection/query tallies surfaced over the \
                     stats frame; approximate cross-counter consistency is fine"
                        .into(),
                ),
                (
                    "crates/posmap/src/map.rs".into(),
                    "LRU recency stamps: monotonically increasing hints for \
                     eviction ranking; staleness only costs eviction quality"
                        .into(),
                ),
                (
                    "crates/cache/src/store.rs".into(),
                    "cache recency stamps and hit counters: eviction-ranking \
                     hints and observability tallies, never synchronization"
                        .into(),
                ),
            ],
            cast_files: [
                "crates/server/src/protocol.rs",
                "crates/posmap/src/chunk.rs",
                "crates/posmap/src/eol.rs",
                "crates/posmap/src/map.rs",
            ]
            .map(String::from)
            .to_vec(),
            lock_prefixes: vec!["crates/core/src/".into()],
            lock_dag: ["file_len_seen", "posmap", "cache", "stats"]
                .map(String::from)
                .to_vec(),
            knob_envs: knobs.iter().map(|k| k.env.to_string()).collect(),
            knob_docs: knobs
                .iter()
                .map(|k| (k.env.to_string(), k.flag.to_string()))
                .collect(),
            readme: PathBuf::from("README.md"),
        }
    }

    /// A bare-bones policy for a fixture tree: no designated files, no
    /// README check, a caller-supplied knob registry, and every lint arm
    /// pointed at the fixture's own files.
    pub fn for_fixture(root: &Path) -> Config {
        Config {
            root: root.to_path_buf(),
            subdirs: vec!["src".into()],
            audit_path: PathBuf::from("unsafe_audit.toml"),
            waivers_path: PathBuf::from("waivers.toml"),
            hot_files: Vec::new(),
            atomic_designated: Vec::new(),
            cast_files: Vec::new(),
            lock_prefixes: vec!["src/".into()],
            lock_dag: ["file_len_seen", "posmap", "cache", "stats"]
                .map(String::from)
                .to_vec(),
            knob_envs: Vec::new(),
            knob_docs: Vec::new(),
            readme: PathBuf::from("README.md"),
        }
    }
}
