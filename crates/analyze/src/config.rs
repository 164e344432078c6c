//! Lint configuration: which files each lint arm covers, the lock DAG,
//! the designated counter modules, and where the committed unsafe
//! ledger lives.
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
    /// Files whose `Ordering::Relaxed` sites are designated counters and
    /// need no per-site justification, with the designation's reason.
    pub atomic_designated: Vec<(String, String)>,
    /// Path prefixes covered by the lock-order arm.
    pub lock_prefixes: Vec<String>,
    /// Lock acquisition DAG, outermost first: a lock may only be
    /// acquired while holding locks that appear *earlier* in this list.
    pub lock_dag: Vec<String>,
}

impl Config {
    /// The committed policy for the NoDB workspace rooted at `root`.
    pub fn for_workspace(root: &Path) -> Config {
        Config {
            root: root.to_path_buf(),
            subdirs: ["crates", "src", "shims", "tests", "examples"]
                .map(String::from)
                .to_vec(),
            audit_path: PathBuf::from("analyze/unsafe_audit.toml"),
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
            lock_prefixes: vec!["crates/core/src/".into()],
            lock_dag: ["file_len_seen", "posmap", "cache", "stats"]
                .map(String::from)
                .to_vec(),
        }
    }

    /// A bare-bones policy for a fixture tree: no designated files, and
    /// every lint arm pointed at the fixture's own files.
    pub fn for_fixture(root: &Path) -> Config {
        Config {
            root: root.to_path_buf(),
            subdirs: vec!["src".into()],
            audit_path: PathBuf::from("unsafe_audit.toml"),
            atomic_designated: Vec::new(),
            lock_prefixes: vec!["src/".into()],
            lock_dag: ["file_len_seen", "posmap", "cache", "stats"]
                .map(String::from)
                .to_vec(),
        }
    }
}
