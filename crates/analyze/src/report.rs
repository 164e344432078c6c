//! Findings and run reports.

use std::fmt;
use std::path::PathBuf;

/// One lint violation (or ledger/policy-hygiene problem).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint arm that produced this finding (`unsafe`, `lock-order`,
    /// `atomic-ordering`, `policy`).
    pub lint: &'static str,
    /// File the finding is in, relative to the tree root.
    pub file: PathBuf,
    /// 1-based line (0 for whole-file findings).
    pub line: usize,
    /// Human-readable description with the fix instructions.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.lint,
            self.file.display(),
            self.line,
            self.message
        )
    }
}

/// Outcome of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings — any entry here fails the run.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree passes (no findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}
