//! Findings and run reports.

use std::fmt;
use std::path::PathBuf;

/// One lint violation (or allowlist-hygiene problem).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint arm that produced this finding (`unsafe`, `lock-order`,
    /// `atomic-ordering`, `panic-path`, `cast`, `knob`, `waiver`,
    /// `policy`).
    pub lint: &'static str,
    /// File the finding is in, relative to the tree root.
    pub file: PathBuf,
    /// 1-based line (0 for whole-file findings).
    pub line: usize,
    /// Human-readable description with the fix/waive instructions.
    pub message: String,
    /// Key a waiver entry must carry to suppress this finding (the
    /// trimmed source line for most arms; `None` for findings that can
    /// never be waived, e.g. unsafe-audit and waiver-hygiene problems).
    pub waiver_key: Option<String>,
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
    /// Unwaived findings — any entry here fails the run.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a justified waiver, kept for `--verbose`.
    pub waived: Vec<(Finding, String)>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree passes (no unwaived findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}
