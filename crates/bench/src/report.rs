//! Result reporting: aligned stdout tables + one CSV per figure.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

/// Collects one figure's series and writes them out.
pub struct Report {
    figure: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    out_dir: PathBuf,
}

impl Report {
    /// Start a report for `figure` (e.g. `"fig5"`).
    pub fn new(figure: &str, title: &str, columns: &[&str], out_dir: &std::path::Path) -> Report {
        Report {
            figure: figure.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            out_dir: out_dir.to_path_buf(),
        }
    }

    /// Add one data row.
    pub fn row(&mut self, values: &[String]) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        self.rows.push(values.to_vec());
    }

    /// Print the table and write `<out_dir>/<figure>.csv`.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        // Column widths.
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for r in &self.rows {
            for (i, v) in r.iter().enumerate() {
                widths[i] = widths[i].max(v.len());
            }
        }
        let mut table = String::new();
        let _ = writeln!(table, "\n== {} — {}", self.figure, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        let _ = writeln!(table, "  {}", header.join("  "));
        for r in &self.rows {
            let line: Vec<String> = r
                .iter()
                .enumerate()
                .map(|(i, v)| format!("{v:>w$}", w = widths[i]))
                .collect();
            let _ = writeln!(table, "  {}", line.join("  "));
        }
        print!("{table}");

        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(format!("{}.csv", self.figure));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.columns.join(","))?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(","))?;
        }
        println!("  -> {}", path.display());
        Ok(path)
    }
}

/// Format seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s >= 10.0 {
        format!("{s:.1}")
    } else if s >= 0.1 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}
