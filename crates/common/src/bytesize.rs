//! Human-readable byte quantities for budgets and reports.

use std::fmt;

use crate::error::{NoDbError, Result};

/// A byte count with human-friendly parsing/printing (`"64MB"`, `"1.5GB"`).
///
/// Budgets for the positional map and the cache (paper §4.2 "storage
/// threshold", §4.3 "size of the cache is a parameter") are expressed with
/// this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Kibibyte-free decimal constructors (the paper reports MB/GB).
    pub const fn kb(n: u64) -> ByteSize {
        ByteSize(n * 1_000)
    }
    /// Megabytes.
    pub const fn mb(n: u64) -> ByteSize {
        ByteSize(n * 1_000_000)
    }
    /// Gigabytes.
    pub const fn gb(n: u64) -> ByteSize {
        ByteSize(n * 1_000_000_000)
    }

    /// Raw byte count.
    pub fn bytes(self) -> u64 {
        self.0
    }

    /// Parse strings like `"512"`, `"14.3MB"`, `"2.1 GB"`, `"64kb"`.
    pub fn parse(s: &str) -> Result<ByteSize> {
        let s = s.trim();
        let split = s
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(s.len());
        let (num, unit) = s.split_at(split);
        let num: f64 = num
            .parse()
            .map_err(|_| NoDbError::parse(format!("bad byte size `{s}`")))?;
        let mult = match unit.trim().to_ascii_lowercase().as_str() {
            "" | "b" => 1.0,
            "kb" | "k" => 1e3,
            "mb" | "m" => 1e6,
            "gb" | "g" => 1e9,
            "tb" | "t" => 1e12,
            other => {
                return Err(NoDbError::parse(format!("unknown byte unit `{other}`")));
            }
        };
        Ok(ByteSize((num * mult) as u64))
    }

    /// [`parse`](Self::parse) the value `raw` given to the command-line
    /// budget flag `flag` (`--posmap-budget`, `--cache-budget`). A
    /// malformed value is a [`NoDbError::Config`] naming the flag, so
    /// `nodb` and `nodb-server` refuse it before building an engine.
    pub fn parse_flag(flag: &str, raw: &str) -> Result<ByteSize> {
        ByteSize::parse(raw)
            .map_err(|e| NoDbError::config(format!("invalid {flag} value `{raw}`: {e}")))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1e9 {
            write!(f, "{:.2}GB", b / 1e9)
        } else if b >= 1e6 {
            write!(f, "{:.1}MB", b / 1e6)
        } else if b >= 1e3 {
            write!(f, "{:.1}KB", b / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_units() {
        assert_eq!(ByteSize::parse("512").unwrap(), ByteSize(512));
        assert_eq!(ByteSize::parse("14.3MB").unwrap(), ByteSize(14_300_000));
        assert_eq!(ByteSize::parse("2.1 GB").unwrap(), ByteSize(2_100_000_000));
        assert_eq!(ByteSize::parse("64kb").unwrap(), ByteSize(64_000));
    }

    #[test]
    fn rejects_bad_units() {
        assert!(ByteSize::parse("12qb").is_err());
        assert!(ByteSize::parse("abc").is_err());
    }

    #[test]
    fn displays_scaled() {
        assert_eq!(ByteSize::mb(14).to_string(), "14.0MB");
        assert_eq!(ByteSize(999).to_string(), "999B");
        assert_eq!(ByteSize::gb(2).to_string(), "2.00GB");
    }
}
