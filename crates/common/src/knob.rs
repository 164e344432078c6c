//! Unified engine-knob registry.
//!
//! Every tunable that used to exist as an ad-hoc env-var / CLI-flag /
//! config-field triplet (`NODB_POSMAP_BUDGET` + `--posmap-budget` +
//! `NoDbConfig::posmap_budget`, ...) is declared **once** here as a
//! [`Knob`]: its canonical name, environment variable, CLI flag, value
//! hint, help text and parser live in a single static. Binaries generate
//! their flag tables and `--help` sections from [`all`], engine
//! construction validates every environment override through
//! [`validate_env`], and a typo in either surface fails loudly with the
//! same message — there is no second copy of a parser to drift.
//!
//! The registry owns *parsing and validation*; which config field a knob
//! sets stays with the config type (`NoDbConfig::set_knob` in
//! `nodb-core`), since this crate sits below it.

use crate::bytesize::ByteSize;
use crate::error::{NoDbError, Result};

/// Flag/env/help metadata for one knob — the erased view binaries use to
/// generate argument tables and usage text.
#[derive(Debug, Clone, Copy)]
pub struct KnobInfo {
    /// Canonical kebab-case name (`posmap-budget`); also the CLI flag minus
    /// the leading dashes and the `NODB_…` env var with `-` → `_`.
    pub name: &'static str,
    /// Environment variable (`NODB_POSMAP_BUDGET`).
    pub env: &'static str,
    /// CLI flag (`--posmap-budget`).
    pub flag: &'static str,
    /// Value placeholder for usage text (`SIZE`).
    pub value_hint: &'static str,
    /// One-line help text.
    pub help: &'static str,
}

/// One typed engine knob: metadata plus the single parse/validate
/// routine both the env var and the CLI flag go through.
pub struct Knob<T: 'static> {
    /// Flag/env/help metadata.
    pub info: KnobInfo,
    parse: fn(&str) -> Result<T>,
}

impl<T> Knob<T> {
    /// Parse a raw value, decorating errors with the knob's identity and
    /// expected shape so a typo'd `--posmap-budget x` and a typo'd
    /// `NODB_POSMAP_BUDGET=x` fail with the same, self-explaining message.
    pub fn parse(&self, raw: &str) -> Result<T> {
        (self.parse)(raw.trim()).map_err(|e| {
            NoDbError::config(format!(
                "invalid {} value `{}` (expected {}): {e}",
                self.info.name,
                raw.trim(),
                self.info.value_hint
            ))
        })
    }

    /// The value requested by the knob's environment variable, or `None`
    /// when unset/empty. Malformed or non-UTF-8 values are errors — a
    /// typo in a CI matrix must never silently fall back to a default.
    pub fn from_env(&self) -> Result<Option<T>> {
        match std::env::var(self.info.env) {
            Ok(s) if s.trim().is_empty() => Ok(None),
            Ok(s) => (self.parse)(s.trim()).map(Some).map_err(|e| {
                NoDbError::config(format!(
                    "invalid {} value `{}` (expected {}): {e}",
                    self.info.env,
                    s.trim(),
                    self.info.value_hint
                ))
            }),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(_)) => Err(NoDbError::config(format!(
                "{} is set but not valid UTF-8",
                self.info.env
            ))),
        }
    }

    /// Infallible environment read for configuration *defaults* (which
    /// must stay panic-free): a malformed value yields `None` here and
    /// the loud failure happens at engine construction via
    /// [`validate_env`].
    pub fn env_default(&self) -> Option<T> {
        self.from_env().ok().flatten()
    }
}

/// Positional-map byte budget (`NoDbConfig::posmap_budget`).
pub static POSMAP_BUDGET: Knob<ByteSize> = Knob {
    info: KnobInfo {
        name: "posmap-budget",
        env: "NODB_POSMAP_BUDGET",
        flag: "--posmap-budget",
        value_hint: "SIZE",
        help: "positional-map memory cap per table, e.g. 64MB (default unbounded)",
    },
    parse: ByteSize::parse,
};

/// Binary-cache byte budget (`NoDbConfig::cache_budget`).
pub static CACHE_BUDGET: Knob<ByteSize> = Knob {
    info: KnobInfo {
        name: "cache-budget",
        env: "NODB_CACHE_BUDGET",
        flag: "--cache-budget",
        value_hint: "SIZE",
        help: "parsed-value cache cap per table, e.g. 256MB (default unbounded)",
    },
    parse: ByteSize::parse,
};

/// Every registered knob's metadata, in display order — binaries build
/// their flag tables and usage text from this.
pub fn all() -> [&'static KnobInfo; 2] {
    [&POSMAP_BUDGET.info, &CACHE_BUDGET.info]
}

/// Look a CLI flag up in the registry.
pub fn find_flag(flag: &str) -> Option<&'static KnobInfo> {
    all().into_iter().find(|k| k.flag == flag)
}

/// Validate every knob's environment variable, failing on the first
/// malformed one. Engine construction calls this so a typo'd override is
/// rejected before any query can run under the wrong setting.
pub fn validate_env() -> Result<()> {
    POSMAP_BUDGET.from_env()?;
    CACHE_BUDGET.from_env()?;
    Ok(())
}

/// A loud error for an unrecognized CLI flag, suggesting the nearest
/// registered knob when the typo is close enough to be unambiguous.
pub fn unknown_flag_error(flag: &str) -> NoDbError {
    let suggestion = all()
        .into_iter()
        .map(|k| (k.flag, edit_distance(flag, k.flag)))
        .min_by_key(|&(_, d)| d)
        .filter(|&(_, d)| d <= 3)
        .map(|(f, _)| format!(" (did you mean {f}?)"))
        .unwrap_or_default();
    NoDbError::config(format!("unknown argument `{flag}`{suggestion}"))
}

/// Plain Levenshtein distance — tiny inputs, clarity over cleverness.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_knob_is_consistent() {
        for k in all() {
            assert_eq!(k.flag, format!("--{}", k.name), "{}", k.name);
            assert_eq!(
                k.env,
                format!("NODB_{}", k.name.to_ascii_uppercase().replace('-', "_")),
                "{}",
                k.name
            );
            assert!(!k.help.is_empty());
        }
    }

    #[test]
    fn parse_decorates_errors_with_knob_identity() {
        let err = POSMAP_BUDGET.parse("twelve").unwrap_err().to_string();
        assert!(err.contains("posmap-budget"), "{err}");
        assert!(err.contains("twelve"), "{err}");
        assert_eq!(POSMAP_BUDGET.parse(" 12 ").unwrap(), ByteSize(12));
    }

    #[test]
    fn find_flag_and_suggestions() {
        assert_eq!(find_flag("--posmap-budget").unwrap().name, "posmap-budget");
        assert!(find_flag("--posmap-budge").is_none());
        let err = unknown_flag_error("--posmap-budge").to_string();
        assert!(err.contains("did you mean --posmap-budget?"), "{err}");
        let err = unknown_flag_error("--frobnicate").to_string();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn env_round_trip_is_loud_on_typos() {
        // Use a knob whose env var the test suite never sets globally.
        std::env::set_var("NODB_POSMAP_BUDGET", "3kb");
        assert_eq!(POSMAP_BUDGET.from_env().unwrap(), Some(ByteSize::kb(3)));
        std::env::set_var("NODB_POSMAP_BUDGET", "three");
        assert!(POSMAP_BUDGET.from_env().is_err());
        assert_eq!(POSMAP_BUDGET.env_default(), None);
        std::env::remove_var("NODB_POSMAP_BUDGET");
        assert_eq!(POSMAP_BUDGET.from_env().unwrap(), None);
    }
}
