//! The error type shared by every NoDB crate.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, NoDbError>;

/// Unified error type for the NoDB engine and its substrates.
///
/// Variants are coarse on purpose: callers mostly need to distinguish user
/// errors (SQL/schema/parse) from environmental ones (I/O), and tests match
/// on the variant plus message fragments.
#[derive(Debug)]
pub enum NoDbError {
    /// Underlying file or device failure.
    Io(std::io::Error),
    /// Malformed raw data encountered while tokenizing/parsing a file
    /// (bad field count, unconvertible value, truncated record...).
    Parse(String),
    /// SQL text could not be lexed or parsed.
    Sql(String),
    /// The query is well-formed but refers to unknown tables/columns or
    /// mixes types illegally.
    Plan(String),
    /// Runtime execution failure (overflow, bad cast, ...).
    Execution(String),
    /// Schema registration or catalog misuse.
    Catalog(String),
    /// Invalid engine configuration (bad knob value, malformed `NODB_*`
    /// environment override).
    Config(String),
    /// Admission control rejected the request: the serving layer is at
    /// its configured in-flight capacity (or connection limit) and the
    /// caller should back off and retry. Deliberately a typed variant —
    /// clients of `nodb-server` distinguish "busy, retry" from real
    /// failures without string matching.
    Busy(String),
    /// An internal invariant was violated; indicates a bug in this library.
    Internal(String),
}

impl NoDbError {
    /// Shorthand constructor for [`NoDbError::Parse`].
    pub fn parse(msg: impl Into<String>) -> Self {
        NoDbError::Parse(msg.into())
    }

    /// Shorthand constructor for [`NoDbError::Sql`].
    pub fn sql(msg: impl Into<String>) -> Self {
        NoDbError::Sql(msg.into())
    }

    /// Shorthand constructor for [`NoDbError::Plan`].
    pub fn plan(msg: impl Into<String>) -> Self {
        NoDbError::Plan(msg.into())
    }

    /// Shorthand constructor for [`NoDbError::Execution`].
    pub fn execution(msg: impl Into<String>) -> Self {
        NoDbError::Execution(msg.into())
    }

    /// Shorthand constructor for [`NoDbError::Catalog`].
    pub fn catalog(msg: impl Into<String>) -> Self {
        NoDbError::Catalog(msg.into())
    }

    /// Shorthand constructor for [`NoDbError::Config`].
    pub fn config(msg: impl Into<String>) -> Self {
        NoDbError::Config(msg.into())
    }

    /// Shorthand constructor for [`NoDbError::Busy`].
    pub fn busy(msg: impl Into<String>) -> Self {
        NoDbError::Busy(msg.into())
    }

    /// Shorthand constructor for [`NoDbError::Internal`].
    pub fn internal(msg: impl Into<String>) -> Self {
        NoDbError::Internal(msg.into())
    }

    /// Prefix a [`NoDbError::Parse`] with raw-file location context —
    /// the file, the (0-based) row when known, and the absolute byte
    /// offset of the record — so every malformed-data diagnostic names
    /// where in which file it happened, regardless of format or scan
    /// path. Other variants pass through unchanged.
    pub fn at_raw_location(
        self,
        path: &std::path::Path,
        row: Option<u64>,
        byte: Option<u64>,
    ) -> NoDbError {
        let NoDbError::Parse(m) = self else {
            return self;
        };
        let mut loc = path.display().to_string();
        if let Some(r) = row {
            loc.push_str(&format!(", row {r}"));
        }
        if let Some(b) = byte {
            loc.push_str(&format!(", byte {b}"));
        }
        NoDbError::Parse(format!("{loc}: {m}"))
    }
}

impl fmt::Display for NoDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoDbError::Io(e) => write!(f, "io error: {e}"),
            NoDbError::Parse(m) => write!(f, "parse error: {m}"),
            NoDbError::Sql(m) => write!(f, "sql error: {m}"),
            NoDbError::Plan(m) => write!(f, "plan error: {m}"),
            NoDbError::Execution(m) => write!(f, "execution error: {m}"),
            NoDbError::Catalog(m) => write!(f, "catalog error: {m}"),
            NoDbError::Config(m) => write!(f, "config error: {m}"),
            NoDbError::Busy(m) => write!(f, "busy: {m}"),
            NoDbError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for NoDbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NoDbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NoDbError {
    fn from(e: std::io::Error) -> Self {
        NoDbError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = NoDbError::sql("unexpected token");
        assert_eq!(e.to_string(), "sql error: unexpected token");
        let e = NoDbError::parse("bad int");
        assert!(e.to_string().starts_with("parse error"));
    }

    #[test]
    fn io_errors_convert_and_expose_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: NoDbError = io.into();
        assert!(matches!(e, NoDbError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn at_raw_location_decorates_parse_errors_only() {
        let p = std::path::Path::new("data/t.jsonl");
        let e = NoDbError::parse("bad int `x`").at_raw_location(p, Some(3), Some(128));
        assert_eq!(
            e.to_string(),
            "parse error: data/t.jsonl, row 3, byte 128: bad int `x`"
        );
        // Byte-only (chunk workers don't know global row ids).
        let e = NoDbError::parse("oops").at_raw_location(p, None, Some(9));
        assert_eq!(e.to_string(), "parse error: data/t.jsonl, byte 9: oops");
        // Non-parse variants pass through untouched.
        let e = NoDbError::internal("bug").at_raw_location(p, Some(1), Some(2));
        assert_eq!(e.to_string(), "internal error: bug");
    }

    #[test]
    fn constructors_map_to_variants() {
        assert!(matches!(NoDbError::plan("x"), NoDbError::Plan(_)));
        assert!(matches!(NoDbError::execution("x"), NoDbError::Execution(_)));
        assert!(matches!(NoDbError::catalog("x"), NoDbError::Catalog(_)));
        assert!(matches!(NoDbError::config("x"), NoDbError::Config(_)));
        assert!(matches!(NoDbError::busy("x"), NoDbError::Busy(_)));
        assert!(matches!(NoDbError::internal("x"), NoDbError::Internal(_)));
    }
}
