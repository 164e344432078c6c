//! Seeded violation for the environment-variable ban: a read of a
//! `NODB_` variable, which `crates/clippy.toml` disallows — one finding.

pub fn rogue() -> Option<String> {
    std::env::var("NODB_NOT_REGISTERED").ok()
}
