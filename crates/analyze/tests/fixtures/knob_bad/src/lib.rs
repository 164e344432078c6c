//! Seeded violation for the `knob` arm: an env var with the engine's
//! `NODB_` prefix, which nothing may read.

pub fn rogue() -> Option<String> {
    std::env::var("NODB_NOT_REGISTERED").ok()
}
