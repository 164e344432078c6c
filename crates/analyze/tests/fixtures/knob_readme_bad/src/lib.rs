//! Clean source: the seeded violation for this fixture is in its README.

pub fn registered() -> Option<String> {
    std::env::var("NODB_FIX").ok()
}
