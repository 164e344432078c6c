//! Clean source: the seeded violation for this fixture is in its README.

pub fn configured(budget: Option<u64>) -> u64 {
    budget.unwrap_or(0)
}
