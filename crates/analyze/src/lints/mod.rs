//! The lint arms. Each arm is a pure function from lexed sources (plus
//! policy) to [`Finding`](crate::report::Finding)s; the orchestration in
//! [`crate::run`] decides which files each arm sees.

pub mod atomic_order;
pub mod lock_order;
pub mod unsafe_audit;
