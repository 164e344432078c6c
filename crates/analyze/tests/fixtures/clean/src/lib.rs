//! Clean fixture: exercises every lint arm's *happy* path — justified
//! unsafe, DAG-ordered locks, commented Relaxed, panic-free hot code,
//! commented narrowing cast, no `NODB_*` env var — and must produce zero
//! findings when every arm is pointed at this file.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub struct Runtime {
    pub posmap: Mutex<u32>,
    pub stats: Mutex<u32>,
    pub counter: AtomicU64,
}

/// Locks acquired in DAG order (posmap before stats), released in scope.
pub fn ordered(rt: &Runtime) -> u32 {
    let p = rt.posmap.lock().unwrap_or_else(|e| e.into_inner());
    let s = rt.stats.lock().unwrap_or_else(|e| e.into_inner());
    *p + *s
}

pub fn counted(rt: &Runtime) {
    // ORDERING: monotonic observability counter; no memory is published
    // through it, so Relaxed is sufficient.
    rt.counter.fetch_add(1, Ordering::Relaxed);
}

/// SAFETY: reads one byte from a slice whose length was just checked.
pub fn first_byte(buf: &[u8]) -> Option<u8> {
    if buf.is_empty() {
        return None;
    }
    // SAFETY: the emptiness check above guarantees index 0 is in bounds.
    Some(unsafe { *buf.get_unchecked(0) })
}

pub fn narrow(x: usize) -> u16 {
    // CAST: callers pass block-local row ordinals < 4096, which fit u16.
    x as u16
}

#[cfg(test)]
mod tests {
    #[test]
    fn hot_path_rules_do_not_apply_here() {
        let v = [1u8];
        assert_eq!(v[0], 1);
        let x: Option<u8> = Some(3);
        assert_eq!(x.unwrap(), 3);
    }
}
