//! The scalar lock-free recorder: an event counter.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one; returns the count before this event, so the caller
    /// that needs "is this the N-th one" pays no second counter.
    pub fn incr(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_numbers_its_events() {
        let c = Counter::new();
        assert_eq!(c.incr(), 0);
        assert_eq!(c.incr(), 1);
        assert_eq!(c.get(), 2);
    }
}
