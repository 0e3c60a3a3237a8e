//! The doorbell word beside a polled ring: how a consumer that is about
//! to stop polling asks its producer for a wake-up, and how the producer
//! finds out — without a syscall, or even a shared-line write, while
//! the consumer is still polling.
//!
//! It is the handshake every polled I/O stack converges on (io_uring's
//! `IORING_SQ_NEED_WAKEUP`, virtio's notification suppression), in two
//! halves that must be called in this order around the ring operations:
//!
//! ```text
//! consumer (going idle)            producer (every message)
//! ---------------------            ------------------------
//! bell.arm()      store 1, fence   ring.push(item)
//! ring.pop()      the re-check     bell.ring_if_armed()   fence, test-and-clear
//! wait for a wake, if still empty  wake the consumer, if it said true
//! bell.disarm()   on waking
//! ```
//!
//! **No lost wake.**  This is the store-buffering (Dekker) pattern: each
//! side writes one word — the bell, the ring's tail — and then reads the
//! other's.  Without the two `SeqCst` fences both reads may return the
//! *old* value (each store still sitting in its core's store buffer), and
//! the consumer would sleep on a non-empty ring that nobody rings for.
//! With them, at least one side sees the other's write: either the
//! re-check finds the item, or `ring_if_armed` finds the bell set.  The
//! wake itself must not be lost between the re-check and the wait: either
//! it is sticky (`Thread::unpark`'s token is — `insane-ipc`'s datapath
//! thread), or the waker first takes a lock the consumer holds from before
//! `arm` until its wait releases it (a Condvar — `insane-core`'s sinks).
//!
//! `tests/loom.rs` checks the interleavings of exactly these methods over
//! the [`Heap`](crate::ring::Heap) ring.  `vendor/loom` does not model
//! weak-memory reorderings, so the fences are argued here, not
//! model-checked.

use crate::sync::{fence, AtomicU32, Ordering};

/// One doorbell word, borrowed from wherever both sides can reach it
/// (for `insane-ipc`, the session's shared segment).  0 = the consumer
/// is polling, 1 = it asked to be woken.
///
/// The word orders nothing by itself — the fences do — and carries no
/// data, so its own accesses are `Relaxed`.
#[derive(Debug, Clone, Copy)]
pub struct Bell<'a>(&'a AtomicU32);

impl<'a> Bell<'a> {
    /// A bell over `word`.
    pub fn new(word: &'a AtomicU32) -> Self {
        Self(word)
    }

    /// Consumer, before its last look at the ring: asks to be woken.
    /// Whatever the re-check that follows does not see, the producer's
    /// [`ring_if_armed`](Self::ring_if_armed) will.
    pub fn arm(&self) {
        self.0.store(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// Consumer, on resuming its polling: no wake-up needed any more.
    pub fn disarm(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// Producer, after its push: whether the consumer must be woken.
    /// Test-and-clear, so of the pushes that follow one [`arm`](Self::arm)
    /// only the first pays for a wake; while the consumer polls this is
    /// one fence and one load of a line nobody is writing.
    #[inline]
    pub fn ring_if_armed(&self) -> bool {
        fence(Ordering::SeqCst);
        self.0.load(Ordering::Relaxed) == 1 && self.0.swap(0, Ordering::Relaxed) == 1
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn only_the_first_push_after_an_arm_rings() {
        let word = AtomicU32::new(0);
        let bell = Bell::new(&word);
        assert!(!bell.ring_if_armed(), "a polling consumer is never rung");
        bell.arm();
        assert!(bell.ring_if_armed());
        assert!(!bell.ring_if_armed(), "test-and-clear");
        bell.arm();
        bell.disarm();
        assert!(!bell.ring_if_armed(), "a consumer that woke by itself");
    }
}
