//! Bounded lock-free queues for the INSANE middleware.
//!
//! The INSANE runtime and the client library live on different threads and
//! exchange *tokens* (slot ids) rather than payload bytes, following the
//! zero-copy design of the paper (§5.3).  The queues in this crate implement
//! that exchange without locks on the critical path:
//!
//! * [`ring`] — one bounded single-producer/single-consumer Lamport ring
//!   (DPDK-ring style), generic over where its cells live.  Over a
//!   shared-memory region ([`ShmProducer`]/[`ShmConsumer`]) it is the
//!   client↔daemon descriptor ring of `insane-ipc`; over heap cells
//!   ([`channel`]) it is the storage the loom suite instruments.
//! * [`mpmc`] — a bounded multi-producer/multi-consumer array queue (Vyukov
//!   sequence-number design).  Every TX and sink token queue inside
//!   `insane-core` is one of these: several application threads feed a
//!   runtime polling thread.
//! * [`free_stack`] — a lock-free Treiber list over `u32` indices with an
//!   ABA tag: [`FreeList`] runs over borrowed words (the slot pool's
//!   in-segment free list), [`FreeStack`] owns its words.
//! * [`snapshot`] — a published-snapshot cell (atomic `Arc` pointer swap)
//!   for read-mostly control state: writers publish a complete new value,
//!   hot-path readers pay one atomic load per poll iteration.
//! * [`bell`] — the doorbell word beside a polled ring: a consumer about
//!   to stop polling arms it, and the producer's next push finds out that
//!   it must wake it ([`Bell`]).
//!
//! All queues are fixed-capacity: the middleware never allocates on the data
//! path after startup.
//!
//! Every atomic and interior-mutability cell goes through the [`sync`]
//! shim, which resolves to [`loom`](https://docs.rs/loom) instrumented
//! types under `RUSTFLAGS="--cfg loom"` and to the real `core`/`std`
//! primitives otherwise — except the two index words of a
//! [`ring::Region`], which live in a shared mapping and are plain `core`
//! atomics in every build.  The loom model-checking suite lives in
//! `tests/loom.rs`; see DESIGN.md §7 for which storage each model runs
//! which algorithm over.
//!
//! # Examples
//!
//! ```
//! let (tx, rx) = insane_queues::channel::<u64>(8);
//! tx.push(7).unwrap();
//! assert_eq!(rx.pop(), Some(7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bell;
pub mod free_stack;
pub mod mpmc;
pub mod ring;
pub mod snapshot;
#[doc(hidden)]
pub mod sync;

pub use bell::Bell;
pub use free_stack::{FreeList, FreeStack};
pub use mpmc::MpmcQueue;
pub use ring::{channel, ring_bytes, Descriptor, Receiver, Sender, ShmConsumer, ShmProducer};
pub use snapshot::SnapshotCell;

/// Pads and aligns a value to a cache line (64 bytes on the targets we care
/// about) so that hot atomics owned by different threads do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a cache-line-aligned cell.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Returns the wrapped value, consuming the padding wrapper.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> core::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> core::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_cache_line_aligned() {
        assert!(core::mem::align_of::<CachePadded<u8>>() >= 64);
    }

    #[test]
    fn cache_padded_derefs_to_inner() {
        let mut padded = CachePadded::new(41u32);
        *padded += 1;
        assert_eq!(*padded, 42);
        assert_eq!(padded.into_inner(), 42);
    }
}
