//! Zero-copy slot pools — the mechanism behind the INSANE memory manager.
//!
//! The paper's runtime (§5.3) reserves *memory pools* at startup, divides
//! them into *slots* uniquely identified by a *slot id*, and lets the client
//! library and the runtime exchange those ids instead of payload bytes.
//! This crate provides that mechanism:
//!
//! * [`SlotPool`] — a contiguous, fixed-slot-size arena with a lock-free
//!   free list and generation-tagged slot handles that catch double-release
//!   and use-after-release at the API boundary.
//! * [`SlotGuard`] — unique, RAII-owned access to a slot's bytes while a
//!   message is being written; [`SlotGuard::into_view`] freezes it into a
//!   shareable, read-only [`SlotView`] of the same checkout.  Inside one
//!   process these handles *are* what travels on the TX/RX queues of the
//!   paper's Figure 4: the id plus the proof of owning it.
//! * [`SlotToken`] — the bare slot id, for the one place a `Drop` cannot
//!   follow: a descriptor ring between processes (`insane-ipc`).  The
//!   receiving side validates it once ([`SlotPool::redeem`] /
//!   [`SlotPool::view`]) and owns by type from there on.
//! * [`PoolSet`] — size-class selection over several pools (small packet
//!   slots vs jumbo-frame slots), which is what the runtime instantiates.
//!
//! The paper maps the pool into each application's address space with
//! shared memory; [`SlotPool::create_in_segment`] /
//! [`SlotPool::attach_segment`] do exactly that, and a heap-backed pool is
//! the same layout in a private segment.
//!
//! # Examples
//!
//! ```
//! use insane_memory::{PoolConfig, SlotPool};
//!
//! let pool = SlotPool::new(PoolConfig::new(0, 2048, 64))?;
//! let mut guard = pool.acquire(11)?;
//! guard.copy_from_slice(b"hello world");
//! let token = guard.into_token();         // across a process: ship the id
//! let view = pool.view(token)?;           // receiver validates it once
//! assert_eq!(&*view, b"hello world");
//! view.release();                          // slot returns to the free list
//!
//! let guard = pool.acquire(2)?;
//! let view = guard.into_view();           // within a process: move the owner
//! assert_eq!(view.len(), 2);
//! # Ok::<(), insane_memory::MemoryError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod pool;
mod pool_set;
mod quota;
mod segment;

pub use pool::{PoolConfig, PoolLayout, PoolStats, SlotGuard, SlotPool, SlotToken, SlotView};
pub use pool_set::{PoolSet, PoolSetBuilder};
pub use quota::{QuotaLedger, TenantId, TenantQuota, TenantUsage, DEFAULT_TENANT};
pub use segment::Segment;

use core::fmt;

/// Identifier of a pool within a [`PoolSet`] (and within [`SlotToken`]s).
pub type PoolId = u16;

/// Errors produced by the slot-pool layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// No free slot is available in any fitting class (back-pressure
    /// condition: the caller should release buffers or retry later).
    /// Carries the occupancy of the class that ran dry so callers can
    /// tell *which* pool is the bottleneck.
    PoolExhausted {
        /// Slot size (bytes) of the exhausted class — the smallest class
        /// that fit the request (0 when unknown).
        slot_size: usize,
        /// Bytes the failing caller asked for.
        requested: usize,
        /// Slots of that class checked out when the acquire failed.
        in_use: usize,
        /// Total slots that class owns.
        slot_count: usize,
    },
    /// The tenant already holds its quota `max`; the lend was refused
    /// without touching the shared pools.  Back-pressure lands on the
    /// tenant that caused it, never on its neighbors.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: TenantId,
        /// Slots the tenant held when the lend was refused.
        held: usize,
        /// The tenant's configured maximum.
        max: usize,
    },
    /// The requested length does not fit in any configured slot size.
    RequestTooLarge {
        /// Bytes the caller asked for.
        requested: usize,
        /// Largest slot size any pool offers.
        max: usize,
    },
    /// The token's generation does not match the slot's current generation:
    /// the token was already released (double release) or retained across a
    /// release (use-after-release).
    StaleToken,
    /// The token names a pool or slot index that does not exist.
    InvalidToken,
    /// A pool with this id already exists in the set.
    DuplicatePool(PoolId),
    /// Invalid construction parameters (zero slots or zero slot size).
    BadConfig(&'static str),
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::PoolExhausted {
                slot_size,
                requested,
                in_use,
                slot_count,
            } => {
                if *slot_count == 0 {
                    write!(f, "no free slot available in the pool")
                } else {
                    write!(
                        f,
                        "no free slot for a {requested}-byte request: \
                         {slot_size}-byte class has {in_use}/{slot_count} slots in use"
                    )
                }
            }
            MemoryError::QuotaExceeded { tenant, held, max } => write!(
                f,
                "tenant {tenant} exceeded its slot quota ({held} held, max {max})"
            ),
            MemoryError::RequestTooLarge { requested, max } => {
                write!(
                    f,
                    "requested {requested} bytes but the largest slot is {max} bytes"
                )
            }
            MemoryError::StaleToken => write!(f, "slot token is stale (released or duplicated)"),
            MemoryError::InvalidToken => write!(f, "slot token does not name a valid slot"),
            MemoryError::DuplicatePool(id) => write!(f, "pool id {id} already registered"),
            MemoryError::BadConfig(why) => write!(f, "invalid pool configuration: {why}"),
        }
    }
}

impl std::error::Error for MemoryError {}
