//! The slot pool: a fixed-size arena with generation-tagged slot handles.
//!
//! Concurrency protocol: each slot owns one packed state word (high 32
//! bits generation, low 32 bits reference count).  Every ownership
//! transition — lend (`acquire`), share (`clone_ref`), return
//! (`release`/drop) — is a single CAS on that word, so misuse such as two
//! threads racing to release the same token resolves to exactly one
//! winner; the loser gets a typed [`MemoryError`], never a corrupted
//! refcount.
//!
//! # Storage model
//!
//! The pool's *entire* state — config header, usage counters, free
//! list, state words, length words, and the slot bytes themselves —
//! lives inside one [`Segment`] and is addressed
//! strictly by base-relative offsets (`PoolLayout`).  That is what lets
//! the exact same bytes be mapped at different virtual addresses by
//! different processes: the runtime daemon creates a pool in a
//! memfd-backed segment ([`SlotPool::create_in_segment`]) and each
//! client attaches to the received mapping
//! ([`SlotPool::attach_segment`]); the packed generation+refcount CAS
//! protocol then *is* the cross-process ownership story, and
//! [`SlotPool::force_reclaim`] is how the daemon retires a crashed
//! client's outstanding checkouts.
//!
//! The free list is [`insane_queues::FreeList`] run over the header's
//! head and length words and the `next` array — the same Treiber loop
//! as the boxed `FreeStack`, not a copy of it.
//!
//! There is one `Store` in every build.  The loom suite
//! (`tests/loom.rs`, DESIGN.md §7) model checks this file as it ships —
//! segment layout, create/attach, force-reclaim included — because the
//! fork to instrumented atomics happens below it, in [`Segment`].

use core::fmt;

use insane_queues::sync::{Arc, AtomicU64, Ordering};
use insane_queues::FreeList;

use crate::quota::QuotaLedger;
use crate::segment::{align_up, Segment};
use crate::{MemoryError, PoolId, TenantId};

/// Construction parameters for a [`SlotPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Identifier embedded in every token minted by this pool.
    pub pool_id: PoolId,
    /// Size of each slot in bytes (the largest message the pool can carry).
    pub slot_size: usize,
    /// Number of slots reserved at startup.
    pub slot_count: usize,
}

impl PoolConfig {
    /// Convenience constructor.
    pub fn new(pool_id: PoolId, slot_size: usize, slot_count: usize) -> Self {
        Self {
            pool_id,
            slot_size,
            slot_count,
        }
    }

    fn validate(&self) -> Result<(), MemoryError> {
        if self.slot_size == 0 {
            return Err(MemoryError::BadConfig("slot_size must be non-zero"));
        }
        if self.slot_count == 0 {
            return Err(MemoryError::BadConfig("slot_count must be non-zero"));
        }
        if self.slot_count as u64 >= u32::MAX as u64 {
            return Err(MemoryError::BadConfig("slot_count exceeds u32 indexing"));
        }
        Ok(())
    }
}

/// Counters describing pool usage; useful for back-pressure diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Slots currently lent out.
    pub in_use: usize,
    /// Highest simultaneous `in_use` observed.
    pub high_water: usize,
    /// `acquire` calls rejected because the pool was empty.
    pub exhaustions: u64,
    /// Total successful acquires since startup.
    pub acquires: u64,
    /// Token operations rejected as stale or invalid (double release,
    /// use-after-release, cross-pool tokens).  A non-zero value means some
    /// component violated the linear-ownership discipline and was caught.
    pub misuse_rejections: u64,
}

/// The transferable slot id: what crosses a *process* boundary on a
/// descriptor ring instead of payload bytes (paper Fig. 4).  Inside one
/// process the owning handle itself ([`SlotGuard`], then [`SlotView`])
/// crosses the queue; a token exists only where a `Drop` cannot follow.
///
/// A token is `Copy` and has no `Drop`, but the protocol treats it
/// linearly: exactly one component owns it at a time.  The generation tag
/// lets the pool reject stale copies at the first misuse.  Tokens carry
/// only offsets and tags — never addresses — so they stay valid across
/// processes that map the pool's segment at different base addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotToken {
    pool: PoolId,
    index: u32,
    generation: u32,
    len: u32,
}

impl SlotToken {
    /// Pool that minted this token.
    pub fn pool_id(&self) -> PoolId {
        self.pool
    }

    /// Slot index within the pool.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Generation tag the token was minted on.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Message length stored in the slot, in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the message length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reassembles a token from its wire encoding (see
    /// [`SlotToken::to_wire`]).  The pool still validates generation and
    /// bounds on first use, so a corrupted wire word yields a typed
    /// error, never an invalid access.
    pub fn from_wire(pool: PoolId, word0: u64, word1: u64) -> Self {
        Self {
            pool,
            index: word0 as u32,
            generation: (word0 >> 32) as u32,
            len: word1 as u32,
        }
    }

    /// Encodes the position-independent part of the token as two words
    /// for descriptor rings: `word0 = generation << 32 | index`, and the
    /// low half of `word1` is the length (the high half is left for the
    /// transport's own use, e.g. a stream id).
    pub fn to_wire(&self) -> (u64, u64) {
        (
            ((self.generation as u64) << 32) | self.index as u64,
            self.len as u64,
        )
    }
}

/// Packs a generation tag and a reference count into one state word.
const fn pack_state(generation: u32, refs: u32) -> u64 {
    ((generation as u64) << 32) | refs as u64
}

/// Splits a state word into `(generation, refs)`.
const fn unpack_state(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

// ---------------------------------------------------------------------------
// Segment layout
// ---------------------------------------------------------------------------

/// Offsets of a pool laid out inside a segment.  Everything is derived
/// from `(slot_size, slot_count)`, so two processes that agree on the
/// config agree on the layout; the header repeats the config so an
/// attaching process can also recover it from the bytes alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolLayout {
    /// Free-list `next` array offset (`slot_count` × u32).
    pub free_next_off: usize,
    /// Packed state-word array offset (`slot_count` × u64).
    pub states_off: usize,
    /// Message-length array offset (`slot_count` × u32).
    pub lens_off: usize,
    /// Slot byte area offset (`slot_count` × `slot_size`).
    pub bytes_off: usize,
    /// Total bytes the pool needs, 64-byte aligned.
    pub total: usize,
}

mod hdr {
    //! Header word offsets (all `AtomicU64`).  The header occupies the
    //! first two cache lines; the free-list head gets its own line so
    //! acquire/release traffic does not false-share with the counters.

    pub const MAGIC: usize = 0;
    pub const VERSION: usize = 8;
    pub const POOL_ID: usize = 16;
    pub const SLOT_SIZE: usize = 24;
    pub const SLOT_COUNT: usize = 32;
    pub const READY: usize = 40;
    pub const IN_USE: usize = 48;
    pub const HIGH_WATER: usize = 56;
    pub const EXHAUSTIONS: usize = 64;
    pub const ACQUIRES: usize = 72;
    pub const MISUSE: usize = 80;
    pub const FREE_LEN: usize = 88;
    /// ABA-tagged free-list head, alone on its cache line.
    pub const FREE_HEAD: usize = 128;
    /// First byte past the fixed header region.
    pub const END: usize = 192;

    /// `b"INSANEPL"` as a little-endian word.
    pub const MAGIC_WORD: u64 = u64::from_le_bytes(*b"INSANEPL");
    /// Bumped whenever the layout or the state-word protocol changes.
    pub const VERSION_WORD: u64 = 1;
}

impl PoolLayout {
    /// Computes the layout for a pool configuration.
    ///
    /// # Errors
    ///
    /// [`MemoryError::BadConfig`] on zero sizes or arithmetic overflow.
    pub fn for_config(config: &PoolConfig) -> Result<Self, MemoryError> {
        config.validate()?;
        let overflow = MemoryError::BadConfig("pool layout overflows usize");
        let n = config.slot_count;
        let free_next_off = hdr::END;
        let states_off = align_up(
            free_next_off
                .checked_add(n.checked_mul(4).ok_or(overflow)?)
                .ok_or(overflow)?,
            64,
        );
        let lens_off = align_up(
            states_off
                .checked_add(n.checked_mul(8).ok_or(overflow)?)
                .ok_or(overflow)?,
            64,
        );
        let bytes_off = align_up(
            lens_off
                .checked_add(n.checked_mul(4).ok_or(overflow)?)
                .ok_or(overflow)?,
            64,
        );
        let total = align_up(
            bytes_off
                .checked_add(n.checked_mul(config.slot_size).ok_or(overflow)?)
                .ok_or(overflow)?,
            64,
        );
        Ok(Self {
            free_next_off,
            states_off,
            lens_off,
            bytes_off,
            total,
        })
    }
}

/// Storage backend of a pool: everything addressed by offset into the
/// segment.  All methods take indices already validated against
/// `slot_count` (the public API bounds-checks before calling in).
struct Store {
    segment: Segment,
    layout: PoolLayout,
    slot_size: usize,
    slot_count: usize,
}

impl Store {
    fn state(&self, index: u32) -> &AtomicU64 {
        self.segment
            .atomic_u64(self.layout.states_off + index as usize * 8)
    }

    fn set_len_word(&self, index: u32, len: usize) {
        let lens = self
            .segment
            .atomic_u32s(self.layout.lens_off, self.slot_count);
        if let Some(word) = lens.get(index as usize) {
            word.store(len as u32, Ordering::Relaxed);
        }
    }

    fn slot_ptr(&self, index: u32) -> *mut u8 {
        let offset = self.layout.bytes_off + index as usize * self.slot_size;
        debug_assert!(offset + self.slot_size <= self.segment.len());
        // SAFETY: `offset` is in bounds for the segment (`index` was
        // bounds-checked when the guard/view was created and the layout
        // is fixed).  The pointer is derived from the segment base on
        // every call — never cached — so it is correct for *this*
        // process's mapping of the shared bytes, and its provenance
        // spans the whole backing allocation.
        unsafe { self.segment.base_ptr().add(offset) }
    }

    /// The free list, over words any attached process can reach.
    fn free(&self) -> FreeList<'_> {
        FreeList::new(
            self.segment.atomic_u64(hdr::FREE_HEAD),
            self.segment
                .atomic_u32s(self.layout.free_next_off, self.slot_count),
            self.segment.atomic_u64(hdr::FREE_LEN),
        )
    }

    fn counter(&self, off: usize) -> &AtomicU64 {
        self.segment.atomic_u64(off)
    }

    fn in_use_sub(&self) {
        self.counter(hdr::IN_USE).fetch_sub(1, Ordering::Relaxed);
    }

    fn bump(&self, off: usize) {
        self.counter(off).fetch_add(1, Ordering::Relaxed);
    }

    fn load(&self, off: usize) -> u64 {
        self.counter(off).load(Ordering::Relaxed)
    }
}

struct PoolInner {
    config: PoolConfig,
    store: Store,
    /// Tenant-quota hook: `(ledger, flat-index base of this pool)`.
    /// Present only when the owning `PoolSet` registered tenants; the
    /// release path credits the ledger here because `SlotGuard`/
    /// `SlotView` drops release directly into the pool, bypassing the
    /// set.  `None` costs one branch per release.  Ledgers are
    /// process-local (heap) state: segment-attached pools never carry
    /// one.
    ledger: Option<(Arc<QuotaLedger>, usize)>,
}

// SAFETY: slot bytes are only reachable through a `SlotGuard`/`SlotView`
// whose unique ownership is enforced by the state-word (generation +
// refcount) and free-list discipline; transfer between threads happens
// through queues that provide the necessary ordering.
unsafe impl Send for PoolInner {}
// SAFETY: as above — shared references only expose slot bytes behind the
// state-word checkout protocol.
unsafe impl Sync for PoolInner {}

/// A fixed-size pool of equally-sized, zero-copy message slots.
///
/// Cloning a `SlotPool` clones a handle to the same shared arena — the
/// in-process analogue of an application mapping the runtime's shared
/// memory into its own address space (paper §5.3).  The cross-process
/// version is real: [`SlotPool::create_in_segment`] lays the pool out in
/// a shared segment and [`SlotPool::attach_segment`] joins it from
/// another mapping of the same bytes.
#[derive(Clone)]
pub struct SlotPool {
    inner: Arc<PoolInner>,
}

impl fmt::Debug for SlotPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotPool")
            .field("pool_id", &self.inner.config.pool_id)
            .field("slot_size", &self.inner.config.slot_size)
            .field("slot_count", &self.inner.config.slot_count)
            .field("stats", &self.stats())
            .finish()
    }
}

impl SlotPool {
    /// Reserves a process-private backing area and initializes the free
    /// list.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::BadConfig`] if `slot_size` or `slot_count` is
    /// zero.
    pub fn new(config: PoolConfig) -> Result<Self, MemoryError> {
        Self::with_ledger(config, None)
    }

    /// As [`SlotPool::new`], wiring the pool's releases into a tenant
    /// [`QuotaLedger`] (`base` is this pool's flat-index offset within
    /// the ledger's charge table).
    pub(crate) fn with_ledger(
        config: PoolConfig,
        ledger: Option<(Arc<QuotaLedger>, usize)>,
    ) -> Result<Self, MemoryError> {
        let layout = PoolLayout::for_config(&config)?;
        let segment = Segment::heap(layout.total);
        Self::init_in_segment(config, segment, ledger)
    }

    /// Bytes a segment must provide to host a pool with `config`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::BadConfig`] on invalid configs.
    pub fn required_segment_len(config: &PoolConfig) -> Result<usize, MemoryError> {
        Ok(PoolLayout::for_config(config)?.total)
    }

    /// Lays a fresh pool out in `segment` (offset 0) and initializes
    /// every structure: header, counters, free list, state words.  The
    /// creating process becomes the first attached process; others join
    /// with [`SlotPool::attach_segment`] once the segment is shared.
    ///
    /// # Errors
    ///
    /// [`MemoryError::BadConfig`] if the config is invalid or the
    /// segment is too small.
    pub fn create_in_segment(config: PoolConfig, segment: Segment) -> Result<Self, MemoryError> {
        Self::init_in_segment(config, segment, None)
    }

    fn init_in_segment(
        config: PoolConfig,
        segment: Segment,
        ledger: Option<(Arc<QuotaLedger>, usize)>,
    ) -> Result<Self, MemoryError> {
        let layout = PoolLayout::for_config(&config)?;
        if segment.len() < layout.total {
            return Err(MemoryError::BadConfig("segment too small for pool layout"));
        }
        // A recycled segment may hold stale bytes; clear the control
        // regions before building the free list (slot bytes need no
        // clearing — they are always written before they are read).
        segment.zero(0, layout.bytes_off.min(segment.len()));
        let store = Store {
            segment,
            layout,
            slot_size: config.slot_size,
            slot_count: config.slot_count,
        };
        store.free().fill();
        let seg = &store.segment;
        seg.atomic_u64(hdr::VERSION)
            .store(hdr::VERSION_WORD, Ordering::Relaxed);
        seg.atomic_u64(hdr::POOL_ID)
            .store(config.pool_id as u64, Ordering::Relaxed);
        seg.atomic_u64(hdr::SLOT_SIZE)
            .store(config.slot_size as u64, Ordering::Relaxed);
        seg.atomic_u64(hdr::SLOT_COUNT)
            .store(config.slot_count as u64, Ordering::Relaxed);
        seg.atomic_u64(hdr::MAGIC)
            .store(hdr::MAGIC_WORD, Ordering::Relaxed);
        // The ready flag is the publication point: an attaching process
        // acquire-loads it and must then observe the fully built free
        // list and header.
        seg.atomic_u64(hdr::READY).store(1, Ordering::Release);
        Ok(Self {
            inner: Arc::new(PoolInner {
                config,
                store,
                ledger,
            }),
        })
    }

    /// Attaches to a pool another process (or another mapping) already
    /// created in `segment` with [`SlotPool::create_in_segment`].  The
    /// header is validated — magic, protocol version, ready flag, and
    /// that the recovered layout fits the segment — before any slot
    /// state is trusted.
    ///
    /// # Errors
    ///
    /// [`MemoryError::BadConfig`] if the segment does not hold a ready,
    /// version-compatible pool of a size the segment can contain.
    pub fn attach_segment(segment: Segment) -> Result<Self, MemoryError> {
        if segment.len() < hdr::END {
            return Err(MemoryError::BadConfig("segment smaller than pool header"));
        }
        if segment.atomic_u64(hdr::MAGIC).load(Ordering::Relaxed) != hdr::MAGIC_WORD {
            return Err(MemoryError::BadConfig("segment holds no pool (bad magic)"));
        }
        if segment.atomic_u64(hdr::READY).load(Ordering::Acquire) != 1 {
            return Err(MemoryError::BadConfig("pool segment not initialized"));
        }
        if segment.atomic_u64(hdr::VERSION).load(Ordering::Relaxed) != hdr::VERSION_WORD {
            return Err(MemoryError::BadConfig("pool layout version mismatch"));
        }
        let config = PoolConfig {
            pool_id: segment.atomic_u64(hdr::POOL_ID).load(Ordering::Relaxed) as PoolId,
            slot_size: segment.atomic_u64(hdr::SLOT_SIZE).load(Ordering::Relaxed) as usize,
            slot_count: segment.atomic_u64(hdr::SLOT_COUNT).load(Ordering::Relaxed) as usize,
        };
        let layout = PoolLayout::for_config(&config)?;
        if segment.len() < layout.total {
            return Err(MemoryError::BadConfig(
                "segment too small for the pool it claims to hold",
            ));
        }
        Ok(Self {
            inner: Arc::new(PoolInner {
                config,
                store: Store {
                    segment,
                    layout,
                    slot_size: config.slot_size,
                    slot_count: config.slot_count,
                },
                ledger: None,
            }),
        })
    }

    /// The segment this pool lives in (for address-range assertions in
    /// zero-copy tests and the IPC layer).
    pub fn segment(&self) -> &Segment {
        &self.inner.store.segment
    }

    /// Force-reclaims every outstanding checkout: for each slot with a
    /// live refcount the generation is bumped and the count zeroed in
    /// one CAS, staling every token copy in flight, and the slot
    /// returns to the free list.  Returns how many slots were
    /// reclaimed.
    ///
    /// This is the daemon's crash-recovery path: when a client process
    /// dies (`kill -9`) its guards and views never drop, so the daemon
    /// walks the state words and retires the dead process's checkouts.
    /// The caller must ensure no *live* process still uses the pool's
    /// slots (the dead client can't, and the daemon drops its own
    /// references first).
    pub fn force_reclaim(&self) -> usize {
        let mut reclaimed = 0;
        for index in 0..self.inner.config.slot_count as u32 {
            let state = self.inner.store.state(index);
            let mut current = state.load(Ordering::Acquire);
            loop {
                let (generation, refs) = unpack_state(current);
                if refs == 0 {
                    break;
                }
                let next = pack_state(generation.wrapping_add(1), 0);
                match state.compare_exchange(current, next, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        if let Some((ledger, base)) = &self.inner.ledger {
                            ledger.credit(base + index as usize);
                        }
                        self.inner.store.in_use_sub();
                        // insane-lint: allow(hot-path-alloc) -- FreeList::push is a CAS over fixed words; it never allocates
                        self.inner.store.free().push(index);
                        reclaimed += 1;
                        break;
                    }
                    Err(actual) => current = actual,
                }
            }
        }
        reclaimed
    }

    /// Pool identifier.
    pub fn pool_id(&self) -> PoolId {
        self.inner.config.pool_id
    }

    /// Size in bytes of each slot.
    pub fn slot_size(&self) -> usize {
        self.inner.config.slot_size
    }

    /// Number of slots in the pool.
    pub fn slot_count(&self) -> usize {
        self.inner.config.slot_count
    }

    /// Number of slots currently free.
    pub fn free_slots(&self) -> usize {
        self.inner.store.free().len()
    }

    /// Usage statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        let s = &self.inner.store;
        PoolStats {
            in_use: s.load(hdr::IN_USE) as usize,
            high_water: s.load(hdr::HIGH_WATER) as usize,
            exhaustions: s.load(hdr::EXHAUSTIONS),
            acquires: s.load(hdr::ACQUIRES),
            misuse_rejections: s.load(hdr::MISUSE),
        }
    }

    fn count_misuse(&self) {
        self.inner.store.bump(hdr::MISUSE);
    }

    /// Lends out a free slot for writing a message of `len` bytes.
    ///
    /// This is the mechanism behind `get_buffer` in the paper's API.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::RequestTooLarge`] if `len` exceeds the slot size.
    /// * [`MemoryError::PoolExhausted`] if no slot is free.
    pub fn acquire(&self, len: usize) -> Result<SlotGuard, MemoryError> {
        if len > self.inner.config.slot_size {
            return Err(MemoryError::RequestTooLarge {
                requested: len,
                max: self.inner.config.slot_size,
            });
        }
        let index = self.inner.store.free().pop().ok_or_else(|| {
            self.inner.store.bump(hdr::EXHAUSTIONS);
            self.exhausted(len)
        })?;
        self.inner.store.bump(hdr::ACQUIRES);
        let store = &self.inner.store;
        let in_use = store.counter(hdr::IN_USE).fetch_add(1, Ordering::Relaxed) + 1;
        store
            .counter(hdr::HIGH_WATER)
            .fetch_max(in_use, Ordering::Relaxed);
        // Popping the free list gave us exclusive ownership of the slot
        // (refcount is 0 and no token can match its generation), so a plain
        // load + store cannot race with any other state transition.
        let state = self.inner.store.state(index);
        let (generation, refs) = unpack_state(state.load(Ordering::Acquire));
        debug_assert_eq!(refs, 0, "slot on the free list with live references");
        state.store(pack_state(generation, 1), Ordering::Release);
        self.inner.store.set_len_word(index, len);
        Ok(SlotGuard(self.checkout(index, generation, len)))
    }

    /// The exhaustion error for a `len`-byte request against this pool's
    /// current occupancy.
    pub(crate) fn exhausted(&self, len: usize) -> MemoryError {
        MemoryError::PoolExhausted {
            slot_size: self.inner.config.slot_size,
            requested: len,
            in_use: self.inner.store.load(hdr::IN_USE) as usize,
            slot_count: self.inner.config.slot_count,
        }
    }

    /// Charges `tenant` for a freshly-acquired slot.  A quota-less pool
    /// accepts unconditionally.  On failure the caller still owns the
    /// guard (no charge word was written), so dropping it releases the
    /// slot without a ledger credit.
    pub(crate) fn charge_tenant(&self, tenant: TenantId, index: u32) -> Result<(), MemoryError> {
        match &self.inner.ledger {
            None => Ok(()),
            Some((ledger, base)) => ledger.charge(tenant, base + index as usize),
        }
    }

    /// Re-materializes unique write access from a token, e.g. on the
    /// receive path where a datapath filled the slot and handed the token
    /// over a queue.
    ///
    /// # Errors
    ///
    /// [`MemoryError::InvalidToken`] / [`MemoryError::StaleToken`] under the
    /// same conditions as [`SlotPool::view`].
    pub fn redeem(&self, token: SlotToken) -> Result<SlotGuard, MemoryError> {
        self.validated(token).map(SlotGuard)
    }

    /// Produces a read-only view of the message a token refers to.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::InvalidToken`] if the token names another pool or an
    ///   out-of-range slot.
    /// * [`MemoryError::StaleToken`] if the slot was released since the
    ///   token was minted (double release / use-after-release).
    pub fn view(&self, token: SlotToken) -> Result<SlotView, MemoryError> {
        self.validated(token).map(SlotView)
    }

    /// Releases the slot a token refers to back to the free list.
    ///
    /// This is `release_buffer` in the paper's API.  The slot's generation
    /// is bumped (atomically with the refcount reaching zero) so that any
    /// copy of the token still in flight becomes stale.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::InvalidToken`] if the token names another pool or an
    ///   out-of-range slot.
    /// * [`MemoryError::StaleToken`] on a double release — including two
    ///   threads racing to release the same token: exactly one wins.
    pub fn release(&self, token: SlotToken) -> Result<(), MemoryError> {
        self.check_addressable(token)?;
        self.release_checkout(token.index, token.generation)
            .inspect_err(|_| {
                self.count_misuse();
            })
    }

    /// Returns one unit of checkout for `index`, provided the slot is still
    /// on generation `expected_generation` with a live refcount.
    ///
    /// The whole transition is one CAS on the packed state word: when the
    /// last reference goes away the generation bump, the count reaching
    /// zero, and the staleness of every outstanding token copy all become
    /// visible atomically.  Exactly one of N racing releases of the same
    /// checkout succeeds.
    fn release_checkout(&self, index: u32, expected_generation: u32) -> Result<(), MemoryError> {
        let state = self.inner.store.state(index);
        let mut current = state.load(Ordering::Acquire);
        loop {
            let (generation, refs) = unpack_state(current);
            if generation != expected_generation || refs == 0 {
                return Err(MemoryError::StaleToken);
            }
            let next = if refs == 1 {
                pack_state(generation.wrapping_add(1), 0)
            } else {
                pack_state(generation, refs - 1)
            };
            match state.compare_exchange_weak(current, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    if refs == 1 {
                        // Credit the tenant ledger BEFORE the slot
                        // re-enters the free list: the free list's
                        // push/pop pair orders this ahead of the next
                        // charge of the same slot, so the ledger's
                        // Relaxed atomics suffice.
                        if let Some((ledger, base)) = &self.inner.ledger {
                            ledger.credit(base + index as usize);
                        }
                        self.inner.store.in_use_sub();
                        self.inner.store.free().push(index);
                    }
                    return Ok(());
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// Adds one unit of checkout for `index` on generation
    /// `expected_generation`; fails if that checkout is no longer live.
    fn retain_checkout(&self, index: u32, expected_generation: u32) -> Result<(), MemoryError> {
        let state = self.inner.store.state(index);
        let mut current = state.load(Ordering::Acquire);
        loop {
            let (generation, refs) = unpack_state(current);
            if generation != expected_generation || refs == 0 {
                return Err(MemoryError::StaleToken);
            }
            let next = pack_state(generation, refs + 1);
            match state.compare_exchange_weak(current, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Bounds/pool-id check only (no generation check).
    fn check_addressable(&self, token: SlotToken) -> Result<(), MemoryError> {
        if token.pool != self.inner.config.pool_id
            || token.index as usize >= self.inner.config.slot_count
        {
            self.count_misuse();
            return Err(MemoryError::InvalidToken);
        }
        Ok(())
    }

    /// The trust boundary of the by-token API: the checkout `token` names,
    /// if the slot exists and is still live on the token's generation.
    fn validated(&self, token: SlotToken) -> Result<Checkout, MemoryError> {
        self.check_addressable(token)?;
        let state = self.inner.store.state(token.index);
        let (generation, refs) = unpack_state(state.load(Ordering::Acquire));
        if generation != token.generation || refs == 0 {
            self.count_misuse();
            return Err(MemoryError::StaleToken);
        }
        Ok(self.checkout(token.index, token.generation, token.len()))
    }

    /// A handle on one live unit of checkout the caller has established
    /// (popped the slot, validated its token, or retained a reference).
    fn checkout(&self, index: u32, generation: u32, len: usize) -> Checkout {
        Checkout {
            pool: self.clone(),
            index,
            generation,
            len,
        }
    }
}

/// One unit of checkout on one slot: what a [`SlotGuard`] and a
/// [`SlotView`] both are underneath.  It owns the release — the one `Drop`
/// — and the one way around it ([`Checkout::into_token`]).
struct Checkout {
    pool: SlotPool,
    index: u32,
    /// Generation at checkout time; the drop and every token are pinned to
    /// it so a stale handle can never release someone else's checkout.
    generation: u32,
    len: usize,
}

impl fmt::Debug for Checkout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkout")
            .field("pool", &self.pool.pool_id())
            .field("index", &self.index)
            .field("len", &self.len)
            .finish()
    }
}

impl Checkout {
    fn token(&self) -> SlotToken {
        SlotToken {
            pool: self.pool.pool_id(),
            index: self.index,
            generation: self.generation,
            len: self.len as u32,
        }
    }

    // Skipping the destructor IS the ownership transfer: the checkout
    // deliberately outlives the handle because the token now owns it.  Only
    // the release is skipped — the pool handle is still dropped, or every
    // token would pin the arena forever.
    fn into_token(self) -> SlotToken {
        let token = self.token();
        let this = core::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is never dropped or touched again, so the handle
        // is moved out exactly once; the other fields are `Copy`.
        drop(unsafe { core::ptr::read(&this.pool) });
        token
    }

    fn ptr(&self) -> *mut u8 {
        self.pool.inner.store.slot_ptr(self.index)
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: this checkout keeps the slot off the free list, `ptr` has
        // provenance for the full slot and `len` is bounded by the slot
        // size.  The only writer is a `SlotGuard` through `&mut self`,
        // which excludes this `&self`; a guard turns into shareable views
        // only by value (`into_view`), so no writer outlives the first
        // reader.
        unsafe { core::slice::from_raw_parts(self.ptr(), self.len) }
    }
}

impl Drop for Checkout {
    fn drop(&mut self) {
        // A failure means this checkout was already retired through a
        // copied token or a `force_reclaim` (ownership-discipline misuse).
        // The generation check guarantees we did not touch the slot's new
        // owner; record the rejection instead of corrupting state.
        if self
            .pool
            .release_checkout(self.index, self.generation)
            .is_err()
        {
            self.pool.count_misuse();
        }
    }
}

/// Unique, writable access to one slot, returned by [`SlotPool::acquire`].
///
/// Dropping the guard returns the slot to the pool (no leak on early error
/// paths); [`SlotGuard::into_view`] freezes it for readers; only
/// [`SlotGuard::into_token`] lets the checkout outlive the handle.
#[derive(Debug)]
pub struct SlotGuard(Checkout);

impl SlotGuard {
    /// Message length this guard was acquired for.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Whether the message length is zero.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// Shrinks or grows the valid message length (bounded by slot size).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the pool's slot size.
    pub fn set_len(&mut self, len: usize) {
        let this = &mut self.0;
        assert!(
            len <= this.pool.slot_size(),
            "len {} exceeds slot size {}",
            len,
            this.pool.slot_size()
        );
        this.len = len;
        this.pool.inner.store.set_len_word(this.index, len);
    }

    /// Freezes the written slot into a read-only, shareable view of the
    /// *same* checkout: no state-word transition, no validation — the
    /// guard is the proof of ownership.  This is how a slot travels inside
    /// one process (emit → frame → wire → sink).
    pub fn into_view(self) -> SlotView {
        SlotView(self.0)
    }

    /// Converts the guard into a transferable token, *without* releasing
    /// the slot: ownership moves to whoever receives the token.
    ///
    /// This is the moment a client process hands the slot id to the
    /// runtime's descriptor ring.
    pub fn into_token(self) -> SlotToken {
        self.0.into_token()
    }

    /// The token this guard would produce, without consuming the guard.
    pub fn token(&self) -> SlotToken {
        self.0.token()
    }
}

impl core::ops::Deref for SlotGuard {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0.bytes()
    }
}

impl core::ops::DerefMut for SlotGuard {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as `Checkout::bytes`; the guard is the slot's only
        // handle (free-list discipline) and `&mut self` excludes every
        // other borrow of it.
        unsafe { core::slice::from_raw_parts_mut(self.0.ptr(), self.0.len) }
    }
}

/// Read-only access to a message in a slot.
///
/// The paper's zero-copy receive path returns the application "a pointer to
/// a memory area borrowed from the runtime"; `SlotView` is that borrow.
/// Dropping the view (or calling [`SlotView::release`]) returns its unit of
/// checkout; the slot goes back to the pool with the last one.
#[derive(Debug)]
pub struct SlotView(Checkout);

impl SlotView {
    /// Message length in bytes.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Whether the message length is zero.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// Explicitly returns the slot to the pool (equivalent to drop, but
    /// reads better at call sites that mirror the paper's
    /// `release_buffer`).
    pub fn release(self) {}

    /// Keeps the slot checked out and returns the token, so the view can be
    /// forwarded across a process boundary without copying.
    pub fn into_token(self) -> SlotToken {
        self.0.into_token()
    }

    /// Creates a second zero-copy reference to the same slot.
    ///
    /// The slot returns to the free list only when every reference has
    /// been dropped/released.  The INSANE runtime uses this to deliver one
    /// received message to several co-located sinks without copying
    /// (the multi-sink experiment of Fig. 8b).
    pub fn clone_ref(&self) -> SlotView {
        let this = &self.0;
        // This view holds a live checkout, so the retain can only fail if
        // some other component double-released our checkout out from under
        // us (misuse).  The clone still hands back a view pinned to our
        // generation: its eventual drop fails the generation check and is
        // counted, rather than disturbing the slot's next owner.
        if this
            .pool
            .retain_checkout(this.index, this.generation)
            .is_err()
        {
            this.pool.count_misuse();
        }
        SlotView(this.pool.checkout(this.index, this.generation, this.len))
    }
}

impl core::ops::Deref for SlotView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0.bytes()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn pool() -> SlotPool {
        SlotPool::new(PoolConfig::new(3, 128, 4)).unwrap()
    }

    #[test]
    fn rejects_zero_configs() {
        assert!(matches!(
            SlotPool::new(PoolConfig::new(0, 0, 4)),
            Err(MemoryError::BadConfig(_))
        ));
        assert!(matches!(
            SlotPool::new(PoolConfig::new(0, 16, 0)),
            Err(MemoryError::BadConfig(_))
        ));
    }

    #[test]
    fn acquire_write_transfer_view_release() {
        let p = pool();
        let mut g = p.acquire(5).unwrap();
        g.copy_from_slice(b"hello");
        let t = g.into_token();
        assert_eq!(t.len(), 5);
        assert_eq!(p.free_slots(), 3);
        let v = p.view(t).unwrap();
        assert_eq!(&*v, b"hello");
        drop(v);
        assert_eq!(p.free_slots(), 4);
    }

    #[test]
    fn acquire_too_large_is_rejected() {
        let p = pool();
        assert_eq!(
            p.acquire(129).err(),
            Some(MemoryError::RequestTooLarge {
                requested: 129,
                max: 128
            })
        );
    }

    #[test]
    fn exhaustion_and_stat_counters() {
        let p = pool();
        let guards: Vec<_> = (0..4).map(|_| p.acquire(1).unwrap()).collect();
        assert_eq!(
            p.acquire(1).err(),
            Some(MemoryError::PoolExhausted {
                slot_size: 128,
                requested: 1,
                in_use: 4,
                slot_count: 4
            })
        );
        let stats = p.stats();
        assert_eq!(stats.in_use, 4);
        assert_eq!(stats.high_water, 4);
        assert_eq!(stats.exhaustions, 1);
        assert_eq!(stats.acquires, 4);
        assert_eq!(stats.misuse_rejections, 0);
        drop(guards);
        assert_eq!(p.stats().in_use, 0);
        assert_eq!(p.free_slots(), 4);
    }

    #[test]
    fn double_release_is_detected() {
        let p = pool();
        let t = p.acquire(1).unwrap().into_token();
        p.release(t).unwrap();
        assert_eq!(p.release(t), Err(MemoryError::StaleToken));
        assert_eq!(p.stats().misuse_rejections, 1);
    }

    #[test]
    fn stale_view_after_release_is_detected() {
        let p = pool();
        let t = p.acquire(1).unwrap().into_token();
        p.release(t).unwrap();
        assert!(matches!(p.view(t), Err(MemoryError::StaleToken)));
    }

    #[test]
    fn token_from_wrong_pool_is_invalid() {
        let a = SlotPool::new(PoolConfig::new(1, 64, 2)).unwrap();
        let b = SlotPool::new(PoolConfig::new(2, 64, 2)).unwrap();
        let t = a.acquire(1).unwrap().into_token();
        assert!(matches!(b.view(t), Err(MemoryError::InvalidToken)));
        assert_eq!(b.stats().misuse_rejections, 1);
        a.release(t).unwrap();
    }

    #[test]
    fn dropped_guard_returns_slot() {
        let p = pool();
        {
            let _g = p.acquire(10).unwrap();
            assert_eq!(p.free_slots(), 3);
        }
        assert_eq!(p.free_slots(), 4);
    }

    #[test]
    fn redeem_allows_rewriting_received_slot() {
        let p = pool();
        let mut g = p.acquire(3).unwrap();
        g.copy_from_slice(b"abc");
        let t = g.into_token();
        let mut again = p.redeem(t).unwrap();
        again[0] = b'x';
        let t2 = again.into_token();
        let v = p.view(t2).unwrap();
        assert_eq!(&*v, b"xbc");
    }

    #[test]
    fn set_len_adjusts_visible_bytes() {
        let p = pool();
        let mut g = p.acquire(8).unwrap();
        g.copy_from_slice(b"12345678");
        g.set_len(4);
        let t = g.into_token();
        assert_eq!(t.len(), 4);
        let v = p.view(t).unwrap();
        assert_eq!(&*v, b"1234");
    }

    #[test]
    #[should_panic(expected = "exceeds slot size")]
    fn set_len_beyond_slot_panics() {
        let p = pool();
        let mut g = p.acquire(8).unwrap();
        g.set_len(4096);
    }

    #[test]
    fn slots_do_not_alias() {
        let p = pool();
        let mut a = p.acquire(4).unwrap();
        let mut b = p.acquire(4).unwrap();
        a.copy_from_slice(b"aaaa");
        b.copy_from_slice(b"bbbb");
        assert_eq!(&*a, b"aaaa");
        assert_eq!(&*b, b"bbbb");
    }

    #[test]
    fn forwarding_view_as_token_keeps_slot_checked_out() {
        let p = pool();
        let arena = Arc::downgrade(&p.inner);
        let t = p.acquire(2).unwrap().into_token();
        let v = p.view(t).unwrap();
        let t2 = v.into_token();
        assert_eq!(p.free_slots(), 3);
        p.release(t2).unwrap();
        assert_eq!(p.free_slots(), 4);
        // A token keeps the *slot*, not the pool: once the last handle is
        // gone the arena is freed (each `into_token` used to leak one
        // strong count, so a pool that ever emitted was never dropped).
        drop(p);
        assert!(arena.upgrade().is_none(), "tokens must not pin the arena");
    }

    #[test]
    fn guard_frozen_into_views_frees_the_slot_once() {
        let p = pool();
        let arena = Arc::downgrade(&p.inner);
        let mut g = p.acquire(3).unwrap();
        g.copy_from_slice(b"abc");
        let generation = g.token().generation();
        let v1 = g.into_view();
        // Same checkout: no state-word transition, nothing to validate.
        assert_eq!(v1.0.generation, generation);
        assert_eq!((p.free_slots(), p.stats().in_use), (3, 1));
        let v2 = v1.clone_ref();
        drop(v1);
        assert_eq!(&*v2, b"abc");
        assert_eq!(p.free_slots(), 3, "one reference still out");
        drop(v2);
        assert_eq!((p.free_slots(), p.stats().in_use), (4, 0));
        assert_eq!(p.stats().misuse_rejections, 0, "released exactly once");
        drop(p);
        assert!(arena.upgrade().is_none(), "views must not pin the arena");
    }

    #[test]
    fn clone_ref_keeps_slot_alive_until_last_drop() {
        let p = pool();
        let mut g = p.acquire(3).unwrap();
        g.copy_from_slice(b"abc");
        let t = g.into_token();
        let v1 = p.view(t).unwrap();
        let v2 = v1.clone_ref();
        let v3 = v2.clone_ref();
        drop(v1);
        assert_eq!(p.free_slots(), 3, "two refs still out");
        assert_eq!(&*v2, b"abc");
        drop(v2);
        assert_eq!(&*v3, b"abc");
        drop(v3);
        assert_eq!(p.free_slots(), 4);
        // Token is stale once the last ref went away.
        assert!(matches!(p.view(t), Err(MemoryError::StaleToken)));
    }

    #[test]
    fn reacquired_slot_starts_with_fresh_refcount() {
        let p = SlotPool::new(PoolConfig::new(0, 16, 1)).unwrap();
        let t = p.acquire(1).unwrap().into_token();
        let v = p.view(t).unwrap();
        let v2 = v.clone_ref();
        drop(v);
        drop(v2);
        // Slot free again; a second acquire/release cycle must behave.
        let t2 = p.acquire(1).unwrap().into_token();
        p.release(t2).unwrap();
        assert_eq!(p.free_slots(), 1);
    }

    #[test]
    fn stale_guard_drop_cannot_release_new_owner() {
        let p = SlotPool::new(PoolConfig::new(0, 16, 1)).unwrap();
        let g = p.acquire(1).unwrap();
        let t = g.token(); // non-consuming copy of the checkout
        p.release(t).unwrap(); // misuse: releases while the guard lives
        let g2 = p.acquire(2).unwrap(); // new checkout, new generation
        drop(g); // stale guard must NOT free the new checkout
        assert_eq!(p.free_slots(), 0);
        assert_eq!(p.stats().in_use, 1);
        assert!(p.stats().misuse_rejections >= 1);
        drop(g2);
        assert_eq!(p.free_slots(), 1);
        assert_eq!(p.stats().in_use, 0);
    }

    #[test]
    fn concurrent_acquire_release_is_balanced() {
        use std::sync::Arc;
        const ROUNDS: u32 = if cfg!(miri) { 100 } else { 5_000 };
        let p = Arc::new(SlotPool::new(PoolConfig::new(9, 64, 32)).unwrap());
        let mut handles = Vec::new();
        for t in 0..8 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    match p.acquire(8) {
                        Ok(mut g) => {
                            g.copy_from_slice(&(t as u64 * 31 + i as u64).to_le_bytes());
                            let token = g.into_token();
                            let view = p.view(token).unwrap();
                            assert_eq!(view.len(), 8);
                            view.release();
                        }
                        Err(MemoryError::PoolExhausted { .. }) => std::hint::spin_loop(),
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.free_slots(), 32);
        assert_eq!(p.stats().in_use, 0);
    }

    #[test]
    fn wire_encoding_round_trips() {
        let p = pool();
        let t = p.acquire(7).unwrap().into_token();
        let (w0, w1) = t.to_wire();
        let back = SlotToken::from_wire(t.pool_id(), w0, w1);
        assert_eq!(back, t);
        p.release(back).unwrap();
    }

    #[test]
    fn create_and_attach_share_one_segment() {
        let config = PoolConfig::new(7, 64, 8);
        let len = SlotPool::required_segment_len(&config).unwrap();
        let segment = crate::Segment::heap(len);
        let creator = SlotPool::create_in_segment(config, segment.clone()).unwrap();
        let attached = SlotPool::attach_segment(segment).unwrap();
        assert_eq!(attached.pool_id(), 7);
        assert_eq!(attached.slot_size(), 64);
        assert_eq!(attached.slot_count(), 8);
        // A token minted through one handle is redeemable through the
        // other: all state lives in the shared segment.
        let mut g = creator.acquire(4).unwrap();
        g.copy_from_slice(b"ping");
        let t = g.into_token();
        assert_eq!(attached.stats().in_use, 1);
        let v = attached.view(t).unwrap();
        assert_eq!(&*v, b"ping");
        drop(v);
        assert_eq!(creator.free_slots(), 8);
        assert_eq!(creator.stats().in_use, 0);
    }

    #[test]
    fn attach_rejects_garbage_segments() {
        // Too small for even a header.
        assert!(SlotPool::attach_segment(crate::Segment::heap(64)).is_err());
        // Large enough but holds no pool.
        assert!(SlotPool::attach_segment(crate::Segment::heap(4096)).is_err());
        // Valid header claiming more slots than the segment holds.
        let config = PoolConfig::new(1, 64, 8);
        let len = SlotPool::required_segment_len(&config).unwrap();
        let segment = crate::Segment::heap(len);
        let _pool = SlotPool::create_in_segment(config, segment.clone()).unwrap();
        let truncated = segment.slice(0, len - 64).unwrap();
        assert!(SlotPool::attach_segment(truncated).is_err());
    }

    #[test]
    fn force_reclaim_retires_outstanding_checkouts() {
        let config = PoolConfig::new(2, 32, 4);
        let len = SlotPool::required_segment_len(&config).unwrap();
        let segment = crate::Segment::heap(len);
        let p = SlotPool::create_in_segment(config, segment).unwrap();
        // Simulate a crashed client: three checkouts that will never be
        // dropped (tokens forgotten, as a killed process forgets them).
        let t1 = p.acquire(1).unwrap().into_token();
        let _t2 = p.acquire(2).unwrap().into_token();
        let _t3 = p.acquire(3).unwrap().into_token();
        assert_eq!(p.stats().in_use, 3);
        assert_eq!(p.force_reclaim(), 3);
        assert_eq!(p.stats().in_use, 0);
        assert_eq!(p.free_slots(), 4);
        // Every stale token is now typed-invalid, not a corruption.
        assert!(matches!(p.view(t1), Err(MemoryError::StaleToken)));
        // And the pool is fully usable again.
        let all: Vec<_> = (0..4).map(|_| p.acquire(1).unwrap()).collect();
        assert_eq!(p.stats().in_use, 4);
        drop(all);
        assert_eq!(p.free_slots(), 4);
    }

    #[test]
    fn force_reclaim_on_quiet_pool_is_a_noop() {
        let p = pool();
        assert_eq!(p.force_reclaim(), 0);
        assert_eq!(p.free_slots(), 4);
    }
}
