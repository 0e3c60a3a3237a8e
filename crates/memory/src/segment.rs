//! The segment abstraction: a contiguous byte region a [`SlotPool`]
//! lays its entire state out in — header, counters, free list, state
//! words, length words, and slot bytes — addressed exclusively by
//! offsets from the segment base.
//!
//! Base-relative addressing is the property the cross-process datapath
//! depends on: the same segment (a memfd-backed file mapping) is mapped
//! at *different* virtual addresses by the runtime daemon and by each
//! client, so no absolute pointer may ever be stored inside it.  Every
//! pointer is derived on demand as `segment base + offset`, and every
//! transferable handle ([`SlotToken`](crate::SlotToken)) carries only
//! `(pool, index, generation)` — all position independent.
//!
//! Two backings exist:
//!
//! * [`Segment::heap`] — a process-private zeroed allocation.  This is
//!   what [`SlotPool::new`](crate::SlotPool::new) uses and what every
//!   in-process component sees; it is also the backing unit tests and
//!   Miri exercise.
//! * [`Segment::from_raw`] — an externally owned mapping (`insane-ipc`
//!   wraps `mmap` regions this way).  The caller proves validity and
//!   supplies a keep-alive object that owns the mapping.
//!
//! # Under loom
//!
//! A byte region cannot hold loom-instrumented cells, so this file is
//! where the model-checked build forks — and the only place in the
//! crate that does.  Under `cfg(loom)`, [`Segment::heap`] keeps one
//! [`sync`](insane_queues::sync) atomic per 8-byte and per 4-byte word
//! of the region next to a plain byte area for the slot payloads;
//! `atomic_u64`/`atomic_u32s` hand out the former and `base_ptr` the
//! latter, by the same offsets.  Everything above — the pool's layout,
//! free list, state words, `create_in_segment`, `attach_segment`,
//! `force_reclaim` — is therefore the same code in both builds, with
//! every shared word visible to the model checker.  `from_raw` does
//! not exist under loom.

use std::sync::Arc;

use insane_queues::sync::{AtomicU32, AtomicU64};

use crate::MemoryError;

#[cfg(not(loom))]
mod backing {
    use super::{AtomicU32, AtomicU64};

    /// One cache line of interior-mutable bytes.  Heap backings are built
    /// from these so the segment base is 64-byte aligned — the layout puts
    /// atomics on cache-line boundaries and an `AtomicU64` reference at a
    /// misaligned address is undefined behavior (mmap'd backings are page
    /// aligned for free).
    #[repr(align(64))]
    pub struct Chunk(
        // Accessed exclusively through raw pointers derived from the slice
        // base, so the field never appears "read" to rustc.
        #[allow(dead_code)] [core::cell::UnsafeCell<u8>; 64],
    );

    /// Backing storage for a [`Segment`](super::Segment).
    pub enum Backing {
        /// Process-private zeroed allocation.
        Heap(Box<[Chunk]>),
        /// Externally owned region (e.g. an `mmap` of a memfd).  `_keep`
        /// owns the mapping and releases it when the last segment handle
        /// drops.
        Raw {
            base: *mut u8,
            _keep: Box<dyn core::any::Any + Send + Sync>,
        },
    }

    impl Backing {
        pub fn heap(len: usize) -> Self {
            Backing::Heap(
                (0..len.div_ceil(64))
                    .map(|_| Chunk(core::array::from_fn(|_| core::cell::UnsafeCell::new(0u8))))
                    .collect(),
            )
        }

        pub fn base(&self) -> *mut u8 {
            match self {
                // The pointer is derived from the slice base so its
                // provenance spans the whole allocation (required under
                // Miri's strict provenance; see `SlotPool::slot_ptr`).  The
                // bytes sit inside `UnsafeCell`s, so writing through this
                // pointer is sound even though it derives from a shared
                // reference.
                Backing::Heap(chunks) => chunks.as_ptr().cast::<u8>().cast_mut(),
                Backing::Raw { base, .. } => *base,
            }
        }

        /// # Safety
        ///
        /// `at + 8` must lie inside the backing and `at` be 8-aligned.
        // SAFETY: callers uphold the contract above.
        pub unsafe fn atomic_u64(&self, at: usize) -> &AtomicU64 {
            // SAFETY: in bounds and aligned by the caller's contract; the
            // bytes live behind interior-mutability backing and all
            // concurrent access goes through atomic operations.
            unsafe { &*(self.base().add(at) as *const AtomicU64) }
        }

        /// # Safety
        ///
        /// `at + 4 * count` must lie inside the backing and `at` be
        /// 4-aligned.
        // SAFETY: callers uphold the contract above.
        pub unsafe fn atomic_u32s(&self, at: usize, count: usize) -> &[AtomicU32] {
            // SAFETY: as `atomic_u64`, for `count` consecutive words.
            unsafe { core::slice::from_raw_parts(self.base().add(at) as *const AtomicU32, count) }
        }

        /// # Safety
        ///
        /// `at + len` must lie inside the backing, and no one else may be
        /// using those bytes.
        // SAFETY: callers uphold the contract above.
        pub unsafe fn zero(&self, at: usize, len: usize) {
            // SAFETY: in bounds and exclusive by the caller's contract.
            unsafe { core::ptr::write_bytes(self.base().add(at), 0, len) };
        }
    }
}

#[cfg(loom)]
mod backing {
    use super::{AtomicU32, AtomicU64};
    use insane_queues::sync::Ordering;

    /// The model-checked stand-in for a byte region: word `i` of each
    /// width is its own instrumented atomic, addressed by the byte
    /// offset it would have in the real layout.
    pub struct Backing {
        words: Box<[AtomicU64]>,
        halves: Box<[AtomicU32]>,
        bytes: Box<[core::cell::UnsafeCell<u8>]>,
    }

    impl Backing {
        pub fn heap(len: usize) -> Self {
            Self {
                words: (0..len.div_ceil(8)).map(|_| AtomicU64::new(0)).collect(),
                halves: (0..len.div_ceil(4)).map(|_| AtomicU32::new(0)).collect(),
                bytes: (0..len).map(|_| core::cell::UnsafeCell::new(0u8)).collect(),
            }
        }

        pub fn base(&self) -> *mut u8 {
            core::cell::UnsafeCell::raw_get(self.bytes.as_ptr())
        }

        // SAFETY: nothing to uphold here; `unsafe` mirrors the real backing's signature.
        pub unsafe fn atomic_u64(&self, at: usize) -> &AtomicU64 {
            &self.words[at / 8]
        }

        // SAFETY: as `atomic_u64`.
        pub unsafe fn atomic_u32s(&self, at: usize, count: usize) -> &[AtomicU32] {
            &self.halves[at / 4..at / 4 + count]
        }

        // SAFETY: as `atomic_u64`.
        pub unsafe fn zero(&self, at: usize, len: usize) {
            // Every word the range touches (pools zero whole cache lines).
            for word in &self.words[at / 8..(at + len).div_ceil(8)] {
                word.store(0, Ordering::Relaxed);
            }
            for half in &self.halves[at / 4..(at + len).div_ceil(4)] {
                half.store(0, Ordering::Relaxed);
            }
            // SAFETY: `at + len` is in bounds (checked by `Segment::zero`).
            unsafe { core::ptr::write_bytes(self.base().add(at), 0, len) };
        }
    }
}

use backing::Backing;

// SAFETY: the bytes behind a segment are only ever accessed through the
// slot-pool/ring ownership protocols layered on top (state-word CAS,
// ring head/tail publication), which serialize all access; the segment
// itself hands out raw pointers and atomic references, never `&mut`.
unsafe impl Send for Backing {}
// SAFETY: as above — shared handles expose no unsynchronized mutation.
unsafe impl Sync for Backing {}

/// A contiguous byte region addressed by base-relative offsets.
///
/// Cloning a `Segment` clones a handle to the same region (the backing
/// is shared behind an `Arc`); [`Segment::slice`] narrows a handle to a
/// sub-range so one mapping can host a pool and several rings.
#[derive(Clone)]
pub struct Segment {
    backing: Arc<Backing>,
    /// Offset of this handle's window within the backing.
    start: usize,
    /// Length of this handle's window.
    len: usize,
}

impl core::fmt::Debug for Segment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Segment")
            .field("start", &self.start)
            .field("len", &self.len)
            .finish()
    }
}

impl Segment {
    /// Allocates a zeroed, 64-byte-aligned process-private segment of
    /// `len` bytes (rounded up to whole cache lines internally).
    pub fn heap(len: usize) -> Self {
        Self {
            backing: Arc::new(Backing::heap(len)),
            start: 0,
            len,
        }
    }

    /// Wraps an externally owned region.
    ///
    /// # Safety
    ///
    /// `base` must point to `len` readable+writable bytes that remain
    /// valid (and are not moved, shrunk, or unmapped) for as long as
    /// `keep` is alive; `keep` must own the mapping so that dropping
    /// the last segment handle releases it.  The region must not be
    /// accessed by this process through any other alias while pool or
    /// ring protocols run over it.
    #[cfg(not(loom))]
    // SAFETY: callers uphold the `# Safety` contract above.
    pub unsafe fn from_raw(
        base: *mut u8,
        len: usize,
        keep: Box<dyn core::any::Any + Send + Sync>,
    ) -> Self {
        Self {
            backing: Arc::new(Backing::Raw { base, _keep: keep }),
            start: 0,
            len,
        }
    }

    /// Length of this handle's window in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base pointer of this handle's window.
    ///
    /// The pointer is recomputed from the backing on every call — it is
    /// never stored inside the segment — so tokens and descriptors stay
    /// valid when the same bytes are mapped elsewhere.
    pub fn base_ptr(&self) -> *mut u8 {
        // SAFETY: `start` was bounds-checked against the backing when
        // this handle was created (`heap`/`from_raw` use 0, `slice`
        // checks explicitly), so the offset stays in-bounds.
        unsafe { self.backing.base().add(self.start) }
    }

    /// Narrows the handle to `[offset, offset + len)` of its window.
    ///
    /// # Errors
    ///
    /// [`MemoryError::BadConfig`] if the range leaves the window.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Segment, MemoryError> {
        let end = offset
            .checked_add(len)
            .ok_or(MemoryError::BadConfig("segment slice overflows"))?;
        if end > self.len {
            return Err(MemoryError::BadConfig(
                "segment slice exceeds the segment length",
            ));
        }
        Ok(Segment {
            backing: Arc::clone(&self.backing),
            start: self.start + offset,
            len,
        })
    }

    /// Whether `ptr` points into this segment's window (used by tests
    /// and the IPC layer to assert zero-copy delivery).
    pub fn contains_ptr(&self, ptr: *const u8) -> bool {
        let base = self.base_ptr() as usize;
        let p = ptr as usize;
        p >= base && p < base + self.len
    }

    /// Returns the `AtomicU64` living at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is unaligned or out of bounds — segment
    /// layouts are computed once at construction, so a panic here is a
    /// layout bug, not a runtime condition.
    // insane-lint: allow-fn(hot-path-panic) -- the assert is the documented bounds/alignment proof; every offset is a compile-time layout constant
    pub fn atomic_u64(&self, offset: usize) -> &AtomicU64 {
        assert!(
            (self.start + offset).is_multiple_of(8) && offset + 8 <= self.len,
            "misaligned or out-of-bounds atomic_u64 offset {offset}"
        );
        // SAFETY: in bounds and aligned (asserted above; `slice` keeps
        // every window inside the backing).
        unsafe { self.backing.atomic_u64(self.start + offset) }
    }

    /// Returns the `count` consecutive `AtomicU32`s living at `offset`.
    ///
    /// # Panics
    ///
    /// As [`Segment::atomic_u64`].
    // insane-lint: allow-fn(hot-path-panic) -- the assert is the documented bounds/alignment proof; every offset is a compile-time layout constant
    pub fn atomic_u32s(&self, offset: usize, count: usize) -> &[AtomicU32] {
        assert!(
            (self.start + offset).is_multiple_of(4)
                && count
                    .checked_mul(4)
                    .and_then(|bytes| bytes.checked_add(offset))
                    .is_some_and(|end| end <= self.len),
            "misaligned or out-of-bounds atomic_u32s offset {offset}"
        );
        // SAFETY: as in `atomic_u64`.
        unsafe { self.backing.atomic_u32s(self.start + offset, count) }
    }

    /// Zeroes `[offset, offset + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the window (layout bug).
    pub fn zero(&self, offset: usize, len: usize) {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "out-of-bounds zero range"
        );
        // SAFETY: range is in bounds; exclusive use during
        // initialization is the caller's contract (pools zero their
        // regions before publishing the ready flag).
        unsafe { self.backing.zero(self.start + offset, len) };
    }
}

/// Rounds `off` up to the next multiple of `align` (a power of two).
pub(crate) const fn align_up(off: usize, align: usize) -> usize {
    (off + align - 1) & !(align - 1)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use core::sync::atomic::Ordering;

    #[test]
    fn heap_segment_is_zeroed_and_sized() {
        let seg = Segment::heap(256);
        assert_eq!(seg.len(), 256);
        assert!(!seg.is_empty());
        assert_eq!(seg.atomic_u64(0).load(Ordering::Relaxed), 0);
        assert_eq!(seg.atomic_u64(248).load(Ordering::Relaxed), 0);
    }

    #[test]
    fn slices_share_the_backing() {
        let seg = Segment::heap(128);
        let a = seg.slice(0, 64).unwrap();
        let b = seg.slice(64, 64).unwrap();
        a.atomic_u64(8).store(7, Ordering::Relaxed);
        b.atomic_u64(8).store(9, Ordering::Relaxed);
        assert_eq!(seg.atomic_u64(8).load(Ordering::Relaxed), 7);
        assert_eq!(seg.atomic_u64(72).load(Ordering::Relaxed), 9);
        assert!(seg.contains_ptr(b.base_ptr()));
        assert!(!b.contains_ptr(a.base_ptr()));
    }

    #[test]
    fn out_of_range_slice_is_rejected() {
        let seg = Segment::heap(64);
        assert!(matches!(seg.slice(32, 64), Err(MemoryError::BadConfig(_))));
        assert!(matches!(
            seg.slice(usize::MAX, 2),
            Err(MemoryError::BadConfig(_))
        ));
    }

    #[test]
    fn align_up_rounds_to_powers_of_two() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 8), 72);
    }

    #[test]
    #[should_panic(expected = "atomic_u64")]
    fn misaligned_atomic_offset_panics() {
        let seg = Segment::heap(64);
        let _ = seg.atomic_u64(4);
    }
}
