//! Shared-memory segment transport: anonymous `/dev/shm` files mapped
//! into each participating process and wrapped as
//! [`insane_memory::Segment`]s.
//!
//! The daemon creates one file per session, unlinks it immediately
//! (anonymous-memfd semantics without relying on `memfd_create`'s
//! glibc wrapper), sizes it, maps it, and passes the descriptor to the
//! client in the attach ack via `SCM_RIGHTS`.  Both processes then hold
//! the same pages at different virtual addresses — which is exactly the
//! situation the segment/offset discipline in `insane-memory` exists
//! for.

use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use insane_memory::{PoolConfig, Segment, SlotPool};
use insane_queues::{ring_bytes, Bell, ShmConsumer, ShmProducer};

use crate::sys;
use crate::IpcError;

/// Bytes the bell word gets to itself: one cache line, so the client's
/// per-emit load of it never shares a line with a ring index somebody
/// is writing.
const BELL_LINE: usize = 64;

/// Where a session's pool, its two descriptor rings and the daemon's
/// bell sit in the session segment.  The daemon [`pack`](Self::pack)s
/// one and sends it in the attach ack; the client
/// [`validate`](Self::validate)s what it received (`AttachAck::parse`
/// does); both then take their ring ends and the bell from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLayout {
    /// Capacity of each descriptor ring.
    pub ring_capacity: usize,
    /// Pool region offset; the pool runs up to `tx_off`.
    pub pool_off: usize,
    /// Client→daemon descriptor ring offset.
    pub tx_off: usize,
    /// Offset of the daemon's doorbell word ([`Bell`]): one `u32` at
    /// the start of a cache line of its own, outside pool and rings.
    pub bell_off: usize,
    /// Daemon→client descriptor ring offset.
    pub rx_off: usize,
    /// Total segment length, bytes.
    pub seg_len: usize,
}

impl SessionLayout {
    /// Lays a session out as `[pool | TX ring | bell | RX ring]`, each
    /// ring rounded up to whole cache lines so head and tail words never
    /// share a line across a region boundary.  The bell line sits
    /// between the rings: whichever page it lands on, a ring entry or
    /// index word both processes touch anyway keeps that page resident.
    ///
    /// # Errors
    ///
    /// [`IpcError::Memory`] on a pool config the pool rejects,
    /// [`IpcError::Protocol`] on a ring capacity that is not a power of
    /// two or a layout that overflows.
    pub fn pack(pool: &PoolConfig, ring_capacity: usize) -> Result<Self, IpcError> {
        // Saturating: an overflowing layout cannot pass `validate`.
        let tx_off = SlotPool::required_segment_len(pool)?;
        let ring_len = ring_bytes(ring_capacity).saturating_add(63) & !63;
        let bell_off = tx_off.saturating_add(ring_len);
        let rx_off = bell_off.saturating_add(BELL_LINE);
        Self {
            ring_capacity,
            pool_off: 0,
            tx_off,
            bell_off,
            rx_off,
            seg_len: rx_off.saturating_add(ring_len),
        }
        .validate()
    }

    /// Checks the layout against itself, before any offset in it is
    /// trusted: a malformed or hostile attach ack is an error here,
    /// never an out-of-bounds access or a panic later.
    ///
    /// # Errors
    ///
    /// [`IpcError::Protocol`] if the regions do not fit `seg_len`, are
    /// misaligned, the bell line overlaps the pool or a ring, or the
    /// ring capacity is not a power of two.
    pub fn validate(self) -> Result<Self, IpcError> {
        // Saturates on an absurd capacity, which then fails `fits`.
        let ring_len = ring_bytes(self.ring_capacity);
        let fits = |off: usize| {
            off.is_multiple_of(8)
                && off
                    .checked_add(ring_len)
                    .is_some_and(|end| end <= self.seg_len)
        };
        let bell_end = self.bell_off.saturating_add(BELL_LINE);
        // Only asked about a ring that `fits`: `ring_off + ring_len`
        // cannot wrap.
        let bell_clear_of =
            |ring_off: usize| bell_end <= ring_off || ring_off + ring_len <= self.bell_off;
        // What `ShmProducer::attach`/`SlotPool::attach_segment` would
        // otherwise assert: capacity, alignment, bounds.
        if self.ring_capacity.is_power_of_two()
            && self.ring_capacity as u64 <= u32::MAX as u64
            && self.pool_off.is_multiple_of(8)
            && self.pool_off <= self.tx_off
            && fits(self.tx_off)
            && fits(self.rx_off)
            && self.bell_off.is_multiple_of(BELL_LINE)
            && self.bell_off >= self.tx_off
            && bell_end <= self.seg_len
            && bell_clear_of(self.tx_off)
            && bell_clear_of(self.rx_off)
        {
            Ok(self)
        } else {
            Err(IpcError::Protocol("session layout is inconsistent".into()))
        }
    }

    /// The pool's window of `segment`.
    ///
    /// # Errors
    ///
    /// [`IpcError::Memory`] if `segment` is shorter than the layout.
    pub fn pool_segment(&self, segment: &Segment) -> Result<Segment, IpcError> {
        Ok(segment.slice(self.pool_off, self.tx_off - self.pool_off)?)
    }

    /// The bell line's window of `segment` (the word opens it).  Each
    /// side keeps this handle instead of a reference, so the mapping
    /// stays pinned and no pointer is stored.
    ///
    /// # Errors
    ///
    /// [`IpcError::Memory`] if `segment` is shorter than the layout.
    pub fn bell_segment(&self, segment: &Segment) -> Result<Segment, IpcError> {
        Ok(segment.slice(self.bell_off, BELL_LINE)?)
    }

    /// The client's ring ends: TX producer, RX consumer.
    ///
    /// # Safety
    ///
    /// `segment` must be a mapping of the session segment this layout
    /// describes (at least `seg_len` bytes, ring regions zeroed or left
    /// by the rings' previous use), and no other client-side end of
    /// either ring may exist in any process.
    // SAFETY: callers uphold the `# Safety` contract above.
    pub unsafe fn client_ends(&self, segment: &Segment) -> (ShmProducer, ShmConsumer) {
        let (tx, rx, keep) = self.ring_bases(segment);
        // SAFETY: `validate` put both ring regions inside `seg_len` at
        // 8-aligned offsets and `ring_bases` checked the segment covers
        // them; `keep` pins the mapping; uniqueness of the ends is the
        // caller's contract.
        unsafe {
            (
                ShmProducer::attach(tx, self.ring_capacity, Some(Arc::clone(&keep))),
                ShmConsumer::attach(rx, self.ring_capacity, Some(keep)),
            )
        }
    }

    /// The daemon's ring ends: TX consumer, RX producer.
    ///
    /// # Safety
    ///
    /// As [`SessionLayout::client_ends`], for the daemon-side ends.
    // SAFETY: callers uphold the `# Safety` contract above.
    pub unsafe fn daemon_ends(&self, segment: &Segment) -> (ShmConsumer, ShmProducer) {
        let (tx, rx, keep) = self.ring_bases(segment);
        // SAFETY: as in `client_ends`.
        unsafe {
            (
                ShmConsumer::attach(tx, self.ring_capacity, Some(Arc::clone(&keep))),
                ShmProducer::attach(rx, self.ring_capacity, Some(keep)),
            )
        }
    }

    fn ring_bases(
        &self,
        segment: &Segment,
    ) -> (*mut u8, *mut u8, Arc<dyn core::any::Any + Send + Sync>) {
        assert!(
            segment.len() >= self.seg_len,
            "segment shorter than its layout"
        );
        let base = segment.base_ptr();
        // SAFETY: both offsets lie inside `seg_len` (`validate`), which
        // the segment covers (asserted above).
        let (tx, rx) = unsafe { (base.add(self.tx_off), base.add(self.rx_off)) };
        (tx, rx, Arc::new(segment.clone()))
    }
}

/// The doorbell whose word opens `line`, a
/// [`SessionLayout::bell_segment`] (never `None` for one: the window is
/// a whole aligned cache line).
pub(crate) fn bell(line: &Segment) -> Option<Bell<'_>> {
    line.atomic_u32s(0, 1).first().map(Bell::new)
}

/// Owner of one `mmap` region; dropping the last [`Segment`] handle
/// unmaps it.
struct Mapping {
    base: *mut u8,
    len: usize,
}

// SAFETY: the raw pointer is only used by `Drop`; all byte access goes
// through the `Segment` protocols.
unsafe impl Send for Mapping {}
// SAFETY: as above.
unsafe impl Sync for Mapping {}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` denote the single mapping created in
        // `map_segment`, and the owning `Segment` is gone.
        unsafe { sys::unmap(self.base, self.len) };
    }
}

static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Creates an anonymous shared-memory file of `len` bytes.
///
/// The file is created `0600` under `/dev/shm` (tmpfs, so "file" means
/// RAM) with a collision-free name and unlinked before this function
/// returns: from then on only descriptors reference it, and the kernel
/// reclaims the pages when the last one closes — no stale segment files
/// after a crash.
///
/// # Errors
///
/// I/O errors from creation or sizing.
pub fn create_segment_file(len: usize) -> io::Result<File> {
    use std::os::unix::fs::OpenOptionsExt;
    let seq = SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed);
    let path =
        std::path::Path::new("/dev/shm").join(format!("insane-seg-{}-{}", std::process::id(), seq));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .mode(0o600)
        .open(&path)?;
    let unlink = std::fs::remove_file(&path);
    file.set_len(len as u64)?;
    unlink?;
    Ok(file)
}

/// Maps `len` bytes of `file` shared and wraps them as a [`Segment`].
///
/// The mapping outlives `file` (the caller may close the descriptor;
/// the daemon keeps it open only long enough to pass it on) and is
/// released when the last `Segment` handle drops.
///
/// # Errors
///
/// [`IpcError::Io`] if the `mmap` fails.
pub fn map_segment(file: &File, len: usize) -> Result<Segment, IpcError> {
    let base = sys::map_shared(file.as_raw_fd(), len)?;
    // SAFETY: `base` points to `len` freshly mapped read-write bytes;
    // the `Mapping` keep-alive owns them and unmaps on final drop; the
    // segment is the region's only alias in this process.
    Ok(unsafe { Segment::from_raw(base, len, Box::new(Mapping { base, len })) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::Ordering;

    fn packed() -> SessionLayout {
        SessionLayout::pack(&PoolConfig::new(1, 2048, 256), 64).unwrap()
    }

    #[test]
    fn packed_layout_validates_and_is_cache_line_aligned() {
        let layout = packed();
        assert_eq!(layout.pool_off, 0);
        assert_eq!(layout.bell_off - layout.tx_off, 128 + 64 * 16);
        assert_eq!(layout.rx_off - layout.bell_off, 64, "a line of its own");
        assert_eq!(
            layout.seg_len - layout.rx_off,
            layout.bell_off - layout.tx_off
        );
        assert!(layout.tx_off.is_multiple_of(64) && layout.rx_off.is_multiple_of(64));
        // 48 descriptors: not a power of two.
        assert!(SessionLayout::pack(&PoolConfig::new(1, 64, 8), 48).is_err());
        // Capacity 2 needs 128 + 32 bytes: rounded up to 192.
        let small = SessionLayout::pack(&PoolConfig::new(1, 64, 8), 2).unwrap();
        assert_eq!(small.bell_off - small.tx_off, 192);
    }

    /// Each crafted ack used to reach an `assert!`, an arithmetic
    /// underflow or a wrapped bounds check in `IpcClient::attach`.
    #[test]
    fn malformed_acks_are_protocol_errors_not_panics() {
        type Corrupt = fn(&mut SessionLayout);
        let crafted: [(&str, Corrupt); 12] = [
            ("tx ring before the pool", |a| a.pool_off = a.tx_off + 64),
            ("capacity whose byte size wraps", |a| {
                a.ring_capacity = 1 << 60
            }),
            ("capacity past 2^32", |a| a.ring_capacity = 1 << 33),
            ("capacity not a power of two", |a| a.ring_capacity = 48),
            ("zero capacity", |a| a.ring_capacity = 0),
            ("rx ring past the segment", |a| a.rx_off = a.seg_len - 64),
            ("tx offset that overflows", |a| a.tx_off = usize::MAX - 7),
            ("misaligned ring", |a| a.rx_off += 4),
            ("misaligned pool", |a| a.pool_off = 4),
            ("misaligned bell", |a| a.bell_off += 4),
            ("bell inside a ring", |a| a.bell_off = a.rx_off + 128),
            ("bell past the segment", |a| a.bell_off = a.seg_len),
        ];
        for (what, corrupt) in crafted {
            let mut layout = packed();
            corrupt(&mut layout);
            assert!(
                matches!(layout.validate(), Err(IpcError::Protocol(_))),
                "{what}: accepted {layout:?}"
            );
        }
    }

    #[test]
    fn two_mappings_of_one_file_share_bytes() {
        let file = create_segment_file(8192).unwrap();
        let a = map_segment(&file, 8192).unwrap();
        let b = map_segment(&file, 8192).unwrap();
        assert_ne!(a.base_ptr(), b.base_ptr(), "independent mappings");
        a.atomic_u64(64).store(0xfeed, Ordering::Release);
        assert_eq!(b.atomic_u64(64).load(Ordering::Acquire), 0xfeed);
    }

    #[test]
    fn segment_file_is_anonymous() {
        let file = create_segment_file(4096).unwrap();
        // The path was unlinked at creation; only the fd keeps it alive.
        let seg = map_segment(&file, 4096).unwrap();
        drop(file);
        seg.atomic_u64(0).store(7, Ordering::Relaxed);
        assert_eq!(seg.atomic_u64(0).load(Ordering::Relaxed), 7);
    }

    #[test]
    fn pool_created_in_one_mapping_attaches_in_another() {
        use insane_memory::{PoolConfig, SlotPool};
        let config = PoolConfig::new(5, 64, 8);
        let len = SlotPool::required_segment_len(&config).unwrap();
        let file = create_segment_file(len).unwrap();
        let creator_map = map_segment(&file, len).unwrap();
        let attacher_map = map_segment(&file, len).unwrap();
        let creator = SlotPool::create_in_segment(config, creator_map).unwrap();
        let attached = SlotPool::attach_segment(attacher_map).unwrap();
        let mut g = creator.acquire(2).unwrap();
        g.copy_from_slice(b"hi");
        let t = g.into_token();
        let v = attached.view(t).unwrap();
        assert_eq!(&*v, b"hi");
        drop(v);
        assert_eq!(creator.free_slots(), 8);
    }
}
