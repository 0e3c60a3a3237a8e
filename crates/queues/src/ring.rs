//! Bounded single-producer/single-consumer ring: one algorithm, two
//! storages.
//!
//! The algorithm is the classic Lamport ring with cached opposite
//! indices (the structure DPDK's `rte_ring` uses): a producer-published
//! tail, a consumer-published head, free-running `u64` positions masked
//! onto a power-of-two cell array.  The producer re-reads `head` only
//! when the ring *looks* full and the consumer re-reads `tail` only when
//! it *looks* empty, so the steady-state cost is one shared atomic store
//! per operation.  [`Producer::push`], [`Consumer::pop`] and
//! [`Consumer::pop_burst`] are that algorithm, written once over the
//! [`Storage`] trait, which says only *where* the two index words and
//! the cells live:
//!
//! * [`Heap`] — boxed cells of any `T` behind [`crate::sync`], created
//!   by [`channel`] ([`Sender`]/[`Receiver`]).  This is the storage the
//!   loom suite (`tests/loom.rs`) instruments, so the interleavings it
//!   explores run the very `push`/`pop` below.
//! * [`Region`] — a caller-provided byte region holding fixed 16-byte
//!   [`Descriptor`]s, attached with [`ShmProducer::attach`] /
//!   [`ShmConsumer::attach`].  This is the cross-process datapath of
//!   `insane-ipc`: the region is a window of a shared-memory segment
//!   mapped at a different address in each process, so everything in it
//!   is addressed by offset and nothing in it is a pointer.
//!
//! Byte layout of a [`Region`] (`ring_bytes(capacity)` bytes), a
//! cross-process contract:
//!
//! ```text
//! offset 0    tail  (AtomicU64, producer-published, own cache line)
//! offset 64   head  (AtomicU64, consumer-published, own cache line)
//! offset 128  entries (capacity × 16 bytes)
//! ```
//!
//! A descriptor is exactly what a
//! [`SlotToken`](../../insane_memory/struct.SlotToken.html) encodes to
//! on the wire: `word0 = generation << 32 | index`,
//! `word1 = stream << 32 | len`.

use core::cell::Cell;
use core::fmt;
use core::mem::MaybeUninit;
use core::sync::atomic::AtomicU64 as RegionWord;

use crate::sync::{Arc, AtomicU64, Ordering, UnsafeCell};
use crate::CachePadded;

/// Where a ring keeps its two index words and its cells.
///
/// [`Producer`] and [`Consumer`] decide *when* a cell may be touched;
/// an implementation only locates it.  Positions are free-running and
/// masked by the implementation.
pub trait Storage {
    /// What one cell holds.
    type Item;

    /// Capacity minus one (capacity is a power of two).
    fn mask(&self) -> u64;
    /// Loads the consumer-published index.
    fn head(&self, order: Ordering) -> u64;
    /// Publishes the consumer index (Release).
    fn set_head(&self, head: u64);
    /// Loads the producer-published index.
    fn tail(&self, order: Ordering) -> u64;
    /// Publishes the producer index (Release).
    fn set_tail(&self, tail: u64);

    /// Moves `item` into the cell at `pos`.
    ///
    /// # Safety
    ///
    /// The cell must be vacant and no other access to it may be in
    /// flight: `pos` is the producer's own tail and the consumer's
    /// head has been observed within `mask` of it.
    // SAFETY: callers uphold the `# Safety` contract above.
    unsafe fn write(&self, pos: u64, item: Self::Item);

    /// Moves the item out of the cell at `pos`, leaving it vacant.
    ///
    /// # Safety
    ///
    /// The cell must hold an item whose write happened-before this
    /// call, and no other access to it may be in flight: `pos` is the
    /// consumer's own head and lies below an Acquire-observed tail.
    // SAFETY: callers uphold the `# Safety` contract above.
    unsafe fn read(&self, pos: u64) -> Self::Item;
}

/// Producer endpoint of a ring over storage `S`.
///
/// `Send` when `S` is, never `Sync`: exactly one thread may produce.
#[derive(Debug)]
pub struct Producer<S> {
    store: S,
    /// Consumer index as of the last refresh; re-read from the shared
    /// word only when the ring looks full.
    cached_head: Cell<u64>,
}

/// Consumer endpoint of a ring over storage `S`.
///
/// `Send` when `S` is, never `Sync`: exactly one thread may consume.
#[derive(Debug)]
pub struct Consumer<S> {
    store: S,
    /// Producer index as of the last refresh; re-read from the shared
    /// word only when the ring looks empty.
    cached_tail: Cell<u64>,
}

impl<S: Storage> Producer<S> {
    /// Number of items the ring can hold.
    pub fn capacity(&self) -> usize {
        self.store.mask() as usize + 1
    }

    /// Enqueues `item`, or hands it back when the ring is full.
    // insane-lint: hot-path-root
    pub fn push(&self, item: S::Item) -> Result<(), S::Item> {
        let store = &self.store;
        // Relaxed: this side is the only writer of `tail`.
        let tail = store.tail(Ordering::Relaxed);
        if tail.wrapping_sub(self.cached_head.get()) > store.mask() {
            self.cached_head.set(store.head(Ordering::Acquire));
            if tail.wrapping_sub(self.cached_head.get()) > store.mask() {
                return Err(item);
            }
        }
        // SAFETY: the cell at `tail` is outside the consumer's visible
        // window until the Release publication below, and the fullness
        // check above (against an Acquire-observed head) proves the
        // consumer has vacated it; the single-producer contract means
        // no other writer exists.
        unsafe { store.write(tail, item) };
        store.set_tail(tail.wrapping_add(1));
        Ok(())
    }
}

impl<S: Storage> Consumer<S> {
    /// Dequeues the oldest item, or `None` when the ring is empty.
    // insane-lint: hot-path-root
    pub fn pop(&self) -> Option<S::Item> {
        let store = &self.store;
        // Relaxed: this side is the only writer of `head`.
        let head = store.head(Ordering::Relaxed);
        if head == self.cached_tail.get() {
            self.cached_tail.set(store.tail(Ordering::Acquire));
            if head == self.cached_tail.get() {
                return None;
            }
        }
        // SAFETY: `head` lies below the Acquire-observed tail, so the
        // producer wrote this cell before publishing it and will not
        // reuse it until `head` advances below; the single-consumer
        // contract means no other reader exists.
        let item = unsafe { store.read(head) };
        store.set_head(head.wrapping_add(1));
        Some(item)
    }

    /// Pops up to `max` items into `out`, returning how many were moved.
    ///
    /// This is the burst-dequeue a polling thread uses to drain a token
    /// queue in one pass (opportunistic batching, paper §6.2).
    // insane-lint: hot-path-root
    pub fn pop_burst(&self, out: &mut Vec<S::Item>, max: usize) -> usize {
        let mut moved = 0;
        while moved < max {
            match self.pop() {
                Some(item) => {
                    out.push(item);
                    moved += 1;
                }
                None => break,
            }
        }
        moved
    }
}

// ---------------------------------------------------------------------------
// Heap storage
// ---------------------------------------------------------------------------

/// Ring storage in a Rust allocation: cells of `T` and the two index
/// words, all behind [`crate::sync`] so loom can instrument them.
pub struct Heap<T> {
    cells: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: u64,
    tail: CachePadded<AtomicU64>,
    head: CachePadded<AtomicU64>,
}

impl<T> fmt::Debug for Heap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("capacity", &self.cells.len())
            .finish()
    }
}

// SAFETY: a ring hands each value from exactly one producer thread to
// exactly one consumer thread; the head/tail words provide the
// happens-before edges (Release on publish, Acquire on observe), so a
// cell is never accessed from both sides at once.
unsafe impl<T: Send> Send for Heap<T> {}
// SAFETY: as above — shared references only permit cell accesses that
// the head/tail protocol serializes.
unsafe impl<T: Send> Sync for Heap<T> {}

impl<T> Heap<T> {
    // insane-lint: allow-fn(hot-path-panic) -- `pos & mask` cannot exceed the power-of-two cell count
    fn cell(&self, pos: u64) -> &UnsafeCell<MaybeUninit<T>> {
        &self.cells[(pos & self.mask) as usize]
    }
}

impl<T> Storage for Arc<Heap<T>> {
    type Item = T;

    fn mask(&self) -> u64 {
        self.mask
    }

    fn head(&self, order: Ordering) -> u64 {
        self.head.load(order)
    }

    fn set_head(&self, head: u64) {
        self.head.store(head, Ordering::Release);
    }

    fn tail(&self, order: Ordering) -> u64 {
        self.tail.load(order)
    }

    fn set_tail(&self, tail: u64) {
        self.tail.store(tail, Ordering::Release);
    }

    // SAFETY: callers uphold the trait contract (vacant cell, exclusive).
    unsafe fn write(&self, pos: u64, item: T) {
        // SAFETY: exclusive access to the cell is the caller's contract.
        self.cell(pos).with_mut(|p| unsafe { (*p).write(item) });
    }

    // SAFETY: callers uphold the trait contract (initialized cell, exclusive).
    unsafe fn read(&self, pos: u64) -> T {
        // SAFETY: the cell is initialized and this consuming read is its
        // only access, by the caller's contract.
        self.cell(pos).with(|p| unsafe { (*p).assume_init_read() })
    }
}

impl<T> Drop for Heap<T> {
    fn drop(&mut self) {
        // Drain any values still in flight so their destructors run.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for pos in head..tail {
            let cell = self.cell(pos);
            // SAFETY: positions in [head, tail) hold initialized values
            // and `drop` has exclusive access to the storage.
            cell.with_mut(|p| unsafe { (*p).assume_init_drop() });
        }
    }
}

/// Producer half of an in-process ring created by [`channel`].
pub type Sender<T> = Producer<Arc<Heap<T>>>;
/// Consumer half of an in-process ring created by [`channel`].
pub type Receiver<T> = Consumer<Arc<Heap<T>>>;

/// Creates an in-process ring able to hold at least `capacity` items.
///
/// The actual capacity is `capacity` rounded up to a power of two (minimum
/// 2) so that wrapping is a mask operation, mirroring the DPDK ring.
///
/// # Panics
///
/// Panics if `capacity` is 0.
///
/// # Examples
///
/// ```
/// let (tx, rx) = insane_queues::channel::<u32>(4);
/// tx.push(1).unwrap();
/// tx.push(2).unwrap();
/// assert_eq!(rx.pop(), Some(1));
/// assert_eq!(rx.pop(), Some(2));
/// assert_eq!(rx.pop(), None);
/// ```
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "ring capacity must be non-zero");
    let cap = capacity.next_power_of_two().max(2);
    let heap = Arc::new(Heap {
        cells: (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        mask: cap as u64 - 1,
        tail: CachePadded::new(AtomicU64::new(0)),
        head: CachePadded::new(AtomicU64::new(0)),
    });
    (
        Producer {
            store: Arc::clone(&heap),
            cached_head: Cell::new(0),
        },
        Consumer {
            store: heap,
            cached_tail: Cell::new(0),
        },
    )
}

// ---------------------------------------------------------------------------
// Offset-region storage
// ---------------------------------------------------------------------------

/// One [`Region`] entry: two position-independent words.
pub type Descriptor = [u64; 2];

const TAIL_OFF: usize = 0;
const HEAD_OFF: usize = 64;
const ENTRIES_OFF: usize = 128;
const ENTRY_BYTES: usize = 16;

/// Bytes a region must provide for a ring of `capacity` descriptors.
///
/// Saturates instead of wrapping, so a capacity read from an untrusted
/// peer fails the caller's bounds check rather than passing it.
pub const fn ring_bytes(capacity: usize) -> usize {
    capacity
        .saturating_mul(ENTRY_BYTES)
        .saturating_add(ENTRIES_OFF)
}

/// Ring storage in a caller-provided byte region (see the module docs
/// for the layout): the region base, the index mask, and an optional
/// keep-alive that owns the mapping.
///
/// The index words are plain `core` atomics — a shared mapping cannot
/// hold loom-instrumented cells — which is why the loom models run the
/// algorithm over [`Heap`] instead.
#[derive(Debug)]
pub struct Region {
    base: *mut u8,
    mask: u64,
    _keep: Option<std::sync::Arc<dyn core::any::Any + Send + Sync>>,
}

// SAFETY: a handle only dereferences `base` through the ring protocol
// (each side writes only its own index; entries are written before the
// Release store that publishes them), so moving a handle to another
// thread is sound.  The keep-alive is `Send + Sync` by bound.
unsafe impl Send for Region {}

impl Region {
    /// # Safety
    ///
    /// See [`ShmProducer::attach`].
    // SAFETY: callers uphold the contract above (valid, exclusive,
    // pinned ring region).
    unsafe fn new(
        base: *mut u8,
        capacity: usize,
        keep: Option<std::sync::Arc<dyn core::any::Any + Send + Sync>>,
    ) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity as u64 <= u32::MAX as u64,
            "ring capacity must be a power of two (≤ 2^32)"
        );
        assert!(
            (base as usize).is_multiple_of(core::mem::align_of::<RegionWord>()),
            "ring base must be 8-byte aligned"
        );
        Self {
            base,
            mask: capacity as u64 - 1,
            _keep: keep,
        }
    }

    fn word(&self, offset: usize) -> &RegionWord {
        // SAFETY: `new` asserted alignment and the caller contracted
        // `ring_bytes(capacity)` valid bytes; `offset` is `TAIL_OFF` or
        // `HEAD_OFF`, and concurrent access to these words is
        // atomic-only.
        unsafe { &*(self.base.add(offset) as *const RegionWord) }
    }

    fn entry(&self, pos: u64) -> *mut u64 {
        let offset = ENTRIES_OFF + ((pos & self.mask) as usize) * ENTRY_BYTES;
        // SAFETY: `pos & mask < capacity`, so the entry lies inside the
        // contracted region; 16-byte entries at a 128-byte offset from
        // an 8-aligned base keep 8-byte alignment.
        unsafe { self.base.add(offset) as *mut u64 }
    }
}

// `#[inline]`: unlike `Heap<T>`'s, these methods are not generic, so
// without it the `push`/`pop` a downstream crate instantiates would
// call each of them out of line (measured: +25 % on a push/pop pair).
impl Storage for Region {
    type Item = Descriptor;

    fn mask(&self) -> u64 {
        self.mask
    }

    #[inline]
    fn head(&self, order: Ordering) -> u64 {
        self.word(HEAD_OFF).load(order)
    }

    #[inline]
    fn set_head(&self, head: u64) {
        self.word(HEAD_OFF).store(head, Ordering::Release);
    }

    #[inline]
    fn tail(&self, order: Ordering) -> u64 {
        self.word(TAIL_OFF).load(order)
    }

    #[inline]
    fn set_tail(&self, tail: u64) {
        self.word(TAIL_OFF).store(tail, Ordering::Release);
    }

    #[inline]
    // SAFETY: callers uphold the trait contract (vacant entry, exclusive).
    unsafe fn write(&self, pos: u64, [word0, word1]: Descriptor) {
        let entry = self.entry(pos);
        // SAFETY: `entry` points at 16 valid, aligned bytes no one else
        // is accessing, by the caller's contract.
        unsafe {
            entry.write(word0);
            entry.add(1).write(word1);
        }
    }

    #[inline]
    // SAFETY: callers uphold the trait contract (published entry, exclusive).
    unsafe fn read(&self, pos: u64) -> Descriptor {
        let entry = self.entry(pos);
        // SAFETY: as `write`; the words are plain `u64`s, so any bit
        // pattern a peer left there is a valid value.
        unsafe { [*entry, *entry.add(1)] }
    }
}

/// Producer endpoint of a shared-memory descriptor ring.
pub type ShmProducer = Producer<Region>;
/// Consumer endpoint of a shared-memory descriptor ring.
pub type ShmConsumer = Consumer<Region>;

impl Producer<Region> {
    /// Attaches the producer end to a ring region.
    ///
    /// # Safety
    ///
    /// * `base` must point to `ring_bytes(capacity)` readable+writable
    ///   bytes, 8-byte aligned, zero-initialized (or left exactly as a
    ///   previous ring of the same capacity left them), and valid for as
    ///   long as the handle (and `keep`) live.
    /// * At most one producer handle may exist per ring across *all*
    ///   attached processes, and entries may not be accessed through any
    ///   other alias while the ring is in use.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or `base` is
    /// misaligned.
    // SAFETY: callers uphold the `# Safety` contract above.
    pub unsafe fn attach(
        base: *mut u8,
        capacity: usize,
        keep: Option<std::sync::Arc<dyn core::any::Any + Send + Sync>>,
    ) -> Self {
        Self {
            // SAFETY: forwarded caller contract.
            store: unsafe { Region::new(base, capacity, keep) },
            cached_head: Cell::new(0),
        }
    }
}

impl Consumer<Region> {
    /// Attaches the consumer end to a ring region.
    ///
    /// # Safety
    ///
    /// As [`ShmProducer::attach`], with "at most one consumer handle"
    /// in place of the producer clause.
    ///
    /// # Panics
    ///
    /// As [`ShmProducer::attach`].
    // SAFETY: callers uphold the `# Safety` contract above.
    pub unsafe fn attach(
        base: *mut u8,
        capacity: usize,
        keep: Option<std::sync::Arc<dyn core::any::Any + Send + Sync>>,
    ) -> Self {
        Self {
            // SAFETY: forwarded caller contract.
            store: unsafe { Region::new(base, capacity, keep) },
            cached_tail: Cell::new(0),
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// 8-byte-aligned interior-mutable buffer standing in for a shared
    /// mapping; both endpoints keep the `Arc` alive.
    struct Words(Box<[core::cell::UnsafeCell<u64>]>);

    // SAFETY: test-only — access is serialized by the ring protocol.
    unsafe impl Send for Words {}
    // SAFETY: as above.
    unsafe impl Sync for Words {}

    fn region_ring(capacity: usize) -> (ShmProducer, ShmConsumer, std::sync::Arc<Words>) {
        let words = std::sync::Arc::new(Words(
            (0..ring_bytes(capacity) / 8)
                .map(|_| core::cell::UnsafeCell::new(0u64))
                .collect(),
        ));
        let base = core::cell::UnsafeCell::raw_get(words.0.as_ptr()).cast::<u8>();
        // SAFETY: `base` covers `ring_bytes(capacity)` zeroed aligned
        // bytes and the Arc keep-alives pin the allocation; one producer,
        // one consumer.
        let (tx, rx) = unsafe {
            (
                ShmProducer::attach(base, capacity, Some(words.clone())),
                ShmConsumer::attach(base, capacity, Some(words.clone())),
            )
        };
        (tx, rx, words)
    }

    fn region(capacity: usize) -> (ShmProducer, ShmConsumer) {
        let (tx, rx, _) = region_ring(capacity);
        (tx, rx)
    }

    fn heap(capacity: usize) -> (Sender<Descriptor>, Receiver<Descriptor>) {
        channel(capacity)
    }

    type Pair<S> = (Producer<S>, Consumer<S>);

    fn fifo_and_empty_full<S: Storage<Item = Descriptor>>(make: fn(usize) -> Pair<S>) {
        let (tx, rx) = make(4);
        assert_eq!(tx.capacity(), 4);
        assert_eq!(rx.pop(), None);
        for i in 0..4u64 {
            tx.push([i, i * 10]).unwrap();
        }
        assert_eq!(tx.push([9, 9]), Err([9, 9]), "ring full");
        for i in 0..4u64 {
            assert_eq!(rx.pop(), Some([i, i * 10]));
        }
        assert_eq!(rx.pop(), None);
    }

    fn wraparound_keeps_fifo<S: Storage<Item = Descriptor>>(make: fn(usize) -> Pair<S>) {
        let (tx, rx) = make(2);
        for round in 0..1000u64 {
            tx.push([round, !round]).unwrap();
            tx.push([round + 1, 0]).unwrap();
            assert_eq!(rx.pop(), Some([round, !round]));
            assert_eq!(rx.pop(), Some([round + 1, 0]));
        }
        assert_eq!(rx.pop(), None);
    }

    fn pop_burst_drains_up_to_max<S: Storage<Item = Descriptor>>(make: fn(usize) -> Pair<S>) {
        let (tx, rx) = make(16);
        for i in 0..10 {
            tx.push([i, 0]).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_burst(&mut out, 4), 4);
        assert_eq!(out, vec![[0, 0], [1, 0], [2, 0], [3, 0]]);
        assert_eq!(rx.pop_burst(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
    }

    fn cross_thread_stream_keeps_order<S>(make: fn(usize) -> Pair<S>)
    where
        S: Storage<Item = Descriptor> + Send + 'static,
    {
        const N: u64 = if cfg!(miri) { 300 } else { 100_000 };
        let (tx, rx) = make(8);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut d = [i, i.wrapping_mul(31)];
                while let Err(back) = tx.push(d) {
                    d = back;
                    // Yield, not spin: CI runners may be single-core.
                    std::thread::yield_now();
                }
            }
        });
        let mut next = 0u64;
        while next < N {
            if let Some([a, b]) = rx.pop() {
                assert_eq!(a, next, "descriptors arrived out of order");
                assert_eq!(b, a.wrapping_mul(31));
                next += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None);
    }

    /// The same cases over each storage: the algorithm is shared, so a
    /// case that fails on one and passes on the other is a storage bug.
    macro_rules! ring_suite {
        ($storage:ident) => {
            mod $storage {
                #[test]
                fn fifo_and_empty_full() {
                    super::fifo_and_empty_full(super::$storage);
                }
                #[test]
                fn wraparound_keeps_fifo() {
                    super::wraparound_keeps_fifo(super::$storage);
                }
                #[test]
                fn pop_burst_drains_up_to_max() {
                    super::pop_burst_drains_up_to_max(super::$storage);
                }
                #[test]
                fn cross_thread_stream_keeps_order() {
                    super::cross_thread_stream_keeps_order(super::$storage);
                }
            }
        };
    }
    ring_suite!(heap);
    ring_suite!(region);

    #[test]
    fn heap_capacity_rounds_up_to_power_of_two() {
        assert_eq!(channel::<u8>(5).0.capacity(), 8);
        assert_eq!(channel::<u8>(1).0.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn heap_zero_capacity_panics() {
        let _ = channel::<u8>(0);
    }

    #[test]
    fn heap_drops_in_flight_values_with_the_ring() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = channel(8);
        for _ in 0..5 {
            tx.push(Probe).unwrap();
        }
        drop(rx.pop()); // one popped and dropped by us
        drop(tx);
        drop(rx); // storage drop must release the remaining four
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn region_non_power_of_two_capacity_panics() {
        let _ = region(3);
    }

    /// The region layout is what an already-running peer process reads:
    /// tail at byte 0, head at byte 64, 16-byte entries from byte 128.
    #[test]
    fn region_layout_is_tail_0_head_64_entries_128() {
        let (tx, rx, words) = region_ring(4);
        let word = |byte: usize| {
            // SAFETY: single-threaded test; no ring operation is in flight.
            unsafe { *words.0[byte / 8].get() }
        };
        tx.push([0xaa, 0xbb]).unwrap();
        tx.push([0xcc, 0xdd]).unwrap();
        assert_eq!(rx.pop(), Some([0xaa, 0xbb]));
        assert_eq!((word(0), word(64)), (2, 1), "tail@0, head@64");
        assert_eq!((word(128), word(136)), (0xaa, 0xbb), "entry 0 @128");
        assert_eq!((word(144), word(152)), (0xcc, 0xdd), "entry 1 @144");
        assert_eq!(ring_bytes(4), 128 + 4 * 16);
        assert_eq!(ring_bytes(usize::MAX), usize::MAX, "saturates");
    }
}
