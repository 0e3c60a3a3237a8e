//! Lock-free free-list over `u32` indices (Treiber stack with an ABA tag).
//!
//! The INSANE memory manager keeps its free slot ids in one of these:
//! slots are pushed back by whichever thread — or process — releases a
//! buffer and popped by whichever application thread asks for one
//! (`get_buffer`, paper Fig. 2), so the structure must be
//! multi-producer/multi-consumer.  Because entries are indices rather than
//! pointers, the classic ABA hazard is defeated with a 32-bit tag packed
//! next to the 32-bit head index in one `AtomicU64`.
//!
//! The CAS loop is written once, in [`FreeList`], over *borrowed* words: a
//! head word, a `next[]` array and a length word.  The slot pool points it
//! at words inside its (possibly shared) segment; [`FreeStack`] points it at
//! words it owns.  Either way it is the code the loom suites model check.

use core::fmt;

use crate::sync::{AtomicU32, AtomicU64, Ordering};

const NIL: u32 = u32::MAX;

fn pack(tag: u32, index: u32) -> u64 {
    ((tag as u64) << 32) | index as u64
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// A Treiber free list of the indices `0..next.len()` over words owned by
/// someone else.
#[derive(Debug, Clone, Copy)]
pub struct FreeList<'a> {
    /// Upper 32 bits: ABA tag; lower 32 bits: top index or `NIL`.
    head: &'a AtomicU64,
    /// `next[i]` is the index below `i` in the list, or `NIL`.
    next: &'a [AtomicU32],
    len: &'a AtomicU64,
}

impl<'a> FreeList<'a> {
    /// Views `head`, `next` and `len` as a free list.  The words must have
    /// been set up by [`FreeList::fill`] (possibly by another process);
    /// `next` must be shorter than `u32::MAX`.
    pub fn new(head: &'a AtomicU64, next: &'a [AtomicU32], len: &'a AtomicU64) -> Self {
        Self { head, next, len }
    }

    /// Resets the list to hold every index, popping in ascending order
    /// (`0` first).  For set-up, before the words are shared: not safe
    /// against concurrent use.
    pub fn fill(&self) {
        self.head.store(pack(0, NIL), Ordering::Relaxed);
        self.len.store(0, Ordering::Relaxed);
        for index in (0..self.next.len() as u32).rev() {
            self.push(index);
        }
    }

    /// Pushes `index` onto the list.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.  Pushing an index that is already
    /// on the list is a logic error the list cannot detect; the memory
    /// manager layers generation tags on top to catch double-release.
    // insane-lint: hot-path-root
    // insane-lint: allow-fn(hot-path-panic) -- the documented range assert is the bound proof for the index below
    #[inline] // into the slot pool's acquire/release, which live in another crate
    pub fn push(&self, index: u32) {
        assert!((index as usize) < self.next.len(), "index out of range");
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let (tag, top) = unpack(head);
            self.next[index as usize].store(top, Ordering::Relaxed);
            let new = pack(tag.wrapping_add(1), index);
            match self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.len.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(actual) => head = actual,
            }
        }
    }

    /// Pops the most recently pushed index, or `None` when empty.
    ///
    /// A head word naming an index outside the list — possible only when a
    /// process sharing the words scribbled on them — also reads as empty.
    // insane-lint: hot-path-root
    #[inline]
    pub fn pop(&self) -> Option<u32> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let (tag, top) = unpack(head);
            let below = self.next.get(top as usize)?.load(Ordering::Relaxed);
            let new = pack(tag.wrapping_add(1), below);
            match self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    return Some(top);
                }
                Err(actual) => head = actual,
            }
        }
    }

    /// Number of indices currently on the list (racy snapshot).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }

    /// Whether the list is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`FreeList`] that owns its words.
///
/// # Examples
///
/// ```
/// use insane_queues::FreeStack;
///
/// let stack = FreeStack::full(4); // starts holding 0,1,2,3
/// assert_eq!(stack.pop(), Some(0));
/// assert_eq!(stack.pop(), Some(1));
/// stack.push(0);
/// assert_eq!(stack.pop(), Some(0));
/// ```
pub struct FreeStack {
    next: Box<[AtomicU32]>,
    head: AtomicU64,
    len: AtomicU64,
}

impl fmt::Debug for FreeStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FreeStack")
            .field("capacity", &self.next.len())
            .field("len", &self.list().len())
            .finish()
    }
}

impl FreeStack {
    /// Creates a stack holding every index in `0..capacity`, popping in
    /// ascending order (`0` first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity >= u32::MAX` (the maximum index is reserved).
    pub fn full(capacity: usize) -> Self {
        assert!((capacity as u64) < NIL as u64, "capacity too large");
        let stack = Self {
            next: (0..capacity).map(|_| AtomicU32::new(NIL)).collect(),
            head: AtomicU64::new(0),
            len: AtomicU64::new(0),
        };
        stack.list().fill();
        stack
    }

    fn list(&self) -> FreeList<'_> {
        FreeList::new(&self.head, &self.next, &self.len)
    }

    /// Pushes `index`; see [`FreeList::push`].
    pub fn push(&self, index: u32) {
        self.list().push(index);
    }

    /// Pops the most recently pushed index; see [`FreeList::pop`].
    pub fn pop(&self) -> Option<u32> {
        self.list().pop()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn full_pops_ascending() {
        let s = FreeStack::full(4);
        assert_eq!(s.pop(), Some(0));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn lifo_order() {
        let s = FreeStack::full(8);
        while s.pop().is_some() {}
        s.push(3);
        s.push(5);
        assert_eq!(s.pop(), Some(5));
        assert_eq!(s.pop(), Some(3));
    }

    #[test]
    fn head_naming_an_index_outside_the_list_reads_as_empty() {
        let (head, len) = (AtomicU64::new(pack(3, 9)), AtomicU64::new(1));
        let next = [AtomicU32::new(NIL), AtomicU32::new(NIL)];
        assert_eq!(FreeList::new(&head, &next, &len).pop(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let s = FreeStack::full(2);
        s.push(2);
    }

    #[test]
    fn concurrent_churn_never_duplicates_indices() {
        const THREADS: usize = 8;
        const ROUNDS: usize = if cfg!(miri) { 200 } else { 10_000 };
        let stack = Arc::new(FreeStack::full(64));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let stack = Arc::clone(&stack);
            handles.push(std::thread::spawn(move || {
                let mut held = Vec::new();
                for round in 0..ROUNDS {
                    if round % 3 == 0 || held.is_empty() {
                        if let Some(i) = stack.pop() {
                            held.push(i);
                        }
                    } else {
                        stack.push(held.pop().unwrap());
                    }
                }
                held
            }));
        }
        let mut all: Vec<u32> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        while let Some(i) = stack.pop() {
            all.push(i);
        }
        // Every index accounted for exactly once.
        assert_eq!(all.len(), 64);
        let unique: HashSet<u32> = all.iter().copied().collect();
        assert_eq!(unique.len(), 64);
        assert!(all.iter().all(|&i| i < 64));
    }
}
