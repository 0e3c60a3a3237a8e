//! Loom model-checking suite for the lock-free queues.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p insane-queues --release
//! --test loom`.  Under that cfg the `insane_queues::sync` shim resolves
//! to loom's instrumented atomics and cells, so every interleaving the
//! checker explores exercises the real queue code (see DESIGN.md §7).
#![cfg(loom)]

use insane_queues::{channel, Bell, FreeStack, MpmcQueue};
use loom::sync::atomic::{AtomicU32, Ordering};
use loom::sync::Arc;
use loom::thread;

/// Ring: the consumer observes every value exactly once and in order,
/// including across the index wrap-around (capacity 2, 5 values = two
/// full laps plus one).  `channel` instantiates the generic
/// `Producer::push`/`Consumer::pop` over instrumented heap cells — the
/// same functions `ShmProducer`/`ShmConsumer` instantiate over a
/// shared-memory region — so a cell touched outside the head/tail
/// protocol fails the model here.
#[test]
fn ring_preserves_fifo_across_wraparound() {
    loom::model(|| {
        let (tx, rx) = channel::<u32>(2);
        let producer = thread::spawn(move || {
            for i in 0..5u32 {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut got = Vec::new();
        while got.len() < 5 {
            match rx.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(rx.pop().is_none());
    });
}

/// Bell: the park/wake handshake of `insane-ipc`'s datapath, in the order
/// `server::run_datapath` and `client::emit_on` perform it.  The producer
/// pushes, then rings if the bell is armed; the consumer polls, and on an
/// empty ring arms the bell, polls once more, and only then blocks.
/// `token` stands in for `Thread::unpark`'s sticky token.  The property:
/// the consumer never blocks with a descriptor in the ring and no wake
/// pending — whichever of its two polls the push falls behind, either
/// that poll or the producer's test of the bell catches it.
#[test]
fn bell_never_loses_a_wake() {
    loom::model(|| {
        let (tx, rx) = channel::<u32>(2);
        let word = Arc::new(AtomicU32::new(0));
        let token = Arc::new(AtomicU32::new(0));
        let producer = {
            let (word, token) = (Arc::clone(&word), Arc::clone(&token));
            thread::spawn(move || {
                tx.push(7).unwrap();
                if Bell::new(&word).ring_if_armed() {
                    token.store(1, Ordering::SeqCst);
                }
            })
        };
        let bell = Bell::new(&word);
        let polled = rx.pop().or_else(|| {
            bell.arm();
            rx.pop()
        });
        // Both polls missed, so this is where the consumer blocks.  The
        // push was still to come at the second poll, hence so was the
        // producer's look at the bell, armed before it: once the
        // producer is through, the token must be there.
        producer.join().unwrap();
        if polled.is_none() {
            assert_eq!(
                token.load(Ordering::SeqCst),
                1,
                "parked on a non-empty ring with no wake on its way"
            );
            bell.disarm();
            assert_eq!(rx.pop(), Some(7));
        }
        assert_eq!(rx.pop(), None);
    });
}

/// MPMC: two producers contend for sequence numbers; the consumer drains
/// exactly the pushed multiset (no loss, no duplication, per-producer
/// order preserved).
#[test]
fn mpmc_two_producers_no_loss_no_duplication() {
    loom::model(|| {
        let q = Arc::new(MpmcQueue::<u32>::new(4));
        let mut handles = Vec::new();
        for p in 0..2u32 {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..2u32 {
                    let mut v = p * 100 + i;
                    loop {
                        match q.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let mut got = Vec::new();
        while got.len() < 4 {
            match q.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        // Per-producer FIFO: 0 before 1, 100 before 101.
        let pos = |v: u32| got.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(100) < pos(101));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 100, 101]);
        assert!(q.pop().is_none());
    });
}

/// FreeStack: concurrent pop/push/pop cycles never hand the same index to
/// two holders at once — the generation tag in the packed head defeats
/// the classic ABA scenario (pop sees head A, another thread pops A,
/// pushes B, pushes A back, first CAS must fail).
#[test]
fn free_stack_aba_never_duplicates_an_index() {
    loom::model(|| {
        let stack = Arc::new(FreeStack::full(3));
        let mut handles = Vec::new();
        // Two churners run pop → (window) → push cycles; the window is
        // where a non-tagged stack would let the head pointer come back
        // around (A-B-A) and a stale CAS succeed.
        for _ in 0..2 {
            let stack = Arc::clone(&stack);
            handles.push(thread::spawn(move || {
                for _ in 0..2 {
                    if let Some(i) = stack.pop() {
                        thread::yield_now();
                        stack.push(i);
                    }
                }
            }));
        }
        // Meanwhile this thread holds two slots at once: if ABA corruption
        // handed out an index twice, the two simultaneously-held indices
        // could collide.
        let a = stack.pop();
        let b = stack.pop();
        if let (Some(a), Some(b)) = (a, b) {
            assert_ne!(a, b, "free stack handed out one index twice");
        }
        if let Some(a) = a {
            stack.push(a);
        }
        if let Some(b) = b {
            stack.push(b);
        }
        for h in handles {
            h.join().unwrap();
        }
        // ABA corruption loses or duplicates nodes; after every holder has
        // pushed back, the drain must yield exactly the original indices.
        let mut drained = Vec::new();
        while let Some(i) = stack.pop() {
            drained.push(i);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2]);
    });
}

/// SnapshotCell publish/read race: however the reader's `load`/`refresh`
/// interleaves with the writer's `store`, it observes either the old or
/// the new snapshot in full — both fields of the pair always agree, so a
/// torn read (pointer to a half-published value) is impossible.
#[test]
fn snapshot_cell_readers_never_see_torn_values() {
    loom::model(|| {
        let cell = Arc::new(insane_queues::SnapshotCell::new((1u64, 1u64)));
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.publish(Arc::new((2, 2)));
            })
        };
        let mut cached = cell.load();
        let (a, b) = *cached;
        assert_eq!(a, b, "torn snapshot via load");
        cell.refresh(&mut cached);
        let (a, b) = *cached;
        assert_eq!(a, b, "torn snapshot via refresh");
        writer.join().unwrap();
        // After the writer is joined the publication must be visible.
        assert!(cached.0 == 2 || cell.load().0 == 2);
    });
}

/// SnapshotCell reclamation: a snapshot displaced while a reader races
/// the writer is dropped exactly once, and only after both the cell and
/// every reader-held `Arc` let go — no double free, no leak, no
/// use-after-free of the displaced value.
#[test]
fn snapshot_cell_reclaims_displaced_value_exactly_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counted(Arc<AtomicUsize>, u64);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    loom::model(|| {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(insane_queues::SnapshotCell::new(Counted(
            Arc::clone(&drops),
            1,
        )));
        let reader = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                // Race the pin window against the writer's swap+drain;
                // reading the value proves the snapshot is alive.
                let held = cell.load();
                held.1
            })
        };
        cell.publish(Arc::new(Counted(Arc::clone(&drops), 2)));
        let seen = reader.join().unwrap();
        assert!(seen == 1 || seen == 2, "reader saw a value never published");
        // The reader's Arc is gone and the old value was displaced: the
        // first snapshot must have dropped exactly once by now.
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(cell);
        assert_eq!(drops.load(Ordering::SeqCst), 2, "cell leaked its value");
    });
}

/// SnapshotCell with two successive publications racing a `refresh`ing
/// reader: the reader's cached snapshot only ever moves forward through
/// the published sequence, and settles on the final value once the
/// writer is joined.
#[test]
fn snapshot_cell_refresh_moves_monotonically_forward() {
    loom::model(|| {
        let cell = Arc::new(insane_queues::SnapshotCell::new(0u64));
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.publish(Arc::new(1));
                cell.publish(Arc::new(2));
            })
        };
        let mut cached = cell.load();
        let mut last = *cached;
        for _ in 0..2 {
            cell.refresh(&mut cached);
            assert!(*cached >= last, "snapshot went backwards");
            last = *cached;
        }
        writer.join().unwrap();
        cell.refresh(&mut cached);
        assert_eq!(*cached, 2);
    });
}
