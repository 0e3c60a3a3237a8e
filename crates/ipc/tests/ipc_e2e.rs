//! End-to-end cross-process datapath test: a real `insaned` daemon in
//! its own OS process, ≥10⁵ messages round-tripped through the shared
//! segment, with three properties asserted along the way:
//!
//! 1. **Per-stream ordering** — every received payload carries the next
//!    expected sequence number.
//! 2. **Zero copies** — each received view points into the `mmap`ed
//!    segment itself (`contains_ptr`), never a private buffer.
//! 3. **Zero allocations** — the steady-state `lend → emit → try_recv →
//!    drop` loop performs no heap allocation in this process (counting
//!    global allocator), mirroring `crates/telemetry/tests/overhead.rs`.
//!
//! Before the stream starts, the idle path: the daemon of a silent
//! session parks, the first emit wakes it with exactly one `bell` line,
//! and traffic that keeps it polling writes (almost) no more.
//!
//! One `#[test]` only: the allocation counter is global, and a second
//! concurrent test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use insane_ipc::server::{BACKSTOP, SPIN_WINDOW};
use insane_ipc::IpcClient;

mod common;
use common::{await_stats, round_trip, spawn_daemon};

/// Counts every heap allocation made through the global allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic increment with no other side effects, so every
// GlobalAlloc contract (layout fidelity, uniqueness, deallocation
// pairing) is exactly the system allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: callers uphold the GlobalAlloc contract (nonzero-size
    // layout); this wrapper adds no requirements of its own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller, which
        // upholds the GlobalAlloc contract for it.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers pass a pointer previously returned by `alloc`
    // with the same layout, per the GlobalAlloc contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` through
        // this same wrapper, which allocated via `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const MESSAGES: u64 = 120_000;

#[test]
fn cross_process_datapath_is_ordered_zero_copy_and_allocation_free() {
    let (mut daemon, socket) = spawn_daemon("e2e-datapath");

    let mut client = IpcClient::attach(&socket, "e2e", "fast").expect("attach");
    let stream = client.create_stream("seq").expect("stream");

    // Nothing emitted yet: the daemon polls for one spin window, parks.
    // (A park counted *since the attach*: the attach itself woke it.)
    let attached = client.daemon_stats().expect("daemon stats");
    let parked = await_stats(&mut client, "parked", |s| s.parks > attached.parks);
    assert_eq!((parked.forwarded, parked.bells), (0, 0));
    // Had the attach's wake found it polling, that park returned at once
    // on the left-over token; it is in the next one by now.
    std::thread::sleep(SPIN_WINDOW);

    // Warm up: full round trips (sequence number 0 throughout) so any
    // lazy one-time allocation in the path happens before the counter
    // snapshot.  The first finds the daemon parked and rings, once; it
    // is back long before the park's own time-out would have fetched it
    // (typically in ≈ 50 µs; the bound leaves room for a busy host).
    let woke_in = round_trip(&client, stream, 0);
    assert!(woke_in < BACKSTOP / 2, "wake took {woke_in:?}");
    let woken = client.daemon_stats().expect("daemon stats");
    assert_eq!((woken.forwarded, woken.bells), (1, 1));
    // Back to back, the daemon never leaves its spin window: no `bell`
    // per message.  Each stats request may let it park once, and a host
    // that stalls this thread for a spin window does too, so a noisy
    // thousand gets two more tries; a `bell` per message fails all three.
    let mut rung = Vec::new();
    for _ in 0..3 {
        let before = client.daemon_stats().expect("daemon stats").bells;
        for _ in 0..1000 {
            round_trip(&client, stream, 0);
        }
        rung.push(client.daemon_stats().expect("daemon stats").bells - before);
        if rung.last() <= Some(&10) {
            break;
        }
    }
    assert!(
        rung.last() <= Some(&10),
        "a polling daemon was rung {rung:?} times per 1000 round trips"
    );

    let stats_before = client.pool().stats();
    assert_eq!(stats_before.in_use, 0, "warmup leaked a checkout");
    let allocs_before = allocations();

    // Steady state: keep a few messages in flight, assert ordering and
    // zero-copy on every receive.  `next_send` is the sequence number to
    // stamp next; `next_recv` the one we must see next.
    let mut next_send: u64 = 1; // 0 was the warmup
    let mut next_recv: u64 = 1;
    let window: u64 = 16; // < ring capacity and < slot count
    while next_recv <= MESSAGES {
        while next_send <= MESSAGES && next_send - next_recv < window {
            let mut guard = match client.lend(8) {
                Ok(guard) => guard,
                Err(_) => break, // pool back-pressure: drain first
            };
            guard.copy_from_slice(&next_send.to_le_bytes());
            match client.emit(stream, guard) {
                Ok(()) => next_send += 1,
                Err(guard) => {
                    drop(guard); // ring full: return the slot, drain
                    break;
                }
            }
        }
        let mut progressed = false;
        while let Some((got_stream, view)) = client.try_recv() {
            assert_eq!(got_stream, stream);
            assert!(
                client.segment().contains_ptr(view.as_ptr()),
                "received payload is outside the shared segment: not zero-copy"
            );
            let mut seq = [0u8; 8];
            seq.copy_from_slice(&view[..8]);
            assert_eq!(u64::from_le_bytes(seq), next_recv, "out-of-order delivery");
            next_recv += 1;
            progressed = true;
        }
        if !progressed {
            // Single-core runners: let the daemon's datapath thread in.
            std::thread::yield_now();
        }
    }

    let allocs_after = allocations();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state datapath allocated on the heap"
    );

    // Every checkout came home: the pool reconciles to zero leaks.
    let stats_after = client.pool().stats();
    assert_eq!(stats_after.in_use, 0, "datapath leaked slot checkouts");
    assert_eq!(
        stats_after.misuse_rejections, 0,
        "token discipline violated"
    );
    assert!(stats_after.acquires >= MESSAGES);

    // Clean shutdown: daemon exits and removes its socket.
    client.request_shutdown().expect("shutdown request");
    client.detach().expect("detach");
    let status = daemon.0.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited with {status:?}");
    assert!(
        !socket.exists(),
        "daemon left its control socket behind on clean shutdown"
    );
}
