//! Loom model-checking suite for the slot pool.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p insane-memory --release
//! --test loom`.  Under that cfg `Segment::heap` hands the pool
//! `insane_queues::sync` atomics for every word of its layout — header,
//! counters, free-list head and `next` array, state words — so the models
//! below run the segment-backed `Store` that ships, including
//! `create_in_segment`/`attach_segment` and `force_reclaim` (payload bytes
//! are exercised by Miri and the sanitizer jobs instead; see DESIGN.md §7).
#![cfg(loom)]

use insane_memory::{MemoryError, PoolConfig, Segment, SlotPool};
use loom::thread;

fn pool(slots: usize) -> SlotPool {
    SlotPool::new(PoolConfig::new(7, 64, slots)).expect("pool config is valid")
}

/// A segment holding a freshly created pool, as the daemon sets one up.
fn segment_pool(slots: usize) -> (SlotPool, Segment) {
    let config = PoolConfig::new(7, 64, slots);
    let len = SlotPool::required_segment_len(&config).expect("pool config is valid");
    let segment = Segment::heap(len);
    let pool = SlotPool::create_in_segment(config, segment.clone()).expect("segment fits");
    (pool, segment)
}

/// The paper's lend → emit → release cycle across two threads: the
/// producer acquires and emits a token; the consumer views, releases, and
/// thereby bumps the generation so the producer's retained copy goes
/// stale.  Accounting must return to zero.
#[test]
fn lend_emit_release_bumps_generation() {
    loom::model(|| {
        let p = pool(2);
        let guard = p.acquire(8).expect("fresh pool has free slots");
        let token = guard.into_token();
        let consumer = {
            let p = p.clone();
            thread::spawn(move || {
                let view = p.view(token).expect("token is live until released");
                drop(view); // drop releases the checkout
            })
        };
        consumer.join().unwrap();
        // The consumer's release bumped the generation: every retained
        // copy of the token is now stale, never a silent alias.
        assert_eq!(p.view(token).err(), Some(MemoryError::StaleToken));
        assert_eq!(p.release(token).err(), Some(MemoryError::StaleToken));
        let stats = p.stats();
        assert_eq!(stats.in_use, 0, "slot leaked through the emit cycle");
        assert_eq!(p.free_slots(), 2);
    });
}

/// Two threads race to release the same token: exactly one must win, the
/// loser must get `StaleToken` (not a panic, not a refcount underflow),
/// and the slot must be freed exactly once.
#[test]
fn racing_double_release_has_exactly_one_winner() {
    loom::model(|| {
        let p = pool(1);
        let token = p
            .acquire(4)
            .expect("fresh pool has a free slot")
            .into_token();
        let racer = {
            let p = p.clone();
            thread::spawn(move || p.release(token).is_ok())
        };
        let local_won = p.release(token).is_ok();
        let racer_won = racer.join().unwrap();
        assert!(
            local_won ^ racer_won,
            "racing releases: expected exactly one winner, got local={local_won} racer={racer_won}"
        );
        let stats = p.stats();
        assert_eq!(stats.in_use, 0);
        assert_eq!(
            stats.misuse_rejections, 1,
            "the losing release must be counted"
        );
        // Freed exactly once: the slot is reusable and the pool is not
        // over-freed (a second pop from a corrupted free list would panic
        // or alias).
        let again = p.acquire(4).expect("slot must be reusable after release");
        assert_eq!(p.stats().in_use, 1);
        drop(again);
        assert_eq!(p.stats().in_use, 0);
    });
}

/// Multi-sink sharing (`clone_ref`, Fig. 8b): two views of one slot drop
/// on different threads.  The refcount must pass 2 → 1 → 0 with the
/// generation bump fused to the final decrement — the slot is freed
/// exactly once and only after the last reader is gone.
#[test]
fn concurrent_view_drops_free_the_slot_exactly_once() {
    loom::model(|| {
        let p = pool(1);
        let token = p
            .acquire(4)
            .expect("fresh pool has a free slot")
            .into_token();
        let v1 = p.view(token).expect("token is live");
        let v2 = v1.clone_ref();
        assert_eq!(p.stats().in_use, 1);
        let t1 = thread::spawn(move || drop(v1));
        let t2 = thread::spawn(move || drop(v2));
        t1.join().unwrap();
        t2.join().unwrap();
        let stats = p.stats();
        assert_eq!(stats.in_use, 0, "last drop must return the slot");
        assert_eq!(stats.misuse_rejections, 0, "both drops were legitimate");
        assert_eq!(p.free_slots(), 1, "slot must end up free exactly once");
        // The final decrement bumped the generation: the original token
        // (and any copy of it) is stale, never an alias of the next owner.
        assert_eq!(p.view(token).err(), Some(MemoryError::StaleToken));
    });
}

/// The cross-process ownership story: the daemon's handle
/// (`create_in_segment`) and a client's handle (`attach_segment`) run
/// acquire/release against the *same* free-list and state words.  While
/// both hold a slot they must hold different ones, and a token minted
/// through one handle must be releasable through the other.
#[test]
fn created_and_attached_handles_share_one_segment() {
    loom::model(|| {
        let (daemon, segment) = segment_pool(2);
        let client = SlotPool::attach_segment(segment).expect("creator published the pool");
        let client_thread = thread::spawn(move || {
            for _ in 0..2 {
                let mut guard = client.acquire(8).expect("two handles, two slots");
                guard.fill(0x55);
                thread::yield_now();
                assert!(guard.iter().all(|&b| b == 0x55), "slot lent out twice");
            }
            client
                .acquire(4)
                .expect("two handles, two slots")
                .into_token()
        });
        for _ in 0..2 {
            let mut guard = daemon.acquire(8).expect("two handles, two slots");
            guard.fill(0xaa);
            thread::yield_now();
            assert!(guard.iter().all(|&b| b == 0xaa), "slot lent out twice");
        }
        let token = client_thread.join().unwrap();
        assert_eq!(daemon.stats().in_use, 1);
        daemon.release(token).expect("client-minted token is live");
        let stats = daemon.stats();
        assert_eq!(stats.in_use, 0);
        assert_eq!(stats.acquires, 5);
        assert_eq!(stats.misuse_rejections, 0);
        assert_eq!(daemon.free_slots(), 2);
    });
}

/// Crash recovery racing a not-quite-dead client: `force_reclaim` and a
/// stale `SlotGuard` drop both try to retire the same checkout.  Exactly
/// one release wins (the loser is a counted misuse, not a second free),
/// and no slot leaks.
#[test]
fn force_reclaim_racing_a_guard_drop_frees_the_slot_exactly_once() {
    loom::model(|| {
        let (pool, _segment) = segment_pool(2);
        let guard = pool.acquire(4).expect("fresh pool has free slots");
        let reclaimer = {
            let pool = pool.clone();
            thread::spawn(move || pool.force_reclaim())
        };
        drop(guard);
        let reclaimed = reclaimer.join().unwrap();
        let stats = pool.stats();
        assert!(reclaimed <= 1);
        assert_eq!(
            stats.misuse_rejections, reclaimed as u64,
            "the guard drop loses exactly when the reclaim won"
        );
        assert_eq!(stats.in_use, 0, "checkout retired twice or not at all");
        assert_eq!(pool.free_slots(), 2, "slot leaked or freed twice");
        // Freed exactly once: both slots come back out, and they differ.
        let a = pool.acquire(1).expect("slot 1 of 2");
        let b = pool.acquire(1).expect("slot 2 of 2");
        assert_ne!(a.token().index(), b.token().index());
        assert!(pool.acquire(1).is_err());
    });
}

/// The in-process path racing crash recovery: one thread freezes its
/// guard (`into_view`), shares it (`clone_ref`) and drops both references
/// while `force_reclaim` walks the state words.  The freeze adds no
/// transition of its own, so wherever the reclaim lands — before the
/// retain, between the two drops, after the last — the slot is freed
/// exactly once and every operation that lost is a counted misuse.
#[test]
fn force_reclaim_racing_frozen_views_frees_the_slot_exactly_once() {
    loom::model(|| {
        let (pool, _segment) = segment_pool(2);
        let guard = pool.acquire(4).expect("fresh pool has free slots");
        let reclaimer = {
            let pool = pool.clone();
            thread::spawn(move || pool.force_reclaim())
        };
        let view = guard.into_view();
        let second = view.clone_ref();
        drop(view);
        drop(second);
        let reclaimed = reclaimer.join().unwrap();
        let stats = pool.stats();
        assert!(reclaimed <= 1);
        // A winning reclaim fails the retain and both drops, both drops,
        // or only the last drop, depending on where it landed.
        let lost = stats.misuse_rejections;
        assert!(
            if reclaimed == 1 {
                (1..=3).contains(&lost)
            } else {
                lost == 0
            },
            "reclaimed={reclaimed} but {lost} operations lost"
        );
        assert_eq!(stats.in_use, 0, "checkout retired twice or not at all");
        assert_eq!(pool.free_slots(), 2, "slot leaked or freed twice");
        let a = pool.acquire(1).expect("slot 1 of 2");
        let b = pool.acquire(1).expect("slot 2 of 2");
        assert_ne!(a.token().index(), b.token().index());
        assert!(pool.acquire(1).is_err());
    });
}
