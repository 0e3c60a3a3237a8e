//! The sharded polling engine: TX drain fairness, stream→shard
//! assignment, per-stream ordering across shards, and failover when a
//! datapath runs more than one shard.

use std::time::Duration;

use insane::core::runtime::poll_until_quiescent;
use insane::fabric::Endpoint;
use insane::{
    ChannelId, ConsumeMode, ControlPlaneConfig, EmitOutcome, Fabric, InsaneError, QosPolicy,
    Runtime, RuntimeConfig, Technology, TestbedProfile, ThreadingMode,
};
use proptest::prelude::*;

fn manual(id: u32, techs: &[Technology]) -> RuntimeConfig {
    RuntimeConfig::new(id)
        .with_technologies(techs)
        .with_threading(ThreadingMode::Manual)
}

fn fast_control() -> ControlPlaneConfig {
    ControlPlaneConfig {
        retransmit_timeout: Duration::from_micros(200),
        max_attempts: 32,
        heartbeat_interval: Duration::from_millis(1),
        miss_threshold: 64,
    }
}

/// Regression test for the TX drain starvation bug: the old drain loop
/// always started at snapshot index 0, so one saturating stream that
/// filled the whole burst on every poll starved every stream after it
/// indefinitely.  The rotating per-shard cursor guarantees each stream
/// is visited within one rotation.
#[test]
fn saturating_stream_cannot_starve_its_neighbors() {
    let fabric = Fabric::new(TestbedProfile::local());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    // A tiny burst and shallow TX queues make saturation cheap to hold.
    let config = |id| {
        let mut c = manual(id, &[Technology::KernelUdp]);
        c.burst = 4;
        c.tx_queue_depth = 16;
        c
    };
    let rt_a = Runtime::start(config(1), &fabric, a).unwrap();
    let rt_b = Runtime::start(config(2), &fabric, b).unwrap();
    rt_a.add_peer(b).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);

    let session_a = insane::Session::connect(&rt_a).unwrap();
    let session_b = insane::Session::connect(&rt_b).unwrap();
    // The saturator is created first so it sits at snapshot index 0 —
    // the position the pre-fix drain loop always serviced first.
    let saturator_stream = session_a.create_stream(QosPolicy::slow()).unwrap();
    let victim_stream = session_a.create_stream(QosPolicy::slow()).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::slow()).unwrap();
    let _sat_sink = stream_b.create_sink(ChannelId(1)).unwrap();
    let _victim_sink = stream_b.create_sink(ChannelId(2)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);
    let saturator = saturator_stream.create_source(ChannelId(1)).unwrap();
    let victim = victim_stream.create_source(ChannelId(2)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);

    // Fill the saturator's TX queue to the brim.
    let top_up = |rt: &Runtime| loop {
        match saturator.get_buffer(8) {
            Ok(mut buf) => {
                buf.copy_from_slice(b"saturate");
                match saturator.emit(buf) {
                    Ok(_) => {}
                    Err(InsaneError::Backpressure) => break,
                    Err(e) => panic!("saturator emit: {e}"),
                }
            }
            Err(InsaneError::Memory(_)) => {
                // Pool pressure: flush a burst so slots recycle, then
                // keep topping up.
                rt.poll_transmit(Technology::KernelUdp);
            }
            Err(e) => panic!("saturator get_buffer: {e}"),
        }
    };
    top_up(&rt_a);

    // One message on the victim stream, queued behind the saturation.
    let mut buf = victim.get_buffer(6).unwrap();
    buf.copy_from_slice(b"victim");
    let token = victim.emit(buf).unwrap();

    // Drive only the TX path, refilling the saturator before every poll
    // so its queue never dips below a full burst.  Pre-fix this loop
    // never completed the victim's emit; the rotating cursor services
    // it within a handful of polls.
    let mut completed = false;
    for _ in 0..200 {
        top_up(&rt_a);
        rt_a.poll_transmit(Technology::KernelUdp);
        if victim.emit_outcome(token) != EmitOutcome::Pending {
            completed = true;
            break;
        }
    }
    assert!(
        completed,
        "victim stream starved: its lone message never left the TX queue \
         while a neighboring stream kept the burst saturated"
    );
    assert_ne!(victim.emit_outcome(token), EmitOutcome::Failed);
}

proptest! {
    /// Every stream id maps to exactly one in-range shard, and the
    /// assignment is a pure function of (id, shard count): recomputing
    /// it — as the runtime does on every snapshot refresh and every
    /// restart — always lands on the same shard.
    #[test]
    fn stream_assignment_is_total_stable_and_exclusive(
        id in any::<u64>(),
        shards in 1usize..65,
    ) {
        let owner = insane::shard_of_stream(id, shards);
        prop_assert!(owner < shards);
        prop_assert_eq!(owner, insane::shard_of_stream(id, shards));
        // Exclusivity: the stream belongs to shard k iff k is the owner.
        let owners = (0..shards)
            .filter(|&k| insane::shard_of_stream(id, shards) == k)
            .count();
        prop_assert_eq!(owners, 1);
        // A single-shard engine degenerates to the unsharded layout.
        prop_assert_eq!(insane::shard_of_stream(id, 1), 0);
    }

    /// RX fan-out obeys the same contract on channel ids.
    #[test]
    fn channel_assignment_is_total_and_stable(
        channel in any::<u32>(),
        shards in 1usize..65,
    ) {
        let owner = insane::shard_of_channel(channel, shards);
        prop_assert!(owner < shards);
        prop_assert_eq!(owner, insane::shard_of_channel(channel, shards));
        prop_assert_eq!(insane::shard_of_channel(channel, 1), 0);
    }
}

/// A 2-shard engine distributes streams across both shards while every
/// stream's messages still arrive complete and in emit order.
#[test]
fn two_shards_preserve_per_stream_ordering() {
    const STREAMS: usize = 8;
    const MSGS: u32 = 40;

    let fabric = Fabric::new(TestbedProfile::local());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let config = |id| manual(id, &[Technology::KernelUdp]).with_shards_per_datapath(2);
    let rt_a = Runtime::start(config(1), &fabric, a).unwrap();
    let rt_b = Runtime::start(config(2), &fabric, b).unwrap();
    assert_eq!(rt_a.shards_per_datapath(), 2);
    rt_a.add_peer(b).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);

    let session_a = insane::Session::connect(&rt_a).unwrap();
    let session_b = insane::Session::connect(&rt_b).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::slow()).unwrap();
    let sinks: Vec<_> = (0..STREAMS)
        .map(|i| stream_b.create_sink(ChannelId(i as u32)).unwrap())
        .collect();
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);
    let sources: Vec<_> = (0..STREAMS)
        .map(|i| {
            let stream = session_a.create_stream(QosPolicy::slow()).unwrap();
            stream.create_source(ChannelId(i as u32)).unwrap()
        })
        .collect();
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);

    // Emit interleaved across streams, draining as we go; each payload
    // carries (stream, seq) so the sink side can replay the order.
    let mut shard_did_work = [false; 2];
    let mut received: Vec<Vec<u32>> = vec![Vec::new(); STREAMS];
    let drain = |shard_did_work: &mut [bool; 2], received: &mut Vec<Vec<u32>>| {
        for (shard, did) in shard_did_work.iter_mut().enumerate() {
            if rt_a.poll_technology_shard(Technology::KernelUdp, shard) {
                *did = true;
            }
        }
        rt_b.poll_once();
        for (i, sink) in sinks.iter().enumerate() {
            while let Ok(msg) = sink.consume(ConsumeMode::NonBlocking) {
                assert_eq!(msg.len(), 8, "payload shape");
                let stream = u32::from_le_bytes(msg[0..4].try_into().unwrap());
                let seq = u32::from_le_bytes(msg[4..8].try_into().unwrap());
                assert_eq!(stream as usize, i, "message routed to wrong sink");
                received[i].push(seq);
            }
        }
    };
    for seq in 0..MSGS {
        for (i, source) in sources.iter().enumerate() {
            let payload: Vec<u8> = (i as u32)
                .to_le_bytes()
                .into_iter()
                .chain(seq.to_le_bytes())
                .collect();
            loop {
                match source.get_buffer(payload.len()) {
                    Ok(mut buf) => {
                        buf.copy_from_slice(&payload);
                        match source.emit(buf) {
                            Ok(_) => break,
                            Err(InsaneError::Backpressure) => {
                                drain(&mut shard_did_work, &mut received)
                            }
                            Err(e) => panic!("emit: {e}"),
                        }
                    }
                    Err(InsaneError::Memory(_)) => drain(&mut shard_did_work, &mut received),
                    Err(e) => panic!("get_buffer: {e}"),
                }
            }
        }
        drain(&mut shard_did_work, &mut received);
    }
    let mut spins = 0u32;
    while received.iter().any(|r| r.len() < MSGS as usize) {
        drain(&mut shard_did_work, &mut received);
        spins += 1;
        assert!(
            spins < 2_000_000,
            "messages never all arrived: {received:?}"
        );
    }

    for (i, seqs) in received.iter().enumerate() {
        let expected: Vec<u32> = (0..MSGS).collect();
        assert_eq!(
            seqs, &expected,
            "stream {i} must deliver every message in emit order"
        );
    }
    assert!(
        shard_did_work[0] && shard_did_work[1],
        "both shards must carry traffic with {STREAMS} streams: {shard_did_work:?}"
    );
}

/// The threaded path: `ThreadingMode::PerDatapath` with 2 shards spawns
/// one polling thread per (datapath, shard), traffic flows end to end
/// over blocking consumes on several streams, and dropping the runtimes
/// winds the shard threads down cleanly.
#[test]
fn threaded_mode_runs_one_thread_per_shard() {
    const STREAMS: usize = 4;

    let fabric = Fabric::new(TestbedProfile::local());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let config = |id| {
        RuntimeConfig::new(id)
            .with_technologies(&[Technology::KernelUdp])
            .with_shards_per_datapath(2)
    };
    let rt_a = Runtime::start(config(1), &fabric, a).unwrap();
    let rt_b = Runtime::start(config(2), &fabric, b).unwrap();
    rt_a.add_peer(b).unwrap();

    let session_a = insane::Session::connect(&rt_a).unwrap();
    let session_b = insane::Session::connect(&rt_b).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::slow()).unwrap();
    let sinks: Vec<_> = (0..STREAMS)
        .map(|i| stream_b.create_sink(ChannelId(i as u32)).unwrap())
        .collect();
    // Give the announcements a moment; the polling threads drive the
    // control plane on their own.
    std::thread::sleep(Duration::from_millis(50));
    let sources: Vec<_> = (0..STREAMS)
        .map(|i| {
            let stream = session_a.create_stream(QosPolicy::slow()).unwrap();
            stream.create_source(ChannelId(i as u32)).unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    for round in 0..3u8 {
        for (i, source) in sources.iter().enumerate() {
            let payload = [round, i as u8];
            loop {
                match source.get_buffer(2) {
                    Ok(mut buf) => {
                        buf.copy_from_slice(&payload);
                        match source.emit(buf) {
                            Ok(_) => break,
                            Err(InsaneError::Backpressure) => std::thread::yield_now(),
                            Err(e) => panic!("emit: {e}"),
                        }
                    }
                    Err(InsaneError::Memory(_)) => std::thread::yield_now(),
                    Err(e) => panic!("get_buffer: {e}"),
                }
            }
        }
        for (i, sink) in sinks.iter().enumerate() {
            let msg = sink.consume(ConsumeMode::Blocking).unwrap();
            assert_eq!(&*msg, &[round, i as u8], "stream {i} round {round}");
        }
    }

    // Shutdown joins every shard thread (a hang here fails the test via
    // the harness timeout rather than leaking busy-polling threads).
    rt_a.shutdown();
    rt_b.shutdown();
}

/// Killing an accelerated device with `shards_per_datapath > 1` drains
/// *every* shard's scheduler onto the kernel-UDP fallback: traffic on
/// all streams keeps flowing, whatever shard they were pinned to.
#[test]
fn failover_evacuates_every_shard() {
    const STREAMS: usize = 4;

    let fabric = Fabric::new(TestbedProfile::local());
    let faults = fabric.faults();
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let techs = [Technology::KernelUdp, Technology::Dpdk];
    let config = |id| {
        manual(id, &techs)
            .with_control(fast_control())
            .with_shards_per_datapath(2)
    };
    let rt_a = Runtime::start(config(1), &fabric, a).unwrap();
    let rt_b = Runtime::start(config(2), &fabric, b).unwrap();
    rt_a.add_peer(b).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);

    let session_a = insane::Session::connect(&rt_a).unwrap();
    let session_b = insane::Session::connect(&rt_b).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::fast()).unwrap();
    let sinks: Vec<_> = (0..STREAMS)
        .map(|i| stream_b.create_sink(ChannelId(i as u32)).unwrap())
        .collect();
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);
    let sources: Vec<_> = (0..STREAMS)
        .map(|i| {
            let stream = session_a.create_stream(QosPolicy::fast()).unwrap();
            assert_eq!(stream.technology(), Technology::Dpdk);
            stream.create_source(ChannelId(i as u32)).unwrap()
        })
        .collect();
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);

    let deliver_on_all = |tag: u8| {
        let mut got = vec![false; STREAMS];
        for _ in 0..2_000_000 {
            for (i, source) in sources.iter().enumerate() {
                if !got[i] {
                    if let Ok(mut buf) = source.get_buffer(2) {
                        buf.copy_from_slice(&[tag, i as u8]);
                        match source.emit(buf) {
                            Ok(_) | Err(InsaneError::Backpressure) => {}
                            Err(e) => panic!("emit: {e}"),
                        }
                    }
                }
            }
            for _ in 0..16 {
                rt_a.poll_once();
                rt_b.poll_once();
            }
            for (i, sink) in sinks.iter().enumerate() {
                while let Ok(msg) = sink.consume(ConsumeMode::NonBlocking) {
                    if msg.first() == Some(&tag) {
                        got[i] = true;
                    }
                }
            }
            if got.iter().all(|&g| g) {
                return;
            }
        }
        panic!("streams never all delivered tag {tag}: {got:?}");
    };

    // Healthy: every stream flows over DPDK (both shards).
    deliver_on_all(1);
    assert_eq!(rt_a.stats().failover_events, 0);

    // Kill A's DPDK device (port_base 40000 + offset 2 for DPDK).
    faults.fail_device(Endpoint {
        host: a,
        port: 40_002,
    });
    deliver_on_all(2);
    let stats = rt_a.stats();
    assert_eq!(stats.failover_events, 1, "one down transition observed");
    assert!(
        stats.failover_messages > 0,
        "diverted messages from the shards' schedulers are counted"
    );

    // Restore and drain: nothing may leak on the sender whatever shard
    // a message was queued on when the device died.
    faults.restore_device(Endpoint {
        host: a,
        port: 40_002,
    });
    deliver_on_all(3);
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);
    for sink in &sinks {
        while sink.consume(ConsumeMode::NonBlocking).is_ok() {}
    }
    assert_eq!(rt_a.slots_in_use(), 0, "failover must not leak slots");
}

/// The cross-shard TX handoff with a thread on each end: DPDK-mapped
/// streams toward a UDP-only peer, so every message crosses from a DPDK
/// shard's thread into the same-index kernel-UDP shard's thread — first
/// as the peer-lacks-the-technology fallback, then (the sender's DPDK
/// device failed mid-run) as failover traffic, then as the fallback
/// again.  Every stream must arrive complete and in emit order, and
/// nothing may stay checked out on the sender.
#[test]
fn threaded_handoff_to_a_udp_only_peer_survives_failover_in_order() {
    const STREAMS: usize = 8;
    const ROUNDS: u32 = 60;
    const WINDOW: u32 = 8;
    const PROBE: u32 = u32::MAX;

    let fabric = Fabric::new(TestbedProfile::local());
    let faults = fabric.faults();
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let config = |id, techs: &[Technology]| {
        RuntimeConfig::new(id)
            .with_technologies(techs)
            .with_threading(ThreadingMode::PerDatapath)
            .with_shards_per_datapath(2)
    };
    let techs_a = [Technology::KernelUdp, Technology::Dpdk];
    let rt_a = Runtime::start(config(1, &techs_a), &fabric, a).unwrap();
    let rt_b = Runtime::start(config(2, &[Technology::KernelUdp]), &fabric, b).unwrap();
    rt_a.add_peer(b).unwrap();

    let session_a = insane::Session::connect(&rt_a).unwrap();
    let session_b = insane::Session::connect(&rt_b).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::slow()).unwrap();
    let sinks: Vec<_> = (0..STREAMS)
        .map(|i| stream_b.create_sink(ChannelId(i as u32)).unwrap())
        .collect();
    let sources: Vec<_> = (0..STREAMS)
        .map(|i| {
            let stream = session_a.create_stream(QosPolicy::fast()).unwrap();
            assert_eq!(stream.technology(), Technology::Dpdk);
            stream.create_source(ChannelId(i as u32)).unwrap()
        })
        .collect();

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let wait = |what: &str| {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    };
    let emit = |i: usize, seq: u32| loop {
        match sources[i].get_buffer(8) {
            Ok(mut buf) => {
                buf[..4].copy_from_slice(&(i as u32).to_le_bytes());
                buf[4..].copy_from_slice(&seq.to_le_bytes());
                match sources[i].emit(buf) {
                    Ok(_) => return,
                    Err(InsaneError::Backpressure) => wait("emit backpressure"),
                    Err(e) => panic!("emit: {e}"),
                }
            }
            Err(InsaneError::Memory(_)) => wait("get_buffer"),
            Err(e) => panic!("get_buffer: {e}"),
        }
    };
    // Next sequence number on sink `i`, or None when nothing is queued.
    let try_next = |i: usize| -> Option<u32> {
        let msg = sinks[i].consume(ConsumeMode::NonBlocking).ok()?;
        assert_eq!(msg.len(), 8, "payload shape");
        let stream = u32::from_le_bytes(msg[..4].try_into().unwrap());
        assert_eq!(stream as usize, i, "message routed to the wrong sink");
        Some(u32::from_le_bytes(msg[4..].try_into().unwrap()))
    };

    // The subscriptions travel over the threaded control plane: probe
    // each stream until its sink hears one, so that no numbered message
    // is emitted before the sender knows its subscriber.
    for i in 0..STREAMS {
        loop {
            emit(i, PROBE);
            if try_next(i).is_some() {
                break;
            }
            wait("subscription never converged");
        }
    }

    let mut expected = [0u32; STREAMS];
    let mut run_rounds = |rounds: u32| {
        for _ in 0..rounds {
            let base = expected[0];
            for seq in base..base + WINDOW {
                for i in 0..STREAMS {
                    emit(i, seq);
                }
            }
            for (i, next) in expected.iter_mut().enumerate() {
                while *next < base + WINDOW {
                    match try_next(i) {
                        Some(PROBE) => {}
                        Some(seq) => {
                            assert_eq!(seq, *next, "stream {i} lost or reordered a message");
                            *next += 1;
                        }
                        None => wait("a message never arrived"),
                    }
                }
            }
        }
    };
    let dpdk_a = Endpoint {
        host: a,
        port: 40_002,
    };

    run_rounds(ROUNDS / 3);
    faults.fail_device(dpdk_a);
    while rt_a.stats().failover_events == 0 {
        wait("down transition never observed");
    }
    run_rounds(ROUNDS / 3);
    faults.restore_device(dpdk_a);
    while rt_a.stats().failback_events == 0 {
        wait("recovery never observed");
    }
    run_rounds(ROUNDS / 3);

    assert_eq!(expected, [ROUNDS * WINDOW; STREAMS]);
    let stats = rt_a.stats();
    assert_eq!((stats.failover_events, stats.failback_events), (1, 1));
    // Joining the polling threads first makes the pool reading stable
    // (a heartbeat holds a slot for the length of its send).
    rt_a.shutdown();
    rt_b.shutdown();
    assert_eq!(rt_a.slots_in_use(), 0, "handoff must not leak slots");
}
