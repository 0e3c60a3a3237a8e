//! Cross-crate integration tests: the whole stack, from the facade crate
//! down to the simulated devices, exercised the way a deployment would.

use insane::core::runtime::poll_until_quiescent;
use insane::lunar::streaming::{LunarStreamClient, LunarStreamServer};
use insane::lunar::LunarMom;
use insane::{
    ChannelId, ConsumeMode, EmitOutcome, Fabric, InsaneError, QosPolicy, Runtime, RuntimeConfig,
    Technology, TestbedProfile, ThreadingMode,
};

fn manual(id: u32, techs: &[Technology]) -> RuntimeConfig {
    RuntimeConfig::new(id)
        .with_technologies(techs)
        .with_threading(ThreadingMode::Manual)
}

/// Builds an n-node mesh (every runtime peered with every other).
fn mesh(n: u32, techs: &[Technology]) -> (Fabric, Vec<Runtime>) {
    let fabric = Fabric::new(TestbedProfile::local());
    let hosts: Vec<_> = (0..n)
        .map(|i| fabric.add_host(&format!("node-{i}")))
        .collect();
    let runtimes: Vec<_> = hosts
        .iter()
        .enumerate()
        .map(|(i, &h)| Runtime::start(manual(i as u32 + 1, techs), &fabric, h).expect("runtime"))
        .collect();
    for (i, rt) in runtimes.iter().enumerate() {
        for (j, _) in runtimes.iter().enumerate() {
            if i != j {
                rt.add_peer(hosts[j]).expect("peer");
            }
        }
    }
    let refs: Vec<&Runtime> = runtimes.iter().collect();
    poll_until_quiescent(&refs, 200_000);
    (fabric, runtimes)
}

fn drive_all(runtimes: &[Runtime]) {
    for rt in runtimes {
        rt.poll_once();
    }
}

#[test]
fn three_node_mesh_broadcasts_to_all_subscribers() {
    let (_fabric, runtimes) = mesh(3, &[Technology::KernelUdp, Technology::Dpdk]);
    let sessions: Vec<_> = runtimes
        .iter()
        .map(|rt| insane::Session::connect(rt).expect("session"))
        .collect();
    let streams: Vec<_> = sessions
        .iter()
        .map(|s| s.create_stream(QosPolicy::fast()).expect("stream"))
        .collect();
    // Sinks on node 1 and node 2; source on node 0.
    let sink_1 = streams[1].create_sink(ChannelId(10)).expect("sink 1");
    let sink_2 = streams[2].create_sink(ChannelId(10)).expect("sink 2");
    let refs: Vec<&Runtime> = runtimes.iter().collect();
    poll_until_quiescent(&refs, 200_000);

    let source = streams[0].create_source(ChannelId(10)).expect("source");
    let mut buf = source.get_buffer(9).expect("buffer");
    buf.copy_from_slice(b"broadcast");
    source.emit(buf).expect("emit");

    for sink in [&sink_1, &sink_2] {
        let msg = loop {
            drive_all(&runtimes);
            match sink.consume(ConsumeMode::NonBlocking) {
                Ok(m) => break m,
                Err(InsaneError::WouldBlock) => {}
                Err(e) => panic!("{e}"),
            }
        };
        assert_eq!(&*msg, b"broadcast");
        assert_eq!(msg.meta().src_runtime, 1);
    }
    // Exactly one wire message per subscribed peer.
    assert_eq!(runtimes[0].stats().tx_messages, 2);
}

#[test]
fn mixed_qos_streams_share_one_runtime() {
    let (_fabric, runtimes) = mesh(
        2,
        &[Technology::KernelUdp, Technology::Xdp, Technology::Dpdk],
    );
    let session_a = insane::Session::connect(&runtimes[0]).expect("session");
    let session_b = insane::Session::connect(&runtimes[1]).expect("session");

    // Three streams with three policies on the same runtime pair.
    let configs = [
        (QosPolicy::slow(), Technology::KernelUdp, ChannelId(21)),
        (QosPolicy::frugal(), Technology::Xdp, ChannelId(22)),
        (QosPolicy::fast(), Technology::Dpdk, ChannelId(23)),
    ];
    let mut lanes = Vec::new();
    for (qos, expected, channel) in configs {
        let stream_a = session_a.create_stream(qos).expect("stream a");
        let stream_b = session_b.create_stream(qos).expect("stream b");
        assert_eq!(stream_a.technology(), expected);
        let sink = stream_b.create_sink(channel).expect("sink");
        lanes.push((stream_a, channel, sink));
    }
    let refs: Vec<&Runtime> = runtimes.iter().collect();
    poll_until_quiescent(&refs, 200_000);

    for (stream_a, channel, _) in &lanes {
        let source = stream_a.create_source(*channel).expect("source");
        let mut buf = source.get_buffer(4).expect("buffer");
        buf.copy_from_slice(&channel.0.to_le_bytes());
        source.emit(buf).expect("emit");
    }
    for (_, channel, sink) in &lanes {
        let msg = loop {
            drive_all(&runtimes);
            match sink.consume(ConsumeMode::NonBlocking) {
                Ok(m) => break m,
                Err(InsaneError::WouldBlock) => {}
                Err(e) => panic!("{e}"),
            }
        };
        assert_eq!(&*msg, &channel.0.to_le_bytes());
    }
}

#[test]
fn mom_and_streaming_coexist_on_shared_runtimes() {
    let (_fabric, runtimes) = mesh(2, &[Technology::KernelUdp, Technology::Dpdk]);
    let refs: Vec<&Runtime> = runtimes.iter().collect();

    // LunarMoM on the fast path and Lunar Streaming on the slow path,
    // sharing the two runtimes.
    let mom_pub = LunarMom::connect(&runtimes[0], QosPolicy::fast()).expect("mom pub");
    let mom_sub = LunarMom::connect(&runtimes[1], QosPolicy::fast()).expect("mom sub");
    let subscriber = mom_sub.subscriber("alerts").expect("subscriber");
    let mut stream_client =
        LunarStreamClient::connect(&runtimes[1], QosPolicy::slow(), ChannelId(900))
            .expect("stream client");
    poll_until_quiescent(&refs, 200_000);
    let mut stream_server =
        LunarStreamServer::open(&runtimes[0], QosPolicy::slow(), ChannelId(900))
            .expect("stream server");
    poll_until_quiescent(&refs, 200_000);

    mom_pub.publish("alerts", b"overheat").expect("publish");
    let frame: Vec<u8> = (0..50_000u32).map(|i| i as u8).collect();
    stream_server
        .send_frame_with(&frame, || drive_all(&runtimes))
        .expect("send frame");

    let alert = loop {
        drive_all(&runtimes);
        match subscriber.try_next() {
            Ok(m) => break m,
            Err(insane::lunar::LunarError::WouldBlock) => {}
            Err(e) => panic!("{e}"),
        }
    };
    assert_eq!(&*alert, b"overheat");

    let mut frames = Vec::new();
    while frames.is_empty() {
        drive_all(&runtimes);
        frames = stream_client.poll_frames().expect("poll frames");
    }
    assert_eq!(frames[0].data, frame);
}

#[test]
fn sink_queue_overflow_drops_are_counted_not_fatal() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let mut config = manual(1, &[Technology::KernelUdp]);
    config.sink_queue_depth = 4; // tiny: force overflow
    let rt = Runtime::start(config, &fabric, host).expect("runtime");
    let session = insane::Session::connect(&rt).expect("session");
    let stream = session.create_stream(QosPolicy::slow()).expect("stream");
    let sink = stream.create_sink(ChannelId(1)).expect("sink");
    let source = stream.create_source(ChannelId(1)).expect("source");

    for i in 0..20u8 {
        let mut buf = source.get_buffer(1).expect("buffer");
        buf.copy_from_slice(&[i]);
        source.emit(buf).expect("emit");
        rt.poll_once();
    }
    poll_until_quiescent(&[&rt], 100_000);
    let stats = sink.stats();
    assert!(stats.dropped > 0, "overflow must be observable");
    assert!(stats.received >= 4, "queue capacity still delivered");
    assert_eq!(rt.stats().sink_drops, stats.dropped);
    // The system keeps working afterwards.
    let mut consumed = 0;
    while sink.consume(ConsumeMode::NonBlocking).is_ok() {
        consumed += 1;
    }
    assert_eq!(consumed as u64, stats.received);
    assert_eq!(rt.slots_in_use(), 0, "dropped deliveries release slots");
}

/// A stream closed with emits still queued gives everything back at the
/// close, not when the session finally goes: the slots are free again and
/// every outcome is resolved.
#[test]
fn closing_a_stream_releases_and_fails_its_queued_emits() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let config = manual(1, &[Technology::KernelUdp, Technology::Dpdk]);
    let rt = Runtime::start(config, &fabric, host).expect("runtime");
    let session = insane::Session::connect(&rt).expect("session");
    let stream = session.create_stream(QosPolicy::fast()).expect("stream");
    let source = stream.create_source(ChannelId(1)).expect("source");

    let before = rt.slots_in_use();
    let emits: Vec<_> = (0..7)
        .map(|_| {
            let buf = source.get_buffer(64).expect("buffer");
            source.emit(buf).expect("emit")
        })
        .collect();
    assert_eq!(rt.slots_in_use(), before + 7, "queued, never polled");

    stream.close();
    assert_eq!(rt.slots_in_use(), before, "close returns queued slots");
    for emit in emits {
        assert_eq!(source.emit_outcome(emit), EmitOutcome::Failed);
    }
}

/// An emit refused by a full TX queue hands back the buffer it was given.
#[test]
fn refused_emit_returns_its_slot() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let mut config = manual(1, &[Technology::KernelUdp, Technology::Dpdk]);
    config.tx_queue_depth = 8;
    let rt = Runtime::start(config, &fabric, host).expect("runtime");
    let session = insane::Session::connect(&rt).expect("session");
    let stream = session.create_stream(QosPolicy::fast()).expect("stream");
    let source = stream.create_source(ChannelId(1)).expect("source");

    for _ in 0..8 {
        let buf = source.get_buffer(64).expect("buffer");
        source.emit(buf).expect("the queue takes its depth");
    }
    let full = rt.slots_in_use();
    let buf = source.get_buffer(64).expect("buffer");
    assert_eq!(rt.slots_in_use(), full + 1);
    assert!(matches!(source.emit(buf), Err(InsaneError::Backpressure)));
    assert_eq!(rt.slots_in_use(), full, "the refused buffer is released");
}

#[test]
fn runtime_shutdown_is_clean_and_final() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(RuntimeConfig::new(1), &fabric, host).expect("runtime");
    assert!(rt.is_started());
    let session = insane::Session::connect(&rt).expect("session");
    let stream = session.create_stream(QosPolicy::slow()).expect("stream");
    let source = stream.create_source(ChannelId(1)).expect("source");
    rt.shutdown();
    assert!(!rt.is_started());
    let result = source.get_buffer(1).map(|b| source.emit(b));
    match result {
        Ok(Err(InsaneError::Closed)) | Err(_) => {}
        other => panic!("emit after shutdown must fail, got {other:?}"),
    }
    assert!(matches!(
        insane::Session::connect(&rt),
        Err(InsaneError::Closed)
    ));
}

#[test]
fn demikernel_and_insane_share_a_fabric() {
    // The baseline and the middleware can coexist on the same simulated
    // testbed without port collisions (distinct port spaces).
    use insane::demikernel::{Backend, DemiEvent, Demikernel};
    let fabric = Fabric::new(TestbedProfile::local());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let rt_a = Runtime::start(manual(1, &[Technology::KernelUdp]), &fabric, a).expect("rt a");
    let rt_b = Runtime::start(manual(2, &[Technology::KernelUdp]), &fabric, b).expect("rt b");
    rt_a.add_peer(b).expect("peer");
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);

    let mut da = Demikernel::new(Backend::Catnap, &fabric, a).expect("demi a");
    let mut db = Demikernel::new(Backend::Catnap, &fabric, b).expect("demi b");
    let qa = da.socket().expect("qd");
    let qb = db.socket().expect("qd");
    da.bind(qa, 7777).expect("bind");
    db.bind(qb, 7777).expect("bind");
    da.push_to(
        qa,
        b"side-by-side",
        insane::fabric::Endpoint {
            host: b,
            port: 7777,
        },
    )
    .expect("push");
    let pop = db.pop(qb).expect("pop");
    match db
        .wait(pop, Some(std::time::Duration::from_secs(1)))
        .expect("wait")
    {
        DemiEvent::Popped { bytes, .. } => assert_eq!(bytes, b"side-by-side"),
        DemiEvent::Pushed => unreachable!(),
    }
}
