//! End-to-end tests of the INSANE middleware over the simulated fabric.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use insane_core::runtime::poll_until_quiescent;
use insane_core::{
    Acceleration, ChannelId, ConsumeMode, EmitOutcome, InsaneError, QosPolicy, ResourceUsage,
    Runtime, RuntimeConfig, SchedulerChoice, Session, ThreadingMode, TimeSensitivity,
};
use insane_fabric::{Fabric, Technology, TestbedProfile};

fn manual_config(id: u32) -> RuntimeConfig {
    RuntimeConfig::new(id).with_threading(ThreadingMode::Manual)
}

/// Two manually-driven runtimes on two hosts, already peered.
fn two_node_setup(techs: &[Technology]) -> (Fabric, Runtime, Runtime) {
    let fabric = Fabric::new(TestbedProfile::local());
    let host_a = fabric.add_host("a");
    let host_b = fabric.add_host("b");
    let rt_a = Runtime::start(manual_config(1).with_technologies(techs), &fabric, host_a).unwrap();
    let rt_b = Runtime::start(manual_config(2).with_technologies(techs), &fabric, host_b).unwrap();
    rt_a.add_peer(host_b).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    (fabric, rt_a, rt_b)
}

fn drive_consume(runtimes: &[&Runtime], sink: &insane_core::Sink) -> insane_core::IncomingMessage {
    for _ in 0..200_000 {
        for rt in runtimes {
            rt.poll_once();
        }
        match sink.consume(ConsumeMode::NonBlocking) {
            Ok(msg) => return msg,
            Err(InsaneError::WouldBlock) => {}
            Err(e) => panic!("consume failed: {e}"),
        }
    }
    panic!("message never arrived");
}

#[test]
fn local_source_to_sink_roundtrip() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(manual_config(1), &fabric, host).unwrap();
    let session = Session::connect(&rt).unwrap();
    let stream = session.create_stream(QosPolicy::default()).unwrap();
    let source = stream.create_source(ChannelId(7)).unwrap();
    let sink = stream.create_sink(ChannelId(7)).unwrap();

    let mut buf = source.get_buffer(11).unwrap();
    buf.copy_from_slice(b"hello local");
    let token = source.emit(buf).unwrap();
    assert_eq!(source.emit_outcome(token), EmitOutcome::Pending);

    let msg = drive_consume(&[&rt], &sink);
    assert_eq!(&*msg, b"hello local");
    assert_eq!(msg.meta().channel, 7);
    assert_eq!(source.emit_outcome(token), EmitOutcome::Completed);
    assert_eq!(rt.stats().local_deliveries, 1);
    assert_eq!(rt.stats().tx_messages, 0, "no wire involved");
    drop(msg);
    assert_eq!(rt.slots_in_use(), 0, "all slots returned");
}

#[test]
fn channels_are_isolated() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(manual_config(1), &fabric, host).unwrap();
    let session = Session::connect(&rt).unwrap();
    let stream = session.create_stream(QosPolicy::default()).unwrap();
    let source = stream.create_source(ChannelId(1)).unwrap();
    let sink_same = stream.create_sink(ChannelId(1)).unwrap();
    let sink_other = stream.create_sink(ChannelId(2)).unwrap();

    let mut buf = source.get_buffer(3).unwrap();
    buf.copy_from_slice(b"abc");
    source.emit(buf).unwrap();
    let msg = drive_consume(&[&rt], &sink_same);
    assert_eq!(&*msg, b"abc");
    assert!(matches!(
        sink_other.consume(ConsumeMode::NonBlocking),
        Err(InsaneError::WouldBlock)
    ));
}

#[test]
fn remote_roundtrip_over_every_technology() {
    for (techs, policy, expect) in [
        (
            vec![Technology::KernelUdp],
            QosPolicy::slow(),
            Technology::KernelUdp,
        ),
        (
            vec![Technology::KernelUdp, Technology::Dpdk],
            QosPolicy::fast(),
            Technology::Dpdk,
        ),
        (
            vec![Technology::KernelUdp, Technology::Xdp],
            QosPolicy::frugal(),
            Technology::Xdp,
        ),
        (
            vec![Technology::KernelUdp, Technology::Rdma],
            QosPolicy::fast(),
            Technology::Rdma,
        ),
    ] {
        let (_fabric, rt_a, rt_b) = two_node_setup(&techs);
        let session_a = Session::connect(&rt_a).unwrap();
        let session_b = Session::connect(&rt_b).unwrap();
        let stream_a = session_a.create_stream(policy).unwrap();
        let stream_b = session_b.create_stream(policy).unwrap();
        assert_eq!(stream_a.technology(), expect, "mapping for {techs:?}");

        let sink = stream_b.create_sink(ChannelId(42)).unwrap();
        // Let the subscription reach the producer side.
        poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

        let source = stream_a.create_source(ChannelId(42)).unwrap();
        let mut buf = source.get_buffer(13).unwrap();
        buf.copy_from_slice(b"over the wire");
        source.emit(buf).unwrap();

        let msg = drive_consume(&[&rt_a, &rt_b], &sink);
        assert_eq!(&*msg, b"over the wire", "payload via {expect}");
        assert_eq!(msg.meta().src_runtime, 1);
        assert!(msg.breakdown().network_ns > 0, "wire time recorded");
        drop(msg);
        poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
        assert_eq!(rt_a.slots_in_use(), 0, "sender slots returned ({expect})");
    }
}

#[test]
fn fallback_stream_warns_and_still_works() {
    let (_fabric, rt_a, rt_b) = two_node_setup(&[Technology::KernelUdp]);
    let session = Session::connect(&rt_a).unwrap();
    let stream = session.create_stream(QosPolicy::fast()).unwrap();
    assert_eq!(stream.technology(), Technology::KernelUdp);
    assert!(stream.is_fallback());
    assert_eq!(rt_a.stats().fallback_streams, 1);

    // And it still carries data.
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::fast()).unwrap();
    let sink = stream_b.create_sink(ChannelId(1)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    let source = stream.create_source(ChannelId(1)).unwrap();
    let mut buf = source.get_buffer(2).unwrap();
    buf.copy_from_slice(b"ok");
    source.emit(buf).unwrap();
    let msg = drive_consume(&[&rt_a, &rt_b], &sink);
    assert_eq!(&*msg, b"ok");
}

#[test]
fn multiple_sinks_all_receive_without_copies() {
    let (_fabric, rt_a, rt_b) = two_node_setup(&[Technology::KernelUdp, Technology::Dpdk]);
    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_a = session_a.create_stream(QosPolicy::fast()).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::fast()).unwrap();
    let sinks: Vec<_> = (0..4)
        .map(|_| stream_b.create_sink(ChannelId(9)).unwrap())
        .collect();
    // A co-located sink on the producer host as well.
    let local_sink = stream_a.create_sink(ChannelId(9)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    let source = stream_a.create_source(ChannelId(9)).unwrap();
    let mut buf = source.get_buffer(4).unwrap();
    buf.copy_from_slice(b"fan!");
    source.emit(buf).unwrap();

    for sink in &sinks {
        let msg = drive_consume(&[&rt_a, &rt_b], sink);
        assert_eq!(&*msg, b"fan!");
    }
    let msg = drive_consume(&[&rt_a, &rt_b], &local_sink);
    assert_eq!(&*msg, b"fan!");
    assert_eq!(
        rt_b.stats().rx_messages,
        1,
        "one wire message, four deliveries"
    );
}

#[test]
fn callback_sink_receives_on_polling_thread() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(manual_config(1), &fabric, host).unwrap();
    let session = Session::connect(&rt).unwrap();
    let stream = session.create_stream(QosPolicy::default()).unwrap();

    let hits = Arc::new(AtomicUsize::new(0));
    let hits_cb = Arc::clone(&hits);
    let sink = stream
        .create_sink_with_callback(ChannelId(3), move |msg| {
            assert_eq!(&*msg, b"cb");
            hits_cb.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    assert!(matches!(
        sink.consume(ConsumeMode::NonBlocking),
        Err(InsaneError::CallbackSink)
    ));

    let source = stream.create_source(ChannelId(3)).unwrap();
    for _ in 0..5 {
        let mut buf = source.get_buffer(2).unwrap();
        buf.copy_from_slice(b"cb");
        source.emit(buf).unwrap();
    }
    poll_until_quiescent(&[&rt], 10_000);
    assert_eq!(hits.load(Ordering::SeqCst), 5);
    assert_eq!(sink.stats().received, 5);
}

#[test]
fn emit_without_any_listener_completes_and_releases() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(manual_config(1), &fabric, host).unwrap();
    let session = Session::connect(&rt).unwrap();
    let stream = session.create_stream(QosPolicy::default()).unwrap();
    let source = stream.create_source(ChannelId(1)).unwrap();
    let mut buf = source.get_buffer(1).unwrap();
    buf.copy_from_slice(b"x");
    let token = source.emit(buf).unwrap();
    poll_until_quiescent(&[&rt], 10_000);
    assert_eq!(source.emit_outcome(token), EmitOutcome::Completed);
    assert_eq!(rt.slots_in_use(), 0);
}

#[test]
fn oversized_payload_is_rejected_at_get_buffer() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(manual_config(1), &fabric, host).unwrap();
    let session = Session::connect(&rt).unwrap();
    let stream = session.create_stream(QosPolicy::fast()).unwrap();
    let source = stream.create_source(ChannelId(1)).unwrap();
    let max = source.max_payload();
    assert!(source.get_buffer(max).is_ok());
    assert!(matches!(
        source.get_buffer(max + 1),
        Err(InsaneError::PayloadTooLarge { .. })
    ));
}

#[test]
fn fragmentation_metadata_travels_with_messages() {
    let (_fabric, rt_a, rt_b) = two_node_setup(&[Technology::KernelUdp, Technology::Dpdk]);
    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_a = session_a.create_stream(QosPolicy::fast()).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::fast()).unwrap();
    let sink = stream_b.create_sink(ChannelId(5)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    let source = stream_a.create_source(ChannelId(5)).unwrap();

    for index in 0..3u16 {
        let mut buf = source.get_buffer(10).unwrap();
        buf.copy_from_slice(&[index as u8; 10]);
        source.emit_fragment(buf, index, 3, 30, 999).unwrap();
    }
    for _ in 0..3 {
        let msg = drive_consume(&[&rt_a, &rt_b], &sink);
        let (index, count, total) = msg.meta().frag;
        assert_eq!(count, 3);
        assert_eq!(total, 30);
        assert_eq!(msg.meta().seq, 999, "message id is the wire sequence");
        assert!(msg.meta().is_fragment());
        assert_eq!(&*msg, &[index as u8; 10]);
    }
}

#[test]
fn blocking_consume_with_threaded_runtime() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host_a = fabric.add_host("a");
    let host_b = fabric.add_host("b");
    let rt_a = Runtime::start(
        RuntimeConfig::new(1).with_technologies(&[Technology::KernelUdp]),
        &fabric,
        host_a,
    )
    .unwrap();
    let rt_b = Runtime::start(
        RuntimeConfig::new(2)
            .with_technologies(&[Technology::KernelUdp])
            .with_threading(ThreadingMode::Shared),
        &fabric,
        host_b,
    )
    .unwrap();
    rt_a.add_peer(host_b).unwrap();

    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_a = session_a.create_stream(QosPolicy::slow()).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::slow()).unwrap();
    let sink = stream_b.create_sink(ChannelId(77)).unwrap();
    // Give the control plane a moment on the running threads.
    std::thread::sleep(Duration::from_millis(50));

    let source = stream_a.create_source(ChannelId(77)).unwrap();
    let mut buf = source.get_buffer(7).unwrap();
    buf.copy_from_slice(b"blocked");
    source.emit(buf).unwrap();

    let msg = sink.consume(ConsumeMode::Blocking).unwrap();
    assert_eq!(&*msg, b"blocked");
    rt_a.shutdown();
    rt_b.shutdown();
}

#[test]
fn custom_thread_assignment_serves_all_datapaths() {
    // §5.3: "INSANE can be configured to run more than one plugin on a
    // thread".  One thread polls {UDP, XDP}, another polls {DPDK}; every
    // datapath keeps working, including ones not mentioned (folded in).
    let fabric = Fabric::new(TestbedProfile::local());
    let host_a = fabric.add_host("a");
    let host_b = fabric.add_host("b");
    let custom = ThreadingMode::Custom(vec![
        vec![Technology::KernelUdp, Technology::Xdp],
        vec![Technology::Dpdk],
        // RDMA deliberately unmentioned: must fold into thread 0.
    ]);
    let config = |id| {
        RuntimeConfig::new(id)
            .with_technologies(&[
                Technology::KernelUdp,
                Technology::Xdp,
                Technology::Dpdk,
                Technology::Rdma,
            ])
            .with_threading(custom.clone())
    };
    let rt_a = Runtime::start(config(1), &fabric, host_a).unwrap();
    let rt_b = Runtime::start(config(2), &fabric, host_b).unwrap();
    rt_a.add_peer(host_b).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    for (qos, channel) in [
        (QosPolicy::slow(), ChannelId(61)),
        (QosPolicy::frugal(), ChannelId(62)),
        (QosPolicy::fast(), ChannelId(63)), // maps to RDMA (folded path)
    ] {
        let stream_a = session_a.create_stream(qos).unwrap();
        let stream_b = session_b.create_stream(qos).unwrap();
        let sink = stream_b.create_sink(channel).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let source = stream_a.create_source(channel).unwrap();
        let mut buf = source.get_buffer(4).unwrap();
        buf.copy_from_slice(&channel.0.to_le_bytes());
        source.emit(buf).unwrap();
        let msg = sink.consume(ConsumeMode::Blocking).unwrap();
        assert_eq!(
            &*msg,
            &channel.0.to_le_bytes(),
            "via {}",
            stream_a.technology()
        );
    }
    rt_a.shutdown();
    rt_b.shutdown();
}

#[test]
fn blocking_consume_on_manual_runtime_is_refused() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(manual_config(1), &fabric, host).unwrap();
    let session = Session::connect(&rt).unwrap();
    let stream = session.create_stream(QosPolicy::default()).unwrap();
    let sink = stream.create_sink(ChannelId(1)).unwrap();
    assert!(matches!(
        sink.consume(ConsumeMode::Blocking),
        Err(InsaneError::RuntimeNotStarted)
    ));
}

/// A started single-host runtime with a source and a sink on one
/// channel: the shape of the three park/wake tests below.
fn threaded_local_pair() -> (Runtime, Session, insane_core::Source, insane_core::Sink) {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(
        RuntimeConfig::new(1).with_threading(ThreadingMode::Shared),
        &fabric,
        host,
    )
    .unwrap();
    let session = Session::connect(&rt).unwrap();
    let stream = session.create_stream(QosPolicy::default()).unwrap();
    let source = stream.create_source(ChannelId(5)).unwrap();
    let sink = stream.create_sink(ChannelId(5)).unwrap();
    (rt, session, source, sink)
}

/// A blocking consume, as the parked consumer threads below run it.
fn consume_parked(sink: &insane_core::Sink) -> Result<Vec<u8>, InsaneError> {
    sink.consume(ConsumeMode::Blocking).map(|msg| msg.to_vec())
}

fn emit_bytes(source: &insane_core::Source, bytes: &[u8]) {
    let mut buf = source.get_buffer(bytes.len()).unwrap();
    buf.copy_from_slice(bytes);
    source.emit(buf).unwrap();
}

#[test]
fn polled_sink_never_pays_for_a_wake() {
    let (_fabric, rt_a, rt_b) = two_node_setup(&[Technology::Dpdk]);
    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_a = session_a.create_stream(QosPolicy::fast()).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::fast()).unwrap();
    let sink = stream_b.create_sink(ChannelId(4)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    let source = stream_a.create_source(ChannelId(4)).unwrap();
    for i in 0..1_000u32 {
        emit_bytes(&source, &i.to_le_bytes());
        let msg = drive_consume(&[&rt_a, &rt_b], &sink);
        assert_eq!(&*msg, &i.to_le_bytes());
    }
    let stats = sink.stats();
    assert_eq!(stats.received, 1_000);
    assert_eq!(stats.wakes, 0, "nobody armed the bell");
}

#[test]
fn parked_consumers_are_woken_by_a_delivery() {
    let (rt, _session, source, sink) = threaded_local_pair();
    let late = std::thread::scope(|s| {
        let consumer = s.spawn(|| consume_parked(&sink));
        std::thread::sleep(Duration::from_millis(20));
        emit_bytes(&source, b"late");
        consumer.join().unwrap()
    });
    assert_eq!(late.unwrap(), b"late");
    let wakes = sink.stats().wakes;
    assert!(wakes >= 1, "the delivery found the bell armed");

    // Two consumers parked behind one arm: one wake releases both (the
    // bell is test-and-clear, so the second delivery rings for nobody).
    let mut got = std::thread::scope(|s| {
        let consumers = [(); 2].map(|()| s.spawn(|| consume_parked(&sink)));
        std::thread::sleep(Duration::from_millis(20));
        emit_bytes(&source, b"one");
        emit_bytes(&source, b"two");
        consumers.map(|c| c.join().unwrap().unwrap())
    });
    got.sort();
    assert_eq!(got, [b"one".to_vec(), b"two".to_vec()]);
    assert!(sink.stats().wakes > wakes);
    rt.shutdown();
}

#[test]
fn closing_a_sink_releases_its_parked_consumer() {
    let (rt, _session, _source, sink) = threaded_local_pair();
    let outcome = std::thread::scope(|s| {
        let consumer = s.spawn(|| consume_parked(&sink));
        std::thread::sleep(Duration::from_millis(20));
        sink.close();
        consumer.join().unwrap()
    });
    assert!(matches!(outcome, Err(InsaneError::Closed)));
    rt.shutdown();
}

#[test]
fn unsubscribe_stops_remote_traffic() {
    let (_fabric, rt_a, rt_b) = two_node_setup(&[Technology::KernelUdp]);
    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_a = session_a.create_stream(QosPolicy::slow()).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::slow()).unwrap();
    let sink = stream_b.create_sink(ChannelId(8)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    let source = stream_a.create_source(ChannelId(8)).unwrap();
    let mut buf = source.get_buffer(1).unwrap();
    buf.copy_from_slice(b"1");
    source.emit(buf).unwrap();
    let msg = drive_consume(&[&rt_a, &rt_b], &sink);
    assert_eq!(&*msg, b"1");

    // Close the only sink: an UNSUB control message flows back.
    sink.close();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    let tx_before = rt_a.stats().tx_messages;
    let mut buf = source.get_buffer(1).unwrap();
    buf.copy_from_slice(b"2");
    source.emit(buf).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    assert_eq!(
        rt_a.stats().tx_messages,
        tx_before,
        "no data message may leave after the last sink unsubscribed"
    );
}

#[test]
fn time_sensitive_stream_uses_tsn_scheduler() {
    // A TSN runtime with a long non-critical gate: time-critical traffic
    // must wait for its window, so delivery happens but takes at least
    // until the next critical window.
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("a");
    let host_b = fabric.add_host("b");
    let cfg = manual_config(1)
        .with_technologies(&[Technology::KernelUdp])
        .with_scheduler(SchedulerChoice::TimeAware {
            critical_window: Duration::from_millis(5),
            cycle: Duration::from_millis(50),
            guard_band: Duration::ZERO,
            frame_tx: Duration::ZERO,
        });
    let rt_a = Runtime::start(cfg, &fabric, host).unwrap();
    let rt_b = Runtime::start(
        manual_config(2).with_technologies(&[Technology::KernelUdp]),
        &fabric,
        host_b,
    )
    .unwrap();
    rt_a.add_peer(host_b).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let policy = QosPolicy {
        acceleration: Acceleration::None,
        resource_usage: ResourceUsage::Constrained,
        time_sensitivity: TimeSensitivity::time_critical(),
    };
    let stream_a = session_a.create_stream(policy).unwrap();
    let stream_b = session_b.create_stream(policy).unwrap();
    let sink = stream_b.create_sink(ChannelId(4)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    let source = stream_a.create_source(ChannelId(4)).unwrap();
    let mut buf = source.get_buffer(4).unwrap();
    buf.copy_from_slice(b"gate");
    source.emit(buf).unwrap();
    let msg = drive_consume(&[&rt_a, &rt_b], &sink);
    assert_eq!(&*msg, b"gate");
}

#[test]
fn tas_guard_band_reloads_and_counts_deferrals() {
    use insane_core::Tunables;
    // Best-effort traffic has a 5ms window per 50ms cycle.  A reloaded
    // 49ms guard band (valid: < cycle) exceeds that window, so nothing
    // best-effort may ever start — deterministic deferrals, no timing
    // races.  Dropping the guard releases the held frame.
    let fabric = Fabric::new(TestbedProfile::local());
    let host_a = fabric.add_host("a");
    let host_b = fabric.add_host("b");
    let cfg = manual_config(1)
        .with_technologies(&[Technology::KernelUdp])
        .with_scheduler(SchedulerChoice::TimeAware {
            critical_window: Duration::from_millis(45),
            cycle: Duration::from_millis(50),
            guard_band: Duration::ZERO,
            frame_tx: Duration::from_micros(1),
        });
    let rt_a = Runtime::start(cfg, &fabric, host_a).unwrap();
    let rt_b = Runtime::start(
        manual_config(2).with_technologies(&[Technology::KernelUdp]),
        &fabric,
        host_b,
    )
    .unwrap();
    rt_a.add_peer(host_b).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_a = session_a.create_stream(QosPolicy::slow()).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::slow()).unwrap();
    let sink = stream_b.create_sink(ChannelId(9)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    // A guard band at or beyond the cycle is rejected outright.
    let over = Tunables {
        tas_guard_band_ns: Some(50_000_000),
        ..Tunables::default()
    };
    assert!(rt_a.reload_tunables(over).is_err());

    // Arm the window-exceeding (but valid) guard, then emit.
    let blocked = Tunables {
        tas_guard_band_ns: Some(49_000_000),
        ..Tunables::default()
    };
    rt_a.reload_tunables(blocked).unwrap();
    let source = stream_a.create_source(ChannelId(9)).unwrap();
    let mut buf = source.get_buffer(4).unwrap();
    buf.copy_from_slice(b"held");
    source.emit(buf).unwrap();
    for _ in 0..200 {
        rt_a.poll_once();
        rt_b.poll_once();
    }
    assert!(
        rt_a.stats().gate_deferrals > 0,
        "a guard band wider than the open window must defer every pass"
    );
    assert!(
        matches!(
            sink.consume(ConsumeMode::NonBlocking),
            Err(InsaneError::WouldBlock)
        ),
        "the frame must still be held"
    );

    // Drop the guard: the held frame flows in its next window.
    let released = Tunables {
        tas_guard_band_ns: Some(0),
        ..Tunables::default()
    };
    rt_a.reload_tunables(released).unwrap();
    let msg = drive_consume(&[&rt_a, &rt_b], &sink);
    assert_eq!(&*msg, b"held");
}

#[test]
fn sessions_and_streams_close_cleanly() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(manual_config(1), &fabric, host).unwrap();
    let session = Session::connect(&rt).unwrap();
    let stream = session.create_stream(QosPolicy::default()).unwrap();
    let source = stream.create_source(ChannelId(1)).unwrap();
    session.close();
    let buf = source.get_buffer(1);
    // Stream is closed through the session: emit must fail.
    if let Ok(b) = buf {
        assert!(matches!(source.emit(b), Err(InsaneError::Closed)))
    }
    assert!(matches!(
        session.create_stream(QosPolicy::default()),
        Err(InsaneError::Closed)
    ));
}

#[test]
fn mismatched_peer_technologies_fall_back_to_kernel_udp() {
    // Producer has DPDK; consumer host is kernel-only.  The stream maps
    // to DPDK at the producer, but the message must still arrive — the
    // runtime reroutes that destination over the universal UDP datapath.
    let fabric = Fabric::new(TestbedProfile::local());
    let host_a = fabric.add_host("strong");
    let host_b = fabric.add_host("weak");
    let rt_a = Runtime::start(
        manual_config(1).with_technologies(&[Technology::KernelUdp, Technology::Dpdk]),
        &fabric,
        host_a,
    )
    .unwrap();
    let rt_b = Runtime::start(
        manual_config(2).with_technologies(&[Technology::KernelUdp]),
        &fabric,
        host_b,
    )
    .unwrap();
    rt_a.add_peer(host_b).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 100_000);

    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_a = session_a.create_stream(QosPolicy::fast()).unwrap();
    assert_eq!(
        stream_a.technology(),
        Technology::Dpdk,
        "producer side accelerates"
    );
    let stream_b = session_b.create_stream(QosPolicy::fast()).unwrap();
    assert_eq!(stream_b.technology(), Technology::KernelUdp);
    let sink = stream_b.create_sink(ChannelId(88)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 100_000);

    let source = stream_a.create_source(ChannelId(88)).unwrap();
    let mut buf = source.get_buffer(8).unwrap();
    buf.copy_from_slice(b"fallback");
    source.emit(buf).unwrap();
    let msg = drive_consume(&[&rt_a, &rt_b], &sink);
    assert_eq!(&*msg, b"fallback");
    drop(msg);
    poll_until_quiescent(&[&rt_a, &rt_b], 100_000);
    assert_eq!(rt_a.slots_in_use(), 0);
}

#[test]
fn stats_track_message_flow() {
    let (_fabric, rt_a, rt_b) = two_node_setup(&[Technology::KernelUdp, Technology::Dpdk]);
    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_a = session_a.create_stream(QosPolicy::fast()).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::fast()).unwrap();
    let sink = stream_b.create_sink(ChannelId(1)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    let source = stream_a.create_source(ChannelId(1)).unwrap();
    for _ in 0..10 {
        let mut buf = source.get_buffer(8).unwrap();
        buf.copy_from_slice(b"counting");
        source.emit(buf).unwrap();
    }
    let mut got = 0;
    while got < 10 {
        let _ = drive_consume(&[&rt_a, &rt_b], &sink);
        got += 1;
    }
    assert_eq!(rt_a.stats().tx_messages, 10);
    assert_eq!(rt_b.stats().rx_messages, 10);
    assert!(rt_a.stats().control_messages > 0, "peering traffic counted");
}

#[test]
fn telemetry_records_streams_datapaths_and_budget_violations() {
    use insane_core::TelemetryConfig;
    let fabric = Fabric::new(TestbedProfile::local());
    let host_a = fabric.add_host("a");
    let host_b = fabric.add_host("b");
    let techs = [Technology::KernelUdp, Technology::Dpdk];
    // A 1 ns budget every real message violates: the violation counter
    // must track the consumed count on the time-sensitive stream.
    let telemetry = TelemetryConfig::default().with_latency_budget(Duration::from_nanos(1));
    let rt_a = Runtime::start(
        manual_config(1)
            .with_technologies(&techs)
            .with_telemetry(telemetry),
        &fabric,
        host_a,
    )
    .unwrap();
    let rt_b = Runtime::start(
        manual_config(2)
            .with_technologies(&techs)
            .with_telemetry(telemetry),
        &fabric,
        host_b,
    )
    .unwrap();
    rt_a.add_peer(host_b).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let qos = QosPolicy {
        time_sensitivity: TimeSensitivity::TimeSensitive {
            class: insane_tsn::TrafficClass::new(6).unwrap(),
        },
        ..QosPolicy::fast()
    };
    let stream_a = session_a.create_stream(qos).unwrap();
    let stream_b = session_b.create_stream(qos).unwrap();
    let sink = stream_b.create_sink(ChannelId(42)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    let source = stream_a.create_source(ChannelId(42)).unwrap();
    for _ in 0..5 {
        let mut buf = source.get_buffer(4).unwrap();
        buf.copy_from_slice(b"obsv");
        source.emit(buf).unwrap();
        drive_consume(&[&rt_a, &rt_b], &sink);
    }

    let json = rt_b.telemetry_json();
    let doc = insane_telemetry::Value::parse(&json).expect("snapshot is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(insane_telemetry::SNAPSHOT_SCHEMA)
    );
    let streams = doc.get("streams").and_then(|v| v.as_array()).unwrap();
    let stream = streams
        .iter()
        .find(|s| s.get("channel").and_then(|c| c.as_u64()) == Some(42))
        .expect("channel 42 recorded");
    assert_eq!(stream.get("class").and_then(|v| v.as_str()), Some("tc6"));
    assert_eq!(stream.get("consumed").and_then(|v| v.as_u64()), Some(5));
    assert_eq!(
        stream.get("budget_violations").and_then(|v| v.as_u64()),
        Some(5),
        "every message beats a 1 ns budget"
    );
    let total = stream.get("total").unwrap();
    assert_eq!(total.get("count").and_then(|v| v.as_u64()), Some(5));
    assert!(total.get("p50_ns").and_then(|v| v.as_u64()).unwrap() > 0);
    assert!(total.get("p99_ns").and_then(|v| v.as_u64()).unwrap() > 0);

    // Per-datapath counters: rt_a transmitted over DPDK, rt_b received.
    let tx_doc = insane_telemetry::Value::parse(&rt_a.telemetry_json()).unwrap();
    let dp = |doc: &insane_telemetry::Value, name: &str, key: &str| -> u64 {
        doc.get("datapaths")
            .and_then(|v| v.as_array())
            .and_then(|dps| {
                dps.iter()
                    .find(|d| d.get("technology").and_then(|t| t.as_str()) == Some(name))
                    .and_then(|d| d.get(key))
                    .and_then(|v| v.as_u64())
            })
            .unwrap_or(0)
    };
    assert_eq!(dp(&tx_doc, "dpdk", "tx_messages"), 5);
    assert_eq!(dp(&tx_doc, "dpdk", "scheduled"), 5);
    assert_eq!(dp(&doc, "dpdk", "rx_messages"), 5);
    // Pools and counters ride along.
    assert!(doc.get("pools").and_then(|v| v.as_array()).unwrap().len() >= 2);
    assert!(
        doc.get("counters")
            .and_then(|c| c.get("rx_messages"))
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 5
    );
}

#[test]
fn shard_rows_are_live_without_recording_and_sum_to_the_counters() {
    use insane_core::{TelemetryConfig, Tunables};
    use insane_telemetry::Value;
    const CHANNELS: u32 = 4;
    const PER_CHANNEL: u64 = 5;
    const N: u64 = CHANNELS as u64 * PER_CHANNEL;

    // Latency recording off on both ends: the datapath counts must not
    // depend on it.  Two shards, so the rows have something to sum.
    let fabric = Fabric::new(TestbedProfile::local());
    let host_a = fabric.add_host("a");
    let host_b = fabric.add_host("b");
    let cfg = |id| {
        manual_config(id)
            .with_technologies(&[Technology::KernelUdp])
            .with_shards_per_datapath(2)
            .with_telemetry(TelemetryConfig::disabled())
    };
    let gated = cfg(1).with_scheduler(SchedulerChoice::TimeAware {
        critical_window: Duration::from_millis(45),
        cycle: Duration::from_millis(50),
        guard_band: Duration::ZERO,
        frame_tx: Duration::from_micros(1),
    });
    let rt_a = Runtime::start(gated, &fabric, host_a).unwrap();
    let rt_b = Runtime::start(cfg(2), &fabric, host_b).unwrap();
    rt_a.add_peer(host_b).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::slow()).unwrap();
    let sinks: Vec<_> = (0..CHANNELS)
        .map(|c| stream_b.create_sink(ChannelId(20 + c)).unwrap())
        .collect();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    // A guard band wider than best effort's 5 ms window holds every
    // frame (as in `tas_guard_band_reloads_and_counts_deferrals`), so
    // each pass over a queued frame is a counted class-0 deferral.
    let guard = |ns| Tunables {
        tas_guard_band_ns: Some(ns),
        ..Tunables::default()
    };
    rt_a.reload_tunables(guard(49_000_000)).unwrap();
    // One stream per channel: streams, not channels, pick the TX shard.
    let streams: Vec<_> = (0..CHANNELS)
        .map(|_| session_a.create_stream(QosPolicy::slow()).unwrap())
        .collect();
    for (c, stream) in (0..CHANNELS).zip(&streams) {
        let source = stream.create_source(ChannelId(20 + c)).unwrap();
        for _ in 0..PER_CHANNEL {
            let mut buf = source.get_buffer(4).unwrap();
            buf.copy_from_slice(b"held");
            source.emit(buf).unwrap();
        }
    }
    for _ in 0..50 {
        rt_a.poll_once();
        rt_b.poll_once();
    }
    rt_a.reload_tunables(guard(0)).unwrap();
    let mut consumed = 0;
    for _ in 0..200_000 {
        rt_a.poll_once();
        rt_b.poll_once();
        for sink in &sinks {
            while sink.consume(ConsumeMode::NonBlocking).is_ok() {
                consumed += 1;
            }
        }
        if consumed == N {
            break;
        }
    }
    assert_eq!(consumed, N, "every held frame flows once the guard drops");

    let doc_a = Value::parse(&rt_a.telemetry_json()).unwrap();
    let doc_b = Value::parse(&rt_b.telemetry_json()).unwrap();
    assert_eq!(
        doc_a.get("telemetry_enabled").and_then(Value::as_bool),
        Some(false)
    );
    fn rows(doc: &Value) -> &[Value] {
        doc.get("datapaths").and_then(Value::as_array).unwrap()
    }
    let sum = |doc: &Value, key: &str| -> u64 {
        let of = |row: &Value| row.get(key).and_then(Value::as_u64).unwrap();
        rows(doc).iter().map(of).sum()
    };
    let counter = |doc: &Value, key: &str| {
        let counters = doc.get("counters").unwrap();
        counters.get(key).and_then(Value::as_u64).unwrap()
    };
    assert_eq!(rows(&doc_a).len(), 2, "one row per kernel-UDP shard");
    assert_eq!(sum(&doc_a, "tx_messages"), N);
    assert_eq!(sum(&doc_a, "scheduled"), N);
    assert_eq!(rt_a.stats().tx_messages, N);
    assert_eq!(counter(&doc_a, "tx_messages"), N);
    assert_eq!(sum(&doc_b, "rx_messages"), N);
    assert_eq!(rt_b.stats().rx_messages, N);
    assert_eq!(counter(&doc_b, "rx_messages"), N);

    // Each shard keeps its own count (stream ids are sequential and the
    // shard hash is stable, so these four streams land on both shards).
    let mut deferred = 0;
    for (shard, row) in rows(&doc_a).iter().enumerate() {
        let of = |key: &str| row.get(key).and_then(Value::as_u64).unwrap();
        assert_eq!(of("shard"), shard as u64);
        assert!(of("tx_messages") > 0, "shard {shard} carried traffic");
        assert_eq!(of("tx_messages"), of("scheduled"));
        let per_class = row.get("gate_deferrals").and_then(Value::as_array).unwrap();
        let per_class: Vec<u64> = per_class.iter().map(|n| n.as_u64().unwrap()).collect();
        assert_eq!(per_class.len(), 8, "one count per 802.1Q class");
        assert_eq!(per_class[1..], [0; 7], "only best effort was queued");
        deferred += per_class[0];
    }
    assert!(deferred > 0, "held frames were deferred");
    assert_eq!(rt_a.stats().gate_deferrals, deferred);
    assert_eq!(counter(&doc_a, "gate_deferrals"), deferred);
}

#[test]
fn introspection_endpoint_serves_stats_over_unix_socket() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(RuntimeConfig::new(1), &fabric, host).unwrap();
    let session = Session::connect(&rt).unwrap();
    let stream = session.create_stream(QosPolicy::default()).unwrap();
    let source = stream.create_source(ChannelId(9)).unwrap();
    let sink = stream.create_sink(ChannelId(9)).unwrap();
    let mut buf = source.get_buffer(2).unwrap();
    buf.copy_from_slice(b"ok");
    source.emit(buf).unwrap();
    let msg = sink.consume(ConsumeMode::Blocking).unwrap();
    drop(msg);

    let path = std::env::temp_dir().join(format!("insane-introspect-{}.sock", std::process::id()));
    rt.serve_introspection(&*path).unwrap();

    let query = |line: &str| -> String {
        // The accept loop polls every few ms; retry briefly.
        for _ in 0..500 {
            if let Ok(mut conn) = UnixStream::connect(&path) {
                conn.write_all(line.as_bytes()).unwrap();
                conn.write_all(b"\n").unwrap();
                let mut reader = BufReader::new(conn);
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                return response;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("introspection endpoint never came up at {}", path.display());
    };

    let pong = query("ping");
    assert!(pong.contains("\"ok\":true"), "ping response: {pong}");

    let stats = query("stats");
    let doc = insane_telemetry::Value::parse(stats.trim()).expect("stats response parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some(insane_telemetry::SNAPSHOT_SCHEMA)
    );
    let streams = doc.get("streams").and_then(|v| v.as_array()).unwrap();
    assert!(
        streams
            .iter()
            .any(|s| s.get("channel").and_then(|c| c.as_u64()) == Some(9)),
        "locally consumed stream shows up in the endpoint snapshot"
    );

    rt.shutdown();
    assert!(
        !path.exists(),
        "socket file is removed when the runtime stops"
    );
}

#[test]
fn reload_tunables_takes_effect_and_rejects_inconsistency() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let mut config = manual_config(1);
    config.burst = 32;
    let rt = Runtime::start(config, &fabric, host).unwrap();

    // The runtime seeds itself from its construction burst.
    let initial = rt.tunables();
    assert_eq!(initial.burst_max, 32);
    assert_eq!(initial.burst_min, 4);

    // A valid reload is visible on the next read.
    let mut next = insane_core::Tunables::for_burst(8);
    next.idle_sleep_us = 42;
    rt.reload_tunables(next.clone()).unwrap();
    assert_eq!(rt.tunables(), next);

    // An inconsistent snapshot is rejected atomically: nothing changes.
    let bad = insane_core::Tunables {
        burst_min: 64,
        burst_max: 2,
        ..Default::default()
    };
    match rt.reload_tunables(bad) {
        Err(InsaneError::InvalidConfig(msg)) => {
            assert!(msg.contains("burst_min"), "unexpected message: {msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    assert_eq!(rt.tunables(), next);
}

#[test]
fn traffic_flows_across_a_live_tunables_reload() {
    let (_fabric, rt_a, rt_b) = two_node_setup(&[Technology::KernelUdp, Technology::Dpdk]);
    let session_a = Session::connect(&rt_a).unwrap();
    let session_b = Session::connect(&rt_b).unwrap();
    let stream_a = session_a.create_stream(QosPolicy::fast()).unwrap();
    let stream_b = session_b.create_stream(QosPolicy::fast()).unwrap();
    let sink = stream_b.create_sink(ChannelId(31)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    let source = stream_a.create_source(ChannelId(31)).unwrap();
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    // Interleave emits with reloads that swing the burst window; every
    // message must still arrive, in order.
    for round in 0u8..6 {
        if round % 2 == 0 {
            let t = insane_core::Tunables::for_burst(if round % 4 == 0 { 4 } else { 64 });
            rt_a.reload_tunables(t.clone()).unwrap();
            rt_b.reload_tunables(t).unwrap();
        }
        let mut buf = source.get_buffer(1).unwrap();
        buf.copy_from_slice(&[round]);
        source.emit(buf).unwrap();
        let msg = drive_consume(&[&rt_a, &rt_b], &sink);
        assert_eq!(&*msg, &[round], "message order survived the reload");
    }
}

#[test]
fn introspection_endpoint_reloads_tunables() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let fabric = Fabric::new(TestbedProfile::local());
    let host = fabric.add_host("solo");
    let rt = Runtime::start(RuntimeConfig::new(1), &fabric, host).unwrap();
    let path = std::env::temp_dir().join(format!("insane-reload-{}.sock", std::process::id()));
    rt.serve_introspection(&*path).unwrap();

    let query = |line: &str| -> String {
        for _ in 0..500 {
            if let Ok(mut conn) = UnixStream::connect(&path) {
                conn.write_all(line.as_bytes()).unwrap();
                conn.write_all(b"\n").unwrap();
                let mut reader = BufReader::new(conn);
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                return response;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("introspection endpoint never came up at {}", path.display());
    };

    // A good reload round-trips and is visible through the API.
    let ok = query("reload burst_min=2 burst_max=64 idle_sleep_us=10");
    assert!(ok.contains("\"ok\":true"), "reload response: {ok}");
    let t = rt.tunables();
    assert_eq!((t.burst_min, t.burst_max, t.idle_sleep_us), (2, 64, 10));

    // Bad keys, bad values, and inconsistent snapshots are refused and
    // leave the published tunables untouched.
    for bad in [
        "reload bogus=1",
        "reload burst_min=zero",
        "reload burst_min=100 burst_max=4",
        "reload",
    ] {
        let resp = query(bad);
        assert!(
            resp.contains("error"),
            "expected rejection for {bad:?}: {resp}"
        );
    }
    assert_eq!(rt.tunables(), t);

    rt.shutdown();
}
