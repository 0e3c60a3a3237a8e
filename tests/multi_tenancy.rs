//! End-to-end multi-tenant isolation: an over-quota tenant receives
//! typed rejections while a second tenant's stream completes
//! unaffected, on one shared runtime pair.

use insane::core::runtime::poll_until_quiescent;
use insane::memory::MemoryError;
use insane::{
    ChannelId, ConsumeMode, Fabric, InsaneError, QosPolicy, Runtime, RuntimeConfig, Session,
    SessionConfig, Technology, TenantQuota, TenantRate, TenantSpec, TestbedProfile, ThreadingMode,
};

const GREEDY: u16 = 1;
const POLITE: u16 = 2;

/// Two manually-driven runtimes with both tenants registered: the
/// greedy tenant capped at 4 slots, the polite tenant comfortably
/// provisioned.
fn tenant_pair() -> (Fabric, Runtime, Runtime) {
    let fabric = Fabric::new(TestbedProfile::local());
    let host_a = fabric.add_host("node-a");
    let host_b = fabric.add_host("node-b");
    let config = |id: u32| {
        RuntimeConfig::new(id)
            .with_technologies(&[Technology::KernelUdp, Technology::Dpdk])
            .with_threading(ThreadingMode::Manual)
            .with_tenant(TenantSpec::new(GREEDY, TenantQuota::new(2, 4)))
            .with_tenant(TenantSpec::new(POLITE, TenantQuota::new(4, 16)).with_weight(4))
    };
    let rt_a = Runtime::start(config(1), &fabric, host_a).expect("runtime a");
    let rt_b = Runtime::start(config(2), &fabric, host_b).expect("runtime b");
    rt_a.add_peer(host_b).expect("peer");
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);
    (fabric, rt_a, rt_b)
}

#[test]
fn over_quota_tenant_gets_typed_rejections_while_neighbor_completes() {
    let (_fabric, rt_a, rt_b) = tenant_pair();

    // Greedy tenant hoards buffers without emitting until its 4-slot
    // quota is exhausted.
    let greedy = Session::connect_with(&rt_a, SessionConfig::for_tenant(GREEDY)).expect("session");
    let greedy_stream = greedy.create_stream(QosPolicy::fast()).expect("stream");
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);
    let greedy_source = greedy_stream
        .create_source(ChannelId(30))
        .expect("greedy source");
    let mut hoard = Vec::new();
    let rejection = loop {
        match greedy_source.get_buffer(64) {
            Ok(buf) => hoard.push(buf),
            Err(e) => break e,
        }
        assert!(hoard.len() <= 4, "quota cap of 4 slots never enforced");
    };
    assert_eq!(hoard.len(), 4, "the full quota is usable before refusal");
    assert!(
        matches!(
            rejection,
            InsaneError::Memory(MemoryError::QuotaExceeded { tenant: GREEDY, .. })
        ),
        "over-quota lend must fail with the typed quota error, got: {rejection}"
    );

    // The polite tenant's round trip completes while the neighbor is
    // pinned at its cap.
    let polite_a =
        Session::connect_with(&rt_a, SessionConfig::for_tenant(POLITE)).expect("session");
    let polite_b =
        Session::connect_with(&rt_b, SessionConfig::for_tenant(POLITE)).expect("session");
    let stream_a = polite_a.create_stream(QosPolicy::fast()).expect("stream");
    let stream_b = polite_b.create_stream(QosPolicy::fast()).expect("stream");
    let sink = stream_b.create_sink(ChannelId(31)).expect("sink");
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);
    let source = stream_a.create_source(ChannelId(31)).expect("source");
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);

    let mut buf = source.get_buffer(8).expect("polite tenant's lend succeeds");
    buf.copy_from_slice(b"isolated");
    source.emit(buf).expect("emit");
    let msg = loop {
        rt_a.poll_once();
        rt_b.poll_once();
        match sink.consume(ConsumeMode::NonBlocking) {
            Ok(m) => break m,
            Err(InsaneError::WouldBlock) => {}
            Err(e) => panic!("polite tenant must be unaffected, got: {e}"),
        }
    };
    assert_eq!(&*msg, b"isolated");

    // Releasing the hoard restores the greedy tenant's budget.
    hoard.clear();
    let buf = greedy_source
        .get_buffer(64)
        .expect("released slots re-lend");
    drop(buf);
}

/// Closing a stream returns the quota its queued emits were holding, with
/// the session still open: a tenant's teardown must not cost it its budget.
#[test]
fn closing_a_stream_returns_its_tenants_quota() {
    let (_fabric, rt_a, _rt_b) = tenant_pair();
    let greedy = Session::connect_with(&rt_a, SessionConfig::for_tenant(GREEDY)).expect("session");
    let stream = greedy.create_stream(QosPolicy::fast()).expect("stream");
    let source = stream.create_source(ChannelId(32)).expect("source");
    // The whole 4-slot quota, emitted and never polled.
    for _ in 0..4 {
        let buf = source.get_buffer(64).expect("within quota");
        source.emit(buf).expect("emit");
    }
    stream.close();

    let second = greedy.create_stream(QosPolicy::fast()).expect("stream");
    let source = second.create_source(ChannelId(32)).expect("source");
    let lend = source.get_buffer(64);
    assert!(lend.is_ok(), "quota still charged after close: {lend:?}");
}

#[test]
fn rate_limited_tenant_is_refused_without_draining_its_neighbor() {
    let fabric = Fabric::new(TestbedProfile::local());
    let host_a = fabric.add_host("node-a");
    let host_b = fabric.add_host("node-b");
    let config = |id: u32| {
        RuntimeConfig::new(id)
            .with_technologies(&[Technology::KernelUdp])
            .with_threading(ThreadingMode::Manual)
            .with_tenant(
                TenantSpec::new(GREEDY, TenantQuota::new(2, 8)).with_rate(TenantRate::new(1, 2)),
            )
            .with_tenant(TenantSpec::new(POLITE, TenantQuota::new(2, 8)))
    };
    let rt_a = Runtime::start(config(1), &fabric, host_a).expect("runtime a");
    let rt_b = Runtime::start(config(2), &fabric, host_b).expect("runtime b");
    rt_a.add_peer(host_b).expect("peer");
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);

    let greedy = Session::connect_with(&rt_a, SessionConfig::for_tenant(GREEDY)).expect("session");
    let stream = greedy.create_stream(QosPolicy::slow()).expect("stream");
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);
    let source = stream.create_source(ChannelId(40)).expect("source");

    // Burst of 2 admitted, then the 1 msg/sec bucket runs dry.
    let mut rejected = 0;
    for _ in 0..8 {
        match source.get_buffer(16) {
            Ok(buf) => drop(buf),
            Err(InsaneError::AdmissionRejected { tenant }) => {
                assert_eq!(tenant, GREEDY);
                rejected += 1;
            }
            Err(e) => panic!("only typed admission rejections expected, got: {e}"),
        }
    }
    assert!(
        rejected >= 6,
        "the empty bucket must refuse, got {rejected}"
    );

    // The unlimited neighbor on the same runtime still lends freely.
    let polite = Session::connect_with(&rt_a, SessionConfig::for_tenant(POLITE)).expect("session");
    let polite_stream = polite.create_stream(QosPolicy::slow()).expect("stream");
    poll_until_quiescent(&[&rt_a, &rt_b], 200_000);
    let polite_source = polite_stream.create_source(ChannelId(41)).expect("source");
    for _ in 0..8 {
        let buf = polite_source
            .get_buffer(16)
            .expect("neighbor keeps its own admission budget");
        drop(buf);
    }
}
