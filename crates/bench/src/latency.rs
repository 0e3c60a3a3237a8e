//! Round-trip-time measurement for every system in Fig. 5/7.
//!
//! Each measurement is a serial inline ping-pong (see the crate docs for
//! why that is exact on this one-core host): client sends, the harness
//! drives the receiving side until the echo returns, and the wall clock
//! between send and receipt is one RTT sample.

use std::time::Instant;

use insane_core::{ConsumeMode, InsaneError, QosPolicy, Technology};
use insane_demikernel::{Backend, DemiEvent, Demikernel};
use insane_fabric::devices::{DpdkPort, SimUdpSocket};
use insane_fabric::{Endpoint, Fabric, FabricError, TestbedProfile};
use insane_telemetry::Value;

use crate::setup::InsanePair;
use crate::stats::Series;
use crate::BenchError;

/// The systems compared in the latency experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// UDP socket with a blocking receive.
    UdpBlocking,
    /// UDP socket polled without blocking.
    UdpNonBlocking,
    /// Native DPDK (mempool + burst I/O, no middleware).
    RawDpdk,
    /// Demikernel over kernel sockets.
    Catnap,
    /// Demikernel over DPDK.
    Catnip,
    /// INSANE, datapath-acceleration QoS = slow (kernel UDP).
    InsaneSlow,
    /// INSANE, datapath-acceleration QoS = fast (DPDK).
    InsaneFast,
    /// INSANE mapped to XDP (accelerated + resource-constrained QoS).
    InsaneXdp,
    /// INSANE mapped to RDMA (accelerated QoS with RDMA hardware).
    InsaneRdma,
}

impl System {
    /// Label as used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            System::UdpBlocking => "Blocking UDP Socket",
            System::UdpNonBlocking => "Non-Blocking UDP Socket",
            System::RawDpdk => "Raw DPDK",
            System::Catnap => "Catnap UDP",
            System::Catnip => "Catnip UDP",
            System::InsaneSlow => "INSANE slow",
            System::InsaneFast => "INSANE fast",
            System::InsaneXdp => "INSANE xdp",
            System::InsaneRdma => "INSANE rdma",
        }
    }
}

/// One `BENCH_latency.json` entry: a system × testbed × payload RTT
/// series, nanoseconds.
pub fn row(system: &str, testbed: &str, payload: usize, series: &Series) -> Value {
    Value::object([
        ("system", system.into()),
        ("testbed", testbed.into()),
        ("payload_bytes", (payload as u64).into()),
        ("samples", (series.len() as u64).into()),
        ("p50_ns", series.median().into()),
        ("p90_ns", series.p90().into()),
        ("p99_ns", series.p99().into()),
        ("p999_ns", series.p999().into()),
        ("mean_ns", series.mean().into()),
        ("min_ns", series.min().into()),
        ("max_ns", series.max().into()),
    ])
}

/// Measures an RTT series of `iters` samples (after `warmup` discarded
/// rounds) for `payload`-byte messages on `profile`.
///
/// # Errors
///
/// Propagates failures from the system under measurement.
pub fn rtt_series(
    system: System,
    profile: &TestbedProfile,
    payload: usize,
    iters: usize,
    warmup: usize,
) -> Result<Series, BenchError> {
    match system {
        System::UdpBlocking => udp_rtt(profile, payload, iters, warmup, true),
        System::UdpNonBlocking => udp_rtt(profile, payload, iters, warmup, false),
        System::RawDpdk => dpdk_rtt(profile, payload, iters, warmup),
        System::Catnap => demi_rtt(Backend::Catnap, profile, payload, iters, warmup),
        System::Catnip => demi_rtt(Backend::Catnip, profile, payload, iters, warmup),
        System::InsaneSlow => insane_rtt(
            profile,
            &[Technology::KernelUdp, Technology::Dpdk],
            QosPolicy::slow(),
            Technology::KernelUdp,
            payload,
            iters,
            warmup,
        ),
        System::InsaneFast => insane_rtt(
            profile,
            &[Technology::KernelUdp, Technology::Dpdk],
            QosPolicy::fast(),
            Technology::Dpdk,
            payload,
            iters,
            warmup,
        ),
        System::InsaneXdp => insane_rtt(
            profile,
            &[Technology::KernelUdp, Technology::Xdp],
            QosPolicy::frugal(),
            Technology::Xdp,
            payload,
            iters,
            warmup,
        ),
        System::InsaneRdma => insane_rtt(
            profile,
            &[Technology::KernelUdp, Technology::Rdma],
            QosPolicy::fast(),
            Technology::Rdma,
            payload,
            iters,
            warmup,
        ),
    }
}

fn udp_rtt(
    profile: &TestbedProfile,
    payload: usize,
    iters: usize,
    warmup: usize,
    blocking: bool,
) -> Result<Series, BenchError> {
    let fabric = Fabric::new(profile.clone());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let sa = SimUdpSocket::bind(&fabric, a, 9000)?;
    let sb = SimUdpSocket::bind(&fabric, b, 9000)?;
    sa.set_mtu(SimUdpSocket::JUMBO_MTU);
    sb.set_mtu(SimUdpSocket::JUMBO_MTU);
    let msg = vec![0xA5u8; payload];
    let recv = |socket: &SimUdpSocket| -> Result<Vec<u8>, BenchError> {
        if blocking {
            Ok(socket.recv_blocking_emulated()?.payload)
        } else {
            loop {
                match socket.try_recv() {
                    Ok(d) => break Ok(d.payload),
                    Err(FabricError::WouldBlock) => core::hint::spin_loop(),
                    Err(e) => break Err(e.into()),
                }
            }
        }
    };
    let mut series = Series::new();
    for i in 0..iters + warmup {
        let t0 = Instant::now();
        sa.send_to(&msg, sb.local_addr())?;
        let ping = recv(&sb)?;
        sb.send_to(&ping, sa.local_addr())?;
        let _pong = recv(&sa)?;
        if i >= warmup {
            series.push(t0.elapsed().as_nanos() as u64);
        }
    }
    Ok(series)
}

fn dpdk_rtt(
    profile: &TestbedProfile,
    payload: usize,
    iters: usize,
    warmup: usize,
) -> Result<Series, BenchError> {
    let fabric = Fabric::new(profile.clone());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let pa = DpdkPort::open(&fabric, a, 0, 256)?;
    let pb = DpdkPort::open(&fabric, b, 0, 256)?;
    let msg = vec![0xA5u8; payload];
    let mut rx = Vec::with_capacity(4);
    let mut series = Series::new();
    for i in 0..iters + warmup {
        let t0 = Instant::now();
        let mut mbuf = pa.alloc_mbuf(payload)?;
        mbuf.copy_from_slice(&msg);
        pa.tx_burst(pb.local_addr(), [mbuf])?;
        while pb.rx_burst(&mut rx, 1) == 0 {}
        let ping = rx.pop().ok_or_else(|| {
            BenchError::Other("rx_burst reported a packet it did not deliver".into())
        })?;
        pb.tx_forward(pa.local_addr(), ping)?;
        while pa.rx_burst(&mut rx, 1) == 0 {}
        rx.clear();
        if i >= warmup {
            series.push(t0.elapsed().as_nanos() as u64);
        }
    }
    Ok(series)
}

fn demi_rtt(
    backend: Backend,
    profile: &TestbedProfile,
    payload: usize,
    iters: usize,
    warmup: usize,
) -> Result<Series, BenchError> {
    let fabric = Fabric::new(profile.clone());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let mut da = Demikernel::new(backend, &fabric, a)?;
    let mut db = Demikernel::new(backend, &fabric, b)?;
    let qa = da.socket()?;
    let qb = db.socket()?;
    da.bind(qa, 9000)?;
    db.bind(qb, 9000)?;
    let ea = Endpoint {
        host: a,
        port: 9000,
    };
    let eb = Endpoint {
        host: b,
        port: 9000,
    };
    let msg = vec![0xA5u8; payload];
    let mut series = Series::new();
    for i in 0..iters + warmup {
        let t0 = Instant::now();
        da.push_to(qa, &msg, eb)?;
        let pop = db.pop(qb)?;
        let DemiEvent::Popped { bytes, .. } = db.wait(pop, None)? else {
            return Err(BenchError::Other("pop token completed as Pushed".into()));
        };
        db.push_to(qb, &bytes, ea)?;
        let pop = da.pop(qa)?;
        let _ = da.wait(pop, None)?;
        if i >= warmup {
            series.push(t0.elapsed().as_nanos() as u64);
        }
    }
    Ok(series)
}

fn insane_rtt(
    profile: &TestbedProfile,
    techs: &[Technology],
    qos: QosPolicy,
    hot_path: Technology,
    payload: usize,
    iters: usize,
    warmup: usize,
) -> Result<Series, BenchError> {
    let pair = InsanePair::new(profile.clone(), techs)?;
    let (ping_source, ping_sink, pong_source, pong_sink) = pair.ping_pong(qos)?;
    let msg = vec![0xA5u8; payload];
    let mut series = Series::new();
    for i in 0..iters + warmup {
        let t0 = Instant::now();
        let mut buf = ping_source.get_buffer(payload)?;
        buf.copy_from_slice(&msg);
        ping_source.emit(buf)?;
        // Phase drive: one TX-only poll of the sender runtime moves the
        // emitted token all the way to the device (drain → schedule →
        // send happen in one iteration), then the receiving runtime is
        // polled until the message lands — each phase is exactly what the
        // responsible host's dedicated polling thread executes on the
        // critical path (its receive polls run concurrently on real
        // hardware and are deliberately not serialized into the sample).
        pair.rt_a.poll_transmit(hot_path);
        let ping = loop {
            pair.rt_b.poll_technology(hot_path);
            match ping_sink.consume(ConsumeMode::NonBlocking) {
                Ok(m) => break m,
                Err(InsaneError::WouldBlock) => {}
                Err(e) => return Err(e.into()),
            }
        };
        let mut echo = pong_source.get_buffer(ping.len())?;
        echo.copy_from_slice(&ping);
        drop(ping);
        pong_source.emit(echo)?;
        pair.rt_b.poll_transmit(hot_path);
        let pong = loop {
            pair.rt_a.poll_technology(hot_path);
            match pong_sink.consume(ConsumeMode::NonBlocking) {
                Ok(m) => break m,
                Err(InsaneError::WouldBlock) => {}
                Err(e) => return Err(e.into()),
            }
        };
        drop(pong);
        if i >= warmup {
            series.push(t0.elapsed().as_nanos() as u64);
        }
    }
    Ok(series)
}

/// Runs an INSANE-fast ping-pong collecting the Fig. 6 latency-breakdown
/// components (summed over both directions of each round trip).
///
/// # Errors
///
/// Propagates middleware failures.
pub fn insane_fast_breakdown(
    profile: &TestbedProfile,
    payload: usize,
    iters: usize,
    warmup: usize,
) -> Result<BreakdownAverages, BenchError> {
    let pair = InsanePair::new(profile.clone(), &[Technology::KernelUdp, Technology::Dpdk])?;
    let (ping_source, ping_sink, pong_source, pong_sink) = pair.ping_pong(QosPolicy::fast())?;
    let msg = vec![0xA5u8; payload];
    let mut acc = BreakdownAverages::default();
    for i in 0..iters + warmup {
        let mut buf = ping_source.get_buffer(payload)?;
        buf.copy_from_slice(&msg);
        ping_source.emit(buf)?;
        pair.rt_a.poll_transmit(Technology::Dpdk);
        let ping = loop {
            pair.rt_b.poll_technology(Technology::Dpdk);
            match ping_sink.consume(ConsumeMode::NonBlocking) {
                Ok(m) => break m,
                Err(InsaneError::WouldBlock) => {}
                Err(e) => return Err(e.into()),
            }
        };
        let ping_bd = ping.breakdown();
        let mut echo = pong_source.get_buffer(ping.len())?;
        echo.copy_from_slice(&ping);
        drop(ping);
        pong_source.emit(echo)?;
        pair.rt_b.poll_transmit(Technology::Dpdk);
        let pong = loop {
            pair.rt_a.poll_technology(Technology::Dpdk);
            match pong_sink.consume(ConsumeMode::NonBlocking) {
                Ok(m) => break m,
                Err(InsaneError::WouldBlock) => {}
                Err(e) => return Err(e.into()),
            }
        };
        let pong_bd = pong.breakdown();
        drop(pong);
        if i >= warmup {
            acc.samples += 1;
            acc.send_ns += ping_bd.send_ns + pong_bd.send_ns;
            acc.network_ns += ping_bd.network_ns + pong_bd.network_ns;
            acc.receive_ns += ping_bd.receive_ns + pong_bd.receive_ns;
            acc.processing_ns += ping_bd.processing_ns + pong_bd.processing_ns;
        }
    }
    Ok(acc)
}

/// Accumulated Fig. 6 components (totals; divide by `samples`).
#[derive(Debug, Default, Clone, Copy)]
pub struct BreakdownAverages {
    /// Number of round trips accumulated.
    pub samples: u64,
    /// Total send-component nanoseconds.
    pub send_ns: u64,
    /// Total network-component nanoseconds.
    pub network_ns: u64,
    /// Total receive-component nanoseconds.
    pub receive_ns: u64,
    /// Total data-processing-component nanoseconds.
    pub processing_ns: u64,
}

impl BreakdownAverages {
    /// Per-round-trip averages `(send, receive, processing, network)` in
    /// nanoseconds.
    pub fn averages(&self) -> (u64, u64, u64, u64) {
        if self.samples == 0 {
            return (0, 0, 0, 0);
        }
        (
            self.send_ns / self.samples,
            self.receive_ns / self.samples,
            self.processing_ns / self.samples,
            self.network_ns / self.samples,
        )
    }
}
