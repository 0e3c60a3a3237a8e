//! Goodput measurement (Fig. 8) under the pipeline model.
//!
//! On the paper's testbeds sender and receiver run concurrently, so
//! sustained goodput is set by the slowest stage of the pipeline:
//! sender CPU, wire serialization, or receiver CPU.  This harness times
//! the TX and RX stages separately (each driven inline) and reports
//! `payload·8 / max(tx_ns, rx_ns, wire_ns)` per message.  Throughput is
//! measured as *goodput*: payload bits delivered per unit time, as §6.2
//! defines.
//!
//! The TX harness writes only a 64-byte prefix of each payload rather
//! than regenerating the full buffer: the measurement targets the
//! *systems'* inherent copies (the kernel path's user→kernel copy,
//! Catnip's mbuf fill) against the zero-copy paths, not the
//! application's payload-production rate — which on this DRAM-starved
//! vCPU would dominate every system equally and is not representative of
//! the paper's testbed.

use std::time::Instant;

use insane_core::{ConsumeMode, InsaneError, QosPolicy, Technology};
use insane_demikernel::{Backend, DemiEvent, Demikernel};
use insane_fabric::devices::{DpdkPort, SimUdpSocket};
use insane_fabric::{Endpoint, Fabric, FabricError, TestbedProfile};
use insane_telemetry::Value;

use crate::setup::{throughput_config, throughput_profile, InsanePair};
use crate::stats::gbps;
use crate::BenchError;

/// The systems compared in Fig. 8a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TputSystem {
    /// Plain kernel UDP sockets.
    KernelUdp,
    /// Native DPDK burst I/O.
    RawDpdk,
    /// Demikernel over kernel sockets.
    Catnap,
    /// Demikernel over DPDK (one packet per push).
    Catnip,
    /// INSANE slow (kernel UDP datapath).
    InsaneSlow,
    /// INSANE fast (DPDK datapath, opportunistic batching).
    InsaneFast,
}

impl TputSystem {
    /// Label as used in the paper's Fig. 8a legend.
    pub fn label(&self) -> &'static str {
        match self {
            TputSystem::KernelUdp => "Kernel UDP",
            TputSystem::RawDpdk => "Raw DPDK",
            TputSystem::Catnap => "Catnap UDP",
            TputSystem::Catnip => "Catnip UDP",
            TputSystem::InsaneSlow => "INSANE slow",
            TputSystem::InsaneFast => "INSANE fast",
        }
    }
}

/// Per-message wire time: serialization of payload + frame overhead at
/// the profile's line rate (the stage that caps Fig. 8a at ~97 Gbps).
pub fn wire_ns_per_msg(profile: &TestbedProfile, payload: usize) -> u64 {
    profile.link.serialization(payload + 42).as_nanos() as u64
}

/// Measured pipeline stages for one configuration, per message.
#[derive(Debug, Clone, Copy)]
pub struct Stages {
    /// Sender-side CPU per message, nanoseconds.
    pub tx_ns: u64,
    /// Receiver-side CPU per message, nanoseconds.
    pub rx_ns: u64,
    /// Wire serialization per message, nanoseconds.
    pub wire_ns: u64,
}

impl Stages {
    /// Goodput in Gbps for `payload`-byte messages.
    pub fn goodput_gbps(&self, payload: usize) -> f64 {
        let bottleneck = self.tx_ns.max(self.rx_ns).max(self.wire_ns).max(1);
        gbps(payload, 1, bottleneck)
    }
}

/// Measures both pipeline stages for `system` with `n` messages of
/// `payload` bytes.
///
/// # Errors
///
/// Propagates failures from the system under measurement.
pub fn stages(
    system: TputSystem,
    profile: &TestbedProfile,
    payload: usize,
    n: usize,
) -> Result<Stages, BenchError> {
    let wire_ns = wire_ns_per_msg(profile, payload);
    let (tx_ns, rx_ns) = match system {
        TputSystem::KernelUdp => (
            udp_tx_ns(profile, payload, n)?,
            udp_rx_ns(profile, payload, n)?,
        ),
        TputSystem::RawDpdk => (
            dpdk_tx_ns(profile, payload, n)?,
            dpdk_rx_ns(profile, payload, n)?,
        ),
        TputSystem::Catnap => demi_stages(Backend::Catnap, profile, payload, n)?,
        TputSystem::Catnip => demi_stages(Backend::Catnip, profile, payload, n)?,
        TputSystem::InsaneSlow => {
            let (s, _) = insane_stages(
                profile,
                QosPolicy::slow(),
                Technology::KernelUdp,
                payload,
                n,
                1,
            )?;
            (s.tx_ns, s.rx_ns)
        }
        TputSystem::InsaneFast => {
            let (s, _) =
                insane_stages(profile, QosPolicy::fast(), Technology::Dpdk, payload, n, 1)?;
            (s.tx_ns, s.rx_ns)
        }
    };
    Ok(Stages {
        tx_ns,
        rx_ns,
        wire_ns,
    })
}

/// One `BENCH_throughput.json` / `BENCH_shard_throughput.json` entry: a
/// system × testbed × payload goodput in Gbit/s over `messages`
/// messages.
pub fn row(system: &str, testbed: &str, payload: usize, messages: usize, gbps: f64) -> Value {
    Value::object([
        ("system", system.into()),
        ("testbed", testbed.into()),
        ("payload_bytes", (payload as u64).into()),
        ("messages", (messages as u64).into()),
        ("goodput_gbps", gbps.into()),
    ])
}

/// The `stages` suite, a developer probe: raw pipeline-stage timings
/// per system and payload.
///
/// # Errors
///
/// Propagates failures from the system under measurement.
pub fn suite(profile: &TestbedProfile) -> Result<(), BenchError> {
    for payload in [64usize, 1024, 8192] {
        for sys in [
            TputSystem::RawDpdk,
            TputSystem::InsaneFast,
            TputSystem::KernelUdp,
            TputSystem::InsaneSlow,
            TputSystem::Catnip,
            TputSystem::Catnap,
        ] {
            let s = stages(sys, profile, payload, 2000)?;
            println!(
                "{:12} {:5}B tx={:6}ns rx={:6}ns wire={:4}ns -> {:.2} Gbps",
                sys.label(),
                payload,
                s.tx_ns,
                s.rx_ns,
                s.wire_ns,
                s.goodput_gbps(payload)
            );
        }
        println!();
    }
    Ok(())
}

/// Fig. 8a entry point: goodput of `system`.
///
/// # Errors
///
/// Propagates failures from the system under measurement.
pub fn goodput_gbps(
    system: TputSystem,
    profile: &TestbedProfile,
    payload: usize,
    n: usize,
) -> Result<f64, BenchError> {
    Ok(stages(system, profile, payload, n)?.goodput_gbps(payload))
}

/// Fig. 8b entry point: per-sink goodput with `sinks` co-located sink
/// applications on the receiving host (1 KB payloads in the paper).
pub fn insane_multi_sink_gbps(
    profile: &TestbedProfile,
    payload: usize,
    sinks: usize,
    n: usize,
) -> Result<f64, BenchError> {
    let (stages, _) = insane_stages(
        profile,
        QosPolicy::fast(),
        Technology::Dpdk,
        payload,
        n,
        sinks,
    )?;
    Ok(stages.goodput_gbps(payload))
}

// ---------------------------------------------------------------------
// Raw kernel UDP
// ---------------------------------------------------------------------

fn udp_tx_ns(profile: &TestbedProfile, payload: usize, n: usize) -> Result<u64, BenchError> {
    let fabric = Fabric::new(profile.clone());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let socket = SimUdpSocket::bind(&fabric, a, 9000)?;
    socket.set_mtu(SimUdpSocket::JUMBO_MTU);
    // Shallow destination: frames drop cheaply, sender is unthrottled.
    let dst = Endpoint {
        host: b,
        port: 9000,
    };
    let _sink = fabric.bind_with_capacity(dst, 64)?;
    let msg = vec![0x5Au8; payload];
    let round = 256.min(n.max(1));
    let rounds = n.div_ceil(round).max(4);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..round {
            socket.send_to(&msg, dst)?;
        }
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    Ok(median_per_msg(&samples, round))
}

/// Writes a 64-byte message prefix (see the module docs).
fn fill_prefix(buf: &mut [u8]) {
    let n = buf.len().min(64);
    buf[..n].fill(0x5A);
}

/// Median per-message time across measurement rounds.  Hypervisor steal
/// time on this vCPU shows up as multi-millisecond stalls; medians over
/// sub-rounds reject them where a single long pass cannot.
fn median_per_msg(rounds_ns: &[u64], round: usize) -> u64 {
    let series = crate::stats::Series::from_samples(rounds_ns.to_vec());
    series.median() / round.max(1) as u64
}

fn udp_rx_ns(profile: &TestbedProfile, payload: usize, n: usize) -> Result<u64, BenchError> {
    let fabric = Fabric::new(profile.clone());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let tx = SimUdpSocket::bind(&fabric, a, 9000)?;
    let rx = SimUdpSocket::bind(&fabric, b, 9000)?;
    tx.set_mtu(SimUdpSocket::JUMBO_MTU);
    rx.set_mtu(SimUdpSocket::JUMBO_MTU);
    let msg = vec![0x5Au8; payload];
    let round = 256.min(n.max(1));
    let rounds = n.div_ceil(round).max(4);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        for _ in 0..round {
            tx.send_to(&msg, rx.local_addr())?;
        }
        settle_wire();
        let t0 = Instant::now();
        let mut got = 0;
        while got < round {
            match rx.try_recv() {
                Ok(_) => got += 1,
                Err(FabricError::WouldBlock) => core::hint::spin_loop(),
                Err(e) => return Err(e.into()),
            }
        }
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    Ok(median_per_msg(&samples, round))
}

// ---------------------------------------------------------------------
// Raw DPDK
// ---------------------------------------------------------------------

fn dpdk_tx_ns(profile: &TestbedProfile, payload: usize, n: usize) -> Result<u64, BenchError> {
    let fabric = Fabric::new(profile.clone());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let port = DpdkPort::open(&fabric, a, 0, 8_192)?;
    let dst = Endpoint { host: b, port: 0 };
    let _sink = fabric.bind_with_capacity(dst, 64)?;
    let round = 256.min(n.max(1));
    let rounds = n.div_ceil(round).max(4);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        let mut sent = 0;
        while sent < round {
            let burst = 32.min(round - sent);
            let mut mbufs = Vec::with_capacity(burst);
            for _ in 0..burst {
                let mut mbuf = loop {
                    match port.alloc_mbuf(payload) {
                        Ok(m) => break m,
                        Err(_) => core::hint::spin_loop(),
                    }
                };
                fill_prefix(&mut mbuf);
                mbufs.push(mbuf);
            }
            port.tx_burst(dst, mbufs)?;
            sent += burst;
        }
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    Ok(median_per_msg(&samples, round))
}

fn dpdk_rx_ns(profile: &TestbedProfile, payload: usize, n: usize) -> Result<u64, BenchError> {
    let fabric = Fabric::new(profile.clone());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let tx = DpdkPort::open(&fabric, a, 0, 8_192)?;
    let rx = DpdkPort::open(&fabric, b, 0, 64)?;
    let round = 256.min(n.max(1));
    let rounds = n.div_ceil(round).max(4);
    let mut samples = Vec::with_capacity(rounds);
    let mut packets = Vec::with_capacity(64);
    for _ in 0..rounds {
        let mut sent = 0;
        while sent < round {
            let burst = 32.min(round - sent);
            let mut mbufs = Vec::with_capacity(burst);
            for _ in 0..burst {
                let mut mbuf = tx.alloc_mbuf(payload)?;
                fill_prefix(&mut mbuf);
                mbufs.push(mbuf);
            }
            tx.tx_burst(rx.local_addr(), mbufs)?;
            sent += burst;
        }
        settle_wire();
        let t0 = Instant::now();
        let mut got = 0;
        while got < round {
            got += rx.rx_burst(&mut packets, 32);
            packets.clear();
        }
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    Ok(median_per_msg(&samples, round))
}

// ---------------------------------------------------------------------
// Demikernel
// ---------------------------------------------------------------------

fn demi_stages(
    backend: Backend,
    profile: &TestbedProfile,
    payload: usize,
    n: usize,
) -> Result<(u64, u64), BenchError> {
    // TX stage.
    let tx_ns = {
        let fabric = Fabric::new(profile.clone());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let mut demi = Demikernel::new(backend, &fabric, a)?;
        let qd = demi.socket()?;
        demi.bind(qd, 9000)?;
        let dst = Endpoint {
            host: b,
            port: 9000,
        };
        let _sink = fabric.bind_with_capacity(dst, 64)?;
        let msg = vec![0x5Au8; payload];
        let round = 256.min(n.max(1));
        let rounds = n.div_ceil(round).max(4);
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t0 = Instant::now();
            for _ in 0..round {
                let token = demi.push_to(qd, &msg, dst)?;
                demi.wait(token, None)?;
            }
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        median_per_msg(&samples, round)
    };
    // RX stage.
    let rx_ns = {
        let fabric = Fabric::new(profile.clone());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let mut tx = Demikernel::new(backend, &fabric, a)?;
        let mut demi = Demikernel::new(backend, &fabric, b)?;
        let qt = tx.socket()?;
        tx.bind(qt, 9000)?;
        let qd = demi.socket()?;
        demi.bind(qd, 9000)?;
        let dst = Endpoint {
            host: b,
            port: 9000,
        };
        let msg = vec![0x5Au8; payload];
        let round = 256.min(n.max(1));
        let rounds = n.div_ceil(round).max(4);
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            for _ in 0..round {
                let token = tx.push_to(qt, &msg, dst)?;
                tx.wait(token, None)?;
            }
            settle_wire();
            let t0 = Instant::now();
            for _ in 0..round {
                let pop = demi.pop(qd)?;
                match demi.wait(pop, None)? {
                    DemiEvent::Popped { .. } => {}
                    DemiEvent::Pushed => {
                        return Err(BenchError::Other("pop token completed as Pushed".into()))
                    }
                }
            }
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        median_per_msg(&samples, round)
    };
    Ok((tx_ns, rx_ns))
}

// ---------------------------------------------------------------------
// INSANE
// ---------------------------------------------------------------------

fn insane_stages(
    profile: &TestbedProfile,
    qos: QosPolicy,
    hot_path: Technology,
    payload: usize,
    n: usize,
    sinks: usize,
) -> Result<(Stages, u64), BenchError> {
    let techs = [Technology::KernelUdp, Technology::Dpdk];
    let wire_ns = wire_ns_per_msg(profile, payload);

    // TX stage: receiver runtime exists (so the subscription routes the
    // messages onto the wire) but is never polled; its NIC ring absorbs
    // and then drops, exactly like an overrun receiver.
    let tx_ns = {
        let pair = InsanePair::with_config(
            throughput_profile(profile.clone()),
            &techs,
            throughput_config,
        )?;
        let (source, _sinks) = pair.one_way(qos, 1)?;
        let round = 256.min(n.max(1));
        let rounds = n.div_ceil(round).max(4);
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t0 = Instant::now();
            let mut emitted = 0usize;
            let mut last_token = None;
            while emitted < round {
                match source.get_buffer(payload) {
                    Ok(mut buf) => {
                        fill_prefix(&mut buf);
                        match source.emit(buf) {
                            Ok(token) => {
                                last_token = Some(token);
                                emitted += 1;
                                if emitted.is_multiple_of(32) {
                                    pair.rt_a.poll_transmit(hot_path);
                                }
                            }
                            Err(InsaneError::Backpressure) => {
                                pair.rt_a.poll_transmit(hot_path);
                            }
                            Err(e) => return Err(e.into()),
                        }
                    }
                    Err(InsaneError::Memory(_)) => {
                        // Pool back-pressure: let the runtime flush.
                        pair.rt_a.poll_transmit(hot_path);
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            // Flush: drain until the last message left the runtime.
            if let Some(token) = last_token {
                while source.emit_outcome(token) == insane_core::EmitOutcome::Pending {
                    pair.rt_a.poll_transmit(hot_path);
                }
            }
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        median_per_msg(&samples, round)
    };

    // RX stage: prefill the receiver's NIC ring, then time two separate
    // pipeline stages.  The *runtime* stage is the paper's single polling
    // thread (§8: "a single sender easily overflows a single-core sink"):
    // device drain + per-sink dispatch, serialized on one core.  The
    // *consumer* stage is one sink application's consume work — the
    // paper's sink applications are separate processes on their own
    // cores, so their work runs in parallel across sinks, not multiplied
    // by the sink count.
    let (rx_ns, dropped) = {
        let pair = InsanePair::with_config(
            throughput_profile(profile.clone()),
            &techs,
            throughput_config,
        )?;
        let (source, sink_handles) = pair.one_way(qos, sinks)?;
        let round = 256.min(n.max(1));
        let rounds = n.div_ceil(round).max(4);
        let mut samples = Vec::with_capacity(rounds);
        let mut consume_samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let mut emitted = 0usize;
            while emitted < round {
                match source.get_buffer(payload) {
                    Ok(mut buf) => {
                        fill_prefix(&mut buf);
                        match source.emit(buf) {
                            Ok(_) => emitted += 1,
                            Err(InsaneError::Backpressure) => {
                                pair.rt_a.poll_technology(hot_path);
                            }
                            Err(e) => return Err(e.into()),
                        }
                    }
                    Err(InsaneError::Memory(_)) => {
                        pair.rt_a.poll_technology(hot_path);
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            // Flush the sender runtime (untimed).
            for _ in 0..100_000 {
                if !pair.rt_a.poll_technology(hot_path) {
                    break;
                }
            }
            settle_wire();
            let expected = (round * sinks) as u64;
            let already: u64 = sink_handles.iter().map(|s| s.stats().received).sum();
            // Runtime stage: the polling thread moves every message from
            // the NIC ring into all sink queues.
            let t0 = Instant::now();
            loop {
                pair.rt_b.poll_technology(hot_path);
                let received: u64 = sink_handles.iter().map(|s| s.stats().received).sum();
                if received - already >= expected {
                    break;
                }
            }
            samples.push(t0.elapsed().as_nanos() as u64);
            // Consumer stage: each sink application drains its queue on
            // its own core; measured serially here and normalized.
            let t1 = Instant::now();
            for sink in &sink_handles {
                loop {
                    match sink.consume(ConsumeMode::NonBlocking) {
                        Ok(m) => drop(m),
                        Err(InsaneError::WouldBlock) => break,
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            consume_samples.push(t1.elapsed().as_nanos() as u64 / sinks.max(1) as u64);
        }
        let dropped = sink_handles.iter().map(|s| s.stats().dropped).sum();
        let runtime_ns = median_per_msg(&samples, round);
        let consume_ns = median_per_msg(&consume_samples, round);
        (runtime_ns.max(consume_ns), dropped)
    };

    Ok((
        Stages {
            tx_ns,
            rx_ns,
            wire_ns,
        },
        dropped,
    ))
}

/// Waits long enough for prefilled frames to become deliverable
/// (serialization of a full ring at line rate is well under this).
fn settle_wire() {
    std::thread::sleep(std::time::Duration::from_millis(3));
}
