//! The layer ladder: tight-loop measurements of one public function
//! (pair) of each layer crate, median ns per call over blocks of calls.
//!
//! A rung says what a function costs in isolation, hot in cache and
//! uncontended; the spans say what it costs inside an operation.  A
//! change to a layer should move its rung, and the README's table says
//! which end-to-end metric should follow on which workload.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use insane_fabric::devices::DpdkPort;
use insane_fabric::{Fabric, TestbedProfile};
use insane_ipc::loopback::InProcessLoop;
use insane_memory::{PoolConfig, PoolSetBuilder, Segment, SlotPool, TenantQuota};
use insane_netstack::ether::MacAddr;
use insane_netstack::fragment::{self, MessageKey, Reassembler};
use insane_netstack::insane_hdr::{self, InsaneHeader, HEADER_LEN};
use insane_netstack::packet::{PacketBuilder, PacketView};
use insane_netstack::FRAME_OVERHEAD;
use insane_queues::{ring_bytes, FreeStack, MpmcQueue, ShmConsumer, ShmProducer, SnapshotCell};
use insane_tsn::{FifoScheduler, GateControlList, Scheduler, TasScheduler, TrafficClass};

use crate::run::Fatal;
use crate::stats::{median_f64, percentile};

/// Calls per timed block.
const BLOCK: usize = 100_000;
/// Timed blocks per rung (one more runs first, untimed, to warm up).
const BLOCKS: usize = 5;

/// Median over [`BLOCKS`] blocks of the mean time of one `f()`, ns.
fn rung(mut f: impl FnMut()) -> f64 {
    rung_of(BLOCK, &mut f)
}

/// [`rung`] for a call that is itself a batch: `calls` per block.
fn rung_of(calls: usize, f: &mut impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(BLOCKS);
    for block in 0..=BLOCKS {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / calls as f64;
        if block > 0 {
            per_call.push(ns);
        }
    }
    median_f64(&per_call)
}

/// `(name, value)` pairs, names as in `BENCHMARK.json`.
pub type Metrics = Vec<(&'static str, f64)>;

/// Cost of reading the clock the way the spans do.
pub fn timer_ns() -> f64 {
    let epoch = Instant::now();
    rung(|| {
        black_box(epoch.elapsed().as_nanos() as u64);
    })
}

pub fn queues(out: &mut Metrics) {
    let (tx, rx) = insane_queues::channel::<u64>(1024);
    out.push((
        "queues.spsc.push_pop_ns",
        rung(|| {
            let _ = tx.push(black_box(7));
            black_box(rx.pop());
        }),
    ));
    let mut burst = Vec::with_capacity(32);
    out.push((
        "queues.spsc.pop_burst32_ns",
        rung_of(BLOCK / 32, &mut || {
            for i in 0..32u64 {
                let _ = tx.push(black_box(i));
            }
            burst.clear();
            black_box(rx.pop_burst(&mut burst, 32));
        }),
    ));

    let mpmc = MpmcQueue::<u64>::new(1024);
    out.push((
        "queues.mpmc.push_pop_ns",
        rung(|| {
            let _ = mpmc.push(black_box(7));
            black_box(mpmc.pop());
        }),
    ));

    let stack = FreeStack::full(256);
    out.push((
        "queues.free_stack.pop_push_ns",
        rung(|| {
            if let Some(index) = black_box(stack.pop()) {
                stack.push(index);
            }
        }),
    ));

    let cell = SnapshotCell::new(0u64);
    let mut cached = cell.load();
    out.push((
        "queues.snapshot.refresh_ns",
        rung(|| {
            black_box(cell.refresh(&mut cached));
        }),
    ));

    const RING: usize = 64;
    let region = Segment::heap(ring_bytes(RING));
    let keep: Arc<dyn core::any::Any + Send + Sync> = Arc::new(region.clone());
    // SAFETY: `region` is `ring_bytes(RING)` zeroed, 64-byte-aligned bytes
    // that `keep` pins for the life of both handles; exactly one producer
    // and one consumer are attached, both used from this thread only, and
    // nothing else touches the region.
    let (producer, consumer) = unsafe {
        (
            ShmProducer::attach(region.base_ptr(), RING, Some(Arc::clone(&keep))),
            ShmConsumer::attach(region.base_ptr(), RING, Some(keep)),
        )
    };
    out.push((
        "queues.shm_spsc.push_pop_ns",
        rung(|| {
            let _ = producer.push(black_box([7, 9]));
            black_box(consumer.pop());
        }),
    ));
}

pub fn memory(out: &mut Metrics) -> Result<(), Fatal> {
    let err = |e| format!("memory rung: {e}");
    let pool = SlotPool::new(PoolConfig::new(1, 2048, 256)).map_err(err)?;
    out.push((
        "memory.pool.acquire_release_ns",
        rung(|| {
            drop(black_box(pool.acquire(64)));
        }),
    ));
    let mut held = Some(pool.acquire(64).map_err(err)?);
    out.push((
        "memory.pool.token_redeem_ns",
        rung(|| {
            if let Some(guard) = held.take() {
                held = pool.redeem(black_box(guard.into_token())).ok();
            }
        }),
    ));
    if held.take().is_none() {
        return Err("memory rung: a token failed to redeem".into());
    }

    let set = PoolSetBuilder::new()
        .pool(2048, 256)
        .pool(16 * 1024, 64)
        .tenant(1, TenantQuota::new(4, 16))
        .tenant(2, TenantQuota::new(32, 64))
        .build()
        .map_err(err)?;
    out.push((
        "memory.pool_set.lend_release_ns",
        rung(|| {
            drop(black_box(set.lend(2, 1024 + 82)));
        }),
    ));

    let config = PoolConfig::new(2, 2048, 256);
    let len = SlotPool::required_segment_len(&config).map_err(err)?;
    let in_segment = SlotPool::create_in_segment(config, Segment::heap(len)).map_err(err)?;
    out.push((
        "memory.segment_pool.acquire_release_ns",
        rung(|| {
            drop(black_box(in_segment.acquire(64)));
        }),
    ));
    Ok(())
}

pub fn netstack(out: &mut Metrics) -> Result<(), Fatal> {
    let err = |e| format!("netstack rung: {e}");
    let header = InsaneHeader::data(7, 1, 42, 64);

    for (payload, seal_name, check_name) in [
        (
            64usize,
            "netstack.seal_64b_ns",
            "netstack.checksum_ok_64b_ns",
        ),
        (
            8 * 1024,
            "netstack.seal_8k_ns",
            "netstack.checksum_ok_8k_ns",
        ),
    ] {
        let mut msg = vec![0xA5u8; HEADER_LEN + payload];
        header.write(&mut msg).map_err(err)?;
        out.push((
            seal_name,
            rung(|| {
                let _ = insane_hdr::seal(black_box(&mut msg));
            }),
        ));
        if !insane_hdr::checksum_ok(&msg) {
            return Err("netstack rung: a sealed message failed its checksum".into());
        }
        out.push((
            check_name,
            rung(|| {
                black_box(insane_hdr::checksum_ok(black_box(&msg)));
            }),
        ));
    }

    let mut hdr_buf = [0u8; HEADER_LEN];
    out.push((
        "netstack.hdr.write_parse_ns",
        rung(|| {
            let _ = black_box(&header).write(&mut hdr_buf);
            let _ = black_box(InsaneHeader::parse(black_box(&hdr_buf)));
        }),
    ));

    let builder = PacketBuilder::new()
        .src_mac(MacAddr::from_host_index(1))
        .dst_mac(MacAddr::from_host_index(2))
        .src(Ipv4Addr::new(10, 0, 0, 1), 40_002)
        .dst(Ipv4Addr::new(10, 0, 0, 2), 40_002);
    let payload = [0x5Au8; HEADER_LEN + 64];
    let mut frame = vec![0u8; FRAME_OVERHEAD + payload.len()];
    out.push((
        "netstack.packet.build_64b_ns",
        rung(|| {
            let _ = black_box(builder.write(&mut frame, black_box(&payload)));
        }),
    ));
    builder.write(&mut frame, &payload).map_err(err)?;
    PacketView::parse(&frame).map_err(err)?;
    out.push((
        "netstack.packet.parse_ns",
        rung(|| {
            let _ = black_box(PacketView::parse(black_box(&frame)));
        }),
    ));

    // A 256 KiB message as 32 fragments of 8 KiB, planned and offered to
    // the reassembler in order; reported per fragment.
    const TOTAL: usize = 256 * 1024;
    const FRAGMENT: usize = 8 * 1024;
    let data = vec![0x3Cu8; TOTAL];
    let mut reassembler = Reassembler::new(4);
    let mut seq = 0u64;
    let fragments = TOTAL / FRAGMENT;
    let mut failed = false;
    let per_message = rung_of(BLOCK / fragments, &mut || {
        let key = MessageKey {
            src_runtime: 1,
            channel: 7,
            seq,
        };
        seq += 1;
        let Ok(plan) = fragment::plan(TOTAL, FRAGMENT) else {
            failed = true;
            return;
        };
        let mut whole = None;
        for f in &plan {
            let part = &data[f.offset..f.offset + f.len];
            match reassembler.offer(key, f.index, f.count, TOTAL, f.offset, part) {
                Ok(done) => whole = done,
                Err(_) => failed = true,
            }
        }
        failed |= black_box(whole).is_none_or(|w| w.len() != TOTAL);
    });
    if failed {
        return Err("netstack rung: a fragmented message did not reassemble".into());
    }
    out.push((
        "netstack.fragment.plan_offer_256k_ns",
        per_message / fragments as f64,
    ));
    Ok(())
}

pub fn tsn(out: &mut Metrics) -> Result<(), Fatal> {
    let err = |e| format!("tsn rung: {e}");
    let epoch = Instant::now();
    let mut ready: Vec<u64> = Vec::with_capacity(4);

    let mut fifo = FifoScheduler::<u64>::new();
    out.push((
        "tsn.fifo.enq_deq_ns",
        rung(|| {
            fifo.enqueue(black_box(7), TrafficClass::BEST_EFFORT, epoch);
            ready.clear();
            black_box(fifo.dequeue_ready(&mut ready, 1, epoch));
        }),
    ));

    // The gate program of `mixed_qos`, probed at fixed instants so the
    // rung times the scheduler, not the clock.
    let gcl = GateControlList::exclusive_window(
        TrafficClass::TIME_CRITICAL,
        Duration::from_micros(200),
        Duration::from_millis(1),
        epoch,
    )
    .and_then(|g| g.with_guard_band(Duration::from_micros(20)))
    .map_err(err)?;
    let mut tas = TasScheduler::<u64>::new(gcl);
    tas.set_timing(None, Some(Duration::from_micros(1)))
        .map_err(err)?;
    let open = epoch + Duration::from_micros(500);
    out.push((
        "tsn.tas.enq_deq_open_ns",
        rung(|| {
            tas.enqueue(black_box(7), TrafficClass::BEST_EFFORT, open);
            ready.clear();
            black_box(tas.dequeue_ready(&mut ready, 1, open));
        }),
    ));
    let closed = epoch + Duration::from_micros(100);
    tas.enqueue(7, TrafficClass::BEST_EFFORT, closed);
    out.push((
        "tsn.tas.dequeue_closed_ns",
        rung(|| {
            ready.clear();
            black_box(tas.dequeue_ready(&mut ready, 1, black_box(closed)));
        }),
    ));
    if !ready.is_empty() || tas.len() != 1 {
        return Err("tsn rung: a closed gate released a frame".into());
    }
    Ok(())
}

/// The simulated devices under the runtime.  These are *modelled* times
/// (busy-waits calibrated to the paper's hardware): a change here is a
/// calibration change, not an optimisation.
pub fn fabric(out: &mut Metrics) -> Result<(), Fatal> {
    let err = |e| format!("fabric rung: {e}");
    let fabric = Fabric::new(TestbedProfile::local());
    let a = fabric.add_host("a");
    let b = fabric.add_host("b");
    let pa = DpdkPort::open(&fabric, a, 0, 256).map_err(err)?;
    let pb = DpdkPort::open(&fabric, b, 0, 256).map_err(err)?;
    let mut rx = Vec::with_capacity(32);

    // Raw 64 B ping-pong: the floor under `pingpong_64b`, as the lowest
    // median of six segments.
    const SEGMENT: usize = 4_096;
    const SEGMENTS: usize = 6;
    let mut best = u64::MAX;
    let mut samples = Vec::with_capacity(SEGMENT);
    for _ in 0..SEGMENTS {
        samples.clear();
        for _ in 0..SEGMENT {
            let t0 = Instant::now();
            let mut mbuf = pa.alloc_mbuf(64).map_err(err)?;
            mbuf.fill(0xA5);
            pa.tx_burst(pb.local_addr(), [mbuf]).map_err(err)?;
            while pb.rx_burst(&mut rx, 1) == 0 {}
            let ping = rx.pop().ok_or("fabric rung: rx_burst lied")?;
            pb.tx_forward(pa.local_addr(), ping).map_err(err)?;
            while pa.rx_burst(&mut rx, 1) == 0 {}
            rx.clear();
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        samples.sort_unstable();
        best = best.min(percentile(&samples, 50.0));
    }
    out.push(("fabric.raw_dpdk.rtt_p50_us", best as f64 / 1e3));

    // Bursts of 32 8 KiB frames, the unit `stream_8k` moves.
    const ROUNDS: usize = 2_000;
    let mut tx_ns = Vec::with_capacity(ROUNDS);
    let mut rx_ns = Vec::with_capacity(ROUNDS);
    let mut wire_ns = 0;
    for _ in 0..ROUNDS {
        let mbufs = (0..32)
            .map(|_| pa.alloc_mbuf(8 * 1024))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let t0 = Instant::now();
        pa.tx_burst(pb.local_addr(), mbufs).map_err(err)?;
        tx_ns.push(t0.elapsed().as_nanos() as u64);
        // Let the whole burst arrive, so the receive side times the
        // device, not the wire.
        insane_fabric::time::spin_for_ns(60_000);
        rx.clear();
        let t1 = Instant::now();
        let got = pb.rx_burst(&mut rx, 32);
        rx_ns.push(t1.elapsed().as_nanos() as u64);
        if got != 32 {
            return Err(format!("fabric rung: burst of 32 delivered {got}"));
        }
        wire_ns = rx.first().map_or(0, |p| p.wire_ns);
        rx.clear();
    }
    tx_ns.sort_unstable();
    rx_ns.sort_unstable();
    out.push((
        "fabric.raw_dpdk.tx_burst32_ns",
        percentile(&tx_ns, 50.0) as f64,
    ));
    out.push((
        "fabric.raw_dpdk.rx_burst32_ns",
        percentile(&rx_ns, 50.0) as f64,
    ));
    out.push(("fabric.wire_8k_ns", wire_ns as f64));
    Ok(())
}

/// Round trip through `InProcessLoop`: the daemon's datapath (segment
/// pool, both rings, forwarder with its idle sleep) without the process
/// boundary.
pub fn ipc_inproc_loop_rtt_p50_us() -> Result<f64, Fatal> {
    const ROUNDS: usize = 2_048;
    let lb = InProcessLoop::new(2048, 256, 64).map_err(|e| format!("InProcessLoop: {e}"))?;
    let mut samples = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS as u64 {
        let t0 = Instant::now();
        let mut guard = lb
            .lend(64)
            .map_err(|e| format!("InProcessLoop lend: {e}"))?;
        guard[..8].copy_from_slice(&i.to_le_bytes());
        if lb.emit(guard).is_err() {
            return Err("InProcessLoop: TX ring full with one message in flight".into());
        }
        let view = loop {
            match lb.try_recv() {
                Some(view) => break view,
                None => std::thread::yield_now(),
            }
        };
        if view[..8] != i.to_le_bytes() {
            return Err("InProcessLoop echoed the wrong message".into());
        }
        drop(view);
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    Ok(percentile(&samples, 50.0) as f64 / 1e3)
}
