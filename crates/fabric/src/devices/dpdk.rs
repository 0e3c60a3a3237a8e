//! Simulated DPDK port (RTE path of Table 1).
//!
//! The API mirrors the poll-mode-driver workflow §3 describes: the
//! application allocates *mbufs* from a *mempool* (here, slots from an
//! [`insane_memory::SlotPool`]), writes payloads in place, and exchanges
//! pointer bursts with the driver via `tx_burst`/`rx_burst`.  There are no
//! syscalls and no copies; the costs are a fixed doorbell per TX burst and
//! a small per-packet driver touch — which is why batching pays (Fig. 8a)
//! and why an lcore must busy-poll for RX.

use std::time::Instant;

use insane_memory::{PoolConfig, SlotGuard, SlotPool, SlotView};

use crate::cost::{TechCosts, Technology};
use crate::wire::{Endpoint, Fabric, Frame, HostId, Payload, PortStats};
use crate::FabricError;

use super::{CostCharger, Received};

/// A packet returned by [`DpdkPort::rx_burst`].
pub type RxPacket = Received;

/// A simulated DPDK port with its attached mempool.
#[derive(Debug)]
pub struct DpdkPort {
    fabric: Fabric,
    port: crate::wire::PortHandle,
    charger: CostCharger,
    mempool: SlotPool,
    mtu: usize,
}

impl DpdkPort {
    /// Jumbo-capable MTU (DPDK testbeds in the paper enable jumbo frames
    /// for payloads above 1.5 KB).
    pub const DEFAULT_MTU: usize = 9216;
    /// Largest burst accepted by `tx_burst`/`rx_burst` (DPDK's customary
    /// default).
    pub const MAX_BURST: usize = 32;

    /// Opens a port on `host` with a private mempool of `mempool_slots`
    /// mbufs.
    ///
    /// # Errors
    ///
    /// Propagates binding errors from the fabric and pool-construction
    /// errors from the memory crate.
    pub fn open(
        fabric: &Fabric,
        host: HostId,
        port_no: u16,
        mempool_slots: usize,
    ) -> Result<Self, FabricError> {
        let endpoint = Endpoint {
            host,
            port: port_no,
        };
        let port = fabric.bind(endpoint)?;
        let mempool = SlotPool::new(PoolConfig::new(
            // Pool ids only need to be unique within one consumer's token
            // space; devices use a high bit to stay clear of runtime pools.
            0x4000 | (host.index() as u16) << 4 | (port_no & 0xF),
            Self::DEFAULT_MTU,
            mempool_slots,
        ))?;
        let scale = fabric.profile().cpu_scale_pct;
        Ok(Self {
            fabric: fabric.clone(),
            port,
            charger: CostCharger::new(
                TechCosts::of(Technology::Dpdk),
                scale,
                0xD9D4_0000 ^ (host.index() as u64) << 16 ^ port_no as u64,
            ),
            mempool,
            mtu: Self::DEFAULT_MTU,
        })
    }

    /// The port's fabric address.
    pub fn local_addr(&self) -> Endpoint {
        self.port.endpoint()
    }

    /// The port's MTU.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// The mempool backing this port (mbuf allocation).
    pub fn mempool(&self) -> &SlotPool {
        &self.mempool
    }

    /// RX-queue statistics (dropped = ring overrun).
    pub fn stats(&self) -> PortStats {
        self.port.stats()
    }

    /// Allocates an mbuf large enough for `len` payload bytes.
    ///
    /// # Errors
    ///
    /// * [`FabricError::FrameTooLarge`] above the MTU.
    /// * [`FabricError::Memory`] when the mempool is exhausted.
    pub fn alloc_mbuf(&self, len: usize) -> Result<SlotGuard, FabricError> {
        if len > self.mtu {
            return Err(FabricError::FrameTooLarge { len, mtu: self.mtu });
        }
        Ok(self.mempool.acquire(len)?)
    }

    /// Transmits a burst of mbufs to `dst`; returns how many were accepted.
    ///
    /// One doorbell is charged for the whole burst plus a small per-packet
    /// driver cost — the amortization INSANE's opportunistic batching
    /// exploits and Demikernel's one-packet-at-a-time strategy forgoes.
    ///
    /// # Errors
    ///
    /// [`FabricError::Unreachable`] if `dst` has no bound port; mbufs not
    /// yet sent are dropped back to the mempool in that case.
    pub fn tx_burst(
        &self,
        dst: Endpoint,
        mbufs: impl IntoIterator<Item = SlotGuard>,
    ) -> Result<usize, FabricError> {
        self.charger.charge_doorbell();
        let mut sent = 0;
        for mbuf in mbufs {
            let len = mbuf.len();
            self.charger.charge_tx_packet(len);
            let frame = Frame::new(
                self.local_addr(),
                dst,
                Payload::Pooled(mbuf.into_view()),
                Instant::now(),
            );
            let wire = len + self.charger.costs().wire_overhead_bytes;
            self.fabric
                .transmit(frame, wire, self.charger.costs().nic_latency_ns)?;
            sent += 1;
        }
        Ok(sent)
    }

    /// Transmits a burst of externally-owned zero-copy buffers (e.g. the
    /// INSANE runtime's pool slots, already framed by the userspace
    /// stack).  Costs are identical to [`DpdkPort::tx_burst`].
    ///
    /// # Errors
    ///
    /// [`FabricError::Unreachable`] if `dst` has no bound port.
    pub fn tx_burst_views(
        &self,
        dst: Endpoint,
        views: impl IntoIterator<Item = SlotView>,
    ) -> Result<usize, FabricError> {
        // Stage the burst first so the whole hardware interaction can be
        // charged as one busy-wait and timestamped with one clock read.
        let views: Vec<SlotView> = views.into_iter().collect();
        if views.is_empty() {
            self.charger.charge_doorbell();
            return Ok(0);
        }
        let total_len: usize = views.iter().map(|v| v.len()).sum();
        self.charger
            .charge_tx_burst(views.len() as u64, total_len / views.len());
        let now = Instant::now();
        let mut sent = 0;
        for view in views {
            let len = view.len();
            let frame = Frame::new(self.local_addr(), dst, Payload::Pooled(view), now);
            let wire = len + self.charger.costs().wire_overhead_bytes;
            self.fabric
                .transmit(frame, wire, self.charger.costs().nic_latency_ns)?;
            sent += 1;
        }
        Ok(sent)
    }

    /// Re-transmits an already-received packet without copying (zero-copy
    /// echo / forward — what a raw-DPDK pong server does).
    ///
    /// # Errors
    ///
    /// [`FabricError::Unreachable`] if `dst` has no bound port.
    pub fn tx_forward(&self, dst: Endpoint, packet: RxPacket) -> Result<(), FabricError> {
        self.charger.charge_doorbell();
        let len = packet.payload.len();
        self.charger.charge_tx_packet(len);
        let frame = Frame::new(self.local_addr(), dst, packet.payload, Instant::now());
        let wire = len + self.charger.costs().wire_overhead_bytes;
        self.fabric
            .transmit(frame, wire, self.charger.costs().nic_latency_ns)
    }

    /// Polls the RX ring for up to `max` packets (capped at
    /// [`DpdkPort::MAX_BURST`]); returns how many were appended to `out`.
    ///
    /// Always charges one poll (the lcore burns that CPU whether or not
    /// packets arrived) plus a per-packet driver cost for each packet.
    pub fn rx_burst(&self, out: &mut Vec<RxPacket>, max: usize) -> usize {
        self.charger.charge_rx_poll();
        let start = out.len();
        let n = self.port.poll_burst(out, max.min(Self::MAX_BURST));
        // Charged after the port lock is released: a spin under it would
        // stall the sender's enqueue.
        for packet in &out[start..] {
            self.charger.charge_rx_packet(packet.payload.len());
        }
        n
    }

    /// Closes the port and releases its binding.
    pub fn close(&self) {
        self.port.unbind();
    }
}

impl Drop for DpdkPort {
    fn drop(&mut self) {
        self.port.unbind();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestbedProfile;

    fn pair() -> (Fabric, DpdkPort, DpdkPort) {
        let f = Fabric::new(TestbedProfile::local());
        let a = f.add_host("a");
        let b = f.add_host("b");
        let pa = DpdkPort::open(&f, a, 0, 64).unwrap();
        let pb = DpdkPort::open(&f, b, 0, 64).unwrap();
        (f, pa, pb)
    }

    fn send_one(port: &DpdkPort, dst: Endpoint, bytes: &[u8]) {
        let mut mbuf = port.alloc_mbuf(bytes.len()).unwrap();
        mbuf.copy_from_slice(bytes);
        assert_eq!(port.tx_burst(dst, [mbuf]).unwrap(), 1);
    }

    fn recv_one(port: &DpdkPort) -> RxPacket {
        let mut out = Vec::new();
        loop {
            if port.rx_burst(&mut out, 32) > 0 {
                return out.remove(0);
            }
        }
    }

    #[test]
    fn burst_roundtrip_zero_copy() {
        let (_f, pa, pb) = pair();
        send_one(&pa, pb.local_addr(), b"mbuf payload");
        let got = recv_one(&pb);
        assert_eq!(got.payload.as_slice(), b"mbuf payload");
        assert!(
            matches!(got.payload, Payload::Pooled(_)),
            "must be zero-copy"
        );
        // Sender's mempool slot is still out until the receiver drops it.
        assert_eq!(pa.mempool().free_slots(), 63);
        drop(got);
        assert_eq!(pa.mempool().free_slots(), 64);
    }

    #[test]
    fn mtu_and_mempool_limits() {
        let (_f, pa, _pb) = pair();
        assert!(matches!(
            pa.alloc_mbuf(20_000),
            Err(FabricError::FrameTooLarge { .. })
        ));
        let held: Vec<_> = (0..64).map(|_| pa.alloc_mbuf(64).unwrap()).collect();
        assert!(matches!(pa.alloc_mbuf(64), Err(FabricError::Memory(_))));
        drop(held);
        assert!(pa.alloc_mbuf(64).is_ok());
    }

    #[test]
    fn zero_copy_echo_via_forward() {
        let (_f, pa, pb) = pair();
        send_one(&pa, pb.local_addr(), b"ping");
        let ping = recv_one(&pb);
        pb.tx_forward(pa.local_addr(), ping).unwrap();
        let pong = recv_one(&pa);
        assert_eq!(pong.payload.as_slice(), b"ping");
    }

    #[test]
    fn rtt_64b_matches_calibration_band() {
        // Single-threaded ping-pong (see the UDP twin test for rationale).
        let (_f, pa, pb) = pair();
        let a_addr = pa.local_addr();
        let b_addr = pb.local_addr();
        let mut best = u64::MAX;
        for _ in 0..50 {
            let t0 = Instant::now();
            send_one(&pa, b_addr, &[9u8; 64]);
            let ping = recv_one(&pb);
            pb.tx_forward(a_addr, ping).unwrap();
            let _pong = recv_one(&pa);
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        // Paper: raw DPDK 64B RTT ≈ 3.44 µs on the local testbed.
        assert!(
            (2_000..6_000).contains(&best),
            "DPDK RTT {best} ns off-band"
        );
    }

    #[test]
    fn rx_burst_caps_at_max_burst() {
        let (_f, pa, pb) = pair();
        for i in 0..40u8 {
            send_one(&pa, pb.local_addr(), &[i]);
        }
        crate::time::spin_for_ns(20_000);
        let mut out = Vec::new();
        let n = pb.rx_burst(&mut out, 100);
        assert!(n <= DpdkPort::MAX_BURST);
    }

    #[test]
    fn ring_overrun_drops_packets() {
        let f = Fabric::new(TestbedProfile::local());
        let a = f.add_host("a");
        let b = f.add_host("b");
        let pa = DpdkPort::open(&f, a, 0, 128).unwrap();
        // Tiny RX ring on the receiving side.
        let dst = Endpoint { host: b, port: 0 };
        let _rx = f.bind_with_capacity(dst, 4).unwrap();
        for _ in 0..10 {
            send_one(&pa, dst, b"x");
        }
        // Mempool slots for dropped frames must come back (frame dropped =>
        // payload view dropped => slot released).
        crate::time::spin_for_ns(10_000);
        assert!(pa.mempool().free_slots() >= 128 - 4);
    }
}
