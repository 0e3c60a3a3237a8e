//! Simulated RDMA NIC (Verbs path of Table 1, two-sided operations only).
//!
//! The API mirrors the verbs workflow §3 describes: register a *memory
//! region* with the NIC, open a *queue pair* (send queue + receive queue)
//! toward a remote peer, post asynchronous work requests, and harvest
//! *completions* from a completion queue.  The CPU barely participates —
//! the NIC "hardware" runs the protocol — which is why the cost model
//! charges only the WQE post and CQE poll.
//!
//! INSANE deliberately restricts itself to two-sided SEND/RECV (§3), and so
//! does this simulation: one-sided READ/WRITE verbs are out of scope.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use insane_memory::{PoolConfig, SlotGuard, SlotPool};

use crate::cost::{TechCosts, Technology};
use crate::wire::{Endpoint, Fabric, Frame, HostId, Payload, PortStats};
use crate::FabricError;

use super::CostCharger;

/// What a completion describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionOpcode {
    /// A posted send finished (buffer reusable).
    Send,
    /// A posted receive matched an incoming message.
    Recv,
}

/// A completion-queue entry.
#[derive(Debug)]
pub struct Completion {
    /// Caller-chosen work-request id.
    pub wr_id: u64,
    /// Operation that completed.
    pub opcode: CompletionOpcode,
    /// Incoming payload for `Recv` completions (`None` for sends).
    pub payload: Option<Payload>,
    /// Sender endpoint for `Recv` completions.
    pub src: Option<Endpoint>,
    /// Wire time for `Recv` completions, nanoseconds.
    pub wire_ns: u64,
}

/// A registered memory region: a slot pool the NIC may DMA from/to.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    pool: SlotPool,
}

impl MemoryRegion {
    /// Allocates a send buffer within the region.
    ///
    /// # Errors
    ///
    /// [`FabricError::Memory`] when the region is exhausted.
    pub fn alloc(&self, len: usize) -> Result<SlotGuard, FabricError> {
        Ok(self.pool.acquire(len)?)
    }

    /// The underlying pool (for diagnostics).
    pub fn pool(&self) -> &SlotPool {
        &self.pool
    }
}

/// A simulated RDMA-capable NIC.
#[derive(Debug)]
pub struct RdmaNic {
    fabric: Fabric,
    host: HostId,
    next_mr: AtomicU64,
}

impl RdmaNic {
    /// Message size limit (RoCE MTU aside, messages up to the MR slot size
    /// travel as one unit — RDMA does its own segmentation in hardware).
    pub const MAX_MSG: usize = 1 << 20;

    /// Attaches an RDMA NIC to `host`.
    pub fn new(fabric: &Fabric, host: HostId) -> Self {
        Self {
            fabric: fabric.clone(),
            host,
            next_mr: AtomicU64::new(0),
        }
    }

    /// Registers a memory region of `slots` buffers of `slot_size` bytes.
    ///
    /// # Errors
    ///
    /// [`FabricError::Memory`] on invalid pool dimensions.
    pub fn register(&self, slot_size: usize, slots: usize) -> Result<MemoryRegion, FabricError> {
        let mr_id = self.next_mr.fetch_add(1, Ordering::Relaxed);
        let pool = SlotPool::new(PoolConfig::new(
            0xC000 | (self.host.index() as u16) << 6 | (mr_id as u16 & 0x3F),
            slot_size,
            slots,
        ))?;
        Ok(MemoryRegion { pool })
    }

    /// Creates a queue pair bound to local `qp_port`.
    ///
    /// # Errors
    ///
    /// Fabric binding errors (port collision, unknown host).
    pub fn create_qp(&self, qp_port: u16) -> Result<QueuePair, FabricError> {
        let endpoint = Endpoint {
            host: self.host,
            port: qp_port,
        };
        let port = self.fabric.bind(endpoint)?;
        let scale = self.fabric.profile().cpu_scale_pct;
        Ok(QueuePair {
            fabric: self.fabric.clone(),
            port,
            charger: CostCharger::new(
                TechCosts::of(Technology::Rdma),
                scale,
                0x4DA0_0000 ^ (self.host.index() as u64) << 16 ^ qp_port as u64,
            ),
            remote: Mutex::new(None),
            send_cq: Mutex::new(VecDeque::new()),
            posted_recvs: Mutex::new(VecDeque::new()),
            mrs: Mutex::new(Vec::new()),
        })
    }
}

/// A queue pair: SQ + RQ toward one remote peer, with its CQ.
pub struct QueuePair {
    fabric: Fabric,
    port: crate::wire::PortHandle,
    charger: CostCharger,
    remote: Mutex<Option<Endpoint>>,
    send_cq: Mutex<VecDeque<Completion>>,
    posted_recvs: Mutex<VecDeque<u64>>,
    mrs: Mutex<Vec<MemoryRegion>>,
}

impl fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueuePair")
            .field("local", &self.port.endpoint())
            .field("remote", &*self.remote.lock())
            .field("posted_recvs", &self.posted_recvs.lock().len())
            .finish()
    }
}

impl QueuePair {
    /// Local address of this QP.
    pub fn local_addr(&self) -> Endpoint {
        self.port.endpoint()
    }

    /// Connects the QP to a remote endpoint (RoCE exchange abstracted).
    pub fn connect(&self, remote: Endpoint) {
        *self.remote.lock() = Some(remote);
    }

    /// Associates an MR so received messages can be accounted to it
    /// (bookkeeping only — the fabric manages payload lifetime).
    pub fn attach_mr(&self, mr: &MemoryRegion) {
        self.mrs.lock().push(mr.clone());
    }

    /// RX statistics.
    pub fn stats(&self) -> PortStats {
        self.port.stats()
    }

    /// Posts a two-sided SEND of `buf`.
    ///
    /// The NIC takes over: the CPU cost is one WQE write + doorbell, and a
    /// send completion appears in the CQ once the hardware accepts the
    /// message (reliable delivery is the hardware's problem, as with RC
    /// queue pairs).
    ///
    /// # Errors
    ///
    /// * [`FabricError::NotConnected`] before [`QueuePair::connect`].
    /// * [`FabricError::Unreachable`] if the remote QP vanished.
    pub fn post_send(&self, buf: SlotGuard, wr_id: u64) -> Result<(), FabricError> {
        // An unattached MR is a protection error; the dropped guard
        // returns the slot.
        let mr = buf.token().pool_id();
        if !self.mrs.lock().iter().any(|m| m.pool.pool_id() == mr) {
            return Err(FabricError::Memory(
                insane_memory::MemoryError::InvalidToken,
            ));
        }
        self.post_send_view(buf.into_view(), wr_id)
    }

    /// Posts a two-sided SEND of a frozen zero-copy buffer the NIC may DMA
    /// from without a per-send check (e.g. an INSANE runtime pool slot;
    /// the runtime registered that pool with the NIC at startup).
    ///
    /// # Errors
    ///
    /// As [`QueuePair::post_send`].
    pub fn post_send_view(
        &self,
        view: insane_memory::SlotView,
        wr_id: u64,
    ) -> Result<(), FabricError> {
        let remote = (*self.remote.lock()).ok_or(FabricError::NotConnected)?;
        let len = view.len();
        self.charger.charge_tx_packet(len);
        self.charger.charge_doorbell();
        let frame = Frame::new(
            self.local_addr(),
            remote,
            Payload::Pooled(view),
            Instant::now(),
        );
        let wire = len + self.charger.costs().wire_overhead_bytes;
        self.fabric
            .transmit(frame, wire, self.charger.costs().nic_latency_ns)?;
        self.send_cq.lock().push_back(Completion {
            wr_id,
            opcode: CompletionOpcode::Send,
            payload: None,
            src: None,
            wire_ns: 0,
        });
        Ok(())
    }

    /// Posts a receive work request; incoming messages match posted
    /// receives in FIFO order (two-sided semantics: an unposted receive
    /// leaves the message waiting in the NIC queue).
    pub fn post_recv(&self, wr_id: u64) {
        self.posted_recvs.lock().push_back(wr_id);
    }

    /// Harvests up to `max` completions into `out`; returns the count.
    pub fn poll_cq(&self, out: &mut Vec<Completion>, max: usize) -> usize {
        self.charger.charge_rx_poll();
        let mut n = 0;
        {
            let mut sends = self.send_cq.lock();
            while n < max {
                match sends.pop_front() {
                    Some(c) => {
                        out.push(c);
                        n += 1;
                    }
                    None => break,
                }
            }
        }
        while n < max {
            // Claim a posted recv *before* polling the port so a frame is
            // never consumed without a work request to complete into; if
            // no frame is waiting the claim is re-posted at the front.
            let Some(wr_id) = self.posted_recvs.lock().pop_front() else {
                break;
            };
            match self.port.poll() {
                Some(frame) => {
                    self.charger.charge_rx_packet(frame.payload.len());
                    let wire_ns = frame.wire_ns();
                    out.push(Completion {
                        wr_id,
                        opcode: CompletionOpcode::Recv,
                        src: Some(frame.src),
                        payload: Some(frame.payload),
                        wire_ns,
                    });
                    n += 1;
                }
                None => {
                    // Nothing on the wire: return the unconsumed work
                    // request to the head of the queue.
                    self.posted_recvs.lock().push_front(wr_id);
                    break;
                }
            }
        }
        n
    }

    /// Closes the QP and releases its binding.
    pub fn close(&self) {
        self.port.unbind();
    }
}

impl Drop for QueuePair {
    fn drop(&mut self) {
        self.port.unbind();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestbedProfile;

    fn connected_pair() -> (Fabric, QueuePair, MemoryRegion, QueuePair, MemoryRegion) {
        let f = Fabric::new(TestbedProfile::local());
        let a = f.add_host("a");
        let b = f.add_host("b");
        let nic_a = RdmaNic::new(&f, a);
        let nic_b = RdmaNic::new(&f, b);
        let mr_a = nic_a.register(4096, 32).unwrap();
        let mr_b = nic_b.register(4096, 32).unwrap();
        let qa = nic_a.create_qp(1).unwrap();
        let qb = nic_b.create_qp(1).unwrap();
        qa.attach_mr(&mr_a);
        qb.attach_mr(&mr_b);
        qa.connect(qb.local_addr());
        qb.connect(qa.local_addr());
        (f, qa, mr_a, qb, mr_b)
    }

    fn poll_until_recv(qp: &QueuePair) -> Completion {
        let mut out = Vec::new();
        loop {
            qp.poll_cq(&mut out, 8);
            if let Some(pos) = out.iter().position(|c| c.opcode == CompletionOpcode::Recv) {
                return out.remove(pos);
            }
            out.clear();
        }
    }

    #[test]
    fn send_before_connect_fails() {
        let f = Fabric::new(TestbedProfile::local());
        let a = f.add_host("a");
        let nic = RdmaNic::new(&f, a);
        let mr = nic.register(1024, 4).unwrap();
        let qp = nic.create_qp(1).unwrap();
        qp.attach_mr(&mr);
        let buf = mr.alloc(8).unwrap();
        assert!(matches!(
            qp.post_send(buf, 1),
            Err(FabricError::NotConnected)
        ));
    }

    #[test]
    fn two_sided_roundtrip() {
        let (_f, qa, mr_a, qb, _mr_b) = connected_pair();
        qb.post_recv(77);
        let mut buf = mr_a.alloc(9).unwrap();
        buf.copy_from_slice(b"verbs msg");
        qa.post_send(buf, 42).unwrap();

        // Sender gets its send completion.
        let mut out = Vec::new();
        qa.poll_cq(&mut out, 8);
        assert!(out
            .iter()
            .any(|c| c.opcode == CompletionOpcode::Send && c.wr_id == 42));

        // Receiver matches the posted receive.
        let recv = poll_until_recv(&qb);
        assert_eq!(recv.wr_id, 77);
        assert_eq!(recv.payload.as_ref().unwrap().as_slice(), b"verbs msg");
    }

    #[test]
    fn message_waits_for_posted_receive() {
        let (_f, qa, mr_a, qb, _mr_b) = connected_pair();
        let mut buf = mr_a.alloc(1).unwrap();
        buf.copy_from_slice(b"x");
        qa.post_send(buf, 1).unwrap();
        crate::time::spin_for_ns(20_000);
        let mut out = Vec::new();
        // No receive posted: nothing to harvest beyond the send side.
        qb.poll_cq(&mut out, 8);
        assert!(out.is_empty());
        qb.post_recv(5);
        let recv = poll_until_recv(&qb);
        assert_eq!(recv.wr_id, 5);
    }

    #[test]
    fn rdma_is_the_fastest_technology() {
        // Single-threaded ping-pong (one-CPU host; the ping-pong critical
        // path is serial anyway).  Retried a few times: hypervisor steal
        // time can stall a whole measurement window.
        for attempt in 0..3 {
            if rdma_beats_dpdk() {
                return;
            }
            eprintln!("attempt {attempt}: measurement window disturbed, retrying");
        }
        panic!("RDMA never beat DPDK across 3 attempts");
    }

    fn rdma_beats_dpdk() -> bool {
        let (_f, qa, mr_a, qb, mr_b) = connected_pair();
        let mut best = u64::MAX;
        for round in 0..50u64 {
            qa.post_recv(300 + round);
            qb.post_recv(100 + round);
            let mut buf = mr_a.alloc(64).unwrap();
            buf.copy_from_slice(&[5u8; 64]);
            let t0 = Instant::now();
            qa.post_send(buf, 4).unwrap();
            let ping = poll_until_recv(&qb);
            // Echo: copy into a local MR buffer and send back.
            let bytes = ping.payload.unwrap().to_vec();
            let mut echo = mr_b.alloc(bytes.len()).unwrap();
            echo.copy_from_slice(&bytes);
            qb.post_send(echo, 2).unwrap();
            let _pong = poll_until_recv(&qa);
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        // RDMA must beat an identically-measured DPDK ping-pong (the
        // absolute band lives in the bench harness, where loop overheads
        // are amortized).
        let dpdk_best = {
            use crate::devices::DpdkPort;
            let f = Fabric::new(TestbedProfile::local());
            let a = f.add_host("a");
            let b = f.add_host("b");
            let pa = DpdkPort::open(&f, a, 9, 32).unwrap();
            let pb = DpdkPort::open(&f, b, 9, 32).unwrap();
            let mut best = u64::MAX;
            let mut out = Vec::new();
            for _ in 0..50 {
                let mut mbuf = pa.alloc_mbuf(64).unwrap();
                mbuf.copy_from_slice(&[5u8; 64]);
                let t0 = Instant::now();
                pa.tx_burst(pb.local_addr(), [mbuf]).unwrap();
                while pb.rx_burst(&mut out, 1) == 0 {}
                let ping = out.remove(0);
                pb.tx_forward(pa.local_addr(), ping).unwrap();
                while pa.rx_burst(&mut out, 1) == 0 {}
                out.clear();
                best = best.min(t0.elapsed().as_nanos() as u64);
            }
            best
        };
        best < dpdk_best
    }

    #[test]
    fn one_nic_serves_multiple_peers_on_distinct_qps() {
        let f = Fabric::new(TestbedProfile::local());
        let hub_host = f.add_host("hub");
        let spoke1_host = f.add_host("spoke1");
        let spoke2_host = f.add_host("spoke2");
        let hub = RdmaNic::new(&f, hub_host);
        let s1 = RdmaNic::new(&f, spoke1_host);
        let s2 = RdmaNic::new(&f, spoke2_host);
        let mr_hub = hub.register(1024, 16).unwrap();
        let mr1 = s1.register(1024, 16).unwrap();
        let mr2 = s2.register(1024, 16).unwrap();
        // Hub opens one QP per spoke on distinct ports.
        let qp_h1 = hub.create_qp(10).unwrap();
        let qp_h2 = hub.create_qp(11).unwrap();
        let qp_1 = s1.create_qp(10).unwrap();
        let qp_2 = s2.create_qp(11).unwrap();
        qp_h1.attach_mr(&mr_hub);
        qp_h2.attach_mr(&mr_hub);
        qp_1.attach_mr(&mr1);
        qp_2.attach_mr(&mr2);
        qp_h1.connect(qp_1.local_addr());
        qp_h2.connect(qp_2.local_addr());
        qp_1.connect(qp_h1.local_addr());
        qp_2.connect(qp_h2.local_addr());
        qp_1.post_recv(1);
        qp_2.post_recv(2);
        let mut buf = mr_hub.alloc(5).unwrap();
        buf.copy_from_slice(b"to #1");
        qp_h1.post_send(buf, 1).unwrap();
        let mut buf = mr_hub.alloc(5).unwrap();
        buf.copy_from_slice(b"to #2");
        qp_h2.post_send(buf, 2).unwrap();
        let r1 = poll_until_recv(&qp_1);
        let r2 = poll_until_recv(&qp_2);
        assert_eq!(r1.payload.unwrap().as_slice(), b"to #1");
        assert_eq!(r2.payload.unwrap().as_slice(), b"to #2");
    }

    #[test]
    fn send_completions_carry_wr_ids_in_order() {
        let (_f, qa, mr_a, qb, _mr_b) = connected_pair();
        for wr in [10u64, 11, 12] {
            qb.post_recv(wr);
            let mut buf = mr_a.alloc(1).unwrap();
            buf.copy_from_slice(&[wr as u8]);
            qa.post_send(buf, wr).unwrap();
        }
        let mut out = Vec::new();
        qa.poll_cq(&mut out, 16);
        let sends: Vec<u64> = out
            .iter()
            .filter(|c| c.opcode == CompletionOpcode::Send)
            .map(|c| c.wr_id)
            .collect();
        assert_eq!(sends, vec![10, 11, 12]);
    }

    #[test]
    fn unattached_mr_is_rejected_without_leaking() {
        let (_f, qa, _mr_a, _qb, mr_b) = connected_pair();
        // mr_b belongs to the other NIC and was never attached to qa.
        let buf = mr_b.alloc(4).unwrap();
        assert_eq!(mr_b.pool().free_slots(), 31);
        assert!(qa.post_send(buf, 9).is_err());
        // The rejected guard was dropped, returning the slot.
        assert_eq!(mr_b.pool().free_slots(), 32);
    }
}
