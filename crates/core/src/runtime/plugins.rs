//! Datapath plugins — one per network acceleration technology (§5.3).
//!
//! Each plugin adapts the runtime's uniform send/receive contract to one
//! device's native API.  Framing is part of the contract: the plugin
//! writes whatever headers its technology needs *in place* into the
//! message slot (the packet processing engine runs for DPDK and XDP;
//! kernel UDP relies on the kernel's stack; RDMA offloads framing to the
//! NIC), and parses/validates them on receive.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use insane_fabric::devices::{DpdkPort, RdmaNic, SimUdpSocket, XdpSocket};
use insane_fabric::{Endpoint, Fabric, FabricError, HostId, Payload, Technology};
use insane_memory::SlotView;
use insane_netstack::ether::MacAddr;
use insane_netstack::insane_hdr::{checksum_ok, seal, InsaneHeader};
use insane_netstack::ipv4::Ipv4Header;
use insane_netstack::packet::{PacketBuilder, PacketView};
use insane_queues::SnapshotCell;
use parking_lot::Mutex;

use crate::stats::RuntimeStats;
use crate::{epoch_ns, InsaneError, INSANE_HDR_OFFSET, PAYLOAD_OFFSET};

/// Offset of the port number of each technology relative to the
/// runtime's `port_base`.
pub(crate) fn tech_port_offset(tech: Technology) -> u16 {
    match tech {
        Technology::KernelUdp => 0,
        Technology::Xdp => 1,
        Technology::Dpdk => 2,
        Technology::Rdma => 3, // listening convention; QPs use base+16+peer
    }
}

/// A message received by a plugin, ready for dispatch.
#[derive(Debug)]
pub(crate) struct InboundMsg {
    pub store: Payload,
    pub hdr: InsaneHeader,
    /// Payload offset within `store.as_slice()`.
    pub payload_offset: usize,
    /// Wire time reported by the device.
    pub wire_ns: u64,
    /// Epoch timestamp at which the plugin popped the frame.
    pub received_ns: u64,
}

/// One framed message bound for one destination host.
#[derive(Debug)]
pub(crate) struct WireMsg {
    pub view: SlotView,
    /// First byte the device transmits (`0` for devices that send the
    /// whole slot, [`INSANE_HDR_OFFSET`] for the kernel path, which would
    /// otherwise copy dead headroom).
    pub wire_start: usize,
    pub dst: HostId,
}

/// The uniform plugin contract.
pub(crate) trait DatapathPlugin: Send + Sync + fmt::Debug {
    /// Technology this plugin drives.
    fn technology(&self) -> Technology;

    /// Largest application payload one message may carry.
    fn max_payload(&self) -> usize;

    /// Writes this technology's headers into `slot`
    /// (`slot[..PAYLOAD_OFFSET]` is reserved headroom; the payload is
    /// already resident at `PAYLOAD_OFFSET..PAYLOAD_OFFSET+payload_len`).
    /// Returns the byte offset the device should start transmitting at.
    fn frame(
        &self,
        slot: &mut [u8],
        hdr: &InsaneHeader,
        payload_len: usize,
        dst: HostId,
    ) -> Result<usize, InsaneError>;

    /// Sends a burst of framed messages, draining `msgs`; returns how
    /// many were accepted.  Unreachable destinations are dropped silently
    /// (datagram semantics), other errors abort the burst.  The buffer is
    /// caller-owned scratch so the hot path can reuse it.
    fn send_burst(&self, msgs: &mut Vec<WireMsg>) -> Result<usize, InsaneError>;

    /// Polls for received messages; appends up to `max` to `out`.
    fn poll_rx(&self, out: &mut Vec<InboundMsg>, max: usize) -> usize;

    /// Called when the runtime learns of a new peer.  Connection-oriented
    /// technologies set up their endpoints here (RDMA opens the queue
    /// pair toward the peer so two-sided receives can be posted before
    /// any local send happens).
    fn on_peer(&self, _peer: HostId) {}
}

fn parse_insane(bytes: &[u8], at: usize) -> Option<InsaneHeader> {
    InsaneHeader::parse(bytes.get(at..)?).ok()
}

/// Datagram semantics, stated once for every plugin's `send_burst`: an
/// unreachable destination is a silent drop (nothing accepted); any
/// other device error aborts the burst.
fn accepted(result: Result<usize, FabricError>) -> Result<usize, InsaneError> {
    match result {
        Err(FabricError::Unreachable(_)) => Ok(0),
        other => Ok(other?),
    }
}

/// TX body of the Ethernet-framed plugins (DPDK, XDP) — the packet
/// processing engine: userspace Ethernet/IPv4/UDP framing around
/// `[InsaneHeader][payload]`, all in place.  Sealing precedes the
/// transport framing so the UDP checksum covers the sealed INSANE bytes.
fn frame_ethernet(
    slot: &mut [u8],
    hdr: &InsaneHeader,
    payload_len: usize,
    (src, dst): (HostId, HostId),
    udp_port: u16,
) -> Result<usize, InsaneError> {
    hdr.write(&mut slot[INSANE_HDR_OFFSET..])?;
    seal(&mut slot[INSANE_HDR_OFFSET..PAYLOAD_OFFSET + payload_len])?;
    PacketBuilder::new()
        .src_mac(MacAddr::from_host_index(src.index()))
        .dst_mac(MacAddr::from_host_index(dst.index()))
        .src(Ipv4Header::addr_for_host(src.index()), udp_port)
        .dst(Ipv4Header::addr_for_host(dst.index()), udp_port)
        .finish_in_place(slot, insane_netstack::insane_hdr::HEADER_LEN + payload_len)?;
    Ok(0)
}

/// RX body of the Ethernet-framed plugins: validates the full frame
/// through the userspace stack, then the INSANE checksum behind the 42
/// transport bytes; appends the message to `out` and returns true, or
/// counts a rejection.
fn accept_ethernet(
    out: &mut Vec<InboundMsg>,
    stats: &RuntimeStats,
    store: Payload,
    wire_ns: u64,
    received_ns: u64,
) -> bool {
    let parsed = PacketView::parse(store.as_slice())
        .ok()
        .map(|view| view.payload())
        .filter(|insane| checksum_ok(insane))
        .and_then(|insane| InsaneHeader::parse(insane).ok());
    let Some(hdr) = parsed else {
        stats.rx_rejected.fetch_add(1, Ordering::Relaxed);
        return false;
    };
    out.push(InboundMsg {
        store,
        hdr,
        payload_offset: PAYLOAD_OFFSET,
        wire_ns,
        received_ns,
    });
    true
}

// ---------------------------------------------------------------------
// Kernel UDP
// ---------------------------------------------------------------------

/// Kernel UDP datapath: the "slow"/fallback path (§5.2).
pub(crate) struct UdpPlugin {
    socket: SimUdpSocket,
    port: u16,
    stats: Arc<RuntimeStats>,
}

impl fmt::Debug for UdpPlugin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdpPlugin")
            .field("port", &self.port)
            .finish()
    }
}

impl UdpPlugin {
    pub(crate) fn new(
        fabric: &Fabric,
        host: HostId,
        port: u16,
        stats: Arc<RuntimeStats>,
    ) -> Result<Self, InsaneError> {
        let socket = SimUdpSocket::bind(fabric, host, port)?;
        // The paper enables jumbo frames for the big-payload experiments.
        socket.set_mtu(SimUdpSocket::JUMBO_MTU);
        Ok(Self {
            socket,
            port,
            stats,
        })
    }
}

impl DatapathPlugin for UdpPlugin {
    fn technology(&self) -> Technology {
        Technology::KernelUdp
    }

    fn max_payload(&self) -> usize {
        // The datagram carries [InsaneHeader][payload].
        SimUdpSocket::JUMBO_MTU - insane_netstack::insane_hdr::HEADER_LEN
    }

    fn frame(
        &self,
        slot: &mut [u8],
        hdr: &InsaneHeader,
        payload_len: usize,
        _dst: HostId,
    ) -> Result<usize, InsaneError> {
        hdr.write(&mut slot[INSANE_HDR_OFFSET..])?;
        seal(&mut slot[INSANE_HDR_OFFSET..PAYLOAD_OFFSET + payload_len])?;
        Ok(INSANE_HDR_OFFSET)
    }

    fn send_burst(&self, msgs: &mut Vec<WireMsg>) -> Result<usize, InsaneError> {
        let mut sent = 0;
        for msg in msgs.drain(..) {
            let dst = Endpoint {
                host: msg.dst,
                port: self.port,
            };
            let result = self.socket.send_to(&msg.view[msg.wire_start..], dst);
            sent += accepted(result.map(|()| 1))?;
        }
        Ok(sent)
    }

    fn poll_rx(&self, out: &mut Vec<InboundMsg>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.socket.try_recv() {
                Ok(datagram) => {
                    let received_ns = epoch_ns();
                    let hdr = parse_insane(&datagram.payload, 0)
                        .filter(|_| checksum_ok(&datagram.payload));
                    let Some(hdr) = hdr else {
                        // Not an INSANE message, or corrupted in flight.
                        self.stats.rx_rejected.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    out.push(InboundMsg {
                        store: Payload::Inline(datagram.payload.into_boxed_slice()),
                        hdr,
                        payload_offset: insane_netstack::insane_hdr::HEADER_LEN,
                        wire_ns: datagram.wire_ns,
                        received_ns,
                    });
                    n += 1;
                }
                Err(_) => break,
            }
        }
        n
    }
}

// ---------------------------------------------------------------------
// DPDK
// ---------------------------------------------------------------------

/// DPDK datapath: the "fast" path when RDMA hardware is absent (§5.2).
pub(crate) struct DpdkPlugin {
    port: DpdkPort,
    host: HostId,
    udp_port: u16,
    stats: Arc<RuntimeStats>,
}

impl fmt::Debug for DpdkPlugin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DpdkPlugin")
            .field("endpoint", &self.port.local_addr())
            .finish()
    }
}

impl DpdkPlugin {
    pub(crate) fn new(
        fabric: &Fabric,
        host: HostId,
        port: u16,
        stats: Arc<RuntimeStats>,
    ) -> Result<Self, InsaneError> {
        // The device mempool backs raw-DPDK use; the runtime sends from
        // its own pools, so a small one suffices.
        let dpdk = DpdkPort::open(fabric, host, port, 64)?;
        Ok(Self {
            port: dpdk,
            host,
            udp_port: port,
            stats,
        })
    }
}

impl DatapathPlugin for DpdkPlugin {
    fn technology(&self) -> Technology {
        Technology::Dpdk
    }

    fn max_payload(&self) -> usize {
        self.port.mtu() - PAYLOAD_OFFSET
    }

    fn frame(
        &self,
        slot: &mut [u8],
        hdr: &InsaneHeader,
        payload_len: usize,
        dst: HostId,
    ) -> Result<usize, InsaneError> {
        frame_ethernet(slot, hdr, payload_len, (self.host, dst), self.udp_port)
    }

    fn send_burst(&self, msgs: &mut Vec<WireMsg>) -> Result<usize, InsaneError> {
        // Group by destination so each group is one burst (opportunistic
        // batching, §6.2: send what is ready, never wait to fill a
        // batch).  The common case — every message toward one host — is
        // allocation-free.
        let mut sent = 0;
        while !msgs.is_empty() {
            let dst = msgs[0].dst;
            let endpoint = Endpoint {
                host: dst,
                port: self.udp_port,
            };
            if msgs.iter().all(|m| m.dst == dst) {
                let batch = msgs.drain(..).map(|m| m.view);
                sent += accepted(self.port.tx_burst_views(endpoint, batch))?;
                break;
            }
            let mut batch = Vec::new();
            let mut rest = Vec::new();
            for m in msgs.drain(..) {
                if m.dst == dst {
                    batch.push(m.view);
                } else {
                    rest.push(m);
                }
            }
            *msgs = rest;
            sent += accepted(self.port.tx_burst_views(endpoint, batch))?;
        }
        Ok(sent)
    }

    fn poll_rx(&self, out: &mut Vec<InboundMsg>, max: usize) -> usize {
        let mut packets = Vec::new();
        self.port.rx_burst(&mut packets, max);
        let received_ns = epoch_ns();
        let mut n = 0;
        for pkt in packets {
            let ok = accept_ethernet(out, &self.stats, pkt.payload, pkt.wire_ns, received_ns);
            n += usize::from(ok);
        }
        n
    }
}

// ---------------------------------------------------------------------
// XDP
// ---------------------------------------------------------------------

/// AF_XDP datapath: accelerated but CPU-frugal (§5.2).
pub(crate) struct XdpPlugin {
    socket: XdpSocket,
    host: HostId,
    udp_port: u16,
    stats: Arc<RuntimeStats>,
}

impl fmt::Debug for XdpPlugin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XdpPlugin")
            .field("endpoint", &self.socket.local_addr())
            .finish()
    }
}

impl XdpPlugin {
    pub(crate) fn new(
        fabric: &Fabric,
        host: HostId,
        port: u16,
        stats: Arc<RuntimeStats>,
    ) -> Result<Self, InsaneError> {
        let socket = XdpSocket::open(fabric, host, port, 64)?;
        Ok(Self {
            socket,
            host,
            udp_port: port,
            stats,
        })
    }
}

impl DatapathPlugin for XdpPlugin {
    fn technology(&self) -> Technology {
        Technology::Xdp
    }

    fn max_payload(&self) -> usize {
        self.socket.mtu() - PAYLOAD_OFFSET
    }

    fn frame(
        &self,
        slot: &mut [u8],
        hdr: &InsaneHeader,
        payload_len: usize,
        dst: HostId,
    ) -> Result<usize, InsaneError> {
        frame_ethernet(slot, hdr, payload_len, (self.host, dst), self.udp_port)
    }

    fn send_burst(&self, msgs: &mut Vec<WireMsg>) -> Result<usize, InsaneError> {
        let mut sent = 0;
        for msg in msgs.drain(..) {
            let dst = Endpoint {
                host: msg.dst,
                port: self.udp_port,
            };
            sent += accepted(self.socket.tx_view(dst, msg.view).map(|()| 1))?;
        }
        Ok(sent)
    }

    fn poll_rx(&self, out: &mut Vec<InboundMsg>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            let Some(desc) = self.socket.rx() else { break };
            let ok = accept_ethernet(out, &self.stats, desc.payload, desc.wire_ns, epoch_ns());
            n += usize::from(ok);
        }
        n
    }
}

// ---------------------------------------------------------------------
// RDMA
// ---------------------------------------------------------------------

/// RDMA datapath: two-sided SEND/RECV over per-peer queue pairs.
///
/// QP ports follow a symmetric convention so peers can address each other
/// without negotiation: the QP a runtime opens *toward* peer host `P`
/// binds local port `qp_base + P` and connects to the peer's
/// `qp_base + self`.
pub(crate) struct RdmaPlugin {
    nic: RdmaNic,
    host: HostId,
    qp_base: u16,
    /// Peer → connected queue pair, published as an immutable snapshot:
    /// `poll_rx` runs on every polling shard and must read the table
    /// without locks or allocation (DESIGN.md §12).
    qps: SnapshotCell<Vec<(HostId, Arc<insane_fabric::devices::QueuePair>)>>,
    /// Serializes `qp_for`'s clone-mutate-publish connection setup.
    qp_write: Mutex<()>,
    recv_credit: Mutex<u64>,
    max_payload: usize,
    stats: Arc<RuntimeStats>,
}

impl fmt::Debug for RdmaPlugin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RdmaPlugin")
            .field("host", &self.host)
            .field("qps", &self.qps.load().len())
            .finish()
    }
}

impl RdmaPlugin {
    const RECV_DEPTH: u64 = 128;

    pub(crate) fn new(
        fabric: &Fabric,
        host: HostId,
        qp_base: u16,
        max_payload: usize,
        stats: Arc<RuntimeStats>,
    ) -> Result<Self, InsaneError> {
        Ok(Self {
            nic: RdmaNic::new(fabric, host),
            host,
            qp_base,
            qps: SnapshotCell::new(Vec::new()),
            qp_write: Mutex::new(()),
            recv_credit: Mutex::new(0),
            max_payload,
            stats,
        })
    }

    fn qp_for(&self, peer: HostId) -> Result<Arc<insane_fabric::devices::QueuePair>, InsaneError> {
        if let Some((_, qp)) = self.qps.load().iter().find(|(h, _)| *h == peer) {
            return Ok(Arc::clone(qp));
        }
        // Connection setup: serialize writers and re-check under the
        // writer lock, then publish the extended table as a new snapshot.
        let guard = self.qp_write.lock();
        if let Some((_, qp)) = self.qps.load().iter().find(|(h, _)| *h == peer) {
            return Ok(Arc::clone(qp));
        }
        let local_port = self.qp_base + peer.index() as u16;
        let qp = Arc::new(self.nic.create_qp(local_port)?);
        qp.connect(Endpoint {
            host: peer,
            port: self.qp_base + self.host.index() as u16,
        });
        for i in 0..Self::RECV_DEPTH {
            qp.post_recv(i);
        }
        *self.recv_credit.lock() += Self::RECV_DEPTH;
        let mut next = (*self.qps.load()).clone();
        next.push((peer, Arc::clone(&qp)));
        self.qps.publish(Arc::new(next));
        drop(guard);
        Ok(qp)
    }
}

impl DatapathPlugin for RdmaPlugin {
    fn technology(&self) -> Technology {
        Technology::Rdma
    }

    fn max_payload(&self) -> usize {
        self.max_payload
    }

    fn frame(
        &self,
        slot: &mut [u8],
        hdr: &InsaneHeader,
        payload_len: usize,
        _dst: HostId,
    ) -> Result<usize, InsaneError> {
        // The NIC does the wire protocol; only the INSANE header is ours.
        hdr.write(&mut slot[INSANE_HDR_OFFSET..])?;
        seal(&mut slot[INSANE_HDR_OFFSET..PAYLOAD_OFFSET + payload_len])?;
        Ok(0)
    }

    fn send_burst(&self, msgs: &mut Vec<WireMsg>) -> Result<usize, InsaneError> {
        let mut sent = 0;
        for msg in msgs.drain(..) {
            let qp = self.qp_for(msg.dst)?;
            sent += accepted(qp.post_send_view(msg.view, 0).map(|()| 1))?;
        }
        Ok(sent)
    }

    fn on_peer(&self, peer: HostId) {
        let _ = self.qp_for(peer);
    }

    fn poll_rx(&self, out: &mut Vec<InboundMsg>, max: usize) -> usize {
        // One pinned snapshot load per poll call: no lock, and no more
        // per-call Vec clone of the queue-pair table.
        let qps = self.qps.load();
        let mut n = 0;
        let mut completions = Vec::new();
        for (_, qp) in qps.iter() {
            if n >= max {
                break;
            }
            completions.clear();
            qp.poll_cq(&mut completions, max - n);
            let received_ns = epoch_ns();
            for completion in completions.drain(..) {
                let Some(store) = completion.payload else {
                    continue; // send completion
                };
                // Replenish the receive queue.
                qp.post_recv(completion.wr_id);
                let wire_ns = completion.wire_ns;
                let sealed_ok = store
                    .as_slice()
                    .get(INSANE_HDR_OFFSET..)
                    .is_some_and(checksum_ok);
                let hdr = parse_insane(store.as_slice(), INSANE_HDR_OFFSET).filter(|_| sealed_ok);
                let Some(hdr) = hdr else {
                    self.stats.rx_rejected.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                out.push(InboundMsg {
                    store,
                    hdr,
                    payload_offset: PAYLOAD_OFFSET,
                    wire_ns,
                    received_ns,
                });
                n += 1;
            }
        }
        n
    }
}
