//! Simulated AF_XDP socket (XDP path of Table 1).
//!
//! The API mirrors the AF_XDP workflow §3 describes: the application owns a
//! *umem* — a shared memory area divided into frames — and exchanges frame
//! descriptors with the driver over rings.  Compared to DPDK, each packet
//! costs more CPU (the in-kernel driver forwards every packet between ring
//! and NIC), but no core has to busy-poll: a real socket can block cheaply.
//! This one only polls ([`XdpSocket::rx`]); a sleeping receive would be an
//! armed [`insane_queues::Bell`] on the port, which nothing in the tree
//! needs yet (DESIGN.md §6.10).
//!
//! Simplification versus real AF_XDP (documented in DESIGN.md): the FILL
//! and COMPLETION rings are bookkeeping — the zero-copy payload travels as
//! a pooled slot view whose lifetime the fabric manages, so the sender's
//! umem frame returns automatically when the receiver is done rather than
//! via an explicit completion-ring read.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use insane_memory::{PoolConfig, SlotGuard, SlotPool};

use crate::cost::{TechCosts, Technology};
use crate::wire::{Endpoint, Fabric, Frame, HostId, Payload, PortStats};
use crate::FabricError;

use super::{CostCharger, Received};

/// A descriptor returned by [`XdpSocket::rx`].
pub type XdpDesc = Received;

/// A simulated `AF_XDP` socket bound to one NIC queue.
#[derive(Debug)]
pub struct XdpSocket {
    fabric: Fabric,
    port: crate::wire::PortHandle,
    charger: CostCharger,
    umem: SlotPool,
    mtu: usize,
    /// TX descriptors submitted (for completion accounting).
    tx_submitted: AtomicU64,
}

impl XdpSocket {
    /// XDP frames are limited to one page in practice.
    pub const DEFAULT_MTU: usize = 3498;

    /// Creates a socket with a umem of `umem_frames` frames on `host`.
    ///
    /// # Errors
    ///
    /// Propagates fabric binding and pool construction failures.
    pub fn open(
        fabric: &Fabric,
        host: HostId,
        queue: u16,
        umem_frames: usize,
    ) -> Result<Self, FabricError> {
        let endpoint = Endpoint { host, port: queue };
        let port = fabric.bind(endpoint)?;
        let umem = SlotPool::new(PoolConfig::new(
            0x8000 | (host.index() as u16) << 4 | (queue & 0xF),
            Self::DEFAULT_MTU,
            umem_frames,
        ))?;
        let scale = fabric.profile().cpu_scale_pct;
        Ok(Self {
            fabric: fabric.clone(),
            port,
            charger: CostCharger::new(
                TechCosts::of(Technology::Xdp),
                scale,
                0xAFD9_0000 ^ (host.index() as u64) << 16 ^ queue as u64,
            ),
            umem,
            mtu: Self::DEFAULT_MTU,
            tx_submitted: AtomicU64::new(0),
        })
    }

    /// The socket's fabric address.
    pub fn local_addr(&self) -> Endpoint {
        self.port.endpoint()
    }

    /// The umem backing this socket.
    pub fn umem(&self) -> &SlotPool {
        &self.umem
    }

    /// MTU in bytes.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// RX statistics.
    pub fn stats(&self) -> PortStats {
        self.port.stats()
    }

    /// Total TX descriptors submitted so far.
    pub fn tx_submitted(&self) -> u64 {
        self.tx_submitted.load(Ordering::Relaxed)
    }

    /// Allocates a umem frame for writing a packet of `len` bytes.
    ///
    /// # Errors
    ///
    /// * [`FabricError::FrameTooLarge`] above the MTU.
    /// * [`FabricError::Memory`] when the umem has no free frame.
    pub fn alloc_frame(&self, len: usize) -> Result<SlotGuard, FabricError> {
        if len > self.mtu {
            return Err(FabricError::FrameTooLarge { len, mtu: self.mtu });
        }
        Ok(self.umem.acquire(len)?)
    }

    /// Submits one packet descriptor to the TX ring and kicks the driver.
    ///
    /// # Errors
    ///
    /// [`FabricError::Unreachable`] if nothing is bound at `dst`.
    pub fn tx(&self, dst: Endpoint, frame: SlotGuard) -> Result<(), FabricError> {
        self.tx_view(dst, frame.into_view())
    }

    /// Submits a frozen zero-copy buffer, from the umem or externally
    /// owned (e.g. an INSANE runtime pool slot already framed by the
    /// userspace stack).
    ///
    /// # Errors
    ///
    /// [`FabricError::Unreachable`] if nothing is bound at `dst`.
    pub fn tx_view(&self, dst: Endpoint, view: insane_memory::SlotView) -> Result<(), FabricError> {
        let len = view.len();
        // Ring write + syscall kick + driver forwarding work.
        self.charger.charge_doorbell();
        self.charger.charge_tx_packet(len);
        let wire_frame = Frame::new(
            self.local_addr(),
            dst,
            Payload::Pooled(view),
            Instant::now(),
        );
        let wire = len + self.charger.costs().wire_overhead_bytes;
        self.tx_submitted.fetch_add(1, Ordering::Relaxed);
        self.fabric
            .transmit(wire_frame, wire, self.charger.costs().nic_latency_ns)
    }

    /// Polls the RX ring; returns a descriptor if a packet is ready.
    pub fn rx(&self) -> Option<XdpDesc> {
        self.charger.charge_rx_poll();
        let frame = self.port.poll()?;
        self.charger.charge_rx_packet(frame.payload.len());
        Some(frame.into())
    }

    /// Closes the socket.
    pub fn close(&self) {
        self.port.unbind();
    }
}

impl Drop for XdpSocket {
    fn drop(&mut self) {
        self.port.unbind();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::SimUdpSocket;
    use crate::TestbedProfile;

    fn pair() -> (Fabric, XdpSocket, XdpSocket) {
        let f = Fabric::new(TestbedProfile::local());
        let a = f.add_host("a");
        let b = f.add_host("b");
        let xa = XdpSocket::open(&f, a, 0, 32).unwrap();
        let xb = XdpSocket::open(&f, b, 0, 32).unwrap();
        (f, xa, xb)
    }

    #[test]
    fn roundtrip_zero_copy() {
        let (_f, xa, xb) = pair();
        let mut frame = xa.alloc_frame(3).unwrap();
        frame.copy_from_slice(b"xdp");
        xa.tx(xb.local_addr(), frame).unwrap();
        let desc = loop {
            if let Some(desc) = xb.rx() {
                break desc;
            }
        };
        assert_eq!(desc.payload.as_slice(), b"xdp");
        assert!(matches!(desc.payload, Payload::Pooled(_)));
        assert_eq!(xa.tx_submitted(), 1);
        drop(desc);
        assert_eq!(xa.umem().free_slots(), 32);
    }

    #[test]
    fn mtu_enforced() {
        let (_f, xa, _xb) = pair();
        assert!(matches!(
            xa.alloc_frame(4000),
            Err(FabricError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn umem_frames_recycle_through_tx_and_rx() {
        let (_f, xa, xb) = pair();
        // Exhaust the umem with in-flight frames toward an undrained
        // socket, then confirm full recovery once the receiver consumes.
        let mut sent = 0;
        loop {
            match xa.alloc_frame(100) {
                Ok(mut frame) => {
                    frame.copy_from_slice(&[7u8; 100]);
                    xa.tx(xb.local_addr(), frame).unwrap();
                    sent += 1;
                }
                Err(FabricError::Memory(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(sent, 32, "umem bound enforces back-pressure");
        assert_eq!(xa.tx_submitted(), 32);
        let mut drained = 0;
        while drained < 32 {
            if let Some(desc) = xb.rx() {
                drop(desc);
                drained += 1;
            }
        }
        assert_eq!(xa.umem().free_slots(), 32, "all frames recycled");
        assert!(xa.alloc_frame(100).is_ok());
    }

    #[test]
    fn xdp_sits_between_udp_and_dpdk_in_latency() {
        // Ordering sanity: XDP ping-pong must be faster than kernel UDP,
        // matching the paper's §3 narrative.  Single-threaded inline
        // ping-pongs (one-CPU host), min of several rounds.
        fn xdp_rtt() -> u64 {
            let (_f, xa, xb) = pair();
            let a_addr = xa.local_addr();
            let b_addr = xb.local_addr();
            let mut best = u64::MAX;
            for _ in 0..30 {
                let mut frame = xa.alloc_frame(64).unwrap();
                frame.copy_from_slice(&[1u8; 64]);
                let t0 = Instant::now();
                xa.tx(b_addr, frame).unwrap();
                let ping = loop {
                    if let Some(d) = xb.rx() {
                        break d;
                    }
                };
                let mut echo = xb.alloc_frame(ping.payload.len()).unwrap();
                echo.copy_from_slice(ping.payload.as_slice());
                drop(ping);
                xb.tx(a_addr, echo).unwrap();
                while xa.rx().is_none() {}
                best = best.min(t0.elapsed().as_nanos() as u64);
            }
            best
        }
        fn udp_rtt() -> u64 {
            let f = Fabric::new(TestbedProfile::local());
            let a = f.add_host("a");
            let b = f.add_host("b");
            let sa = SimUdpSocket::bind(&f, a, 1).unwrap();
            let sb = SimUdpSocket::bind(&f, b, 1).unwrap();
            let a_addr = sa.local_addr();
            let b_addr = sb.local_addr();
            let mut best = u64::MAX;
            for _ in 0..30 {
                let t0 = Instant::now();
                sa.send_to(&[1u8; 64], b_addr).unwrap();
                let ping = loop {
                    match sb.try_recv() {
                        Ok(d) => break d,
                        Err(FabricError::WouldBlock) => {}
                        Err(e) => panic!("{e}"),
                    }
                };
                sb.send_to(&ping.payload, a_addr).unwrap();
                loop {
                    match sa.try_recv() {
                        Ok(_) => break,
                        Err(FabricError::WouldBlock) => {}
                        Err(e) => panic!("{e}"),
                    }
                }
                best = best.min(t0.elapsed().as_nanos() as u64);
            }
            best
        }
        let xdp = xdp_rtt();
        let udp = udp_rtt();
        assert!(xdp < udp, "XDP ({xdp} ns) must beat kernel UDP ({udp} ns)");
    }
}
