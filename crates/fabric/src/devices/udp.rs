//! Simulated kernel UDP socket (AF_INET path of Table 1).
//!
//! Every operation pays the kernel's price: a syscall per send/receive, a
//! traversal of the kernel network stack, and a payload copy in each
//! direction — the overheads §3 of the paper blames for kernel networking
//! falling behind fast links.  A blocking receive additionally pays a thread
//! wake-up, which is exactly the difference between the paper's
//! "Blocking UDP Socket" and "Non-Blocking UDP Socket" bars in Fig. 7.
//! Here that is a *cost profile* ([`SimUdpSocket::recv_blocking_emulated`]
//! charges the wake-up), not a sleeping thread: no receiver in the tree
//! sleeps on the wire, so no sender pays to wake one (DESIGN.md §6.10).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::cost::{TechCosts, Technology};
use crate::wire::{Endpoint, Fabric, Frame, HostId, Payload, PortStats};
use crate::FabricError;

use super::CostCharger;

/// A received datagram.
#[derive(Debug)]
pub struct Datagram {
    /// Payload bytes, copied out of the kernel (this is the copy the
    /// kernel path cannot avoid).
    pub payload: Vec<u8>,
    /// Sender address.
    pub from: Endpoint,
    /// Wire time in nanoseconds.
    pub wire_ns: u64,
}

impl Datagram {
    /// Payload as a byte slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.payload
    }
}

/// A simulated `AF_INET` UDP socket.
#[derive(Debug)]
pub struct SimUdpSocket {
    fabric: Fabric,
    port: crate::wire::PortHandle,
    charger: CostCharger,
    mtu: AtomicUsize,
}

impl SimUdpSocket {
    /// Default MTU: standard Ethernet.
    pub const DEFAULT_MTU: usize = 1500;
    /// Jumbo-frame MTU the paper enables for payloads above 1.5 KB (§6.2).
    pub const JUMBO_MTU: usize = 9000;

    /// Binds a UDP socket on `host` at `udp_port`.
    ///
    /// # Errors
    ///
    /// [`FabricError::AddrInUse`] / [`FabricError::UnknownHost`] as for
    /// [`Fabric::bind`].
    pub fn bind(fabric: &Fabric, host: HostId, udp_port: u16) -> Result<Self, FabricError> {
        let endpoint = Endpoint {
            host,
            port: udp_port,
        };
        let port = fabric.bind(endpoint)?;
        let scale = fabric.profile().cpu_scale_pct;
        Ok(Self {
            fabric: fabric.clone(),
            port,
            charger: CostCharger::new(
                TechCosts::of(Technology::KernelUdp),
                scale,
                0x5EED_0000 ^ (host.index() as u64) << 16 ^ udp_port as u64,
            ),
            mtu: AtomicUsize::new(Self::DEFAULT_MTU),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> Endpoint {
        self.port.endpoint()
    }

    /// Current MTU in bytes.
    pub fn mtu(&self) -> usize {
        self.mtu.load(Ordering::Relaxed)
    }

    /// Changes the MTU (e.g. enable jumbo frames).
    pub fn set_mtu(&self, mtu: usize) {
        self.mtu.store(mtu, Ordering::Relaxed);
    }

    /// Delivery statistics of the receive queue.
    pub fn stats(&self) -> PortStats {
        self.port.stats()
    }

    /// Sends `payload` to `dst`.
    ///
    /// The kernel has no IP fragmentation here, matching the INSANE
    /// prototype's deliberate choice (§8): oversized payloads are
    /// rejected.
    ///
    /// # Errors
    ///
    /// * [`FabricError::FrameTooLarge`] above the MTU.
    /// * [`FabricError::Unreachable`] when nothing listens at `dst`.
    pub fn send_to(&self, payload: &[u8], dst: Endpoint) -> Result<(), FabricError> {
        let mtu = self.mtu();
        if payload.len() > mtu {
            return Err(FabricError::FrameTooLarge {
                len: payload.len(),
                mtu,
            });
        }
        // syscall + stack traversal + copy into a kernel skb.
        self.charger.charge_tx_packet(payload.len());
        let frame = Frame::new(
            self.local_addr(),
            dst,
            Payload::Inline(payload.to_vec().into_boxed_slice()),
            Instant::now(),
        );
        let wire = payload.len() + self.charger.costs().wire_overhead_bytes;
        self.fabric
            .transmit(frame, wire, self.charger.costs().nic_latency_ns)
    }

    /// Sends `payload` without the userspace→kernel copy, modeling the
    /// `sendfile(2)` path the paper uses as its streaming baseline
    /// (§7.2): data leaves straight from the page cache, so only the
    /// syscall and stack traversal are charged.
    ///
    /// # Errors
    ///
    /// As [`SimUdpSocket::send_to`].
    pub fn sendfile_to(&self, payload: &[u8], dst: Endpoint) -> Result<(), FabricError> {
        let mtu = self.mtu();
        if payload.len() > mtu {
            return Err(FabricError::FrameTooLarge {
                len: payload.len(),
                mtu,
            });
        }
        // Same syscall + stack costs, zero copy cost.
        self.charger.charge_tx_packet(0);
        let frame = Frame::new(
            self.local_addr(),
            dst,
            Payload::Inline(payload.to_vec().into_boxed_slice()),
            Instant::now(),
        );
        let wire = payload.len() + self.charger.costs().wire_overhead_bytes;
        self.fabric
            .transmit(frame, wire, self.charger.costs().nic_latency_ns)
    }

    /// Receives one datagram if one is deliverable.  Each attempt is a
    /// syscall, charged whether or not data is ready.
    ///
    /// # Errors
    ///
    /// [`FabricError::WouldBlock`] with no data.
    pub fn try_recv(&self) -> Result<Datagram, FabricError> {
        self.charger.charge_syscall();
        let frame = self.port.poll().ok_or(FabricError::WouldBlock)?;
        let len = frame.payload.len();
        // stack traversal + copy to userspace (the copy is real *and*
        // charged; the model constant accounts for the combination).
        self.charger.charge_rx_packet(len);
        let wire_ns = frame.wire_ns();
        Ok(Datagram {
            from: frame.src,
            wire_ns,
            payload: payload_into_vec(frame.payload),
        })
    }

    /// Blocking receive with the *costs* of a blocking socket but a
    /// busy-wait implementation: waits (uncharged) until a datagram is
    /// deliverable, then charges the wake-up penalty and the RX path.
    ///
    /// Single-core measurement harnesses use this to reproduce the
    /// blocking-socket latency profile while driving both endpoints on
    /// one thread (a sleeping receive would deadlock the serial driver).
    ///
    /// # Errors
    ///
    /// None today; the `Result` matches [`SimUdpSocket::try_recv`].
    pub fn recv_blocking_emulated(&self) -> Result<Datagram, FabricError> {
        let frame = loop {
            if let Some(frame) = self.port.poll() {
                break frame;
            }
            core::hint::spin_loop();
        };
        self.charger.charge_wakeup();
        let len = frame.payload.len();
        self.charger.charge_rx_packet(len);
        let wire_ns = frame.wire_ns();
        Ok(Datagram {
            from: frame.src,
            wire_ns,
            payload: payload_into_vec(frame.payload),
        })
    }

    /// Closes the socket and releases the port binding.
    pub fn close(&self) {
        self.port.unbind();
    }
}

impl Drop for SimUdpSocket {
    fn drop(&mut self) {
        self.port.unbind();
    }
}

/// Extracts the datagram bytes: inline frames already own their buffer
/// (the kernel's skb) and move out without a second copy; pooled frames
/// must be copied into the application (that copy is the charged one).
fn payload_into_vec(payload: Payload) -> Vec<u8> {
    match payload {
        Payload::Inline(bytes) => bytes.into_vec(),
        Payload::Pooled(view) => view.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestbedProfile;

    fn pair() -> (Fabric, SimUdpSocket, SimUdpSocket) {
        let f = Fabric::new(TestbedProfile::local());
        let a = f.add_host("a");
        let b = f.add_host("b");
        let sa = SimUdpSocket::bind(&f, a, 4000).unwrap();
        let sb = SimUdpSocket::bind(&f, b, 4000).unwrap();
        (f, sa, sb)
    }

    /// Polls until the datagram in flight is deliverable.
    fn recv(socket: &SimUdpSocket) -> Datagram {
        loop {
            match socket.try_recv() {
                Ok(datagram) => return datagram,
                Err(FabricError::WouldBlock) => {}
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn roundtrip_payload_integrity() {
        let (_f, sa, sb) = pair();
        sa.send_to(b"datagram", sb.local_addr()).unwrap();
        let d = recv(&sb);
        assert_eq!(d.as_slice(), b"datagram");
        assert_eq!(d.from, sa.local_addr());
    }

    #[test]
    fn nonblocking_recv_would_block() {
        let (_f, _sa, sb) = pair();
        assert_eq!(sb.try_recv().err(), Some(FabricError::WouldBlock));
    }

    #[test]
    fn mtu_is_enforced_and_adjustable() {
        let (_f, sa, sb) = pair();
        let big = vec![0u8; 2000];
        assert!(matches!(
            sa.send_to(&big, sb.local_addr()),
            Err(FabricError::FrameTooLarge {
                len: 2000,
                mtu: 1500
            })
        ));
        sa.set_mtu(SimUdpSocket::JUMBO_MTU);
        sa.send_to(&big, sb.local_addr()).unwrap();
        let d = recv(&sb);
        assert_eq!(d.payload.len(), 2000);
    }

    #[test]
    fn blocking_is_slower_than_polling_when_waiting() {
        // The path Fig. 7's blocking-UDP row uses: a datagram the
        // receiver slept for costs the wake-up where a polled one costs
        // the `try_recv` attempt's syscall.  Both receives start with the
        // datagram deliverable, so neither times the wire.
        let (_f, sa, sb) = pair();
        let costs = TechCosts::of(Technology::KernelUdp);
        let extra_ns = costs.wakeup_ns - costs.syscall_ns;
        let mut ready_ns = u64::MAX;
        let mut late_ns = u64::MAX;
        for _ in 0..20 {
            sa.send_to(b"x", sb.local_addr()).unwrap();
            crate::time::spin_for_ns(20_000);
            let t0 = Instant::now();
            sb.try_recv().unwrap();
            ready_ns = ready_ns.min(t0.elapsed().as_nanos() as u64);

            sa.send_to(b"y", sb.local_addr()).unwrap();
            crate::time::spin_for_ns(20_000);
            let t1 = Instant::now();
            sb.recv_blocking_emulated().unwrap();
            late_ns = late_ns.min(t1.elapsed().as_nanos() as u64);
        }
        // The charger's jitter is ±4 % per charge.
        assert!(
            late_ns >= ready_ns + extra_ns * 9 / 10,
            "blocking receive {late_ns} ns vs polled {ready_ns} ns, modelled gap {extra_ns} ns"
        );
    }

    #[test]
    fn rtt_64b_matches_calibration_band() {
        // Single-threaded ping-pong: this host has one CPU, and in a real
        // ping-pong the critical path is serial anyway — the client's CPU
        // work, the wire, the server's CPU work, the wire back.  Driving
        // both endpoints inline reproduces exactly that serial path.
        // The paper's non-blocking UDP figure is 12.58 µs; we assert a
        // generous band here (the bench asserts the precise shape).
        let (_f, sa, sb) = pair();
        let a_addr = sa.local_addr();
        let b_addr = sb.local_addr();
        let payload = [7u8; 64];
        let mut best = u64::MAX;
        for _ in 0..50 {
            let t0 = Instant::now();
            sa.send_to(&payload, b_addr).unwrap();
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
        assert!(
            (8_000..20_000).contains(&best),
            "UDP 64B RTT {best} ns outside calibration band"
        );
    }

    #[test]
    fn drop_releases_binding() {
        let f = Fabric::new(TestbedProfile::local());
        let a = f.add_host("a");
        {
            let _s = SimUdpSocket::bind(&f, a, 1234).unwrap();
            assert!(f.is_bound(Endpoint {
                host: a,
                port: 1234
            }));
        }
        assert!(!f.is_bound(Endpoint {
            host: a,
            port: 1234
        }));
    }
}
