//! A Demikernel-style library OS baseline.
//!
//! The INSANE paper compares against Demikernel (SOSP '21), "the most
//! complete and state-of-the-art alternative option to transparently
//! access kernel-bypassing technologies" (§6).  Demikernel is a *library*
//! OS: a set of userspace libraries compiled into the application, each
//! specialized for one I/O technology, exposing a qd/qtoken-based
//! asynchronous API.  Two of its libraries appear in the evaluation:
//!
//! * **Catnap** — maps operations to kernel sockets (the analogue of
//!   INSANE *slow*);
//! * **Catnip** — maps operations to DPDK (the analogue of INSANE
//!   *fast*), optimized for latency: it sends **one packet per push**,
//!   never batching — the reason Fig. 8a shows it well below INSANE's
//!   throughput.
//!
//! Two structural differences against INSANE matter for the results and
//! are reproduced here:
//!
//! 1. no runtime process: the library executes in the application thread
//!    (push/pop/wait drive the device inline), so there is no IPC hop —
//!    Demikernel's latency sits closer to the raw technology;
//! 2. the technology is chosen **statically** (pick Catnap or Catnip at
//!    build/config time); there is no QoS mapping and no multi-app
//!    sharing.
//!
//! # Examples
//!
//! ```
//! use insane_demikernel::{Backend, Demikernel, DemiEvent};
//! use insane_fabric::{Endpoint, Fabric, TestbedProfile};
//!
//! let fabric = Fabric::new(TestbedProfile::local());
//! let a = fabric.add_host("a");
//! let b = fabric.add_host("b");
//! let mut libos_a = Demikernel::new(Backend::Catnap, &fabric, a)?;
//! let mut libos_b = Demikernel::new(Backend::Catnap, &fabric, b)?;
//! let qa = libos_a.socket()?;
//! let qb = libos_b.socket()?;
//! libos_a.bind(qa, 9000)?;
//! libos_b.bind(qb, 9000)?;
//!
//! let push = libos_a.push_to(qa, b"ping", Endpoint { host: b, port: 9000 })?;
//! libos_a.wait(push, None)?;
//! let pop = libos_b.pop(qb)?;
//! match libos_b.wait(pop, None)? {
//!     DemiEvent::Popped { bytes, .. } => assert_eq!(bytes, b"ping"),
//!     other => panic!("unexpected {other:?}"),
//! }
//! # Ok::<(), insane_demikernel::DemiError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

use insane_fabric::devices::{DpdkPort, SimUdpSocket};
use insane_fabric::time::{scale_ns, spin_for_ns};
use insane_fabric::{Endpoint, Fabric, FabricError, HostId};

/// Which Demikernel library backs the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Kernel sockets (the paper's INSANE-slow counterpart).
    Catnap,
    /// DPDK, one packet per push (the paper's INSANE-fast counterpart).
    Catnip,
}

impl Backend {
    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Catnap => "Catnap",
            Backend::Catnip => "Catnip",
        }
    }
}

/// Queue descriptor.
pub type Qd = u32;

/// Handle for an asynchronous operation, redeemed via
/// [`Demikernel::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QToken {
    qd: Qd,
    kind: TokenKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenKind {
    Push,
    Pop,
}

/// Completion of a waited operation.
#[derive(Debug)]
pub enum DemiEvent {
    /// A push finished; the buffer is reusable.
    Pushed,
    /// A pop completed with data.
    Popped {
        /// Received payload.
        bytes: Vec<u8>,
        /// Sender address.
        from: Endpoint,
        /// Wire time of the datagram, nanoseconds.
        wire_ns: u64,
    },
}

/// Errors from the library OS.
#[derive(Debug)]
pub enum DemiError {
    /// Unknown or unbound queue descriptor.
    BadQd(Qd),
    /// The socket was not bound before use.
    NotBound(Qd),
    /// `wait` hit its timeout.
    Timeout,
    /// Underlying device failure.
    Fabric(FabricError),
    /// No default destination: use `push_to` or `connect` first.
    NoDestination,
}

impl fmt::Display for DemiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemiError::BadQd(qd) => write!(f, "unknown queue descriptor {qd}"),
            DemiError::NotBound(qd) => write!(f, "queue descriptor {qd} is not bound"),
            DemiError::Timeout => write!(f, "wait timed out"),
            DemiError::Fabric(e) => write!(f, "device error: {e}"),
            DemiError::NoDestination => write!(f, "socket has no destination; connect it first"),
        }
    }
}

impl std::error::Error for DemiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DemiError::Fabric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FabricError> for DemiError {
    fn from(e: FabricError) -> Self {
        DemiError::Fabric(e)
    }
}

enum Device {
    Unbound,
    Catnap(SimUdpSocket),
    Catnip(DpdkPort),
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Device::Unbound => f.write_str("Unbound"),
            Device::Catnap(_) => f.write_str("Catnap"),
            Device::Catnip(_) => f.write_str("Catnip"),
        }
    }
}

#[derive(Debug)]
struct Queue {
    device: Device,
    peer: Option<Endpoint>,
    /// Packets popped from the device but not yet waited for.
    staged: VecDeque<(Vec<u8>, Endpoint, u64)>,
}

/// One Demikernel library-OS instance, bound to one host and one backend.
#[derive(Debug)]
pub struct Demikernel {
    backend: Backend,
    fabric: Fabric,
    host: HostId,
    queues: Vec<Queue>,
    /// Per-operation library overhead: qd table lookups, qtoken
    /// bookkeeping, scheduler hop.  Calibrated so that Catnap adds
    /// ≈0.4 µs and Catnip ≈0.4 µs per direction over the raw technology
    /// (paper Fig. 7a: +0.76 µs and +0.82 µs RTT respectively).
    libos_ns: u64,
    /// Link rate used for Catnip's no-pipelining push completion.
    link_gbps: f64,
}

impl Demikernel {
    const LIBOS_NS: u64 = 180;

    /// Creates a library-OS instance on `host`.
    ///
    /// # Errors
    ///
    /// Currently infallible (devices bind per-socket); kept fallible for
    /// API stability.
    pub fn new(backend: Backend, fabric: &Fabric, host: HostId) -> Result<Self, DemiError> {
        Ok(Self {
            backend,
            fabric: fabric.clone(),
            host,
            queues: Vec::new(),
            libos_ns: scale_ns(Self::LIBOS_NS, fabric.profile().cpu_scale_pct),
            link_gbps: fabric.profile().link.bandwidth_gbps,
        })
    }

    /// The backing library.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    fn charge(&self) {
        spin_for_ns(self.libos_ns);
    }

    fn queue_mut(&mut self, qd: Qd) -> Result<&mut Queue, DemiError> {
        self.queues.get_mut(qd as usize).ok_or(DemiError::BadQd(qd))
    }

    /// Allocates a queue descriptor (`demi_socket`).
    ///
    /// # Errors
    ///
    /// Currently infallible; fallible for API stability.
    pub fn socket(&mut self) -> Result<Qd, DemiError> {
        self.queues.push(Queue {
            device: Device::Unbound,
            peer: None,
            staged: VecDeque::new(),
        });
        Ok((self.queues.len() - 1) as Qd)
    }

    /// Binds a descriptor to a local port (`demi_bind`).
    ///
    /// # Errors
    ///
    /// [`DemiError::Fabric`] on port collisions.
    pub fn bind(&mut self, qd: Qd, port: u16) -> Result<(), DemiError> {
        let backend = self.backend;
        let fabric = self.fabric.clone();
        let host = self.host;
        let queue = self.queue_mut(qd)?;
        queue.device = match backend {
            Backend::Catnap => {
                let socket = SimUdpSocket::bind(&fabric, host, port)?;
                socket.set_mtu(SimUdpSocket::JUMBO_MTU);
                Device::Catnap(socket)
            }
            Backend::Catnip => Device::Catnip(DpdkPort::open(&fabric, host, port, 1024)?),
        };
        Ok(())
    }

    /// Sets the default destination (`demi_connect`; UDP-style).
    ///
    /// # Errors
    ///
    /// [`DemiError::BadQd`] for an unknown descriptor.
    pub fn connect(&mut self, qd: Qd, peer: Endpoint) -> Result<(), DemiError> {
        self.queue_mut(qd)?.peer = Some(peer);
        Ok(())
    }

    /// Asynchronously sends to the connected destination (`demi_push`).
    ///
    /// # Errors
    ///
    /// [`DemiError::NoDestination`] before [`Demikernel::connect`].
    pub fn push(&mut self, qd: Qd, bytes: &[u8]) -> Result<QToken, DemiError> {
        let peer = self.queue_mut(qd)?.peer.ok_or(DemiError::NoDestination)?;
        self.push_to(qd, bytes, peer)
    }

    /// Asynchronously sends to an explicit destination (`demi_pushto`).
    ///
    /// Catnip deliberately transmits one packet per call — the library is
    /// optimized for latency, not batching (§6.2).
    ///
    /// # Errors
    ///
    /// * [`DemiError::NotBound`] before [`Demikernel::bind`].
    /// * [`DemiError::Fabric`] for MTU violations and device errors.
    pub fn push_to(&mut self, qd: Qd, bytes: &[u8], dst: Endpoint) -> Result<QToken, DemiError> {
        self.charge();
        let queue = self.queue_mut(qd)?;
        match &queue.device {
            Device::Unbound => Err(DemiError::NotBound(qd)),
            Device::Catnap(socket) => {
                socket.send_to(bytes, dst)?;
                Ok(QToken {
                    qd,
                    kind: TokenKind::Push,
                })
            }
            Device::Catnip(port) => {
                let mut mbuf = port.alloc_mbuf(bytes.len())?;
                mbuf.copy_from_slice(bytes);
                port.tx_burst(dst, [mbuf])?;
                // Catnip is latency-optimized: it puts "one packet per
                // time on the network" (§6.2) — no wire pipelining.  The
                // push completes only once the NIC has serialized the
                // frame, which is what caps its throughput in Fig. 8a.
                let wire_bits = (bytes.len() + 42) as f64 * 8.0;
                spin_for_ns((wire_bits / self.link_gbps) as u64);
                Ok(QToken {
                    qd,
                    kind: TokenKind::Push,
                })
            }
        }
    }

    /// Registers interest in the next datagram (`demi_pop`).
    ///
    /// # Errors
    ///
    /// [`DemiError::BadQd`] for an unknown descriptor.
    pub fn pop(&mut self, qd: Qd) -> Result<QToken, DemiError> {
        self.charge();
        self.queue_mut(qd)?;
        Ok(QToken {
            qd,
            kind: TokenKind::Pop,
        })
    }

    fn try_pop_device(queue: &mut Queue) -> Option<(Vec<u8>, Endpoint, u64)> {
        if let Some(staged) = queue.staged.pop_front() {
            return Some(staged);
        }
        match &queue.device {
            Device::Unbound => None,
            Device::Catnap(socket) => match socket.try_recv() {
                Ok(dgram) => Some((dgram.payload, dgram.from, dgram.wire_ns)),
                Err(_) => None,
            },
            Device::Catnip(port) => {
                let mut out = Vec::new();
                if port.rx_burst(&mut out, 1) > 0 {
                    let pkt = out.remove(0);
                    // The library copies into an application sgarray.
                    Some((pkt.payload.to_vec(), pkt.src, pkt.wire_ns))
                } else {
                    None
                }
            }
        }
    }

    /// Blocks (by polling the device inline — Demikernel runs in the
    /// application thread) until the operation completes (`demi_wait`).
    ///
    /// # Errors
    ///
    /// * [`DemiError::Timeout`] when `timeout` elapses first.
    /// * [`DemiError::BadQd`] for a token of an unknown descriptor.
    pub fn wait(
        &mut self,
        token: QToken,
        timeout: Option<Duration>,
    ) -> Result<DemiEvent, DemiError> {
        self.charge();
        match token.kind {
            TokenKind::Push => Ok(DemiEvent::Pushed),
            TokenKind::Pop => {
                let deadline = timeout.map(|t| Instant::now() + t);
                loop {
                    let queue = self.queue_mut(token.qd)?;
                    if let Some((bytes, from, wire_ns)) = Self::try_pop_device(queue) {
                        return Ok(DemiEvent::Popped {
                            bytes,
                            from,
                            wire_ns,
                        });
                    }
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            return Err(DemiError::Timeout);
                        }
                    }
                    core::hint::spin_loop();
                }
            }
        }
    }

    /// Non-blocking completion check: returns `None` when the operation
    /// has not completed yet.
    ///
    /// # Errors
    ///
    /// [`DemiError::BadQd`] for a token of an unknown descriptor.
    pub fn try_wait(&mut self, token: QToken) -> Result<Option<DemiEvent>, DemiError> {
        match token.kind {
            TokenKind::Push => Ok(Some(DemiEvent::Pushed)),
            TokenKind::Pop => {
                let queue = self.queue_mut(token.qd)?;
                Ok(
                    Self::try_pop_device(queue).map(|(bytes, from, wire_ns)| DemiEvent::Popped {
                        bytes,
                        from,
                        wire_ns,
                    }),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insane_fabric::TestbedProfile;

    fn pair(backend: Backend) -> (Fabric, Demikernel, Demikernel, Endpoint, Endpoint) {
        let fabric = Fabric::new(TestbedProfile::local());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let mut da = Demikernel::new(backend, &fabric, a).unwrap();
        let mut db = Demikernel::new(backend, &fabric, b).unwrap();
        let qa = da.socket().unwrap();
        let qb = db.socket().unwrap();
        da.bind(qa, 7000).unwrap();
        db.bind(qb, 7000).unwrap();
        let ea = Endpoint {
            host: a,
            port: 7000,
        };
        let eb = Endpoint {
            host: b,
            port: 7000,
        };
        (fabric, da, db, ea, eb)
    }

    #[test]
    fn catnap_roundtrip() {
        let (_f, mut da, mut db, _ea, eb) = pair(Backend::Catnap);
        let push = da.push_to(0, b"catnap!", eb).unwrap();
        assert!(matches!(da.wait(push, None).unwrap(), DemiEvent::Pushed));
        let pop = db.pop(0).unwrap();
        match db.wait(pop, Some(Duration::from_secs(1))).unwrap() {
            DemiEvent::Popped { bytes, wire_ns, .. } => {
                assert_eq!(bytes, b"catnap!");
                assert!(wire_ns > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn catnip_roundtrip() {
        let (_f, mut da, mut db, _ea, eb) = pair(Backend::Catnip);
        let push = da.push_to(0, b"catnip!", eb).unwrap();
        assert!(matches!(da.wait(push, None).unwrap(), DemiEvent::Pushed));
        let pop = db.pop(0).unwrap();
        match db.wait(pop, Some(Duration::from_secs(1))).unwrap() {
            DemiEvent::Popped { bytes, .. } => assert_eq!(bytes, b"catnip!"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn connect_sets_default_destination() {
        let (_f, mut da, mut db, _ea, eb) = pair(Backend::Catnap);
        assert!(matches!(da.push(0, b"x"), Err(DemiError::NoDestination)));
        da.connect(0, eb).unwrap();
        da.push(0, b"x").unwrap();
        let pop = db.pop(0).unwrap();
        assert!(matches!(
            db.wait(pop, Some(Duration::from_secs(1))).unwrap(),
            DemiEvent::Popped { .. }
        ));
    }

    #[test]
    fn unbound_and_unknown_descriptors_error() {
        let fabric = Fabric::new(TestbedProfile::local());
        let a = fabric.add_host("a");
        let mut d = Demikernel::new(Backend::Catnap, &fabric, a).unwrap();
        let qd = d.socket().unwrap();
        assert!(matches!(
            d.push_to(qd, b"x", Endpoint { host: a, port: 1 }),
            Err(DemiError::NotBound(0))
        ));
        assert!(matches!(d.pop(99), Err(DemiError::BadQd(99))));
    }

    #[test]
    fn wait_timeout_fires() {
        let (_f, _da, mut db, _ea, _eb) = pair(Backend::Catnap);
        let pop = db.pop(0).unwrap();
        let t0 = Instant::now();
        assert!(matches!(
            db.wait(pop, Some(Duration::from_millis(5))),
            Err(DemiError::Timeout)
        ));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn try_wait_is_nonblocking() {
        let (_f, mut da, mut db, _ea, eb) = pair(Backend::Catnap);
        let pop = db.pop(0).unwrap();
        assert!(db.try_wait(pop).unwrap().is_none());
        da.push_to(0, b"later", eb).unwrap();
        // Poll until delivery (wire time must elapse).
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            if let Some(DemiEvent::Popped { bytes, .. }) = db.try_wait(pop).unwrap() {
                assert_eq!(bytes, b"later");
                break;
            }
            assert!(Instant::now() < deadline, "never delivered");
        }
    }

    #[test]
    fn catnip_is_faster_than_catnap() {
        fn rtt(backend: Backend) -> u64 {
            let (_f, mut da, mut db, ea, eb) = pair(backend);
            let mut best = u64::MAX;
            for _ in 0..30 {
                let t0 = Instant::now();
                da.push_to(0, &[1u8; 64], eb).unwrap();
                let pop = db.pop(0).unwrap();
                let DemiEvent::Popped { bytes, .. } =
                    db.wait(pop, Some(Duration::from_secs(1))).unwrap()
                else {
                    panic!("expected pop completion")
                };
                db.push_to(0, &bytes, ea).unwrap();
                let pop = da.pop(0).unwrap();
                da.wait(pop, Some(Duration::from_secs(1))).unwrap();
                best = best.min(t0.elapsed().as_nanos() as u64);
            }
            best
        }
        let catnap = rtt(Backend::Catnap);
        let catnip = rtt(Backend::Catnip);
        assert!(
            catnip < catnap,
            "Catnip ({catnip} ns) must beat Catnap ({catnap} ns)"
        );
    }
}
