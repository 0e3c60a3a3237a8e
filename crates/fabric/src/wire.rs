//! The fabric itself: hosts, ports, frames, and delivery scheduling.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use insane_memory::SlotView;

use crate::link::DirectedLink;
use crate::profile::TestbedProfile;
use crate::FabricError;

/// Identifier of a host attached to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub(crate) u32);

impl HostId {
    /// Raw numeric id (stable for the lifetime of the fabric).
    pub fn index(&self) -> u32 {
        self.0
    }

    /// Reconstructs a host id from its raw index (e.g. received in a
    /// control message).  Using an index that no host carries makes
    /// subsequent operations fail with [`FabricError::UnknownHost`].
    pub fn from_index(index: u32) -> Self {
        HostId(index)
    }
}

/// A (host, port) pair — the fabric-level address of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Host the device is attached to.
    pub host: HostId,
    /// Port number the device bound (device-class specific namespaces are
    /// up to the caller, like UDP ports are).
    pub port: u16,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}:{}", self.host.0, self.port)
    }
}

/// Frame payload: inline bytes, or a zero-copy slot view.
///
/// Kernel-path devices copy payloads (and are charged for it); bypass
/// devices move [`SlotView`]s so the bytes are written once by the producer
/// and read once by the consumer — the paper's zero-copy property.
pub enum Payload {
    /// Owned bytes travelling with the frame.
    Inline(Box<[u8]>),
    /// A checked-out slot travelling by id (DMA-like).
    Pooled(SlotView),
}

impl Payload {
    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Inline(b) => b,
            Payload::Pooled(v) => v,
        }
    }

    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the payload into a fresh vector (the explicit copy a
    /// non-zero-copy consumer performs).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Duplicates the payload the way the wire would: inline bytes are
    /// copied, pooled slots gain another reference (no byte copy).
    pub(crate) fn clone_shallow(&self) -> Payload {
        match self {
            Payload::Inline(b) => Payload::Inline(b.clone()),
            Payload::Pooled(v) => Payload::Pooled(v.clone_ref()),
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Inline(b) => f.debug_tuple("Inline").field(&b.len()).finish(),
            Payload::Pooled(v) => f.debug_tuple("Pooled").field(&v.len()).finish(),
        }
    }
}

/// A frame in flight (or delivered).
#[derive(Debug)]
pub struct Frame {
    /// Sender endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Payload bytes or slot.
    pub payload: Payload,
    /// When the sending device handed the frame to its NIC.
    pub sent_at: Instant,
    /// When the fabric delivers the frame at the destination port
    /// (serialization + propagation + switch).  Set by
    /// [`Fabric::transmit`].
    pub delivered_at: Instant,
}

impl Frame {
    /// A frame handed to the NIC at `sent_at`, ready for
    /// [`Fabric::transmit`].  The device reads the clock, once per frame
    /// or once for a whole burst; the fabric computes `delivered_at`.
    pub fn new(src: Endpoint, dst: Endpoint, payload: Payload, sent_at: Instant) -> Self {
        Self {
            src,
            dst,
            payload,
            sent_at,
            delivered_at: sent_at,
        }
    }

    /// Time the frame spent on the wire (network component of Fig. 6).
    pub fn wire_ns(&self) -> u64 {
        self.delivered_at
            .saturating_duration_since(self.sent_at)
            .as_nanos() as u64
    }
}

/// Per-port delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Frames enqueued for this port.
    pub delivered: u64,
    /// Frames dropped because the port queue was full (receiver overrun —
    /// the effect behind Fig. 8b's collapse at 8 sinks).
    pub dropped: u64,
}

struct PortInner {
    queue: Mutex<VecDeque<Frame>>,
    capacity: usize,
    delivered: AtomicU64,
    dropped: AtomicU64,
}

impl PortInner {
    fn stats(&self) -> PortStats {
        PortStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// Receiver handle for a bound endpoint; devices wrap this.
#[derive(Clone)]
pub struct PortHandle {
    endpoint: Endpoint,
    inner: Arc<PortInner>,
    fabric: Arc<FabricInner>,
}

impl fmt::Debug for PortHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PortHandle")
            .field("endpoint", &self.endpoint)
            .field("stats", &self.inner.stats())
            .finish()
    }
}

impl PortHandle {
    /// The endpoint this port is bound to.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// Delivery statistics for this port.
    pub fn stats(&self) -> PortStats {
        self.inner.stats()
    }

    /// Frames currently queued (including not-yet-deliverable ones).
    pub fn queued(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Pops the oldest frame whose delivery time has arrived, if any.
    pub fn poll(&self) -> Option<Frame> {
        let mut q = self.inner.queue.lock();
        match q.front() {
            Some(f) if f.delivered_at <= Instant::now() => q.pop_front(),
            _ => None,
        }
    }

    /// Pops up to `max` deliverable frames, appending each to `out` in
    /// the caller's own receive type; returns the count.
    pub fn poll_burst<T: From<Frame>>(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut q = self.inner.queue.lock();
        let now = Instant::now();
        let mut n = 0;
        while n < max && q.front().is_some_and(|f| f.delivered_at <= now) {
            if let Some(f) = q.pop_front() {
                out.push(f.into());
                n += 1;
            }
        }
        n
    }

    /// Removes the binding from the fabric (subsequent sends to this
    /// endpoint fail with [`FabricError::Unreachable`]).
    pub fn unbind(&self) {
        self.fabric.ports.write().remove(&self.endpoint);
    }
}

struct HostInfo {
    #[allow(dead_code)]
    name: String,
    uplink: DirectedLink,
    downlink: DirectedLink,
}

struct FabricInner {
    profile: TestbedProfile,
    hosts: RwLock<Vec<Arc<HostInfo>>>,
    ports: RwLock<HashMap<Endpoint, Arc<PortInner>>>,
    frames_sent: AtomicU64,
    faults: Arc<crate::fault::FaultState>,
}

/// The in-process wire connecting simulated hosts.
///
/// Cloning is cheap (shared handle).
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("profile", &self.inner.profile.name)
            .field("hosts", &self.inner.hosts.read().len())
            .field("ports", &self.inner.ports.read().len())
            .field(
                "frames_sent",
                &self.inner.frames_sent.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl Fabric {
    /// Creates a fabric with the given testbed profile.
    pub fn new(profile: TestbedProfile) -> Self {
        Self {
            inner: Arc::new(FabricInner {
                profile,
                hosts: RwLock::new(Vec::new()),
                ports: RwLock::new(HashMap::new()),
                frames_sent: AtomicU64::new(0),
                faults: Arc::new(crate::fault::FaultState::new()),
            }),
        }
    }

    /// The testbed profile this fabric was created with.
    pub fn profile(&self) -> &TestbedProfile {
        &self.inner.profile
    }

    /// Attaches a new host and returns its id.
    pub fn add_host(&self, name: &str) -> HostId {
        let mut hosts = self.inner.hosts.write();
        let id = HostId(hosts.len() as u32);
        hosts.push(Arc::new(HostInfo {
            name: name.to_owned(),
            uplink: DirectedLink::new(self.inner.profile.link),
            downlink: DirectedLink::new(self.inner.profile.link),
        }));
        id
    }

    /// Number of hosts attached.
    pub fn host_count(&self) -> usize {
        self.inner.hosts.read().len()
    }

    /// Total frames accepted for transmission.
    pub fn frames_sent(&self) -> u64 {
        self.inner.frames_sent.load(Ordering::Relaxed)
    }

    /// Handle for configuring fault injection on this fabric.
    pub fn faults(&self) -> crate::fault::FaultInjector {
        crate::fault::FaultInjector::from_state(Arc::clone(&self.inner.faults))
    }

    /// Whether the device at `ep` is gated down by fault injection.
    /// Runtimes use this as their datapath health probe.
    pub fn device_down(&self, ep: Endpoint) -> bool {
        self.inner.faults.device_is_down(ep)
    }

    fn host(&self, id: HostId) -> Result<Arc<HostInfo>, FabricError> {
        self.inner
            .hosts
            .read()
            .get(id.0 as usize)
            .cloned()
            .ok_or(FabricError::UnknownHost(id))
    }

    /// Binds `endpoint` with the profile's default RX queue capacity.
    ///
    /// # Errors
    ///
    /// * [`FabricError::UnknownHost`] for an unattached host.
    /// * [`FabricError::AddrInUse`] if the endpoint is taken.
    pub fn bind(&self, endpoint: Endpoint) -> Result<PortHandle, FabricError> {
        self.bind_with_capacity(endpoint, self.inner.profile.rx_queue_frames)
    }

    /// Binds `endpoint` with an explicit RX queue capacity in frames.
    ///
    /// # Errors
    ///
    /// As [`Fabric::bind`].
    pub fn bind_with_capacity(
        &self,
        endpoint: Endpoint,
        capacity: usize,
    ) -> Result<PortHandle, FabricError> {
        self.host(endpoint.host)?;
        let mut ports = self.inner.ports.write();
        if ports.contains_key(&endpoint) {
            return Err(FabricError::AddrInUse(endpoint));
        }
        let inner = Arc::new(PortInner {
            queue: Mutex::new(VecDeque::new()),
            capacity,
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        });
        ports.insert(endpoint, Arc::clone(&inner));
        Ok(PortHandle {
            endpoint,
            inner,
            fabric: Arc::clone(&self.inner),
        })
    }

    /// Whether `endpoint` currently has a bound port.
    pub fn is_bound(&self, endpoint: Endpoint) -> bool {
        self.inner.ports.read().contains_key(&endpoint)
    }

    /// Transmits a frame: computes its delivery time from the link models
    /// and `frame.sent_at`, and enqueues it at the destination port.  No
    /// thread is woken: every receiver polls (DESIGN.md §6.10).
    ///
    /// `wire_bytes` is the on-wire frame size (payload + technology
    /// headers); `extra_latency_ns` is the device's one-way NIC latency.
    ///
    /// A full destination queue drops the frame silently (counted in the
    /// port's [`PortStats::dropped`]) — datagram semantics, like every
    /// technology the paper integrates.
    ///
    /// # Errors
    ///
    /// [`FabricError::Unreachable`] when nothing is bound at `frame.dst`.
    pub fn transmit(
        &self,
        mut frame: Frame,
        wire_bytes: usize,
        extra_latency_ns: u64,
    ) -> Result<(), FabricError> {
        let now = frame.sent_at;
        let dst_port = self
            .inner
            .ports
            .read()
            .get(&frame.dst)
            .cloned()
            .ok_or(FabricError::Unreachable(frame.dst))?;

        // Fault pipeline: device/host gates, link gates, per-link plans.
        // Like real datagram networks, injected loss is silent (`Ok`).
        let (duplicate, reorder) = match self.inner.faults.intercept(&mut frame) {
            crate::fault::Verdict::Drop => return Ok(()),
            crate::fault::Verdict::Deliver { duplicate, reorder } => (duplicate, reorder),
        };

        let deliver_at = if frame.src.host == frame.dst.host {
            now + std::time::Duration::from_nanos(
                self.inner.profile.link.loopback_ns + extra_latency_ns,
            )
        } else {
            let src_host = self.host(frame.src.host)?;
            let dst_host = self.host(frame.dst.host)?;
            // 1. serialize on the sender uplink (queues behind in-flight
            //    frames — this is the goodput gate);
            let tx_done = src_host.uplink.reserve(wire_bytes, now);
            // 2. propagation + switch traversal + NIC latency;
            let hop = self.inner.profile.link.propagation_ns
                + self.inner.profile.switch_ns()
                + extra_latency_ns;
            let arrived = tx_done + std::time::Duration::from_nanos(hop);
            // 3. serialize on the receiver downlink (store-and-forward).
            dst_host.downlink.reserve(wire_bytes, arrived)
        };
        frame.delivered_at = deliver_at;

        let twin = duplicate.then(|| Frame {
            src: frame.src,
            dst: frame.dst,
            payload: frame.payload.clone_shallow(),
            sent_at: frame.sent_at,
            delivered_at: frame.delivered_at,
        });

        let mut q = dst_port.queue.lock();
        let mut accepted = 0u64;
        for f in std::iter::once(frame).chain(twin) {
            if q.len() >= dst_port.capacity {
                dst_port.dropped.fetch_add(1, Ordering::Relaxed);
            } else {
                q.push_back(f);
                dst_port.delivered.fetch_add(1, Ordering::Relaxed);
                accepted += 1;
            }
        }
        if reorder {
            let n = q.len();
            if n >= 2 {
                q.swap(n - 1, n - 2);
            }
        }
        drop(q);
        if accepted > 0 {
            self.inner
                .frames_sent
                .fetch_add(accepted, Ordering::Relaxed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestbedProfile;

    fn two_hosts() -> (Fabric, HostId, HostId) {
        let f = Fabric::new(TestbedProfile::local());
        let a = f.add_host("a");
        let b = f.add_host("b");
        (f, a, b)
    }

    fn ep(host: HostId, port: u16) -> Endpoint {
        Endpoint { host, port }
    }

    fn inline(src: Endpoint, dst: Endpoint, bytes: &[u8]) -> Frame {
        Frame::new(src, dst, Payload::Inline(bytes.into()), Instant::now())
    }

    /// Polls until the frame in flight is deliverable.
    fn recv(port: &PortHandle) -> Frame {
        loop {
            if let Some(frame) = port.poll() {
                return frame;
            }
            std::hint::spin_loop();
        }
    }

    #[test]
    fn bind_rejects_duplicates_and_unknown_hosts() {
        let (f, a, _) = two_hosts();
        let e = ep(a, 7);
        let _p = f.bind(e).unwrap();
        assert_eq!(f.bind(e).err(), Some(FabricError::AddrInUse(e)));
        let ghost = Endpoint {
            host: HostId(99),
            port: 1,
        };
        assert_eq!(
            f.bind(ghost).err(),
            Some(FabricError::UnknownHost(HostId(99)))
        );
    }

    #[test]
    fn transmit_to_unbound_endpoint_fails() {
        let (f, a, b) = two_hosts();
        let frame = inline(ep(a, 1), ep(b, 2), b"x");
        assert!(matches!(
            f.transmit(frame, 64, 0),
            Err(FabricError::Unreachable(_))
        ));
    }

    #[test]
    fn frame_travels_and_carries_payload() {
        let (f, a, b) = two_hosts();
        let src = ep(a, 1);
        let dst = ep(b, 2);
        let port = f.bind(dst).unwrap();
        f.transmit(inline(src, dst, b"hello"), 64, 0).unwrap();
        let got = recv(&port);
        assert_eq!(got.payload.as_slice(), b"hello");
        assert_eq!(got.src, src);
        assert!(got.wire_ns() >= 500, "propagation must apply");
    }

    #[test]
    fn delivery_respects_propagation_delay() {
        // Use an artificially long propagation so the in-flight window is
        // large enough to observe deterministically on any host.
        let mut profile = TestbedProfile::cloudlab();
        profile.link.propagation_ns = 200_000;
        let f = Fabric::new(profile);
        let a = f.add_host("a");
        let b = f.add_host("b");
        let dst = ep(b, 2);
        let port = f.bind(dst).unwrap();
        f.transmit(inline(ep(a, 1), dst, b"x"), 64, 0).unwrap();
        // Immediately after transmit the frame is still "on the wire".
        assert!(port.poll().is_none());
        let frame = recv(&port);
        assert!(frame.wire_ns() >= 200_000);
    }

    #[test]
    fn switch_profile_adds_latency() {
        let direct = Fabric::new(TestbedProfile::local());
        let switched = Fabric::new(TestbedProfile::cloudlab());
        let mut wire = [0u64; 2];
        for (i, f) in [direct, switched].iter().enumerate() {
            let a = f.add_host("a");
            let b = f.add_host("b");
            let dst = ep(b, 2);
            let port = f.bind(dst).unwrap();
            f.transmit(inline(ep(a, 1), dst, b"x"), 64, 0).unwrap();
            wire[i] = recv(&port).wire_ns();
        }
        assert!(
            wire[1] >= wire[0] + 1_500,
            "switch must add ≈1.7 µs: direct={} switched={}",
            wire[0],
            wire[1]
        );
    }

    #[test]
    fn loopback_is_faster_than_wire() {
        let (f, a, _) = two_hosts();
        let dst = ep(a, 2);
        let port = f.bind(dst).unwrap();
        f.transmit(inline(ep(a, 1), dst, b"x"), 64, 0).unwrap();
        let frame = recv(&port);
        assert!(frame.wire_ns() < 500);
    }

    #[test]
    fn full_queue_drops_and_counts() {
        let (f, a, b) = two_hosts();
        let dst = ep(b, 2);
        let port = f.bind_with_capacity(dst, 2).unwrap();
        for _ in 0..5 {
            f.transmit(inline(ep(a, 1), dst, b"x"), 64, 0).unwrap();
        }
        let stats = port.stats();
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.dropped, 3);
    }

    #[test]
    fn poll_burst_respects_max_and_readiness() {
        let (f, a, b) = two_hosts();
        let dst = ep(b, 2);
        let port = f.bind(dst).unwrap();
        for _ in 0..5 {
            f.transmit(inline(ep(a, 1), dst, b"y"), 64, 0).unwrap();
        }
        // Wait for the frames to be deliverable.
        crate::time::spin_for_ns(10_000);
        let mut out: Vec<Frame> = Vec::new();
        assert_eq!(port.poll_burst(&mut out, 3), 3);
        assert_eq!(port.poll_burst(&mut out, 10), 2);
    }

    #[test]
    fn unbind_releases_the_endpoint() {
        let (f, _a, b) = two_hosts();
        let e = ep(b, 9);
        let port = f.bind(e).unwrap();
        assert!(f.is_bound(e));
        port.unbind();
        assert!(!f.is_bound(e));
        let _again = f.bind(e).unwrap();
    }

    #[test]
    fn pooled_payload_travels_zero_copy() {
        use insane_memory::{PoolConfig, SlotPool};
        let (f, a, b) = two_hosts();
        let dst = ep(b, 2);
        let port = f.bind(dst).unwrap();
        let pool = SlotPool::new(PoolConfig::new(0, 128, 4)).unwrap();
        let mut g = pool.acquire(5).unwrap();
        g.copy_from_slice(b"pool!");
        let payload = Payload::Pooled(g.into_view());
        f.transmit(Frame::new(ep(a, 1), dst, payload, Instant::now()), 64, 0)
            .unwrap();
        assert_eq!(pool.free_slots(), 3, "slot checked out while in flight");
        let frame = recv(&port);
        assert_eq!(frame.payload.as_slice(), b"pool!");
        drop(frame);
        assert_eq!(pool.free_slots(), 4, "drop releases the slot");
    }
}
