//! A ZeroMQ-like pub/sub node.
//!
//! ZeroMQ routes every message through an internal I/O thread: the
//! application thread enqueues onto the socket's pipe, the I/O thread
//! dequeues, frames and writes to the transport — and symmetrically on
//! receive.  Those two extra hops, plus multipart envelope framing
//! (topic frame + payload frame) and the associated copies, are why the
//! paper measures ZeroMQ's UDP transport ≈20 µs above Cyclone (Fig. 9a)
//! and calls its throughput unstable.
//!
//! The hops are reproduced as real bounded queues crossed by the message
//! bytes (real copies), with the scheduling cost of the I/O-thread
//! round-trip charged on top with a wide jitter.

use std::collections::VecDeque;

use parking_lot::Mutex;

use insane_fabric::devices::SimUdpSocket;
use insane_fabric::time::{scale_ns, spin_for_ns, Jitter};
use insane_fabric::{Endpoint, Fabric, FabricError, HostId};

use crate::BaselineError;

/// A received ZeroMQ message (already past the subscription filter).
#[derive(Debug)]
pub struct ZmqMessage {
    /// Topic frame bytes.
    pub topic: Vec<u8>,
    /// Payload frame bytes.
    pub payload: Vec<u8>,
}

/// A ZeroMQ-like PUB/SUB node over the UDP transport.
#[derive(Debug)]
pub struct ZmqLite {
    socket: SimUdpSocket,
    peers: Vec<Endpoint>,
    subscriptions: Mutex<Vec<Vec<u8>>>,
    /// The socket pipe toward the I/O thread (outgoing) — a real queue
    /// the message bytes cross.
    out_pipe: Mutex<VecDeque<Vec<u8>>>,
    /// The pipe back from the I/O thread (incoming).
    in_pipe: Mutex<VecDeque<Vec<u8>>>,
    io_hop_ns: u64,
    jitter: Mutex<Jitter>,
}

impl ZmqLite {
    /// Creates a node on `host`:`port` publishing to `peers`.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn new(
        fabric: &Fabric,
        host: HostId,
        port: u16,
        peers: Vec<Endpoint>,
    ) -> Result<Self, BaselineError> {
        let socket = SimUdpSocket::bind(fabric, host, port)?;
        socket.set_mtu(SimUdpSocket::JUMBO_MTU);
        let scale = fabric.profile().cpu_scale_pct;
        Ok(Self {
            socket,
            peers,
            subscriptions: Mutex::new(Vec::new()),
            out_pipe: Mutex::new(VecDeque::new()),
            in_pipe: Mutex::new(VecDeque::new()),
            // One application↔I/O-thread crossing; charged once per
            // pipe hop (two per direction of a message).  Calibrated to
            // Fig. 9a's ≈+20 µs over Cyclone.
            io_hop_ns: scale_ns(5_200, scale),
            jitter: Mutex::new(Jitter::new(0x2290, 0.25)),
        })
    }

    /// The node's address.
    pub fn local_addr(&self) -> Endpoint {
        self.socket.local_addr()
    }

    fn charge_hop(&self) {
        let ns = self.jitter.lock().apply(self.io_hop_ns);
        spin_for_ns(ns);
    }

    /// Subscribes to a topic prefix (ZeroMQ prefix matching).
    pub fn subscribe(&self, prefix: &[u8]) {
        self.subscriptions.lock().push(prefix.to_vec());
    }

    /// Publishes a two-frame message (`topic`, `payload`).
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    pub fn publish(&self, topic: &[u8], payload: &[u8]) -> Result<(), BaselineError> {
        // Envelope framing: [topic_len u16][topic][payload] — one copy
        // into the pipe message, like zmq_msg assembly.
        let mut framed = Vec::with_capacity(2 + topic.len() + payload.len());
        framed.extend_from_slice(&(topic.len() as u16).to_le_bytes());
        framed.extend_from_slice(topic);
        framed.extend_from_slice(payload);
        self.out_pipe.lock().push_back(framed);
        // Application → I/O-thread hop.
        self.charge_hop();
        self.drive_io_tx()?;
        Ok(())
    }

    /// The I/O-thread's TX half: drains the outgoing pipe to the wire.
    fn drive_io_tx(&self) -> Result<(), BaselineError> {
        loop {
            let Some(framed) = self.out_pipe.lock().pop_front() else {
                return Ok(());
            };
            for peer in &self.peers {
                match self.socket.send_to(&framed, *peer) {
                    Ok(()) | Err(FabricError::Unreachable(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
    }

    /// The I/O-thread's RX half: moves datagrams from the wire into the
    /// incoming pipe.  Returns how many messages were moved.
    pub fn drive_io_rx(&self) -> usize {
        let mut moved = 0;
        while let Ok(datagram) = self.socket.try_recv() {
            self.in_pipe.lock().push_back(datagram.payload);
            moved += 1;
        }
        moved
    }

    /// Receives the next message matching a subscription.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::WouldBlock`] when nothing matches.
    /// * [`BaselineError::Malformed`] on framing violations.
    pub fn poll(&self) -> Result<ZmqMessage, BaselineError> {
        self.drive_io_rx();
        loop {
            let Some(framed) = self.in_pipe.lock().pop_front() else {
                return Err(BaselineError::WouldBlock);
            };
            if framed.len() < 2 {
                return Err(BaselineError::Malformed("short envelope"));
            }
            let topic_len = u16::from_le_bytes([framed[0], framed[1]]) as usize;
            if framed.len() < 2 + topic_len {
                return Err(BaselineError::Malformed("truncated topic frame"));
            }
            let topic = framed[2..2 + topic_len].to_vec();
            let matched = {
                let subs = self.subscriptions.lock();
                subs.iter().any(|p| topic.starts_with(p))
            };
            if !matched {
                continue; // filtered out, like an unsubscribed topic
            }
            // I/O-thread → application hop (second copy out of the pipe).
            self.charge_hop();
            let payload = framed[2 + topic_len..].to_vec();
            return Ok(ZmqMessage { topic, payload });
        }
    }

    /// Busy-polls until a matching message arrives.
    ///
    /// # Errors
    ///
    /// As [`ZmqLite::poll`], but never `WouldBlock`.
    pub fn poll_busy(&self) -> Result<ZmqMessage, BaselineError> {
        loop {
            match self.poll() {
                Ok(m) => return Ok(m),
                Err(BaselineError::WouldBlock) => core::hint::spin_loop(),
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insane_fabric::TestbedProfile;

    fn pair() -> (Fabric, ZmqLite, ZmqLite) {
        let fabric = Fabric::new(TestbedProfile::local());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let ea = Endpoint {
            host: a,
            port: 5555,
        };
        let eb = Endpoint {
            host: b,
            port: 5555,
        };
        let na = ZmqLite::new(&fabric, a, 5555, vec![eb]).unwrap();
        let nb = ZmqLite::new(&fabric, b, 5555, vec![ea]).unwrap();
        (fabric, na, nb)
    }

    #[test]
    fn pub_sub_roundtrip_with_prefix_filter() {
        let (_f, na, nb) = pair();
        nb.subscribe(b"sensors/");
        na.publish(b"sensors/temp", b"23.4").unwrap();
        let msg = nb.poll_busy().unwrap();
        assert_eq!(msg.topic, b"sensors/temp");
        assert_eq!(msg.payload, b"23.4");
    }

    #[test]
    fn unmatched_topics_are_dropped() {
        let (_f, na, nb) = pair();
        nb.subscribe(b"only/this");
        na.publish(b"other/topic", b"x").unwrap();
        na.publish(b"only/this/one", b"y").unwrap();
        let msg = nb.poll_busy().unwrap();
        assert_eq!(msg.payload, b"y");
        assert!(matches!(nb.poll(), Err(BaselineError::WouldBlock)));
    }

    #[test]
    fn empty_subscription_list_receives_nothing() {
        let (_f, na, nb) = pair();
        na.publish(b"t", b"x").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(matches!(nb.poll(), Err(BaselineError::WouldBlock)));
    }

    #[test]
    fn zmq_is_slower_than_cyclone() {
        use crate::cyclone::CycloneLite;
        use std::time::Instant;
        let (_f, za, zb) = pair();
        zb.subscribe(b"t");
        let mut zmq = u64::MAX;
        for _ in 0..10 {
            let t0 = Instant::now();
            za.publish(b"t", &[1u8; 64]).unwrap();
            zb.poll_busy().unwrap();
            zmq = zmq.min(t0.elapsed().as_nanos() as u64);
        }
        let fabric = Fabric::new(TestbedProfile::local());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let eb = Endpoint {
            host: b,
            port: 7400,
        };
        let ca = CycloneLite::new(&fabric, a, 7400, vec![eb]).unwrap();
        let cb = CycloneLite::new(&fabric, b, 7400, vec![]).unwrap();
        let mut cyclone = u64::MAX;
        for _ in 0..10 {
            let t0 = Instant::now();
            ca.publish(1, &[1u8; 64]).unwrap();
            cb.poll_topic_busy(1).unwrap();
            cyclone = cyclone.min(t0.elapsed().as_nanos() as u64);
        }
        assert!(
            zmq > cyclone + 5_000,
            "zmq one-way {zmq} ns must clearly exceed cyclone {cyclone} ns"
        );
    }
}
