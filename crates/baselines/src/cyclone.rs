//! A Cyclone-DDS-like decentralized pub/sub node.
//!
//! What matters for the comparison (Fig. 9) is architecture, not feature
//! parity:
//!
//! 1. **RTPS framing + CDR serialization** — every message is really
//!    encoded into an RTPS-shaped envelope (header + DATA submessage +
//!    CDR encapsulation), and decoded on receive; the serialization work
//!    is charged per byte on top of the real encode/decode code.
//! 2. **Blocking receiver-thread architecture** — deliveries cross a
//!    handoff between the transport thread and the application reader;
//!    the handoff cost (thread wake-up + queueing) is charged on the
//!    receive path with a deliberately wide jitter, reproducing the
//!    "higher variability" the paper observes.
//! 3. **Peer-wise unicast over UDP** — a decentralized DDS on these
//!    testbeds discovers peers and unicasts to each matched reader.

use parking_lot::Mutex;

use insane_fabric::devices::SimUdpSocket;
use insane_fabric::time::{scale_ns, spin_for_ns, Jitter};
use insane_fabric::{Endpoint, Fabric, FabricError, HostId};

use crate::BaselineError;

const RTPS_MAGIC: &[u8; 4] = b"RTPS";
const RTPS_HEADER: usize = 20; // magic + version + vendor + GUID prefix
const DATA_SUBMSG: usize = 24; // submessage header + reader/writer ids + SN
const CDR_ENCAP: usize = 4;

/// Wire overhead CycloneLite adds to every payload.
pub const WIRE_OVERHEAD: usize = RTPS_HEADER + DATA_SUBMSG + CDR_ENCAP + 4; // + topic hash

/// A received DDS sample.
#[derive(Debug)]
pub struct Sample {
    /// Deserialized payload.
    pub payload: Vec<u8>,
    /// Topic hash the sample was published on.
    pub topic: u32,
    /// Writer sequence number.
    pub seq: u64,
}

/// A Cyclone-DDS-like node (participant + one writer/reader pair per
/// topic, collapsed into a single object for benchmark ergonomics).
#[derive(Debug)]
pub struct CycloneLite {
    socket: SimUdpSocket,
    peers: Vec<Endpoint>,
    seq: Mutex<u64>,
    /// Per-byte CDR serialization cost ×100 and fixed per-message DDS
    /// bookkeeping, charged on both ends (calibrated against Fig. 9a:
    /// Cyclone ≈ +45 % over Lunar slow, with visible variance).
    ser_ns_per_byte_x100: u64,
    per_msg_tx_ns: u64,
    per_msg_rx_ns: u64,
    jitter: Mutex<Jitter>,
}

impl CycloneLite {
    /// Creates a node on `host`:`port` that will unicast to `peers`.
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
            seq: Mutex::new(0),
            ser_ns_per_byte_x100: scale_ns(9, scale),
            per_msg_tx_ns: scale_ns(1_150, scale),
            per_msg_rx_ns: scale_ns(2_450, scale),
            jitter: Mutex::new(Jitter::new(0xDD5, 0.18)),
        })
    }

    /// The node's address (hand it to other nodes as a peer).
    pub fn local_addr(&self) -> Endpoint {
        self.socket.local_addr()
    }

    fn charge(&self, ns: u64) {
        let jittered = self.jitter.lock().apply(ns);
        spin_for_ns(jittered);
    }

    /// Publishes `payload` on `topic` to every peer.
    ///
    /// # Errors
    ///
    /// Propagates device failures (unreachable peers are skipped, like
    /// unmatched readers).
    pub fn publish(&self, topic: u32, payload: &[u8]) -> Result<(), BaselineError> {
        let seq = {
            let mut s = self.seq.lock();
            *s += 1;
            *s
        };
        // Real RTPS-shaped encode.
        let mut msg = Vec::with_capacity(WIRE_OVERHEAD + payload.len());
        msg.extend_from_slice(RTPS_MAGIC);
        msg.extend_from_slice(&[2, 1, 0x01, 0x10]); // version + vendor
        msg.extend_from_slice(&[0u8; 12]); // GUID prefix
        msg.push(0x15); // DATA submessage id
        msg.push(0x05); // flags: little endian, data present
        msg.extend_from_slice(&0u16.to_le_bytes()); // octets-to-next (elided)
        msg.extend_from_slice(&[0u8; 4]); // extraFlags + octetsToInlineQos
        msg.extend_from_slice(&[0u8; 8]); // reader/writer entity ids
        msg.extend_from_slice(&seq.to_le_bytes());
        msg.extend_from_slice(&topic.to_le_bytes());
        msg.extend_from_slice(&[0x00, 0x01, 0, 0]); // CDR_LE encapsulation
        msg.extend_from_slice(payload);
        // Charged CDR serialization + writer bookkeeping.
        self.charge(self.per_msg_tx_ns + payload.len() as u64 * self.ser_ns_per_byte_x100 / 100);
        for peer in &self.peers {
            match self.socket.send_to(&msg, *peer) {
                Ok(()) | Err(FabricError::Unreachable(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Polls for the next sample; the receiver-thread handoff cost is
    /// charged when a sample is actually delivered.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::WouldBlock`] when nothing arrived.
    /// * [`BaselineError::Malformed`] for non-RTPS bytes.
    pub fn poll(&self) -> Result<Sample, BaselineError> {
        let datagram = match self.socket.try_recv() {
            Ok(d) => d,
            Err(FabricError::WouldBlock) => return Err(BaselineError::WouldBlock),
            Err(e) => return Err(e.into()),
        };
        let bytes = &datagram.payload;
        if bytes.len() < WIRE_OVERHEAD || &bytes[0..4] != RTPS_MAGIC {
            return Err(BaselineError::Malformed("not RTPS"));
        }
        let seq = u64::from_le_bytes(bytes[36..44].try_into().expect("8 bytes"));
        let topic = u32::from_le_bytes(bytes[44..48].try_into().expect("4 bytes"));
        let payload = bytes[WIRE_OVERHEAD..].to_vec();
        // Receiver-thread handoff + CDR deserialization.
        self.charge(self.per_msg_rx_ns + payload.len() as u64 * self.ser_ns_per_byte_x100 / 100);
        Ok(Sample {
            payload,
            topic,
            seq,
        })
    }

    /// Polls until a sample for `topic` arrives (samples for other topics
    /// are discarded, like an unmatched reader's).
    ///
    /// # Errors
    ///
    /// As [`CycloneLite::poll`], but never `WouldBlock`.
    pub fn poll_topic_busy(&self, topic: u32) -> Result<Sample, BaselineError> {
        loop {
            match self.poll() {
                Ok(sample) if sample.topic == topic => return Ok(sample),
                Ok(_) => continue,
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

    fn pair() -> (Fabric, CycloneLite, CycloneLite) {
        let fabric = Fabric::new(TestbedProfile::local());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let ea = Endpoint {
            host: a,
            port: 7400,
        };
        let eb = Endpoint {
            host: b,
            port: 7400,
        };
        let na = CycloneLite::new(&fabric, a, 7400, vec![eb]).unwrap();
        let nb = CycloneLite::new(&fabric, b, 7400, vec![ea]).unwrap();
        (fabric, na, nb)
    }

    #[test]
    fn publish_delivers_rtps_framed_samples() {
        let (_f, na, nb) = pair();
        na.publish(0xFEED, b"dds sample").unwrap();
        let sample = nb.poll_topic_busy(0xFEED).unwrap();
        assert_eq!(sample.payload, b"dds sample");
        assert_eq!(sample.seq, 1);
    }

    #[test]
    fn sequence_numbers_increase() {
        let (_f, na, nb) = pair();
        for _ in 0..3 {
            na.publish(1, b"x").unwrap();
        }
        let seqs: Vec<u64> = (0..3).map(|_| nb.poll_topic_busy(1).unwrap().seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn other_topics_are_filtered() {
        let (_f, na, nb) = pair();
        na.publish(111, b"noise").unwrap();
        na.publish(222, b"signal").unwrap();
        let sample = nb.poll_topic_busy(222).unwrap();
        assert_eq!(sample.payload, b"signal");
    }

    #[test]
    fn empty_poll_would_block() {
        let (_f, _na, nb) = pair();
        assert!(matches!(nb.poll(), Err(BaselineError::WouldBlock)));
    }

    #[test]
    fn cyclone_is_slower_than_a_raw_socket() {
        use std::time::Instant;
        // One-way publish+poll must cost visibly more than a raw UDP
        // send+recv of the same payload (the DDS overheads are charged).
        let (_f, na, nb) = pair();
        let mut cyclone = u64::MAX;
        for _ in 0..20 {
            let t0 = Instant::now();
            na.publish(5, &[1u8; 64]).unwrap();
            nb.poll_topic_busy(5).unwrap();
            cyclone = cyclone.min(t0.elapsed().as_nanos() as u64);
        }

        let fabric = Fabric::new(TestbedProfile::local());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let sa = SimUdpSocket::bind(&fabric, a, 1).unwrap();
        let sb = SimUdpSocket::bind(&fabric, b, 1).unwrap();
        let mut raw = u64::MAX;
        for _ in 0..20 {
            let t0 = Instant::now();
            sa.send_to(&[1u8; 64], sb.local_addr()).unwrap();
            loop {
                match sb.try_recv() {
                    Ok(_) => break,
                    Err(FabricError::WouldBlock) => {}
                    Err(e) => panic!("{e}"),
                }
            }
            raw = raw.min(t0.elapsed().as_nanos() as u64);
        }
        assert!(
            cyclone > raw + 2_000,
            "cyclone {cyclone} ns must exceed raw {raw} ns by the DDS overhead"
        );
    }
}
