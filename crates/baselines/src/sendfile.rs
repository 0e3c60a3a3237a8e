//! `sendfile(2)`-based frame streaming — the baseline of Fig. 11.
//!
//! The paper compares Lunar Streaming against an implementation that
//! ships each frame with `sendfile`, which "sends data directly from a
//! file descriptor loaded into the kernel without involving user space":
//! a *sender-side* zero-copy.  The receive side is an ordinary socket
//! reader, paying the usual kernel RX costs — which is precisely where
//! Lunar's end-to-end zero-copy wins.
//!
//! Frames larger than the MTU are split into jumbo datagrams with a
//! 16-byte chunk header and reassembled with the shared
//! [`insane_netstack::fragment::Reassembler`].

use parking_lot::Mutex;

use insane_fabric::devices::SimUdpSocket;
use insane_fabric::{Endpoint, Fabric, FabricError, HostId};
use insane_netstack::fragment::{plan, MessageKey, Reassembler};

use crate::BaselineError;

/// Chunk header: frame id (u64) + index (u16) + count (u16) + total (u32).
const CHUNK_HEADER: usize = 16;

/// Streams frames over the kernel's sender-side zero-copy path.
#[derive(Debug)]
pub struct SendfileStreamer {
    socket: SimUdpSocket,
    next_frame: u64,
    chunk_payload: usize,
}

impl SendfileStreamer {
    /// Opens the streaming socket on `host`:`port` (jumbo frames on, as
    /// in the paper's big-payload experiments).
    ///
    /// # Errors
    ///
    /// Propagates binding failures.
    pub fn open(fabric: &Fabric, host: HostId, port: u16) -> Result<Self, BaselineError> {
        let socket = SimUdpSocket::bind(fabric, host, port)?;
        socket.set_mtu(SimUdpSocket::JUMBO_MTU);
        Ok(Self {
            socket,
            next_frame: 0,
            chunk_payload: SimUdpSocket::JUMBO_MTU - CHUNK_HEADER,
        })
    }

    /// Sends one frame to `dst`; returns its frame id.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    pub fn send_frame(&mut self, frame: &[u8], dst: Endpoint) -> Result<u64, BaselineError> {
        self.send_frame_with(frame, dst, || {})
    }

    /// As [`SendfileStreamer::send_frame`], invoking `progress` after
    /// every chunk — single-threaded drivers drain the receiver there so
    /// large frames do not overrun its socket buffer.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    pub fn send_frame_with(
        &mut self,
        frame: &[u8],
        dst: Endpoint,
        mut progress: impl FnMut(),
    ) -> Result<u64, BaselineError> {
        let frame_id = self.next_frame;
        self.next_frame += 1;
        let chunks = plan(frame.len(), self.chunk_payload)
            .map_err(|_| BaselineError::Malformed("frame too large"))?;
        let mut datagram = vec![0u8; CHUNK_HEADER + self.chunk_payload];
        for chunk in chunks {
            datagram[0..8].copy_from_slice(&frame_id.to_le_bytes());
            datagram[8..10].copy_from_slice(&chunk.index.to_le_bytes());
            datagram[10..12].copy_from_slice(&chunk.count.to_le_bytes());
            datagram[12..16].copy_from_slice(&(frame.len() as u32).to_le_bytes());
            datagram[CHUNK_HEADER..CHUNK_HEADER + chunk.len]
                .copy_from_slice(&frame[chunk.offset..chunk.offset + chunk.len]);
            // sendfile: no userspace copy is charged for the payload.
            match self
                .socket
                .sendfile_to(&datagram[..CHUNK_HEADER + chunk.len], dst)
            {
                Ok(()) | Err(FabricError::Unreachable(_)) => {}
                Err(e) => return Err(e.into()),
            }
            progress();
        }
        Ok(frame_id)
    }

    /// The socket's address.
    pub fn local_addr(&self) -> Endpoint {
        self.socket.local_addr()
    }
}

/// Receives and reassembles sendfile-streamed frames.
#[derive(Debug)]
pub struct SendfileReceiver {
    socket: SimUdpSocket,
    reassembler: Mutex<Reassembler>,
}

impl SendfileReceiver {
    /// Opens the receiving socket.
    ///
    /// # Errors
    ///
    /// Propagates binding failures.
    pub fn open(fabric: &Fabric, host: HostId, port: u16) -> Result<Self, BaselineError> {
        let socket = SimUdpSocket::bind(fabric, host, port)?;
        socket.set_mtu(SimUdpSocket::JUMBO_MTU);
        Ok(Self {
            socket,
            reassembler: Mutex::new(Reassembler::new(16)),
        })
    }

    /// The socket's address (the streamer's destination).
    pub fn local_addr(&self) -> Endpoint {
        self.socket.local_addr()
    }

    /// Drains queued datagrams; returns frames completed by them as
    /// `(frame_id, bytes)`.
    ///
    /// # Errors
    ///
    /// [`BaselineError::Malformed`] on chunk-header violations.
    pub fn poll_frames(&self) -> Result<Vec<(u64, Vec<u8>)>, BaselineError> {
        let mut done = Vec::new();
        loop {
            let datagram = match self.socket.try_recv() {
                Ok(d) => d,
                Err(FabricError::WouldBlock) => break,
                Err(e) => return Err(e.into()),
            };
            let bytes = &datagram.payload;
            if bytes.len() < CHUNK_HEADER {
                return Err(BaselineError::Malformed("short chunk"));
            }
            let frame_id = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
            let index = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes"));
            let count = u16::from_le_bytes(bytes[10..12].try_into().expect("2 bytes"));
            let total = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
            let data = &bytes[CHUNK_HEADER..];
            let offset = if index + 1 == count {
                total - data.len()
            } else {
                index as usize * data.len()
            };
            let key = MessageKey {
                src_runtime: 0,
                channel: 0,
                seq: frame_id,
            };
            let complete = self
                .reassembler
                .lock()
                .offer(key, index, count, total, offset, data)
                .map_err(|_| BaselineError::Malformed("fragment mismatch"))?;
            if let Some(frame) = complete {
                done.push((frame_id, frame));
            }
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insane_fabric::TestbedProfile;

    fn pair() -> (Fabric, SendfileStreamer, SendfileReceiver) {
        let fabric = Fabric::new(TestbedProfile::local());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let tx = SendfileStreamer::open(&fabric, a, 6000).unwrap();
        let rx = SendfileReceiver::open(&fabric, b, 6000).unwrap();
        (fabric, tx, rx)
    }

    fn drain(rx: &SendfileReceiver, expect: usize) -> Vec<(u64, Vec<u8>)> {
        let mut got = Vec::new();
        for _ in 0..1_000_000 {
            got.extend(rx.poll_frames().unwrap());
            if got.len() >= expect {
                break;
            }
            core::hint::spin_loop();
        }
        got
    }

    #[test]
    fn small_frame_single_chunk() {
        let (_f, mut tx, rx) = pair();
        let id = tx.send_frame(b"one chunk", rx.local_addr()).unwrap();
        let got = drain(&rx, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, id);
        assert_eq!(got[0].1, b"one chunk");
    }

    #[test]
    fn multi_chunk_frame_reassembles_exactly() {
        let (_f, mut tx, rx) = pair();
        let frame: Vec<u8> = (0..100_000usize).map(|i| (i % 251) as u8).collect();
        tx.send_frame(&frame, rx.local_addr()).unwrap();
        let got = drain(&rx, 1);
        assert_eq!(got[0].1, frame);
    }

    #[test]
    fn interleaved_frames_keep_their_ids() {
        let (_f, mut tx, rx) = pair();
        for i in 0..3u8 {
            tx.send_frame(&vec![i; 20_000], rx.local_addr()).unwrap();
        }
        let got = drain(&rx, 3);
        assert_eq!(got.len(), 3);
        for (id, frame) in got {
            assert_eq!(frame, vec![id as u8; 20_000]);
        }
    }

    #[test]
    fn sendfile_tx_is_cheaper_than_copying_send() {
        use std::time::Instant;
        // Same payload, same socket type: the sendfile path must spend
        // measurably less sender CPU than the copying path.
        let fabric = Fabric::new(TestbedProfile::local());
        let a = fabric.add_host("a");
        let b = fabric.add_host("b");
        let s = SimUdpSocket::bind(&fabric, a, 1).unwrap();
        s.set_mtu(SimUdpSocket::JUMBO_MTU);
        let _sink = fabric.bind(Endpoint { host: b, port: 1 }).unwrap();
        let payload = vec![0u8; 8192];
        let dst = Endpoint { host: b, port: 1 };
        let mut copy_ns = u64::MAX;
        let mut zc_ns = u64::MAX;
        for _ in 0..20 {
            let t0 = Instant::now();
            s.send_to(&payload, dst).unwrap();
            copy_ns = copy_ns.min(t0.elapsed().as_nanos() as u64);
            let t1 = Instant::now();
            s.sendfile_to(&payload, dst).unwrap();
            zc_ns = zc_ns.min(t1.elapsed().as_nanos() as u64);
        }
        assert!(
            zc_ns + 200 < copy_ns,
            "sendfile {zc_ns} ns should beat copying send {copy_ns} ns"
        );
    }
}
