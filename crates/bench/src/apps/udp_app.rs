//! The benchmarking application over plain UDP sockets (Table 3 row 2).
//!
//! More code than the INSANE version: the application manages socket
//! options (MTU/buffer tuning), explicit addressing, its own receive
//! loops with would-block handling, and a tiny message header so the two
//! directions can share validation logic — all concerns the middleware
//! otherwise hides.  Still far less than DPDK: the kernel provides the
//! protocol stack.

use std::time::Instant;

use insane_fabric::devices::SimUdpSocket;
use insane_fabric::{Endpoint, Fabric, FabricError, HostId, TestbedProfile};

/// Measured results of one run.
pub struct Results {
    /// RTT samples in nanoseconds.
    pub rtt_ns: Vec<u64>,
}

const PING_PORT: u16 = 9000;
const PONG_PORT: u16 = 9001;
const MSG_MAGIC: u8 = 0x42;

struct Peer {
    socket: SimUdpSocket,
    remote: Endpoint,
}

impl Peer {
    fn open(fabric: &Fabric, host: HostId, port: u16, remote: Endpoint) -> Self {
        let socket = SimUdpSocket::bind(fabric, host, port).expect("bind");
        // Tune the socket like the paper's setup (§6.1): jumbo frames so
        // the biggest payloads fit one datagram.
        socket.set_mtu(SimUdpSocket::JUMBO_MTU);
        Self { socket, remote }
    }

    fn send(&self, seq: u32, payload: &[u8]) {
        let mut datagram = Vec::with_capacity(5 + payload.len());
        datagram.push(MSG_MAGIC);
        datagram.extend_from_slice(&seq.to_le_bytes());
        datagram.extend_from_slice(payload);
        self.socket.send_to(&datagram, self.remote).expect("send");
    }

    fn recv_busy(&self, expect_seq: u32) -> Vec<u8> {
        loop {
            match self.socket.try_recv() {
                Ok(datagram) => {
                    let bytes = datagram.payload;
                    if bytes.len() < 5 || bytes[0] != MSG_MAGIC {
                        continue; // stray datagram: not ours
                    }
                    let seq = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
                    if seq != expect_seq {
                        continue; // late duplicate from an earlier round
                    }
                    return bytes[5..].to_vec();
                }
                Err(FabricError::WouldBlock) => core::hint::spin_loop(),
                Err(e) => panic!("recv: {e}"),
            }
        }
    }
}

/// Runs `iters` ping-pong round trips of `payload` bytes and returns the
/// samples.
pub fn run(profile: TestbedProfile, payload: usize, iters: usize) -> Results {
    let fabric = Fabric::new(profile);
    let host_a = fabric.add_host("client");
    let host_b = fabric.add_host("server");
    let addr_a = Endpoint {
        host: host_a,
        port: PONG_PORT,
    };
    let addr_b = Endpoint {
        host: host_b,
        port: PING_PORT,
    };
    let client = Peer::open(&fabric, host_a, PONG_PORT, addr_b);
    let server = Peer::open(&fabric, host_b, PING_PORT, addr_a);

    let payload_bytes = vec![0u8; payload];
    let mut rtt_ns = Vec::with_capacity(iters);
    for i in 0..iters {
        let seq = i as u32;
        let t0 = Instant::now();
        client.send(seq, &payload_bytes);
        let ping = server.recv_busy(seq);
        server.send(seq, &ping);
        let pong = client.recv_busy(seq);
        assert_eq!(pong.len(), payload, "echo must be intact");
        rtt_ns.push(t0.elapsed().as_nanos() as u64);
    }
    Results { rtt_ns }
}
