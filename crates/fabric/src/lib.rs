//! Simulated edge-cloud network fabric.
//!
//! The INSANE paper evaluates on two physical testbeds (Table 2): two
//! directly-cabled hosts with Mellanox 100 Gbps NICs, and two CloudLab
//! nodes behind a Dell switch.  Those testbeds — and the four network
//! acceleration technologies they host — need hardware this reproduction
//! does not have, so this crate builds the closest synthetic equivalent
//! that exercises the same code paths:
//!
//! * [`Fabric`] — an in-process wire.  Hosts attach ports; frames travel
//!   between ports through full-duplex links with **serialization gating**
//!   (a 100 Gbps link really only carries 100 Gbps), propagation delay, and
//!   an optional store-and-forward switch (the CloudLab profile).
//! * [`TestbedProfile`] — the two testbeds from Table 2 as data: link
//!   model, switch, and CPU-speed scale factors.
//! * [`cost`] — calibrated per-technology CPU cost models (syscalls, kernel
//!   stack traversal, per-byte copies, wakeups, driver work).  CPU costs
//!   are *charged to the calling thread* by busy-waiting, so wall-clock
//!   measurements over the fabric reproduce the paper's published numbers
//!   for the raw technologies while everything layered on top (the INSANE
//!   runtime, Demikernel, the Lunar apps) remains genuinely measured code.
//! * [`devices`] — the four simulated technologies with their native API
//!   shapes: [`devices::SimUdpSocket`] (AF_INET-style), [`devices::DpdkPort`]
//!   (mempool + `rx_burst`/`tx_burst`), [`devices::XdpSocket`] (umem + four
//!   rings), [`devices::RdmaNic`] (memory regions, queue pairs, completion
//!   queues, two-sided verbs).
//!
//! Frames carry either inline bytes or a pooled [`insane_memory::SlotView`]
//! so that the zero-copy property of the kernel-bypassing technologies is
//! preserved end to end: sending a pooled payload moves a slot id, never
//! the bytes.
//!
//! # Examples
//!
//! ```
//! use insane_fabric::{Fabric, TestbedProfile};
//! use insane_fabric::devices::SimUdpSocket;
//!
//! let fabric = Fabric::new(TestbedProfile::local());
//! let a = fabric.add_host("node-a");
//! let b = fabric.add_host("node-b");
//! let tx = SimUdpSocket::bind(&fabric, a, 9000)?;
//! let rx = SimUdpSocket::bind(&fabric, b, 9000)?;
//! tx.send_to(b"ping", rx.local_addr())?;
//! // Nobody sleeps on the wire: this polls until the frame lands, then
//! // charges what a blocking socket's wake-up would have cost.
//! let datagram = rx.recv_blocking_emulated()?;
//! assert_eq!(datagram.payload.as_slice(), b"ping");
//! # Ok::<(), insane_fabric::FabricError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod devices;
mod fault;
mod link;
mod profile;
pub mod time;
mod wire;

pub use cost::{TechCosts, Technology};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use link::LinkModel;
pub use profile::{SwitchModel, TestbedProfile};
pub use wire::{Endpoint, Fabric, Frame, HostId, Payload, PortStats};

use core::fmt;

/// Errors produced by the fabric and its simulated devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The destination endpoint has no bound port.
    Unreachable(Endpoint),
    /// The (host, port) pair is already bound by another device.
    AddrInUse(Endpoint),
    /// The host id does not exist on this fabric.
    UnknownHost(HostId),
    /// A receive found no deliverable frame (every receive polls).
    WouldBlock,
    /// The frame exceeds the device MTU.
    FrameTooLarge {
        /// Payload length the caller attempted to send.
        len: usize,
        /// Device MTU in bytes.
        mtu: usize,
    },
    /// The device-internal queue or ring is full.
    RingFull,
    /// A verb was used on a queue pair that is not connected.
    NotConnected,
    /// Underlying memory-pool failure (e.g. mempool exhausted).
    Memory(insane_memory::MemoryError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Unreachable(ep) => write!(f, "endpoint {ep} is not bound"),
            FabricError::AddrInUse(ep) => write!(f, "endpoint {ep} is already bound"),
            FabricError::UnknownHost(h) => write!(f, "host {h:?} does not exist"),
            FabricError::WouldBlock => write!(f, "no frame ready"),
            FabricError::FrameTooLarge { len, mtu } => {
                write!(f, "frame of {len} bytes exceeds MTU of {mtu} bytes")
            }
            FabricError::RingFull => write!(f, "device ring is full"),
            FabricError::NotConnected => write!(f, "queue pair is not connected"),
            FabricError::Memory(e) => write!(f, "memory pool error: {e}"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<insane_memory::MemoryError> for FabricError {
    fn from(e: insane_memory::MemoryError) -> Self {
        FabricError::Memory(e)
    }
}
