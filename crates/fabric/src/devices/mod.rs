//! Simulated network devices with the native API shapes of §3.
//!
//! Each device couples three things:
//!
//! 1. the **API shape** of the real technology (sockets for kernel UDP,
//!    mempool + burst I/O for DPDK, umem + rings for AF_XDP, verbs for
//!    RDMA), so code written against a device reads like code written
//!    against the real thing;
//! 2. the **cost model** of [`crate::cost`], charged to the calling thread;
//! 3. the **wire** of [`crate::Fabric`], which supplies serialization,
//!    propagation, switch latency and drop behavior.

mod dpdk;
mod rdma;
mod udp;
mod xdp;

pub use dpdk::{DpdkPort, RxPacket};
pub use rdma::{Completion, CompletionOpcode, MemoryRegion, QueuePair, RdmaNic};
pub use udp::{Datagram, SimUdpSocket};
pub use xdp::{XdpDesc, XdpSocket};

use crate::cost::TechCosts;
use crate::time::{scale_ns, spin_for_ns, Jitter};
use crate::wire::{Endpoint, Frame, Payload};

/// A frame received by any device: the payload, who sent it, and how long
/// it spent on the wire (feeds the Fig. 6 latency breakdown).
#[derive(Debug)]
pub struct Received {
    /// Payload bytes or zero-copy slot view.
    pub payload: Payload,
    /// Sender endpoint.
    pub src: Endpoint,
    /// Wire time (serialization + propagation + switch) in nanoseconds.
    pub wire_ns: u64,
}

impl From<Frame> for Received {
    fn from(frame: Frame) -> Self {
        Self {
            wire_ns: frame.wire_ns(),
            src: frame.src,
            payload: frame.payload,
        }
    }
}

/// Charges modeled CPU costs on behalf of a device, applying the testbed
/// CPU scale and a deterministic jitter.
#[derive(Debug)]
pub(crate) struct CostCharger {
    costs: TechCosts,
    scale_pct: u32,
    jitter: parking_lot::Mutex<Jitter>,
}

impl CostCharger {
    pub(crate) fn new(costs: TechCosts, scale_pct: u32, seed: u64) -> Self {
        Self {
            costs,
            scale_pct,
            jitter: parking_lot::Mutex::new(Jitter::new(seed, 0.04)),
        }
    }

    pub(crate) fn costs(&self) -> &TechCosts {
        &self.costs
    }

    #[inline]
    fn charge(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        let scaled = scale_ns(ns, self.scale_pct);
        let jittered = self.jitter.lock().apply(scaled);
        spin_for_ns(jittered);
    }

    /// Per-packet TX CPU work for `len` payload bytes.
    #[inline]
    pub(crate) fn charge_tx_packet(&self, len: usize) {
        self.charge(self.costs.tx_packet_ns(len));
    }

    /// Per-packet RX CPU work for `len` payload bytes.
    #[inline]
    pub(crate) fn charge_rx_packet(&self, len: usize) {
        self.charge(self.costs.rx_packet_ns(len));
    }

    /// One TX doorbell / batch submission.
    #[inline]
    pub(crate) fn charge_doorbell(&self) {
        self.charge(self.costs.tx_doorbell_ns);
    }

    /// One RX poll attempt (busy-poll granularity).
    #[inline]
    pub(crate) fn charge_rx_poll(&self) {
        self.charge(self.costs.rx_poll_ns);
    }

    /// The blocking-receive wake-up penalty.
    #[inline]
    pub(crate) fn charge_wakeup(&self) {
        self.charge(self.costs.wakeup_ns);
    }

    /// One bare syscall (non-blocking poll with no data).
    #[inline]
    pub(crate) fn charge_syscall(&self) {
        self.charge(self.costs.syscall_ns);
    }

    /// One TX burst of `n` packets of `len` bytes each: doorbell plus all
    /// per-packet work, charged as a single busy-wait (clock reads are
    /// expensive; a burst is one hardware interaction anyway).
    #[inline]
    pub(crate) fn charge_tx_burst(&self, n: u64, len: usize) {
        self.charge(self.costs.tx_doorbell_ns + n * self.costs.tx_packet_ns(len));
    }
}

/// Measures an elapsed interval in nanoseconds (test helper).
#[cfg(test)]
#[inline]
pub(crate) fn elapsed_ns(since: std::time::Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Technology;
    use std::time::Instant;

    #[test]
    fn charger_spins_for_scaled_cost() {
        let charger = CostCharger::new(TechCosts::of(Technology::KernelUdp), 100, 1);
        let t0 = Instant::now();
        charger.charge_wakeup(); // 3.3 µs modeled
        let spent = elapsed_ns(t0);
        assert!(spent >= 3_000, "charged only {spent} ns");
    }

    #[test]
    fn zero_cost_entries_do_not_spin() {
        let charger = CostCharger::new(TechCosts::of(Technology::Dpdk), 100, 1);
        let t0 = Instant::now();
        charger.charge_syscall(); // DPDK has no syscalls
        assert!(elapsed_ns(t0) < 2_000);
    }

    #[test]
    fn scale_increases_charges() {
        let base = CostCharger::new(TechCosts::of(Technology::KernelUdp), 100, 7);
        let scaled = CostCharger::new(TechCosts::of(Technology::KernelUdp), 200, 7);
        let t0 = Instant::now();
        base.charge_tx_packet(64);
        let base_ns = elapsed_ns(t0);
        let t1 = Instant::now();
        scaled.charge_tx_packet(64);
        let scaled_ns = elapsed_ns(t1);
        assert!(
            scaled_ns > base_ns + base_ns / 2,
            "scaling had no effect: {base_ns} vs {scaled_ns}"
        );
    }
}
