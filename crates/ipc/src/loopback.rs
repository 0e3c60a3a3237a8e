//! A daemon session without the OS process boundary: the same
//! segment-backed pool, the same offset-addressed descriptor rings, and
//! the daemon's datapath thread itself — not a copy of its loop.
//!
//! This is the control arm of the process-split experiment
//! (`BENCH_ipc.json`): a round trip through [`InProcessLoop`] crosses
//! every structure a daemon round trip crosses, so the difference
//! between the two is exactly what the process boundary costs.  It is
//! also a convenient harness for exercising the datapath structures
//! without spawning a daemon.

use std::sync::Arc;

use insane_memory::{PoolConfig, Segment, SlotGuard, SlotPool, SlotView};
use insane_queues::{ShmConsumer, ShmProducer};

use crate::client::{emit_on, recv_from};
use crate::server::{DatapathSession, ServerConfig, ServerState};
use crate::shm::SessionLayout;
use crate::IpcError;

/// A complete client↔runtime datapath inside one process: heap segment,
/// pool, TX/RX descriptor rings, and the daemon's own datapath thread
/// (`server::run_datapath`: bursts, pending holdover, spin-then-park
/// idle) serving this one session.  `emit` rings the same bell a client
/// process would; only the wake is a direct `unpark` instead of a line
/// on a control socket.
///
/// The API mirrors [`crate::IpcClient`]'s hot path — `lend → emit` /
/// `try_recv → drop` — so a benchmark can drive both with the same
/// code.
pub struct InProcessLoop {
    pool: SlotPool,
    tx: ShmProducer,
    rx: ShmConsumer,
    bell_line: Segment,
    daemon: Arc<ServerState>,
    datapath: Option<std::thread::JoinHandle<()>>,
}

impl core::fmt::Debug for InProcessLoop {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("InProcessLoop")
            .field("pool", &self.pool)
            .finish()
    }
}

impl InProcessLoop {
    /// Builds the loop: segment, pool, rings, datapath thread.
    ///
    /// # Errors
    ///
    /// [`IpcError::Memory`] if the pool configuration is rejected,
    /// [`IpcError::Protocol`] if the ring capacity is, [`IpcError::Io`]
    /// if the datapath thread cannot spawn.
    pub fn new(
        slot_size: usize,
        slot_count: usize,
        ring_capacity: usize,
    ) -> Result<Self, IpcError> {
        let config = PoolConfig::new(u16::MAX, slot_size, slot_count);
        let layout = SessionLayout::pack(&config, ring_capacity)?;
        let segment = Segment::heap(layout.seg_len);
        let pool = SlotPool::create_in_segment(config, layout.pool_segment(&segment)?)?;
        // SAFETY: `segment` is the layout's `seg_len` zeroed bytes, and
        // this is the only client side of the session.
        let (tx, rx) = unsafe { layout.client_ends(&segment) };
        // SAFETY: as above, for the only daemon side (it moves to the
        // datapath thread below).
        let daemon_ends = unsafe { layout.daemon_ends(&segment) };

        // No control plane: the socket path is never bound.
        let bell_line = layout.bell_segment(&segment)?;
        let (daemon, datapath) = ServerState::start(ServerConfig::new(""))?;
        daemon.adopt(DatapathSession::new(
            0,
            pool.clone(),
            daemon_ends,
            bell_line.clone(),
        ))?;
        Ok(Self {
            pool,
            tx,
            rx,
            bell_line,
            daemon,
            datapath: Some(datapath),
        })
    }

    /// The loop's slot pool (for stats reconciliation).
    pub fn pool(&self) -> &SlotPool {
        &self.pool
    }

    /// Lends a slot for a `len`-byte message.
    ///
    /// # Errors
    ///
    /// [`IpcError::Memory`] on exhaustion.
    pub fn lend(&self, len: usize) -> Result<SlotGuard, IpcError> {
        Ok(self.pool.acquire(len)?)
    }

    /// Emits a filled slot; the datapath routes it back to `try_recv`.
    /// On a full ring the guard is handed back untouched.
    pub fn emit(&self, guard: SlotGuard) -> Result<(), SlotGuard> {
        emit_on(&self.tx, &self.bell_line, 0, guard, || self.daemon.wake())
    }

    /// Polls for the next forwarded message.
    pub fn try_recv(&self) -> Option<SlotView> {
        recv_from(&self.rx, &self.pool).map(|(_, view)| view)
    }
}

impl Drop for InProcessLoop {
    fn drop(&mut self) {
        self.daemon.stop();
        if let Some(handle) = self.datapath.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_round_trips_in_order() {
        let lb = InProcessLoop::new(256, 32, 16).unwrap();
        for i in 0u64..500 {
            let mut guard = lb.lend(8).unwrap();
            guard.copy_from_slice(&i.to_le_bytes());
            assert!(lb.emit(guard).is_ok());
            let view = loop {
                if let Some(view) = lb.try_recv() {
                    break view;
                }
                std::thread::yield_now();
            };
            let mut seq = [0u8; 8];
            seq.copy_from_slice(&view[..8]);
            assert_eq!(u64::from_le_bytes(seq), i);
        }
        assert_eq!(lb.pool().stats().in_use, 0);
    }

    #[test]
    fn drop_joins_the_forwarder() {
        let lb = InProcessLoop::new(256, 8, 8).unwrap();
        let guard = lb.lend(4).unwrap();
        assert!(lb.emit(guard).is_ok());
        drop(lb); // must not hang even with a descriptor in flight
    }

    #[test]
    fn drop_wakes_a_parked_forwarder() {
        use crate::server::SPIN_WINDOW;
        let lb = InProcessLoop::new(256, 8, 8).unwrap();
        std::thread::sleep(3 * SPIN_WINDOW); // idle: parked by now
        let dropped = std::time::Instant::now();
        drop(lb);
        let took = dropped.elapsed();
        assert!(took.as_millis() < 50, "drop waited out the park: {took:?}");
    }

    #[test]
    fn a_parked_forwarder_is_woken_by_emit() {
        use crate::server::{BACKSTOP, SPIN_WINDOW};
        let lb = InProcessLoop::new(256, 8, 8).unwrap();
        for _ in 0..5 {
            std::thread::sleep(3 * SPIN_WINDOW);
            let emitted = std::time::Instant::now();
            assert!(lb.emit(lb.lend(4).unwrap()).is_ok());
            while lb.try_recv().is_none() {
                std::thread::yield_now();
            }
            assert!(emitted.elapsed() < BACKSTOP / 2, "the emit did not wake it");
        }
    }
}
