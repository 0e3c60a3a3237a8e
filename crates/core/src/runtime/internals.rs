//! Shared state between the client library and the runtime.
//!
//! These are the in-process equivalents of the paper's shared-memory
//! structures: token queues (Fig. 4), per-stream bookkeeping, and the
//! per-sink delivery queues.  No process boundary is crossed here, so the
//! queues carry the slot's owning handle, not its id: a request or a
//! delivery dropped anywhere — refused, unrouted, left in a queue that
//! dies — gives its slot back (DESIGN.md §6.9).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use insane_fabric::Payload;
use insane_memory::SlotGuard;
use insane_queues::{Bell, MpmcQueue};
use insane_tsn::TrafficClass;
use parking_lot::{Condvar, Mutex};

use crate::qos::{MappedPath, QosPolicy};
use crate::stats::MessageMeta;
use crate::EmitOutcome;

/// One emitted message travelling from the library to the runtime
/// (the TX token of Fig. 4).  It owns its slot: dropping the request
/// releases it.
#[derive(Debug)]
pub(crate) struct TxRequest {
    /// Slot containing `[headroom][payload]`; length covers both.
    pub guard: SlotGuard,
    /// Application payload length (slot length minus headroom).
    pub payload_len: usize,
    /// Channel the message travels on.
    pub channel: u32,
    /// Tenant of the emitting session (cross-tenant fair queueing).
    pub tenant: insane_memory::TenantId,
    /// Scheduler class derived from the stream's time-sensitivity QoS.
    pub class: TrafficClass,
    /// Per-stream sequence number.
    pub seq: u64,
    /// Epoch timestamp of the emit call (latency breakdown).
    pub emit_ns: u64,
    /// App-level fragmentation metadata
    /// `(index, count, total_len, message_id)` — `message_id` becomes the
    /// wire sequence for every fragment of one message so the consumer
    /// can reassemble.
    pub frag: Option<(u16, u16, u32, u64)>,
    /// Outcome board of the emitting source.
    pub outcome: Arc<OutcomeBoard>,
}

/// One message queued for a sink.  [`Payload`] is not `Clone`: sinks
/// share the one `Delivery` that wraps it, and a pooled slot's state word
/// counts the rest.
#[derive(Debug)]
pub(crate) struct Delivery {
    /// The bytes as the device delivered them: a zero-copy slot view
    /// (possibly into a pool on the "remote" host — the fabric models DMA
    /// delivery), or owned bytes from the kernel datapath, which copies
    /// anyway.
    pub store: Payload,
    /// Payload range within `store.as_slice()`.
    pub offset: usize,
    pub len: usize,
    pub meta: MessageMeta,
}

/// Per-source emit-outcome accounting (`check_emit_outcome` support).
#[derive(Debug, Default)]
pub(crate) struct OutcomeBoard {
    /// Sequence numbers emitted so far (next seq to assign).
    pub emitted: AtomicU64,
    /// All sequences strictly below this value were handed to a datapath
    /// or delivered locally.
    pub completed_below: AtomicU64,
    /// Failed sequences with reasons (rare path).
    pub failures: Mutex<Vec<(u64, &'static str)>>,
}

impl OutcomeBoard {
    pub(crate) fn outcome_of(&self, seq: u64) -> EmitOutcome {
        if self
            .failures
            .lock()
            .iter()
            .any(|(failed_seq, _)| *failed_seq == seq)
        {
            return EmitOutcome::Failed;
        }
        if seq < self.completed_below.load(Ordering::Acquire) {
            EmitOutcome::Completed
        } else {
            EmitOutcome::Pending
        }
    }

    pub(crate) fn complete_through(&self, seq: u64) {
        // Monotonic max of seq+1.
        self.completed_below.fetch_max(seq + 1, Ordering::AcqRel);
    }

    // insane-lint: allow-fn(hot-path-block) -- failure path, not steady state; the lock is uncontended outside error storms
    // insane-lint: allow-fn(hot-path-alloc) -- failure path; the record list is capped at 1024 entries
    pub(crate) fn fail(&self, seq: u64, reason: &'static str) {
        let mut failures = self.failures.lock();
        if failures.len() < 1024 {
            failures.push((seq, reason));
        }
        self.complete_through(seq);
    }
}

/// Shared state of one stream.
#[derive(Debug)]
pub(crate) struct StreamShared {
    /// Stream identifier: diagnostics, and the key of the stable
    /// stream→shard assignment.
    pub id: u64,
    pub qos: QosPolicy,
    pub mapped: MappedPath,
    /// Tenant of the session that opened the stream: the accounting
    /// identity of every buffer it lends and message it emits.
    pub tenant: insane_memory::TenantId,
    /// Library → runtime token queue.
    pub tx: MpmcQueue<TxRequest>,
    pub seq: AtomicU64,
    pub closed: AtomicBool,
}

impl StreamShared {
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }
}

/// Callback type for callback sinks (receives each message as it lands).
pub(crate) type SinkCallback = Box<dyn Fn(crate::IncomingMessage) + Send + Sync>;

/// Shared state of one sink.
pub(crate) struct SinkShared {
    pub id: u64,
    pub channel: u32,
    /// Runtime → sink delivery queue (the RX token queue of Fig. 4).
    /// Deliveries are shared: fanning one message out to many sinks
    /// clones a pointer, not the descriptor.
    pub queue: MpmcQueue<Arc<Delivery>>,
    /// The [`Bell`] word: 1 while a consumer is parked (or about to be)
    /// in [`SinkShared::park`].  Only a delivery that finds it armed
    /// touches the two fields below.
    bell: AtomicU32,
    /// Consumers inside [`SinkShared::park`]; the lock is the one `wake`
    /// waits on.
    parked: Mutex<u32>,
    wake: Condvar,
    pub callback: Option<SinkCallback>,
    pub closed: AtomicBool,
    pub received: AtomicU64,
    pub dropped: AtomicU64,
    /// Deliveries that found the bell armed and paid for a wake.
    pub wakes: AtomicU64,
    /// Per-stream telemetry recorder handle (inert when disabled).
    pub telemetry: crate::telemetry::SinkTel,
}

impl std::fmt::Debug for SinkShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkShared")
            .field("id", &self.id)
            .field("channel", &self.channel)
            .field("queued", &self.queue.len())
            .field("received", &self.received.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .field("callback", &self.callback.is_some())
            .finish()
    }
}

impl SinkShared {
    pub(crate) fn new(
        id: u64,
        channel: u32,
        queue_depth: usize,
        callback: Option<SinkCallback>,
        telemetry: crate::telemetry::SinkTel,
    ) -> Self {
        Self {
            id,
            channel,
            queue: MpmcQueue::new(queue_depth),
            bell: AtomicU32::new(0),
            parked: Mutex::new(0),
            wake: Condvar::new(),
            callback,
            closed: AtomicBool::new(false),
            received: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            telemetry,
        }
    }

    /// Delivers one message, invoking the callback inline or queueing.
    /// Returns false when the message was dropped (queue full / closed).
    /// Makes no syscall unless a consumer is parked (DESIGN.md §6.10).
    // insane-lint: allow-fn(hot-path-alloc) -- the sink queue is a fixed-capacity MPMC ring; push never allocates
    pub(crate) fn deliver(&self, delivery: Arc<Delivery>) -> bool {
        if self.closed.load(Ordering::Acquire) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if let Some(cb) = &self.callback {
            self.received.fetch_add(1, Ordering::Relaxed);
            cb(crate::IncomingMessage::new(delivery, &self.telemetry));
            return true;
        }
        match self.queue.push(delivery) {
            Ok(()) => {
                self.received.fetch_add(1, Ordering::Relaxed);
                if Bell::new(&self.bell).ring_if_armed() {
                    self.wakes.fetch_add(1, Ordering::Relaxed);
                    self.wake_parked();
                }
                true
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// The waker's half of the bell protocol.  A Condvar wake is not
    /// sticky, so it must not land between a parker's re-check and its
    /// wait: taking the lock — which the parker holds from before it arms
    /// until the wait releases it — puts the wake after the wait began.
    /// `notify_all`, because the bell is test-and-clear and the queue is
    /// MPMC: every consumer parked behind this one arm wakes and
    /// re-checks, since no later delivery would ring for it.
    // insane-lint: cold-path -- runs only when a consumer armed the bell (it chose to sleep), or at close
    #[cold]
    fn wake_parked(&self) {
        drop(self.parked.lock());
        self.wake.notify_all();
    }

    /// The consumer's half: arm, re-check, sleep, in that order and under
    /// the lock (see [`SinkShared::wake_parked`]).  Returns after a wake,
    /// after 1 ms at the latest — the backstop for what rings no bell (the
    /// runtime stopping) — or at once if the re-check finds something; the
    /// caller re-polls in every case.  The last consumer out disarms: one
    /// that disarmed while another still slept would erase its arm.
    // insane-lint: cold-path -- the consumer found its queue empty and chose to sleep
    pub(crate) fn park(&self) {
        let mut parked = self.parked.lock();
        let bell = Bell::new(&self.bell);
        *parked += 1;
        bell.arm();
        if self.queue.is_empty() && !self.closed.load(Ordering::Acquire) {
            self.wake.wait_for(&mut parked, Duration::from_millis(1));
        }
        *parked -= 1;
        if *parked == 0 {
            bell.disarm();
        }
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.wake_parked();
    }
}

/// Registry of all streams attached to a runtime, grouped for the polling
/// threads.
///
/// The stream list is read-mostly (registration and pruning are
/// session-lifecycle events), so it is published through a
/// [`SnapshotCell`]: writers clone-and-publish, the polling hot path
/// reads an immutable snapshot with zero lock acquisitions.  The version
/// counter lets polling threads keep a per-datapath filtered snapshot
/// and only rebuild it when a stream was added or removed.
#[derive(Debug)]
pub(crate) struct StreamRegistry {
    streams: insane_queues::SnapshotCell<Vec<Arc<StreamShared>>>,
    /// Serializes clone-mutate-publish writers.
    write: Mutex<()>,
    version: AtomicU64,
}

impl Default for StreamRegistry {
    fn default() -> Self {
        Self {
            streams: insane_queues::SnapshotCell::new(Vec::new()),
            write: Mutex::new(()),
            version: AtomicU64::new(0),
        }
    }
}

impl StreamRegistry {
    pub(crate) fn register(&self, stream: Arc<StreamShared>) {
        let guard = self.write.lock();
        let mut next = (*self.streams.load()).clone();
        next.push(stream);
        self.streams.publish(Arc::new(next));
        drop(guard);
        self.version.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn prune_closed(&self) {
        let guard = self.write.lock();
        let mut next = (*self.streams.load()).clone();
        next.retain(|s| !s.closed.load(Ordering::Acquire));
        self.streams.publish(Arc::new(next));
        drop(guard);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Current registry version (bumped on register/prune).
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Rebuilds `out` with the open streams mapped to `tech` that shard
    /// `shard` (of `shards`) owns.  Ownership comes from the stable
    /// stream-id hash, so every stream lands in exactly one shard's
    /// snapshot (see [`crate::runtime::shard::shard_of_stream`]).
    /// Called only when the version counter says the registry changed;
    /// reads the published snapshot without taking any lock.
    pub(crate) fn snapshot_for(
        &self,
        tech: insane_fabric::Technology,
        shard: usize,
        shards: usize,
        out: &mut Vec<Arc<StreamShared>>,
    ) {
        out.clear();
        out.extend(
            self.streams
                .load()
                .iter()
                .filter(|s| {
                    s.mapped.technology == tech
                        && !s.closed.load(Ordering::Acquire)
                        && crate::runtime::shard::shard_of_stream(s.id, shards) == shard
                })
                .cloned(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmitOutcome;

    #[test]
    fn outcome_board_lifecycle() {
        let board = OutcomeBoard::default();
        assert_eq!(board.outcome_of(0), EmitOutcome::Pending);
        board.complete_through(0);
        assert_eq!(board.outcome_of(0), EmitOutcome::Completed);
        assert_eq!(board.outcome_of(1), EmitOutcome::Pending);
        // Completion is monotonic: completing 5 covers 1..=5.
        board.complete_through(5);
        for seq in 0..=5 {
            assert_eq!(board.outcome_of(seq), EmitOutcome::Completed);
        }
        // A lower completion cannot regress the high-water mark.
        board.complete_through(2);
        assert_eq!(board.outcome_of(5), EmitOutcome::Completed);
    }

    #[test]
    fn outcome_board_failures_stick() {
        let board = OutcomeBoard::default();
        board.fail(3, "framing failure");
        assert_eq!(board.outcome_of(3), EmitOutcome::Failed);
        // A failure also advances completion for ordering purposes, but
        // the failed sequence keeps reporting Failed.
        assert_eq!(board.outcome_of(2), EmitOutcome::Completed);
        board.complete_through(10);
        assert_eq!(board.outcome_of(3), EmitOutcome::Failed);
    }

    #[test]
    fn stream_sequences_are_dense() {
        let stream = StreamShared {
            id: 1,
            qos: crate::QosPolicy::default(),
            mapped: crate::qos::MappedPath {
                technology: insane_fabric::Technology::KernelUdp,
                fallback: false,
            },
            tenant: insane_memory::DEFAULT_TENANT,
            tx: MpmcQueue::new(4),
            seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        };
        assert_eq!(stream.next_seq(), 0);
        assert_eq!(stream.next_seq(), 1);
        assert_eq!(stream.next_seq(), 2);
    }

    #[test]
    fn closed_sink_drops_and_counts() {
        let sink = SinkShared::new(1, 9, 4, None, crate::telemetry::SinkTel::none());
        sink.close();
        let delivery = Arc::new(Delivery {
            store: Payload::Inline(Box::new([1u8, 2])),
            offset: 0,
            len: 2,
            meta: crate::stats::MessageMeta {
                channel: 9,
                seq: 0,
                src_runtime: 0,
                frag: (0, 1, 2),
                emit_ns: 0,
                wire_start_ns: 0,
                wire_ns: 0,
                dispatched_ns: 0,
            },
        });
        assert!(!sink.deliver(delivery));
        assert_eq!(sink.dropped.load(Ordering::Relaxed), 1);
        assert_eq!(sink.received.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn registry_versions_track_mutations() {
        let registry = StreamRegistry::default();
        let v0 = registry.version();
        registry.register(Arc::new(StreamShared {
            id: 1,
            qos: crate::QosPolicy::default(),
            mapped: crate::qos::MappedPath {
                technology: insane_fabric::Technology::KernelUdp,
                fallback: false,
            },
            tenant: insane_memory::DEFAULT_TENANT,
            tx: MpmcQueue::new(4),
            seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }));
        let v1 = registry.version();
        assert_ne!(v0, v1);
        let mut snapshot = Vec::new();
        registry.snapshot_for(insane_fabric::Technology::KernelUdp, 0, 1, &mut snapshot);
        assert_eq!(snapshot.len(), 1);
        registry.snapshot_for(insane_fabric::Technology::Dpdk, 0, 1, &mut snapshot);
        assert_eq!(snapshot.len(), 0, "snapshot filters by technology");
        // With two shards, exactly one of them owns the stream.
        let mut owned = 0;
        for shard in 0..2 {
            registry.snapshot_for(
                insane_fabric::Technology::KernelUdp,
                shard,
                2,
                &mut snapshot,
            );
            owned += snapshot.len();
        }
        assert_eq!(owned, 1, "each stream belongs to exactly one shard");
        registry.prune_closed();
        assert_ne!(registry.version(), v1);
    }
}
