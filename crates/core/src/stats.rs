//! Instrumentation: per-message metadata and runtime counters.
//!
//! The per-message timestamps feed the latency-breakdown experiment of
//! Fig. 6 (send / network / receive / data-processing components); the
//! counters back the multi-sink saturation analysis of Fig. 8b.

use std::sync::atomic::{AtomicU64, Ordering};

/// Metadata travelling with every delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageMeta {
    /// Channel the message arrived on.
    pub channel: u32,
    /// Sender's per-stream sequence number.
    pub seq: u64,
    /// Runtime id of the sender.
    pub src_runtime: u32,
    /// App-level fragmentation: `(index, count, total_len)`.
    pub frag: (u16, u16, u32),
    /// Epoch timestamp of the producer's `emit` call.
    pub emit_ns: u64,
    /// Epoch timestamp at which the sending datapath put the message on
    /// the wire.
    pub wire_start_ns: u64,
    /// Time spent on the wire (serialization + propagation + switch).
    pub wire_ns: u64,
    /// Epoch timestamp at which the receiving runtime dispatched the
    /// message to the sink queue.
    pub dispatched_ns: u64,
}

impl MessageMeta {
    /// Whether the message is one fragment of a larger unit.
    pub fn is_fragment(&self) -> bool {
        self.frag.1 > 1
    }
}

/// One-way latency breakdown of a consumed message (Fig. 6 components,
/// extended with the fragment-reassembly wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Emit → wire: sender-side middleware + datapath TX work.
    pub send_ns: u64,
    /// Time on the wire.
    pub network_ns: u64,
    /// Wire end → sink queue: receiver-side datapath RX + dispatch work.
    pub receive_ns: u64,
    /// Sink queue → consume return: application-side processing delay.
    pub processing_ns: u64,
    /// Extra wait for sibling fragments of the same application-level
    /// message (zero for unfragmented messages).  Reassembled messages
    /// (e.g. Lunar streaming frames) carry the completing fragment's
    /// pipeline components plus this residue, so their total equals
    /// first-emit → reassembly-complete (see
    /// [`LatencyBreakdown::attribute_reassembly`]).
    pub reassembly_ns: u64,
}

impl LatencyBreakdown {
    /// Total one-way latency.
    pub fn total_ns(&self) -> u64 {
        self.send_ns + self.network_ns + self.receive_ns + self.processing_ns + self.reassembly_ns
    }

    /// Computes the breakdown from message metadata and the consume time.
    pub(crate) fn from_meta(meta: &MessageMeta, consumed_ns: u64) -> Self {
        let wire_end = meta.wire_start_ns + meta.wire_ns;
        Self {
            send_ns: meta.wire_start_ns.saturating_sub(meta.emit_ns),
            network_ns: meta.wire_ns,
            receive_ns: meta.dispatched_ns.saturating_sub(wire_end),
            processing_ns: consumed_ns.saturating_sub(meta.dispatched_ns),
            reassembly_ns: 0,
        }
    }

    /// Folds one fragment's breakdown into an aggregate: component-wise
    /// maximum, a conservative per-stage envelope over the fragments.
    ///
    /// Note the maxima of different fragments can overlap in wall-clock
    /// time (fragments are emitted serially), so the sum of the merged
    /// components may exceed the frame's elapsed window.  For a parent
    /// breakdown whose total must equal the measured frame latency,
    /// start from the *completing* fragment's breakdown and call
    /// [`LatencyBreakdown::attribute_reassembly`] instead.
    pub fn merge_fragment(&mut self, frag: &LatencyBreakdown) {
        self.send_ns = self.send_ns.max(frag.send_ns);
        self.network_ns = self.network_ns.max(frag.network_ns);
        self.receive_ns = self.receive_ns.max(frag.receive_ns);
        self.processing_ns = self.processing_ns.max(frag.processing_ns);
        self.reassembly_ns = self.reassembly_ns.max(frag.reassembly_ns);
    }

    /// Charges the residual reassembly wait so that [`total_ns`]
    /// equals `completed_ns - first_emit_ns` exactly: the existing
    /// components cover the completing fragment's own pipeline trip
    /// (which started no earlier than `first_emit_ns` and ended no
    /// later than `completed_ns`), and whatever wall-clock remains is
    /// time the parent message spent emitting and waiting for sibling
    /// fragments.
    ///
    /// [`total_ns`]: LatencyBreakdown::total_ns
    pub fn attribute_reassembly(&mut self, first_emit_ns: u64, completed_ns: u64) {
        let elapsed = completed_ns.saturating_sub(first_emit_ns);
        let pipeline = self
            .send_ns
            .saturating_add(self.network_ns)
            .saturating_add(self.receive_ns)
            .saturating_add(self.processing_ns);
        self.reassembly_ns = elapsed.saturating_sub(pipeline);
    }
}

/// Runtime-wide counters of one runtime.  What crosses a datapath
/// (`tx_messages`, `rx_messages`, `gate_deferrals`) is counted by the
/// polling shard it crosses, not here; [`StatsSnapshot`] carries the
/// sums.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    /// Local (same-host, shared-memory) deliveries.
    pub local_deliveries: AtomicU64,
    /// Deliveries dropped because a sink queue was full.
    pub sink_drops: AtomicU64,
    /// Control-plane messages processed.
    pub control_messages: AtomicU64,
    /// Streams created with a QoS fallback warning (§5.2).
    pub fallback_streams: AtomicU64,
    /// Polling iterations that found no work.
    pub idle_polls: AtomicU64,
    /// Inbound frames rejected by the packet engine (unparseable headers
    /// or a failed payload checksum).
    pub rx_rejected: AtomicU64,
    /// Control messages retransmitted after missing their ack deadline.
    pub control_retransmits: AtomicU64,
    /// Control messages abandoned after exhausting every retransmit.
    pub control_timeouts: AtomicU64,
    /// Control sends that failed outright at the datapath.
    pub control_send_failures: AtomicU64,
    /// Heartbeats sent to peers.
    pub heartbeats_sent: AtomicU64,
    /// Peers expired after missing too many heartbeats.
    pub peer_expiries: AtomicU64,
    /// Peers that came back after an expiry.
    pub peers_recovered: AtomicU64,
    /// Datapath-down transitions that triggered a failover to kernel UDP.
    pub failover_events: AtomicU64,
    /// Datapath recoveries that migrated traffic back off kernel UDP.
    pub failback_events: AtomicU64,
    /// Messages rerouted over kernel UDP because their datapath was down.
    pub failover_messages: AtomicU64,
}

/// Plain-data snapshot of a runtime's counters: [`RuntimeStats`] plus
/// the per-shard datapath counts, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Messages handed to a datapath for remote delivery.
    pub tx_messages: u64,
    /// Messages received from a datapath.
    pub rx_messages: u64,
    /// Local (same-host) deliveries.
    pub local_deliveries: u64,
    /// Deliveries dropped at full sink queues.
    pub sink_drops: u64,
    /// Control-plane messages processed.
    pub control_messages: u64,
    /// Streams created with a fallback warning.
    pub fallback_streams: u64,
    /// Idle polling iterations.
    pub idle_polls: u64,
    /// Inbound frames rejected by the packet engine.
    pub rx_rejected: u64,
    /// Control messages retransmitted.
    pub control_retransmits: u64,
    /// Control messages abandoned after exhausting retransmits.
    pub control_timeouts: u64,
    /// Control sends that failed at the datapath.
    pub control_send_failures: u64,
    /// Heartbeats sent.
    pub heartbeats_sent: u64,
    /// Peers expired after missed heartbeats.
    pub peer_expiries: u64,
    /// Peers recovered after an expiry.
    pub peers_recovered: u64,
    /// Failovers to kernel UDP.
    pub failover_events: u64,
    /// Migrations back off kernel UDP.
    pub failback_events: u64,
    /// Messages rerouted during failover.
    pub failover_messages: u64,
    /// Scheduler passes in which a queued frame was held back by a
    /// closed gate, the guard band, or a too-short remaining window
    /// (time-aware shaping only; summed across shards and classes).
    pub gate_deferrals: u64,
}

impl StatsSnapshot {
    /// JSON form, embedded in the introspection snapshot.
    pub(crate) fn to_json(self) -> insane_telemetry::Value {
        use insane_telemetry::Value;
        Value::object([
            ("tx_messages", Value::from(self.tx_messages)),
            ("rx_messages", Value::from(self.rx_messages)),
            ("local_deliveries", Value::from(self.local_deliveries)),
            ("sink_drops", Value::from(self.sink_drops)),
            ("control_messages", Value::from(self.control_messages)),
            ("fallback_streams", Value::from(self.fallback_streams)),
            ("idle_polls", Value::from(self.idle_polls)),
            ("rx_rejected", Value::from(self.rx_rejected)),
            ("control_retransmits", Value::from(self.control_retransmits)),
            ("control_timeouts", Value::from(self.control_timeouts)),
            (
                "control_send_failures",
                Value::from(self.control_send_failures),
            ),
            ("heartbeats_sent", Value::from(self.heartbeats_sent)),
            ("peer_expiries", Value::from(self.peer_expiries)),
            ("peers_recovered", Value::from(self.peers_recovered)),
            ("failover_events", Value::from(self.failover_events)),
            ("failback_events", Value::from(self.failback_events)),
            ("failover_messages", Value::from(self.failover_messages)),
            ("gate_deferrals", Value::from(self.gate_deferrals)),
        ])
    }
}

impl RuntimeStats {
    /// The runtime-wide part of a snapshot; the three datapath counts
    /// are left at zero for the owner of the shards to add
    /// (`RuntimeInner::stats_snapshot`).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            tx_messages: 0,
            rx_messages: 0,
            gate_deferrals: 0,
            local_deliveries: self.local_deliveries.load(Ordering::Relaxed),
            sink_drops: self.sink_drops.load(Ordering::Relaxed),
            control_messages: self.control_messages.load(Ordering::Relaxed),
            fallback_streams: self.fallback_streams.load(Ordering::Relaxed),
            idle_polls: self.idle_polls.load(Ordering::Relaxed),
            rx_rejected: self.rx_rejected.load(Ordering::Relaxed),
            control_retransmits: self.control_retransmits.load(Ordering::Relaxed),
            control_timeouts: self.control_timeouts.load(Ordering::Relaxed),
            control_send_failures: self.control_send_failures.load(Ordering::Relaxed),
            heartbeats_sent: self.heartbeats_sent.load(Ordering::Relaxed),
            peer_expiries: self.peer_expiries.load(Ordering::Relaxed),
            peers_recovered: self.peers_recovered.load(Ordering::Relaxed),
            failover_events: self.failover_events.load(Ordering::Relaxed),
            failback_events: self.failback_events.load(Ordering::Relaxed),
            failover_messages: self.failover_messages.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_components_sum_to_total() {
        let meta = MessageMeta {
            channel: 1,
            seq: 2,
            src_runtime: 3,
            frag: (0, 1, 10),
            emit_ns: 1_000,
            wire_start_ns: 1_400,
            wire_ns: 2_000,
            dispatched_ns: 3_900,
            // wire ends at 3_400; dispatch 500 later
        };
        let b = LatencyBreakdown::from_meta(&meta, 4_100);
        assert_eq!(b.send_ns, 400);
        assert_eq!(b.network_ns, 2_000);
        assert_eq!(b.receive_ns, 500);
        assert_eq!(b.processing_ns, 200);
        assert_eq!(b.total_ns(), 3_100);
        assert_eq!(b.total_ns(), 4_100 - meta.emit_ns);
    }

    #[test]
    fn breakdown_saturates_on_clock_skew() {
        let meta = MessageMeta {
            channel: 0,
            seq: 0,
            src_runtime: 0,
            frag: (0, 1, 0),
            emit_ns: 5_000,
            wire_start_ns: 4_000, // skew: wire stamp before emit
            wire_ns: 100,
            dispatched_ns: 3_000,
        };
        let b = LatencyBreakdown::from_meta(&meta, 2_000);
        assert_eq!(b.send_ns, 0);
        assert_eq!(b.receive_ns, 0);
        assert_eq!(b.processing_ns, 0);
    }

    #[test]
    fn fragment_flag() {
        let mut meta = MessageMeta {
            channel: 0,
            seq: 0,
            src_runtime: 0,
            frag: (0, 1, 10),
            emit_ns: 0,
            wire_start_ns: 0,
            wire_ns: 0,
            dispatched_ns: 0,
        };
        assert!(!meta.is_fragment());
        meta.frag = (2, 8, 100_000);
        assert!(meta.is_fragment());
    }

    #[test]
    fn fragment_merge_takes_component_maxima() {
        let mut parent = LatencyBreakdown::default();
        parent.merge_fragment(&LatencyBreakdown {
            send_ns: 100,
            network_ns: 2_000,
            receive_ns: 50,
            processing_ns: 10,
            reassembly_ns: 0,
        });
        parent.merge_fragment(&LatencyBreakdown {
            send_ns: 400,
            network_ns: 1_500,
            receive_ns: 80,
            processing_ns: 5,
            reassembly_ns: 0,
        });
        assert_eq!(parent.send_ns, 400);
        assert_eq!(parent.network_ns, 2_000);
        assert_eq!(parent.receive_ns, 80);
        assert_eq!(parent.processing_ns, 10);
    }

    #[test]
    fn reassembly_residue_closes_the_total() {
        let mut parent = LatencyBreakdown {
            send_ns: 400,
            network_ns: 2_000,
            receive_ns: 80,
            processing_ns: 10,
            reassembly_ns: 0,
        };
        // First fragment emitted at t=1_000; the set completed at
        // t=4_500 → 3_500 elapsed, of which 2_490 is pipeline maxima.
        parent.attribute_reassembly(1_000, 4_500);
        assert_eq!(parent.reassembly_ns, 3_500 - 2_490);
        assert_eq!(parent.total_ns(), 3_500);
    }

    #[test]
    fn reassembly_residue_saturates_on_skew() {
        let mut parent = LatencyBreakdown {
            send_ns: 5_000,
            ..Default::default()
        };
        parent.attribute_reassembly(1_000, 2_000);
        assert_eq!(parent.reassembly_ns, 0);
    }

    #[test]
    fn stats_snapshot_reflects_counters() {
        let stats = RuntimeStats::default();
        stats.local_deliveries.store(7, Ordering::Relaxed);
        stats.sink_drops.store(2, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.local_deliveries, 7);
        assert_eq!(snap.sink_drops, 2);
        assert_eq!(snap.idle_polls, 0);
        // Counted per shard and summed by the runtime, not kept here.
        assert_eq!(
            (snap.tx_messages, snap.rx_messages, snap.gate_deferrals),
            (0, 0, 0)
        );
    }
}
