//! Channel dispatching and the peer/subscription tables.
//!
//! The dispatcher answers the two questions on every message path:
//! *which co-located sinks want this channel* (local shared-memory
//! forwarding, §5.1) and *which remote runtimes subscribed to it* (so
//! sources only transmit to interested peers, the way the paper's
//! LunarMoM "forwards the messages to the reachable remote INSANE
//! runtimes", §7.1).
//!
//! The tables are read on every TX and RX dispatch by every polling
//! shard, and mutated only by the control plane.  They therefore live in
//! an immutable [`RoutingTable`] published through a
//! [`SnapshotCell`]: writers clone the current table, mutate the clone,
//! and publish it with one atomic pointer swap; polling shards refresh a
//! per-shard cached `Arc<RoutingTable>` once per poll iteration (a
//! single atomic load when nothing changed) and dispatch every message
//! of the burst against that snapshot with **zero** lock acquisitions
//! (DESIGN.md §12).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use insane_fabric::HostId;
use insane_queues::SnapshotCell;
use parking_lot::Mutex;

use crate::runtime::internals::SinkShared;

/// Control-plane operation codes (first payload byte of a control
/// message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ControlOp {
    /// Peer announcement: "I exist at host H"; triggers a reply.
    Hello = 1,
    /// Reply to Hello (no further reply).
    HelloAck = 2,
    /// Subscribe to the channel in the header.
    Subscribe = 3,
    /// Unsubscribe from the channel in the header.
    Unsubscribe = 4,
    /// Acknowledges a Subscribe for the channel in the header, so the
    /// subscriber can stop retransmitting it.
    SubscribeAck = 5,
    /// Periodic liveness beacon; receiving any control message (this one
    /// included) resets the sender's miss counter.
    Heartbeat = 6,
}

impl ControlOp {
    pub(crate) fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(ControlOp::Hello),
            2 => Some(ControlOp::HelloAck),
            3 => Some(ControlOp::Subscribe),
            4 => Some(ControlOp::Unsubscribe),
            5 => Some(ControlOp::SubscribeAck),
            6 => Some(ControlOp::Heartbeat),
            _ => None,
        }
    }

    /// Whether the receiver answers this op with an ack (and the sender
    /// therefore retransmits it until acked).
    pub(crate) fn needs_ack(self) -> bool {
        matches!(self, ControlOp::Hello | ControlOp::Subscribe)
    }
}

/// Bitmask of the technologies a runtime has attached (bit = the
/// technology's position in [`insane_fabric::Technology::ALL`]).
pub(crate) type TechMask = u8;

/// Bit position of a technology within a [`TechMask`] (Table 1 order,
/// matching [`insane_fabric::Technology::ALL`]).
fn tech_bit(tech: insane_fabric::Technology) -> u8 {
    use insane_fabric::Technology;
    match tech {
        Technology::KernelUdp => 0,
        Technology::Xdp => 1,
        Technology::Dpdk => 2,
        Technology::Rdma => 3,
    }
}

/// Computes the capability mask for a set of attached technologies.
pub(crate) fn tech_mask(techs: &[insane_fabric::Technology]) -> TechMask {
    let mut mask = 0u8;
    for &tech in techs {
        mask |= 1 << tech_bit(tech);
    }
    mask
}

/// Whether `mask` advertises `tech`.
pub(crate) fn mask_supports(mask: TechMask, tech: insane_fabric::Technology) -> bool {
    mask & (1 << tech_bit(tech)) != 0
}

/// Serialized control payload: `[op, host_index:u32le, tech_mask]`.
pub(crate) fn encode_control(op: ControlOp, host: HostId, mask: TechMask) -> [u8; 6] {
    let mut buf = [0u8; 6];
    buf[0] = op as u8;
    buf[1..5].copy_from_slice(&host.index().to_le_bytes());
    buf[5] = mask;
    buf
}

/// Decodes a control payload.
pub(crate) fn decode_control(payload: &[u8]) -> Option<(ControlOp, HostId, TechMask)> {
    if payload.len() < 6 {
        return None;
    }
    let op = ControlOp::from_byte(payload[0])?;
    let host = u32::from_le_bytes(payload[1..5].try_into().ok()?);
    Some((op, HostId::from_index(host), payload[5]))
}

/// One immutable generation of the routing state.
///
/// Published whole through the dispatcher's [`SnapshotCell`]; never
/// mutated in place after publication, so any `Arc<RoutingTable>` a
/// polling shard holds is internally consistent by construction — a
/// reader can never observe a peer without its subscriptions' view or
/// vice versa ("no half-applied table").
#[derive(Debug, Default, Clone)]
pub(crate) struct RoutingTable {
    /// channel → co-located sinks.
    local: HashMap<u32, Vec<Arc<SinkShared>>>,
    /// channel → subscribed remote runtime ids.
    remote_subs: HashMap<u32, HashSet<u32>>,
    /// remote runtime id → (host, attached-technology mask).
    peers: HashMap<u32, (HostId, TechMask)>,
    /// channel → resolved remote targets (the `remote_subs` ⋈ `peers`
    /// join, precomputed at publish time so the per-message read is one
    /// hash lookup instead of a join).
    remote: HashMap<u32, Vec<(HostId, TechMask)>>,
}

impl RoutingTable {
    /// Fills `out` with the co-located sinks for `channel` (reuses the
    /// caller's buffer: the polling hot path must not allocate).
    pub(crate) fn local_sinks_into(&self, channel: u32, out: &mut Vec<Arc<SinkShared>>) {
        out.clear();
        if let Some(sinks) = self.local.get(&channel) {
            out.extend(sinks.iter().cloned());
        }
    }

    /// Fills `out` with the hosts (and capability masks) of remote
    /// runtimes subscribed to `channel` (allocation-free hot path).
    pub(crate) fn remote_targets_into(&self, channel: u32, out: &mut Vec<(HostId, TechMask)>) {
        out.clear();
        if let Some(targets) = self.remote.get(&channel) {
            out.extend(targets.iter().copied());
        }
    }

    /// Recomputes the `remote` join after `remote_subs`/`peers` changed.
    /// Publish-time cost, paid once per control-plane mutation.
    fn rebuild_remote(&mut self) {
        self.remote.clear();
        for (channel, runtimes) in &self.remote_subs {
            let targets: Vec<(HostId, TechMask)> = runtimes
                .iter()
                .filter_map(|id| self.peers.get(id).copied())
                .collect();
            if !targets.is_empty() {
                self.remote.insert(*channel, targets);
            }
        }
    }
}

/// The dispatcher: local sink registry + remote subscription table +
/// peer table, published as immutable [`RoutingTable`] snapshots.
#[derive(Debug)]
pub(crate) struct Dispatcher {
    /// The current routing generation (see [`RoutingTable`]).
    table: SnapshotCell<RoutingTable>,
    /// Serializes writers: each mutation clones the current table,
    /// edits the clone, and publishes it; the mutex makes that
    /// read-modify-write sequence atomic across control-plane threads.
    write: Mutex<()>,
}

impl Default for Dispatcher {
    fn default() -> Self {
        Self {
            table: SnapshotCell::new(RoutingTable::default()),
            write: Mutex::new(()),
        }
    }
}

impl Dispatcher {
    /// The current routing snapshot (pinned; two atomic RMWs).
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Arc<RoutingTable> {
        self.table.load()
    }

    /// Refreshes a cached snapshot; returns true when it changed.  The
    /// unchanged case — every poll iteration without a control-plane
    /// mutation — is a single atomic load.
    pub(crate) fn refresh(&self, cached: &mut Arc<RoutingTable>) -> bool {
        self.table.refresh(cached)
    }

    /// Clone-mutate-publish: runs `f` on a private copy of the current
    /// table, then publishes the copy as the new generation.  Writers
    /// serialize on `self.write`; readers never block.
    fn mutate<R>(&self, f: impl FnOnce(&mut RoutingTable) -> R) -> R {
        let _guard = self.write.lock();
        let mut next = (*self.table.load()).clone();
        let result = f(&mut next);
        self.table.publish(Arc::new(next));
        result
    }

    /// Registers a sink; returns true when it is the first local sink on
    /// its channel (the caller then announces the subscription).
    pub(crate) fn add_sink(&self, sink: Arc<SinkShared>) -> bool {
        self.mutate(|t| {
            let sinks = t.local.entry(sink.channel).or_default();
            let first = sinks.is_empty();
            sinks.push(sink);
            first
        })
    }

    /// Unregisters a sink; returns true when its channel now has no local
    /// sinks (the caller then withdraws the subscription).
    pub(crate) fn remove_sink(&self, sink_id: u64, channel: u32) -> bool {
        self.mutate(|t| {
            let mut emptied = false;
            if let Some(sinks) = t.local.get_mut(&channel) {
                sinks.retain(|s| s.id != sink_id);
                if sinks.is_empty() {
                    t.local.remove(&channel);
                    emptied = true;
                }
            }
            emptied
        })
    }

    /// All channels with local sinks (for subscription re-announcement).
    pub(crate) fn local_channels(&self) -> Vec<u32> {
        self.table.load().local.keys().copied().collect()
    }

    /// Records a peer; returns true if it was unknown.
    pub(crate) fn add_peer(&self, runtime_id: u32, host: HostId, mask: TechMask) -> bool {
        self.mutate(|t| {
            let new = t.peers.insert(runtime_id, (host, mask)).is_none();
            t.rebuild_remote();
            new
        })
    }

    /// Forgets a peer and every subscription it held; returns its host if
    /// it was known.  Called when the failure detector expires the peer.
    pub(crate) fn remove_peer(&self, runtime_id: u32) -> Option<HostId> {
        self.mutate(|t| {
            let removed = t.peers.remove(&runtime_id);
            if removed.is_some() {
                t.remote_subs.retain(|_, set| {
                    set.remove(&runtime_id);
                    !set.is_empty()
                });
                t.rebuild_remote();
            }
            removed.map(|(host, _)| host)
        })
    }

    /// Known peers (runtime id, host).
    pub(crate) fn peers(&self) -> Vec<(u32, HostId)> {
        self.table
            .load()
            .peers
            .iter()
            .map(|(id, (h, _))| (*id, *h))
            .collect()
    }

    /// Records a remote subscription.
    pub(crate) fn subscribe_remote(&self, channel: u32, runtime_id: u32) {
        self.mutate(|t| {
            t.remote_subs.entry(channel).or_default().insert(runtime_id);
            t.rebuild_remote();
        });
    }

    /// Withdraws a remote subscription.
    pub(crate) fn unsubscribe_remote(&self, channel: u32, runtime_id: u32) {
        self.mutate(|t| {
            if let Some(set) = t.remote_subs.get_mut(&channel) {
                set.remove(&runtime_id);
                if set.is_empty() {
                    t.remote_subs.remove(&channel);
                }
            }
            t.rebuild_remote();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Remote targets of `channel`, read the way the engine reads them.
    fn remote_targets(d: &Dispatcher, channel: u32) -> Vec<(HostId, TechMask)> {
        let mut out = Vec::new();
        d.snapshot().remote_targets_into(channel, &mut out);
        out
    }

    /// Number of co-located sinks on `channel`, likewise.
    fn local_sinks(d: &Dispatcher, channel: u32) -> usize {
        let mut out = Vec::new();
        d.snapshot().local_sinks_into(channel, &mut out);
        out.len()
    }

    fn sink(id: u64, channel: u32) -> Arc<SinkShared> {
        Arc::new(SinkShared::new(
            id,
            channel,
            4,
            None,
            crate::telemetry::SinkTel::none(),
        ))
    }

    #[test]
    fn control_encoding_roundtrip() {
        for op in [
            ControlOp::Hello,
            ControlOp::HelloAck,
            ControlOp::Subscribe,
            ControlOp::Unsubscribe,
            ControlOp::SubscribeAck,
            ControlOp::Heartbeat,
        ] {
            let host = HostId::from_index(42);
            let bytes = encode_control(op, host, 0b0101);
            assert_eq!(decode_control(&bytes), Some((op, host, 0b0101)));
        }
        assert_eq!(decode_control(&[9, 0, 0, 0, 0, 0]), None);
        assert_eq!(decode_control(&[1, 0]), None);
    }

    #[test]
    fn only_announcements_need_acks() {
        assert!(ControlOp::Hello.needs_ack());
        assert!(ControlOp::Subscribe.needs_ack());
        assert!(!ControlOp::HelloAck.needs_ack());
        assert!(!ControlOp::SubscribeAck.needs_ack());
        assert!(!ControlOp::Heartbeat.needs_ack());
        assert!(!ControlOp::Unsubscribe.needs_ack());
    }

    #[test]
    fn remove_peer_purges_its_subscriptions() {
        let d = Dispatcher::default();
        d.add_peer(10, HostId::from_index(1), 0xF);
        d.add_peer(11, HostId::from_index(2), 0xF);
        d.subscribe_remote(5, 10);
        d.subscribe_remote(5, 11);
        d.subscribe_remote(6, 10);
        let before = d.snapshot();
        assert_eq!(d.remove_peer(10), Some(HostId::from_index(1)));
        assert!(
            !Arc::ptr_eq(&before, &d.snapshot()),
            "routing caches must invalidate"
        );
        assert_eq!(remote_targets(&d, 5), vec![(HostId::from_index(2), 0xF)]);
        assert!(remote_targets(&d, 6).is_empty());
        assert_eq!(d.remove_peer(10), None, "already gone");
        assert_eq!(d.peers().len(), 1);
    }

    #[test]
    fn tech_masks_roundtrip() {
        use insane_fabric::Technology;
        let mask = tech_mask(&[Technology::KernelUdp, Technology::Dpdk]);
        assert!(mask_supports(mask, Technology::KernelUdp));
        assert!(mask_supports(mask, Technology::Dpdk));
        assert!(!mask_supports(mask, Technology::Xdp));
        assert!(!mask_supports(mask, Technology::Rdma));
        let all = tech_mask(&Technology::ALL);
        for t in Technology::ALL {
            assert!(mask_supports(all, t));
        }
    }

    #[test]
    fn first_and_last_sink_transitions() {
        let d = Dispatcher::default();
        assert!(d.add_sink(sink(1, 7)), "first sink on the channel");
        assert!(!d.add_sink(sink(2, 7)), "second sink is not first");
        assert_eq!(local_sinks(&d, 7), 2);
        assert!(!d.remove_sink(1, 7), "one sink remains");
        assert!(d.remove_sink(2, 7), "channel now empty");
        assert_eq!(local_sinks(&d, 7), 0);
    }

    #[test]
    fn remote_subscriptions_resolve_to_hosts() {
        let d = Dispatcher::default();
        d.add_peer(10, HostId::from_index(1), 0xF);
        d.add_peer(11, HostId::from_index(2), 0xF);
        d.subscribe_remote(5, 10);
        d.subscribe_remote(5, 11);
        let mut targets = remote_targets(&d, 5);
        targets.sort();
        assert_eq!(
            targets,
            vec![(HostId::from_index(1), 0xF), (HostId::from_index(2), 0xF)]
        );
        d.unsubscribe_remote(5, 10);
        assert_eq!(remote_targets(&d, 5), vec![(HostId::from_index(2), 0xF)]);
        d.unsubscribe_remote(5, 11);
        assert!(remote_targets(&d, 5).is_empty());
    }

    #[test]
    fn unknown_peer_subscriptions_resolve_to_nothing() {
        let d = Dispatcher::default();
        d.subscribe_remote(5, 99);
        assert!(remote_targets(&d, 5).is_empty(), "no host for runtime 99");
    }

    #[test]
    fn add_peer_reports_novelty() {
        let d = Dispatcher::default();
        assert!(d.add_peer(1, HostId::from_index(0), 0x1));
        assert!(!d.add_peer(1, HostId::from_index(0), 0x1));
        assert_eq!(d.peers().len(), 1);
    }

    /// One control-plane mutation on the peer/subscription tables.
    #[derive(Debug, Clone, Copy)]
    enum TableOp {
        AddPeer(u32),
        RemovePeer(u32),
        Subscribe(u32, u32),
        Unsubscribe(u32, u32),
    }

    fn apply(d: &Dispatcher, op: TableOp) {
        match op {
            TableOp::AddPeer(id) => {
                // Host and mask are derived from the id, so a torn table
                // mixing two generations would also show a host/mask
                // mismatch in `canonical`'s output.
                d.add_peer(id, HostId::from_index(id + 100), (id % 15) as TechMask | 1);
            }
            TableOp::RemovePeer(id) => {
                d.remove_peer(id);
            }
            TableOp::Subscribe(ch, id) => d.subscribe_remote(ch, id),
            TableOp::Unsubscribe(ch, id) => d.unsubscribe_remote(ch, id),
        }
    }

    /// Canonical rendering of one routing generation: sorted peers,
    /// sorted subscription sets, sorted resolved targets.
    fn canonical(table: &RoutingTable) -> String {
        let mut peers: Vec<_> = table
            .peers
            .iter()
            .map(|(id, (h, m))| (*id, h.index(), *m))
            .collect();
        peers.sort_unstable();
        let mut subs: Vec<_> = table
            .remote_subs
            .iter()
            .map(|(ch, set)| {
                let mut ids: Vec<_> = set.iter().copied().collect();
                ids.sort_unstable();
                (*ch, ids)
            })
            .collect();
        subs.sort();
        let mut remote: Vec<_> = table
            .remote
            .iter()
            .map(|(ch, targets)| {
                let mut t: Vec<_> = targets.iter().map(|(h, m)| (h.index(), *m)).collect();
                t.sort_unstable();
                (*ch, t)
            })
            .collect();
        remote.sort();
        format!("{peers:?}|{subs:?}|{remote:?}")
    }

    use proptest::{prop_assert, prop_assert_eq};

    proptest::proptest! {
        /// Live-reload semantics: while a writer thread applies an
        /// arbitrary sequence of peer/subscription mutations, concurrent
        /// dispatch reads only ever observe a table that is the complete
        /// result of some prefix of those mutations — never a
        /// half-applied intermediate (e.g. a peer inserted but the
        /// resolved-target join not yet rebuilt).  The valid states are
        /// precomputed by replaying the same ops sequentially on a
        /// private dispatcher.
        #[test]
        fn concurrent_dispatch_never_sees_a_half_applied_table(
            raw_ops in proptest::collection::vec((0u8..4, 0u32..4, 0u32..3), 1..24)
        ) {
            let ops: Vec<TableOp> = raw_ops
                .iter()
                .map(|&(kind, id, ch)| match kind {
                    0 => TableOp::AddPeer(id),
                    1 => TableOp::RemovePeer(id),
                    2 => TableOp::Subscribe(ch, id),
                    _ => TableOp::Unsubscribe(ch, id),
                })
                .collect();

            // Replay sequentially: the canonical form after every
            // complete op is a valid observable state.
            let model = Dispatcher::default();
            let mut valid: std::collections::HashSet<String> =
                [canonical(&model.snapshot())].into();
            for &op in &ops {
                apply(&model, op);
                valid.insert(canonical(&model.snapshot()));
            }

            let shared = Arc::new(Dispatcher::default());
            let writer = {
                let d = Arc::clone(&shared);
                let ops = ops.clone();
                std::thread::spawn(move || {
                    for &op in &ops {
                        apply(&d, op);
                    }
                })
            };
            // Concurrent dispatch: sample snapshots (both via a fresh
            // pinned load and via the hot-path cached-refresh pattern)
            // while the writer is publishing.
            let mut cached = shared.snapshot();
            let mut targets = Vec::new();
            for _ in 0..64 {
                shared.refresh(&mut cached);
                let seen = canonical(&cached);
                prop_assert!(
                    valid.contains(&seen),
                    "observed a table state produced by no prefix of ops: {seen}"
                );
                // A routed message must resolve against the same
                // generation end to end.
                for ch in 0..3u32 {
                    cached.remote_targets_into(ch, &mut targets);
                    for (host, mask) in &targets {
                        let id = host.index().wrapping_sub(100);
                        prop_assert_eq!(
                            *mask,
                            (id % 15) as TechMask | 1,
                            "target carries a mask from a different generation"
                        );
                    }
                }
            }
            writer.join().expect("writer thread panicked");
            shared.refresh(&mut cached);
            prop_assert_eq!(
                canonical(&cached),
                canonical(&model.snapshot()),
                "final table diverged from the sequential replay"
            );
        }
    }
}
