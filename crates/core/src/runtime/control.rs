//! The self-healing control plane: subscription announcements,
//! retransmission with backoff, heartbeats, and peer expiry/recovery,
//! driven from the kernel-UDP datapath's polling iterations.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use insane_fabric::HostId;
use insane_netstack::insane_hdr::{InsaneHeader, MessageKind};

use crate::runtime::dispatch::{decode_control, encode_control, tech_mask, ControlOp};
use crate::runtime::internals::SinkShared;
use crate::runtime::plugins::{InboundMsg, WireMsg};
use crate::runtime::RuntimeInner;
use crate::{epoch_ns, InsaneError, PAYLOAD_OFFSET};

/// One unacked announcement awaiting its retransmission deadline.
#[derive(Debug)]
struct PendingCtl {
    op: ControlOp,
    channel: u32,
    dst: HostId,
    /// Transmission attempts so far (the original send counts).
    attempts: u32,
    /// Current retransmission delay (doubles per attempt).
    backoff: Duration,
    next_at: Instant,
}

/// Mutable state of the self-healing control plane, driven from the
/// kernel-UDP datapath's polling iterations.
#[derive(Debug)]
pub(super) struct ControlPlane {
    /// Unacked Hello/Subscribe announcements being retransmitted.
    pending: Vec<PendingCtl>,
    /// Per-peer-runtime count of heartbeat rounds since we last heard
    /// from it.  Round-based rather than wall-clock so manually driven
    /// runtimes never expire peers between polls.
    misses: HashMap<u32, u32>,
    /// Hosts of expired peers, probed with Hellos at heartbeat cadence
    /// until they answer again.
    dormant: Vec<HostId>,
    next_heartbeat: Instant,
}

impl ControlPlane {
    pub(super) fn new(heartbeat_interval: Duration) -> Self {
        ControlPlane {
            pending: Vec::new(),
            misses: HashMap::new(),
            dormant: Vec::new(),
            next_heartbeat: Instant::now() + heartbeat_interval,
        }
    }
}

impl RuntimeInner {
    /// Registers a sink and announces the subscription to every peer.
    pub(crate) fn register_sink(&self, sink: Arc<SinkShared>) {
        let channel = sink.channel;
        let first = self.dispatcher.add_sink(sink);
        if first {
            self.broadcast_control(ControlOp::Subscribe, channel);
        }
    }

    /// Unregisters a sink, withdrawing the subscription when it was the
    /// channel's last.
    pub(crate) fn unregister_sink(&self, sink_id: u64, channel: u32) {
        let last = self.dispatcher.remove_sink(sink_id, channel);
        if last {
            self.broadcast_control(ControlOp::Unsubscribe, channel);
        }
    }

    fn broadcast_control(&self, op: ControlOp, channel: u32) {
        for (_, host) in self.dispatcher.peers() {
            self.send_control_logged(op, channel, host);
        }
    }

    /// As [`RuntimeInner::send_control`], but a failure is accounted and
    /// warned about instead of propagated (for call sites that have no
    /// caller to report to — broadcasts, replies, retransmissions).
    // insane-lint: cold-path -- control-plane send, not per-message work
    fn send_control_logged(&self, op: ControlOp, channel: u32, dst: HostId) {
        if let Err(e) = self.send_control(op, channel, dst) {
            self.stats
                .control_send_failures
                .fetch_add(1, Ordering::Relaxed);
            crate::warn(&format!(
                "host {:?}: control {op:?} (channel {channel}) toward {dst:?} failed: {e}",
                self.host
            ));
        }
    }

    /// Sends one control message; announcements that expect an ack are
    /// additionally registered for retransmission until acked.
    // insane-lint: cold-path -- control-plane send, not per-message work
    pub(super) fn send_control(
        &self,
        op: ControlOp,
        channel: u32,
        dst: HostId,
    ) -> Result<(), InsaneError> {
        if op.needs_ack() {
            self.register_pending(op, channel, dst);
        }
        self.send_control_raw(op, channel, dst)
    }

    /// Builds and sends one control message over the kernel-UDP datapath
    /// (always attached: it carries the control plane).
    // insane-lint: cold-path -- control-plane send, not per-message work
    fn send_control_raw(
        &self,
        op: ControlOp,
        channel: u32,
        dst: HostId,
    ) -> Result<(), InsaneError> {
        let plugin = &self.plugins[self.udp_idx];
        let payload = encode_control(op, self.host, tech_mask(&self.available_technologies()));
        let mut guard = self.pools.acquire(PAYLOAD_OFFSET + payload.len())?;
        guard[PAYLOAD_OFFSET..].copy_from_slice(&payload);
        let hdr = InsaneHeader {
            kind: MessageKind::Control,
            traffic_class: 0,
            channel,
            src_runtime: self.config.runtime_id,
            seq: self.control_seq.fetch_add(1, Ordering::Relaxed),
            frag_index: 0,
            frag_count: 1,
            total_len: payload.len() as u32,
            timestamp_ns: epoch_ns(),
        };
        let wire_start = plugin.frame(&mut guard, &hdr, payload.len(), dst)?;
        let mut burst = vec![WireMsg {
            view: guard.into_view(),
            wire_start,
            dst,
        }];
        plugin.send_burst(&mut burst)?;
        Ok(())
    }

    /// Registers an unacked announcement for retransmission (idempotent:
    /// an already-pending `(op, channel, dst)` keeps its schedule).
    fn register_pending(&self, op: ControlOp, channel: u32, dst: HostId) {
        let timeout = self.config.control.retransmit_timeout;
        let mut cp = self.control.lock();
        if cp
            .pending
            .iter()
            .any(|p| p.op == op && p.channel == channel && p.dst == dst)
        {
            return;
        }
        cp.pending.push(PendingCtl {
            op,
            channel,
            dst,
            attempts: 1,
            backoff: timeout,
            next_at: Instant::now() + timeout,
        });
    }

    /// Clears a pending announcement once its ack arrives.
    fn ack_pending(&self, op: ControlOp, channel: u32, dst: HostId) {
        self.control
            .lock()
            .pending
            .retain(|p| !(p.op == op && p.channel == channel && p.dst == dst));
    }

    /// Resets the peer's heartbeat-miss counter; returns true when the
    /// peer was dormant (expired earlier) and is now answering again.
    fn note_peer_alive(&self, peer_runtime: u32, peer_host: HostId) -> bool {
        let mut cp = self.control.lock();
        cp.misses.insert(peer_runtime, 0);
        match cp.dormant.iter().position(|h| *h == peer_host) {
            Some(pos) => {
                cp.dormant.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// (Re-)announces every locally subscribed channel to `peer` — with
    /// retransmission, so the announcements survive a lossy control path.
    fn announce_subscriptions(&self, peer: HostId) {
        for channel in self.dispatcher.local_channels() {
            self.send_control_logged(ControlOp::Subscribe, channel, peer);
        }
    }

    /// One round of control-plane upkeep, driven from the kernel-UDP
    /// datapath's polling iteration: due retransmissions, heartbeats,
    /// peer expiry, and dormant-peer probing.  Returns whether anything
    /// was actually done (a merely non-empty pending list between
    /// deadlines is not work, so manual polling loops can settle).
    // insane-lint: cold-path -- periodic control upkeep, deadline-gated
    pub(super) fn control_tick(&self) -> bool {
        let cfg = self.config.control;
        let now = Instant::now();
        let mut to_send: Vec<(ControlOp, u32, HostId)> = Vec::new();
        let mut expired: Vec<u32> = Vec::new();
        {
            let mut cp = self.control.lock();
            // Due retransmissions, with exponential backoff; exhausted
            // announcements are abandoned loudly.
            let mut i = 0;
            while i < cp.pending.len() {
                if now < cp.pending[i].next_at {
                    i += 1;
                    continue;
                }
                if cp.pending[i].attempts >= cfg.max_attempts {
                    let p = cp.pending.swap_remove(i);
                    self.stats.control_timeouts.fetch_add(1, Ordering::Relaxed);
                    crate::warn(&format!(
                        "host {:?}: abandoning control {:?} (channel {}) toward {:?} after {} attempts",
                        self.host, p.op, p.channel, p.dst, p.attempts
                    ));
                    continue;
                }
                let p = &mut cp.pending[i];
                p.attempts += 1;
                p.backoff = (p.backoff * 2).min(Duration::from_millis(100));
                p.next_at = now + p.backoff;
                self.stats
                    .control_retransmits
                    .fetch_add(1, Ordering::Relaxed);
                to_send.push((p.op, p.channel, p.dst));
                i += 1;
            }
            // Heartbeat round: beat every peer, advance miss counters,
            // expire the silent, probe the dormant.
            if now >= cp.next_heartbeat {
                cp.next_heartbeat = now + cfg.heartbeat_interval;
                for (peer_runtime, peer_host) in self.dispatcher.peers() {
                    let misses = cp.misses.entry(peer_runtime).or_insert(0);
                    *misses += 1;
                    if *misses > cfg.miss_threshold {
                        cp.misses.remove(&peer_runtime);
                        expired.push(peer_runtime);
                    } else {
                        self.stats.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
                        to_send.push((ControlOp::Heartbeat, 0, peer_host));
                    }
                }
                for &host in &cp.dormant {
                    to_send.push((ControlOp::Hello, 0, host));
                }
            }
        }
        let did = !to_send.is_empty() || !expired.is_empty();
        for peer_runtime in expired {
            let Some(host) = self.dispatcher.remove_peer(peer_runtime) else {
                continue;
            };
            self.stats.peer_expiries.fetch_add(1, Ordering::Relaxed);
            crate::warn(&format!(
                "host {:?}: peer runtime {peer_runtime} on {host:?} missed {} heartbeats — expired; probing for recovery",
                self.host, self.config.control.miss_threshold
            ));
            let mut cp = self.control.lock();
            // Stop retransmitting toward the dead peer; probe instead.
            cp.pending.retain(|p| p.dst != host);
            if !cp.dormant.contains(&host) {
                cp.dormant.push(host);
            }
        }
        for (op, channel, dst) in to_send {
            if let Err(e) = self.send_control_raw(op, channel, dst) {
                self.stats
                    .control_send_failures
                    .fetch_add(1, Ordering::Relaxed);
                crate::warn(&format!(
                    "host {:?}: control {op:?} (channel {channel}) toward {dst:?} failed: {e}",
                    self.host
                ));
            }
        }
        did
    }

    // insane-lint: cold-path -- control messages are rare by design
    pub(super) fn handle_control(&self, msg: &InboundMsg) {
        self.stats.control_messages.fetch_add(1, Ordering::Relaxed);
        let payload = &msg.store.as_slice()[msg.payload_offset..];
        let Some((op, peer_host, peer_mask)) = decode_control(payload) else {
            self.stats.rx_rejected.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let peer_runtime = msg.hdr.src_runtime;
        // Any control message proves the peer alive.
        let recovered = self.note_peer_alive(peer_runtime, peer_host);
        let new = self.dispatcher.add_peer(peer_runtime, peer_host, peer_mask);
        if new {
            for plugin in &self.plugins {
                plugin.on_peer(peer_host);
            }
            if recovered {
                self.stats.peers_recovered.fetch_add(1, Ordering::Relaxed);
                crate::warn(&format!(
                    "host {:?}: peer runtime {peer_runtime} on {peer_host:?} recovered",
                    self.host
                ));
            }
        }
        match op {
            ControlOp::Hello => {
                self.send_control_logged(ControlOp::HelloAck, 0, peer_host);
                // Always re-announce, not only to new peers: the sender
                // may have expired us and dropped every subscription we
                // held, and a Hello is how it asks for a re-sync.
                self.announce_subscriptions(peer_host);
            }
            ControlOp::HelloAck => {
                self.ack_pending(ControlOp::Hello, 0, peer_host);
                if new {
                    self.announce_subscriptions(peer_host);
                }
            }
            ControlOp::Subscribe => {
                self.dispatcher
                    .subscribe_remote(msg.hdr.channel, peer_runtime);
                self.send_control_logged(ControlOp::SubscribeAck, msg.hdr.channel, peer_host);
            }
            ControlOp::SubscribeAck => {
                self.ack_pending(ControlOp::Subscribe, msg.hdr.channel, peer_host);
            }
            ControlOp::Unsubscribe => {
                self.dispatcher
                    .unsubscribe_remote(msg.hdr.channel, peer_runtime);
            }
            ControlOp::Heartbeat => {
                if new {
                    // A peer we had expired is beating again before our
                    // probe reached it: a Hello makes both sides re-sync
                    // their subscription state.
                    self.send_control_logged(ControlOp::Hello, 0, peer_host);
                    self.announce_subscriptions(peer_host);
                }
            }
        }
    }
}
