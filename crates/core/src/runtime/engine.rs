//! The polling engine (§5.3): per-shard state, the polling loop, and
//! one iteration's TX drain → schedule → send, RX → dispatch, and
//! failover divert.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use insane_fabric::HostId;
use insane_memory::{SlotView, TenantId};
use insane_netstack::insane_hdr::{InsaneHeader, MessageKind};
use insane_tsn::{Scheduler, TrafficClass};
use parking_lot::Mutex;

use crate::runtime::dispatch::{mask_supports, RoutingTable};
use crate::runtime::internals::{
    Delivery, OutcomeBoard, PayloadStore, SinkShared, StreamShared, TxRequest,
};
use crate::runtime::plugins::{InboundMsg, WireMsg};
use crate::runtime::tunables::Tunables;
use crate::runtime::{shard, RuntimeInner};
use crate::stats::MessageMeta;
use crate::tenant_drr::Tenanted;
use crate::{epoch_ns, PAYLOAD_OFFSET};

/// Modeled per-hop IPC costs of the runtime (nanoseconds).
///
/// The paper's runtime is a separate process reached over shared-memory
/// queues; its per-message CPU work (token exchange, cache-cold queue
/// touches, scheduling) is what separates "INSANE fast" from raw DPDK in
/// Fig. 5/7 (≈0.4–0.8 µs per direction on the local testbed, more on the
/// slower cloud CPU — Fig. 6).  Our in-process reproduction executes the
/// real queue/scheduler code but cannot reproduce cross-process cache
/// effects, so the difference is charged here, scaled by the testbed's
/// `runtime_scale_pct`.  Calibrated against Fig. 7a/7b.
#[derive(Debug, Clone, Copy)]
pub(super) struct HopCosts {
    pub(super) per_burst_ns: u64,
    pub(super) per_token_ns: u64,
    pub(super) scale_pct: u32,
}

impl HopCosts {
    /// Charges one queue-drain burst carrying `tokens` messages as a
    /// single busy-wait (clock reads are expensive on slow hosts, so the
    /// per-message costs of one burst are summed and charged once).
    fn charge_batch(&self, tokens: u64) {
        insane_fabric::time::spin_for_ns(insane_fabric::time::scale_ns(
            self.per_burst_ns + tokens * self.per_token_ns,
            self.scale_pct,
        ));
    }
}

pub(crate) type BoxedScheduler = Box<dyn Scheduler<OutboundBundle> + Send>;

/// Framed copies of one message, one per remote destination.  The
/// overwhelmingly common case is a single subscriber, which must not
/// allocate.
#[derive(Debug)]
enum WireMsgs {
    One(WireMsg),
    Many(Vec<WireMsg>),
}

/// A scheduled unit: one emitted message fanned out to its remote
/// destinations.
#[derive(Debug)]
pub(crate) struct OutboundBundle {
    msgs: WireMsgs,
    outcome: Arc<OutcomeBoard>,
    seq: u64,
    /// Emitting tenant, the key of the cross-tenant fair scheduler.
    tenant: TenantId,
}

impl Tenanted for OutboundBundle {
    fn tenant(&self) -> TenantId {
        self.tenant
    }
}

/// Per-shard scratch buffers reused across polling iterations so the
/// hot path never allocates.  Polling threads own a private `Scratch`
/// outright (no lock anywhere on the threaded hot path); each shard
/// also stores one behind a mutex for the manual-drive entry points,
/// where the lock doubles as the serializer for concurrent callers.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    streams: Vec<Arc<StreamShared>>,
    streams_version: u64,
    /// Rotating TX drain start position (anti-starvation): the stream
    /// that fills the burst goes to the back of the rotation, so under
    /// saturation every stream progresses within one full rotation.
    drain_cursor: usize,
    requests: Vec<TxRequest>,
    ready: Vec<OutboundBundle>,
    inbound: Vec<InboundMsg>,
    sinks: Vec<Arc<SinkShared>>,
    remotes: Vec<(HostId, crate::runtime::dispatch::TechMask)>,
    wire: Vec<WireMsg>,
    /// This shard's view of the routing state, refreshed from the
    /// dispatcher's snapshot cell once per polling iteration (a single
    /// atomic load when nothing changed — no lock, no RMW).
    routing: Arc<RoutingTable>,
    /// This shard's view of the runtime tunables, refreshed alongside
    /// the routing snapshot.
    tunables: Arc<Tunables>,
    /// Routing cache: the last channel's sinks/remotes stay valid while
    /// the routing snapshot is unchanged — consecutive messages almost
    /// always share a channel, so the hot path skips both table
    /// lookups.  Invalidated whenever `routing` is refreshed.
    cached_channel: Option<u32>,
    /// Per-owner-shard RX fan-out buckets: the device-polling shard
    /// groups a burst's inbound messages by owning shard so each inbox
    /// mutex is taken once per burst, not once per message.
    rx_buckets: Vec<Vec<InboundMsg>>,
    /// Whether the last polling iteration filled its burst budget
    /// somewhere — the adaptive burst controller's grow signal.
    burst_filled: bool,
    inbound_sinks: Vec<Arc<SinkShared>>,
    /// Outcome-board completion batch for one TX burst (board, highest
    /// sequence), reused across iterations like the other buffers.
    boards: Vec<(Arc<OutcomeBoard>, u64)>,
}

impl Scratch {
    /// A scratch whose stream snapshot is invalid, forcing a rebuild on
    /// first use.
    pub(super) fn fresh() -> Self {
        Scratch {
            streams_version: u64::MAX,
            ..Scratch::default()
        }
    }
}

/// Per-shard state of one datapath (DESIGN.md §9): its own packet
/// scheduler, a stored scratch area for the manual-drive entry points,
/// and — when the datapath runs more than one shard — an inbox carrying
/// the inbound messages of the channels this shard owns.
pub(crate) struct DatapathShard {
    pub(crate) scheduler: Mutex<BoxedScheduler>,
    pub(super) scratch: Mutex<Scratch>,
    pub(super) rx_inbox: Mutex<VecDeque<InboundMsg>>,
    /// Current burst budget of this shard's adaptive controller: grows
    /// toward `Tunables::burst_max` while bursts fill, decays toward
    /// `Tunables::burst_min` while the shard idles.  Plain Relaxed
    /// loads/stores — the only writer is the shard's own poller (plus
    /// the cold reload clamp), and staleness costs one iteration.
    pub(crate) burst: AtomicUsize,
}

/// Iterations between liveness checks in `polling_loop`.  Shutdown via
/// [`Runtime::shutdown`] stays immediate (`stop` is read every
/// iteration); only the detection of a runtime whose user handles were
/// all dropped without a shutdown call is deferred to this cadence.
const LIVENESS_CHECK_EVERY: u32 = 1024;

pub(super) fn polling_loop(inner: Arc<RuntimeInner>, datapaths: Vec<(usize, usize)>) {
    // One private scratch per assigned shard: the threaded hot path
    // owns its buffers outright and never takes a scratch lock.  (The
    // per-shard stored scratch is only for manual drives, which do not
    // run concurrently with polling threads.)
    let mut scratches: Vec<Scratch> = datapaths.iter().map(|_| Scratch::fresh()).collect();
    let mut idle_streak = 0u32;
    // This loop used to hold only a `Weak` and upgrade it every
    // iteration — two contended refcount RMWs on the hottest loop in
    // the system.  A strong handle is held instead.  Liveness (did the
    // user drop every `Runtime` handle without calling shutdown?)
    // cannot be observed by re-upgrading a `Weak`, because this
    // thread's own strong handle would keep the upgrade succeeding
    // forever; it is detected by periodically comparing the strong
    // count against the number of polling threads — once they are the
    // only owners left, the runtime is unreachable from user code, and
    // the first thread to notice raises `stop` for its siblings.
    let mut since_liveness = 0u32;
    loop {
        if inner.stop.load(Ordering::Acquire) {
            break;
        }
        since_liveness += 1;
        if since_liveness >= LIVENESS_CHECK_EVERY {
            since_liveness = 0;
            if Arc::strong_count(&inner) <= inner.polling_threads.load(Ordering::Acquire) {
                inner.stop.store(true, Ordering::Release);
                break;
            }
        }
        let mut did = false;
        for (slot, &(idx, shard)) in datapaths.iter().enumerate() {
            did |= inner.poll_datapath_shard(idx, shard, &mut scratches[slot]);
        }
        if did {
            idle_streak = 0;
        } else {
            idle_streak += 1;
            // §5.3: polling threads are automatically paused when idle.
            // Thresholds come from the hot-reloadable tunables snapshot
            // the first assigned shard refreshed this iteration.
            let tun = &scratches[0].tunables;
            if idle_streak > tun.idle_sleep_after {
                // Sleeps slow the iteration rate ~100×; advance the
                // liveness clock accordingly so an idle, dropped
                // runtime is still reclaimed promptly.
                since_liveness = since_liveness.saturating_add(63);
                std::thread::sleep(Duration::from_micros(tun.idle_sleep_us));
            } else if idle_streak > tun.idle_yield_after {
                std::thread::yield_now();
            }
        }
    }
}

impl RuntimeInner {
    /// The transmit half of one datapath iteration across all its
    /// shards (used by [`Runtime::poll_transmit`]).
    pub(crate) fn poll_datapath_tx(&self, idx: usize) -> bool {
        let mut did = false;
        for shard in 0..self.shards[idx].len() {
            let mut scratch = self.shards[idx][shard].scratch.lock();
            did |= self.poll_tx_inner(idx, shard, &mut scratch);
        }
        did
    }

    /// One polling iteration of one datapath: every shard in turn, each
    /// using its stored scratch.  This is the manual-drive path; the
    /// per-shard scratch mutex doubles as the serializer for concurrent
    /// manual callers (polling threads use private scratches instead).
    pub(crate) fn poll_datapath(&self, idx: usize) -> bool {
        let mut did = false;
        for shard in 0..self.shards[idx].len() {
            let mut scratch = self.shards[idx][shard].scratch.lock();
            did |= self.poll_datapath_shard(idx, shard, &mut scratch);
        }
        did
    }

    /// One polling iteration of one shard of one datapath: TX drain →
    /// schedule → send, then RX → dispatch.  Returns whether any work
    /// was done.
    ///
    /// Allocation-free on the hot path: all intermediate buffers live
    /// in the caller's scratch area and are reused across iterations.
    // insane-lint: hot-path-root
    // insane-lint: allow-fn(hot-path-panic) -- idx/shard are produced by the spawn loop that sized these arrays
    pub(crate) fn poll_datapath_shard(
        &self,
        idx: usize,
        shard: usize,
        scratch: &mut Scratch,
    ) -> bool {
        // Pick up published control-state snapshots: one atomic load
        // each per iteration, no lock, no RMW (DESIGN.md §12).  A new
        // routing table invalidates the per-channel cache derived from
        // the previous one — without this, a cache entry keyed only on
        // the channel could keep routing messages by a displaced table.
        if self.dispatcher.refresh(&mut scratch.routing) {
            scratch.cached_channel = None;
        }
        self.tunables.refresh(&mut scratch.tunables);
        scratch.burst_filled = false;

        // Health probe: detect datapath up/down transitions and migrate
        // traffic accordingly (self-healing, §6 of DESIGN.md).  The
        // compare-exchange makes the transition single-shot even when
        // several shards observe it concurrently.
        let down = self.fabric.device_down(self.health_eps[idx]);
        let mut did = false;
        if self.plugin_down[idx]
            .compare_exchange(!down, down, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            did = true;
            self.note_datapath_transition(idx, down);
        }

        did |= self.poll_tx_inner(idx, shard, scratch);

        // Control-plane upkeep rides on the kernel-UDP datapath's first
        // shard — the same path control messages travel.
        if idx == self.udp_idx && shard == 0 {
            did |= self.control_tick();
        }

        did |= self.poll_rx_inner(idx, shard, scratch, down);

        // Adaptive burst controller: a burst that filled anywhere this
        // iteration doubles the budget toward the ceiling (amortizing
        // per-burst overheads under load); a fully idle iteration
        // halves it toward the floor (bounding the latency cost of a
        // stale oversized burst).  Partial work leaves it unchanged.
        let cell = &self.shards[idx][shard].burst;
        let current = cell.load(Ordering::Relaxed);
        let next = if scratch.burst_filled {
            (current.saturating_mul(2)).min(scratch.tunables.burst_max)
        } else if !did {
            (current / 2).max(scratch.tunables.burst_min)
        } else {
            current
        };
        if next != current {
            cell.store(next, Ordering::Relaxed);
        }

        did
    }

    /// RX half of one shard's polling iteration: claim the device, fan
    /// inbound messages to their owning shards, then dispatch this
    /// shard's own inbox (Fig. 4, steps 3-4).
    // insane-lint: allow-fn(hot-path-panic) -- idx/shard/owner indices bounded by the spawn-time shard layout
    // insane-lint: allow-fn(hot-path-block) -- rx_claim is try_lock; inbox mutexes guard O(burst) handoffs and are never nested
    // insane-lint: allow-fn(hot-path-alloc) -- inbox deques grow to the burst watermark once, then reuse capacity
    fn poll_rx_inner(&self, idx: usize, shard: usize, scratch: &mut Scratch, down: bool) -> bool {
        let nshards = self.shards[idx].len();
        let burst = self.shards[idx][shard].burst.load(Ordering::Relaxed);
        let mut did = false;

        // A downed accelerated device cannot receive; kernel UDP keeps
        // polling so the control plane can observe recovery.
        let device_pollable = !down || idx == self.udp_idx;

        // The device is polled by whichever shard claims it first —
        // never concurrently.  Per-channel order is preserved because
        // inbox pushes happen under the claim (in device arrival
        // order), each inbox is FIFO, and only the owning shard
        // dispatches a channel's messages.
        if device_pollable {
            if let Some(_claim) = self.rx_claim[idx].try_lock() {
                scratch.inbound.clear();
                self.plugins[idx].poll_rx(&mut scratch.inbound, burst);
                if !scratch.inbound.is_empty() {
                    did = true;
                    scratch.burst_filled |= scratch.inbound.len() >= burst;
                    if nshards == 1 {
                        self.hops.charge_batch(scratch.inbound.len() as u64);
                    } else {
                        // Sharded RX adds a real handoff (device poller
                        // → owner inbox); charge the queue-touch here
                        // and the per-token costs at dispatch, on the
                        // owning shard.
                        self.hops.charge_batch(0);
                        if scratch.rx_buckets.len() < nshards {
                            scratch.rx_buckets.resize_with(nshards, Vec::new);
                        }
                    }
                    let mut inbound = std::mem::take(&mut scratch.inbound);
                    let mut rx_data = 0u64;
                    for msg in inbound.drain(..) {
                        if msg.hdr.kind == MessageKind::Control {
                            self.handle_control(&msg);
                            continue;
                        }
                        self.stats.rx_messages.fetch_add(1, Ordering::Relaxed);
                        if nshards == 1 {
                            rx_data += 1;
                            self.dispatch_inbound(
                                msg,
                                &scratch.routing,
                                &mut scratch.inbound_sinks,
                            );
                        } else {
                            // Bucket by owning shard; each inbox mutex
                            // is then taken once per burst below, not
                            // once per message.
                            let owner = shard::shard_of_channel(msg.hdr.channel, nshards);
                            scratch.rx_buckets[owner].push(msg);
                        }
                    }
                    if nshards == 1 {
                        self.dp_tel[idx][shard].on_rx(rx_data);
                    } else {
                        for (owner, bucket) in scratch.rx_buckets.iter_mut().enumerate() {
                            if bucket.is_empty() {
                                continue;
                            }
                            self.shards[idx][owner]
                                .rx_inbox
                                .lock()
                                .extend(bucket.drain(..));
                        }
                    }
                    scratch.inbound = inbound;
                }
            }
        }

        if nshards > 1 {
            // Drain this shard's inbox into the scratch buffer (bounded
            // by the burst) and dispatch outside the inbox lock.
            scratch.inbound.clear();
            {
                let mut inbox = self.shards[idx][shard].rx_inbox.lock();
                for _ in 0..burst {
                    match inbox.pop_front() {
                        Some(msg) => scratch.inbound.push(msg),
                        None => break,
                    }
                }
            }
            if !scratch.inbound.is_empty() {
                did = true;
                scratch.burst_filled |= scratch.inbound.len() >= burst;
                self.hops.charge_batch(scratch.inbound.len() as u64);
                let mut inbound = std::mem::take(&mut scratch.inbound);
                let dispatched = inbound.len() as u64;
                for msg in inbound.drain(..) {
                    self.dispatch_inbound(msg, &scratch.routing, &mut scratch.inbound_sinks);
                }
                self.dp_tel[idx][shard].on_rx(dispatched);
                scratch.inbound = inbound;
            }
        }
        did
    }

    /// TX drain → schedule → send for one shard of one datapath.
    // insane-lint: allow-fn(hot-path-panic) -- stream index/modulo guarded by nstreams > 0; shard indices bounded at spawn
    // insane-lint: allow-fn(hot-path-block) -- scheduler mutex is per-shard; contended only by rare divert/control paths
    pub(super) fn poll_tx_inner(&self, idx: usize, shard: usize, scratch: &mut Scratch) -> bool {
        let plugin = &self.plugins[idx];
        let tech = plugin.technology();
        let nshards = self.shards[idx].len();
        let burst = self.shards[idx][shard].burst.load(Ordering::Relaxed);
        let mut did = false;

        // 0. Refresh the stream snapshot only when the registry changed
        //    (filtered down to the streams this shard owns).
        let version = self.streams.version();
        if scratch.streams_version != version {
            self.streams
                .snapshot_for(tech, shard, nshards, &mut scratch.streams);
            scratch.streams_version = version;
        }

        // 1. Drain emitted tokens from this shard's streams (Fig. 4,
        //    step 2).  The drain starts at a rotating cursor and the
        //    stream that fills the burst goes to the back of the
        //    rotation: a fixed snapshot-order drain would let an
        //    early saturating stream permanently starve later ones.
        scratch.requests.clear();
        let nstreams = scratch.streams.len();
        if nstreams > 0 {
            let start = scratch.drain_cursor % nstreams;
            for offset in 0..nstreams {
                let i = (start + offset) % nstreams;
                let budget = burst - scratch.requests.len();
                scratch.streams[i]
                    .tx
                    .pop_burst(&mut scratch.requests, budget);
                if scratch.requests.len() >= burst {
                    scratch.drain_cursor = (i + 1) % nstreams;
                    break;
                }
            }
        }
        if !scratch.requests.is_empty() {
            did = true;
            scratch.burst_filled |= scratch.requests.len() >= burst;
            self.hops.charge_batch(scratch.requests.len() as u64);
            let now = Instant::now();
            let mut requests = std::mem::take(&mut scratch.requests);
            for req in requests.drain(..) {
                self.process_tx(idx, shard, req, now, scratch);
            }
            scratch.requests = requests;
        }

        // A downed accelerated datapath sends nothing; whatever reached
        // this shard's scheduler (including what step 1 just enqueued)
        // evacuates to the kernel-UDP fallback instead.
        if idx != self.udp_idx && self.plugin_down[idx].load(Ordering::Relaxed) {
            did |= self.divert_shard(idx, shard);
            return did;
        }

        // 2. Release scheduled messages to the device (opportunistic
        //    batching: everything ready goes as one burst).  Time-aware
        //    schedulers clamp the burst to the frames the remaining gate
        //    window can still carry (never below 1, so a fully gated
        //    pass still records its deferrals), and report per-class
        //    deferral counts for telemetry.
        scratch.ready.clear();
        let deferred = {
            let mut sched = self.shards[idx][shard].scheduler.lock();
            let now = Instant::now();
            let clamped = match sched.window_budget(now) {
                Some(budget) => burst.min(budget.max(1)),
                None => burst,
            };
            sched.dequeue_ready(&mut scratch.ready, clamped, now);
            sched.take_gate_deferrals()
        };
        let deferred_total: u64 = deferred.iter().sum();
        if deferred_total > 0 {
            self.stats
                .gate_deferrals
                .fetch_add(deferred_total, Ordering::Relaxed);
            self.dp_tel[idx][shard].on_gate_deferred(&deferred);
        }
        if !scratch.ready.is_empty() {
            did = true;
            scratch.burst_filled |= scratch.ready.len() >= burst;
            let mut wire_scratch = std::mem::take(&mut scratch.wire);
            wire_scratch.clear();
            // Outcome boards are completed through the highest sequence
            // per board; the common case is one message per poll, so a
            // tiny inline scan beats a map.
            let mut boards_scratch = std::mem::take(&mut scratch.boards);
            boards_scratch.clear();
            for bundle in scratch.ready.drain(..) {
                match bundle.msgs {
                    WireMsgs::One(msg) => wire_scratch.push(msg),
                    WireMsgs::Many(msgs) => wire_scratch.extend(msgs),
                }
                boards_scratch.push((bundle.outcome, bundle.seq));
            }
            let wire_count = wire_scratch.len() as u64;
            let sent = plugin.send_burst(&mut wire_scratch);
            scratch.wire = wire_scratch;
            match sent {
                Ok(_) => {
                    self.stats
                        .tx_messages
                        .fetch_add(wire_count, Ordering::Relaxed);
                    self.dp_tel[idx][shard].on_tx(wire_count);
                    for (board, seq) in boards_scratch.drain(..) {
                        board.complete_through(seq);
                    }
                }
                Err(_) => {
                    for (board, seq) in boards_scratch.drain(..) {
                        board.fail(seq, "datapath send failure");
                    }
                }
            }
            scratch.boards = boards_scratch;
        }

        did
    }

    /// Handles one emitted message: local forwarding plus scheduling for
    /// every subscribed remote runtime.  Routing comes from the shard's
    /// routing snapshot (`scratch.routing`), via the per-channel cache
    /// when consecutive messages share a channel — the cache is
    /// invalidated whenever `poll_datapath_shard` refreshes the
    /// snapshot, so it can never outlive the table it was built from.
    ///
    /// All scheduler enqueues stay on shard `shard` — of this datapath
    /// or of the kernel-UDP fallback — so everything a stream emits
    /// (native, fallback, or later diverted) flows through one shard
    /// per datapath and per-stream order survives every path.
    // insane-lint: allow-fn(hot-path-panic) -- remotes[0] guarded by emptiness/len checks; idx/shard bounded at spawn
    // insane-lint: allow-fn(hot-path-block) -- scheduler mutex is per-shard; contended only by rare divert/control paths
    // insane-lint: allow-fn(hot-path-alloc) -- multi-destination fan-out allocates per-owner views; the single-remote fast path stays allocation-free
    fn process_tx(
        &self,
        idx: usize,
        shard: usize,
        req: TxRequest,
        now: Instant,
        scratch: &mut Scratch,
    ) {
        let plugin = &self.plugins[idx];
        if scratch.cached_channel != Some(req.channel) {
            scratch
                .routing
                .local_sinks_into(req.channel, &mut scratch.sinks);
            scratch
                .routing
                .remote_targets_into(req.channel, &mut scratch.remotes);
            scratch.cached_channel = Some(req.channel);
        }
        let sinks = &scratch.sinks;
        let remotes = &mut scratch.remotes;
        if sinks.is_empty() && remotes.is_empty() {
            // Nobody is listening anywhere: drop (datagram semantics).
            let _ = self.pools.release(req.token);
            req.outcome.complete_through(req.seq);
            return;
        }

        let (frag_index, frag_count, total_len, wire_seq) =
            req.frag.unwrap_or((0, 1, req.payload_len as u32, req.seq));

        // Frame in place when the message goes on a wire.
        let mut wire_start = 0;
        let token = if remotes.is_empty() {
            req.token
        } else {
            let mut guard = match self.pools.redeem(req.token) {
                Ok(g) => g,
                Err(_) => {
                    req.outcome.fail(req.seq, "stale token");
                    return;
                }
            };
            let hdr = InsaneHeader {
                kind: MessageKind::Data,
                traffic_class: req.class.value(),
                channel: req.channel,
                src_runtime: self.config.runtime_id,
                seq: wire_seq,
                frag_index,
                frag_count,
                total_len,
                timestamp_ns: req.emit_ns,
            };
            match plugin.frame(&mut guard, &hdr, req.payload_len, remotes[0].0) {
                Ok(start) => wire_start = start,
                Err(_) => {
                    req.outcome.fail(req.seq, "framing failure");
                    return;
                }
            }
            guard.into_token()
        };

        // One view per owner: each remote destination plus (optionally)
        // the local delivery group.
        let base = match self.pools.view(token) {
            Ok(v) => v,
            Err(_) => {
                req.outcome.fail(req.seq, "stale token");
                return;
            }
        };

        // Peers that lack this stream's technology are reached over the
        // universal kernel-UDP datapath instead: the INSANE header always
        // sits at the same slot offset, so the already-framed slot is
        // transmitted from that offset on (§5.2's best-effort spirit,
        // applied per destination).
        let stream_tech = self.plugins[idx].technology();
        let udp_idx = self.udp_idx;
        // While this datapath is down, route new traffic straight to the
        // kernel-UDP fallback (QoS demoted to best effort below).
        let this_down = idx != udp_idx && self.plugin_down[idx].load(Ordering::Relaxed);

        // Fast path: exactly one remote, no co-located sinks.
        if sinks.is_empty() && remotes.len() == 1 {
            let (dst, peer_mask) = remotes[0];
            let native = mask_supports(peer_mask, stream_tech) && !this_down;
            if mask_supports(peer_mask, stream_tech) && this_down {
                self.stats.failover_messages.fetch_add(1, Ordering::Relaxed);
            }
            let (sched_idx, msg, class) = if native {
                (
                    idx,
                    WireMsg {
                        view: base,
                        wire_start,
                        dst,
                    },
                    req.class,
                )
            } else {
                (
                    udp_idx,
                    WireMsg {
                        view: base,
                        wire_start: crate::INSANE_HDR_OFFSET,
                        dst,
                    },
                    if this_down {
                        TrafficClass::BEST_EFFORT
                    } else {
                        req.class
                    },
                )
            };
            self.dp_tel[sched_idx][shard].on_scheduled(1);
            self.shards[sched_idx][shard].scheduler.lock().enqueue(
                OutboundBundle {
                    msgs: WireMsgs::One(msg),
                    outcome: req.outcome,
                    seq: req.seq,
                    tenant: req.tenant,
                },
                class,
                now,
            );
            return;
        }

        let owners = remotes.len() + usize::from(!sinks.is_empty());
        let mut views: Vec<SlotView> = Vec::with_capacity(owners);
        for _ in 1..owners {
            views.push(base.clone_ref());
        }
        views.push(base);

        if !sinks.is_empty() {
            let Some(local_view) = views.pop() else {
                req.outcome.fail(req.seq, "internal view accounting");
                return;
            };
            let local_view = Arc::new(local_view);
            let now_ns = epoch_ns();
            let meta = MessageMeta {
                channel: req.channel,
                seq: wire_seq,
                src_runtime: self.config.runtime_id,
                frag: (frag_index, frag_count, total_len),
                emit_ns: req.emit_ns,
                wire_start_ns: now_ns,
                wire_ns: 0,
                dispatched_ns: now_ns,
            };
            self.stats
                .local_deliveries
                .fetch_add(sinks.len() as u64, Ordering::Relaxed);
            // Fan-out cost: one hop charge covering every sink delivery.
            self.hops.charge_batch(sinks.len() as u64);
            let delivery = Arc::new(Delivery {
                store: PayloadStore::View(local_view),
                offset: PAYLOAD_OFFSET,
                len: req.payload_len,
                meta,
            });
            for sink in sinks.iter() {
                if !sink.deliver(Arc::clone(&delivery)) {
                    self.stats.sink_drops.fetch_add(1, Ordering::Relaxed);
                }
            }
            if remotes.is_empty() {
                req.outcome.complete_through(req.seq);
                return;
            }
        }

        // Fan-out consumes the cached remote list; invalidate the cache.
        let mut native: Vec<WireMsg> = Vec::new();
        let mut fallback: Vec<WireMsg> = Vec::new();
        for (view, (dst, peer_mask)) in views.into_iter().zip(remotes.drain(..)) {
            if mask_supports(peer_mask, stream_tech) && !this_down {
                native.push(WireMsg {
                    view,
                    wire_start,
                    dst,
                });
            } else {
                if mask_supports(peer_mask, stream_tech) {
                    self.stats.failover_messages.fetch_add(1, Ordering::Relaxed);
                }
                fallback.push(WireMsg {
                    view,
                    wire_start: crate::INSANE_HDR_OFFSET,
                    dst,
                });
            }
        }
        scratch.cached_channel = None;
        if !native.is_empty() {
            self.dp_tel[idx][shard].on_scheduled(native.len() as u64);
            self.shards[idx][shard].scheduler.lock().enqueue(
                OutboundBundle {
                    msgs: WireMsgs::Many(native),
                    outcome: Arc::clone(&req.outcome),
                    seq: req.seq,
                    tenant: req.tenant,
                },
                req.class,
                now,
            );
        }
        if !fallback.is_empty() {
            self.dp_tel[udp_idx][shard].on_scheduled(fallback.len() as u64);
            self.shards[udp_idx][shard].scheduler.lock().enqueue(
                OutboundBundle {
                    msgs: WireMsgs::Many(fallback),
                    outcome: req.outcome,
                    seq: req.seq,
                    tenant: req.tenant,
                },
                if this_down {
                    TrafficClass::BEST_EFFORT
                } else {
                    req.class
                },
                now,
            );
        }
    }

    /// Evacuates everything queued on every shard of datapath `idx`
    /// onto the kernel-UDP fallback (down transitions must not strand
    /// traffic on any shard).
    // insane-lint: cold-path -- datapath failover, not steady state
    fn divert_scheduler(&self, idx: usize) -> bool {
        let mut did = false;
        for shard in 0..self.shards[idx].len() {
            did |= self.divert_shard(idx, shard);
        }
        did
    }

    /// Evacuates one shard's scheduler onto the *same shard* of the
    /// kernel-UDP fallback: wire offsets are rewritten to the
    /// technology-neutral INSANE header and QoS is demoted to best
    /// effort (the fallback honours delivery, not the original class
    /// guarantees).  Shard-preserving evacuation keeps diverted
    /// messages ordered with the stream's later fallback traffic,
    /// which `process_tx` also pins to the stream's shard.
    // insane-lint: cold-path -- datapath failover, not steady state
    fn divert_shard(&self, idx: usize, shard: usize) -> bool {
        let mut evacuated: Vec<OutboundBundle> = Vec::new();
        self.shards[idx][shard]
            .scheduler
            .lock()
            .drain_all(&mut evacuated);
        if evacuated.is_empty() {
            return false;
        }
        let now = Instant::now();
        let mut diverted = 0u64;
        let mut udp = self.shards[self.udp_idx][shard].scheduler.lock();
        for mut bundle in evacuated {
            match &mut bundle.msgs {
                WireMsgs::One(msg) => {
                    msg.wire_start = crate::INSANE_HDR_OFFSET;
                    diverted += 1;
                }
                WireMsgs::Many(msgs) => {
                    for msg in msgs.iter_mut() {
                        msg.wire_start = crate::INSANE_HDR_OFFSET;
                    }
                    diverted += msgs.len() as u64;
                }
            }
            udp.enqueue(bundle, TrafficClass::BEST_EFFORT, now);
        }
        drop(udp);
        self.stats
            .failover_messages
            .fetch_add(diverted, Ordering::Relaxed);
        self.dp_tel[self.udp_idx][shard].on_scheduled(diverted);
        true
    }

    /// Reacts to a datapath health transition: warn, count, and (on the
    /// way down) evacuate the queued traffic to the kernel-UDP fallback.
    // insane-lint: cold-path -- single-shot up/down transition handler
    fn note_datapath_transition(&self, idx: usize, down: bool) {
        let tech = self.plugins[idx].technology();
        if idx == self.udp_idx {
            // The universal fallback itself has no fallback; the control
            // plane's retransmissions ride out the outage.
            crate::warn(&format!(
                "host {:?}: kernel UDP datapath is {}",
                self.host,
                if down { "down" } else { "back up" }
            ));
            return;
        }
        if down {
            self.stats.failover_events.fetch_add(1, Ordering::Relaxed);
            crate::warn(&format!(
                "host {:?}: {tech:?} datapath down — failing over to kernel UDP (QoS demoted to best effort)",
                self.host
            ));
            self.divert_scheduler(idx);
        } else {
            self.stats.failback_events.fetch_add(1, Ordering::Relaxed);
            crate::warn(&format!(
                "host {:?}: {tech:?} datapath recovered — migrating traffic back",
                self.host
            ));
        }
    }

    /// Dispatches one received message to the channel's local sinks,
    /// resolved against the caller's routing snapshot (`sinks` is a
    /// caller scratch buffer).
    // insane-lint: allow-fn(hot-path-alloc) -- one Arc<Delivery> per inbound message is the zero-copy sharing contract with sinks
    fn dispatch_inbound(
        &self,
        msg: InboundMsg,
        table: &RoutingTable,
        sinks: &mut Vec<Arc<SinkShared>>,
    ) {
        table.local_sinks_into(msg.hdr.channel, sinks);
        if sinks.is_empty() {
            return; // no subscriber on this host anymore
        }
        let payload_len = msg.store.bytes().len().saturating_sub(msg.payload_offset);
        let meta = MessageMeta {
            channel: msg.hdr.channel,
            seq: msg.hdr.seq,
            src_runtime: msg.hdr.src_runtime,
            frag: (msg.hdr.frag_index, msg.hdr.frag_count, msg.hdr.total_len),
            emit_ns: msg.hdr.timestamp_ns,
            wire_start_ns: msg.received_ns.saturating_sub(msg.wire_ns),
            wire_ns: msg.wire_ns,
            dispatched_ns: epoch_ns(),
        };
        if sinks.len() > 1 {
            // Extra fan-out hops beyond the one already charged for the
            // inbound burst.
            self.hops.charge_batch(sinks.len() as u64 - 1);
        }
        let delivery = Arc::new(Delivery {
            store: msg.store,
            offset: msg.payload_offset,
            len: payload_len,
            meta,
        });
        for sink in sinks.iter() {
            if !sink.deliver(Arc::clone(&delivery)) {
                self.stats.sink_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
