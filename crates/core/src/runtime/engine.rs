//! The polling engine (§5.3): per-shard state, the polling loop, and
//! one iteration's TX drain → schedule → send, RX → dispatch, and
//! failover divert.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use insane_fabric::{HostId, Payload};
use insane_memory::{SlotView, TenantId};
use insane_netstack::insane_hdr::{InsaneHeader, MessageKind};
use insane_tsn::{Scheduler, TrafficClass};
use parking_lot::Mutex;

use crate::runtime::dispatch::{mask_supports, RoutingTable, TechMask};
use crate::runtime::internals::{Delivery, OutcomeBoard, SinkShared, StreamShared, TxRequest};
use crate::runtime::plugins::{InboundMsg, WireMsg};
use crate::runtime::tunables::Tunables;
use crate::runtime::{shard, RuntimeInner};
use crate::stats::{MessageMeta, StatsSnapshot};
use crate::tenant_drr::Tenanted;
use crate::{epoch_ns, InsaneError, INSANE_HDR_OFFSET, PAYLOAD_OFFSET};

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

pub(super) type BoxedScheduler = Box<dyn Scheduler<OutboundBundle> + Send>;

/// Framed copies of one message, one per remote destination.  The
/// overwhelmingly common case is a single subscriber, which must not
/// allocate.
#[derive(Debug)]
enum WireMsgs {
    One(WireMsg),
    Many(Vec<WireMsg>),
}

impl WireMsgs {
    fn as_mut_slice(&mut self) -> &mut [WireMsg] {
        match self {
            WireMsgs::One(msg) => std::slice::from_mut(msg),
            WireMsgs::Many(msgs) => msgs,
        }
    }
}

/// A scheduled unit: one emitted message fanned out to its remote
/// destinations.
#[derive(Debug)]
pub(super) struct OutboundBundle {
    msgs: WireMsgs,
    outcome: Arc<OutcomeBoard>,
    seq: u64,
    /// Emitting tenant, the key of the cross-tenant fair scheduler.
    tenant: TenantId,
    /// Class it is (or, once handed off, will be) scheduled in.
    class: TrafficClass,
}

impl Tenanted for OutboundBundle {
    fn tenant(&self) -> TenantId {
        self.tenant
    }
}

/// Per-shard scratch buffers reused across polling iterations so the
/// hot path never allocates.
#[derive(Debug, Default)]
struct Scratch {
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
    remotes: Vec<(HostId, TechMask)>,
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

/// What whoever drives a shard owns for the length of that drive: the
/// shard's packet scheduler and its scratch area.
pub(super) struct ShardState {
    scheduler: BoxedScheduler,
    scratch: Scratch,
}

/// One shard of one datapath (DESIGN.md §9).  A drive entry point
/// ([`RuntimeInner::drive_shard`]) locks `state` once and hands it down
/// as `&mut`; nothing below a drive locks it again.  The only other
/// cross-thread touch points are the two leaf inboxes, whose locks
/// guard O(burst) handoffs and never nest.
///
/// The shard's counters are the one count of what crossed this
/// datapath: bumped (Relaxed — they publish nothing) by whoever drives
/// the shard, whether or not latency recording is on, and read by
/// summing — [`RuntimeInner::stats_snapshot`] for the runtime totals,
/// [`RuntimeInner::shard_snapshot`] for the shard's introspection row.
pub(super) struct DatapathShard {
    state: Mutex<ShardState>,
    /// Inbound messages of the channels this shard owns, fanned out by
    /// whichever shard polled the device (sharded datapaths only).
    rx_inbox: Mutex<VecDeque<InboundMsg>>,
    /// Kernel-UDP shards only: bundles that shard `s` of an accelerated
    /// datapath hands to shard `s` here — peers lacking the stream's
    /// technology, and everything while that datapath is down.  FIFO,
    /// adopted into this shard's scheduler before its own dequeue.
    tx_inbox: Mutex<VecDeque<OutboundBundle>>,
    /// Current burst budget of this shard's adaptive controller: grows
    /// toward `Tunables::burst_max` while bursts fill, decays toward
    /// `Tunables::burst_min` while the shard idles.  Plain Relaxed
    /// loads/stores — the only writer is the shard's own poller (plus
    /// the cold reload clamp), and staleness costs one iteration.
    burst: AtomicUsize,
    /// Messages this shard put on the wire.
    tx_messages: AtomicU64,
    /// Messages this shard took off the wire and dispatched.
    rx_messages: AtomicU64,
    /// Messages enqueued for this shard's packet scheduler, its own
    /// and those handed over through `tx_inbox`.
    scheduled: AtomicU64,
    /// Per-traffic-class deferral events: scheduler passes in which a
    /// queued frame was held back by a closed gate, the guard band, or
    /// a remaining window too short to finish in (time-aware shaping
    /// only; index = 802.1Q traffic class).
    gate_deferrals: [AtomicU64; 8],
}

/// Plain-data copy of one shard's counters and gauges: its row of the
/// introspection document.
pub(crate) struct ShardSnapshot {
    pub(crate) tx_messages: u64,
    pub(crate) rx_messages: u64,
    pub(crate) scheduled: u64,
    pub(crate) gate_deferrals: [u64; 8],
    /// Queued bundles: scheduler plus handoff inbox.
    pub(crate) queued: u64,
    /// Current burst budget.
    pub(crate) burst: u64,
}

impl DatapathShard {
    pub(super) fn new(scheduler: BoxedScheduler, burst: usize) -> Self {
        DatapathShard {
            state: Mutex::new(ShardState {
                scheduler,
                // An invalid stream-snapshot version forces a rebuild
                // on first use.
                scratch: Scratch {
                    streams_version: u64::MAX,
                    ..Scratch::default()
                },
            }),
            rx_inbox: Mutex::new(VecDeque::new()),
            tx_inbox: Mutex::new(VecDeque::new()),
            burst: AtomicUsize::new(burst),
            tx_messages: AtomicU64::new(0),
            rx_messages: AtomicU64::new(0),
            scheduled: AtomicU64::new(0),
            gate_deferrals: Default::default(),
        }
    }

    fn gate_deferrals(&self) -> [u64; 8] {
        std::array::from_fn(|class| self.gate_deferrals[class].load(Ordering::Relaxed))
    }
}

/// Iterations between liveness checks in `polling_loop`.  Shutdown via
/// [`Runtime::shutdown`] stays immediate (`stop` is read every
/// iteration); only the detection of a runtime whose user handles were
/// all dropped without a shutdown call is deferred to this cadence.
const LIVENESS_CHECK_EVERY: u32 = 1024;

pub(super) fn polling_loop(inner: Arc<RuntimeInner>, datapaths: Vec<(usize, usize)>) {
    let mut idle_streak = 0u32;
    // Idle thresholds, refreshed from the hot-reloadable snapshot on
    // idle iterations only.
    let mut tun = inner.tunables.load();
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
        for &(idx, shard) in &datapaths {
            did |= inner.drive_shard(idx, shard, false);
        }
        if did {
            idle_streak = 0;
        } else {
            idle_streak += 1;
            // §5.3: polling threads are automatically paused when idle.
            inner.tunables.refresh(&mut tun);
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
    /// The drive entry point: one polling iteration of one shard — or,
    /// with `tx_only`, just its transmit half — under the shard's one
    /// lock, which also serializes concurrent manual callers.
    pub(super) fn drive_shard(&self, idx: usize, shard: usize, tx_only: bool) -> bool {
        let mut st = self.shards[idx][shard].state.lock();
        if tx_only {
            self.poll_shard_tx(idx, shard, &mut st)
        } else {
            self.poll_datapath_shard(idx, shard, &mut st)
        }
    }

    /// [`RuntimeInner::drive_shard`] over every shard of one datapath,
    /// in turn (the manual-drive path).
    pub(super) fn drive_datapath(&self, idx: usize, tx_only: bool) -> bool {
        let mut did = false;
        for shard in 0..self.shards[idx].len() {
            did |= self.drive_shard(idx, shard, tx_only);
        }
        did
    }

    /// One shard's introspection row, read from the shard itself.
    pub(crate) fn shard_snapshot(&self, idx: usize, shard: usize) -> ShardSnapshot {
        let sh = &self.shards[idx][shard];
        let queued = sh.state.lock().scheduler.len() + sh.tx_inbox.lock().len();
        ShardSnapshot {
            tx_messages: sh.tx_messages.load(Ordering::Relaxed),
            rx_messages: sh.rx_messages.load(Ordering::Relaxed),
            scheduled: sh.scheduled.load(Ordering::Relaxed),
            gate_deferrals: sh.gate_deferrals(),
            queued: queued as u64,
            burst: sh.burst.load(Ordering::Relaxed) as u64,
        }
    }

    /// The runtime's counters: the runtime-wide ones plus the datapath
    /// counts, which are the sums over the shards that own them.  Takes
    /// no lock.
    pub(crate) fn stats_snapshot(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        for sh in self.shards.iter().flatten() {
            snap.tx_messages += sh.tx_messages.load(Ordering::Relaxed);
            snap.rx_messages += sh.rx_messages.load(Ordering::Relaxed);
            snap.gate_deferrals += sh.gate_deferrals().iter().sum::<u64>();
        }
        snap
    }

    /// Validates and publishes new tunables, then clamps every shard's
    /// live burst budget into the new bounds (the adaptive controller
    /// only moves by grow/shrink steps, so a budget stranded outside
    /// the new range under steady partial load would never re-enter it
    /// on its own).
    // insane-lint: cold-path -- control-plane reload, not steady state
    pub(crate) fn reload_tunables(&self, tunables: Tunables) -> Result<(), InsaneError> {
        let rejected = |e: &dyn std::fmt::Display| {
            InsaneError::InvalidConfig(format!("tunables rejected: {e}"))
        };
        tunables.validate().map_err(|e| rejected(&e))?;
        // Re-arm the time-aware shaper knobs before publishing: the
        // guard band is validated against each live scheduler's gate
        // cycle, and a rejection must leave the snapshot unchanged.
        // (Every shard shares one gate program shape, so the check
        // either passes or fails uniformly.)
        if tunables.tas_guard_band_ns.is_some() || tunables.tas_frame_tx_ns.is_some() {
            let guard = tunables.tas_guard_band_ns.map(Duration::from_nanos);
            let frame_tx = tunables.tas_frame_tx_ns.map(Duration::from_nanos);
            for sh in self.shards.iter().flatten() {
                let mut st = sh.state.lock();
                st.scheduler
                    .set_timing(guard, frame_tx)
                    .map_err(|e| rejected(&e))?;
            }
        }
        let (min, max) = (tunables.burst_min, tunables.burst_max);
        self.tunables.publish(Arc::new(tunables));
        for sh in self.shards.iter().flatten() {
            let _ = sh
                .burst
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                    Some(b.clamp(min, max))
                });
        }
        Ok(())
    }

    /// One polling iteration of one shard of one datapath: TX drain →
    /// schedule → send, then RX → dispatch.  Returns whether any work
    /// was done.
    ///
    /// Allocation-free on the hot path: all intermediate buffers live
    /// in the shard's scratch area and are reused across iterations.
    // insane-lint: hot-path-root
    // insane-lint: allow-fn(hot-path-panic) -- idx/shard are produced by the spawn loop that sized these arrays
    fn poll_datapath_shard(&self, idx: usize, shard: usize, st: &mut ShardState) -> bool {
        // Pick up published control-state snapshots: one atomic load
        // each per iteration, no lock, no RMW (DESIGN.md §12).  A new
        // routing table invalidates the per-channel cache derived from
        // the previous one — without this, a cache entry keyed only on
        // the channel could keep routing messages by a displaced table.
        if self.dispatcher.refresh(&mut st.scratch.routing) {
            st.scratch.cached_channel = None;
        }
        self.tunables.refresh(&mut st.scratch.tunables);
        st.scratch.burst_filled = false;

        // Health probe: detect datapath up/down transitions (self-healing,
        // §6 of DESIGN.md).  The compare-exchange makes the transition
        // single-shot even when several shards observe it concurrently;
        // each shard then migrates its own traffic in `poll_shard_tx`.
        let down = self.fabric.device_down(self.health_eps[idx]);
        let mut did = false;
        if self.plugin_down[idx]
            .compare_exchange(!down, down, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            did = true;
            self.note_datapath_transition(idx, down);
        }

        did |= self.poll_shard_tx(idx, shard, st);

        // Control-plane upkeep rides on the kernel-UDP datapath's first
        // shard — the same path control messages travel.
        if idx == self.udp_idx && shard == 0 {
            did |= self.control_tick();
        }

        did |= self.poll_shard_rx(idx, shard, &mut st.scratch, down);

        // Adaptive burst controller: a burst that filled anywhere this
        // iteration doubles the budget toward the ceiling (amortizing
        // per-burst overheads under load); a fully idle iteration
        // halves it toward the floor (bounding the latency cost of a
        // stale oversized burst).  Partial work leaves it unchanged.
        let cell = &self.shards[idx][shard].burst;
        let current = cell.load(Ordering::Relaxed);
        let next = if st.scratch.burst_filled {
            (current.saturating_mul(2)).min(st.scratch.tunables.burst_max)
        } else if !did {
            (current / 2).max(st.scratch.tunables.burst_min)
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
    /// shard's own (Fig. 4, steps 3-4).  This is the engine's output
    /// seam: everything a sink receives from the wire leaves through
    /// [`RuntimeInner::dispatch_inbound`].
    // insane-lint: allow-fn(hot-path-panic) -- idx/shard/owner indices bounded by the spawn-time shard layout
    // insane-lint: allow-fn(hot-path-block) -- rx_claim is try_lock; inbox mutexes guard O(burst) handoffs and are never nested
    // insane-lint: allow-fn(hot-path-alloc) -- inbox deques grow to the burst watermark once, then reuse capacity
    fn poll_shard_rx(&self, idx: usize, shard: usize, scratch: &mut Scratch, down: bool) -> bool {
        let nshards = self.shards[idx].len();
        let sh = &self.shards[idx][shard];
        let burst = sh.burst.load(Ordering::Relaxed);
        let mut did = false;
        scratch.inbound.clear();

        // The device is polled by whichever shard claims it first —
        // never concurrently.  Per-channel order is preserved because
        // inbox pushes happen under the claim (in device arrival
        // order), each inbox is FIFO, and only the owning shard
        // dispatches a channel's messages.  A downed accelerated device
        // cannot receive; kernel UDP keeps polling so the control plane
        // can observe recovery.
        if !down || idx == self.udp_idx {
            if let Some(_claim) = self.rx_claim[idx].try_lock() {
                self.plugins[idx].poll_rx(&mut scratch.inbound, burst);
                if !scratch.inbound.is_empty() {
                    did = true;
                    scratch.burst_filled |= scratch.inbound.len() >= burst;
                    // Sharded RX adds a real handoff (device poller →
                    // owner inbox): charge the queue touch here and the
                    // per-token costs at dispatch, on the owning shard.
                    let polled = scratch.inbound.len() as u64;
                    self.hops
                        .charge_batch(if nshards == 1 { polled } else { 0 });
                    scratch.inbound.retain(|msg| {
                        let control = msg.hdr.kind == MessageKind::Control;
                        if control {
                            self.handle_control(msg);
                        }
                        !control
                    });
                }
                if nshards > 1 && !scratch.inbound.is_empty() {
                    // Bucket by owning shard so each inbox mutex is
                    // taken once per burst, not once per message.
                    scratch.rx_buckets.resize_with(nshards, Vec::new);
                    for msg in scratch.inbound.drain(..) {
                        let owner = shard::shard_of_channel(msg.hdr.channel, nshards);
                        scratch.rx_buckets[owner].push(msg);
                    }
                    for (owner, bucket) in scratch.rx_buckets.iter_mut().enumerate() {
                        if !bucket.is_empty() {
                            let mut inbox = self.shards[idx][owner].rx_inbox.lock();
                            inbox.extend(bucket.drain(..));
                        }
                    }
                }
            }
        }

        if nshards > 1 {
            // This shard's share of the fan-out, bounded by the burst;
            // dispatch happens outside the inbox lock.
            let mut inbox = sh.rx_inbox.lock();
            let take = burst.min(inbox.len());
            scratch.inbound.extend(inbox.drain(..take));
            drop(inbox);
            if !scratch.inbound.is_empty() {
                scratch.burst_filled |= scratch.inbound.len() >= burst;
                self.hops.charge_batch(scratch.inbound.len() as u64);
            }
        }

        // Counted before the dispatch loop: a callback sink runs inside
        // it, and what it then reads must already include its message.
        let dispatched = scratch.inbound.len() as u64;
        if dispatched > 0 {
            sh.rx_messages.fetch_add(dispatched, Ordering::Relaxed);
        }
        for msg in scratch.inbound.drain(..) {
            self.dispatch_inbound(msg, &scratch.routing, &mut scratch.inbound_sinks);
        }
        did || dispatched > 0
    }

    /// TX half of one shard's polling iteration: stream drain → schedule
    /// → send (or, while the datapath is down, divert).  The stream
    /// drain below is the engine's input seam.
    // insane-lint: allow-fn(hot-path-panic) -- stream index/modulo guarded by nstreams > 0; shard indices bounded at spawn
    fn poll_shard_tx(&self, idx: usize, shard: usize, st: &mut ShardState) -> bool {
        let plugin = &self.plugins[idx];
        let tech = plugin.technology();
        let nshards = self.shards[idx].len();
        let sh = &self.shards[idx][shard];
        let burst = sh.burst.load(Ordering::Relaxed);
        let mut did = false;

        // The health flag is sampled once, so one iteration is wholly
        // native or wholly diverted.  A downed accelerated datapath
        // sends nothing: what it had scheduled is evacuated *before* new
        // requests are drained, and those then bypass the scheduler, so
        // "older before newer" into the fallback is a local property of
        // this shard.
        let down = idx != self.udp_idx && self.plugin_down[idx].load(Ordering::Relaxed);
        if down {
            did |= self.divert(idx, shard, st);
        }

        // 0. Refresh the stream snapshot only when the registry changed
        //    (filtered down to the streams this shard owns).
        let scratch = &mut st.scratch;
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
                self.process_tx(idx, shard, req, now, down, st);
            }
            st.scratch.requests = requests;
        }
        if down {
            return did;
        }

        // 2. Release scheduled messages to the device (opportunistic
        //    batching: everything ready goes as one burst).  Time-aware
        //    schedulers clamp the burst to the frames the remaining gate
        //    window can still carry (never below 1, so a fully gated
        //    pass still records its deferrals), and report per-class
        //    deferral counts, which the shard keeps.
        let ShardState { scheduler, scratch } = st;
        let now = Instant::now();
        if idx == self.udp_idx && self.plugins.len() > 1 {
            self.adopt_handoffs(shard, scheduler, now);
        }
        let clamped = match scheduler.window_budget(now) {
            Some(budget) => burst.min(budget.max(1)),
            None => burst,
        };
        scratch.ready.clear();
        scheduler.dequeue_ready(&mut scratch.ready, clamped, now);
        let deferred = scheduler.take_gate_deferrals();
        for (counter, n) in sh.gate_deferrals.iter().zip(deferred) {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
        if !scratch.ready.is_empty() {
            did = true;
            scratch.burst_filled |= scratch.ready.len() >= burst;
            // Outcome boards are completed through the highest sequence
            // per board; the common case is one message per poll, so a
            // tiny inline scan beats a map.
            scratch.wire.clear();
            scratch.boards.clear();
            for bundle in scratch.ready.drain(..) {
                match bundle.msgs {
                    WireMsgs::One(msg) => scratch.wire.push(msg),
                    WireMsgs::Many(msgs) => scratch.wire.extend(msgs),
                }
                scratch.boards.push((bundle.outcome, bundle.seq));
            }
            let wire_count = scratch.wire.len() as u64;
            match plugin.send_burst(&mut scratch.wire) {
                Ok(_) => {
                    sh.tx_messages.fetch_add(wire_count, Ordering::Relaxed);
                    for (board, seq) in scratch.boards.drain(..) {
                        board.complete_through(seq);
                    }
                }
                Err(_) => {
                    for (board, seq) in scratch.boards.drain(..) {
                        board.fail(seq, "datapath send failure");
                    }
                }
            }
        }

        did
    }

    /// Handles one emitted message: local forwarding plus scheduling for
    /// every subscribed remote runtime.  Routing comes from the shard's
    /// routing snapshot (`scratch.routing`), via the per-channel cache
    /// when consecutive messages share a channel — the cache is
    /// invalidated whenever `poll_datapath_shard` refreshes the
    /// snapshot, so it can never outlive the table it was built from.
    // insane-lint: allow-fn(hot-path-panic) -- remotes[0] guarded by emptiness/len checks; idx/shard bounded at spawn
    // insane-lint: allow-fn(hot-path-alloc) -- multi-destination fan-out allocates per-owner views; the single-remote fast path stays allocation-free
    fn process_tx(
        &self,
        idx: usize,
        shard: usize,
        mut req: TxRequest,
        now: Instant,
        down: bool,
        st: &mut ShardState,
    ) {
        let ShardState { scheduler, scratch } = st;
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
            // Nobody is listening anywhere: drop (datagram semantics);
            // the request takes its slot with it.
            req.outcome.complete_through(req.seq);
            return;
        }

        let (frag_index, frag_count, total_len, wire_seq) =
            req.frag.unwrap_or((0, 1, req.payload_len as u32, req.seq));

        // Frame in place when the message goes on a wire.
        let mut wire_start = 0;
        if !remotes.is_empty() {
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
            match plugin.frame(&mut req.guard, &hdr, req.payload_len, remotes[0].0) {
                Ok(start) => wire_start = start,
                Err(_) => {
                    req.outcome.fail(req.seq, "framing failure");
                    return;
                }
            }
        }
        // Written and framed: from here on the slot is only read, through
        // one reference per owner — each remote destination plus
        // (optionally) the local delivery group.
        let base = req.guard.into_view();

        if !sinks.is_empty() {
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
            let local = |view| Delivery {
                store: Payload::Pooled(view),
                offset: PAYLOAD_OFFSET,
                len: req.payload_len,
                meta,
            };
            if remotes.is_empty() {
                self.fan_out(sinks, local(base));
                req.outcome.complete_through(req.seq);
                return;
            }
            self.fan_out(sinks, local(base.clone_ref()));
        }

        // Per-destination route.  A peer that lacks this stream's
        // technology, and every peer while this datapath is down, is
        // reached over the universal kernel-UDP datapath instead: the
        // INSANE header always sits at the same slot offset, so the
        // already-framed slot is transmitted from that offset on (§5.2's
        // best-effort spirit, applied per destination).
        let stream_tech = plugin.technology();
        let route = |view: SlotView, (dst, peer_mask): (HostId, TechMask)| {
            let capable = mask_supports(peer_mask, stream_tech);
            if capable && down {
                self.stats.failover_messages.fetch_add(1, Ordering::Relaxed);
            }
            let native = capable && !down;
            let start = if native {
                wire_start
            } else {
                INSANE_HDR_OFFSET
            };
            let msg = WireMsg {
                view,
                wire_start: start,
                dst,
            };
            (native, msg)
        };
        // Failover demotes QoS to best effort (native implies `!down`).
        let class = if down {
            TrafficClass::BEST_EFFORT
        } else {
            req.class
        };
        let (seq, tenant) = (req.seq, req.tenant);
        let bundle = |msgs, outcome| OutboundBundle {
            msgs,
            outcome,
            seq,
            tenant,
            class,
        };

        // Fast path: exactly one remote, no co-located sinks.
        if sinks.is_empty() && remotes.len() == 1 {
            let (native, msg) = route(base, remotes[0]);
            let bundle = bundle(WireMsgs::One(msg), req.outcome);
            self.schedule(idx, shard, scheduler, native, bundle, now);
            return;
        }

        // Fan-out consumes the cached remote list; invalidate the cache.
        // Every message takes its own reference and `base` drops its own
        // when this function returns.
        let mut native: Vec<WireMsg> = Vec::new();
        let mut fallback: Vec<WireMsg> = Vec::new();
        for target in remotes.drain(..) {
            let (is_native, msg) = route(base.clone_ref(), target);
            if is_native {
                native.push(msg);
            } else {
                fallback.push(msg);
            }
        }
        scratch.cached_channel = None;
        if !native.is_empty() {
            let bundle = bundle(WireMsgs::Many(native), Arc::clone(&req.outcome));
            self.schedule(idx, shard, scheduler, true, bundle, now);
        }
        if !fallback.is_empty() {
            let bundle = bundle(WireMsgs::Many(fallback), req.outcome);
            self.schedule(idx, shard, scheduler, false, bundle, now);
        }
    }

    /// The one enqueue routine.  A native bundle goes into the driving
    /// shard's own scheduler (`own`); anything else is handed to the
    /// *same shard index* of the kernel-UDP datapath through its TX
    /// inbox.  Everything a stream emits — native, fallback, or later
    /// diverted — therefore flows through one shard per datapath, in
    /// the order this shard processed it, and per-stream order survives
    /// every path.
    // insane-lint: allow-fn(hot-path-panic) -- udp_idx/shard index the spawn-time shard layout, uniform across datapaths
    // insane-lint: allow-fn(hot-path-block) -- leaf inbox mutex: one push under it, never nested
    // insane-lint: allow-fn(hot-path-alloc) -- the inbox deque grows to its watermark once, then reuses capacity
    fn schedule(
        &self,
        idx: usize,
        shard: usize,
        own: &mut BoxedScheduler,
        native: bool,
        mut bundle: OutboundBundle,
        now: Instant,
    ) {
        let sched_idx = if native { idx } else { self.udp_idx };
        let target = &self.shards[sched_idx][shard];
        target
            .scheduled
            .fetch_add(bundle.msgs.as_mut_slice().len() as u64, Ordering::Relaxed);
        if sched_idx == idx {
            let class = bundle.class;
            own.enqueue(bundle, class, now);
        } else {
            target.tx_inbox.lock().push_back(bundle);
        }
    }

    /// Kernel-UDP side of the TX handoff: moves what sibling datapaths'
    /// shards handed over into this shard's scheduler, in handoff order.
    // insane-lint: allow-fn(hot-path-panic) -- udp_idx/shard index the spawn-time shard layout
    // insane-lint: allow-fn(hot-path-block) -- leaf inbox mutex: an O(handoffs) drain under it, never nested
    fn adopt_handoffs(&self, shard: usize, own: &mut BoxedScheduler, now: Instant) {
        let mut inbox = self.shards[self.udp_idx][shard].tx_inbox.lock();
        for bundle in inbox.drain(..) {
            let class = bundle.class;
            own.enqueue(bundle, class, now);
        }
    }

    /// Evacuates this shard's scheduler onto the *same shard* of the
    /// kernel-UDP fallback: wire offsets are rewritten to the
    /// technology-neutral INSANE header and QoS is demoted to best
    /// effort (the fallback honours delivery, not the original class
    /// guarantees).  A closed gate must not hold packets hostage on a
    /// device that will never transmit again, hence `drain_all`.
    // insane-lint: cold-path -- datapath failover, not steady state
    fn divert(&self, idx: usize, shard: usize, st: &mut ShardState) -> bool {
        let ShardState { scheduler, scratch } = st;
        scratch.ready.clear();
        scheduler.drain_all(&mut scratch.ready);
        let now = Instant::now();
        let mut diverted = 0u64;
        for mut bundle in scratch.ready.drain(..) {
            for msg in bundle.msgs.as_mut_slice() {
                msg.wire_start = INSANE_HDR_OFFSET;
                diverted += 1;
            }
            bundle.class = TrafficClass::BEST_EFFORT;
            self.schedule(idx, shard, scheduler, false, bundle, now);
        }
        self.stats
            .failover_messages
            .fetch_add(diverted, Ordering::Relaxed);
        diverted > 0
    }

    /// Reacts to a datapath health transition: warn and count.  The
    /// traffic itself is migrated by each shard's own `poll_shard_tx`.
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
        } else {
            self.stats.failback_events.fetch_add(1, Ordering::Relaxed);
            crate::warn(&format!(
                "host {:?}: {tech:?} datapath recovered — migrating traffic back",
                self.host
            ));
        }
    }

    /// The one sink fan-out, for emitted and received messages alike: the
    /// delivery is wrapped once, every sink gets the same `Arc`, and a
    /// sink that refuses it is counted.  The wrapper is the only count
    /// above the slot's own state word.
    // insane-lint: allow-fn(hot-path-alloc) -- one Arc<Delivery> per delivered message is the zero-copy sharing contract with sinks
    fn fan_out(&self, sinks: &[Arc<SinkShared>], delivery: Delivery) {
        let delivery = Arc::new(delivery);
        for sink in sinks {
            if !sink.deliver(Arc::clone(&delivery)) {
                self.stats.sink_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Dispatches one received message to the channel's local sinks,
    /// resolved against the caller's routing snapshot (`sinks` is a
    /// caller scratch buffer).
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
        let payload_len = msg.store.len().saturating_sub(msg.payload_offset);
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
        let delivery = Delivery {
            store: msg.store,
            offset: msg.payload_offset,
            len: payload_len,
            meta,
        };
        self.fan_out(sinks, delivery);
    }
}
