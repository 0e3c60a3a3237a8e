//! The INSANE runtime: memory manager, packet scheduler, polling threads,
//! and datapath plugins (§5.3, Fig. 3).
//!
//! One runtime serves every application on its host.  Applications attach
//! through [`crate::Session`]; emitted messages travel as slot ids over
//! lock-free queues; the polling threads move them through the scheduler
//! onto the datapath mapped by each stream's QoS, and dispatch incoming
//! messages to the subscribed sinks — co-located sinks directly through
//! shared memory, without touching any network device.

pub(crate) mod dispatch;
pub(crate) mod internals;
pub(crate) mod plugins;
pub mod shard;
pub mod tunables;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use insane_fabric::{Endpoint, Fabric, HostId, Technology};
use insane_memory::{PoolSet, PoolSetBuilder, SlotView, TenantId, TenantQuota};
use insane_netstack::insane_hdr::{InsaneHeader, MessageKind};
use insane_queues::SnapshotCell;
use insane_tsn::{FifoScheduler, GateControlList, Scheduler, TasScheduler, TrafficClass};
use parking_lot::Mutex;

use crate::admission::{AdmissionController, OverloadPolicy, TenantRate};
use crate::qos::{DefaultMapping, MappedPath, MappingStrategy, QosPolicy};
use crate::runtime::dispatch::{
    decode_control, encode_control, mask_supports, tech_mask, ControlOp, Dispatcher, RoutingTable,
};
use crate::runtime::internals::{
    Delivery, OutcomeBoard, PayloadStore, SinkShared, StreamRegistry, StreamShared, TxRequest,
};
use crate::runtime::plugins::{
    tech_port_offset, DatapathPlugin, DpdkPlugin, InboundMsg, RdmaPlugin, UdpPlugin, WireMsg,
    XdpPlugin,
};
use crate::runtime::tunables::Tunables;
use crate::stats::{MessageMeta, RuntimeStats, StatsSnapshot};
use crate::telemetry::{DatapathTel, RuntimeTelemetry, SinkTel, TelemetryConfig};
use crate::tenant_drr::{TenantDrr, Tenanted};
use crate::{epoch_ns, InsaneError, PAYLOAD_OFFSET};

/// How the runtime's polling work is executed (§5.3: "the number of these
/// threads and their mapping to the datapath plugins is flexible and
/// configurable").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ThreadingMode {
    /// One polling thread per datapath plugin — the configuration the
    /// paper evaluates.
    #[default]
    PerDatapath,
    /// A single polling thread serving every plugin: lowest resource
    /// usage, lower performance (the paper's resource-frugal option).
    Shared,
    /// Explicit thread→datapath assignment: each inner list becomes one
    /// polling thread serving those technologies, in order (§5.3's
    /// "depending on the user needs in terms of performance, scalability,
    /// and resource consumption").  Technologies not mentioned anywhere
    /// are folded into the first thread.
    Custom(Vec<Vec<Technology>>),
    /// No threads: the caller drives [`Runtime::poll_once`] explicitly.
    /// Used by the single-core benchmark harness, where the serial
    /// critical path is driven inline.
    Manual,
}

/// Packet-scheduler selection (§5.2's time-sensitivity policy decides
/// per-message classes; this picks the strategy implementation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SchedulerChoice {
    /// FIFO: packets leave as soon as they are emitted (default).
    #[default]
    Fifo,
    /// IEEE 802.1Qbv time-aware shaping with an exclusive window for the
    /// time-critical class at the start of each cycle.
    TimeAware {
        /// Length of the exclusive time-critical window.
        critical_window: Duration,
        /// Gate cycle period.
        cycle: Duration,
        /// Guard interval before each gate-closing boundary during
        /// which no new frame may start (zero disables it).  Keeps an
        /// in-flight lower-class frame from spilling into the critical
        /// window.  Hot-reloadable via the `tas_guard_band_ns` tunable.
        guard_band: Duration,
        /// Modeled wire time of one frame, applied uniformly to every
        /// class (zero disables deadline metering).  With it set, the
        /// scheduler never releases a frame that cannot finish before
        /// its gate closes, and the polling engine clamps its drain
        /// burst to the remaining window.  Hot-reloadable via the
        /// `tas_frame_tx_ns` tunable.
        frame_tx: Duration,
    },
}

/// Self-healing control-plane parameters: announcement retransmission
/// and the heartbeat failure detector.
///
/// Announcements (Hello, Subscribe) are retransmitted with exponential
/// backoff until acked or abandoned; heartbeats ride the kernel-UDP
/// control channel, and a peer that misses too many in a row is expired
/// (its subscriptions dropped) and probed until it recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPlaneConfig {
    /// Delay before the first retransmission of an unacked announcement;
    /// doubles on every further attempt (capped at 100 ms).
    pub retransmit_timeout: Duration,
    /// Total transmission attempts (first send included) before an
    /// announcement is abandoned and counted as a control timeout.
    pub max_attempts: u32,
    /// Interval between heartbeat rounds toward every known peer.
    pub heartbeat_interval: Duration,
    /// Consecutive heartbeat rounds without hearing anything from a peer
    /// before it is expired.
    pub miss_threshold: u32,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        Self {
            retransmit_timeout: Duration::from_millis(1),
            max_attempts: 8,
            heartbeat_interval: Duration::from_millis(5),
            miss_threshold: 8,
        }
    }
}

/// Per-tenant runtime registration: slot quota, optional admission
/// rate, and cross-tenant fair-share weight (DESIGN.md §10).
///
/// Registered tenants get hard isolation on all three axes; sessions
/// attaching with an unregistered tenant id (or none) pool on the
/// anonymous catch-all with no guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant id.  0 is the anonymous default tenant and is ignored if
    /// registered explicitly.
    pub tenant: TenantId,
    /// Slot-quota reservation and cap enforced by the memory pools at
    /// lend time.
    pub quota: TenantQuota,
    /// Admission token bucket (`None` = no rate limit).
    pub rate: Option<TenantRate>,
    /// Weight in the cross-tenant fair scheduler (clamped to ≥ 1).
    pub weight: u32,
}

impl TenantSpec {
    /// A tenant with `quota`, no rate limit, and weight 1.
    pub fn new(tenant: TenantId, quota: TenantQuota) -> Self {
        Self {
            tenant,
            quota,
            rate: None,
            weight: 1,
        }
    }

    /// Adds an admission rate limit.
    pub fn with_rate(mut self, rate: TenantRate) -> Self {
        self.rate = Some(rate);
        self
    }

    /// Sets the fair-share scheduler weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// Runtime construction parameters.
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Unique id of this runtime instance across the deployment.
    pub runtime_id: u32,
    /// Technologies to attach.  Kernel UDP is always included (it carries
    /// the control plane and is the universal fallback).
    pub technologies: Vec<Technology>,
    /// Polling-thread layout.
    pub threading: ThreadingMode,
    /// Packet scheduler strategy.
    pub scheduler: SchedulerChoice,
    /// Policy→technology mapping strategy (§5.2 allows custom ones).
    pub mapping: Arc<dyn MappingStrategy>,
    /// First fabric port this runtime's datapaths bind; all runtimes of a
    /// deployment must share this value so peers can address each other.
    pub port_base: u16,
    /// Slots in the small (packet-sized) pool class.
    pub small_slots: usize,
    /// Slots in the large (jumbo-sized) pool class.
    pub large_slots: usize,
    /// Depth of each stream's TX token queue.
    pub tx_queue_depth: usize,
    /// Depth of each sink's delivery queue.
    pub sink_queue_depth: usize,
    /// Maximum messages moved per polling step (burst size).
    pub burst: usize,
    /// Polling shards per datapath (default 1 = the unsharded engine).
    /// Each shard owns its own scratch area, packet-scheduler instance,
    /// and — in threaded modes — polling thread; streams and channels
    /// are pinned to shards by stable hashes so per-stream TX order and
    /// per-channel RX order are preserved (DESIGN.md §9).  Clamped to
    /// `1..=64` at start.
    pub shards_per_datapath: usize,
    /// Control-plane retransmission and failure-detection parameters.
    pub control: ControlPlaneConfig,
    /// Observability: per-stream histograms, datapath counters, and the
    /// introspection endpoint.
    pub telemetry: TelemetryConfig,
    /// Registered tenants: slot quotas, admission rates, and fair-share
    /// weights.  Empty (the default) keeps single-tenant operation: no
    /// quota ledger, no admission buckets, the plain per-shard
    /// schedulers.
    pub tenants: Vec<TenantSpec>,
    /// What happens when a tenant outruns its admission budget (or its
    /// TX queue overflows): reject, shed lowest-criticality first, or
    /// backpressure best-effort traffic.
    pub overload: OverloadPolicy,
}

impl std::fmt::Debug for RuntimeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeConfig")
            .field("runtime_id", &self.runtime_id)
            .field("technologies", &self.technologies)
            .field("threading", &self.threading)
            .field("scheduler", &self.scheduler)
            .field("shards_per_datapath", &self.shards_per_datapath)
            .field("port_base", &self.port_base)
            .field("control", &self.control)
            .field("telemetry", &self.telemetry)
            .field("tenants", &self.tenants)
            .field("overload", &self.overload)
            .finish()
    }
}

impl RuntimeConfig {
    /// Defaults: all four technologies, one thread per datapath, FIFO
    /// scheduling, port base 40000.
    pub fn new(runtime_id: u32) -> Self {
        Self {
            runtime_id,
            technologies: vec![
                Technology::KernelUdp,
                Technology::Xdp,
                Technology::Dpdk,
                Technology::Rdma,
            ],
            threading: ThreadingMode::default(),
            scheduler: SchedulerChoice::default(),
            mapping: Arc::new(DefaultMapping),
            port_base: 40_000,
            small_slots: 4_096,
            large_slots: 512,
            tx_queue_depth: 1_024,
            sink_queue_depth: 4_096,
            burst: 32,
            shards_per_datapath: 1,
            control: ControlPlaneConfig::default(),
            telemetry: TelemetryConfig::default(),
            tenants: Vec::new(),
            overload: OverloadPolicy::default(),
        }
    }

    /// Sets the number of polling shards per datapath (see
    /// [`RuntimeConfig::shards_per_datapath`]).
    pub fn with_shards_per_datapath(mut self, shards: usize) -> Self {
        self.shards_per_datapath = shards;
        self
    }

    /// Restricts the attached technologies (kernel UDP is re-added if
    /// missing — the control plane needs it).
    pub fn with_technologies(mut self, techs: &[Technology]) -> Self {
        self.technologies = techs.to_vec();
        self
    }

    /// Sets the threading mode.
    pub fn with_threading(mut self, mode: ThreadingMode) -> Self {
        self.threading = mode;
        self
    }

    /// Sets the scheduler strategy.
    pub fn with_scheduler(mut self, scheduler: SchedulerChoice) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Installs a custom QoS mapping strategy.
    pub fn with_mapping(mut self, mapping: Arc<dyn MappingStrategy>) -> Self {
        self.mapping = mapping;
        self
    }

    /// Overrides the port base.
    pub fn with_port_base(mut self, base: u16) -> Self {
        self.port_base = base;
        self
    }

    /// Overrides the control-plane retransmission/heartbeat parameters.
    pub fn with_control(mut self, control: ControlPlaneConfig) -> Self {
        self.control = control;
        self
    }

    /// Overrides the telemetry configuration.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Registers a tenant: its slot quota, admission rate, and
    /// fair-share weight (see [`TenantSpec`]).  May be called once per
    /// tenant; duplicates are rejected at [`Runtime::start`].
    pub fn with_tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Sets the overload policy applied when a tenant outruns its
    /// admission budget.
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }
}

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
struct HopCosts {
    per_burst_ns: u64,
    per_token_ns: u64,
    scale_pct: u32,
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

type BoxedScheduler = Box<dyn Scheduler<OutboundBundle> + Send>;

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
struct OutboundBundle {
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
    fn fresh() -> Self {
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
struct DatapathShard {
    scheduler: Mutex<BoxedScheduler>,
    scratch: Mutex<Scratch>,
    rx_inbox: Mutex<VecDeque<InboundMsg>>,
    /// Current burst budget of this shard's adaptive controller: grows
    /// toward `Tunables::burst_max` while bursts fill, decays toward
    /// `Tunables::burst_min` while the shard idles.  Plain Relaxed
    /// loads/stores — the only writer is the shard's own poller (plus
    /// the cold reload clamp), and staleness costs one iteration.
    burst: AtomicUsize,
}

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
struct ControlPlane {
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

pub(crate) struct RuntimeInner {
    config: RuntimeConfig,
    fabric: Fabric,
    host: HostId,
    pools: PoolSet,
    /// Per-tenant token-bucket admission (inert with no tenants).
    admission: AdmissionController,
    plugins: Vec<Arc<dyn DatapathPlugin>>,
    /// Per-datapath shard states, `shards[datapath][shard]`.  Every
    /// datapath runs the same shard count
    /// (`config.shards_per_datapath`), so a shard index is valid across
    /// datapaths — failover moves shard `s` of a downed datapath onto
    /// shard `s` of kernel UDP, preserving per-stream order.
    shards: Vec<Vec<DatapathShard>>,
    /// Per-datapath device-RX claim: whichever shard acquires it polls
    /// the device and fans inbound messages to the owning shards'
    /// inboxes, so the device is never polled concurrently.
    rx_claim: Vec<Mutex<()>>,
    pub(crate) streams: StreamRegistry,
    pub(crate) dispatcher: Dispatcher,
    /// Hot-reloadable pacing knobs, published as a snapshot so the
    /// polling shards read them lock-free (DESIGN.md §12).
    tunables: SnapshotCell<Tunables>,
    pub(crate) stats: Arc<RuntimeStats>,
    stop: AtomicBool,
    started: AtomicBool,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Number of polling threads spawned; the polling loops compare it
    /// against the `Arc` strong count to detect that every user handle
    /// is gone (see `polling_loop`).
    polling_threads: AtomicUsize,
    next_id: AtomicU64,
    control_seq: AtomicU64,
    hops: HopCosts,
    /// Index of the kernel-UDP plugin (always attached: control plane and
    /// universal fallback).
    udp_idx: usize,
    /// Health gate per plugin: true while the underlying device is failed.
    plugin_down: Vec<AtomicBool>,
    /// The fabric endpoint probed to decide each plugin's health.
    health_eps: Vec<Endpoint>,
    control: Mutex<ControlPlane>,
    /// Telemetry root (inert when disabled or compiled out).
    telemetry: RuntimeTelemetry,
    /// Per-shard telemetry counter handles, `dp_tel[datapath][shard]`.
    dp_tel: Vec<Vec<DatapathTel>>,
}

impl std::fmt::Debug for RuntimeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeInner")
            .field("runtime_id", &self.config.runtime_id)
            .field("host", &self.host)
            .field("technologies", &self.available_technologies())
            .finish()
    }
}

/// Handle to a host's INSANE runtime.  Cloning shares the same runtime.
#[derive(Clone, Debug)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// Builds a runtime on `host`, binds its datapath devices, and spawns
    /// polling threads per the configured [`ThreadingMode`].
    ///
    /// # Errors
    ///
    /// Propagates device binding failures (port collisions, unknown host)
    /// and pool construction failures.
    pub fn start(
        mut config: RuntimeConfig,
        fabric: &Fabric,
        host: HostId,
    ) -> Result<Runtime, InsaneError> {
        if !config.technologies.contains(&Technology::KernelUdp) {
            config.technologies.insert(0, Technology::KernelUdp);
        }
        config.technologies.dedup();
        config.shards_per_datapath = config.shards_per_datapath.clamp(1, 64);
        let mut pool_builder = PoolSetBuilder::new()
            .pool(2_048, config.small_slots)
            .pool(16 * 1_024, config.large_slots);
        for spec in &config.tenants {
            pool_builder = pool_builder.tenant(spec.tenant, spec.quota);
        }
        let pools = pool_builder.build()?;
        let admission_rates: Vec<(TenantId, Option<TenantRate>)> = config
            .tenants
            .iter()
            .map(|spec| (spec.tenant, spec.rate))
            .collect();
        let admission = AdmissionController::new(&admission_rates, config.overload);

        let stats = Arc::new(RuntimeStats::default());
        let mut plugins: Vec<Arc<dyn DatapathPlugin>> = Vec::new();
        let mut health_eps = Vec::new();
        for &tech in &config.technologies {
            let port = config.port_base + tech_port_offset(tech);
            let plugin: Arc<dyn DatapathPlugin> = match tech {
                Technology::KernelUdp => {
                    Arc::new(UdpPlugin::new(fabric, host, port, Arc::clone(&stats))?)
                }
                Technology::Dpdk => {
                    Arc::new(DpdkPlugin::new(fabric, host, port, Arc::clone(&stats))?)
                }
                Technology::Xdp => {
                    Arc::new(XdpPlugin::new(fabric, host, port, Arc::clone(&stats))?)
                }
                Technology::Rdma => Arc::new(RdmaPlugin::new(
                    fabric,
                    host,
                    config.port_base + 16,
                    16 * 1024 - PAYLOAD_OFFSET,
                    Arc::clone(&stats),
                )?),
            };
            plugins.push(plugin);
            // The endpoint whose injected-failure state gates the whole
            // plugin.  RDMA binds per-peer queue pairs from `base + 16`
            // up, so whole-NIC failures are injected as a port range
            // starting there (see `FaultInjector::fail_device_range`).
            health_eps.push(Endpoint {
                host,
                port: match tech {
                    Technology::Rdma => config.port_base + 16,
                    t => config.port_base + tech_port_offset(t),
                },
            });
        }
        let udp_idx = plugins
            .iter()
            .position(|p| p.technology() == Technology::KernelUdp)
            .ok_or_else(|| {
                InsaneError::Internal("kernel UDP datapath missing after normalization".into())
            })?;

        let nshards = config.shards_per_datapath;
        let mut shards = Vec::with_capacity(plugins.len());
        for _ in &plugins {
            let mut dp_shards = Vec::with_capacity(nshards);
            for _ in 0..nshards {
                dp_shards.push(DatapathShard {
                    scheduler: Mutex::new(Self::build_scheduler(&config)?),
                    scratch: Mutex::new(Scratch::fresh()),
                    rx_inbox: Mutex::new(VecDeque::new()),
                    burst: AtomicUsize::new(config.burst.max(1)),
                });
            }
            shards.push(dp_shards);
        }
        let rx_claim = plugins.iter().map(|_| Mutex::new(())).collect::<Vec<_>>();

        let hops = HopCosts {
            per_burst_ns: 40,
            per_token_ns: 20,
            scale_pct: fabric.profile().runtime_scale_pct,
        };

        let control = ControlPlane {
            pending: Vec::new(),
            misses: HashMap::new(),
            dormant: Vec::new(),
            next_heartbeat: Instant::now() + config.control.heartbeat_interval,
        };
        let plugin_down = plugins.iter().map(|_| AtomicBool::new(false)).collect();
        let telemetry = RuntimeTelemetry::new(&config.telemetry);
        let dp_tel = plugins
            .iter()
            .map(|p| {
                let name = p.technology().name().to_lowercase();
                (0..nshards).map(|s| telemetry.datapath(&name, s)).collect()
            })
            .collect();
        let tunables = SnapshotCell::new(Tunables::for_burst(config.burst));
        let inner = Arc::new(RuntimeInner {
            config,
            fabric: fabric.clone(),
            host,
            pools,
            admission,
            plugins,
            shards,
            rx_claim,
            streams: StreamRegistry::default(),
            dispatcher: Dispatcher::default(),
            tunables,
            stats,
            stop: AtomicBool::new(false),
            started: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            polling_threads: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            control_seq: AtomicU64::new(0),
            hops,
            udp_idx,
            plugin_down,
            health_eps,
            control: Mutex::new(control),
            telemetry,
            dp_tel,
        });
        let runtime = Runtime { inner };
        runtime.spawn_threads()?;
        Ok(runtime)
    }

    fn build_scheduler(config: &RuntimeConfig) -> Result<BoxedScheduler, InsaneError> {
        match &config.scheduler {
            // With tenants registered, the FIFO strategy is upgraded to
            // cross-tenant weighted DRR so one tenant's backlog cannot
            // monopolize a shard's drain burst.  The time-aware shaper
            // keeps its gate semantics unchanged: its exclusive windows
            // already bound what any one class — and thus any one
            // backlog — can take per cycle (DESIGN.md §10).
            SchedulerChoice::Fifo => {
                if config.tenants.is_empty() {
                    Ok(Box::new(FifoScheduler::new()))
                } else {
                    let weights: Vec<(TenantId, u32)> = config
                        .tenants
                        .iter()
                        .map(|spec| (spec.tenant, spec.weight))
                        .collect();
                    Ok(Box::new(TenantDrr::new(&weights)))
                }
            }
            SchedulerChoice::TimeAware {
                critical_window,
                cycle,
                guard_band,
                frame_tx,
            } => {
                let gcl = GateControlList::exclusive_window(
                    TrafficClass::TIME_CRITICAL,
                    *critical_window,
                    *cycle,
                    Instant::now(),
                )?
                .with_guard_band(*guard_band)?;
                let mut tas = TasScheduler::new(gcl);
                if !frame_tx.is_zero() {
                    tas.set_timing(None, Some(*frame_tx))?;
                }
                Ok(Box::new(tas))
            }
        }
    }

    fn spawn_threads(&self) -> Result<(), InsaneError> {
        let nshards = self.inner.config.shards_per_datapath;
        // Expand a list of datapath indices into (datapath, shard)
        // pairs — a thread assigned a datapath drives all its shards.
        let all_shards = |indices: &[usize]| -> Vec<(usize, usize)> {
            indices
                .iter()
                .flat_map(|&idx| (0..nshards).map(move |s| (idx, s)))
                .collect()
        };
        // Resolve the threading mode into per-thread (datapath, shard)
        // assignment lists.  PerDatapath spawns one thread per *shard*:
        // that is the whole point of sharding — a saturated datapath
        // scales onto more cores.
        let assignments: Vec<Vec<(usize, usize)>> = match &self.inner.config.threading {
            ThreadingMode::Manual => return Ok(()),
            ThreadingMode::Shared => vec![all_shards(
                &(0..self.inner.plugins.len()).collect::<Vec<_>>(),
            )],
            ThreadingMode::PerDatapath => (0..self.inner.plugins.len())
                .flat_map(|i| (0..nshards).map(move |s| vec![(i, s)]))
                .collect(),
            ThreadingMode::Custom(groups) => {
                let mut assignments: Vec<Vec<(usize, usize)>> = Vec::new();
                let mut covered = vec![false; self.inner.plugins.len()];
                for group in groups {
                    let mut indices = Vec::new();
                    for tech in group {
                        if let Some(idx) = self.inner.plugin_index(*tech) {
                            if !covered[idx] {
                                covered[idx] = true;
                                indices.push(idx);
                            }
                        }
                    }
                    if !indices.is_empty() {
                        assignments.push(all_shards(&indices));
                    }
                }
                // Unmentioned datapaths still need a poller.
                let leftovers: Vec<usize> = covered
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !**c)
                    .map(|(i, _)| i)
                    .collect();
                if !leftovers.is_empty() {
                    let pairs = all_shards(&leftovers);
                    match assignments.first_mut() {
                        Some(first) => first.extend(pairs),
                        None => assignments.push(pairs),
                    }
                }
                assignments
            }
        };
        // Published before the first spawn so every polling loop's
        // liveness check sees the final count (an undercount could make
        // a loop believe user handles are gone while siblings are still
        // being spawned; `Runtime::start`'s own strong handle prevents
        // even that, but exactness is cheap).
        self.inner
            .polling_threads
            .store(assignments.len(), Ordering::Release);
        for (thread_no, pairs) in assignments.into_iter().enumerate() {
            let inner = Arc::clone(&self.inner);
            let name = match pairs.as_slice() {
                [(idx, s)] => {
                    let tech = self.inner.plugins[*idx].technology().name().to_lowercase();
                    if nshards == 1 {
                        format!("insane-{tech}")
                    } else {
                        format!("insane-{tech}-{s}")
                    }
                }
                _ => format!("insane-poll-{thread_no}"),
            };
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || polling_loop(inner, pairs))
                .map_err(|e| {
                    InsaneError::Internal(format!("failed to spawn datapath polling thread: {e}"))
                })?;
            self.inner.threads.lock().push(handle);
        }
        self.inner.started.store(true, Ordering::Release);
        Ok(())
    }

    /// This runtime's unique id.
    pub fn runtime_id(&self) -> u32 {
        self.inner.config.runtime_id
    }

    /// The host this runtime serves.
    pub fn host(&self) -> HostId {
        self.inner.host
    }

    /// The fabric the runtime is attached to.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// Technologies attached to this runtime, in plugin order.
    pub fn available_technologies(&self) -> Vec<Technology> {
        self.inner.available_technologies()
    }

    /// Whether polling threads are running (false in
    /// [`ThreadingMode::Manual`]).
    pub fn is_started(&self) -> bool {
        self.inner.started.load(Ordering::Acquire)
    }

    /// Announces this runtime to a peer runtime on `peer_host`; peers
    /// then exchange subscriptions automatically.
    ///
    /// # Errors
    ///
    /// Propagates control-message send failures.
    pub fn add_peer(&self, peer_host: HostId) -> Result<(), InsaneError> {
        self.inner.send_control(ControlOp::Hello, 0, peer_host)
    }

    /// Runs one polling iteration of the plugin driving `tech` only —
    /// all of its shards, in turn; returns whether any work was done.
    /// Benchmark harnesses use this to drive a single datapath's
    /// critical path inline, the way its dedicated polling threads
    /// would, without serializing the other plugins' idle polls into
    /// the measurement.
    pub fn poll_technology(&self, tech: Technology) -> bool {
        match self.inner.plugin_index(tech) {
            Some(idx) => self.inner.poll_datapath(idx),
            None => false,
        }
    }

    /// Runs one polling iteration of a single shard of the plugin
    /// driving `tech` (sharded manual drive: per-shard measurement
    /// harnesses and tests).  Returns false for an unknown technology
    /// or an out-of-range shard.
    pub fn poll_technology_shard(&self, tech: Technology, shard: usize) -> bool {
        match self.inner.plugin_index(tech) {
            Some(idx) if shard < self.inner.shards[idx].len() => {
                let mut scratch = self.inner.shards[idx][shard].scratch.lock();
                self.inner.poll_datapath_shard(idx, shard, &mut scratch)
            }
            _ => false,
        }
    }

    /// Number of polling shards per datapath this runtime was built
    /// with.
    pub fn shards_per_datapath(&self) -> usize {
        self.inner.config.shards_per_datapath
    }

    /// The currently published runtime tunables.
    pub fn tunables(&self) -> Tunables {
        (*self.inner.tunables.load()).clone()
    }

    /// Publishes new pacing tunables to a live runtime (hot reload, no
    /// restart): every polling shard picks the snapshot up at its next
    /// iteration through the one atomic refresh it already performs.
    /// In-flight messages are unaffected — the knobs only pace future
    /// polling iterations.
    ///
    /// # Errors
    ///
    /// Rejects inconsistent values (see [`Tunables::validate`]) without
    /// publishing anything.
    pub fn reload_tunables(&self, tunables: Tunables) -> Result<(), InsaneError> {
        self.inner.reload_tunables(tunables)
    }

    /// Runs only the transmit half (TX drain → schedule → send) of one
    /// datapath's polling iteration, across all its shards.  Serial
    /// measurement harnesses use this to flush an emitted message to
    /// the wire without charging the receive-poll work that a deployed
    /// polling thread performs concurrently, off the critical path.
    pub fn poll_transmit(&self, tech: Technology) -> bool {
        match self.inner.plugin_index(tech) {
            Some(idx) => self.inner.poll_datapath_tx(idx),
            None => false,
        }
    }

    /// The transmit half of a single shard's polling iteration (see
    /// [`Runtime::poll_transmit`]).
    pub fn poll_transmit_shard(&self, tech: Technology, shard: usize) -> bool {
        match self.inner.plugin_index(tech) {
            Some(idx) if shard < self.inner.shards[idx].len() => {
                let mut scratch = self.inner.shards[idx][shard].scratch.lock();
                self.inner.poll_tx_inner(idx, shard, &mut scratch)
            }
            _ => false,
        }
    }

    /// Runs one polling iteration over every datapath; returns whether
    /// any work was done.  This is the manual-drive entry point.
    pub fn poll_once(&self) -> bool {
        let mut did = false;
        for idx in 0..self.inner.plugins.len() {
            did |= self.inner.poll_datapath(idx);
        }
        if !did {
            self.inner.stats.idle_polls.fetch_add(1, Ordering::Relaxed);
        }
        did
    }

    /// Counters snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Outstanding slots across the runtime pools (diagnostics).
    pub fn slots_in_use(&self) -> usize {
        self.inner.pools.total_in_use()
    }

    /// The full runtime observability snapshot as a JSON string — the
    /// same document the introspection endpoint serves: per-stream
    /// latency histograms, per-datapath counters, runtime counters,
    /// pool occupancy, and fault-injection statistics.
    pub fn telemetry_json(&self) -> String {
        self.inner.introspection_json()
    }

    /// Serves runtime introspection over a Unix-domain socket at
    /// `path` (one request line per connection: `stats` or `ping`).
    /// The serving thread stops with the runtime and removes the
    /// socket file on exit.  `tools/insanectl` is the matching client.
    ///
    /// # Errors
    ///
    /// Fails when the socket cannot be bound or the thread cannot be
    /// spawned.
    pub fn serve_introspection(
        &self,
        path: impl Into<std::path::PathBuf>,
    ) -> Result<(), InsaneError> {
        let handle =
            crate::telemetry::introspection::spawn(Arc::downgrade(&self.inner), path.into())?;
        self.inner.threads.lock().push(handle);
        Ok(())
    }

    /// Stops the polling threads and detaches the devices.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Release);
        let handles: Vec<_> = self.inner.threads.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.inner.started.store(false, Ordering::Release);
    }

    pub(crate) fn inner(&self) -> &Arc<RuntimeInner> {
        &self.inner
    }
}

impl Drop for RuntimeInner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// Iterations between liveness checks in `polling_loop`.  Shutdown via
/// [`Runtime::shutdown`] stays immediate (`stop` is read every
/// iteration); only the detection of a runtime whose user handles were
/// all dropped without a shutdown call is deferred to this cadence.
const LIVENESS_CHECK_EVERY: u32 = 1024;

fn polling_loop(inner: Arc<RuntimeInner>, datapaths: Vec<(usize, usize)>) {
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
    pub(crate) fn available_technologies(&self) -> Vec<Technology> {
        self.plugins.iter().map(|p| p.technology()).collect()
    }

    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn pools(&self) -> &PoolSet {
        &self.pools
    }

    pub(crate) fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    pub(crate) fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Per-stream telemetry handle for a sink on `channel`, rolled up
    /// into `tenant`'s histograms too (inert when telemetry is
    /// disabled or compiled out).
    pub(crate) fn telemetry_stream(
        &self,
        channel: u32,
        class: TrafficClass,
        tenant: TenantId,
    ) -> SinkTel {
        self.telemetry.stream(channel, class, tenant)
    }

    /// Builds the introspection snapshot served over the endpoint and
    /// by [`Runtime::telemetry_json`].
    pub(crate) fn introspection_json(&self) -> String {
        use insane_telemetry::Value;
        let reg = self.telemetry.snapshot();
        // One datapath entry per (plugin, shard), combining the
        // telemetry counters (when recording is enabled) with the
        // health gate and the shard's live scheduler occupancy.
        let nshards = self.config.shards_per_datapath;
        let datapaths: Vec<Value> = self
            .plugins
            .iter()
            .enumerate()
            .flat_map(|(idx, plugin)| {
                let name = plugin.technology().name().to_lowercase();
                let reg = reg.as_ref();
                (0..nshards).map(move |s| {
                    // Registration order in `Runtime::start` is
                    // datapath-major, shard-minor.
                    let counters = reg
                        .and_then(|r| r.datapaths.get(idx * nshards + s))
                        .filter(|d| d.name == name && d.shard == s)
                        .cloned()
                        .unwrap_or_default();
                    let sh = self.shards.get(idx).and_then(|dp| dp.get(s));
                    let queued = sh.map_or(0, |sh| sh.scheduler.lock().len() as u64);
                    let burst = sh.map_or(0, |sh| sh.burst.load(Ordering::Relaxed) as u64);
                    Value::object([
                        ("technology", Value::from(name.clone())),
                        ("shard", Value::from(s as u64)),
                        (
                            "down",
                            Value::Bool(self.plugin_down[idx].load(Ordering::Relaxed)),
                        ),
                        ("tx_messages", Value::from(counters.tx_messages)),
                        ("rx_messages", Value::from(counters.rx_messages)),
                        ("scheduled", Value::from(counters.scheduled)),
                        ("queued", Value::from(queued)),
                        ("burst", Value::from(burst)),
                    ])
                })
            })
            .collect();
        let streams: Vec<Value> = reg
            .as_ref()
            .map(|r| r.streams.iter().map(|s| s.to_json()).collect())
            .unwrap_or_default();
        let pools: Vec<Value> = self
            .pools
            .classes()
            .map(|pool| {
                let stats = pool.stats();
                Value::object([
                    ("slot_size", Value::from(pool.slot_size() as u64)),
                    ("slot_count", Value::from(pool.slot_count() as u64)),
                    ("free_slots", Value::from(pool.free_slots() as u64)),
                    ("in_use", Value::from(stats.in_use as u64)),
                    ("high_water", Value::from(stats.high_water as u64)),
                    ("exhaustions", Value::from(stats.exhaustions)),
                    ("acquires", Value::from(stats.acquires)),
                    ("misuse_rejections", Value::from(stats.misuse_rejections)),
                ])
            })
            .collect();
        // Per-tenant rollup: slot quotas from the memory ledger joined
        // with the admission controller's counters and the telemetry
        // latency rollup (same tenant order is not guaranteed, so join
        // by id; anonymous tenant 0 is included).
        let admission = self.admission.usage();
        let tenants: Vec<Value> = self
            .pools
            .tenant_usage()
            .iter()
            .map(|usage| {
                let adm = admission.iter().find(|a| a.tenant == usage.tenant);
                let lat = reg
                    .as_ref()
                    .and_then(|r| r.tenants.iter().find(|t| t.tenant == usage.tenant));
                Value::object([
                    ("tenant", Value::from(u64::from(usage.tenant))),
                    ("held", Value::from(usage.held as u64)),
                    ("reserved", Value::from(usage.reserved as u64)),
                    ("max", Value::from(usage.max as u64)),
                    ("quota_rejections", Value::from(usage.quota_rejections)),
                    ("admitted", Value::from(adm.map_or(0, |a| a.admitted))),
                    ("rejected", Value::from(adm.map_or(0, |a| a.rejected))),
                    ("shed", Value::from(adm.map_or(0, |a| a.shed))),
                    ("throttled", Value::from(adm.map_or(0, |a| a.throttled))),
                    ("consumed", Value::from(lat.map_or(0, |t| t.consumed))),
                    ("p50_ns", Value::from(lat.map_or(0, |t| t.total.p50_ns))),
                    ("p99_ns", Value::from(lat.map_or(0, |t| t.total.p99_ns))),
                ])
            })
            .collect();
        let f = self.fabric.faults().stats();
        let faults = Value::object([
            ("injected_drops", Value::from(f.injected_drops)),
            ("corruptions", Value::from(f.corruptions)),
            ("duplicates", Value::from(f.duplicates)),
            ("reorders", Value::from(f.reorders)),
            ("link_down_drops", Value::from(f.link_down_drops)),
            ("device_down_drops", Value::from(f.device_down_drops)),
        ]);
        Value::object([
            ("schema", Value::from(insane_telemetry::SNAPSHOT_SCHEMA)),
            ("runtime_id", Value::from(u64::from(self.config.runtime_id))),
            ("host", Value::from(u64::from(self.host.index()))),
            ("timestamp_ns", Value::from(epoch_ns())),
            ("telemetry_enabled", Value::Bool(reg.is_some())),
            (
                "sample_every",
                Value::from(reg.as_ref().map(|r| r.sample_every).unwrap_or(0)),
            ),
            ("counters", self.stats.snapshot().to_json()),
            ("streams", Value::Array(streams)),
            ("datapaths", Value::Array(datapaths)),
            ("pools", Value::Array(pools)),
            ("tenants", Value::Array(tenants)),
            ("faults", faults),
        ])
        .to_string()
    }

    pub(crate) fn is_started(&self) -> bool {
        self.started.load(Ordering::Acquire)
    }

    /// Validates and publishes new tunables, then clamps every shard's
    /// live burst budget into the new bounds (the adaptive controller
    /// only moves by grow/shrink steps, so a budget stranded outside
    /// the new range under steady partial load would never re-enter it
    /// on its own).
    // insane-lint: cold-path -- control-plane reload, not steady state
    pub(crate) fn reload_tunables(&self, tunables: Tunables) -> Result<(), InsaneError> {
        tunables
            .validate()
            .map_err(|e| InsaneError::InvalidConfig(format!("tunables rejected: {e}")))?;
        // Re-arm the time-aware shaper knobs before publishing: the
        // guard band is validated against each live scheduler's gate
        // cycle, and a rejection must leave the snapshot unchanged.
        // (Every shard shares one gate program shape, so the check
        // either passes or fails uniformly.)
        if tunables.tas_guard_band_ns.is_some() || tunables.tas_frame_tx_ns.is_some() {
            let guard = tunables.tas_guard_band_ns.map(Duration::from_nanos);
            let frame_tx = tunables.tas_frame_tx_ns.map(Duration::from_nanos);
            for dp in &self.shards {
                for sh in dp {
                    sh.scheduler
                        .lock()
                        .set_timing(guard, frame_tx)
                        .map_err(|e| {
                            InsaneError::InvalidConfig(format!("tunables rejected: {e}"))
                        })?;
                }
            }
        }
        let (min, max) = (tunables.burst_min, tunables.burst_max);
        self.tunables.publish(Arc::new(tunables));
        for dp in &self.shards {
            for sh in dp {
                let current = sh.burst.load(Ordering::Relaxed);
                let clamped = current.clamp(min, max);
                if clamped != current {
                    sh.burst.store(clamped, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }

    /// Applies an introspection-endpoint `reload` request: each
    /// argument is one `key=value` assignment against the current
    /// tunables snapshot; the batch publishes atomically or not at all.
    /// Returns a human-readable summary of the published snapshot.
    // insane-lint: cold-path -- control-plane reload, not steady state
    pub(crate) fn reload_from_kv(&self, pairs: &str) -> Result<String, String> {
        let mut next = (*self.tunables.load()).clone();
        let mut applied = 0u32;
        for pair in pairs.split_whitespace() {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
            next.apply_kv(key, value)?;
            applied += 1;
        }
        if applied == 0 {
            return Err("reload requires at least one key=value argument".into());
        }
        let fmt_opt = |v: Option<u64>| v.map_or_else(|| "-".into(), |n| n.to_string());
        let summary = format!(
            "reloaded {applied} tunable(s): burst_min={} burst_max={} idle_yield_after={} idle_sleep_after={} idle_sleep_us={} tas_guard_band_ns={} tas_frame_tx_ns={}",
            next.burst_min, next.burst_max, next.idle_yield_after, next.idle_sleep_after, next.idle_sleep_us,
            fmt_opt(next.tas_guard_band_ns), fmt_opt(next.tas_frame_tx_ns)
        );
        self.reload_tunables(next).map_err(|e| e.to_string())?;
        Ok(summary)
    }

    fn plugin_index(&self, tech: Technology) -> Option<usize> {
        self.plugins.iter().position(|p| p.technology() == tech)
    }

    pub(crate) fn plugin_for(
        &self,
        tech: Technology,
    ) -> Result<&Arc<dyn DatapathPlugin>, InsaneError> {
        self.plugin_index(tech)
            .map(|idx| &self.plugins[idx])
            .ok_or_else(|| {
                InsaneError::Internal(format!("technology {} is not attached", tech.name()))
            })
    }

    /// Maps a QoS policy and registers the resulting stream, owned by
    /// `tenant`.
    pub(crate) fn create_stream(
        &self,
        qos: QosPolicy,
        tenant: TenantId,
    ) -> Result<Arc<StreamShared>, InsaneError> {
        if self.is_stopped() {
            return Err(InsaneError::Closed);
        }
        let available = self.available_technologies();
        let mapped: MappedPath = self.config.mapping.map(&qos, &available);
        if mapped.fallback {
            self.stats.fallback_streams.fetch_add(1, Ordering::Relaxed);
        }
        let stream = Arc::new(StreamShared {
            id: self.next_id(),
            qos,
            mapped,
            tenant,
            tx: insane_queues::MpmcQueue::new(self.config.tx_queue_depth),
            seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        self.streams.register(Arc::clone(&stream));
        Ok(stream)
    }

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
    fn send_control(&self, op: ControlOp, channel: u32, dst: HostId) -> Result<(), InsaneError> {
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
        let view = self.pools.view(guard.into_token())?;
        let mut burst = vec![WireMsg {
            view,
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
    fn control_tick(&self) -> bool {
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
    fn handle_control(&self, msg: &InboundMsg) {
        self.stats.control_messages.fetch_add(1, Ordering::Relaxed);
        let payload = &msg.store.bytes()[msg.payload_offset..];
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
    fn poll_tx_inner(&self, idx: usize, shard: usize, scratch: &mut Scratch) -> bool {
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

/// Polls a set of runtimes until none reports work for `settle` straight
/// rounds (or `max_iters` is hit).  Useful for tests and the manual-drive
/// benchmark harness to let control-plane traffic converge.
pub fn poll_until_quiescent(runtimes: &[&Runtime], max_iters: usize) {
    let settle = 8;
    let mut quiet = 0;
    for _ in 0..max_iters {
        let mut did = false;
        for rt in runtimes {
            did |= rt.poll_once();
        }
        if did {
            quiet = 0;
        } else {
            quiet += 1;
            if quiet >= settle {
                return;
            }
        }
    }
}
