//! Runtime configuration: threading layout, scheduler strategy,
//! control-plane timing, tenants, and the [`RuntimeConfig`] builders.

use std::sync::Arc;
use std::time::Duration;

use insane_fabric::Technology;
use insane_memory::{TenantId, TenantQuota};

use crate::admission::{OverloadPolicy, TenantRate};
use crate::qos::{DefaultMapping, MappingStrategy};
use crate::telemetry::TelemetryConfig;

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
    /// No threads: the caller drives [`crate::Runtime::poll_once`] explicitly.
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
    /// tenant; duplicates are rejected at [`crate::Runtime::start`].
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
