//! The INSANE runtime: memory manager, packet scheduler, polling threads,
//! and datapath plugins (§5.3, Fig. 3).
//!
//! One runtime serves every application on its host.  Applications attach
//! through [`crate::Session`]; emitted messages travel as slot ids over
//! lock-free queues; the polling threads move them through the scheduler
//! onto the datapath mapped by each stream's QoS, and dispatch incoming
//! messages to the subscribed sinks — co-located sinks directly through
//! shared memory, without touching any network device.

mod config;
mod control;
pub(crate) mod dispatch;
mod engine;
pub(crate) mod internals;
pub(crate) mod plugins;
pub mod shard;
pub mod tunables;

pub use config::{ControlPlaneConfig, RuntimeConfig, SchedulerChoice, TenantSpec, ThreadingMode};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use insane_fabric::{Endpoint, Fabric, HostId, Technology};
use insane_memory::{PoolSet, PoolSetBuilder, TenantId};
use insane_queues::SnapshotCell;
use insane_tsn::{FifoScheduler, GateControlList, Scheduler, TasScheduler, TrafficClass};
use parking_lot::Mutex;

use crate::admission::{AdmissionController, TenantRate};
use crate::qos::{MappedPath, QosPolicy};
use crate::runtime::control::ControlPlane;
use crate::runtime::dispatch::{ControlOp, Dispatcher};
use crate::runtime::engine::{polling_loop, BoxedScheduler, DatapathShard, HopCosts};
use crate::runtime::internals::{StreamRegistry, StreamShared};
use crate::runtime::plugins::{
    tech_port_offset, DatapathPlugin, DpdkPlugin, RdmaPlugin, UdpPlugin, XdpPlugin,
};
use crate::runtime::tunables::Tunables;
use crate::stats::{RuntimeStats, StatsSnapshot};
use crate::telemetry::{RuntimeTelemetry, SinkTel};
use crate::tenant_drr::TenantDrr;
use crate::{InsaneError, PAYLOAD_OFFSET};

pub(crate) struct RuntimeInner {
    config: RuntimeConfig,
    pub(crate) fabric: Fabric,
    pub(crate) host: HostId,
    pools: PoolSet,
    /// Per-tenant token-bucket admission (inert with no tenants).
    admission: AdmissionController,
    pub(crate) plugins: Vec<Arc<dyn DatapathPlugin>>,
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
    pub(crate) tunables: SnapshotCell<Tunables>,
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
    pub(crate) plugin_down: Vec<AtomicBool>,
    /// The fabric endpoint probed to decide each plugin's health.
    health_eps: Vec<Endpoint>,
    control: Mutex<ControlPlane>,
    /// Latency-recording root (inert when disabled).
    pub(crate) telemetry: RuntimeTelemetry,
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
                dp_shards.push(DatapathShard::new(
                    Self::build_scheduler(&config)?,
                    config.burst.max(1),
                ));
            }
            shards.push(dp_shards);
        }
        let rx_claim = plugins.iter().map(|_| Mutex::new(())).collect::<Vec<_>>();

        let hops = HopCosts {
            per_burst_ns: 40,
            per_token_ns: 20,
            scale_pct: fabric.profile().runtime_scale_pct,
        };

        let control = ControlPlane::new(config.control.heartbeat_interval);
        let plugin_down = plugins.iter().map(|_| AtomicBool::new(false)).collect();
        let telemetry = RuntimeTelemetry::new(&config.telemetry);
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
            Some(idx) => self.inner.drive_datapath(idx, false),
            None => false,
        }
    }

    /// Runs one polling iteration of a single shard of the plugin
    /// driving `tech` (sharded manual drive: per-shard measurement
    /// harnesses and tests).  Returns false for an unknown technology
    /// or an out-of-range shard.
    pub fn poll_technology_shard(&self, tech: Technology, shard: usize) -> bool {
        match self.inner.plugin_index(tech) {
            Some(idx) if shard < self.inner.config.shards_per_datapath => {
                self.inner.drive_shard(idx, shard, false)
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
            Some(idx) => self.inner.drive_datapath(idx, true),
            None => false,
        }
    }

    /// Runs one polling iteration over every datapath; returns whether
    /// any work was done.  This is the manual-drive entry point.
    pub fn poll_once(&self) -> bool {
        let mut did = false;
        for idx in 0..self.inner.plugins.len() {
            did |= self.inner.drive_datapath(idx, false);
        }
        if !did {
            self.inner.stats.idle_polls.fetch_add(1, Ordering::Relaxed);
        }
        did
    }

    /// Counters snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
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

    pub(crate) fn is_started(&self) -> bool {
        self.started.load(Ordering::Acquire)
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
