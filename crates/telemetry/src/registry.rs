//! The telemetry registry: owns every per-stream and per-tenant
//! recorder bundle and turns them into plain-data snapshots.
//!
//! The registry lock is only taken when a stream or tenant is
//! registered or a snapshot is requested — never on the record path.
//! Hot-path callers hold an `Arc` to their own [`StreamTelemetry`] /
//! [`TenantTelemetry`] and record through lock-free atomics.
//!
//! A bundle stores only what its snapshot reads, once.  `consumed` is
//! the one event count: the value its `fetch_add` returns numbers the
//! message, which decides the 1-in-N sampling, and `sampled` is the
//! `total` histogram's count, read when a snapshot is taken.  What one
//! [`StreamTelemetry::observe`] plus one
//! [`TenantTelemetry::observe_total`] costs is therefore countable:
//! recorded (every message at the default 1-in-1) it is 20 relaxed
//! atomic RMWs — 1 + 5 histograms × 3 for the stream, 1 + 3 for the
//! tenant — and 2 thread-local lookups; sampled out it is the two
//! `consumed` RMWs, two remainders and the budget compare.  Whether
//! recording happens at all is not decided here: a runtime with
//! telemetry off builds no `Registry`.

use crate::hist::{shard_of_thread, ShardedHistogram, Summary};
use crate::json::Value;
use crate::recorder::Counter;
use std::sync::{Arc, RwLock};

/// One latency observation, broken into the Fig. 6 pipeline components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakdownSample {
    /// Emit → wire (sender-side middleware + datapath TX).
    pub send_ns: u64,
    /// Time on the wire.
    pub network_ns: u64,
    /// Wire end → sink queue (receiver-side RX + dispatch).
    pub receive_ns: u64,
    /// Sink queue → consume (application-side delay).
    pub processing_ns: u64,
}

impl BreakdownSample {
    /// Total one-way latency of the observation.
    pub fn total_ns(&self) -> u64 {
        self.send_ns
            .saturating_add(self.network_ns)
            .saturating_add(self.receive_ns)
            .saturating_add(self.processing_ns)
    }
}

/// Whether event number `n` (counted from 0) is one of the 1-in-`period`
/// recorded into histograms: exactly every `period`-th, so a sampled
/// histogram sees a representative slice of the distribution rather
/// than a bursty prefix.  A period of 0 records nothing, 1 everything.
fn is_sampled(n: u64, period: u64) -> bool {
    period != 0 && n.is_multiple_of(period)
}

/// Recorder bundle for one stream (keyed by channel).
#[derive(Debug)]
pub struct StreamTelemetry {
    channel: u32,
    class: String,
    /// Latency budget; 0 means no budget is enforced.
    budget_ns: u64,
    sample_every: u64,
    /// Messages consumed on this stream (counted even when sampled out).
    pub consumed: Counter,
    /// Consumed messages whose total latency exceeded the QoS budget.
    pub budget_violations: Counter,
    total: ShardedHistogram,
    send: ShardedHistogram,
    network: ShardedHistogram,
    receive: ShardedHistogram,
    processing: ShardedHistogram,
}

impl StreamTelemetry {
    fn new(channel: u32, class: &str, budget_ns: u64, sample_every: u64) -> Self {
        Self {
            channel,
            class: class.to_string(),
            budget_ns,
            sample_every,
            consumed: Counter::new(),
            budget_violations: Counter::new(),
            total: ShardedHistogram::new(),
            send: ShardedHistogram::new(),
            network: ShardedHistogram::new(),
            receive: ShardedHistogram::new(),
            processing: ShardedHistogram::new(),
        }
    }

    /// Traffic-class label (`best-effort`, `tc5`, …).
    pub fn class(&self) -> &str {
        &self.class
    }

    /// Records one consumed-message latency breakdown.
    ///
    /// The consume counter and budget check run on every call; the
    /// histograms only absorb every `sample_every`-th observation (the
    /// module docs count what either case costs).
    pub fn observe(&self, sample: &BreakdownSample) {
        let n = self.consumed.incr();
        let total = sample.total_ns();
        if self.budget_ns > 0 && total > self.budget_ns {
            self.budget_violations.incr();
        }
        if !is_sampled(n, self.sample_every) {
            return;
        }
        let shard = shard_of_thread();
        self.total.record_in(shard, total);
        self.send.record_in(shard, sample.send_ns);
        self.network.record_in(shard, sample.network_ns);
        self.receive.record_in(shard, sample.receive_ns);
        self.processing.record_in(shard, sample.processing_ns);
    }

    /// Plain-data snapshot of this stream's recorders.
    pub fn snapshot(&self) -> StreamSnapshot {
        let total = self.total.snapshot().summary();
        StreamSnapshot {
            channel: self.channel,
            class: self.class.clone(),
            budget_ns: self.budget_ns,
            consumed: self.consumed.get(),
            sampled: total.count,
            budget_violations: self.budget_violations.get(),
            total,
            send: self.send.snapshot().summary(),
            network: self.network.snapshot().summary(),
            receive: self.receive.snapshot().summary(),
            processing: self.processing.snapshot().summary(),
        }
    }
}

/// Recorder bundle for one tenant: end-to-end latency rollup across
/// every stream the tenant consumes on, plus a consume counter.  The
/// tenant id is a plain `u16` so this crate stays free of middleware
/// dependencies; tenant 0 is the anonymous default tenant.
#[derive(Debug)]
pub struct TenantTelemetry {
    tenant: u16,
    sample_every: u64,
    /// Messages consumed by this tenant (counted even when sampled out).
    pub consumed: Counter,
    total: ShardedHistogram,
}

impl TenantTelemetry {
    fn new(tenant: u16, sample_every: u64) -> Self {
        Self {
            tenant,
            sample_every,
            consumed: Counter::new(),
            total: ShardedHistogram::new(),
        }
    }

    /// Tenant these recorders belong to.
    pub fn tenant(&self) -> u16 {
        self.tenant
    }

    /// Records one consumed-message end-to-end latency for this tenant.
    pub fn observe_total(&self, total_ns: u64) {
        if is_sampled(self.consumed.incr(), self.sample_every) {
            self.total.record(total_ns);
        }
    }

    /// Plain-data snapshot of this tenant's recorders.
    pub fn snapshot(&self) -> TenantSnapshot {
        let total = self.total.snapshot().summary();
        TenantSnapshot {
            tenant: self.tenant,
            consumed: self.consumed.get(),
            sampled: total.count,
            total,
        }
    }
}

/// Root of the telemetry tree for one runtime.
#[derive(Debug)]
pub struct Registry {
    sample_every: u64,
    streams: RwLock<Vec<Arc<StreamTelemetry>>>,
    tenants: RwLock<Vec<Arc<TenantTelemetry>>>,
}

impl Registry {
    /// Creates a registry sampling every `sample_every`-th observation
    /// into histograms (1 = everything, 0 = nothing).
    pub fn new(sample_every: u64) -> Self {
        Self {
            sample_every,
            streams: RwLock::new(Vec::new()),
            tenants: RwLock::new(Vec::new()),
        }
    }

    /// Returns the recorder bundle for `channel`, creating it on first
    /// use. Callers cache the returned `Arc`; this lock is never taken
    /// per message.
    pub fn stream(&self, channel: u32, class: &str, budget_ns: u64) -> Arc<StreamTelemetry> {
        if let Ok(streams) = self.streams.read() {
            if let Some(s) = streams.iter().find(|s| s.channel == channel) {
                return Arc::clone(s);
            }
        }
        let mut streams = match self.streams.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(s) = streams.iter().find(|s| s.channel == channel) {
            return Arc::clone(s);
        }
        let s = Arc::new(StreamTelemetry::new(
            channel,
            class,
            budget_ns,
            self.sample_every,
        ));
        streams.push(Arc::clone(&s));
        s
    }

    /// Returns the recorder bundle for `tenant`, creating it on first
    /// use. Callers cache the returned `Arc`; this lock is never taken
    /// per message.
    pub fn tenant(&self, tenant: u16) -> Arc<TenantTelemetry> {
        if let Ok(tenants) = self.tenants.read() {
            if let Some(t) = tenants.iter().find(|t| t.tenant == tenant) {
                return Arc::clone(t);
            }
        }
        let mut tenants = match self.tenants.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(t) = tenants.iter().find(|t| t.tenant == tenant) {
            return Arc::clone(t);
        }
        let t = Arc::new(TenantTelemetry::new(tenant, self.sample_every));
        tenants.push(Arc::clone(&t));
        t
    }

    /// Snapshots every stream and tenant into plain data.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let streams = match self.streams.read() {
            Ok(g) => g.iter().map(|s| s.snapshot()).collect(),
            Err(_) => Vec::new(),
        };
        let tenants = match self.tenants.read() {
            Ok(g) => g.iter().map(|t| t.snapshot()).collect(),
            Err(_) => Vec::new(),
        };
        RegistrySnapshot {
            sample_every: self.sample_every,
            streams,
            tenants,
        }
    }
}

/// Plain-data snapshot of a whole [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Histogram sampling period.
    pub sample_every: u64,
    /// Per-stream recorder snapshots.
    pub streams: Vec<StreamSnapshot>,
    /// Per-tenant recorder snapshots.
    pub tenants: Vec<TenantSnapshot>,
}

/// Plain-data snapshot of one stream's recorders.
#[derive(Debug, Clone, Default)]
pub struct StreamSnapshot {
    /// Channel id.
    pub channel: u32,
    /// Traffic-class label.
    pub class: String,
    /// Latency budget (0 = none).
    pub budget_ns: u64,
    /// Messages consumed.
    pub consumed: u64,
    /// Observations recorded into histograms (`total.count`).
    pub sampled: u64,
    /// Budget violations.
    pub budget_violations: u64,
    /// End-to-end latency summary.
    pub total: Summary,
    /// Send-component summary.
    pub send: Summary,
    /// Network-component summary.
    pub network: Summary,
    /// Receive-component summary.
    pub receive: Summary,
    /// Processing-component summary.
    pub processing: Summary,
}

/// Plain-data snapshot of one tenant's recorders.
#[derive(Debug, Clone, Default)]
pub struct TenantSnapshot {
    /// Tenant id (0 = the anonymous default tenant).
    pub tenant: u16,
    /// Messages consumed by the tenant.
    pub consumed: u64,
    /// Observations recorded into the histogram (`total.count`).
    pub sampled: u64,
    /// End-to-end latency summary across all the tenant's streams.
    pub total: Summary,
}

fn summary_json(s: &Summary) -> Value {
    Value::object([
        ("count", Value::from(s.count)),
        ("p50_ns", Value::from(s.p50_ns)),
        ("p90_ns", Value::from(s.p90_ns)),
        ("p99_ns", Value::from(s.p99_ns)),
        ("p999_ns", Value::from(s.p999_ns)),
        ("mean_ns", Value::from(s.mean_ns)),
        ("max_ns", Value::from(s.max_ns)),
    ])
}

impl StreamSnapshot {
    /// JSON form, as served by the introspection endpoint.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("channel", Value::from(u64::from(self.channel))),
            ("class", Value::from(self.class.as_str())),
            ("budget_ns", Value::from(self.budget_ns)),
            ("consumed", Value::from(self.consumed)),
            ("sampled", Value::from(self.sampled)),
            ("budget_violations", Value::from(self.budget_violations)),
            ("total", summary_json(&self.total)),
            ("send", summary_json(&self.send)),
            ("network", summary_json(&self.network)),
            ("receive", summary_json(&self.receive)),
            ("processing", summary_json(&self.processing)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_registry_is_get_or_create() {
        let reg = Registry::new(1);
        let a = reg.stream(7, "best-effort", 0);
        let b = reg.stream(7, "ignored-on-second-call", 123);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.class(), "best-effort");
        assert_eq!(reg.snapshot().streams.len(), 1);
    }

    #[test]
    fn observe_records_breakdown_and_violations() {
        let reg = Registry::new(1);
        let s = reg.stream(1, "tc6", 1_000);
        s.observe(&BreakdownSample {
            send_ns: 100,
            network_ns: 200,
            receive_ns: 50,
            processing_ns: 25,
        });
        s.observe(&BreakdownSample {
            send_ns: 900,
            network_ns: 900,
            ..Default::default()
        });
        let snap = s.snapshot();
        assert_eq!(snap.consumed, 2);
        assert_eq!(snap.sampled, 2);
        assert_eq!(snap.budget_violations, 1);
        assert_eq!(snap.total.count, 2);
        assert_eq!(snap.total.max_ns, 1_800);
    }

    #[test]
    fn sampling_thins_histograms_but_not_counters() {
        let reg = Registry::new(10);
        let s = reg.stream(2, "best-effort", 0);
        for _ in 0..100 {
            s.observe(&BreakdownSample {
                send_ns: 10,
                ..Default::default()
            });
        }
        let snap = s.snapshot();
        assert_eq!(snap.consumed, 100);
        assert_eq!(snap.sampled, 10);
        assert_eq!(snap.total.count, 10);
    }

    #[test]
    fn sampling_period_edge_cases() {
        // 0 records nothing, 1 everything, N exactly every N-th
        // starting with the first.
        assert!((0..10).all(|n| !is_sampled(n, 0)));
        assert!((0..10).all(|n| is_sampled(n, 1)));
        assert_eq!((0..100).filter(|&n| is_sampled(n, 4)).count(), 25);
        assert!(is_sampled(0, 4) && !is_sampled(1, 4));

        let off = Registry::new(0);
        let s = off.stream(3, "tc7", 1);
        let t = off.tenant(3);
        s.observe(&BreakdownSample {
            send_ns: 10,
            ..Default::default()
        });
        t.observe_total(10);
        let (s, t) = (s.snapshot(), t.snapshot());
        assert_eq!((s.consumed, s.sampled, s.budget_violations), (1, 0, 1));
        assert_eq!((t.consumed, t.sampled), (1, 0));
    }

    #[test]
    fn concurrent_observers_sample_exactly_one_in_n() {
        // The tick is the value `consumed`'s own `fetch_add` returns, so
        // however four threads interleave, message numbers 0, 3, 6, …
        // are each recorded once — into every histogram of the bundle.
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 10_000;
        let reg = Registry::new(3);
        let s = reg.stream(4, "best-effort", 0);
        let t = reg.tenant(4);
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..PER_THREAD {
                        let sample = BreakdownSample {
                            send_ns: 10,
                            network_ns: 20,
                            receive_ns: 30,
                            processing_ns: 40,
                        };
                        s.observe(&sample);
                        t.observe_total(sample.total_ns());
                    }
                });
            }
        });
        let expected = (THREADS * PER_THREAD).div_ceil(3);
        let snap = s.snapshot();
        assert_eq!(snap.consumed, THREADS * PER_THREAD);
        assert_eq!(snap.sampled, expected);
        for part in [
            snap.total,
            snap.send,
            snap.network,
            snap.receive,
            snap.processing,
        ] {
            assert_eq!(part.count, snap.sampled);
        }
        let tenant = t.snapshot();
        assert_eq!(tenant.consumed, THREADS * PER_THREAD);
        assert_eq!((tenant.sampled, tenant.total.count), (expected, expected));
    }

    #[test]
    fn tenant_registry_is_get_or_create_and_rolls_up() {
        let reg = Registry::new(1);
        let a = reg.tenant(4);
        let b = reg.tenant(4);
        assert!(Arc::ptr_eq(&a, &b));
        a.observe_total(1_000);
        b.observe_total(3_000);
        let snap = reg.snapshot();
        assert_eq!(snap.tenants.len(), 1);
        assert_eq!(snap.tenants[0].tenant, 4);
        assert_eq!(snap.tenants[0].consumed, 2);
        assert_eq!(snap.tenants[0].total.count, 2);
        assert_eq!(snap.tenants[0].total.max_ns, 3_000);
    }

    #[test]
    fn stream_snapshot_serializes() {
        let reg = Registry::new(1);
        reg.stream(9, "tc7", 500);
        let json = reg.snapshot().streams[0].to_json().to_string();
        assert!(json.contains("\"channel\":9"));
        assert!(json.contains("\"budget_ns\":500"));
        assert!(json.contains("\"p999_ns\""));
    }
}
