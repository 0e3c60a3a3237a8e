//! Runtime telemetry glue: configuration, recorder handles, and the
//! introspection endpoint plumbing.
//!
//! Latency recording sits behind one thin wrapper, [`SinkTel`], that
//! forwards to `insane-telemetry` recorders when recording is enabled
//! ([`TelemetryConfig::enabled`]) and is inert otherwise: the switch is
//! a run-time one, so call sites in the runtime and client library are
//! identical either way.  Counters do not depend on the switch: each
//! polling shard counts what crosses it, the runtime and the pools
//! count the rest, and the introspection document reads them all where
//! they live.
//!
//! The span points instrumented across the stack:
//!
//! * **lend** — `Source::get_buffer`; accounted by the memory pools
//!   (`PoolStats::acquires` / occupancy), surfaced per pool in the
//!   snapshot.
//! * **emit** — `MessageMeta::emit_ns`, stamped by `Source::emit`.
//! * **tx** — `MessageMeta::wire_start_ns`, stamped when a datapath
//!   plugin puts the frame on the wire; per-shard `tx_messages` /
//!   `scheduled` / per-class `gate_deferrals` counters.
//! * **rx** — wire end, derived from the receive timestamp and modeled
//!   wire time; per-shard `rx_messages` counters.
//! * **consume** — `Sink::consume` (or the sink callback), where the
//!   [`LatencyBreakdown`] is computed and recorded into the stream's
//!   histograms.

use std::time::Duration;

/// Runtime telemetry configuration (part of
/// [`RuntimeConfig`](crate::RuntimeConfig)).
///
/// `enabled: false` skips recorder creation entirely: the per-message
/// cost is one `Option` check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch for recorder creation.
    pub enabled: bool,
    /// Histogram sampling period: every `sample_every`-th consumed
    /// message is recorded into latency histograms (1 = all, 0 =
    /// none). Counters and budget checks always run.
    pub sample_every: u64,
    /// Latency budget applied to time-sensitive streams (traffic class
    /// above best effort): consumed messages whose total one-way
    /// latency exceeds it count as QoS-budget violations. 0 disables
    /// budget checking.
    pub latency_budget_ns: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            sample_every: 1,
            latency_budget_ns: 0,
        }
    }
}

impl TelemetryConfig {
    /// A configuration with recording switched off.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Sets the histogram sampling period (1 = record everything).
    pub fn with_sample_every(mut self, period: u64) -> Self {
        self.sample_every = period;
        self
    }

    /// Sets the QoS latency budget for time-sensitive streams.
    pub fn with_latency_budget(mut self, budget: Duration) -> Self {
        self.latency_budget_ns = budget.as_nanos().min(u64::MAX as u128) as u64;
        self
    }
}

mod glue {
    use super::TelemetryConfig;
    use crate::stats::{LatencyBreakdown, MessageMeta};
    use insane_telemetry::{
        BreakdownSample, Registry, RegistrySnapshot, StreamTelemetry, TenantTelemetry,
    };
    use insane_tsn::TrafficClass;
    use std::sync::Arc;

    /// Per-runtime telemetry root (real implementation).
    #[derive(Debug)]
    pub(crate) struct RuntimeTelemetry {
        registry: Option<Arc<Registry>>,
        budget_ns: u64,
    }

    impl RuntimeTelemetry {
        pub(crate) fn new(cfg: &TelemetryConfig) -> Self {
            Self {
                registry: cfg
                    .enabled
                    .then(|| Arc::new(Registry::new(cfg.sample_every))),
                budget_ns: cfg.latency_budget_ns,
            }
        }

        /// Returns (creating on first use) the per-stream recorder
        /// handle for `channel`, paired with the consuming `tenant`'s
        /// rollup recorder. The handle is cached by the caller; no
        /// lock is taken per message.
        pub(crate) fn stream(
            &self,
            channel: u32,
            class: TrafficClass,
            tenant: insane_memory::TenantId,
        ) -> SinkTel {
            SinkTel(self.registry.as_ref().map(|reg| {
                let best_effort = class == TrafficClass::BEST_EFFORT;
                let label = if best_effort {
                    "best-effort".to_string()
                } else {
                    format!("tc{}", class.value())
                };
                let budget = if best_effort { 0 } else { self.budget_ns };
                (reg.stream(channel, &label, budget), reg.tenant(tenant))
            }))
        }

        /// Snapshot of every stream/tenant recorder (None when
        /// recording is disabled).
        pub(crate) fn snapshot(&self) -> Option<RegistrySnapshot> {
            self.registry.as_ref().map(|reg| reg.snapshot())
        }
    }

    /// Per-stream recorder handle cached in each sink's shared state,
    /// paired with the owning tenant's cross-stream rollup.
    #[derive(Debug)]
    pub(crate) struct SinkTel(Option<(Arc<StreamTelemetry>, Arc<TenantTelemetry>)>);

    impl SinkTel {
        /// A disconnected handle (used by runtime unit tests).
        #[allow(dead_code)]
        pub(crate) fn none() -> Self {
            SinkTel(None)
        }

        /// Records one consumed message into the stream's breakdown
        /// histograms and the tenant's end-to-end rollup. The breakdown
        /// is only computed when a recorder is attached.
        pub(crate) fn observe(&self, meta: &MessageMeta, consumed_ns: u64) {
            if let Some((stream, tenant)) = &self.0 {
                // A message straight off a sink has no fragment wait:
                // that residue exists only on the copy a reassembler
                // (Lunar's frames) attributes after consume.
                let b = LatencyBreakdown::from_meta(meta, consumed_ns);
                let sample = BreakdownSample {
                    send_ns: b.send_ns,
                    network_ns: b.network_ns,
                    receive_ns: b.receive_ns,
                    processing_ns: b.processing_ns,
                };
                stream.observe(&sample);
                tenant.observe_total(sample.total_ns());
            }
        }
    }
}

pub(crate) use glue::{RuntimeTelemetry, SinkTel};

/// The Unix-domain-socket introspection server.
///
/// Protocol: one request line per connection; the server answers with
/// one JSON line and closes. `stats` (or an empty line) returns the
/// full runtime snapshot; `ping` returns a liveness probe;
/// `reload key=value ...` hot-reloads runtime tunables (DESIGN.md
/// §12); anything else gets a JSON error.
pub(crate) mod introspection {
    use crate::runtime::RuntimeInner;
    use crate::{epoch_ns, InsaneError};
    use insane_ipc::uds::{bind_guarded, BoundSocket};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;
    use std::sync::atomic::Ordering;
    use std::sync::Weak;
    use std::time::Duration;

    /// Binds `path` and spawns the accept-loop thread. The thread
    /// exits when the runtime stops or is dropped, and removes the
    /// socket file on the way out.
    ///
    /// Binding goes through the shared guarded UDS lifecycle
    /// (`insane_ipc::uds`): a stale file left by a crashed process is
    /// probed and unlinked (never blindly evicted from under a live
    /// runtime), the file is restricted to `0600`, and the
    /// [`BoundSocket`] guard removes it on clean shutdown.
    pub(crate) fn spawn(
        weak: Weak<RuntimeInner>,
        path: PathBuf,
    ) -> Result<std::thread::JoinHandle<()>, InsaneError> {
        let bound = bind_guarded(&path).map_err(|e| {
            InsaneError::Internal(format!(
                "introspection endpoint bind on {} failed: {e}",
                path.display()
            ))
        })?;
        bound.listener().set_nonblocking(true).map_err(|e| {
            InsaneError::Internal(format!("introspection endpoint configuration failed: {e}"))
        })?;
        std::thread::Builder::new()
            .name("insane-introspect".to_string())
            .spawn(move || accept_loop(weak, bound))
            .map_err(|e| {
                InsaneError::Internal(format!("failed to spawn introspection thread: {e}"))
            })
    }

    fn accept_loop(weak: Weak<RuntimeInner>, bound: BoundSocket) {
        loop {
            let Some(inner) = weak.upgrade() else { break };
            if inner.is_stopped() {
                break;
            }
            match bound.listener().accept() {
                Ok((stream, _)) => serve_one(&inner, stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    drop(inner);
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => {
                    drop(inner);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        // `bound` drops here, unlinking the socket file.
    }

    impl RuntimeInner {
        /// Builds the introspection snapshot served over the endpoint and
        /// by [`Runtime::telemetry_json`].
        pub(crate) fn introspection_json(&self) -> String {
            use insane_telemetry::Value;
            let reg = self.telemetry.snapshot();
            // One datapath entry per (plugin, shard), read from the shard
            // it describes: its counters (live whether or not latency
            // recording is on), the plugin's health gate and the shard's
            // scheduler occupancy.
            let nshards = self.config().shards_per_datapath;
            let datapaths: Vec<Value> = self
                .plugins
                .iter()
                .enumerate()
                .flat_map(|(idx, plugin)| {
                    let name = plugin.technology().name().to_lowercase();
                    (0..nshards).map(move |s| {
                        let row = self.shard_snapshot(idx, s);
                        Value::object([
                            ("technology", Value::from(name.clone())),
                            ("shard", Value::from(s as u64)),
                            (
                                "down",
                                Value::Bool(self.plugin_down[idx].load(Ordering::Relaxed)),
                            ),
                            ("tx_messages", Value::from(row.tx_messages)),
                            ("rx_messages", Value::from(row.rx_messages)),
                            ("scheduled", Value::from(row.scheduled)),
                            (
                                "gate_deferrals",
                                Value::Array(
                                    row.gate_deferrals.iter().map(|&n| Value::from(n)).collect(),
                                ),
                            ),
                            ("queued", Value::from(row.queued)),
                            ("burst", Value::from(row.burst)),
                        ])
                    })
                })
                .collect();
            let streams: Vec<Value> = reg
                .as_ref()
                .map(|r| r.streams.iter().map(|s| s.to_json()).collect())
                .unwrap_or_default();
            let pools: Vec<Value> = self
                .pools()
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
            let admission = self.admission().usage();
            let tenants: Vec<Value> = self
                .pools()
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
                (
                    "runtime_id",
                    Value::from(u64::from(self.config().runtime_id)),
                ),
                ("host", Value::from(u64::from(self.host.index()))),
                ("timestamp_ns", Value::from(epoch_ns())),
                ("telemetry_enabled", Value::Bool(reg.is_some())),
                (
                    "sample_every",
                    Value::from(reg.as_ref().map(|r| r.sample_every).unwrap_or(0)),
                ),
                ("counters", self.stats_snapshot().to_json()),
                ("streams", Value::Array(streams)),
                ("datapaths", Value::Array(datapaths)),
                ("pools", Value::Array(pools)),
                ("tenants", Value::Array(tenants)),
                ("faults", faults),
            ])
            .to_string()
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
    }

    fn serve_one(inner: &RuntimeInner, stream: UnixStream) {
        // The accepted stream inherits non-blocking from the listener;
        // switch to blocking reads with a timeout so a slow client
        // cannot wedge the endpoint.
        if stream.set_nonblocking(false).is_err() {
            return;
        }
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        if reader.read_line(&mut line).is_err() {
            return;
        }
        let response = match line.trim() {
            "" | "stats" => inner.introspection_json(),
            "ping" => "{\"ok\":true}".to_string(),
            reload if reload == "reload" || reload.starts_with("reload ") => {
                match inner.reload_from_kv(reload.strip_prefix("reload").unwrap_or_default()) {
                    Ok(summary) => insane_telemetry::Value::object([
                        ("ok", insane_telemetry::Value::Bool(true)),
                        ("reloaded", insane_telemetry::Value::from(summary)),
                    ])
                    .to_string(),
                    Err(e) => insane_telemetry::Value::object([(
                        "error",
                        insane_telemetry::Value::from(format!("reload rejected: {e}")),
                    )])
                    .to_string(),
                }
            }
            other => insane_telemetry::Value::object([(
                "error",
                insane_telemetry::Value::from(format!("unknown request {other:?}")),
            )])
            .to_string(),
        };
        let mut stream = reader.into_inner();
        let _ = stream.write_all(response.as_bytes());
        let _ = stream.write_all(b"\n");
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let cfg = TelemetryConfig::default()
            .with_sample_every(8)
            .with_latency_budget(Duration::from_micros(150));
        assert!(cfg.enabled);
        assert_eq!(cfg.sample_every, 8);
        assert_eq!(cfg.latency_budget_ns, 150_000);
        assert!(!TelemetryConfig::disabled().enabled);
    }

    #[test]
    fn disabled_config_creates_no_recorders() {
        let tel = RuntimeTelemetry::new(&TelemetryConfig::disabled());
        assert!(tel.snapshot().is_none());
        // A handle from a disabled root is inert but callable.
        let sink = tel.stream(1, insane_tsn::TrafficClass::BEST_EFFORT, 0);
        sink.observe(
            &crate::stats::MessageMeta {
                channel: 1,
                seq: 0,
                src_runtime: 0,
                frag: (0, 1, 0),
                emit_ns: 0,
                wire_start_ns: 0,
                wire_ns: 0,
                dispatched_ns: 0,
            },
            0,
        );
    }

    #[test]
    fn budget_applies_to_time_sensitive_streams_only() {
        let cfg = TelemetryConfig::default().with_latency_budget(Duration::from_nanos(100));
        let tel = RuntimeTelemetry::new(&cfg);
        let meta = crate::stats::MessageMeta {
            channel: 0,
            seq: 0,
            src_runtime: 0,
            frag: (0, 1, 0),
            emit_ns: 0,
            wire_start_ns: 100,
            wire_ns: 100,
            dispatched_ns: 250,
            // total one-way latency vs consume at 300: 300 ns > 100 ns
        };
        let be = tel.stream(1, insane_tsn::TrafficClass::BEST_EFFORT, 3);
        be.observe(&meta, 300);
        let tc = tel.stream(2, insane_tsn::TrafficClass::TIME_CRITICAL, 3);
        tc.observe(&meta, 300);
        let snap = tel.snapshot().expect("enabled registry");
        let find = |ch: u32| {
            snap.streams
                .iter()
                .find(|s| s.channel == ch)
                .expect("stream present")
        };
        assert_eq!(find(1).budget_violations, 0, "best effort has no budget");
        assert_eq!(find(2).budget_violations, 1);
        assert_eq!(find(2).class, "tc7");
        assert_eq!(find(1).class, "best-effort");
    }
}
