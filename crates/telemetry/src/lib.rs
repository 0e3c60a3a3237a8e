//! # insane-telemetry
//!
//! Low-overhead observability for the INSANE runtime.
//!
//! The paper's evaluation (§5, Figs. 5–9) is entirely latency and
//! throughput measurement, so observability is a first-class runtime
//! subsystem here rather than a bench-only afterthought:
//!
//! * [`recorder`] — the lock-free event [`Counter`].
//! * [`hist`] — log-bucketed HDR-style latency histograms with
//!   p50/p90/p99/p99.9 extraction, sharded per thread so concurrent
//!   polling threads never contend.
//! * [`registry`] — the per-runtime tree of per-stream and per-tenant
//!   recorder bundles, snapshotted into plain data.  Datapath counters
//!   are not here: each polling shard of `insane-core` owns its own.
//! * [`json`] — a dependency-free JSON writer/parser used by the
//!   introspection endpoint, `insanectl`, and the BENCH exporters.
//! * [`schema`] — the contract of the BENCH export documents (one table,
//!   one interpreter), shared by the producer (`crates/bench`) and the
//!   consumers (`insanectl`, CI).
//!
//! Everything on the record path is a counted number of relaxed atomic
//! operations ([`registry`] counts them) on state a snapshot reads: no
//! locks, no heap allocation, no syscalls, nothing kept twice. Locks
//! exist only at registration and snapshot time. There is no run-time
//! switch in this crate: a runtime with telemetry off builds no
//! [`Registry`]. The crate is panic-free (checked by `insane-lint`) and
//! contains no `unsafe`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod schema;

pub use hist::{HistogramSnapshot, LogHistogram, ShardedHistogram, Summary};
pub use json::Value;
pub use recorder::Counter;
pub use registry::{
    BreakdownSample, Registry, RegistrySnapshot, StreamSnapshot, StreamTelemetry, TenantSnapshot,
    TenantTelemetry,
};

/// Schema identifier served by the runtime introspection endpoint.
pub const SNAPSHOT_SCHEMA: &str = "insane-telemetry-v2";
