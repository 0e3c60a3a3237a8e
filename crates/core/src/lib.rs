//! INSANE: a QoS-aware network-acceleration middleware for the edge cloud.
//!
//! This crate is the Rust reproduction of the INSANE middleware
//! (Middleware '23): applications declare *what* their communication needs
//! through high-level QoS policies, and the middleware decides *how* —
//! binding each stream at runtime to the most appropriate network
//! acceleration technology available on the local host (kernel UDP, XDP,
//! DPDK, or RDMA).
//!
//! Two components mirror the paper's micro-kernel-inspired architecture
//! (§5):
//!
//! * the **client library** — [`Session`], [`Stream`], [`Source`],
//!   [`Sink`] and the zero-copy buffer primitives of Fig. 2;
//! * the **runtime** ([`Runtime`]) — one per host, owning the memory
//!   manager (slot pools), the packet scheduler (FIFO or IEEE 802.1Qbv),
//!   the polling threads, and one *datapath plugin* per technology.
//!
//! The client library and the runtime exchange slot ids over lock-free
//! queues; payload bytes are written once by the producer and read once
//! by the consumer, whatever technology carries them.
//!
//! # Example
//!
//! ```
//! use insane_core::{QosPolicy, Runtime, RuntimeConfig, Session, ChannelId, ConsumeMode};
//! use insane_fabric::{Fabric, TestbedProfile};
//!
//! let fabric = Fabric::new(TestbedProfile::local());
//! let host = fabric.add_host("edge-node");
//! let runtime = Runtime::start(RuntimeConfig::new(1), &fabric, host)?;
//!
//! let session = Session::connect(&runtime)?;
//! let stream = session.create_stream(QosPolicy::default())?;
//! let source = stream.create_source(ChannelId(7))?;
//! let sink = stream.create_sink(ChannelId(7))?;
//!
//! let mut buf = source.get_buffer(5)?;
//! buf.copy_from_slice(b"hello");
//! source.emit(buf)?;
//!
//! let msg = sink.consume(ConsumeMode::Blocking)?;
//! assert_eq!(&*msg, b"hello");
//! # Ok::<(), insane_core::InsaneError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
mod api;
pub mod qos;
pub mod runtime;
pub mod stats;
pub mod telemetry;
pub mod tenant_drr;

pub use admission::{AdmissionUsage, OverloadPolicy, TenantRate};
pub use api::{
    ConsumeMode, EmitOutcome, EmitToken, IncomingMessage, MessageBuffer, Session, SessionConfig,
    Sink, SinkStats, Source, Stream,
};
pub use qos::{
    Acceleration, MappedPath, MappingStrategy, QosPolicy, ResourceUsage, TimeSensitivity,
};
pub use runtime::shard::{shard_of_channel, shard_of_stream};
pub use runtime::tunables::Tunables;
pub use runtime::{
    ControlPlaneConfig, Runtime, RuntimeConfig, SchedulerChoice, TenantSpec, ThreadingMode,
};
pub use telemetry::TelemetryConfig;

// The read-mostly snapshot primitive behind the lock-free hot path
// (dispatch tables, tunables — DESIGN.md §12), re-exported for
// harnesses that want to benchmark or reuse it directly.
pub use insane_queues::SnapshotCell;
pub use tenant_drr::{TenantDrr, Tenanted};

// Re-exported so downstream crates can match on the middleware's nested
// error causes without depending on the substrate crates directly.
pub use insane_fabric::Technology;
pub use insane_memory::MemoryError;
// Multi-tenancy vocabulary shared with the memory crate's quota ledger.
pub use insane_memory::{TenantId, TenantQuota, TenantUsage, DEFAULT_TENANT};

use core::fmt;

/// Application-chosen channel identifier (§5.1: sources and sinks with the
/// same channel id within the same stream communicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel#{}", self.0)
    }
}

/// Byte offset of the INSANE header within a framed slot.
pub(crate) const INSANE_HDR_OFFSET: usize = insane_netstack::FRAME_OVERHEAD;

/// Byte offset of the application payload within a framed slot: every
/// `get_buffer` reserves this much headroom so TX is zero-copy on every
/// datapath (Ethernet/IPv4/UDP headers for the kernel-bypassing stacks,
/// then the INSANE header).
pub(crate) const PAYLOAD_OFFSET: usize =
    insane_netstack::FRAME_OVERHEAD + insane_netstack::insane_hdr::HEADER_LEN;

/// Errors surfaced by the INSANE API and runtime.
#[derive(Debug)]
pub enum InsaneError {
    /// Memory-pool failure (exhausted, oversized request, over quota).
    Memory(insane_memory::MemoryError),
    /// Simulated-device or wire failure.
    Fabric(insane_fabric::FabricError),
    /// Packet framing/parsing failure.
    Netstack(insane_netstack::NetstackError),
    /// Scheduler configuration failure.
    Tsn(insane_tsn::TsnError),
    /// The session or runtime has been shut down.
    Closed,
    /// Non-blocking consume found no message.
    WouldBlock,
    /// Blocking operations need a started runtime (not manual mode).
    RuntimeNotStarted,
    /// The requested payload does not fit any datapath MTU for the stream.
    PayloadTooLarge {
        /// Requested payload bytes.
        len: usize,
        /// Largest payload the mapped datapath can carry.
        max: usize,
    },
    /// A sink created with a callback cannot also be consumed directly.
    CallbackSink,
    /// Internal queue between library and runtime is full (back-pressure).
    Backpressure,
    /// The tenant's admission token bucket is empty: the message was
    /// refused terminally under the configured rate limit
    /// (see [`OverloadPolicy`]).
    AdmissionRejected {
        /// The over-rate tenant.
        tenant: TenantId,
    },
    /// Overload shed: a lowest-criticality message was dropped to keep
    /// the tenant's time-sensitive budget intact
    /// ([`OverloadPolicy::ShedLowest`]).
    Shed {
        /// The tenant whose message was shed.
        tenant: TenantId,
    },
    /// A configuration or reload request was rejected before taking
    /// effect (e.g. inconsistent [`runtime::tunables::Tunables`]).
    InvalidConfig(String),
    /// An internal invariant failed or an OS resource was unavailable
    /// (e.g. a polling thread could not be spawned).
    Internal(String),
}

impl fmt::Display for InsaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsaneError::Memory(e) => write!(f, "memory manager: {e}"),
            InsaneError::Fabric(e) => write!(f, "datapath: {e}"),
            InsaneError::Netstack(e) => write!(f, "packet engine: {e}"),
            InsaneError::Tsn(e) => write!(f, "scheduler: {e}"),
            InsaneError::Closed => write!(f, "session or runtime is closed"),
            InsaneError::WouldBlock => write!(f, "no message available"),
            InsaneError::RuntimeNotStarted => {
                write!(f, "blocking operation requires a started runtime")
            }
            InsaneError::PayloadTooLarge { len, max } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the datapath maximum of {max}"
                )
            }
            InsaneError::CallbackSink => {
                write!(
                    f,
                    "sink delivers through its callback; direct consume is unavailable"
                )
            }
            InsaneError::Backpressure => write!(f, "runtime queue full, retry later"),
            InsaneError::AdmissionRejected { tenant } => {
                write!(f, "tenant {tenant} exceeded its admission rate limit")
            }
            InsaneError::Shed { tenant } => {
                write!(
                    f,
                    "message shed under overload to protect tenant {tenant}'s time-sensitive budget"
                )
            }
            InsaneError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            InsaneError::Internal(msg) => write!(f, "internal runtime failure: {msg}"),
        }
    }
}

impl std::error::Error for InsaneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InsaneError::Memory(e) => Some(e),
            InsaneError::Fabric(e) => Some(e),
            InsaneError::Netstack(e) => Some(e),
            InsaneError::Tsn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<insane_memory::MemoryError> for InsaneError {
    fn from(e: insane_memory::MemoryError) -> Self {
        InsaneError::Memory(e)
    }
}

impl From<insane_fabric::FabricError> for InsaneError {
    fn from(e: insane_fabric::FabricError) -> Self {
        InsaneError::Fabric(e)
    }
}

impl From<insane_netstack::NetstackError> for InsaneError {
    fn from(e: insane_netstack::NetstackError) -> Self {
        InsaneError::Netstack(e)
    }
}

impl From<insane_tsn::TsnError> for InsaneError {
    fn from(e: insane_tsn::TsnError) -> Self {
        InsaneError::Tsn(e)
    }
}

type WarningHook = std::sync::Arc<dyn Fn(&str) + Send + Sync>;

/// The process-wide warning hook (None = silent).
///
/// `RwLock` rather than `OnceLock` so tests can install and replace hooks
/// freely; warnings are rare (failovers, expiries, abandoned control
/// messages), so the read-lock cost is irrelevant.
static WARNING_HOOK: std::sync::RwLock<Option<WarningHook>> = std::sync::RwLock::new(None);

/// Installs a process-wide hook invoked for every runtime warning
/// (datapath failover/failback, peer expiry and recovery, abandoned
/// control messages).  Replaces any previous hook.  The default is
/// silence: the middleware never writes to stderr on its own.
pub fn set_warning_hook<F: Fn(&str) + Send + Sync + 'static>(hook: F) {
    *WARNING_HOOK.write().unwrap_or_else(|e| e.into_inner()) = Some(std::sync::Arc::new(hook));
}

/// Removes the warning hook installed by [`set_warning_hook`].
pub fn clear_warning_hook() {
    *WARNING_HOOK.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Emits one warning through the installed hook, if any.
pub(crate) fn warn(msg: &str) {
    let hook = WARNING_HOOK
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    if let Some(hook) = hook {
        hook(msg);
    }
}

/// Process-wide monotonic timestamp in nanoseconds, the clock behind
/// every [`stats::MessageMeta`] field.  All simulated hosts share one
/// process, so one clock is exact; applications use this to relate their
/// own measurements to message timestamps (e.g. per-frame latency in the
/// Lunar streaming framework).
pub fn timestamp_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub(crate) use timestamp_ns as epoch_ns;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_offset_reserves_all_headers() {
        assert_eq!(INSANE_HDR_OFFSET, 42);
        assert_eq!(PAYLOAD_OFFSET, 82);
    }

    #[test]
    fn epoch_is_monotonic() {
        let a = epoch_ns();
        let b = epoch_ns();
        assert!(b >= a);
    }

    #[test]
    fn channel_display() {
        assert_eq!(ChannelId(9).to_string(), "channel#9");
    }
}
