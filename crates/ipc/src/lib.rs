//! The client/runtime process split: what turns this reproduction from a
//! single-process library into the paper's architecture (Fig. 3) — a thin
//! client library in each application process talking to one per-host
//! INSANE runtime daemon.
//!
//! Two planes, deliberately asymmetric:
//!
//! * **Control plane** ([`uds`], [`proto`], [`server`]): a Unix-domain
//!   socket carrying a versioned line protocol — `attach` (with the
//!   shared-segment fd passed via `SCM_RIGHTS`), stream create/destroy,
//!   heartbeat, graceful detach, the introspection ops `probe` and
//!   `stats`, and `bell`, the wake-up a client sends a daemon whose
//!   datapath has parked.  Slow, allocating, forgiving: it runs once
//!   per session (or per park), not per message.
//! * **Datapath** ([`client`], plus [`insane_memory::Segment`] and
//!   [`insane_queues::ring`]): a per-session shared-memory segment
//!   holding a [`SlotPool`](insane_memory::SlotPool) and two offset-
//!   addressed SPSC descriptor rings.  `lend → emit → (daemon) → recv →
//!   release` moves 16-byte descriptors, never payload bytes, and
//!   allocates nothing after attach.  The daemon polls the rings while
//!   descriptors flow and parks when they stop ([`server`], "Idle").
//!
//! Crash isolation is first-class: each session gets its *own* segment
//! and pool, so when a client dies (socket hangup or missed heartbeats)
//! the daemon revokes that session's rings and force-reclaims its
//! outstanding slots via the generation word
//! ([`SlotPool::force_reclaim`](insane_memory::SlotPool::force_reclaim))
//! without touching any other session.  The runtime survives `kill -9`
//! of any client; `tests/crash_reclaim.rs` proves it.
//!
//! See DESIGN.md §13 for the segment layout, the attach state machine,
//! and the reclaim protocol.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod loopback;
pub mod proto;
pub mod server;
pub mod shm;
pub mod sys;
pub mod uds;

pub use client::IpcClient;
pub use server::{IpcServer, ServerConfig, ServerStatsSnapshot};

use core::fmt;

/// Errors produced by the IPC layer.
#[derive(Debug)]
pub enum IpcError {
    /// An OS-level I/O failure (socket, mmap, segment file).
    Io(std::io::Error),
    /// The peer spoke, but not the protocol we expected.
    Protocol(String),
    /// `bind_guarded` found a *live* daemon already serving the socket
    /// path (a stale file from a crashed daemon is unlinked instead).
    AlreadyRunning,
    /// A slot-pool operation failed (exhaustion, stale token, …).
    Memory(insane_memory::MemoryError),
    /// The daemon declared this session dead (or it was never attached).
    SessionDead,
}

impl fmt::Display for IpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpcError::Io(e) => write!(f, "ipc i/o error: {e}"),
            IpcError::Protocol(what) => write!(f, "ipc protocol error: {what}"),
            IpcError::AlreadyRunning => {
                write!(f, "another daemon is already serving this socket path")
            }
            IpcError::Memory(e) => write!(f, "ipc memory error: {e}"),
            IpcError::SessionDead => write!(f, "ipc session is not attached or was revoked"),
        }
    }
}

impl std::error::Error for IpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IpcError::Io(e) => Some(e),
            IpcError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IpcError {
    fn from(e: std::io::Error) -> Self {
        IpcError::Io(e)
    }
}

impl From<insane_memory::MemoryError> for IpcError {
    fn from(e: insane_memory::MemoryError) -> Self {
        IpcError::Memory(e)
    }
}
