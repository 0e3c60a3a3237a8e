//! The thin client library: what an application links instead of the
//! whole runtime (paper Fig. 3).
//!
//! `attach` performs the entire slow path once — connect, version
//! handshake, receive the segment fd over `SCM_RIGHTS`, `mmap`, attach
//! the pool and rings.  After that the per-message path is
//! `lend → emit` / `try_recv → drop`, which touches only the shared
//! segment: no copies, no allocation, and no syscalls while the daemon
//! is polling — one `write` (the `bell` line) from the `emit` that finds
//! it parked.

use std::io::Write;
use std::os::fd::{AsRawFd, FromRawFd};
use std::os::unix::net::UnixStream;
use std::path::Path;

use insane_memory::{Segment, SlotGuard, SlotPool, SlotToken, SlotView};
use insane_queues::{ShmConsumer, ShmProducer};

use crate::proto::{AttachAck, LineBuf, PROTO_VERSION};
use crate::server::ServerStatsSnapshot;
use crate::{shm, sys, IpcError};

/// A client session with the runtime daemon.
///
/// Deliberately `!Sync` (the ring endpoints are single-owner); the
/// whole session can move to the thread that runs the application's
/// datapath.
pub struct IpcClient {
    control: UnixStream,
    lines: LineBuf,
    session: u64,
    segment: Segment,
    pool: SlotPool,
    /// Client → daemon descriptor ring.
    tx: ShmProducer,
    /// Daemon → client descriptor ring.
    rx: ShmConsumer,
    /// The line of the daemon's doorbell ([`shm::bell`]).
    bell_line: Segment,
}

impl core::fmt::Debug for IpcClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IpcClient")
            .field("session", &self.session)
            .field("pool", &self.pool)
            .finish()
    }
}

impl IpcClient {
    /// Attaches to the daemon serving `socket`: handshake, fd transfer,
    /// segment mapping, pool + ring attach.
    ///
    /// # Errors
    ///
    /// [`IpcError::Io`] on socket/mmap failures, [`IpcError::Protocol`]
    /// on a version refusal or malformed ack.
    pub fn attach(socket: &Path, tenant: &str, qos: &str) -> Result<Self, IpcError> {
        let mut control = UnixStream::connect(socket)?;
        control.write_all(format!("attach {PROTO_VERSION} {tenant} {qos}\n").as_bytes())?;

        // The ack line and the SCM_RIGHTS fd arrive together; collect
        // bytes until the newline, keeping whichever chunk carried the
        // descriptor.
        let mut lines = LineBuf::new();
        let mut seg_fd: Option<std::fs::File> = None;
        let line = loop {
            if let Some(line) = lines.take_line()? {
                break line;
            }
            let mut chunk = [0u8; 512];
            let (n, fd) = sys::recv_with_fd(control.as_raw_fd(), &mut chunk)?;
            if n == 0 {
                return Err(IpcError::Protocol("daemon hung up during attach".into()));
            }
            if let Some(fd) = fd {
                // SAFETY: the kernel just installed this descriptor for
                // us; nothing else owns it.
                seg_fd = Some(unsafe { std::fs::File::from_raw_fd(fd) });
            }
            lines.extend(&chunk[..n]);
        };
        if line.starts_with("err") {
            return Err(IpcError::Protocol(line));
        }
        let ack = AttachAck::parse(&line)?;
        let file = seg_fd
            .ok_or_else(|| IpcError::Protocol("attach ack carried no segment descriptor".into()))?;

        // `parse` checked the layout against itself: both rings and the
        // pool fit the declared length.
        let layout = ack.layout;
        let segment = shm::map_segment(&file, layout.seg_len)?;
        drop(file); // the mapping keeps the pages alive
        let pool = SlotPool::attach_segment(layout.pool_segment(&segment)?)?;
        if pool.slot_size() != ack.slot_size || pool.slot_count() != ack.slot_count {
            return Err(IpcError::Protocol(
                "segment pool header disagrees with attach ack".into(),
            ));
        }
        // SAFETY: `segment` maps the `seg_len` bytes the daemon laid out
        // and initialized, and this client holds exactly the producer
        // end of TX and the consumer end of RX (the daemon holds the
        // others).
        let (tx, rx) = unsafe { layout.client_ends(&segment) };
        Ok(Self {
            control,
            lines,
            session: ack.session,
            bell_line: layout.bell_segment(&segment)?,
            segment,
            pool,
            tx,
            rx,
        })
    }

    /// Daemon-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The shared segment (for zero-copy address-range assertions).
    pub fn segment(&self) -> &Segment {
        &self.segment
    }

    /// The session's slot pool.
    pub fn pool(&self) -> &SlotPool {
        &self.pool
    }

    fn request(&mut self, line: &str) -> Result<String, IpcError> {
        self.control.write_all(line.as_bytes())?;
        self.control.write_all(b"\n")?;
        match self.lines.read_line(&mut self.control)? {
            Some(reply) if reply.starts_with("err") => Err(IpcError::Protocol(reply)),
            Some(reply) => Ok(reply),
            None => Err(IpcError::SessionDead),
        }
    }

    /// Creates a stream and returns its id.
    ///
    /// # Errors
    ///
    /// [`IpcError::Protocol`] on daemon refusal, [`IpcError::Io`] on a
    /// dead control socket.
    pub fn create_stream(&mut self, name: &str) -> Result<u32, IpcError> {
        let reply = self.request(&format!("stream-create {name}"))?;
        reply
            .strip_prefix("ok stream ")
            .and_then(|id| id.trim().parse().ok())
            .ok_or(IpcError::Protocol(reply))
    }

    /// Destroys a stream.
    ///
    /// # Errors
    ///
    /// As [`IpcClient::create_stream`].
    pub fn destroy_stream(&mut self, id: u32) -> Result<(), IpcError> {
        self.request(&format!("stream-destroy {id}")).map(|_| ())
    }

    /// Sends a heartbeat (also what keeps an idle session alive past the
    /// daemon's timeout).
    ///
    /// # Errors
    ///
    /// As [`IpcClient::create_stream`].
    pub fn heartbeat(&mut self) -> Result<(), IpcError> {
        self.request("hb").map(|_| ())
    }

    /// Fetches the daemon's counters.
    ///
    /// # Errors
    ///
    /// As [`IpcClient::create_stream`].
    pub fn daemon_stats(&mut self) -> Result<ServerStatsSnapshot, IpcError> {
        let reply = self.request("stats")?;
        ServerStatsSnapshot::parse(&reply)
    }

    /// Asks the daemon to exit after this connection closes.
    ///
    /// # Errors
    ///
    /// As [`IpcClient::create_stream`].
    pub fn request_shutdown(&mut self) -> Result<(), IpcError> {
        self.request("shutdown").map(|_| ())
    }

    /// Lends a slot from the shared pool for a `len`-byte message.
    ///
    /// # Errors
    ///
    /// [`IpcError::Memory`] on exhaustion (back-pressure: release or
    /// retry).
    // insane-lint: hot-path-root
    pub fn lend(&self, len: usize) -> Result<SlotGuard, IpcError> {
        Ok(self.pool.acquire(len)?)
    }

    /// Emits a filled slot on `stream`: pushes the 16-byte descriptor,
    /// transferring ownership of the checkout to the daemon.  On a full
    /// TX ring the guard is handed back untouched (nothing was sent).
    /// If the daemon's datapath has parked, this is also what wakes it:
    /// a reply-less `bell` line on this session's own control socket.
    // insane-lint: hot-path-root
    pub fn emit(&self, stream: u32, guard: SlotGuard) -> Result<(), SlotGuard> {
        emit_on(&self.tx, &self.bell_line, stream, guard, || {
            // A failed write means the daemon is gone; the next control
            // request says so.
            let _ = (&self.control).write_all(b"bell\n");
        })
    }

    /// Polls the RX ring: returns the next `(stream, message)` if one is
    /// waiting.  The view borrows the shared segment directly — zero
    /// copies — and releases the slot when dropped.
    // insane-lint: hot-path-root
    pub fn try_recv(&self) -> Option<(u32, SlotView)> {
        recv_from(&self.rx, &self.pool)
    }

    /// Gracefully detaches: the daemon retires the session and reclaims
    /// whatever the application still held.
    ///
    /// # Errors
    ///
    /// As [`IpcClient::create_stream`] (the session is gone regardless).
    pub fn detach(mut self) -> Result<(), IpcError> {
        self.request("detach").map(|_| ())
    }
}

/// Pushes the descriptor of `guard`'s slot for `stream` on `tx`.  Once it
/// is in the ring the descriptor owns the checkout — the peer (or a
/// force-reclaim) releases it; on a full ring the guard comes back.
/// After the push — never before it, or a park could slip in between —
/// the producer's half of the [`Bell`](insane_queues::Bell) handshake:
/// `wake` runs only if the consumer armed `bell_line`'s word.
pub(crate) fn emit_on(
    tx: &ShmProducer,
    bell_line: &Segment,
    stream: u32,
    guard: SlotGuard,
    wake: impl FnOnce(),
) -> Result<(), SlotGuard> {
    let (word0, word1) = guard.token().to_wire();
    // insane-lint: allow(hot-path-alloc) -- ShmProducer::push writes a fixed-capacity shared ring; it never allocates
    match tx.push([word0, word1 | ((stream as u64) << 32)]) {
        Ok(()) => {
            // insane-lint: allow(slot-token-drop) -- ownership transferred to the in-flight descriptor pushed above
            let _ = guard.into_token();
            if shm::bell(bell_line).is_some_and(|bell| bell.ring_if_armed()) {
                wake();
            }
            Ok(())
        }
        Err(_) => Err(guard),
    }
}

/// Pops the next descriptor off `rx` and views its slot in `pool`.
pub(crate) fn recv_from(rx: &ShmConsumer, pool: &SlotPool) -> Option<(u32, SlotView)> {
    let [word0, word1] = rx.pop()?;
    let token = SlotToken::from_wire(pool.pool_id(), word0, word1 & u64::from(u32::MAX));
    // A stale token here means the daemon force-reclaimed this session
    // out from under us; surface it as "nothing received".
    let view = pool.view(token).ok()?;
    Some(((word1 >> 32) as u32, view))
}
