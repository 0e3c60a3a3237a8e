//! The runtime daemon: control-plane accept/session threads plus the
//! single datapath thread that owns every session's ring endpoints.
//!
//! Threading model (one daemon process):
//!
//! * **accept thread** — blocks in `accept()` on the control socket;
//!   spawns one control thread per connection.
//! * **control threads** — speak [`proto`](crate::proto) with one
//!   client each: build the session segment on `attach`, answer
//!   heartbeats and stream ops, pass a `bell` line on as a wake-up, and
//!   detect death (EOF on `kill -9`, or a heartbeat gap past the
//!   configured timeout).  Death is *signaled* here but *executed* on
//!   the datapath thread, which is the only owner of the session's
//!   ring endpoints.
//! * **datapath thread** — polls every live session's TX ring and
//!   routes descriptors to the session's RX ring (the reproduction's
//!   loopback fabric), 64-descriptor bursts, no allocation, no locks on
//!   the per-descriptor path.  When a session is marked dead it drains
//!   the TX ring, drops the endpoints (ring revocation), force-reclaims
//!   the session pool via the generation word, and records how long
//!   death-to-reclaim took.
//!
//! # Idle: spin, park, bell
//!
//! While descriptors flow the datapath thread never blocks: between
//! empty polls it only yields, for [`SPIN_WINDOW`] after the last burst
//! it moved.  Then it parks: it arms every session's
//! [`Bell`](insane_queues::Bell) (a word in that session's own segment),
//! polls everything once more, and blocks in `park_timeout(BACKSTOP)`.
//! The next `emit` of any client finds its bell armed and writes a
//! `bell` line on its own control socket, whose control thread wakes
//! the datapath (`ServerState::wake`: an `unpark`) — as does everything
//! else a parked datapath must answer promptly: a new session, a death,
//! a shutdown.  `unpark`'s token is sticky, so a wake that lands between
//! the last poll and the park is not lost, and [`BACKSTOP`] is a safety
//! net, not a poll period.  The one thing no bell announces is a client
//! *draining* its RX ring, so while a session holds a back-pressured
//! descriptor the park lasts only 200 µs (`HOLDOVER_NAP`).
//!
//! Sessions are fully isolated: one segment, one pool, one ring pair,
//! one bell per session, so a crashing client can only ever leak — and
//! have reclaimed — its own slots, and a client that mistreats its bell
//! (clears it without ringing, floods `bell` lines) delays only its own
//! messages, by at most [`BACKSTOP`], and costs the daemon spurious
//! wake-ups: every neighbour's bell and control socket are its own.

use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use insane_memory::{PoolConfig, Segment, SlotPool};
use insane_queues::{Descriptor, ShmConsumer, ShmProducer};
use parking_lot::Mutex;

use crate::proto::{AttachAck, LineBuf, PROTO_VERSION};
use crate::shm::{self, SessionLayout};
use crate::uds::{bind_guarded, BoundSocket};
use crate::{sys, IpcError};

/// Construction parameters for an [`IpcServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Control-socket path.
    pub socket: PathBuf,
    /// Slot size of each session pool, bytes.
    pub slot_size: usize,
    /// Slot count of each session pool.
    pub slot_count: usize,
    /// Capacity of each descriptor ring (power of two).
    pub ring_capacity: usize,
    /// Declare a session dead after this long without control traffic.
    pub hb_timeout: Duration,
}

impl ServerConfig {
    /// A config serving `socket` with the default session shape
    /// (2048-byte slots × 256, 64-deep rings, 10 s heartbeat timeout).
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            slot_size: 2048,
            slot_count: 256,
            ring_capacity: 64,
            hb_timeout: Duration::from_secs(10),
        }
    }
}

/// Daemon-global counters, exported by the `stats` control op.
#[derive(Debug, Default)]
struct ServerStats {
    attaches: AtomicU64,
    sessions: AtomicU64,
    forwarded: AtomicU64,
    reclaims: AtomicU64,
    reclaimed_slots: AtomicU64,
    leaked_slots: AtomicU64,
    last_reclaim_ns: AtomicU64,
    hb_timeouts: AtomicU64,
    parks: AtomicU64,
    bells: AtomicU64,
}

/// A point-in-time copy of the daemon counters (what clients parse out
/// of the `stats` response line).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Currently attached sessions.
    pub sessions: u64,
    /// Total successful attaches since start.
    pub attaches: u64,
    /// Descriptors forwarded on the datapath.
    pub forwarded: u64,
    /// Crash-reclaim events executed.
    pub reclaims: u64,
    /// Slots force-reclaimed across all crash events.
    pub reclaimed_slots: u64,
    /// Slots still checked out *after* a force-reclaim (must stay 0).
    pub leaked_slots: u64,
    /// Duration of the most recent death-to-reclaim, nanoseconds.
    pub last_reclaim_ns: u64,
    /// Sessions declared dead by heartbeat timeout (vs hangup).
    pub hb_timeouts: u64,
    /// Slots currently checked out, summed over live session pools.
    pub in_use: u64,
    /// Times the datapath thread blocked instead of polling.
    pub parks: u64,
    /// Wake-up requests (`bell` lines) received from clients.
    pub bells: u64,
}

impl ServerStatsSnapshot {
    /// Parses the `ok stats k=v …` response line.
    ///
    /// # Errors
    ///
    /// [`IpcError::Protocol`] if the line is not a stats response.
    pub fn parse(line: &str) -> Result<Self, IpcError> {
        let mut words = line.split_ascii_whitespace();
        if words.next() != Some("ok") || words.next() != Some("stats") {
            return Err(IpcError::Protocol(format!("not a stats line: {line:?}")));
        }
        let mut snap = Self::default();
        for word in words {
            let Some((key, value)) = word.split_once('=') else {
                continue;
            };
            let Ok(value) = value.parse::<u64>() else {
                continue;
            };
            match key {
                "sessions" => snap.sessions = value,
                "attaches" => snap.attaches = value,
                "forwarded" => snap.forwarded = value,
                "reclaims" => snap.reclaims = value,
                "reclaimed_slots" => snap.reclaimed_slots = value,
                "leaked_slots" => snap.leaked_slots = value,
                "last_reclaim_ns" => snap.last_reclaim_ns = value,
                "hb_timeouts" => snap.hb_timeouts = value,
                "in_use" => snap.in_use = value,
                "parks" => snap.parks = value,
                "bells" => snap.bells = value,
                _ => {}
            }
        }
        Ok(snap)
    }

    fn to_line(self) -> String {
        format!(
            "ok stats sessions={} attaches={} forwarded={} reclaims={} reclaimed_slots={} \
             leaked_slots={} last_reclaim_ns={} hb_timeouts={} in_use={} parks={} bells={}",
            self.sessions,
            self.attaches,
            self.forwarded,
            self.reclaims,
            self.reclaimed_slots,
            self.leaked_slots,
            self.last_reclaim_ns,
            self.hb_timeouts,
            self.in_use,
            self.parks,
            self.bells
        )
    }
}

/// Control-plane view of one session, shared between the session's
/// control thread (writer of the death signal) and the datapath thread
/// (executor of the reclaim).
struct SessionShared {
    id: u64,
    alive: AtomicBool,
    /// Graceful detach vs crash: decides whether the reclaim counts
    /// toward the crash metrics.
    graceful: AtomicBool,
    /// Stamped by the control thread the moment death is detected, read
    /// by the datapath thread after the reclaim to compute
    /// `last_reclaim_ns`.
    died_at: OnceLock<Instant>,
    next_stream: AtomicU32,
    pool: SlotPool,
}

impl SessionShared {
    fn mark_dead(&self, graceful: bool) {
        self.graceful.store(graceful, Ordering::Relaxed);
        let _ = self.died_at.set(Instant::now());
        self.alive.store(false, Ordering::Release);
    }
}

/// Datapath-thread ownership of one session: the ring endpoints (which
/// are single-owner by the SPSC contract), a one-descriptor holdover
/// for RX back-pressure, and the line of the bell this thread arms
/// before it parks.
pub(crate) struct DatapathSession {
    shared: Arc<SessionShared>,
    tx: ShmConsumer,
    rx: ShmProducer,
    pending: Option<Descriptor>,
    bell_line: Segment,
}

impl DatapathSession {
    /// A session over `pool` whose daemon-side ring ends are `(tx, rx)`
    /// and whose bell opens `bell_line`.
    pub(crate) fn new(
        id: u64,
        pool: SlotPool,
        (tx, rx): (ShmConsumer, ShmProducer),
        bell_line: Segment,
    ) -> Self {
        Self {
            shared: Arc::new(SessionShared {
                id,
                alive: AtomicBool::new(true),
                graceful: AtomicBool::new(false),
                died_at: OnceLock::new(),
                next_stream: AtomicU32::new(0),
                pool,
            }),
            tx,
            rx,
            pending: None,
            bell_line,
        }
    }

    /// One poll of this session: routes up to [`BURST`] descriptors from
    /// its TX ring to its RX ring (the reproduction's loopback fabric)
    /// and returns how many moved.  On RX back-pressure the descriptor
    /// in hand is held over to the next poll; nothing is dropped.
    fn forward_burst(&mut self) -> u64 {
        let mut moved = 0;
        while moved < BURST {
            let Some(descriptor) = self.pending.take().or_else(|| self.tx.pop()) else {
                break;
            };
            // insane-lint: allow(hot-path-alloc) -- ShmProducer::push writes a fixed-capacity shared ring; it never allocates
            if let Err(held) = self.rx.push(descriptor) {
                self.pending = Some(held);
                break;
            }
            moved += 1;
        }
        moved
    }
}

/// Everything the daemon's threads share.  `loopback::InProcessLoop`
/// builds one too: it is a daemon without a control plane.
pub(crate) struct ServerState {
    config: ServerConfig,
    stats: ServerStats,
    sessions: Mutex<Vec<Arc<SessionShared>>>,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    shutdown_requested: AtomicBool,
    /// Where [`adopt`](Self::adopt) hands sessions to the datapath thread.
    handoff: mpsc::Sender<DatapathSession>,
    /// The datapath thread, for [`wake`](Self::wake); set before
    /// [`start`](Self::start) returns.
    datapath: OnceLock<std::thread::Thread>,
}

impl ServerState {
    /// Builds the shared state and starts the datapath thread.
    pub(crate) fn start(
        config: ServerConfig,
    ) -> std::io::Result<(Arc<Self>, std::thread::JoinHandle<()>)> {
        let (handoff, dp_rx) = mpsc::channel();
        let state = Arc::new(Self {
            config,
            stats: ServerStats::default(),
            sessions: Mutex::new(Vec::new()),
            next_session: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            handoff,
            datapath: OnceLock::new(),
        });
        let dp_state = Arc::clone(&state);
        let datapath = std::thread::Builder::new()
            .name("insane-datapath".into())
            .spawn(move || run_datapath(dp_state, dp_rx))?;
        let _ = state.datapath.set(datapath.thread().clone());
        Ok((state, datapath))
    }

    /// Gets the datapath thread to look at everything again now, parked
    /// or not.  Whoever changes something it would otherwise only find
    /// by polling — a new session, a death, the shutdown flag, a
    /// client's `bell` — calls this *after* the change: `unpark`'s token
    /// is sticky, so a thread that checked just before the change and
    /// parks just after it returns at once.
    pub(crate) fn wake(&self) {
        if let Some(datapath) = self.datapath.get() {
            datapath.unpark();
        }
    }

    /// Hands `session` to the datapath thread.
    pub(crate) fn adopt(&self, session: DatapathSession) -> Result<(), IpcError> {
        self.handoff
            .send(session)
            .map_err(|_| IpcError::SessionDead)?;
        self.wake();
        Ok(())
    }

    /// Asks every thread to exit at its next iteration.
    pub(crate) fn stop(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.wake();
    }

    fn snapshot(&self) -> ServerStatsSnapshot {
        let in_use: u64 = self
            .sessions
            .lock()
            .iter()
            .map(|s| s.pool.stats().in_use as u64)
            .sum();
        ServerStatsSnapshot {
            sessions: self.stats.sessions.load(Ordering::Relaxed),
            attaches: self.stats.attaches.load(Ordering::Relaxed),
            forwarded: self.stats.forwarded.load(Ordering::Relaxed),
            reclaims: self.stats.reclaims.load(Ordering::Relaxed),
            reclaimed_slots: self.stats.reclaimed_slots.load(Ordering::Relaxed),
            leaked_slots: self.stats.leaked_slots.load(Ordering::Relaxed),
            last_reclaim_ns: self.stats.last_reclaim_ns.load(Ordering::Relaxed),
            hb_timeouts: self.stats.hb_timeouts.load(Ordering::Relaxed),
            in_use,
            parks: self.stats.parks.load(Ordering::Relaxed),
            bells: self.stats.bells.load(Ordering::Relaxed),
        }
    }
}

/// The INSANE runtime daemon: binds the control socket, serves attach
/// sessions, runs the shared-memory datapath.
pub struct IpcServer {
    state: Arc<ServerState>,
    bound: Option<BoundSocket>,
    accept: Option<std::thread::JoinHandle<()>>,
    datapath: Option<std::thread::JoinHandle<()>>,
}

impl core::fmt::Debug for IpcServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IpcServer")
            .field("socket", &self.state.config.socket)
            .field("stats", &self.state.snapshot())
            .finish()
    }
}

impl IpcServer {
    /// Binds the control socket (recovering stale files, refusing a live
    /// daemon) and starts the accept and datapath threads.
    ///
    /// # Errors
    ///
    /// [`IpcError::AlreadyRunning`] or [`IpcError::Io`] from the bind.
    pub fn start(config: ServerConfig) -> Result<Self, IpcError> {
        // Refuse a session shape no attach could ever be served with.
        SessionLayout::pack(
            &PoolConfig::new(0, config.slot_size, config.slot_count),
            config.ring_capacity,
        )?;
        let bound = bind_guarded(&config.socket)?;
        let listener = bound.listener().try_clone()?;
        let (state, datapath) = ServerState::start(config)?;

        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                // `stop` gets this thread out of `accept()` with a
                // connection of its own, which is not a client.
                if accept_state.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let conn_state = Arc::clone(&accept_state);
                std::thread::spawn(move || serve_conn(stream, conn_state));
            }
        });

        Ok(Self {
            state,
            bound: Some(bound),
            accept: Some(accept),
            datapath: Some(datapath),
        })
    }

    /// Path of the control socket.
    pub fn socket_path(&self) -> PathBuf {
        self.state.config.socket.clone()
    }

    /// Current daemon counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.state.snapshot()
    }

    /// Whether a client asked the daemon to exit (the `shutdown` op).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Stops all threads and removes the socket file.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.state.stop();
        if let Some(h) = self.accept.take() {
            // The accept thread re-reads `shutdown` only when `accept()`
            // returns: connect once to make it.  If that fails it stays
            // blocked, so it is left detached instead of joined.
            if UnixStream::connect(&self.state.config.socket).is_ok() {
                let _ = h.join();
            }
        }
        if let Some(h) = self.datapath.take() {
            let _ = h.join();
        }
        // Dropping the guard unlinks the socket file (clean shutdown).
        self.bound = None;
    }
}

impl Drop for IpcServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Writes one response line, ignoring failures (a peer that hung up
/// mid-response is handled by the next read).
fn say(stream: &mut UnixStream, line: &str) {
    use std::io::Write;
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// One control connection, start to finish.
fn serve_conn(mut stream: UnixStream, state: Arc<ServerState>) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let mut lines = LineBuf::new();
    let mut session: Option<Arc<SessionShared>> = None;
    let mut shutdown_on_close = false;
    let mut last_seen = Instant::now();
    let outcome = loop {
        if state.shutdown.load(Ordering::Relaxed) {
            break ConnEnd::ServerExit;
        }
        let line = match lines.read_line(&mut stream) {
            Ok(Some(line)) => line,
            Ok(None) => break ConnEnd::Hangup,
            Err(IpcError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if session.is_some() && last_seen.elapsed() > state.config.hb_timeout {
                    state.stats.hb_timeouts.fetch_add(1, Ordering::Relaxed);
                    break ConnEnd::Hangup;
                }
                continue;
            }
            Err(_) => break ConnEnd::Hangup,
        };
        last_seen = Instant::now();
        let mut words = line.split_ascii_whitespace();
        match words.next() {
            Some("attach") => {
                if words.next() != Some(PROTO_VERSION) {
                    say(&mut stream, "err protocol version mismatch");
                    continue;
                }
                if session.is_some() {
                    say(&mut stream, "err session already attached");
                    continue;
                }
                match open_session(&state, &mut stream) {
                    Ok(shared) => session = Some(shared),
                    Err(e) => say(&mut stream, &format!("err attach failed: {e}")),
                }
            }
            Some("stream-create") => match &session {
                Some(s) => {
                    let id = s.next_stream.fetch_add(1, Ordering::Relaxed);
                    say(&mut stream, &format!("ok stream {id}"));
                }
                None => say(&mut stream, "err not attached"),
            },
            Some("stream-destroy") => match &session {
                Some(_) => say(&mut stream, "ok"),
                None => say(&mut stream, "err not attached"),
            },
            Some("hb") => say(&mut stream, "ok"),
            // The one line without a reply: the client is on its
            // datapath and waits for the echo, not for us.
            Some("bell") => {
                state.stats.bells.fetch_add(1, Ordering::Relaxed);
                state.wake();
            }
            Some("probe") => say(&mut stream, &format!("ok probe {PROTO_VERSION}")),
            Some("stats") => {
                let line = state.snapshot().to_line();
                say(&mut stream, &line);
            }
            // Honoured when this connection ends, as `request_shutdown`
            // promises: the daemon must not exit under the `detach`
            // that follows, and a woken daemon exits within a poll.
            Some("shutdown") => {
                shutdown_on_close = true;
                say(&mut stream, "ok");
            }
            Some("detach") => {
                say(&mut stream, "ok");
                break ConnEnd::Detach;
            }
            _ => say(&mut stream, "err unknown op"),
        }
    };
    if let Some(shared) = session {
        shared.mark_dead(matches!(outcome, ConnEnd::Detach));
        state.wake();
    }
    if shutdown_on_close {
        state.shutdown_requested.store(true, Ordering::Relaxed);
    }
}

enum ConnEnd {
    /// Clean `detach`.
    Detach,
    /// EOF, heartbeat timeout, or a protocol failure: treat as a crash.
    Hangup,
    /// The daemon itself is exiting.
    ServerExit,
}

/// Builds one session: segment file, mapping, pool, rings; hands the
/// ring endpoints to the datapath and the fd to the client.
fn open_session(
    state: &Arc<ServerState>,
    stream: &mut UnixStream,
) -> Result<Arc<SessionShared>, IpcError> {
    let config = &state.config;
    let id = state.next_session.fetch_add(1, Ordering::Relaxed) + 1;
    let pool_config = PoolConfig::new(id as u16, config.slot_size, config.slot_count);
    let layout = SessionLayout::pack(&pool_config, config.ring_capacity)?;

    let file = shm::create_segment_file(layout.seg_len)?;
    let segment = shm::map_segment(&file, layout.seg_len)?;
    let pool = SlotPool::create_in_segment(pool_config, layout.pool_segment(&segment)?)?;
    // SAFETY: `segment` is the freshly mapped `seg_len` bytes of the
    // layout (fresh tmpfs pages are zero), and this daemon attaches
    // exactly one consumer (TX) and one producer (RX) — the client
    // holds the opposite ends.
    let ends = unsafe { layout.daemon_ends(&segment) };
    let session = DatapathSession::new(id, pool, ends, layout.bell_segment(&segment)?);
    let shared = Arc::clone(&session.shared);
    state.adopt(session)?;
    state.sessions.lock().push(Arc::clone(&shared));
    state.stats.attaches.fetch_add(1, Ordering::Relaxed);
    state.stats.sessions.fetch_add(1, Ordering::Relaxed);

    let ack = AttachAck {
        session: id,
        slot_size: config.slot_size,
        slot_count: config.slot_count,
        layout,
    };
    let line = format!("{}\n", ack.to_line());
    sys::send_with_fd(stream.as_raw_fd(), line.as_bytes(), file.as_raw_fd())?;
    Ok(shared)
}

/// Descriptors moved per session per poll iteration.
const BURST: u64 = 64;

/// How long the datapath thread keeps polling (yielding between empty
/// polls) after the last burst it moved, before it parks.  Ski-rental
/// against what one wake costs, measured on the 2-vCPU host over 2 000
/// emits that each found the daemon parked: the echo is back after
/// ≈ 18 µs (p50; p99 ≈ 57 µs; `write` → control thread → `unpark` →
/// running) against ≈ 2 µs from a polling daemon, ≈ 5 µs of it (p99
/// ≈ 35 µs) the client's own `write`.  The window is ≈ 2× that p99: a
/// closed loop that thinks for less never pays for a wake, and one that
/// thinks for longer has the thread spin at most ≈ 5 median wakes' worth
/// before it gives the core back.
pub const SPIN_WINDOW: Duration = Duration::from_micros(100);

/// Longest a parked datapath thread sleeps with nobody waking it.  Every
/// event it must answer wakes it, so this only bounds what a lost wake
/// (a client that clears its own bell without ringing) can cost that
/// client; it is sized to be invisible as load — 10 wake-ups a second —
/// not to be a poll period.
pub const BACKSTOP: Duration = Duration::from_millis(100);

/// The park while some session holds a back-pressured descriptor: what
/// unblocks it is the client *popping* its RX ring, which rings no bell.
const HOLDOVER_NAP: Duration = Duration::from_micros(200);

// insane-lint: hot-path-root
fn run_datapath(state: Arc<ServerState>, dp_rx: mpsc::Receiver<DatapathSession>) {
    let mut sessions: Vec<DatapathSession> = Vec::new();
    // When the current run of empty polls began; `None` while busy.
    let mut idle_since: Option<Instant> = None;
    loop {
        let progressed = poll_sessions(&state, &dp_rx, &mut sessions);
        if state.shutdown.load(Ordering::Relaxed) {
            break;
        }
        if progressed {
            idle_since = None;
        } else if idle_since.get_or_insert_with(Instant::now).elapsed() < SPIN_WINDOW {
            // insane-lint: allow(hot-path-block) -- cooperative spin: on a single core the client needs this core to produce the next descriptor
            std::thread::yield_now();
        } else {
            // Arm, poll once more, block.  A wake that finds nothing to
            // do comes straight back here: the spin window restarts only
            // when a poll does.
            for bell in sessions.iter().filter_map(|s| shm::bell(&s.bell_line)) {
                bell.arm();
            }
            if poll_sessions(&state, &dp_rx, &mut sessions) {
                idle_since = None;
            } else {
                let held_over = sessions.iter().any(|s| s.pending.is_some());
                state.stats.parks.fetch_add(1, Ordering::Relaxed);
                // insane-lint: allow(hot-path-block) -- this IS the idle loop: every ring stayed empty for a whole spin window and through the armed re-check
                std::thread::park_timeout(if held_over { HOLDOVER_NAP } else { BACKSTOP });
            }
            for bell in sessions.iter().filter_map(|s| shm::bell(&s.bell_line)) {
                bell.disarm();
            }
        }
    }
}

/// One pass over everything the datapath thread polls: sessions handed
/// over, sessions marked dead, every live TX ring.  Whether it found
/// anything to do.
fn poll_sessions(
    state: &Arc<ServerState>,
    dp_rx: &mpsc::Receiver<DatapathSession>,
    sessions: &mut Vec<DatapathSession>,
) -> bool {
    let mut progressed = false;
    while let Ok(s) = dp_rx.try_recv() {
        // insane-lint: allow(hot-path-alloc) -- grows once per session attach (control-plane rate), not per message
        sessions.push(s);
        progressed = true;
    }
    let dead = |s: &DatapathSession| !s.shared.alive.load(Ordering::Acquire);
    while let Some(at) = sessions.iter().position(dead) {
        reclaim_session(state, sessions.swap_remove(at));
        progressed = true;
    }
    for session in sessions {
        let moved = session.forward_burst();
        if moved > 0 {
            state.stats.forwarded.fetch_add(moved, Ordering::Relaxed);
            progressed = true;
        }
    }
    progressed
}

/// Executes a session's death: drain + revoke rings, force-reclaim the
/// pool, record metrics, unregister.
fn reclaim_session(state: &Arc<ServerState>, session: DatapathSession) {
    let DatapathSession { shared, tx, rx, .. } = session;
    // Drain descriptors still in flight; their checkouts die with the
    // generation bump below.
    while tx.pop().is_some() {}
    // Revoke the rings: dropping the endpoints releases the daemon's
    // keep-alives on the segment.
    drop(tx);
    drop(rx);
    let reclaimed = shared.pool.force_reclaim();
    let leaked = shared.pool.stats().in_use;
    if !shared.graceful.load(Ordering::Relaxed) {
        state.stats.reclaims.fetch_add(1, Ordering::Relaxed);
        state
            .stats
            .reclaimed_slots
            .fetch_add(reclaimed as u64, Ordering::Relaxed);
        state
            .stats
            .leaked_slots
            .fetch_add(leaked as u64, Ordering::Relaxed);
        if let Some(died_at) = shared.died_at.get() {
            state
                .stats
                .last_reclaim_ns
                .store(died_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
    // insane-lint: allow(hot-path-block) -- crash-time slow path, runs once per session death
    state.sessions.lock().retain(|s| s.id != shared.id);
    state.stats.sessions.fetch_sub(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_line_round_trips() {
        let snap = ServerStatsSnapshot {
            sessions: 2,
            attaches: 5,
            forwarded: 1000,
            reclaims: 1,
            reclaimed_slots: 3,
            leaked_slots: 0,
            last_reclaim_ns: 12345,
            hb_timeouts: 1,
            in_use: 7,
            parks: 4,
            bells: 3,
        };
        assert_eq!(ServerStatsSnapshot::parse(&snap.to_line()).unwrap(), snap);
    }

    #[test]
    fn non_power_of_two_ring_is_refused() {
        let mut config = ServerConfig::new("/tmp/never-bound.sock");
        config.ring_capacity = 48;
        assert!(IpcServer::start(config).is_err());
    }

    fn start(tag: &str) -> IpcServer {
        let socket = format!("insane-server-{tag}-{}.sock", std::process::id());
        IpcServer::start(ServerConfig::new(std::env::temp_dir().join(socket))).unwrap()
    }

    /// `stop` joins the datapath and accept threads: both must be woken,
    /// not waited out.
    #[test]
    fn shutdown_of_a_parked_daemon_is_prompt() {
        let server = start("parked");
        while server.stats().parks == 0 {
            std::thread::sleep(SPIN_WINDOW);
        }
        // The park has only just begun: nearly all of BACKSTOP is left.
        let asked = Instant::now();
        server.shutdown();
        let took = asked.elapsed();
        assert!(took < Duration::from_millis(50), "shutdown took {took:?}");
    }

    #[test]
    fn a_v1_library_is_refused_at_attach() {
        use std::io::Write;
        let server = start("v1");
        let mut old = UnixStream::connect(server.socket_path()).unwrap();
        old.write_all(b"attach insane-ipc-v1 old fast\n").unwrap();
        let reply = LineBuf::new().read_line(&mut old).unwrap();
        assert_eq!(reply.as_deref(), Some("err protocol version mismatch"));
    }
}
