//! Process-split experiment (DESIGN.md §13): what does the OS process
//! boundary cost, and does crash isolation actually work?
//!
//! Three phases, exported as the schema-validated `BENCH_ipc.json`:
//!
//! * **in-process baseline** — the identical datapath (segment-backed
//!   [`SlotPool`], two offset-addressed SPSC descriptor rings, the
//!   daemon's own datapath thread: its burst size, its spin-then-park
//!   idle) wired inside one process.  Round-trip latency here is the
//!   floor the process split is judged against.
//! * **cross-process** — a real daemon in another OS process (the bench
//!   binary re-execs itself as `ipc --serve <socket>`), a real `attach`
//!   over the Unix control socket, the same ping-pong through the
//!   `mmap`ed segment.  The schema gate: cross-process median ≤
//!   [`BOUND_X1000`]/1000 × the in-process median.  Medians, not p99s:
//!   neither deployment sleeps while a ping-pong runs, so both are
//!   ≈ 1 µs spin loops, and the p99 of such a loop is whatever the host
//!   scheduler did to it, not what the process boundary costs.
//! * **crash reclaim** — an `ipc --crash <socket>` child attaches,
//!   checks slots out, and aborts without cleanup; the daemon must
//!   force-reclaim every one (`leaked_slots == 0`) and report how long
//!   death-to-reclaim took.
//!
//! The forwarder and both clients yield between empty polls rather than
//! spin: CI runners may be single-core.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use insane_fabric::TestbedProfile;
use insane_ipc::loopback::InProcessLoop;
use insane_ipc::{IpcClient, IpcError, IpcServer, ServerConfig, ServerStatsSnapshot};
use insane_telemetry::Value;

use crate::stats::Series;
use crate::{iters, BenchError};

/// Overhead gate in thousandths: the cross-process round-trip median may
/// cost at most 2.000x the in-process baseline's.
pub const BOUND_X1000: u64 = 2_000;

/// Slots the crash child checks out before aborting.
pub const CRASH_SLOTS: usize = 12;

/// Pool/ring shape of the in-process baseline — matches the daemon's
/// session defaults so the two phases compare the same structure.
const SLOT_SIZE: usize = 2048;
const SLOT_COUNT: usize = 256;
const RING_CAPACITY: usize = 64;

fn ipc_err(stage: &str, e: IpcError) -> BenchError {
    BenchError::Other(format!("{stage}: {e}"))
}

/// Outcome of one process-split run.
#[derive(Debug, Clone)]
pub struct IpcReport {
    /// Round trips timed per deployment.
    pub messages: usize,
    /// In-process round-trip latencies, nanoseconds.
    pub in_process: Series,
    /// Cross-process round-trip latencies, nanoseconds.
    pub cross_process: Series,
    /// Attach slow path (connect → handshake → mmap → ring attach).
    pub attach_ns: u64,
    /// Death-to-reclaim latency the daemon measured, nanoseconds.
    pub reclaim_ns: u64,
    /// Slots the daemon force-reclaimed from the crashed child.
    pub reclaimed_slots: u64,
    /// Slots still outstanding after the reclaim (must be 0).
    pub leaked_slots: u64,
}

impl IpcReport {
    /// cross/in-process ratio of the round-trip medians, fixed-point
    /// thousandths.
    pub fn ratio_x1000(&self) -> u64 {
        let baseline = self.in_process.median().max(1);
        self.cross_process.median().saturating_mul(1000) / baseline
    }

    /// The `BENCH_ipc.json` entry of this run.
    pub fn row(&self, testbed: &str) -> Value {
        Value::object([
            ("system", "INSANE process split".into()),
            ("testbed", testbed.into()),
            ("messages", (self.messages as u64).into()),
            ("in_process_p50_ns", self.in_process.median().into()),
            ("in_process_p99_ns", self.in_process.p99().into()),
            ("cross_process_p50_ns", self.cross_process.median().into()),
            ("cross_process_p99_ns", self.cross_process.p99().into()),
            ("ratio_x1000", self.ratio_x1000().into()),
            ("bound_x1000", BOUND_X1000.into()),
            ("attach_ns", self.attach_ns.into()),
            ("reclaim_ns", self.reclaim_ns.into()),
            ("reclaimed_slots", self.reclaimed_slots.into()),
            ("leaked_slots", self.leaked_slots.into()),
        ])
    }
}

/// The in-process baseline: the daemon-shaped datapath
/// ([`InProcessLoop`]) wired inside this process, ping-pong round trips
/// on the caller's thread.
///
/// # Errors
///
/// [`BenchError::Other`] if any pool/ring operation refuses — the
/// baseline is sized so that it never should.
pub fn run_in_process(messages: usize) -> Result<Series, BenchError> {
    let lb = InProcessLoop::new(SLOT_SIZE, SLOT_COUNT, RING_CAPACITY)
        .map_err(|e| ipc_err("baseline setup", e))?;
    let mut series = Series::new();
    for i in 0..messages as u64 {
        let started = Instant::now();
        let mut guard = lb.lend(8).map_err(|e| ipc_err("baseline lend", e))?;
        guard.copy_from_slice(&i.to_le_bytes());
        let mut pending = guard;
        loop {
            match lb.emit(pending) {
                Ok(()) => break,
                Err(guard) => {
                    pending = guard;
                    std::thread::yield_now();
                }
            }
        }
        loop {
            if let Some(view) = lb.try_recv() {
                drop(view);
                break;
            }
            std::thread::yield_now();
        }
        series.push(started.elapsed().as_nanos() as u64);
    }
    let leftover = lb.pool().stats().in_use;
    if leftover != 0 {
        return Err(BenchError::Other(format!(
            "baseline phase leaked {leftover} checkout(s)"
        )));
    }
    Ok(series)
}

/// The cross-process phase: attach to the daemon at `socket` (timing the
/// slow path), ping-pong `messages` round trips, detach.  Returns the
/// latency series and the attach time.
///
/// # Errors
///
/// [`BenchError::Other`] wrapping the failing [`IpcError`].
pub fn run_cross_process(
    socket: &std::path::Path,
    messages: usize,
) -> Result<(Series, u64), BenchError> {
    let started = Instant::now();
    let mut client =
        IpcClient::attach(socket, "bench", "fast").map_err(|e| ipc_err("attach", e))?;
    let attach_ns = started.elapsed().as_nanos() as u64;
    let stream = client
        .create_stream("pingpong")
        .map_err(|e| ipc_err("stream", e))?;

    let mut series = Series::new();
    for i in 0..messages as u64 {
        let started = Instant::now();
        let mut guard = client.lend(8).map_err(|e| ipc_err("lend", e))?;
        guard.copy_from_slice(&i.to_le_bytes());
        let mut pending = guard;
        loop {
            match client.emit(stream, pending) {
                Ok(()) => break,
                Err(guard) => {
                    pending = guard;
                    std::thread::yield_now();
                }
            }
        }
        loop {
            if let Some((_, view)) = client.try_recv() {
                drop(view);
                break;
            }
            std::thread::yield_now();
        }
        series.push(started.elapsed().as_nanos() as u64);
    }
    let leftover = client.pool().stats().in_use;
    if leftover != 0 {
        return Err(BenchError::Other(format!(
            "cross-process phase leaked {leftover} checkout(s)"
        )));
    }
    client.detach().map_err(|e| ipc_err("detach", e))?;
    Ok((series, attach_ns))
}

/// The crash phase driven from the parent: `spawn_crasher` must start a
/// process that attaches to `socket`, checks [`CRASH_SLOTS`] slots out,
/// and dies without cleanup.  Polls the daemon (through `stats`) until
/// the reclaim shows up and returns `(reclaim_ns, reclaimed, leaked)`.
///
/// # Errors
///
/// [`BenchError::Other`] if the reclaim never lands within 10s.
pub fn run_crash_reclaim(
    socket: &std::path::Path,
    spawn_crasher: &mut dyn FnMut() -> Result<(), BenchError>,
) -> Result<(u64, u64, u64), BenchError> {
    let mut observer =
        IpcClient::attach(socket, "observer", "fast").map_err(|e| ipc_err("observer attach", e))?;
    let before = observer.daemon_stats().map_err(|e| ipc_err("stats", e))?;
    spawn_crasher()?;

    let deadline = Instant::now() + Duration::from_secs(10);
    let stats: ServerStatsSnapshot = loop {
        let stats = observer.daemon_stats().map_err(|e| ipc_err("stats", e))?;
        if stats.reclaims > before.reclaims {
            break stats;
        }
        if Instant::now() >= deadline {
            return Err(BenchError::Other(
                "daemon never reclaimed the crashed client".into(),
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    observer
        .detach()
        .map_err(|e| ipc_err("observer detach", e))?;
    Ok((
        stats.last_reclaim_ns,
        stats.reclaimed_slots - before.reclaimed_slots,
        stats.leaked_slots,
    ))
}

/// Child role `ipc --serve <socket>`: the runtime daemon.  Prints the
/// ready line the parent waits for, then serves until a client requests
/// shutdown.
fn serve(socket: &Path) -> Result<(), BenchError> {
    let server = IpcServer::start(ServerConfig::new(socket)).map_err(|e| ipc_err("serve", e))?;
    println!("insaned listening on {}", server.socket_path().display());
    std::io::stdout().flush()?;
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
    Ok(())
}

/// Child role `ipc --crash <socket>`: the crash victim.  Mirrors
/// `insane-ipc-crasher --abort`: checks [`CRASH_SLOTS`] slots out (half
/// in flight, half held) and dies without running a destructor.
fn crash(socket: &Path) -> Result<(), BenchError> {
    let mut client =
        IpcClient::attach(socket, "victim", "fast").map_err(|e| ipc_err("crash attach", e))?;
    let stream = client
        .create_stream("doomed")
        .map_err(|e| ipc_err("crash stream", e))?;
    let mut held = Vec::new();
    for i in 0..CRASH_SLOTS {
        let mut guard = client.lend(8).map_err(|e| ipc_err("crash lend", e))?;
        guard.copy_from_slice(&(i as u64).to_le_bytes());
        if i % 2 == 0 {
            if let Err(guard) = client.emit(stream, guard) {
                held.push(guard);
            }
        } else {
            held.push(guard);
        }
    }
    println!("victim ready");
    std::io::stdout().flush()?;
    std::process::abort();
}

/// Spawns this binary's `ipc` suite in a child role and waits for its
/// ready line.
fn respawn(role: &str, socket: &Path, ready: &str) -> Result<Child, BenchError> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(["ipc", role])
        .arg(socket)
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| BenchError::Other("helper stdout missing".into()))?;
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    if !line.starts_with(ready) {
        let _ = child.kill();
        return Err(BenchError::Other(format!(
            "helper {role} said {line:?}, expected {ready:?}"
        )));
    }
    Ok(child)
}

/// The `ipc` suite.  With no arguments it orchestrates all three phases
/// — re-executing this binary for the daemon (`ipc --serve <socket>`)
/// and the crash victim (`ipc --crash <socket>`), so one artifact is the
/// whole experiment — and exports `BENCH_ipc.json`, whose contract fails
/// the run on overhead past the bound, a reclaim that did not run, or a
/// leaked slot.
///
/// # Errors
///
/// Any failing phase, unknown arguments, or a violated export gate.
pub fn suite(profile: &TestbedProfile, args: &[String]) -> Result<(), BenchError> {
    match args {
        [] => {}
        [role, socket] if role == "--serve" => return serve(Path::new(socket)),
        [role, socket] if role == "--crash" => return crash(Path::new(socket)),
        other => {
            return Err(BenchError::Other(format!(
                "usage: ipc [--serve <socket> | --crash <socket>], got {other:?}"
            )))
        }
    }
    let messages = iters(5_000);
    let socket = std::env::temp_dir().join(format!("insane-ipc-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);

    println!("process split: {messages} round trips per deployment");

    // Phase 1: in-process baseline.
    let in_process = run_in_process(messages)?;
    println!(
        "in-process round trip: p50 {:.1}us, p99 {:.1}us",
        in_process.median() as f64 / 1e3,
        in_process.p99() as f64 / 1e3,
    );

    // Phase 2: the same ping-pong across a real process boundary.
    let mut daemon = respawn("--serve", &socket, "insaned listening on")?;
    let (cross_process, attach_ns) = run_cross_process(&socket, messages)?;
    println!(
        "cross-process round trip: p50 {:.1}us, p99 {:.1}us (attach {:.1}us)",
        cross_process.median() as f64 / 1e3,
        cross_process.p99() as f64 / 1e3,
        attach_ns as f64 / 1e3,
    );

    // Phase 3: kill a client, watch the daemon clean up.
    let (reclaim_ns, reclaimed_slots, leaked_slots) = run_crash_reclaim(&socket, &mut || {
        respawn("--crash", &socket, "victim ready")?.wait()?;
        Ok(())
    })?;
    println!(
        "crash reclaim: {reclaimed_slots} slots back in {:.1}us, {leaked_slots} leaked",
        reclaim_ns as f64 / 1e3,
    );

    // Shut the daemon down before judging, so a gate failure never
    // leaves an orphan process behind.
    let mut closer =
        IpcClient::attach(&socket, "closer", "fast").map_err(|e| ipc_err("closer", e))?;
    closer
        .request_shutdown()
        .map_err(|e| ipc_err("shutdown", e))?;
    closer.detach().map_err(|e| ipc_err("detach", e))?;
    let status = daemon.wait()?;
    if !status.success() {
        return Err(BenchError::Other(format!("daemon exited with {status:?}")));
    }

    let report = IpcReport {
        messages,
        in_process,
        cross_process,
        attach_ns,
        reclaim_ns,
        reclaimed_slots,
        leaked_slots,
    };
    println!(
        "process-split overhead: {:.3}x at the median (bound {:.3}x)",
        report.ratio_x1000() as f64 / 1e3,
        BOUND_X1000 as f64 / 1e3,
    );
    crate::export::write("BENCH_ipc.json", vec![report.row(profile.name)])
}
