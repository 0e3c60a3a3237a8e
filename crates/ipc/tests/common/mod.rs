//! What the daemon-spawning e2e tests share.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use insane_ipc::{IpcClient, ServerStatsSnapshot};

/// A child process of a test: killed and reaped if a failing test drops
/// it still running, so no `insaned` outlives the assertion that failed.
pub struct KillOnDrop(pub Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `insaned` on a socket unique to this process and `tag`, and
/// waits for its ready line.
pub fn spawn_daemon(tag: &str) -> (KillOnDrop, PathBuf) {
    let socket = std::env::temp_dir().join(format!("insane-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut child = Command::new(env!("CARGO_BIN_EXE_insaned"))
        .args(["--socket"])
        .arg(&socket)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn insaned");
    let stdout = child.stdout.take().expect("daemon stdout");
    let daemon = KillOnDrop(child);
    let mut ready = String::new();
    BufReader::new(stdout)
        .read_line(&mut ready)
        .expect("daemon ready line");
    assert!(
        ready.starts_with("insaned listening on"),
        "unexpected ready line: {ready:?}"
    );
    (daemon, socket)
}

/// Polls the daemon's counters (a control-plane request: it does not
/// wake the datapath) until `done` says so.
pub fn await_stats(
    client: &mut IpcClient,
    what: &str,
    done: impl Fn(&ServerStatsSnapshot) -> bool,
) -> ServerStatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.daemon_stats().expect("daemon stats");
        if done(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "daemon never {what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One 8-byte message out and back; how long the echo took.
pub fn round_trip(client: &IpcClient, stream: u32, seq: u64) -> Duration {
    let started = Instant::now();
    let mut guard = client.lend(8).expect("lend");
    guard.copy_from_slice(&seq.to_le_bytes());
    client.emit(stream, guard).expect("emit");
    loop {
        if let Some((got_stream, view)) = client.try_recv() {
            assert_eq!(got_stream, stream);
            assert_eq!(view[..8], seq.to_le_bytes(), "echo lost or out of order");
            return started.elapsed();
        }
        std::thread::yield_now();
    }
}
