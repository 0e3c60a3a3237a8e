//! The daemon child process of `ipc_pingpong_64b`: this binary re-run
//! with `--serve`, hosting `IpcServer` with its default configuration.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use insane_ipc::{IpcServer, ServerConfig};

use crate::run::Fatal;

/// How long a daemon may take to come up or to exit before it is killed.
const PATIENCE: Duration = Duration::from_secs(5);

/// Runs the daemon until a client asks it to shut down or the parent
/// goes away (stdin reaches end of file), then exits the process.
pub fn serve(socket: &Path) -> Result<(), Fatal> {
    let server =
        IpcServer::start(ServerConfig::new(socket)).map_err(|e| format!("daemon start: {e}"))?;
    println!("ready");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("daemon stdout: {e}"))?;

    // The parent holds the other end of stdin and never writes: end of
    // file means it is gone, however it died, and the daemon must not
    // outlive it.
    let orphaned = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&orphaned);
    let watcher = std::thread::spawn(move || {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        flag.store(true, Ordering::SeqCst);
    });
    while !server.shutdown_requested() && !orphaned.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_micros(500));
    }
    server.shutdown();
    // The parent closes stdin right after asking for the shutdown.
    watcher
        .join()
        .map_err(|_| "daemon stdin watcher panicked".to_string())
}

/// A running daemon child and the per-run directory holding its socket.
/// Dropping it kills and reaps the child and removes the directory, so
/// no exit path leaves a `--serve` process behind.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    dir: PathBuf,
    pub socket: PathBuf,
}

static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

impl Daemon {
    /// Spawns the daemon and waits until its socket accepts clients.
    /// Paths are relative to the current directory (the benchmark's
    /// `out/`), which keeps the socket path short whatever the checkout
    /// is called.
    pub fn spawn() -> Result<Self, Fatal> {
        let dir = PathBuf::from(format!(
            "run-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--serve")
            .arg(&socket)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let mut daemon = Self {
            child,
            stdin,
            dir,
            socket,
        };
        let mut line = String::new();
        let ready = stdout
            .map(BufReader::new)
            .and_then(|mut out| out.read_line(&mut line).ok());
        if ready.is_none() || line.trim() != "ready" {
            daemon.kill();
            return Err(format!("daemon did not come up (said {line:?})"));
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the daemon to exit after a client's `shutdown` request,
    /// killing it if it does not.
    pub fn stop(mut self) -> Result<(), Fatal> {
        drop(self.stdin.take());
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(None) => {
                    self.kill();
                    return Err("daemon ignored the shutdown request; killed".into());
                }
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            self.kill();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
