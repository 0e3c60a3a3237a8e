//! `ipc_pingpong_64b`: a client in this process, the daemon in a child
//! process, 64 B messages echoed through the shared-memory rings.

use std::time::Instant;

use insane_ipc::IpcClient;

use crate::daemon::Daemon;
use crate::gen::PayloadGen;
use crate::pair::SetupTimes;
use crate::run::{Ctx, Fatal, OpOutcome, Workload};
use crate::trace::{Span, Tracer};
use crate::verify::Checker;

pub const PAYLOAD: usize = 64;

/// Child spans one round trip records at most.
pub const SPANS_PER_OP: usize = 8;

/// `try_recv` misses (each followed by a yield) after which the echo
/// counts as lost: far beyond the daemon's 200 µs idle sleep.
const MAX_MISSES: u64 = 1 << 24;

#[derive(Debug)]
pub struct IpcPingPong {
    // Declared before the daemon so the session closes first.
    client: IpcClient,
    daemon: Daemon,
    stream: u32,
    gen: PayloadGen,
    echoes: Checker,
    seq: u64,
}

impl IpcPingPong {
    /// Spawns the daemon, attaches and opens a stream.
    pub fn build(seed: u64, times: &mut SetupTimes) -> Result<Self, Fatal> {
        let daemon = Daemon::spawn()?;
        let t0 = Instant::now();
        let mut client = IpcClient::attach(&daemon.socket, "benchmark", "fast")
            .map_err(|e| format!("attach: {e}"))?;
        times.attach_us = t0.elapsed().as_secs_f64() * 1e6;
        let stream = client
            .create_stream("pingpong")
            .map_err(|e| format!("create_stream: {e}"))?;
        Ok(Self {
            client,
            daemon,
            stream,
            gen: PayloadGen::new(seed, 1, PAYLOAD),
            echoes: Checker::new("ipc client"),
            seq: 0,
        })
    }

    /// Descriptors the daemon has forwarded since it started.
    pub fn daemon_forwarded(&mut self) -> Result<u64, Fatal> {
        self.client
            .daemon_stats()
            .map(|s| s.forwarded)
            .map_err(|e| format!("daemon stats: {e}"))
    }

    /// End-of-run checks, then an orderly shutdown: every echo accepted,
    /// the client's pool empty, and the daemon's own count of forwarded
    /// descriptors and outstanding slots agreeing with the client's.
    pub fn finish(mut self, ctx: &mut Ctx) -> Result<(), Fatal> {
        let sent = self.seq;
        let got = self.echoes.accepted_through();
        if got != sent {
            ctx.tally
                .fail(|| format!("ipc client accepted {got} of {sent} echoes"));
        }
        let in_use = self.client.pool().stats().in_use;
        if in_use != 0 {
            ctx.tally
                .fail(|| format!("{in_use} slot(s) of the session pool still checked out"));
        }
        let stats = self
            .client
            .daemon_stats()
            .map_err(|e| format!("daemon stats: {e}"))?;
        if stats.forwarded != sent {
            let forwarded = stats.forwarded;
            ctx.tally
                .fail(|| format!("daemon forwarded {forwarded} descriptors, client sent {sent}"));
        }
        if stats.in_use != 0 {
            let in_use = stats.in_use;
            ctx.tally
                .fail(|| format!("daemon reports {in_use} slot(s) in use at the end"));
        }
        self.client
            .request_shutdown()
            .map_err(|e| format!("request_shutdown: {e}"))?;
        // The daemon may already be tearing the connection down when the
        // detach arrives; either way the session is over.
        let _ = self.client.detach();
        self.daemon.stop()
    }
}

impl Workload for IpcPingPong {
    const SLICE_OPS: usize = 64;
    const SLICES_PER_SEGMENT: usize = 16;

    #[inline]
    fn op<T: Tracer>(&mut self, t: &mut T, ctx: &mut Ctx) -> Result<OpOutcome, Fatal> {
        let seq = self.seq;
        self.seq += 1;
        let verified_before = ctx.tally.verified;
        let t0 = Instant::now();
        t.begin();

        let mut guard = self.client.lend(PAYLOAD).map_err(|e| {
            ctx.tally.acquire_failed += 1;
            let what = format!("lend refused: {e}");
            ctx.tally.fail(|| what.clone());
            what
        })?;
        t.lap(Span::IpcLend);
        self.gen.fill(seq, &mut guard);
        ctx.fault.maybe_corrupt(ctx.tally.attempted, &mut guard);
        t.lap(Span::AppFill);
        // One message in flight on a 64-deep ring: a full ring means the
        // daemon stopped draining.
        if self.client.emit(self.stream, guard).is_err() {
            ctx.tally.emit_backpressure += 1;
            ctx.tally.fail(|| "emit refused: TX ring full".into());
            return Err("emit refused: TX ring full".into());
        }
        t.lap(Span::IpcEmit);

        // Yield on a miss, as the shipped client does: the daemon sleeps
        // 200 µs when idle and needs the core to wake up on.
        let mut misses = 0u64;
        let (stream, view) = loop {
            t.pre_poll();
            match self.client.try_recv() {
                Some(received) => break received,
                None => {
                    misses += 1;
                    if misses > MAX_MISSES {
                        return Err(format!("echo {seq} never came back from the daemon"));
                    }
                    std::thread::yield_now();
                }
            }
        };
        t.poll_hit(Span::IpcRecvWait, Span::IpcRecvHit, misses);
        if stream != self.stream {
            let want = self.stream;
            ctx.tally
                .fail(|| format!("echo arrived on stream {stream}, sent on {want}"));
        }
        if !ctx.fault.swallow_now(ctx.tally.attempted) {
            self.echoes.check(&self.gen, &view, &mut ctx.tally);
        }
        t.lap(Span::AppVerify);
        drop(view);
        t.lap(Span::Release);

        t.end();
        Ok(OpOutcome {
            lat_ns: t0.elapsed().as_nanos() as u64,
            kind: 0,
            msgs: (ctx.tally.verified - verified_before) as u32,
        })
    }

    fn between_segments(&mut self) -> Result<(), Fatal> {
        // The daemon declares a session dead after 10 s without control
        // traffic; a phase lasts longer than that.
        self.client
            .heartbeat()
            .map_err(|e| format!("heartbeat: {e}"))
    }

    fn child_pid(&self) -> Option<u32> {
        Some(self.daemon.pid())
    }
}
