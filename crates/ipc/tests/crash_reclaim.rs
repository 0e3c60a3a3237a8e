//! Crash isolation e2e: `kill -9` a client mid-stream and prove the
//! daemon (a) force-reclaims every slot the corpse held, and (b) never
//! disturbs a concurrent session, which keeps streaming in order
//! throughout.
//!
//! The same two properties for the idle path: a daemon that has
//! *parked* still reclaims a killed client at once, still forwards what
//! RX back-pressure held over, and a session that mistreats its own
//! bell and floods `bell` lines never costs its neighbour a wake.

use std::io::{BufRead, BufReader, Write};
use std::os::fd::{AsRawFd, FromRawFd};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use insane_ipc::proto::{AttachAck, PROTO_VERSION};
use insane_ipc::server::{BACKSTOP, SPIN_WINDOW};
use insane_ipc::{shm, sys, IpcClient};

mod common;
use common::{await_stats, round_trip, spawn_daemon, KillOnDrop};

/// These tests time wake-ups against `BACKSTOP / 2` and every one of them
/// spins a client and a daemon: on a 2-vCPU host four of them at once
/// stretch each other's round trips into that bound.  One at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner())
}

/// Sets its flag when dropped, so that a side of a two-thread test that
/// panics does not leave the other waiting for it.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

const CRASHER_SLOTS: usize = 12;

/// The victim: attaches, checks out [`CRASHER_SLOTS`] slots (half held,
/// half in flight) and then waits for SIGKILL.
fn spawn_crasher(socket: &Path) -> KillOnDrop {
    let mut crasher = Command::new(env!("CARGO_BIN_EXE_insane-ipc-crasher"))
        .arg(socket)
        .arg("hold")
        .arg(CRASHER_SLOTS.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn crasher");
    let crasher_out = crasher.stdout.take().expect("crasher stdout");
    let mut ready = String::new();
    BufReader::new(crasher_out)
        .read_line(&mut ready)
        .expect("crasher ready line");
    assert!(
        ready.starts_with("crasher ready in_use="),
        "unexpected crasher line: {ready:?}"
    );
    KillOnDrop(crasher)
}

fn shut_down(mut client: IpcClient, mut daemon: KillOnDrop) {
    client.request_shutdown().expect("shutdown");
    client.detach().expect("detach");
    assert!(daemon.0.wait().expect("daemon exit").success());
}

#[test]
fn killing_a_client_reclaims_its_slots_and_spares_its_neighbor() {
    let _alone = one_at_a_time();
    let (daemon, socket) = spawn_daemon("kill9");

    // The survivor attaches first and starts streaming.
    let mut survivor = IpcClient::attach(&socket, "survivor", "fast").expect("attach survivor");
    let stream = survivor.create_stream("steady").expect("stream");

    let mut crasher = spawn_crasher(&socket);

    // Pump the survivor both before and after the kill; every message
    // must come back in order, unaffected by the neighbor's death.
    let mut next_seq: u64 = 0;
    let mut pump = |client: &mut IpcClient, n: u64| {
        for _ in 0..n {
            round_trip(client, stream, next_seq);
            next_seq += 1;
        }
    };
    pump(&mut survivor, 500);

    // SIGKILL: no destructor runs in the victim, its control socket
    // closes from the kernel side, and the daemon must notice.
    crasher.0.kill().expect("kill -9 crasher");
    crasher.0.wait().expect("reap crasher");

    // Keep the survivor streaming while the daemon detects the death
    // and reclaims; poll the daemon's counters until it reports done.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        pump(&mut survivor, 50);
        let stats = survivor.daemon_stats().expect("daemon stats");
        if stats.reclaims >= 1 {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reclaimed the crashed session: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(stats.reclaimed_slots as usize, CRASHER_SLOTS);
    assert_eq!(stats.leaked_slots, 0, "crash leaked slots: {stats:?}");
    assert!(stats.last_reclaim_ns > 0, "reclaim latency not recorded");
    assert_eq!(stats.sessions, 1, "survivor's session went with the crash");

    // The survivor is genuinely untouched: more in-order traffic, and
    // its pool reconciles to zero outstanding checkouts.
    pump(&mut survivor, 500);
    assert_eq!(survivor.pool().stats().in_use, 0);
    assert_eq!(survivor.pool().stats().misuse_rejections, 0);

    // `in_use` across the daemon now counts only live sessions — the
    // crashed pool was reclaimed, the survivor holds nothing.
    let stats = survivor.daemon_stats().expect("final stats");
    assert_eq!(stats.in_use, 0, "daemon-wide checkouts did not reconcile");

    shut_down(survivor, daemon);
}

/// With nobody streaming the daemon is parked when the client dies; the
/// control thread that sees the hangup wakes it, so the reclaim does not
/// wait for the park to time out.
#[test]
fn a_parked_daemon_reclaims_a_killed_client_at_once() {
    let _alone = one_at_a_time();
    let (daemon, socket) = spawn_daemon("parked-kill9");
    let mut observer = IpcClient::attach(&socket, "observer", "fast").expect("attach");
    let mut crasher = spawn_crasher(&socket);
    // The crasher's emits are forwarded by now; one spin window later
    // the daemon sleeps again.
    std::thread::sleep(3 * SPIN_WINDOW);
    await_stats(&mut observer, "parked", |s| s.parks >= 1);

    crasher.0.kill().expect("kill -9 crasher");
    crasher.0.wait().expect("reap crasher");
    let stats = await_stats(&mut observer, "reclaimed", |s| s.reclaims >= 1);
    assert_eq!(stats.reclaimed_slots as usize, CRASHER_SLOTS);
    assert_eq!(stats.leaked_slots, 0, "crash leaked slots: {stats:?}");
    assert!(
        Duration::from_nanos(stats.last_reclaim_ns) < BACKSTOP / 2,
        "reclaim waited for the park to time out: {stats:?}"
    );
    shut_down(observer, daemon);
}

/// A full RX ring holds one descriptor over in the daemon and more in
/// the TX ring.  What releases them is the client *popping*, which rings
/// no bell — so the daemon must not park for good on them.
#[test]
fn back_pressured_descriptors_arrive_without_another_emit() {
    let _alone = one_at_a_time();
    let (daemon, socket) = spawn_daemon("holdover");
    let mut client = IpcClient::attach(&socket, "slow-reader", "fast").expect("attach");
    let stream = client.create_stream("burst").expect("stream");

    const SENT: u64 = 64 + 8; // the default ring capacity, and then some
    for seq in 0..SENT {
        let mut guard = client.lend(8).expect("lend");
        guard.copy_from_slice(&seq.to_le_bytes());
        while let Err(back) = client.emit(stream, guard) {
            guard = back;
            std::thread::yield_now();
        }
    }
    // Long enough for the daemon to fill RX, run out its spin window and
    // go to sleep on the held-over descriptor.
    std::thread::sleep(5 * SPIN_WINDOW);
    let draining = Instant::now();
    for seq in 0..SENT {
        let (_, view) = loop {
            if let Some(received) = client.try_recv() {
                break received;
            }
            assert!(
                draining.elapsed() < BACKSTOP / 2,
                "message {seq} of {SENT} is stuck behind a parked daemon"
            );
            std::thread::yield_now();
        };
        assert_eq!(view[..8], seq.to_le_bytes(), "out-of-order delivery");
    }
    assert_eq!(client.pool().stats().in_use, 0);
    shut_down(client, daemon);
}

/// Session B does everything a client can do to the wake path — clears
/// its own bell word without ringing, floods `bell` lines — while
/// session A ping-pongs with pauses long enough for the daemon to park.
/// Every word and socket B can reach is its own, so A keeps strict
/// order, loses nothing, and is always woken by its own bell.
#[test]
fn a_hostile_neighbor_cannot_cost_a_session_its_wake() {
    let _alone = one_at_a_time();
    let (daemon, socket) = spawn_daemon("hostile");
    let mut a = IpcClient::attach(&socket, "victim", "fast").expect("attach A");
    let stream = a.create_stream("pingpong").expect("stream");

    // B attaches by hand: it needs its raw control socket and segment.
    let mut b_control = UnixStream::connect(&socket).expect("connect B");
    b_control
        .write_all(format!("attach {PROTO_VERSION} hostile fast\n").as_bytes())
        .expect("attach B");
    let mut chunk = [0u8; 512];
    let (n, fd) = sys::recv_with_fd(b_control.as_raw_fd(), &mut chunk).expect("B's ack");
    let ack = std::str::from_utf8(&chunk[..n]).expect("ack is text");
    let layout = AttachAck::parse(ack.trim_end()).expect("B's ack").layout;
    // SAFETY: the kernel just installed this descriptor for this
    // process; nothing else owns it.
    let file = unsafe { std::fs::File::from_raw_fd(fd.expect("B's segment fd")) };
    let b_segment = shm::map_segment(&file, layout.seg_len).expect("map B's segment");

    const FLOOD: u64 = 10_000;
    let flooded = AtomicBool::new(false);
    let a_done = AtomicBool::new(false);
    // Post-pause round trips that took as long as a lost wake would.
    let mut late = Vec::new();
    std::thread::scope(|scope| {
        let _a_done = RaiseOnDrop(&a_done);
        let b = scope.spawn(|| {
            let bell = b_segment
                .atomic_u32s(layout.bell_off, 1)
                .first()
                .expect("B's bell word");
            for _ in 0..FLOOD {
                bell.store(0, Ordering::SeqCst);
                b_control.write_all(b"bell\n").expect("B's bell line");
            }
            flooded.store(true, Ordering::SeqCst);
            // The flood is over; B goes on disarming its bell under the
            // daemon for as long as A runs.
            while !a_done.load(Ordering::SeqCst) {
                bell.store(0, Ordering::SeqCst);
                std::thread::sleep(SPIN_WINDOW / 2);
            }
        });

        // A: 20 000 round trips, a 1 ms pause before every thousandth;
        // the second half waits for the flood to end, so those pauses
        // really park the daemon and only A's own bell can end them.
        for seq in 0..20_000u64 {
            if seq == 10_000 {
                while !flooded.load(Ordering::SeqCst) {
                    assert!(!b.is_finished(), "B gave up before its flood was over");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let paused = seq % 1000 == 0;
            if paused {
                std::thread::sleep(Duration::from_millis(1));
            }
            let took = round_trip(&a, stream, seq);
            if paused && took >= BACKSTOP / 2 {
                late.push((seq, took));
            }
        }
    });
    // A lost wake shows after every quiet pause (stub the ring out and
    // all ten of the second half read ≈ 99 ms).  Five spinning threads
    // on a 2-vCPU host also stall one round trip in ≈ 10⁷ for tens of
    // milliseconds, paused or not, parked or not: that explains one.
    assert!(late.len() <= 1, "A's wakes were lost: {late:?}");

    let stats = a.daemon_stats().expect("daemon stats");
    assert!(stats.parks >= 10, "the daemon never parked: {stats:?}");
    assert_eq!(a.pool().stats().in_use, 0);
    assert_eq!(a.pool().stats().misuse_rejections, 0);
    shut_down(a, daemon);
}
