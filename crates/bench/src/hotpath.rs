//! Hot-path control-state read experiment (DESIGN.md §12).
//!
//! The polling shards read routing tables, QP lists, and tunables on
//! every iteration; writers touch them on control-plane events only.
//! This experiment measures what the `SnapshotCell` conversion bought
//! over the `RwLock` it replaced, in three phases:
//!
//! * **uncontended** — mean cost of one control-state read with no
//!   writer anywhere: `RwLock::read()` (an atomic RMW on a shared line
//!   even when free) vs `SnapshotCell::refresh` (one atomic load when
//!   the snapshot is unchanged);
//! * **contended** — per-read latency p99 while a writer thread
//!   republishes the table in a loop.  On a single-CPU host the locked
//!   reader occasionally blocks for a full scheduler quantum when the
//!   preempted writer holds the lock; the snapshot reader never blocks
//!   on the writer at all, so the p99s separate by orders of magnitude;
//! * **reload-under-load** — a live INSANE pair streams sequenced
//!   messages while [`Tunables`] are republished mid-flight; every
//!   message must arrive, in order.  Hot reconfiguration must be
//!   invisible to the datapath.
//!
//! Exported as the schema-validated `BENCH_hotpath.json`; the contract
//! re-checks all three gates on every consumer (`insanectl
//! check-bench`, CI).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use insane_core::{ConsumeMode, InsaneError, QosPolicy, SnapshotCell, Technology, Tunables};
use insane_fabric::TestbedProfile;
use insane_telemetry::Value;

use crate::setup::InsanePair;
use crate::stats::Series;
use crate::{iters, BenchError};

/// Sequenced-payload size of the reload-under-load phase (one u64).
pub const SEQ_PAYLOAD: usize = 8;
/// Uncontended gate in thousandths: the snapshot read may cost at most
/// 1.100x the locked read it replaced (it is expected to be *cheaper*;
/// the slack absorbs timer noise on shared CI runners).
pub const UNCONTENDED_BOUND_X1000: u64 = 1_100;
/// Contended gate in thousandths: with a live writer, the snapshot
/// reader's p99 must not exceed 1.100x the locked reader's p99.
pub const CONTENDED_BOUND_X1000: u64 = 1_100;

/// The routing-table stand-in both read paths traverse: large enough
/// that a clone-and-republish is real work, small enough to stay
/// cache-resident like the runtime's actual tables.
const TABLE_ENTRIES: usize = 64;

/// Repetitions of each contended measurement; the run with the lowest
/// p99 is kept.  At CI iteration counts both designs' tails land within
/// a timer tick of each other, so a single run is hostage to one
/// unlucky scheduler quantum; best-of-N compares each design's
/// reproducible tail instead.
const CONTENDED_RUNS: usize = 3;

fn table(seed: u64) -> Vec<u64> {
    (0..TABLE_ENTRIES as u64).map(|i| i ^ seed).collect()
}

fn read_entry(entries: &[u64], i: usize) -> u64 {
    entries.get(i % TABLE_ENTRIES).copied().unwrap_or(0)
}

/// Outcome of one hot-path run.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Timed reads per uncontended measurement.
    pub samples: usize,
    /// Mean uncontended `RwLock` read, thousandths of a nanosecond.
    pub locked_read_ns_x1000: u64,
    /// Mean uncontended snapshot read, thousandths of a nanosecond.
    pub snapshot_read_ns_x1000: u64,
    /// Per-read latencies under a republishing writer, locked reader.
    pub locked_contended: Series,
    /// Per-read latencies under a republishing writer, snapshot reader.
    pub snapshot_contended: Series,
    /// Live tunables reloads performed while traffic flowed.
    pub reloads: u64,
    /// Messages emitted in the reload phase.
    pub sent: u64,
    /// Messages that never arrived (must be 0).
    pub dropped: u64,
    /// Messages that arrived out of order (must be 0).
    pub reordered: u64,
}

impl HotpathReport {
    /// snapshot/locked uncontended mean ratio in thousandths.
    pub fn uncontended_ratio_x1000(&self) -> u64 {
        self.snapshot_read_ns_x1000
            .saturating_mul(1_000)
            .checked_div(self.locked_read_ns_x1000)
            .unwrap_or(u64::MAX)
    }

    /// snapshot/locked contended p99 ratio in thousandths.
    pub fn contended_ratio_x1000(&self) -> u64 {
        self.snapshot_contended
            .p99()
            .saturating_mul(1_000)
            .checked_div(self.locked_contended.p99())
            .unwrap_or(u64::MAX)
    }

    /// The `BENCH_hotpath.json` entry of this run.
    pub fn row(&self, testbed: &str) -> Value {
        Value::object([
            ("system", "INSANE hot path".into()),
            ("testbed", testbed.into()),
            ("samples", (self.samples as u64).into()),
            ("locked_read_ns_x1000", self.locked_read_ns_x1000.into()),
            ("snapshot_read_ns_x1000", self.snapshot_read_ns_x1000.into()),
            (
                "uncontended_ratio_x1000",
                self.uncontended_ratio_x1000().into(),
            ),
            ("uncontended_bound_x1000", UNCONTENDED_BOUND_X1000.into()),
            ("locked_p99_ns", self.locked_contended.p99().into()),
            ("snapshot_p99_ns", self.snapshot_contended.p99().into()),
            ("contended_ratio_x1000", self.contended_ratio_x1000().into()),
            ("contended_bound_x1000", CONTENDED_BOUND_X1000.into()),
            ("reloads", self.reloads.into()),
            ("dropped", self.dropped.into()),
            ("reordered", self.reordered.into()),
        ])
    }
}

/// Mean per-read cost of the locked design with no writer, in
/// thousandths of a nanosecond.
fn uncontended_locked(samples: usize) -> u64 {
    let lock = RwLock::new(table(0));
    let mut acc = 0u64;
    let t0 = Instant::now();
    for i in 0..samples {
        let guard = lock.read().unwrap_or_else(|e| e.into_inner());
        acc = acc.wrapping_add(read_entry(&guard, i));
    }
    let elapsed = t0.elapsed().as_nanos() as u64;
    black_box(acc);
    per_read_x1000(elapsed, samples)
}

/// Mean per-read cost of the snapshot design with no writer, in
/// thousandths of a nanosecond.  The cached snapshot is refreshed every
/// read, exactly like a polling shard's per-iteration prologue.
fn uncontended_snapshot(samples: usize) -> u64 {
    let cell = SnapshotCell::new(table(0));
    let mut cached = cell.load();
    let mut acc = 0u64;
    let t0 = Instant::now();
    for i in 0..samples {
        cell.refresh(&mut cached);
        acc = acc.wrapping_add(read_entry(&cached, i));
    }
    let elapsed = t0.elapsed().as_nanos() as u64;
    black_box(acc);
    per_read_x1000(elapsed, samples)
}

fn per_read_x1000(elapsed_ns: u64, samples: usize) -> u64 {
    (elapsed_ns.saturating_mul(1_000) / samples.max(1) as u64).max(1)
}

/// Per-read latencies of the locked design while a writer thread
/// clones, mutates, and writes the table back under the write lock.
fn contended_locked(samples: usize) -> Series {
    let lock = Arc::new(RwLock::new(table(0)));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seed = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let next = table(seed);
                seed = seed.wrapping_add(1);
                let mut guard = lock.write().unwrap_or_else(|e| e.into_inner());
                *guard = next;
            }
        })
    };
    let mut series = Series::new();
    let mut acc = 0u64;
    for i in 0..samples {
        let t0 = Instant::now();
        let guard = lock.read().unwrap_or_else(|e| e.into_inner());
        acc = acc.wrapping_add(read_entry(&guard, i));
        drop(guard);
        series.push(t0.elapsed().as_nanos() as u64);
    }
    stop.store(true, Ordering::Relaxed);
    let _ = writer.join();
    black_box(acc);
    series
}

/// Per-read latencies of the snapshot design while a writer thread
/// builds and publishes fresh tables.
fn contended_snapshot(samples: usize) -> Series {
    let cell = Arc::new(SnapshotCell::new(table(0)));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let cell = Arc::clone(&cell);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seed = 1u64;
            while !stop.load(Ordering::Relaxed) {
                cell.publish(Arc::new(table(seed)));
                seed = seed.wrapping_add(1);
            }
        })
    };
    let mut series = Series::new();
    let mut cached = cell.load();
    let mut acc = 0u64;
    for i in 0..samples {
        let t0 = Instant::now();
        cell.refresh(&mut cached);
        acc = acc.wrapping_add(read_entry(&cached, i));
        series.push(t0.elapsed().as_nanos() as u64);
    }
    stop.store(true, Ordering::Relaxed);
    let _ = writer.join();
    black_box(acc);
    series
}

/// Keeps the series with the lowest p99 out of `runs` measurements.
fn best_of(runs: usize, mut measure: impl FnMut() -> Series) -> Series {
    let mut best = measure();
    for _ in 1..runs {
        let next = measure();
        if next.p99() < best.p99() {
            best = next;
        }
    }
    best
}

/// Streams `messages` sequenced one-way messages across a live pair
/// while republishing [`Tunables`] mid-flight; returns
/// `(reloads, sent, dropped, reordered)`.
fn reload_under_load(
    profile: &TestbedProfile,
    messages: u64,
) -> Result<(u64, u64, u64, u64), BenchError> {
    let pair = InsanePair::new(profile.clone(), &[Technology::KernelUdp, Technology::Dpdk])?;
    let (source, sinks) = pair.one_way(QosPolicy::fast(), 1)?;
    let sink = sinks
        .into_iter()
        .next()
        .ok_or_else(|| BenchError::Other("one_way returned no sink".into()))?;
    let hot = Technology::Dpdk;

    // Alternate between a narrow and a wide burst window so every
    // reload genuinely moves the adaptive controller's clamps.
    let tunables = [Tunables::for_burst(8), Tunables::for_burst(64)];
    let reload_every = (messages / 8).max(1);

    let mut reloads = 0u64;
    let mut received = 0u64;
    let mut reordered = 0u64;
    let mut next_seq = 0u64;
    let consume =
        |sink: &insane_core::Sink, received: &mut u64, reordered: &mut u64, next_seq: &mut u64| {
            while let Ok(msg) = sink.consume(ConsumeMode::NonBlocking) {
                *received += 1;
                if msg.len() >= SEQ_PAYLOAD {
                    let mut raw = [0u8; SEQ_PAYLOAD];
                    raw.copy_from_slice(&msg[..SEQ_PAYLOAD]);
                    let seq = u64::from_le_bytes(raw);
                    if seq != *next_seq {
                        *reordered += 1;
                    }
                    *next_seq = seq.wrapping_add(1);
                }
            }
        };

    for seq in 0..messages {
        if seq % reload_every == 0 {
            let t = tunables
                .get((reloads % 2) as usize)
                .cloned()
                .unwrap_or_default();
            pair.rt_a.reload_tunables(t.clone())?;
            pair.rt_b.reload_tunables(t)?;
            reloads += 1;
        }
        // Emit with bounded retry: backpressure just means the pair
        // needs polling, which is the caller's job in Manual mode.
        let mut attempts = 0u32;
        loop {
            let outcome = source.get_buffer(SEQ_PAYLOAD).and_then(|mut buf| {
                buf.copy_from_slice(&seq.to_le_bytes());
                source.emit(buf).map(|_| ())
            });
            match outcome {
                Ok(()) => break,
                Err(InsaneError::Backpressure) | Err(InsaneError::Memory(_)) => {
                    attempts += 1;
                    if attempts > 100_000 {
                        return Err(BenchError::Other(
                            "reload-under-load stalled: emit retries exhausted".into(),
                        ));
                    }
                    pair.rt_a.poll_transmit(hot);
                    pair.rt_b.poll_technology(hot);
                    consume(&sink, &mut received, &mut reordered, &mut next_seq);
                }
                Err(e) => return Err(e.into()),
            }
        }
        pair.rt_a.poll_transmit(hot);
        pair.rt_b.poll_technology(hot);
        consume(&sink, &mut received, &mut reordered, &mut next_seq);
    }

    // Drain the tail.
    let mut idle = 0u32;
    while received < messages && idle < 100_000 {
        pair.rt_a.poll_transmit(hot);
        pair.rt_b.poll_technology(hot);
        let before = received;
        consume(&sink, &mut received, &mut reordered, &mut next_seq);
        idle = if received == before { idle + 1 } else { 0 };
    }

    Ok((reloads, messages, messages - received, reordered))
}

/// Runs all three phases.
///
/// # Errors
///
/// Propagates middleware failures from the reload-under-load phase and
/// stalls (a message that never arrives shows up as `dropped`, not an
/// error — the export gate rejects it with a better message).
pub fn run(
    profile: &TestbedProfile,
    samples: usize,
    messages: u64,
) -> Result<HotpathReport, BenchError> {
    // Warm both paths once so neither measurement pays first-touch costs.
    black_box(uncontended_locked(samples / 10 + 1));
    black_box(uncontended_snapshot(samples / 10 + 1));

    let locked_read_ns_x1000 = uncontended_locked(samples);
    let snapshot_read_ns_x1000 = uncontended_snapshot(samples);
    let locked_contended = best_of(CONTENDED_RUNS, || contended_locked(samples));
    let snapshot_contended = best_of(CONTENDED_RUNS, || contended_snapshot(samples));
    let (reloads, sent, dropped, reordered) = reload_under_load(profile, messages)?;

    Ok(HotpathReport {
        samples,
        locked_read_ns_x1000,
        snapshot_read_ns_x1000,
        locked_contended,
        snapshot_contended,
        reloads,
        sent,
        dropped,
        reordered,
    })
}

/// The `hotpath` suite: runs the three phases, prints the verdict and
/// exports `BENCH_hotpath.json`, whose contract fails the run unless
/// the snapshot design is no slower uncontended, no worse at the
/// contended tail, and the reloads were loss- and reorder-free.
///
/// # Errors
///
/// As [`run`], plus any violated export gate.
pub fn suite(profile: &TestbedProfile) -> Result<(), BenchError> {
    let samples = iters(100_000);
    let messages = iters(2_000) as u64;

    println!("hot path: {samples} reads/phase, {messages} sequenced messages across live reloads");
    let report = run(profile, samples, messages)?;
    println!(
        "uncontended read: locked {:.1}ns, snapshot {:.1}ns -> ratio {:.3}x (bound {:.3}x)",
        report.locked_read_ns_x1000 as f64 / 1e3,
        report.snapshot_read_ns_x1000 as f64 / 1e3,
        report.uncontended_ratio_x1000() as f64 / 1e3,
        UNCONTENDED_BOUND_X1000 as f64 / 1e3,
    );
    println!(
        "contended p99: locked {:.2}us, snapshot {:.2}us -> ratio {:.3}x (bound {:.3}x)",
        report.locked_contended.p99() as f64 / 1e3,
        report.snapshot_contended.p99() as f64 / 1e3,
        report.contended_ratio_x1000() as f64 / 1e3,
        CONTENDED_BOUND_X1000 as f64 / 1e3,
    );
    println!(
        "reload under load: {} reloads across {} messages, {} dropped, {} reordered",
        report.reloads, report.sent, report.dropped, report.reordered
    );
    crate::export::write("BENCH_hotpath.json", vec![report.row(profile.name)])
}
