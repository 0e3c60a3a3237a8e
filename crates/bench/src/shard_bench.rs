//! Shard scale-out benchmark: aggregate multi-stream throughput of the
//! sharded polling engine at 1, 2, 4 and 8 shards per datapath.
//!
//! The workload is Fig. 8's sustained one-way flood generalized to many
//! streams: [`STREAMS`] producer streams on host A, one sink per stream
//! on host B, all mapped to the DPDK datapath.  With
//! `shards_per_datapath = S`, the runtime pins each stream to one of `S`
//! shards and each shard runs its own polling thread on its own core.
//!
//! This host exposes one CPU, so the harness applies the same pipeline
//! model as [`crate::throughput`]: each shard's polling work is driven
//! inline and timed separately, and the sustained rate is bounded by the
//! busiest single shard thread (sender or receiver side) or the wire —
//! `messages / max(max_s tx_ns[s], max_s rx_ns[s], wire_ns)`.
//! Application work (producing payloads, consuming messages) runs on the
//! applications' own cores in the deployed system and is driven untimed.
//!
//! Every consumed message carries its stream id and a per-stream
//! sequence number; the harness fails if any stream observes reordering,
//! so the reported speed-up never comes at the cost of the middleware's
//! per-stream FIFO contract.

use std::time::Instant;

use insane_core::{ChannelId, ConsumeMode, InsaneError, QosPolicy, Sink, Source, Technology};
use insane_fabric::TestbedProfile;

use crate::setup::{throughput_config, throughput_profile, InsanePair};
use crate::stats::gbps;
use crate::throughput::{self, wire_ns_per_msg};
use crate::{iters, BenchError};

/// Producer streams in the workload (enough that FNV assignment spreads
/// them over every shard count measured).
pub const STREAMS: usize = 8;

/// Payload bytes per message: stream id + sequence number plus padding,
/// the paper's small-message regime where per-message CPU dominates.
pub const PAYLOAD: usize = 64;

/// Required 2-shard speed-up over 1 shard in aggregate msgs/sec.
const MIN_SPEEDUP: f64 = 1.3;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shards per datapath for this run.
    pub shards: usize,
    /// Messages delivered (and order-checked) end to end.
    pub delivered: usize,
    /// Per-shard sender-side polling time, nanoseconds.
    pub tx_shard_ns: Vec<u64>,
    /// Per-shard receiver-side polling time, nanoseconds.
    pub rx_shard_ns: Vec<u64>,
    /// Total wire serialization time, nanoseconds.
    pub wire_ns: u64,
}

impl ShardRun {
    /// The pipeline bottleneck: the busiest shard thread or the wire.
    pub fn bottleneck_ns(&self) -> u64 {
        let tx = self.tx_shard_ns.iter().copied().max().unwrap_or(0);
        let rx = self.rx_shard_ns.iter().copied().max().unwrap_or(0);
        tx.max(rx).max(self.wire_ns).max(1)
    }

    /// Aggregate delivered messages per second under the pipeline model.
    pub fn msgs_per_sec(&self) -> f64 {
        self.delivered as f64 * 1e9 / self.bottleneck_ns() as f64
    }

    /// Aggregate goodput in Gbit/s.
    pub fn goodput_gbps(&self) -> f64 {
        gbps(PAYLOAD, self.delivered, self.bottleneck_ns())
    }

    /// The `BENCH_shard_throughput.json` entry of this run.
    pub fn row(&self, testbed: &str) -> insane_telemetry::Value {
        let system = format!("INSANE fast x{} shards", self.shards);
        throughput::row(
            &system,
            testbed,
            PAYLOAD,
            self.delivered,
            self.goodput_gbps(),
        )
    }
}

/// Per-stream ordering state checked on every consumed message.
struct OrderCheck {
    last_seq: Vec<Option<u32>>,
}

impl OrderCheck {
    fn new() -> Self {
        OrderCheck {
            last_seq: vec![None; STREAMS],
        }
    }

    fn observe(&mut self, payload: &[u8]) -> Result<(), BenchError> {
        if payload.len() < 8 {
            return Err(BenchError::Other(format!(
                "shard bench: short payload of {} bytes",
                payload.len()
            )));
        }
        let mut word = [0u8; 4];
        word.copy_from_slice(&payload[0..4]);
        let stream = u32::from_le_bytes(word) as usize;
        word.copy_from_slice(&payload[4..8]);
        let seq = u32::from_le_bytes(word);
        let slot = self
            .last_seq
            .get_mut(stream)
            .ok_or_else(|| BenchError::Other(format!("shard bench: unknown stream id {stream}")))?;
        if let Some(last) = *slot {
            if seq <= last {
                return Err(BenchError::Other(format!(
                    "per-stream ordering violated: stream {stream} saw seq {seq} after {last}"
                )));
            }
        }
        *slot = Some(seq);
        Ok(())
    }
}

fn emit_next(source: &Source, stream: usize, seq: &mut u32) -> Result<bool, BenchError> {
    match source.get_buffer(PAYLOAD) {
        Ok(mut buf) => {
            buf[0..4].copy_from_slice(&(stream as u32).to_le_bytes());
            buf[4..8].copy_from_slice(&seq.to_le_bytes());
            buf[8..].fill(0x5A);
            match source.emit(buf) {
                Ok(_) => {
                    *seq = seq.wrapping_add(1);
                    Ok(true)
                }
                Err(InsaneError::Backpressure) => Ok(false),
                Err(e) => Err(e.into()),
            }
        }
        Err(InsaneError::Memory(_)) => Ok(false),
        Err(e) => Err(e.into()),
    }
}

fn consume_all(
    sinks: &[Sink],
    order: &mut OrderCheck,
    delivered: &mut usize,
) -> Result<(), BenchError> {
    for sink in sinks {
        loop {
            match sink.consume(ConsumeMode::NonBlocking) {
                Ok(msg) => {
                    order.observe(&msg)?;
                    *delivered += 1;
                }
                Err(InsaneError::WouldBlock) => break,
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(())
}

/// Runs the multi-stream flood with `shards` shards per datapath until
/// `target` messages are delivered and order-checked, optionally
/// scaling the slot pools with the shard count (`per_shard_pool`): each
/// shard then works against the same pool capacity a 1-shard runtime
/// has in total, so high shard counts are not throttled by pool
/// contention instead of CPU — the regime the `--per-shard-pool` flag
/// of the `shard` suite measures.
///
/// # Errors
///
/// Fails on middleware errors, per-stream reordering, or a stalled
/// pipeline (delivery stops making progress).
pub fn run(
    profile: &TestbedProfile,
    shards: usize,
    target: usize,
    per_shard_pool: bool,
) -> Result<ShardRun, BenchError> {
    let techs = [Technology::KernelUdp, Technology::Dpdk];
    let pair = InsanePair::with_config(throughput_profile(profile.clone()), &techs, |c| {
        let mut c = throughput_config(c).with_shards_per_datapath(shards);
        if per_shard_pool {
            c.small_slots = c.small_slots.saturating_mul(shards);
            c.large_slots = c.large_slots.saturating_mul(shards);
            c.sink_queue_depth = c.sink_queue_depth.saturating_mul(shards);
        }
        c
    })?;

    let stream_b = pair.session_b.create_stream(QosPolicy::fast())?;
    let sinks = (0..STREAMS)
        .map(|i| stream_b.create_sink(ChannelId(i as u32)))
        .collect::<Result<Vec<Sink>, _>>()?;
    pair.settle();
    let sources = (0..STREAMS)
        .map(|i| {
            let stream = pair.session_a.create_stream(QosPolicy::fast())?;
            stream.create_source(ChannelId(i as u32))
        })
        .collect::<Result<Vec<Source>, _>>()?;
    pair.settle();

    let nshards = pair.rt_a.shards_per_datapath();
    if nshards != shards {
        return Err(BenchError::Other(format!(
            "runtime clamped shards to {nshards}, wanted {shards}"
        )));
    }

    let mut seqs = [0u32; STREAMS];
    let mut order = OrderCheck::new();
    let mut delivered = 0usize;
    let mut tx_shard_ns = vec![0u64; shards];
    let mut rx_shard_ns = vec![0u64; shards];

    let mut stalled = 0u32;
    while delivered < target {
        // Application stage (untimed): keep every stream's TX queue fed.
        for (i, source) in sources.iter().enumerate() {
            for _ in 0..8 {
                if !emit_next(source, i, &mut seqs[i])? {
                    break;
                }
            }
        }
        // Sender shard threads: one timed inline drive per shard.
        for (s, slot) in tx_shard_ns.iter_mut().enumerate() {
            let t0 = Instant::now();
            pair.rt_a.poll_technology_shard(Technology::Dpdk, s);
            *slot += t0.elapsed().as_nanos() as u64;
        }
        // Receiver shard threads, likewise.
        for (s, slot) in rx_shard_ns.iter_mut().enumerate() {
            let t0 = Instant::now();
            pair.rt_b.poll_technology_shard(Technology::Dpdk, s);
            *slot += t0.elapsed().as_nanos() as u64;
        }
        // Control path (kernel UDP) runs on its own threads; untimed.
        pair.rt_a.poll_technology(Technology::KernelUdp);
        pair.rt_b.poll_technology(Technology::KernelUdp);
        // Sink applications (untimed): drain and order-check.
        let before = delivered;
        consume_all(&sinks, &mut order, &mut delivered)?;
        stalled = if delivered == before { stalled + 1 } else { 0 };
        if stalled > 1_000_000 {
            return Err(BenchError::Other(format!(
                "shard bench stalled at {delivered}/{target} delivered ({shards} shards)"
            )));
        }
    }

    Ok(ShardRun {
        shards,
        delivered,
        tx_shard_ns,
        rx_shard_ns,
        wire_ns: wire_ns_per_msg(profile, PAYLOAD).saturating_mul(delivered as u64),
    })
}

/// The `shard` suite: `shard [--per-shard-pool] [SHARDS...]` (default
/// `1 2 4 8`) measures each shard count and exports
/// `BENCH_shard_throughput.json`.  When both the 1- and 2-shard points
/// are measured, the run fails unless 2 shards deliver at least
/// [`MIN_SPEEDUP`] times the 1-shard aggregate message rate — the
/// scale-out contract of the sharded polling engine, and the one gate
/// that lives here instead of in the BENCH contract table: it compares
/// two entries, which none of the table's rule kinds does.
///
/// # Errors
///
/// As [`run`], plus a malformed shard count, a violated export gate or
/// a missed scale-out floor.
pub fn suite(profile: &TestbedProfile, args: &[String]) -> Result<(), BenchError> {
    let per_shard_pool = args.iter().any(|a| a == "--per-shard-pool");
    let mut shard_counts = args
        .iter()
        .filter(|a| *a != "--per-shard-pool")
        .map(|a| {
            a.parse::<usize>()
                .ok()
                .filter(|s| (1..=64).contains(s))
                .ok_or_else(|| BenchError::Other(format!("bad shard count {a:?} (want 1..=64)")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if shard_counts.is_empty() {
        shard_counts = vec![1, 2, 4, 8];
    }
    let target = iters(6_000);

    println!(
        "shard scale-out: {STREAMS} streams x {PAYLOAD} B over DPDK, \
         {target} messages per point{}",
        if per_shard_pool {
            " (pools scaled per shard)"
        } else {
            ""
        }
    );
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "shards", "msgs/sec", "goodput Gbps", "bottleneck"
    );
    let mut runs: Vec<ShardRun> = Vec::new();
    for &shards in &shard_counts {
        let run = run(profile, shards, target, per_shard_pool)?;
        let tx = run.tx_shard_ns.iter().copied().max().unwrap_or(0);
        let rx = run.rx_shard_ns.iter().copied().max().unwrap_or(0);
        let side = if tx >= rx { "tx" } else { "rx" };
        let bottleneck = run.bottleneck_ns() as f64;
        let bottleneck = if bottleneck >= 1e6 {
            format!("{:.1}ms", bottleneck / 1e6)
        } else {
            format!("{:.1}us", bottleneck / 1e3)
        };
        println!(
            "{:>6} {:>12.0} {:>14.3} {bottleneck:>9} {side}",
            run.shards,
            run.msgs_per_sec(),
            run.goodput_gbps(),
        );
        runs.push(run);
    }
    let rows = runs.iter().map(|r| r.row(profile.name)).collect();
    crate::export::write("BENCH_shard_throughput.json", rows)?;

    let rate = |shards: usize| {
        runs.iter()
            .find(|r| r.shards == shards)
            .map(ShardRun::msgs_per_sec)
    };
    if let (Some(one), Some(two)) = (rate(1), rate(2)) {
        let speedup = two / one.max(f64::MIN_POSITIVE);
        println!("2-shard speed-up over 1 shard: {speedup:.2}x (required {MIN_SPEEDUP}x)");
        if speedup < MIN_SPEEDUP {
            return Err(BenchError::Other(format!(
                "2 shards reached only {speedup:.2}x of the 1-shard rate \
                 (required {MIN_SPEEDUP}x)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness delivers, order-checks and produces a valid BENCH
    /// entry at a tiny message count (the full comparison runs in the
    /// `shard` suite).
    #[test]
    fn harness_delivers_and_order_checks() {
        let profile = TestbedProfile::local();
        let run = run(&profile, 2, 256, false).unwrap();
        assert_eq!(run.shards, 2);
        assert!(run.delivered >= 256);
        assert_eq!(run.tx_shard_ns.len(), 2);
        assert!(run.bottleneck_ns() > 0);
        assert!(run.msgs_per_sec() > 0.0);
        let spec = insane_telemetry::schema::spec("BENCH_shard_throughput.json").unwrap();
        let doc = insane_telemetry::Value::object([
            ("schema", spec.schema.into()),
            (
                "entries",
                insane_telemetry::Value::Array(vec![run.row(profile.name)]),
            ),
        ]);
        insane_telemetry::schema::validate(spec, &doc).unwrap();
    }

    #[test]
    fn reordering_is_detected() {
        let mut order = OrderCheck::new();
        let mut msg = [0u8; 8];
        msg[4] = 5;
        order.observe(&msg).unwrap();
        msg[4] = 3;
        assert!(order.observe(&msg).is_err());
    }
}
