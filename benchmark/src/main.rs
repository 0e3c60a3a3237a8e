//! The repository benchmark: four closed-loop workloads driven through
//! the middleware's public API, end-to-end metrics from an untraced timed
//! phase scaled to the quiet machine, layer metrics from a separate
//! traced pass and a ladder of micro-measurements.  See `README.md`.

mod daemon;
mod gen;
mod ipc;
mod metrics;
mod mixed;
mod pair;
mod pingpong;
mod run;
mod rungs;
mod stats;
mod stream;
mod sys;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use insane_core::stats::StatsSnapshot;
use insane_core::TelemetryConfig;

use crate::pair::{Pair, SetupTimes};
use crate::run::{run_phase, Ctx, Fatal, Phase, Stop, Workload};
use crate::rungs::Metrics;
use crate::stats::{best_of, median_f64, Best};
use crate::trace::{NoTrace, Span, SpanTrace};
use crate::verify::Fault;

/// Fresh build → first verified message → teardown cycles timed per run,
/// each in a process of its own, spread over the timed phase; `setup_s`
/// is their median.
const SETUP_CYCLES: usize = 16;
/// Cycles of a `--trace 1` run, which only reports the stages.
const SETUP_CYCLES_TRACED: usize = 4;
/// Fewest segments a timed phase is cut into.
const MIN_SEGMENTS: usize = 64;
/// Share of the timed phase's length spent warming up first, discarded.
const WARM_UP: f64 = 0.10;
/// The timed phase stops at this multiple of `--seconds` even if it has
/// not reached [`MIN_SEGMENTS`] (a much slower host).
const PHASE_CAP: f64 = 2.5;
/// Segments the telemetry-off comparison runs on each side.
const TELEMETRY_SEGMENTS: usize = 8;

/// Runtime counters summed over both hosts.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    sink_drops: u64,
    rx_rejected: u64,
    idle_polls: u64,
    gate_deferrals: u64,
}

impl Counters {
    fn of(pair: &Pair) -> Self {
        let add = |f: fn(&StatsSnapshot) -> u64| f(&pair.rt_a.stats()) + f(&pair.rt_b.stats());
        Self {
            sink_drops: add(|s| s.sink_drops),
            rx_rejected: add(|s| s.rx_rejected),
            idle_polls: add(|s| s.idle_polls),
            gate_deferrals: add(|s| s.gate_deferrals),
        }
    }
}

fn reduce(phase: &Phase) -> Best {
    best_of(&phase.slices)
}

/// A workload plus what the driver needs around it.
trait Bench: Workload + Sized {
    const NAME: &'static str;
    /// Operations of the traced pass kept span by span in the trace
    /// file, and the most child spans one of them has.
    const RECORDED_OPS: u32;
    const SPANS_PER_OP: usize;

    fn build(seed: u64, times: &mut SetupTimes) -> Result<Self, Fatal>;
    /// End-of-run output checks, then teardown.
    fn finish(self, ctx: &mut Ctx) -> Result<(), Fatal>;
    fn counters(&self) -> Counters {
        Counters::default()
    }
    /// Most slots checked out at once during the traced pass.
    fn slots_peak(&self) -> usize {
        0
    }
    /// Layer metrics only this workload can measure.
    fn extras(&mut self, _seed: u64, _timed: &Best, _out: &mut Metrics) -> Result<(), Fatal> {
        Ok(())
    }
}

impl Bench for pingpong::PingPong {
    const NAME: &'static str = "pingpong_64b";
    const RECORDED_OPS: u32 = 2_048;
    const SPANS_PER_OP: usize = pingpong::SPANS_PER_OP;

    fn build(seed: u64, times: &mut SetupTimes) -> Result<Self, Fatal> {
        pingpong::PingPong::build(seed, |c| c, times)
    }
    fn finish(self, ctx: &mut Ctx) -> Result<(), Fatal> {
        pingpong::PingPong::finish(&self, ctx);
        Ok(())
    }
    fn counters(&self) -> Counters {
        Counters::of(&self.pair)
    }
    fn slots_peak(&self) -> usize {
        self.slots_peak
    }

    fn extras(&mut self, seed: u64, timed: &Best, out: &mut Metrics) -> Result<(), Fatal> {
        let b = &self.breakdown;
        out.push(("core.breakdown.send_ns", b.send_ns.median() as f64));
        out.push(("core.breakdown.network_ns", b.network_ns.median() as f64));
        out.push(("core.breakdown.receive_ns", b.receive_ns.median() as f64));
        out.push((
            "core.breakdown.processing_ns",
            b.processing_ns.median() as f64,
        ));

        // The paper's headline: what the middleware adds over the raw
        // technology.  The raw floor is measured by the fabric rung of
        // this same run.
        let floor_us = out
            .iter()
            .find(|(name, _)| *name == "fabric.raw_dpdk.rtt_p50_us")
            .map_or(0.0, |(_, v)| *v);
        out.push(("core.overhead_over_raw_us", timed.p50_ns / 1e3 - floor_us));

        // Telemetry is on by default; a second pair with it off, run in
        // alternation with this one, says what that default costs.
        let mut times = SetupTimes::default();
        let mut off = pingpong::PingPong::build(
            seed,
            |c| c.with_telemetry(TelemetryConfig::disabled()),
            &mut times,
        )?;
        let mut ctx = Ctx::new(None);
        let (mut on_p50, mut off_p50) = (f64::MAX, f64::MAX);
        for _ in 0..TELEMETRY_SEGMENTS {
            let idle = &mut |_| Ok(());
            let on = run_phase(self, &mut NoTrace, &mut ctx, Stop::Segments(1), idle)?;
            on_p50 = on_p50.min(reduce(&on).p50_ns);
            let quiet = run_phase(&mut off, &mut NoTrace, &mut ctx, Stop::Segments(1), idle)?;
            off_p50 = off_p50.min(reduce(&quiet).p50_ns);
        }
        off.finish(&mut ctx)?;
        if ctx.tally.failed != 0 {
            return Err(format!(
                "telemetry comparison: {}",
                ctx.tally.first_failure.unwrap_or_default()
            ));
        }
        out.push((
            "telemetry.disabled_rtt_delta_pct",
            100.0 * (on_p50 - off_p50) / off_p50,
        ));
        Ok(())
    }
}

impl Bench for stream::Stream8k {
    const NAME: &'static str = "stream_8k";
    const RECORDED_OPS: u32 = 64;
    const SPANS_PER_OP: usize = stream::SPANS_PER_OP;

    fn build(seed: u64, times: &mut SetupTimes) -> Result<Self, Fatal> {
        stream::Stream8k::build(seed, times)
    }
    fn finish(self, ctx: &mut Ctx) -> Result<(), Fatal> {
        stream::Stream8k::finish(&self, ctx);
        Ok(())
    }
    fn counters(&self) -> Counters {
        Counters::of(&self.pair)
    }
    fn slots_peak(&self) -> usize {
        self.slots_peak
    }
}

impl Bench for mixed::MixedQos {
    const NAME: &'static str = "mixed_qos";
    const RECORDED_OPS: u32 = 128;
    const SPANS_PER_OP: usize = mixed::SPANS_PER_OP;

    fn build(seed: u64, times: &mut SetupTimes) -> Result<Self, Fatal> {
        mixed::MixedQos::build(seed, times)
    }
    fn finish(self, ctx: &mut Ctx) -> Result<(), Fatal> {
        mixed::MixedQos::finish(&self, ctx);
        Ok(())
    }
    fn counters(&self) -> Counters {
        Counters::of(&self.pair)
    }
    fn slots_peak(&self) -> usize {
        self.slots_peak
    }
}

impl Bench for ipc::IpcPingPong {
    const NAME: &'static str = "ipc_pingpong_64b";
    const RECORDED_OPS: u32 = 2_048;
    const SPANS_PER_OP: usize = ipc::SPANS_PER_OP;

    fn build(seed: u64, times: &mut SetupTimes) -> Result<Self, Fatal> {
        ipc::IpcPingPong::build(seed, times)
    }
    fn finish(self, ctx: &mut Ctx) -> Result<(), Fatal> {
        ipc::IpcPingPong::finish(self, ctx)
    }

    fn extras(&mut self, _seed: u64, _timed: &Best, out: &mut Metrics) -> Result<(), Fatal> {
        out.push(("ipc.daemon.forwarded", self.daemon_forwarded()? as f64));
        out.push((
            "ipc.inproc_loop.rtt_p50_us",
            rungs::ipc_inproc_loop_rtt_p50_us()?,
        ));
        Ok(())
    }
}

/// One fresh build → first verified message → teardown cycle, timed.
fn setup_cycle<B: Bench>(seed: u64) -> Result<SetupTimes, Fatal> {
    let mut ctx = Ctx::new(None);
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let mut bench = B::build(seed, &mut times)?;
    ctx.tally.attempted += 1;
    bench.op(&mut NoTrace, &mut ctx)?;
    bench.finish(&mut ctx)?;
    times.total_s = t0.elapsed().as_secs_f64();
    match ctx.tally.first_failure {
        Some(why) => Err(format!("set-up cycle: {why}")),
        None => Ok(times),
    }
}

/// `--setup-cycle`: runs one cycle and prints its timings for the parent.
fn setup_cycle_main(workload: &str, seed: u64) -> Result<(), Fatal> {
    let t = match workload {
        "pingpong_64b" => setup_cycle::<pingpong::PingPong>(seed)?,
        "stream_8k" => setup_cycle::<stream::Stream8k>(seed)?,
        "mixed_qos" => setup_cycle::<mixed::MixedQos>(seed)?,
        "ipc_pingpong_64b" => setup_cycle::<ipc::IpcPingPong>(seed)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    println!(
        "{} {} {} {} {}",
        t.total_s, t.runtime_start_s, t.peer_converge_s, t.stream_open_s, t.attach_us
    );
    Ok(())
}

/// Set-up cycles, each timed in a process of its own.
///
/// A set-up is mostly first-touch page faults on the runtimes' pools
/// (≈ 32 MiB per pair).  Repeating it inside one process measures the
/// allocator's history instead — whether a cycle reuses pages an earlier
/// one faulted in — and on a micro-VM a process whose footprint keeps
/// growing eventually faults in memory the host has never backed, which
/// takes 10–50× longer.  A fresh process per cycle faults the same pages
/// in every time, like an application starting up; its timing starts
/// inside the process, so spawning it is not counted.
struct SetupCycles {
    exe: PathBuf,
    workload: &'static str,
    seed: String,
    cycles: Vec<SetupTimes>,
}

impl SetupCycles {
    fn new<B: Bench>(seed: u64) -> Result<Self, Fatal> {
        Ok(Self {
            exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            workload: B::NAME,
            seed: seed.to_string(),
            cycles: Vec::new(),
        })
    }

    /// Runs cycles until `count` have been run in all.
    fn run_up_to(&mut self, count: usize) -> Result<(), Fatal> {
        while self.cycles.len() < count {
            let output = std::process::Command::new(&self.exe)
                .args(["--setup-cycle", self.workload, &self.seed])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn set-up cycle: {e}"))?;
            if !output.status.success() {
                return Err(format!("set-up cycle exited with {}", output.status));
            }
            let text = String::from_utf8_lossy(&output.stdout);
            let fields: Vec<f64> = text
                .split_ascii_whitespace()
                .filter_map(|w| w.parse().ok())
                .collect();
            let [total_s, runtime_start_s, peer_converge_s, stream_open_s, attach_us] = fields[..]
            else {
                return Err(format!("set-up cycle printed {text:?}"));
            };
            self.cycles.push(SetupTimes {
                total_s,
                runtime_start_s,
                peer_converge_s,
                stream_open_s,
                attach_us,
            });
        }
        Ok(())
    }

    /// Medians over the cycles run.
    fn medians(&self) -> SetupTimes {
        let median =
            |f: fn(&SetupTimes) -> f64| median_f64(&self.cycles.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            total_s: median(|t| t.total_s),
            runtime_start_s: median(|t| t.runtime_start_s),
            peer_converge_s: median(|t| t.peer_converge_s),
            stream_open_s: median(|t| t.stream_open_s),
            attach_us: median(|t| t.attach_us),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: Option<Fault>,
    out: PathBuf,
}

/// Runs one workload; returns the result line and whether it was correct.
fn drive<B: Bench>(args: &Args) -> Result<(String, bool), Fatal> {
    // The run's first build is the cold one (page faults, lazy
    // initialisation): timed up to its first verified message, reported
    // apart, and then used for the measurement.
    let mut ctx = Ctx::new(args.self_test);
    let cold = Instant::now();
    let mut bench = B::build(args.seed, &mut SetupTimes::default())?;
    ctx.tally.attempted += 1;
    bench.op(&mut NoTrace, &mut ctx)?;
    let cold_s = cold.elapsed().as_secs_f64();

    let timed_stop = |seconds: f64, min_segments: usize| Stop::After {
        seconds,
        min_segments,
        cap_seconds: seconds * PHASE_CAP,
    };
    run_phase(
        &mut bench,
        &mut NoTrace,
        &mut ctx,
        timed_stop(args.seconds * WARM_UP, 1),
        &mut |_| Ok(()),
    )?;

    // The set-up cycles of a `--trace 0` run are spread evenly over the
    // timed phase, one between two segments whenever one is due: the
    // machine's fast and slow spells last seconds, and sixteen cycles
    // back to back would all land in one of them.
    let mut setups = SetupCycles::new::<B>(args.seed)?;
    let spacing_s = args.seconds / SETUP_CYCLES as f64;
    let timed = run_phase(
        &mut bench,
        &mut NoTrace,
        &mut ctx,
        timed_stop(args.seconds, MIN_SEGMENTS),
        &mut |elapsed_s| {
            if args.trace {
                return Ok(());
            }
            let due = ((elapsed_s / spacing_s) as usize).min(SETUP_CYCLES);
            setups.run_up_to(due)
        },
    )?;
    let best = reduce(&timed);

    let mut values: Metrics = Vec::new();
    let defs: Vec<(&str, &str)> = if !args.trace {
        bench.finish(&mut ctx)?;
        setups.run_up_to(SETUP_CYCLES)?;
        values.push(("setup_s", setups.medians().total_s));
        values.push(("lat_p50_us", best.p50_ns / 1e3));
        values.push(("msgs_per_s", best.msgs_per_s));
        values.push(("cpu_us_per_msg", best.cpu_us_per_msg));
        values.push(("peak_rss_mb", timed.peak_rss_mb));
        metrics::END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    } else {
        layer_metrics(&mut bench, args, &timed, &best, &mut ctx, &mut values)?;
        bench.finish(&mut ctx)?;
        setups.run_up_to(SETUP_CYCLES_TRACED)?;
        let stages = setups.medians();
        values.push(("bench.setup_cold_s", cold_s));
        values.push(("core.runtime_start_s", stages.runtime_start_s));
        values.push(("core.peer_converge_s", stages.peer_converge_s));
        values.push(("core.stream_open_s", stages.stream_open_s));
        values.push(("ipc.attach_us", stages.attach_us));
        // A layer metric this workload has no way to measure reads 0.
        for (name, _, _) in metrics::PER_LAYER {
            if !values.iter().any(|(n, _)| *n == name) {
                values.push((name, 0.0));
            }
        }
        metrics::PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    };

    if !ctx.fault.fired() {
        return Err("--self-test: the run ended before the fault was injected".into());
    }
    if let Some(why) = &ctx.tally.first_failure {
        eprintln!(
            "insane-benchmark: {} of {} operations failed; first: {why}",
            ctx.tally.failed, ctx.tally.attempted
        );
    }
    let correct = ctx.tally.failed == 0;
    let line = metrics::result_line(
        correct,
        ctx.tally.attempted,
        ctx.tally.failed,
        &defs,
        &values,
    )?;
    Ok((line, correct))
}

/// The traced pass, the counters around it and the ladder.
fn layer_metrics<B: Bench>(
    bench: &mut B,
    args: &Args,
    timed: &Phase,
    best: &Best,
    ctx: &mut Ctx,
    out: &mut Metrics,
) -> Result<(), Fatal> {
    // A quarter of the timed phase's operations, traced.
    let traced_segments = (timed.segments / 4).max(1);
    let mut spans = SpanTrace::new(B::RECORDED_OPS, B::SPANS_PER_OP);
    let before = bench.counters();
    let tally_before = (
        ctx.tally.emit_backpressure,
        ctx.tally.acquire_failed,
        ctx.tally.admission_rejected,
    );
    let traced = run_phase(
        bench,
        &mut spans,
        ctx,
        Stop::Segments(traced_segments),
        &mut |_| Ok(()),
    )?;
    let after = bench.counters();
    spans
        .write_json(&PathBuf::from(format!("{}.trace.json", B::NAME)))
        .map_err(|e| format!("write trace: {e}"))?;
    let traced_best = reduce(&traced);

    let span_ns = |s: Span| spans.median_ns(s) as f64;
    let in_process = spans.calls(Span::GetBuffer) > 0;
    if in_process {
        out.push(("core.get_buffer_ns", span_ns(Span::GetBuffer)));
        out.push(("core.emit_ns", span_ns(Span::Emit)));
        out.push(("core.poll_tx_ns", span_ns(Span::PollTx)));
        out.push(("core.poll_rx_hit_ns", span_ns(Span::PollRxHit)));
        out.push(("core.consume_ns", span_ns(Span::Consume)));
        out.push(("core.release_ns", span_ns(Span::Release)));
        out.push(("core.poll_rx_empty_ns", spans.wait_per_op_ns() as f64));
        out.push(("core.poll_rx_empty_count", spans.misses_per_op() as f64));
    } else {
        out.push(("ipc.lend_ns", span_ns(Span::IpcLend)));
        out.push(("ipc.emit_ns", span_ns(Span::IpcEmit)));
        out.push(("ipc.recv_hit_ns", span_ns(Span::IpcRecvHit)));
        out.push(("ipc.recv_wait_us", spans.wait_per_op_ns() as f64 / 1e3));
        out.push(("ipc.recv_miss_count", spans.misses_per_op() as f64));
        let per_msg = |cpu_ns: u64| cpu_ns as f64 / 1e3 / timed.msgs as f64;
        out.push(("ipc.daemon.cpu_us_per_msg", per_msg(timed.child_cpu_ns)));
        out.push(("ipc.client.cpu_us_per_msg", per_msg(timed.self_cpu_ns)));
    }
    out.push((
        "core.emit_backpressure",
        (ctx.tally.emit_backpressure - tally_before.0) as f64,
    ));
    out.push((
        "memory.acquire_failed",
        (ctx.tally.acquire_failed - tally_before.1) as f64,
    ));
    out.push((
        "core.admission_rejected",
        (ctx.tally.admission_rejected - tally_before.2) as f64,
    ));
    out.push((
        "core.sink_drops",
        (after.sink_drops - before.sink_drops) as f64,
    ));
    out.push((
        "core.rx_rejected",
        (after.rx_rejected - before.rx_rejected) as f64,
    ));
    out.push((
        "core.idle_polls",
        (after.idle_polls - before.idle_polls) as f64,
    ));
    out.push((
        "tsn.gate_deferrals",
        (after.gate_deferrals - before.gate_deferrals) as f64,
    ));
    out.push(("memory.slots_in_use_peak", bench.slots_peak() as f64));

    out.push((
        "bench.trace_overhead_pct",
        100.0 * (traced_best.p50_ns - best.p50_ns) / best.p50_ns,
    ));
    out.push(("bench.span_coverage_pct", spans.coverage_pct()));
    out.push(("bench.timer_ns", rungs::timer_ns()));
    out.push(("bench.lat_p99_us", best.p99_ns / 1e3));
    out.push(("bench.lat_p50_whole_us", timed.whole.median() as f64 / 1e3));
    out.push((
        "bench.lat_p99_whole_us",
        timed.whole.percentile(99.0) as f64 / 1e3,
    ));
    out.push(("bench.msgs_per_s_whole", timed.msgs_per_s()));
    out.push(("bench.cpu_us_per_msg_whole", timed.cpu_us_per_msg()));
    out.push(("bench.floor_pct", 100.0 * best.floor));
    out.push(("bench.quiet_slices", best.quiet_slices as f64));
    out.push(("bench.slices", best.slices as f64));
    out.push(("bench.segments", timed.segments as f64));
    out.push(("bench.samples", timed.whole.count() as f64));
    out.push(("bench.traced_ops", spans.calls(Span::Op) as f64));

    rungs::queues(out);
    rungs::memory(out)?;
    rungs::netstack(out)?;
    rungs::tsn(out)?;
    rungs::fabric(out)?;
    bench.extras(args.seed, best, out)
}

const USAGE: &str =
    "usage: insane-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--self-test <corrupt|swallow>] [--out <dir>]\n       insane-benchmark --print-manifest";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, Fatal> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        self_test: None,
        out: PathBuf::from("out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--self-test" => {
                args.self_test = Some(match value()?.as_str() {
                    "corrupt" => Fault::Corrupt,
                    "swallow" => Fault::Swallow,
                    other => {
                        return Err(format!(
                            "--self-test takes corrupt or swallow, not {other:?}"
                        ))
                    }
                });
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run(argv: Vec<String>) -> Result<bool, Fatal> {
    match argv.first().map(String::as_str) {
        Some("--serve") => {
            let socket = argv.get(1).ok_or("--serve needs a socket path")?;
            daemon::serve(std::path::Path::new(socket))?;
            return Ok(true);
        }
        Some("--setup-cycle") => {
            let workload = argv.get(1).ok_or("--setup-cycle needs a workload")?;
            let seed = argv
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or("--setup-cycle needs a seed")?;
            setup_cycle_main(workload, seed)?;
            return Ok(true);
        }
        Some("--print-manifest") => {
            print!("{}", metrics::manifest());
            return Ok(true);
        }
        _ => {}
    }
    let args = parse_args(argv.into_iter())?;
    // Everything the run writes (the daemon's socket directory, the trace
    // file) lands in the output directory, under short relative names.
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    std::env::set_current_dir(&args.out)
        .map_err(|e| format!("enter {}: {e}", args.out.display()))?;
    let (line, correct) = match args.workload.as_str() {
        "pingpong_64b" => drive::<pingpong::PingPong>(&args)?,
        "stream_8k" => drive::<stream::Stream8k>(&args)?,
        "mixed_qos" => drive::<mixed::MixedQos>(&args)?,
        "ipc_pingpong_64b" => drive::<ipc::IpcPingPong>(&args)?,
        other => {
            let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {other:?}; one of {names:?}\n{USAGE}"
            ));
        }
    };
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("insane-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
