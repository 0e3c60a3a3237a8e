//! The segmented phase runner shared by every workload.

use std::time::Instant;

use crate::stats::{ns32, percentile, LogHist, Slice};
use crate::sys;
use crate::trace::Tracer;
use crate::verify::{Fault, FaultPlan, Tally};

/// An error that ends the run without a result: an API failure, a typed
/// refusal, a message that never arrived, a daemon that died.
pub type Fatal = String;

/// Run-wide state every operation updates.
#[derive(Debug)]
pub struct Ctx {
    pub tally: Tally,
    pub fault: FaultPlan,
}

impl Ctx {
    /// A fresh tally, injecting `fault` (`--self-test`) if given.
    pub fn new(fault: Option<Fault>) -> Self {
        Self {
            tally: Tally::default(),
            fault: FaultPlan::new(fault),
        }
    }
}

/// What one operation measured.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// The operation's latency as the workload defines it, ns.
    pub lat_ns: u64,
    /// Messages delivered to a sink and verified by this operation.
    pub msgs: u32,
    /// Which kind of operation this was, where a workload has several
    /// that differ in size: times are compared within a kind only.
    pub kind: u8,
}

/// A closed-loop workload: one client, one operation at a time.
pub trait Workload {
    /// Operations per slice, the unit the quiet-machine estimator
    /// compares: about 100 µs of work, short enough to fit into the gaps
    /// between the host's interference — unless single operations are a
    /// matter of luck (the IPC daemon's sleep), which takes a longer
    /// slice to average out.  All operations of a slice are of one kind.
    const SLICE_OPS: usize;
    /// Slices per segment, the unit phases are counted in.
    const SLICES_PER_SEGMENT: usize;

    /// Runs one operation, wrapping every call into the program in a
    /// span of `t`.
    fn op<T: Tracer>(&mut self, t: &mut T, ctx: &mut Ctx) -> Result<OpOutcome, Fatal>;

    /// Work between segments that must not count into one (the IPC
    /// session's heartbeat).
    fn between_segments(&mut self) -> Result<(), Fatal> {
        Ok(())
    }

    /// A child process whose CPU time belongs to the workload.
    fn child_pid(&self) -> Option<u32> {
        None
    }
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After `seconds`, but not before `min_segments` segments and not
    /// after `cap_seconds`.
    After {
        seconds: f64,
        min_segments: usize,
        cap_seconds: f64,
    },
    /// After exactly this many segments.
    Segments(usize),
}

/// No workload's slice is shorter than 25 µs.
const MAX_SLICES_PER_S: f64 = 40_000.0;

/// Everything a phase measured.
#[derive(Debug)]
pub struct Phase {
    pub segments: usize,
    pub slices: Vec<Slice>,
    /// Every operation's latency, whole phase.
    pub whole: LogHist,
    pub msgs: u64,
    /// Time inside slices (work between them excluded), s.
    pub busy_s: f64,
    /// CPU of the bench process inside slices, ns.
    pub self_cpu_ns: u64,
    /// CPU of the workload's child process inside slices, ns.
    pub child_cpu_ns: u64,
    /// Most memory the bench process and the child owned at a segment
    /// boundary, MiB.
    pub peak_rss_mb: f64,
}

impl Phase {
    pub fn msgs_per_s(&self) -> f64 {
        self.msgs as f64 / self.busy_s
    }

    pub fn cpu_us_per_msg(&self) -> f64 {
        (self.self_cpu_ns + self.child_cpu_ns) as f64 / 1e3 / self.msgs as f64
    }
}

/// Runs segments of `W::SLICES_PER_SEGMENT` slices of `W::SLICE_OPS`
/// operations until `stop`.  `interlude` runs between segments, with the
/// seconds elapsed since the phase began; what it does is not measured.
pub fn run_phase<W: Workload, T: Tracer>(
    w: &mut W,
    t: &mut T,
    ctx: &mut Ctx,
    stop: Stop,
    interlude: &mut dyn FnMut(f64) -> Result<(), Fatal>,
) -> Result<Phase, Fatal> {
    let me = std::process::id();
    let mut samples: Vec<u64> = Vec::with_capacity(W::SLICE_OPS);
    // One allocation, sized for the longest the phase may run: a record
    // that is never moved leaves no copies of itself behind in the heap,
    // so the memory it accounts for is exactly its length.
    let room = match stop {
        Stop::Segments(n) => n * W::SLICES_PER_SEGMENT,
        Stop::After { cap_seconds, .. } => (cap_seconds * MAX_SLICES_PER_S) as usize,
    };
    let mut phase = Phase {
        segments: 0,
        slices: Vec::with_capacity(room),
        whole: LogHist::new(),
        msgs: 0,
        busy_s: 0.0,
        self_cpu_ns: 0,
        child_cpu_ns: 0,
        peak_rss_mb: 0.0,
    };
    let started = Instant::now();
    loop {
        let child = w.child_pid();
        for _ in 0..W::SLICES_PER_SEGMENT {
            samples.clear();
            let (mut msgs, mut kind) = (0u64, 0);
            let self_cpu_0 = sys::cpu_ns(me);
            let child_cpu_0 = child.map_or(0, sys::cpu_ns);
            let slice_started = Instant::now();
            for _ in 0..W::SLICE_OPS {
                ctx.tally.attempted += 1;
                let outcome = w.op(t, ctx)?;
                samples.push(outcome.lat_ns);
                msgs += u64::from(outcome.msgs);
                kind = outcome.kind;
            }
            let slice_ns = slice_started.elapsed().as_nanos() as u64;
            let self_cpu = sys::cpu_ns(me).saturating_sub(self_cpu_0);
            let child_cpu = child.map_or(0, |pid| sys::cpu_ns(pid).saturating_sub(child_cpu_0));

            for s in &samples {
                phase.whole.record(*s);
            }
            samples.sort_unstable();
            phase.slices.push(Slice {
                kind,
                msgs: msgs as u32,
                wall_ns: ns32(slice_ns),
                cpu_ns: ns32(self_cpu + child_cpu),
                lat_p50_ns: ns32(percentile(&samples, 50.0)),
                lat_max_ns: ns32(percentile(&samples, 100.0)),
            });
            phase.msgs += msgs;
            phase.busy_s += slice_ns as f64 / 1e9;
            phase.self_cpu_ns += self_cpu;
            phase.child_cpu_ns += child_cpu;
        }
        phase.segments += 1;
        // Less this record of slices, which grows with the speed of the
        // machine and is the harness's, not a deployment's.
        let record_mb = std::mem::size_of_val(&phase.slices[..]) as f64 / (1024.0 * 1024.0);
        let rss_mb = sys::owned_rss_mb(me) + child.map_or(0.0, sys::owned_rss_mb) - record_mb;
        phase.peak_rss_mb = phase.peak_rss_mb.max(rss_mb);
        w.between_segments()?;
        interlude(started.elapsed().as_secs_f64())?;

        let elapsed = started.elapsed().as_secs_f64();
        let finished = match stop {
            Stop::Segments(n) => phase.segments >= n,
            Stop::After {
                seconds,
                min_segments,
                cap_seconds,
            } => (elapsed >= seconds && phase.segments >= min_segments) || elapsed >= cap_seconds,
        };
        if finished {
            return Ok(phase);
        }
    }
}
