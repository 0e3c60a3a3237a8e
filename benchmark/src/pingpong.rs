//! `pingpong_64b`: 64 B round trips A→B→A on `QosPolicy::fast()`.

use std::time::Instant;

use insane_core::stats::LatencyBreakdown;
use insane_core::{ChannelId, QosPolicy, RuntimeConfig, Session, Sink, Source};

use crate::gen::PayloadGen;
use crate::pair::{emit, lend, wait_consume, Pair, SetupTimes, TECH};
use crate::run::{Ctx, Fatal, OpOutcome, Workload};
use crate::stats::LogHist;
use crate::trace::{Span, Tracer};
use crate::verify::Checker;

const PING: ChannelId = ChannelId(100);
const PONG: ChannelId = ChannelId(101);
pub const PAYLOAD: usize = 64;

/// Child spans one round trip records at most.
pub const SPANS_PER_OP: usize = 24;

/// The program's own split of a round trip (`IncomingMessage::
/// breakdown()`, ping plus pong), collected in the traced pass to
/// reconcile with the spans.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub send_ns: LogHist,
    pub network_ns: LogHist,
    pub receive_ns: LogHist,
    pub processing_ns: LogHist,
}

#[derive(Debug)]
pub struct PingPong {
    pub pair: Pair,
    // Sessions own the streams; dropping them tears the plumbing down.
    _session_a: Session,
    _session_b: Session,
    ping_source: Source,
    ping_sink: Sink,
    pong_source: Source,
    pong_sink: Sink,
    gen: PayloadGen,
    at_b: Checker,
    at_a: Checker,
    seq: u64,
    pub breakdown: Breakdown,
    pub slots_peak: usize,
}

impl PingPong {
    /// Builds the pair and the ping and pong channels.  `tweak` adjusts
    /// both runtimes' configuration (the telemetry-off comparison).
    pub fn build(
        seed: u64,
        tweak: impl Fn(RuntimeConfig) -> RuntimeConfig,
        times: &mut SetupTimes,
    ) -> Result<Self, Fatal> {
        let pair = Pair::start(|c, _| tweak(c), times)?;
        let t0 = Instant::now();
        let err = |e| format!("pingpong plumbing: {e}");
        let session_a = Session::connect(&pair.rt_a).map_err(err)?;
        let session_b = Session::connect(&pair.rt_b).map_err(err)?;
        let stream_a = session_a.create_stream(QosPolicy::fast()).map_err(err)?;
        let stream_b = session_b.create_stream(QosPolicy::fast()).map_err(err)?;
        if stream_a.technology() != TECH || stream_b.technology() != TECH {
            return Err(format!("QosPolicy::fast() did not map to {TECH:?}"));
        }
        let ping_sink = stream_b.create_sink(PING).map_err(err)?;
        let pong_sink = stream_a.create_sink(PONG).map_err(err)?;
        pair.settle();
        let ping_source = stream_a.create_source(PING).map_err(err)?;
        let pong_source = stream_b.create_source(PONG).map_err(err)?;
        pair.settle();
        times.stream_open_s = t0.elapsed().as_secs_f64();
        Ok(Self {
            pair,
            _session_a: session_a,
            _session_b: session_b,
            ping_source,
            ping_sink,
            pong_source,
            pong_sink,
            gen: PayloadGen::new(seed, 1, PAYLOAD),
            at_b: Checker::new("ping sink on B"),
            at_a: Checker::new("pong sink on A"),
            seq: 0,
            breakdown: Breakdown::default(),
            slots_peak: 0,
        })
    }

    /// End-of-run checks: every round trip accepted at both ends,
    /// nothing rejected by the packet engine, no slot still checked out.
    pub fn finish(&self, ctx: &mut Ctx) {
        for (checker, name) in [(&self.at_b, "B"), (&self.at_a, "A")] {
            if checker.accepted_through() != self.seq {
                let (got, sent) = (checker.accepted_through(), self.seq);
                ctx.tally
                    .fail(|| format!("sink on {name} accepted {got} of {sent} messages"));
            }
        }
        finish_pair(&self.pair, ctx);
    }
}

/// The end-of-run checks every in-process workload shares.
pub fn finish_pair(pair: &Pair, ctx: &mut Ctx) {
    let leaked = pair.slots_in_use();
    if leaked != 0 {
        ctx.tally
            .fail(|| format!("{leaked} slot(s) still checked out at the end"));
    }
    let (a, b) = (pair.rt_a.stats(), pair.rt_b.stats());
    let rejected = a.rx_rejected + b.rx_rejected;
    if rejected != 0 {
        ctx.tally
            .fail(|| format!("{rejected} inbound frame(s) rejected by the packet engine"));
    }
    let dropped = a.sink_drops + b.sink_drops;
    if dropped != 0 {
        ctx.tally
            .fail(|| format!("{dropped} delivery(ies) dropped at a full sink queue"));
    }
}

impl Workload for PingPong {
    const SLICE_OPS: usize = 16;
    const SLICES_PER_SEGMENT: usize = 256;

    #[inline]
    fn op<T: Tracer>(&mut self, t: &mut T, ctx: &mut Ctx) -> Result<OpOutcome, Fatal> {
        let seq = self.seq;
        self.seq += 1;
        let verified_before = ctx.tally.verified;
        let t0 = Instant::now();
        t.begin();

        let mut buf = lend(&self.ping_source, PAYLOAD, &mut ctx.tally)?;
        t.lap(Span::GetBuffer);
        self.gen.fill(seq, &mut buf);
        ctx.fault.maybe_corrupt(ctx.tally.attempted, &mut buf);
        t.lap(Span::AppFill);
        emit(&self.ping_source, buf, &mut ctx.tally)?;
        t.lap(Span::Emit);
        // One TX-only poll moves the token from the stream's ring through
        // the scheduler to the device, as host A's polling thread would.
        self.pair.rt_a.poll_transmit(TECH);
        t.lap(Span::PollTx);

        let ping = wait_consume(t, &self.pair.rt_b, &self.ping_sink)?;
        if !ctx.fault.swallow_now(ctx.tally.attempted) {
            self.at_b.check(&self.gen, &ping, &mut ctx.tally);
        }
        let ping_parts = T::ON.then(|| ping.breakdown());
        t.lap(Span::AppVerify);

        let mut echo = lend(&self.pong_source, ping.len(), &mut ctx.tally)?;
        t.lap(Span::GetBuffer);
        echo.copy_from_slice(&ping);
        t.lap(Span::AppFill);
        if T::ON {
            self.slots_peak = self.slots_peak.max(self.pair.slots_in_use());
        }
        drop(ping);
        t.lap(Span::Release);
        emit(&self.pong_source, echo, &mut ctx.tally)?;
        t.lap(Span::Emit);
        self.pair.rt_b.poll_transmit(TECH);
        t.lap(Span::PollTx);

        let pong = wait_consume(t, &self.pair.rt_a, &self.pong_sink)?;
        self.at_a.check(&self.gen, &pong, &mut ctx.tally);
        let pong_parts = T::ON.then(|| pong.breakdown());
        t.lap(Span::AppVerify);
        drop(pong);
        t.lap(Span::Release);

        t.end();
        let lat_ns = t0.elapsed().as_nanos() as u64;
        if let (Some(ping), Some(pong)) = (ping_parts, pong_parts) {
            self.breakdown.record(&ping, &pong);
        }
        Ok(OpOutcome {
            lat_ns,
            kind: 0,
            msgs: (ctx.tally.verified - verified_before) as u32,
        })
    }
}

impl Breakdown {
    fn record(&mut self, ping: &LatencyBreakdown, pong: &LatencyBreakdown) {
        self.send_ns.record(ping.send_ns + pong.send_ns);
        self.network_ns.record(ping.network_ns + pong.network_ns);
        self.receive_ns.record(ping.receive_ns + pong.receive_ns);
        self.processing_ns
            .record(ping.processing_ns + pong.processing_ns);
    }
}
