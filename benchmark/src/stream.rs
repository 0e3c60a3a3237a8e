//! `stream_8k`: one-way 8 KiB messages A→B in windows of 32.

use std::time::Instant;

use insane_core::{ChannelId, ConsumeMode, InsaneError, QosPolicy, Session, Sink, Source};

use crate::gen::PayloadGen;
use crate::pair::{emit, lend, missed, Pair, SetupTimes, TECH};
use crate::pingpong::finish_pair;
use crate::run::{Ctx, Fatal, OpOutcome, Workload};
use crate::trace::{Span, Tracer};
use crate::verify::Checker;

const CHANNEL: ChannelId = ChannelId(110);
pub const PAYLOAD: usize = 8 * 1024;
/// Messages emitted before the runtimes are driven.
pub const WINDOW: usize = 32;

/// Child spans one window records at most: three per message on each
/// side, the TX drive, and a wait/hit pair per receive poll.
pub const SPANS_PER_OP: usize = 6 * WINDOW + 2 + 2 * WINDOW;

#[derive(Debug)]
pub struct Stream8k {
    pub pair: Pair,
    _session_a: Session,
    _session_b: Session,
    source: Source,
    sink: Sink,
    gen: PayloadGen,
    at_b: Checker,
    seq: u64,
    pub slots_peak: usize,
}

impl Stream8k {
    pub fn build(seed: u64, times: &mut SetupTimes) -> Result<Self, Fatal> {
        let pair = Pair::start(|c, _| c, times)?;
        let t0 = Instant::now();
        let err = |e| format!("stream plumbing: {e}");
        let session_a = Session::connect(&pair.rt_a).map_err(err)?;
        let session_b = Session::connect(&pair.rt_b).map_err(err)?;
        let stream_a = session_a.create_stream(QosPolicy::fast()).map_err(err)?;
        let stream_b = session_b.create_stream(QosPolicy::fast()).map_err(err)?;
        let sink = stream_b.create_sink(CHANNEL).map_err(err)?;
        pair.settle();
        let source = stream_a.create_source(CHANNEL).map_err(err)?;
        pair.settle();
        times.stream_open_s = t0.elapsed().as_secs_f64();
        Ok(Self {
            pair,
            _session_a: session_a,
            _session_b: session_b,
            source,
            sink,
            gen: PayloadGen::new(seed, 1, PAYLOAD),
            at_b: Checker::new("stream sink on B"),
            seq: 0,
            slots_peak: 0,
        })
    }

    pub fn finish(&self, ctx: &mut Ctx) {
        if self.at_b.accepted_through() != self.seq {
            let (got, sent) = (self.at_b.accepted_through(), self.seq);
            ctx.tally
                .fail(|| format!("stream sink accepted {got} of {sent} messages"));
        }
        finish_pair(&self.pair, ctx);
    }
}

impl Workload for Stream8k {
    const SLICE_OPS: usize = 1;
    const SLICES_PER_SEGMENT: usize = 1024;

    #[inline]
    fn op<T: Tracer>(&mut self, t: &mut T, ctx: &mut Ctx) -> Result<OpOutcome, Fatal> {
        let verified_before = ctx.tally.verified;
        let t0 = Instant::now();
        t.begin();

        for _ in 0..WINDOW {
            let mut buf = lend(&self.source, PAYLOAD, &mut ctx.tally)?;
            t.lap(Span::GetBuffer);
            self.gen.fill(self.seq, &mut buf);
            ctx.fault.maybe_corrupt(ctx.tally.attempted, &mut buf);
            self.seq += 1;
            t.lap(Span::AppFill);
            emit(&self.source, buf, &mut ctx.tally)?;
            t.lap(Span::Emit);
        }
        if T::ON {
            self.slots_peak = self.slots_peak.max(self.pair.slots_in_use());
        }

        // Drive TX until the window has left host A (the adaptive burst
        // decides how many polls that takes), then RX until all of it
        // has been consumed.
        while self.pair.rt_a.poll_transmit(TECH) {}
        t.lap(Span::PollTx);

        let mut got = 0;
        let mut misses = 0u64;
        while got < WINDOW {
            t.pre_poll();
            if !self.pair.rt_b.poll_technology(TECH) {
                missed(&mut misses, &self.sink)?;
                continue;
            }
            t.poll_hit(Span::PollRxEmpty, Span::PollRxHit, misses);
            misses = 0;
            loop {
                let msg = match self.sink.consume(ConsumeMode::NonBlocking) {
                    Ok(msg) => msg,
                    Err(InsaneError::WouldBlock) => break,
                    Err(e) => return Err(format!("consume: {e}")),
                };
                t.lap(Span::Consume);
                got += 1;
                if !ctx.fault.swallow_now(ctx.tally.attempted) {
                    self.at_b.check(&self.gen, &msg, &mut ctx.tally);
                }
                t.lap(Span::AppVerify);
                drop(msg);
                t.lap(Span::Release);
            }
        }

        t.end();
        Ok(OpOutcome {
            lat_ns: t0.elapsed().as_nanos() as u64,
            kind: 0,
            msgs: (ctx.tally.verified - verified_before) as u32,
        })
    }
}
