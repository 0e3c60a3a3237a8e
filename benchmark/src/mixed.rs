//! `mixed_qos`: a time-sensitive ping-pong through a bulk tenant's
//! backlog, with the time-aware shaper, tenant quotas, admission control,
//! the tenant DRR scheduler and a 4-sink fan-out on the path.

use std::time::{Duration, Instant};

use insane_core::{
    Acceleration, ChannelId, ConsumeMode, InsaneError, QosPolicy, ResourceUsage, SchedulerChoice,
    Session, SessionConfig, Sink, Source, TenantId, TenantQuota, TenantRate, TenantSpec,
    TimeSensitivity,
};
use insane_tsn::TrafficClass;

use crate::gen::{BurstGen, PayloadGen, BURST_BLOCK, BURST_MAX, BURST_MIN};
use crate::pair::{emit, lend, missed, Pair, SetupTimes, TECH};
use crate::pingpong::finish_pair;
use crate::run::{Ctx, Fatal, OpOutcome, Workload};
use crate::trace::{Span, Tracer};
use crate::verify::Checker;

const CRITICAL: TenantId = 1;
const BULK: TenantId = 2;
const CRIT_PING: ChannelId = ChannelId(120);
const CRIT_PONG: ChannelId = ChannelId(121);
const BULK_CHANNEL: ChannelId = ChannelId(122);
pub const CRIT_PAYLOAD: usize = 64;
pub const BULK_PAYLOAD: usize = 1024;
/// Sinks on host B that each receive every bulk message.
pub const BULK_SINKS: usize = 4;

/// Host A's gate program: 10 ms cycle whose first 200 µs belong to TC7
/// alone, a 20 µs guard band before each gate closes, 1 µs per frame.
///
/// With a 1 ms cycle the gates are shut for 22 % of the time and one
/// round in five meets a closure that stalls it for anything between 0
/// and 220 µs depending on where it catches the round: the typical round
/// is then set by the gate program, not by the program's speed.  At 10 ms
/// one round in fifty does; the shaper still evaluates gate, guard band
/// and frame time for every frame it releases, and a stalled round still
/// shows in the tail.
const CYCLE: Duration = Duration::from_millis(10);
const TC7_WINDOW: Duration = Duration::from_micros(200);
const GUARD_BAND: Duration = Duration::from_micros(20);
const FRAME_TX: Duration = Duration::from_micros(1);

/// The measured flow's traffic class.  `GateControlList::
/// exclusive_window` opens TC7 *only* inside its 200 µs window and every
/// other class only outside it, so a TC7 ping-pong in a closed loop
/// would measure the gate period (every round needs both windows), not
/// the program.  Class 6 is time-sensitive, outranks the best-effort
/// bulk in the shaper's strict-priority pass, and shares the bulk's open
/// window: its median is the cost of passing the backlog, its tail the
/// TC7 window it has to sit out.
const CRIT_CLASS: u8 = 6;

/// The bulk tenant's admission rate: high enough that it is never
/// refused (a refusal is a failed operation), so the bucket is charged
/// and refilled on every message without ever running dry.
const BULK_RATE_PER_S: u64 = 4_000_000;
const BULK_BURST: u64 = 256;

/// Child spans one round records at most.
pub const SPANS_PER_OP: usize = 3 * (BURST_MAX + 2) + 4 * BULK_SINKS * BURST_MAX + 64;

#[derive(Debug)]
pub struct MixedQos {
    pub pair: Pair,
    _sessions: [Session; 4],
    crit_ping_source: Source,
    crit_ping_sink: Sink,
    crit_pong_source: Source,
    crit_pong_sink: Sink,
    bulk_source: Source,
    bulk_sinks: Vec<Sink>,
    crit_gen: PayloadGen,
    bulk_gen: PayloadGen,
    bursts: BurstGen,
    crit_at_b: Checker,
    crit_at_a: Checker,
    bulk_at_b: Vec<Checker>,
    crit_seq: u64,
    bulk_seq: u64,
    pub slots_peak: usize,
}

impl MixedQos {
    pub fn build(seed: u64, times: &mut SetupTimes) -> Result<Self, Fatal> {
        let pair = Pair::start(
            |config, host_a| {
                let config = config
                    .with_tenant(TenantSpec::new(CRITICAL, TenantQuota::new(4, 16)).with_weight(4))
                    .with_tenant(
                        TenantSpec::new(BULK, TenantQuota::new(32, 64))
                            .with_rate(TenantRate::new(BULK_RATE_PER_S, BULK_BURST)),
                    );
                if host_a {
                    // The hot shard of the sending host runs the shaper …
                    config.with_scheduler(SchedulerChoice::TimeAware {
                        critical_window: TC7_WINDOW,
                        cycle: CYCLE,
                        guard_band: GUARD_BAND,
                        frame_tx: FRAME_TX,
                    })
                } else {
                    // … and the echoing host the FIFO strategy, which
                    // tenants upgrade to the weighted DRR scheduler.
                    config
                }
            },
            times,
        )?;

        let t0 = Instant::now();
        let err = |e| format!("mixed_qos plumbing: {e}");
        let class = TrafficClass::new(CRIT_CLASS).map_err(|e| format!("class: {e}"))?;
        let crit_qos = QosPolicy {
            acceleration: Acceleration::Preferred,
            resource_usage: ResourceUsage::Unconstrained,
            time_sensitivity: TimeSensitivity::TimeSensitive { class },
        };
        let connect = |rt, tenant| Session::connect_with(rt, SessionConfig::for_tenant(tenant));
        let crit_a = connect(&pair.rt_a, CRITICAL).map_err(err)?;
        let crit_b = connect(&pair.rt_b, CRITICAL).map_err(err)?;
        let bulk_a = connect(&pair.rt_a, BULK).map_err(err)?;
        let bulk_b = connect(&pair.rt_b, BULK).map_err(err)?;
        let crit_stream_a = crit_a.create_stream(crit_qos).map_err(err)?;
        let crit_stream_b = crit_b.create_stream(crit_qos).map_err(err)?;
        let bulk_stream_a = bulk_a.create_stream(QosPolicy::fast()).map_err(err)?;
        let bulk_stream_b = bulk_b.create_stream(QosPolicy::fast()).map_err(err)?;
        if crit_stream_a.technology() != TECH || bulk_stream_a.technology() != TECH {
            return Err(format!("mixed_qos streams did not map to {TECH:?}"));
        }
        let crit_ping_sink = crit_stream_b.create_sink(CRIT_PING).map_err(err)?;
        let crit_pong_sink = crit_stream_a.create_sink(CRIT_PONG).map_err(err)?;
        let bulk_sinks = (0..BULK_SINKS)
            .map(|_| bulk_stream_b.create_sink(BULK_CHANNEL))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        pair.settle();
        let crit_ping_source = crit_stream_a.create_source(CRIT_PING).map_err(err)?;
        let crit_pong_source = crit_stream_b.create_source(CRIT_PONG).map_err(err)?;
        let bulk_source = bulk_stream_a.create_source(BULK_CHANNEL).map_err(err)?;
        pair.settle();
        times.stream_open_s = t0.elapsed().as_secs_f64();

        Ok(Self {
            pair,
            _sessions: [crit_a, crit_b, bulk_a, bulk_b],
            crit_ping_source,
            crit_ping_sink,
            crit_pong_source,
            crit_pong_sink,
            bulk_source,
            bulk_sinks,
            crit_gen: PayloadGen::new(seed, 1, CRIT_PAYLOAD),
            bulk_gen: PayloadGen::new(seed, 2, BULK_PAYLOAD),
            bursts: BurstGen::new(seed),
            crit_at_b: Checker::new("critical ping sink on B"),
            crit_at_a: Checker::new("critical pong sink on A"),
            bulk_at_b: (0..BULK_SINKS)
                .map(|_| Checker::new("bulk sink on B"))
                .collect(),
            crit_seq: 0,
            bulk_seq: 0,
            slots_peak: 0,
        })
    }

    pub fn finish(&self, ctx: &mut Ctx) {
        let mut expect = |checker: &Checker, sent: u64, name: &str| {
            let got = checker.accepted_through();
            if got != sent {
                ctx.tally
                    .fail(|| format!("{name} accepted {got} of {sent} messages"));
            }
        };
        expect(&self.crit_at_b, self.crit_seq, "critical sink on B");
        expect(&self.crit_at_a, self.crit_seq, "critical sink on A");
        for checker in &self.bulk_at_b {
            expect(checker, self.bulk_seq, "bulk sink on B");
        }
        finish_pair(&self.pair, ctx);
    }

    /// Takes what the bulk sinks hold, checking each message; returns
    /// how many deliveries that was.
    #[inline]
    fn drain_bulk<T: Tracer>(&mut self, t: &mut T, ctx: &mut Ctx) -> Result<usize, Fatal> {
        let mut taken = 0;
        for (sink, checker) in self.bulk_sinks.iter().zip(&mut self.bulk_at_b) {
            loop {
                let msg = match sink.consume(ConsumeMode::NonBlocking) {
                    Ok(msg) => msg,
                    Err(InsaneError::WouldBlock) => break,
                    Err(e) => return Err(format!("bulk consume: {e}")),
                };
                t.lap(Span::Consume);
                taken += 1;
                if !ctx.fault.swallow_now(ctx.tally.attempted) {
                    checker.check(&self.bulk_gen, &msg, &mut ctx.tally);
                }
                t.lap(Span::AppVerify);
                drop(msg);
                t.lap(Span::Release);
            }
        }
        Ok(taken)
    }
}

impl Workload for MixedQos {
    // A round is a slice and its burst size the slice's kind; a segment
    // is whole blocks of burst sizes, so all segments carry the same
    // messages.
    const SLICE_OPS: usize = 1;
    const SLICES_PER_SEGMENT: usize = 60 * BURST_BLOCK;

    #[inline]
    fn op<T: Tracer>(&mut self, t: &mut T, ctx: &mut Ctx) -> Result<OpOutcome, Fatal> {
        let verified_before = ctx.tally.verified;
        t.begin();

        // 1. The bulk tenant queues its burst.
        let burst = self.bursts.next_burst();
        for _ in 0..burst {
            let mut buf = lend(&self.bulk_source, BULK_PAYLOAD, &mut ctx.tally)?;
            t.lap(Span::GetBuffer);
            self.bulk_gen.fill(self.bulk_seq, &mut buf);
            ctx.fault.maybe_corrupt(ctx.tally.attempted, &mut buf);
            self.bulk_seq += 1;
            t.lap(Span::AppFill);
            emit(&self.bulk_source, buf, &mut ctx.tally)?;
            t.lap(Span::Emit);
        }

        // 2. The critical tenant's round trip, behind that backlog.
        let seq = self.crit_seq;
        self.crit_seq += 1;
        let t0 = Instant::now();
        let mut buf = lend(&self.crit_ping_source, CRIT_PAYLOAD, &mut ctx.tally)?;
        t.lap(Span::GetBuffer);
        self.crit_gen.fill(seq, &mut buf);
        t.lap(Span::AppFill);
        emit(&self.crit_ping_source, buf, &mut ctx.tally)?;
        t.lap(Span::Emit);
        if T::ON {
            self.slots_peak = self.slots_peak.max(self.pair.slots_in_use());
        }

        // Host A transmits what its gates allow; host B receives (and
        // fans the bulk out to its four sinks) until the ping is there.
        let mut misses = 0u64;
        let ping = loop {
            t.pre_poll();
            if self.pair.rt_a.poll_transmit(TECH) {
                t.poll_hit(Span::PollRxEmpty, Span::PollTx, misses);
                misses = 0;
            }
            t.pre_poll();
            if !self.pair.rt_b.poll_technology(TECH) {
                missed(&mut misses, &self.crit_ping_sink)?;
                continue;
            }
            t.poll_hit(Span::PollRxEmpty, Span::PollRxHit, misses);
            misses = 0;
            match self.crit_ping_sink.consume(ConsumeMode::NonBlocking) {
                Ok(msg) => break msg,
                Err(InsaneError::WouldBlock) => {}
                Err(e) => return Err(format!("critical consume: {e}")),
            }
        };
        t.lap(Span::Consume);
        self.crit_at_b.check(&self.crit_gen, &ping, &mut ctx.tally);
        t.lap(Span::AppVerify);
        let mut echo = lend(&self.crit_pong_source, ping.len(), &mut ctx.tally)?;
        t.lap(Span::GetBuffer);
        echo.copy_from_slice(&ping);
        t.lap(Span::AppFill);
        drop(ping);
        t.lap(Span::Release);
        emit(&self.crit_pong_source, echo, &mut ctx.tally)?;
        t.lap(Span::Emit);

        // Host B's poll transmits the pong (and keeps receiving bulk);
        // host A's receives it.
        let mut misses = 0u64;
        let pong = loop {
            t.pre_poll();
            if self.pair.rt_b.poll_technology(TECH) {
                t.poll_hit(Span::PollRxEmpty, Span::PollTx, misses);
                misses = 0;
            }
            t.pre_poll();
            if !self.pair.rt_a.poll_technology(TECH) {
                missed(&mut misses, &self.crit_pong_sink)?;
                continue;
            }
            t.poll_hit(Span::PollRxEmpty, Span::PollRxHit, misses);
            misses = 0;
            match self.crit_pong_sink.consume(ConsumeMode::NonBlocking) {
                Ok(msg) => break msg,
                Err(InsaneError::WouldBlock) => {}
                Err(e) => return Err(format!("critical consume: {e}")),
            }
        };
        t.lap(Span::Consume);
        self.crit_at_a.check(&self.crit_gen, &pong, &mut ctx.tally);
        t.lap(Span::AppVerify);
        drop(pong);
        t.lap(Span::Release);
        let lat_ns = t0.elapsed().as_nanos() as u64;

        // 3. The bulk deliveries of this round are drained and checked.
        let mut outstanding = burst * BULK_SINKS;
        let mut misses = 0u64;
        loop {
            outstanding -= self.drain_bulk(t, ctx)?.min(outstanding);
            if outstanding == 0 {
                break;
            }
            t.pre_poll();
            if self.pair.rt_a.poll_transmit(TECH) {
                t.poll_hit(Span::PollRxEmpty, Span::PollTx, misses);
                misses = 0;
            }
            t.pre_poll();
            if self.pair.rt_b.poll_technology(TECH) {
                t.poll_hit(Span::PollRxEmpty, Span::PollRxHit, misses);
                misses = 0;
            } else {
                missed(&mut misses, &self.bulk_sinks[0])?;
            }
        }

        t.end();
        Ok(OpOutcome {
            lat_ns,
            kind: (burst - BURST_MIN) as u8,
            msgs: (ctx.tally.verified - verified_before) as u32,
        })
    }
}
