//! Noisy-neighbor isolation experiment (DESIGN.md §10).
//!
//! Two tenants share one INSANE runtime pair: a well-behaved *victim*
//! running a time-sensitive ping-pong, and a *bulk* tenant that
//! saturates its admission rate limit with best-effort bursts every
//! round.  The experiment measures the victim's RTT p99 twice — solo
//! (tenants configured, no bulk traffic) and contended — and asserts
//! the isolation contract: cross-tenant DRR scheduling, slot quotas,
//! and token-bucket admission must keep the contended p99 within a
//! bounded factor of the solo baseline, while the bulk tenant's
//! overflow is refused with *typed* errors (never a panic, pool
//! exhaustion, or victim starvation).
//!
//! Exported as the schema-validated `BENCH_noisy_neighbor.json`; the
//! contract re-checks the bound and the rejection counts on every
//! consumer (`insanectl check-bench`, CI).

use std::time::Instant;

use insane_core::{
    ChannelId, ConsumeMode, InsaneError, MemoryError, QosPolicy, Session, SessionConfig, Sink,
    Source, Technology, TenantId, TenantQuota, TenantRate, TenantSpec,
};
use insane_fabric::TestbedProfile;
use insane_telemetry::Value;

use crate::setup::{InsanePair, PING_CHANNEL, PONG_CHANNEL};
use crate::stats::Series;
use crate::{iters, BenchError};

/// The well-behaved tenant under measurement.
pub const VICTIM: TenantId = 1;
/// The saturating tenant.
pub const BULK: TenantId = 2;
/// Channel carrying the bulk tenant's one-way flood.
pub const BULK_CHANNEL: ChannelId = ChannelId(200);
/// Payload size of every message in the experiment.
pub const PAYLOAD: usize = 64;
/// Bulk-tenant emit attempts per victim round trip.
pub const BULK_BURST: usize = 16;
/// Isolation bound in thousandths: contended p99 must stay within
/// 2.000x of the solo p99 (the ISSUE acceptance criterion).
pub const ISOLATION_BOUND_X1000: u64 = 2_000;

/// Sustained bulk admission rate (messages/sec). Low enough that a
/// bursting tenant exhausts its bucket within a few rounds of the
/// bench's millisecond-scale wall clock.
const BULK_RATE_PER_SEC: u64 = 2_000;
/// Bulk bucket capacity after idle.
const BULK_BURST_CAP: u64 = 32;

/// Outcome of one noisy-neighbor run.
#[derive(Debug, Clone)]
pub struct NoisyNeighborReport {
    /// Victim RTT samples with no bulk traffic, nanoseconds.
    pub solo: Series,
    /// Victim RTT samples under bulk saturation, nanoseconds.
    pub contended: Series,
    /// Typed refusals observed by the bulk tenant (admission, shed,
    /// backpressure, or slot-quota).
    pub bulk_rejections: u64,
    /// Typed refusals observed by the victim (must be zero).
    pub victim_rejections: u64,
}

impl NoisyNeighborReport {
    /// Contended-over-solo p99 ratio in thousandths (fixed point).
    pub fn isolation_ratio_x1000(&self) -> u64 {
        let solo = self.solo.p99().max(1);
        self.contended.p99().saturating_mul(1_000) / solo
    }

    /// The `BENCH_noisy_neighbor.json` entry of this run.
    pub fn row(&self, testbed: &str) -> Value {
        Value::object([
            ("system", "INSANE multi-tenant".into()),
            ("testbed", testbed.into()),
            ("payload_bytes", (PAYLOAD as u64).into()),
            ("samples", (self.contended.len() as u64).into()),
            ("solo_p99_ns", self.solo.p99().into()),
            ("contended_p99_ns", self.contended.p99().into()),
            ("isolation_ratio_x1000", self.isolation_ratio_x1000().into()),
            ("bound_x1000", ISOLATION_BOUND_X1000.into()),
            ("bulk_rejections", self.bulk_rejections.into()),
            ("victim_rejections", self.victim_rejections.into()),
        ])
    }
}

/// The shared tenant configuration of both phases: the victim gets a
/// reservation, a 4x DRR weight, and no rate limit; the bulk tenant
/// gets a small slot quota and a token bucket it is guaranteed to
/// overrun.
fn tenant_specs() -> [TenantSpec; 2] {
    [
        TenantSpec::new(VICTIM, TenantQuota::new(4, 16)).with_weight(4),
        TenantSpec::new(BULK, TenantQuota::new(4, 16))
            .with_rate(TenantRate::new(BULK_RATE_PER_SEC, BULK_BURST_CAP))
            .with_weight(1),
    ]
}

fn build_pair(profile: &TestbedProfile) -> Result<InsanePair, BenchError> {
    InsanePair::with_config(
        profile.clone(),
        &[Technology::KernelUdp, Technology::Dpdk],
        |mut c| {
            for spec in tenant_specs() {
                c = c.with_tenant(spec);
            }
            c
        },
    )
}

/// The victim's ping-pong plumbing under its own tenant sessions
/// (sources/sinks on both runtimes of the pair).
struct VictimPlumbing {
    // Sessions own their streams; dropping them tears the plumbing down.
    _session_a: Session,
    _session_b: Session,
    ping_source: Source,
    ping_sink: Sink,
    pong_source: Source,
    pong_sink: Sink,
}

fn victim_plumbing(pair: &InsanePair) -> Result<VictimPlumbing, BenchError> {
    let session_a = Session::connect_with(&pair.rt_a, SessionConfig::for_tenant(VICTIM))?;
    let session_b = Session::connect_with(&pair.rt_b, SessionConfig::for_tenant(VICTIM))?;
    let stream_a = session_a.create_stream(QosPolicy::fast())?;
    let stream_b = session_b.create_stream(QosPolicy::fast())?;
    let ping_sink = stream_b.create_sink(PING_CHANNEL)?;
    let pong_sink = stream_a.create_sink(PONG_CHANNEL)?;
    pair.settle();
    let ping_source = stream_a.create_source(PING_CHANNEL)?;
    let pong_source = stream_b.create_source(PONG_CHANNEL)?;
    pair.settle();
    Ok(VictimPlumbing {
        _session_a: session_a,
        _session_b: session_b,
        ping_source,
        ping_sink,
        pong_source,
        pong_sink,
    })
}

/// Is this error one of the typed per-tenant refusals the isolation
/// machinery is allowed to answer with?
fn is_typed_rejection(e: &InsaneError) -> bool {
    matches!(
        e,
        InsaneError::AdmissionRejected { .. }
            | InsaneError::Shed { .. }
            | InsaneError::Backpressure
            | InsaneError::Memory(MemoryError::QuotaExceeded { .. })
    )
}

/// One victim round trip, driven exactly like the latency bench's
/// inline ping-pong. Victim-side refusals abort the run: an in-quota
/// tenant must never be punished for a neighbor's overload.
fn victim_round(pair: &InsanePair, v: &VictimPlumbing, msg: &[u8]) -> Result<u64, BenchError> {
    let hot = Technology::Dpdk;
    let t0 = Instant::now();
    let mut buf = v.ping_source.get_buffer(PAYLOAD).map_err(victim_refused)?;
    buf.copy_from_slice(msg);
    v.ping_source.emit(buf).map_err(victim_refused)?;
    pair.rt_a.poll_transmit(hot);
    let ping = loop {
        pair.rt_b.poll_technology(hot);
        match v.ping_sink.consume(ConsumeMode::NonBlocking) {
            Ok(m) => break m,
            Err(InsaneError::WouldBlock) => {}
            Err(e) => return Err(e.into()),
        }
    };
    let mut echo = v
        .pong_source
        .get_buffer(ping.len())
        .map_err(victim_refused)?;
    echo.copy_from_slice(&ping);
    drop(ping);
    v.pong_source.emit(echo).map_err(victim_refused)?;
    pair.rt_b.poll_transmit(hot);
    loop {
        pair.rt_a.poll_technology(hot);
        match v.pong_sink.consume(ConsumeMode::NonBlocking) {
            Ok(_) => break,
            Err(InsaneError::WouldBlock) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(t0.elapsed().as_nanos() as u64)
}

fn victim_refused(e: InsaneError) -> BenchError {
    if is_typed_rejection(&e) {
        BenchError::Other(format!(
            "isolation violated: the in-quota victim tenant was refused: {e}"
        ))
    } else {
        BenchError::Insane(e)
    }
}

/// Runs the full experiment on `profile`: a solo baseline of `rounds`
/// victim RTTs, then a contended phase where the bulk tenant bursts
/// [`BULK_BURST`] emits before every victim round.
///
/// # Errors
///
/// Propagates middleware failures — including any typed refusal of the
/// victim, and any *untyped* failure of the bulk tenant (the noisy
/// neighbor may only ever see typed rejections).
pub fn run(
    profile: &TestbedProfile,
    rounds: usize,
    warmup: usize,
) -> Result<NoisyNeighborReport, BenchError> {
    let msg = vec![0xA5u8; PAYLOAD];

    // Phase 1: solo baseline. Tenants (and thus the DRR scheduler) are
    // configured identically, so the comparison isolates the *traffic*.
    let pair = build_pair(profile)?;
    let victim = victim_plumbing(&pair)?;
    let mut solo = Series::new();
    for i in 0..rounds + warmup {
        let rtt = victim_round(&pair, &victim, &msg)?;
        if i >= warmup {
            solo.push(rtt);
        }
    }
    drop(victim);
    drop(pair);

    // Phase 2: contended, on a fresh fabric.
    let pair = build_pair(profile)?;
    let victim = victim_plumbing(&pair)?;
    let bulk_session = Session::connect_with(&pair.rt_a, SessionConfig::for_tenant(BULK))?;
    let bulk_stream = bulk_session.create_stream(QosPolicy::fast())?;
    let sink_session = Session::connect_with(&pair.rt_b, SessionConfig::for_tenant(BULK))?;
    let sink_stream = sink_session.create_stream(QosPolicy::fast())?;
    let bulk_sink = sink_stream.create_sink(BULK_CHANNEL)?;
    pair.settle();
    let bulk_source = bulk_stream.create_source(BULK_CHANNEL)?;
    pair.settle();

    let mut contended = Series::new();
    let mut bulk_rejections = 0u64;
    for i in 0..rounds + warmup {
        // The noisy neighbor floods first, so its backlog is already
        // queued ahead of the victim's ping in every round.
        for _ in 0..BULK_BURST {
            match bulk_source.get_buffer(PAYLOAD) {
                Ok(mut buf) => {
                    buf.copy_from_slice(&msg);
                    match bulk_source.emit(buf) {
                        Ok(_) => {}
                        Err(e) if is_typed_rejection(&e) => bulk_rejections += 1,
                        Err(e) => return Err(e.into()),
                    }
                }
                Err(e) if is_typed_rejection(&e) => bulk_rejections += 1,
                Err(e) => return Err(e.into()),
            }
        }
        let rtt = victim_round(&pair, &victim, &msg)?;
        if i >= warmup {
            contended.push(rtt);
        }
        // Drain the bulk sink so the receiver's pools recycle.
        while bulk_sink.consume(ConsumeMode::NonBlocking).is_ok() {}
    }

    Ok(NoisyNeighborReport {
        solo,
        contended,
        bulk_rejections,
        victim_rejections: 0,
    })
}

/// The `noisy-neighbor` suite: runs the experiment, prints the verdict
/// and exports `BENCH_noisy_neighbor.json`, whose contract fails the
/// run unless the contended p99 stays within the 2x isolation bound
/// while the bulk tenant's overflow was refused with typed errors.
///
/// # Errors
///
/// As [`run`], plus any violated export gate.
pub fn suite(profile: &TestbedProfile) -> Result<(), BenchError> {
    let rounds = iters(200);
    // Warmup also floods, so the bulk bucket is already dry when
    // measurement starts — even at tiny bench factors.
    let warmup = 30;

    println!(
        "noisy neighbor: {rounds} victim RTTs x {PAYLOAD} B over DPDK, \
         bulk bursts of {BULK_BURST} per round"
    );
    let report = run(profile, rounds, warmup)?;
    println!(
        "victim p99: solo {:.2}us, contended {:.2}us -> ratio {:.3}x (bound {:.3}x)",
        report.solo.p99() as f64 / 1e3,
        report.contended.p99() as f64 / 1e3,
        report.isolation_ratio_x1000() as f64 / 1e3,
        ISOLATION_BOUND_X1000 as f64 / 1e3,
    );
    println!(
        "bulk tenant: {} typed rejections; victim: {}",
        report.bulk_rejections, report.victim_rejections
    );
    crate::export::write("BENCH_noisy_neighbor.json", vec![report.row(profile.name)])
}
