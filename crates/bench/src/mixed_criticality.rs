//! Mixed-criticality timing-isolation experiment (DESIGN.md §14).
//!
//! One time-critical flow and one saturating bulk tenant share a pair
//! of INSANE runtimes whose hot shard runs the 802.1Qbv time-aware
//! scheduler: the first 200 µs of every 1 ms cycle belong exclusively
//! to TC7, a 20 µs guard band precedes every window edge, and each
//! frame is metered against its transmission time so no release can
//! straddle a gate close.  The fabric's seeded fault injector replays
//! drops and reorders underneath both flows.
//!
//! The experiment measures the critical flow's one-way latency at
//! increasing bulk load points (a solo baseline first, then growing
//! bulk bursts per round) and asserts the timing contract: every
//! delivered critical message lands inside its per-message latency
//! budget, and the critical p99.9 under bulk saturation stays within a
//! bounded factor of the solo p99.9.  Lost rounds (fault drops or a
//! missed deadline) are reported, not failed — the injector is *meant*
//! to take frames.
//!
//! Exported as the schema-validated `BENCH_isolation.json`; the
//! contract re-checks the budget, the tail bound, and that the gates
//! actually deferred frames on every consumer (`insanectl
//! check-bench`, CI).

use std::time::{Duration, Instant};

use insane_core::{
    Acceleration, ChannelId, ConsumeMode, InsaneError, MemoryError, QosPolicy, ResourceUsage,
    SchedulerChoice, Session, SessionConfig, Sink, Source, Technology, TenantId, TenantQuota,
    TenantRate, TenantSpec, TimeSensitivity, Tunables,
};
use insane_fabric::{FaultPlan, FaultStats, TestbedProfile};
use insane_telemetry::Value;

use crate::setup::InsanePair;
use crate::stats::Series;
use crate::{iters, BenchError};

/// The time-critical tenant under measurement.
pub const CRITICAL: TenantId = 1;
/// The saturating best-effort tenant.
pub const BULK: TenantId = 2;
/// Channel carrying the critical one-way flow.
pub const CRIT_CHANNEL: ChannelId = ChannelId(210);
/// Channel carrying the bulk flood.
pub const BULK_CHANNEL: ChannelId = ChannelId(211);
/// Payload size of every message in the experiment.
pub const PAYLOAD: usize = 64;
/// Gate cycle of the time-aware shard scheduler.
pub const CYCLE: Duration = Duration::from_millis(1);
/// Exclusive TC7 window at the head of each cycle.
pub const CRITICAL_WINDOW: Duration = Duration::from_micros(200);
/// Guard band preceding every window edge.
pub const GUARD_BAND: Duration = Duration::from_micros(20);
/// Modeled per-frame transmission time the gates meter against.
pub const FRAME_TX: Duration = Duration::from_micros(1);
/// Per-message latency budget: generous against the ≤1 cycle worst-case
/// gate wait, tight enough that a frame parked behind bulk backlog (the
/// pre-fix straddle bug) would blow it.
pub const BUDGET: Duration = Duration::from_millis(25);
/// Give-up deadline per round; a slower message counts as `lost`.
pub const DEADLINE: Duration = Duration::from_millis(250);
/// Tail-isolation bound in thousandths: the contended critical p99.9
/// must stay within 2.000x of the solo p99.9 (the ISSUE acceptance
/// criterion).
pub const TAIL_BOUND_X1000: u64 = 2_000;

/// Seeded fault probabilities replayed under every load point.
const FAULT_DROP: f64 = 0.01;
const FAULT_REORDER: f64 = 0.05;
/// Deterministic injector seed (varied per load point).
const FAULT_SEED: u64 = 0xC0FF_EE00;

/// Sustained bulk admission rate (messages/sec) — low enough that the
/// larger bursts overrun their token bucket and collect typed refusals.
const BULK_RATE_PER_SEC: u64 = 2_000;
/// Bulk bucket capacity after idle.
const BULK_BURST_CAP: u64 = 32;

/// One measured load point of the experiment.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Bulk emit attempts per critical round (0 = solo baseline).
    pub bulk_burst: usize,
    /// Delivered critical one-way latencies, nanoseconds.
    pub series: Series,
    /// Delivered messages that exceeded [`BUDGET`].
    pub budget_violations: u64,
    /// Rounds whose message never arrived within [`DEADLINE`].
    pub lost: u64,
    /// Typed refusals the bulk tenant received.
    pub bulk_rejections: u64,
    /// Gate deferrals accumulated by both runtimes at this load point.
    pub gate_deferrals: u64,
    /// The fault injector's record for this load point.
    pub faults: FaultStats,
}

impl LoadPoint {
    /// This load point's p99.9 over the solo baseline's, fixed-point
    /// thousandths.
    fn ratio_x1000(&self, solo_p999_ns: u64) -> u64 {
        self.series.p999().saturating_mul(1_000) / solo_p999_ns.max(1)
    }
}

/// Outcome of one mixed-criticality run: the solo baseline first, then
/// each requested bulk load point.
#[derive(Debug, Clone)]
pub struct MixedCriticalityReport {
    /// Measured load points, `bulk_burst == 0` first.
    pub points: Vec<LoadPoint>,
}

impl MixedCriticalityReport {
    /// The solo baseline's p99.9, floored at one gate cycle: a solo
    /// tail below a cycle reflects gate-phase luck, not middleware
    /// cost, so the ratio denominator never collapses below the
    /// scheduler's own timescale.
    pub fn solo_p999_ns(&self) -> u64 {
        self.points
            .iter()
            .find(|p| p.bulk_burst == 0)
            .map_or(0, |p| p.series.p999())
            .max(CYCLE.as_nanos() as u64)
    }

    /// The `BENCH_isolation.json` entries of this run, one per load
    /// point.
    pub fn rows(&self, testbed: &str) -> Vec<Value> {
        let solo = self.solo_p999_ns();
        self.points
            .iter()
            .map(|p| {
                Value::object([
                    ("system", "INSANE tas".into()),
                    ("testbed", testbed.into()),
                    ("samples", (p.series.len() as u64).into()),
                    ("bulk_burst", (p.bulk_burst as u64).into()),
                    ("p50_ns", p.series.median().into()),
                    ("p99_ns", p.series.p99().into()),
                    ("p999_ns", p.series.p999().into()),
                    ("solo_p999_ns", solo.into()),
                    ("budget_ns", (BUDGET.as_nanos() as u64).into()),
                    ("budget_violations", p.budget_violations.into()),
                    ("ratio_x1000", p.ratio_x1000(solo).into()),
                    ("bound_x1000", TAIL_BOUND_X1000.into()),
                    ("gate_deferrals", p.gate_deferrals.into()),
                    ("lost", p.lost.into()),
                    ("bulk_rejections", p.bulk_rejections.into()),
                    ("injected_drops", p.faults.injected_drops.into()),
                    ("reorders", p.faults.reorders.into()),
                ])
            })
            .collect()
    }
}

/// Tenant configuration shared by every load point: the critical tenant
/// gets a reservation and a 4x DRR weight, the bulk tenant a small slot
/// quota and a token bucket the larger bursts overrun.
fn tenant_specs() -> [TenantSpec; 2] {
    [
        TenantSpec::new(CRITICAL, TenantQuota::new(4, 16)).with_weight(4),
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
            c.with_scheduler(SchedulerChoice::TimeAware {
                critical_window: CRITICAL_WINDOW,
                cycle: CYCLE,
                guard_band: GUARD_BAND,
                frame_tx: FRAME_TX,
            })
        },
    )
}

/// The critical flow's one-way plumbing under its own tenant sessions.
struct CriticalPlumbing {
    // Sessions own their streams; dropping them tears the plumbing down.
    _session_a: Session,
    _session_b: Session,
    source: Source,
    sink: Sink,
}

fn critical_plumbing(pair: &InsanePair) -> Result<CriticalPlumbing, BenchError> {
    let qos = QosPolicy {
        acceleration: Acceleration::Preferred,
        resource_usage: ResourceUsage::Unconstrained,
        time_sensitivity: TimeSensitivity::time_critical(),
    };
    let session_a = Session::connect_with(&pair.rt_a, SessionConfig::for_tenant(CRITICAL))?;
    let session_b = Session::connect_with(&pair.rt_b, SessionConfig::for_tenant(CRITICAL))?;
    let stream_a = session_a.create_stream(qos)?;
    let stream_b = session_b.create_stream(qos)?;
    let sink = stream_b.create_sink(CRIT_CHANNEL)?;
    pair.settle();
    let source = stream_a.create_source(CRIT_CHANNEL)?;
    pair.settle();
    Ok(CriticalPlumbing {
        _session_a: session_a,
        _session_b: session_b,
        source,
        sink,
    })
}

/// Is this error one of the typed refusals the isolation machinery may
/// answer a saturating tenant with?
fn is_typed_rejection(e: &InsaneError) -> bool {
    matches!(
        e,
        InsaneError::AdmissionRejected { .. }
            | InsaneError::Shed { .. }
            | InsaneError::Backpressure
            | InsaneError::Memory(MemoryError::QuotaExceeded { .. })
    )
}

fn critical_refused(e: InsaneError) -> BenchError {
    if is_typed_rejection(&e) {
        BenchError::Other(format!(
            "timing isolation violated: the time-critical tenant was refused: {e}"
        ))
    } else {
        BenchError::Insane(e)
    }
}

/// One critical round: emit a sequence-stamped message, drive both
/// runtimes inline until *that* sequence arrives (stale deliveries from
/// reorder/duplicate faults are discarded), or give up at [`DEADLINE`].
/// Returns the one-way latency, or `None` for a lost round.
fn critical_round(
    pair: &InsanePair,
    crit: &CriticalPlumbing,
    seq: u64,
) -> Result<Option<u64>, BenchError> {
    let mut buf = crit.source.get_buffer(PAYLOAD).map_err(critical_refused)?;
    buf.fill(0);
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    let t0 = Instant::now();
    crit.source.emit(buf).map_err(critical_refused)?;
    loop {
        pair.rt_a.poll_once();
        pair.rt_b.poll_once();
        match crit.sink.consume(ConsumeMode::NonBlocking) {
            Ok(msg) => {
                let mut got = [0u8; 8];
                got.copy_from_slice(&msg[..8]);
                if u64::from_le_bytes(got) == seq {
                    return Ok(Some(t0.elapsed().as_nanos() as u64));
                }
                // A stale or corrupt delivery (reorder, duplicate): discard.
            }
            Err(InsaneError::WouldBlock) => {
                if t0.elapsed() > DEADLINE {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Provably exercises the gate machinery before measuring: reloads a
/// guard band wider than every open window (so the next critical frame
/// *must* be deferred), parks one frame against it, then restores the
/// configured guard band and drains.  This also covers the
/// `tas_guard_band_ns` hot-reload path end to end on every run.
fn exercise_guard_band(pair: &InsanePair, crit: &CriticalPlumbing) -> Result<(), BenchError> {
    let wide = Tunables {
        tas_guard_band_ns: Some(900_000),
        ..Tunables::default()
    };
    pair.rt_a.reload_tunables(wide)?;
    let mut buf = crit.source.get_buffer(PAYLOAD).map_err(critical_refused)?;
    buf.fill(0);
    crit.source.emit(buf).map_err(critical_refused)?;
    for _ in 0..300 {
        pair.rt_a.poll_once();
        pair.rt_b.poll_once();
    }
    let restored = Tunables {
        tas_guard_band_ns: Some(GUARD_BAND.as_nanos() as u64),
        ..Tunables::default()
    };
    pair.rt_a.reload_tunables(restored)?;
    let t0 = Instant::now();
    loop {
        pair.rt_a.poll_once();
        pair.rt_b.poll_once();
        match crit.sink.consume(ConsumeMode::NonBlocking) {
            Ok(_) => return Ok(()),
            Err(InsaneError::WouldBlock) => {
                if t0.elapsed() > DEADLINE {
                    return Err(BenchError::Other(
                        "gate exercise: the parked frame never drained after \
                         the guard band was restored"
                            .into(),
                    ));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Runs one load point on a fresh pair: `rounds` measured critical
/// rounds after `warmup`, with `bulk_burst` best-effort emits flooded
/// ahead of every round and the seeded fault plan live underneath.
fn run_load_point(
    profile: &TestbedProfile,
    rounds: usize,
    warmup: usize,
    bulk_burst: usize,
) -> Result<LoadPoint, BenchError> {
    let pair = build_pair(profile)?;
    let crit = critical_plumbing(&pair)?;

    // Bulk plumbing only when this load point floods.
    let bulk = if bulk_burst > 0 {
        let session = Session::connect_with(&pair.rt_a, SessionConfig::for_tenant(BULK))?;
        let stream = session.create_stream(QosPolicy::fast())?;
        let sink_session = Session::connect_with(&pair.rt_b, SessionConfig::for_tenant(BULK))?;
        let sink_stream = sink_session.create_stream(QosPolicy::fast())?;
        let sink = sink_stream.create_sink(BULK_CHANNEL)?;
        pair.settle();
        let source = stream.create_source(BULK_CHANNEL)?;
        pair.settle();
        Some((session, sink_session, source, sink))
    } else {
        None
    };

    exercise_guard_band(&pair, &crit)?;

    // Faults go live only after the control plane has settled and the
    // gate exercise has drained, so setup traffic is never taken.
    let faults = pair.fabric.faults();
    faults.seed(FAULT_SEED ^ bulk_burst as u64);
    faults.set_default_plan(FaultPlan {
        drop: FAULT_DROP,
        corrupt: 0.0,
        duplicate: 0.0,
        reorder: FAULT_REORDER,
    });

    let mut series = Series::new();
    let mut budget_violations = 0u64;
    let mut lost = 0u64;
    let mut bulk_rejections = 0u64;
    let budget_ns = BUDGET.as_nanos() as u64;
    for i in 0..rounds + warmup {
        if let Some((_, _, source, _)) = &bulk {
            // The bulk tenant floods first, so its backlog is already
            // queued at TC0 when the critical frame arrives at TC7.
            for _ in 0..bulk_burst {
                match source.get_buffer(PAYLOAD) {
                    Ok(mut buf) => {
                        buf.fill(0xB5);
                        match source.emit(buf) {
                            Ok(_) => {}
                            Err(e) if is_typed_rejection(&e) => bulk_rejections += 1,
                            Err(e) => return Err(e.into()),
                        }
                    }
                    Err(e) if is_typed_rejection(&e) => bulk_rejections += 1,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        match critical_round(&pair, &crit, 1 + i as u64)? {
            Some(ns) if i >= warmup => {
                if ns > budget_ns {
                    budget_violations += 1;
                }
                series.push(ns);
            }
            Some(_) => {}
            None if i >= warmup => lost += 1,
            None => {}
        }
        if let Some((_, _, _, sink)) = &bulk {
            // Drain the bulk sink so the receiver's pools recycle.
            while sink.consume(ConsumeMode::NonBlocking).is_ok() {}
        }
    }

    let gate_deferrals = pair.rt_a.stats().gate_deferrals + pair.rt_b.stats().gate_deferrals;
    Ok(LoadPoint {
        bulk_burst,
        series,
        budget_violations,
        lost,
        bulk_rejections,
        gate_deferrals,
        faults: faults.stats(),
    })
}

/// Runs the full experiment on `profile`: a solo baseline (bulk burst
/// 0) first, then one load point per entry of `bulk_bursts`, each on a
/// fresh fabric.
///
/// # Errors
///
/// Propagates middleware failures — including any typed refusal of the
/// time-critical tenant, and any *untyped* failure of the bulk tenant.
pub fn run(
    profile: &TestbedProfile,
    rounds: usize,
    warmup: usize,
    bulk_bursts: &[usize],
) -> Result<MixedCriticalityReport, BenchError> {
    let mut points = vec![run_load_point(profile, rounds, warmup, 0)?];
    for &burst in bulk_bursts.iter().filter(|&&b| b > 0) {
        points.push(run_load_point(profile, rounds, warmup, burst)?);
    }
    Ok(MixedCriticalityReport { points })
}

/// The `isolation` suite: measures the solo baseline and the bulk load
/// points named in `args` (emits per critical round, default `8 32`)
/// with the seeded fault injector live, prints each, and exports
/// `BENCH_isolation.json`, whose contract fails the run unless every
/// delivered critical message landed inside its latency budget and the
/// contended p99.9 stayed within the 2x tail bound.
///
/// # Errors
///
/// As [`run`], plus a malformed load point or any violated export gate.
pub fn suite(profile: &TestbedProfile, args: &[String]) -> Result<(), BenchError> {
    let bursts = if args.is_empty() {
        vec![8, 32]
    } else {
        args.iter()
            .map(|a| {
                a.parse::<usize>()
                    .map_err(|_| BenchError::Other(format!("invalid bulk load point {a:?}")))
            })
            .collect::<Result<_, _>>()?
    };
    let rounds = iters(300);
    // Warmup also floods, so bulk backlog and the dry token bucket are
    // already in place when measurement starts.
    let warmup = 20;

    println!(
        "mixed criticality: {rounds} critical one-ways x {PAYLOAD} B over the \
         time-aware shard, bulk load points {bursts:?}, budget {:.1}ms",
        BUDGET.as_secs_f64() * 1e3,
    );
    let report = run(profile, rounds, warmup, &bursts)?;

    let solo = report.solo_p999_ns();
    for p in &report.points {
        println!(
            "bulk {:>3}/round: p50 {:.2}us p99 {:.2}us p99.9 {:.2}us \
             (ratio {:.3}x of solo, bound {:.3}x) | {} over budget, {} lost, \
             {} deferrals, {} bulk rejections, {} drops / {} reorders injected",
            p.bulk_burst,
            p.series.median() as f64 / 1e3,
            p.series.p99() as f64 / 1e3,
            p.series.p999() as f64 / 1e3,
            p.ratio_x1000(solo) as f64 / 1e3,
            TAIL_BOUND_X1000 as f64 / 1e3,
            p.budget_violations,
            p.lost,
            p.gate_deferrals,
            p.bulk_rejections,
            p.faults.injected_drops,
            p.faults.reorders,
        );
    }
    crate::export::write("BENCH_isolation.json", report.rows(profile.name))
}
