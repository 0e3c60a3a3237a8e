//! Overhead pins (ISSUE 4): what telemetry and the runtime cost the
//! heap, counted exactly.
//!
//! **Zero added allocations** — the steady-state emit/consume round
//! trip over the loopback kernel-UDP datapath performs *exactly* as many
//! heap allocations with recording enabled (sampled or every message) as
//! with it disabled.  All recorder state is preallocated at stream
//! registration; the record path is relaxed atomics only.
//!
//! What recording costs in *time* is not asserted here: a wall-clock
//! comparison inside `cargo test` fails for reasons it is not named
//! after.  It is the repository benchmark's
//! `telemetry.disabled_rtt_delta_pct` rung (`benchmark/`, `pingpong_64b
//! --trace 1`: the default 1-in-1 recording against
//! `TelemetryConfig::disabled()` on the DPDK fast path), and since
//! recording is on by default every gated `lat_p50_us` includes it.
//!
//! The counting allocator this needs is the one place in the workspace
//! that can see the heap from outside, so the runtime's drop-leak pin
//! (`dropped_peered_runtimes_give_their_memory_back`) and its
//! allocations-per-message pin (`dpdk_round_trip_allocations_are_pinned`)
//! live here too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use insane_core::runtime::poll_until_quiescent;
use insane_core::{
    ChannelId, ConsumeMode, InsaneError, QosPolicy, Runtime, RuntimeConfig, Session,
    TelemetryConfig, ThreadingMode,
};
use insane_fabric::{Fabric, Technology, TestbedProfile};

/// Counts every heap allocation made through the global allocator, and
/// the bytes currently allocated.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counters are
// relaxed atomic updates with no other side effects, so every
// GlobalAlloc contract (layout fidelity, uniqueness, deallocation
// pairing) is exactly the system allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: callers uphold the GlobalAlloc contract (nonzero-size
    // layout); this wrapper adds no requirements of its own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller, which
        // upholds the GlobalAlloc contract for it.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers pass a pointer previously returned by `alloc`
    // with the same layout, per the GlobalAlloc contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a matching `alloc` through
        // this same wrapper, which allocated via `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Held by each test for its whole body.  `ALLOCATIONS` and `LIVE_BYTES`
/// count the whole process, so one test's allocations would otherwise
/// land in another's window whenever the harness runs them in parallel.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// One manually-driven loopback pair over the kernel-UDP datapath with
/// the given telemetry configuration, plus a primed source/sink on
/// channel 7.
struct Loopback {
    rt_a: Runtime,
    rt_b: Runtime,
    source: insane_core::Source,
    sink: insane_core::Sink,
    _sessions: (Session, Session),
    _streams: (insane_core::Stream, insane_core::Stream),
}

/// A manually-driven runtime whose heartbeats stay out of every counted
/// or timed window: they allocate (control payload, burst vector) and are
/// paced by wall-clock time, so a slow block would catch more of them.
fn quiet_config(id: u32, techs: &[Technology]) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(id)
        .with_technologies(techs)
        .with_threading(ThreadingMode::Manual);
    config.control.heartbeat_interval = Duration::from_secs(3600);
    config
}

fn loopback(fabric: &Fabric, base_id: u32, telemetry: TelemetryConfig) -> Loopback {
    let host_a = fabric.add_host(&format!("a{base_id}"));
    let host_b = fabric.add_host(&format!("b{base_id}"));
    let config = |id: u32| quiet_config(id, &[Technology::KernelUdp]).with_telemetry(telemetry);
    let rt_a = Runtime::start(config(base_id), fabric, host_a).expect("runtime a");
    let rt_b = Runtime::start(config(base_id + 1), fabric, host_b).expect("runtime b");
    rt_a.add_peer(host_b).expect("peer");
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);

    let session_a = Session::connect(&rt_a).expect("session a");
    let session_b = Session::connect(&rt_b).expect("session b");
    let stream_a = session_a
        .create_stream(QosPolicy::slow())
        .expect("stream a");
    let stream_b = session_b
        .create_stream(QosPolicy::slow())
        .expect("stream b");
    let sink = stream_b.create_sink(ChannelId(7)).expect("sink");
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    let source = stream_a.create_source(ChannelId(7)).expect("source");
    Loopback {
        rt_a,
        rt_b,
        source,
        sink,
        _sessions: (session_a, session_b),
        _streams: (stream_a, stream_b),
    }
}

/// One emit → poll → consume trip of a 32-byte payload from `source` to
/// `sink`, driving both runtimes.
fn one_way(runtimes: [&Runtime; 2], source: &insane_core::Source, sink: &insane_core::Sink) {
    let mut buf = source.get_buffer(32).expect("buffer");
    buf.fill(0x5a);
    source.emit(buf).expect("emit");
    loop {
        for rt in runtimes {
            rt.poll_once();
        }
        match sink.consume(ConsumeMode::NonBlocking) {
            Ok(msg) => {
                drop(msg);
                break;
            }
            Err(InsaneError::WouldBlock) => {}
            Err(e) => panic!("consume failed: {e}"),
        }
    }
}

impl Loopback {
    /// One emit → poll → consume round trip of a 32-byte payload.
    fn round_trip(&self) {
        one_way([&self.rt_a, &self.rt_b], &self.source, &self.sink);
    }

    /// Allocations per `n` steady-state round trips.
    fn allocs_over(&self, n: usize) -> u64 {
        let before = allocations();
        for _ in 0..n {
            self.round_trip();
        }
        allocations() - before
    }

    /// Steady-state allocation floor: the minimum of `blocks` blocks of
    /// `n` round trips each.  The deliver-poll loop is paced by real
    /// time (the fabric models link latency), so an occasional extra
    /// poll iteration adds stray allocations; that noise is strictly
    /// additive, making the per-block minimum the deterministic cost.
    fn alloc_floor(&self, blocks: usize, n: usize) -> u64 {
        (0..blocks).map(|_| self.allocs_over(n)).min().unwrap_or(0)
    }
}

#[test]
fn telemetry_adds_zero_allocations_on_the_emit_consume_path() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::new(TestbedProfile::local());
    let disabled = loopback(&fabric, 1, TelemetryConfig::disabled());
    let sampled = loopback(&fabric, 3, TelemetryConfig::default().with_sample_every(16));
    let every = loopback(&fabric, 5, TelemetryConfig::default());

    // Warm-up: first trips populate lazy state (hash maps, inbound
    // scratch, histogram shard slots) on every configuration.
    for lb in [&disabled, &sampled, &every] {
        lb.allocs_over(64);
    }

    const N: usize = 128;
    const BLOCKS: usize = 6;
    let base = disabled.alloc_floor(BLOCKS, N);
    let with_sampling = sampled.alloc_floor(BLOCKS, N);
    let with_full = every.alloc_floor(BLOCKS, N);
    assert_eq!(
        with_sampling, base,
        "sampled telemetry must not allocate on the emit/consume path \
         (disabled: {base}, sampled: {with_sampling} allocations / {N} round trips)"
    );
    assert_eq!(
        with_full, base,
        "even unsampled telemetry records into preallocated recorders \
         (disabled: {base}, every-message: {with_full} allocations / {N} round trips)"
    );
}

/// ROADMAP 3 (c): `SlotGuard::into_token` / `SlotView::into_token` used
/// to forget their pool handle along with the checkout, so every emitted
/// message — the control plane's Hello included — pinned the runtime's
/// `PoolSet` forever: ≈ 16 MiB per peered build→drop cycle.  Unpeered
/// runtimes send nothing and never showed it.
#[test]
fn dropped_peered_runtimes_give_their_memory_back() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cycle = || {
        let fabric = Fabric::new(TestbedProfile::local());
        let (host_a, host_b) = (fabric.add_host("a"), fabric.add_host("b"));
        let config = |id: u32| {
            RuntimeConfig::new(id)
                .with_technologies(&[Technology::KernelUdp, Technology::Dpdk])
                .with_threading(ThreadingMode::Manual)
        };
        let rt_a = Runtime::start(config(1), &fabric, host_a).expect("runtime a");
        let rt_b = Runtime::start(config(2), &fabric, host_b).expect("runtime b");
        rt_a.add_peer(host_b).expect("add_peer");
        poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    };
    // Process-wide lazy state (epoch clock, thread-locals) is set up by
    // the first cycle and is not a leak.
    cycle();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for _ in 0..8 {
        cycle();
    }
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    assert_eq!(
        after,
        before,
        "8 peered build→drop cycles left {} KiB of live heap behind",
        after.saturating_sub(before) / 1024
    );
}

/// What one message costs the heap on the accelerated path, pinned
/// exactly so that a new allocation per message — or a removed one —
/// shows up as a number, not as noise in a latency median.
#[test]
fn dpdk_round_trip_allocations_are_pinned() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::new(TestbedProfile::local());
    let (host_a, host_b) = (fabric.add_host("a"), fabric.add_host("b"));
    let config = |id: u32| quiet_config(id, &[Technology::KernelUdp, Technology::Dpdk]);
    let rt_a = Runtime::start(config(1), &fabric, host_a).expect("runtime a");
    let rt_b = Runtime::start(config(2), &fabric, host_b).expect("runtime b");
    rt_a.add_peer(host_b).expect("peer");
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    let session_a = Session::connect(&rt_a).expect("session a");
    let session_b = Session::connect(&rt_b).expect("session b");
    let stream_a = session_a.create_stream(QosPolicy::fast()).expect("stream");
    let stream_b = session_b.create_stream(QosPolicy::fast()).expect("stream");
    assert_eq!(stream_a.technology(), Technology::Dpdk);
    let ping_sink = stream_b.create_sink(ChannelId(7)).expect("sink");
    let pong_sink = stream_a.create_sink(ChannelId(8)).expect("sink");
    poll_until_quiescent(&[&rt_a, &rt_b], 10_000);
    let ping_source = stream_a.create_source(ChannelId(7)).expect("source");
    let pong_source = stream_b.create_source(ChannelId(8)).expect("source");
    let round_trip = || {
        one_way([&rt_a, &rt_b], &ping_source, &ping_sink);
        one_way([&rt_a, &rt_b], &pong_source, &pong_sink);
    };

    // Warm-up: scratch vectors and device rings grow to their watermark.
    for _ in 0..200 {
        round_trip();
    }
    const N: u64 = 1_000;
    let before = allocations();
    for _ in 0..N {
        round_trip();
    }
    let counted = allocations() - before;

    // Per direction, all on the receive side or in the simulated device:
    //   1  `Arc<Delivery>` — what the sinks of one message share; the
    //      only allocation `insane-core` makes per message (the slot's
    //      state word counts everything else);
    //   1  `DpdkPort::tx_burst_views` staging the burst in a `Vec`;
    //   1  the plugin's packet `Vec`, which `DpdkPort::rx_burst` fills
    //      straight from the port queue.
    // The two device ones are per *burst*, so they amortize under load;
    // at one message in flight they are a finding for ROADMAP item 2.
    const PER_DIRECTION: u64 = 3;
    assert_eq!(
        counted,
        N * 2 * PER_DIRECTION,
        "{counted} allocations over {N} DPDK round trips"
    );
}
