//! Deterministic, seeded fault injection for the fabric.
//!
//! Every frame the fabric accepts passes through the [`FaultInjector`]
//! attached to it.  By default the injector is inert (a single relaxed
//! atomic load per frame); once configured it can
//!
//! * gate **devices** (a bound endpoint or a whole host) so frames from or
//!   to them vanish — the simulated equivalent of a NIC dying;
//! * gate **links** (directed host pairs), either toggled or over
//!   scheduled time windows relative to the fabric's creation;
//! * apply a per-link [`FaultPlan`]: independent probabilities of frame
//!   drop, payload corruption (a single bit flip, caught downstream by the
//!   packet engine's payload checksum), duplication, and reordering.
//!
//! All randomness comes from one seeded xorshift64* generator, so a given
//! seed and transmit order replays the exact same fault sequence.  Every
//! injected fault is counted in [`FaultStats`].

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::wire::{Endpoint, Frame, HostId, Payload};

/// Per-link fault probabilities, each in `[0, 1]` and sampled
/// independently per frame (drop short-circuits the others).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability the frame is silently dropped.
    pub drop: f64,
    /// Probability one payload bit is flipped.
    pub corrupt: f64,
    /// Probability the frame is delivered twice.
    pub duplicate: f64,
    /// Probability the frame overtakes the frame queued before it.
    pub reorder: f64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// A loss-only plan with drop probability `p`.
    pub fn lossy(p: f64) -> Self {
        Self {
            drop: p,
            ..Self::default()
        }
    }

    fn is_inert(&self) -> bool {
        self.drop <= 0.0 && self.corrupt <= 0.0 && self.duplicate <= 0.0 && self.reorder <= 0.0
    }
}

/// Counters for every fault the injector has applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames dropped by a [`FaultPlan`] drop sample.
    pub injected_drops: u64,
    /// Frames whose payload was bit-flipped.
    pub corruptions: u64,
    /// Frames delivered twice.
    pub duplicates: u64,
    /// Frames reordered past their predecessor.
    pub reorders: u64,
    /// Frames dropped because their link was down (toggle or window).
    pub link_down_drops: u64,
    /// Frames dropped because a device or host was down.
    pub device_down_drops: u64,
}

#[derive(Default)]
struct Counters {
    injected_drops: AtomicU64,
    corruptions: AtomicU64,
    duplicates: AtomicU64,
    reorders: AtomicU64,
    link_down_drops: AtomicU64,
    device_down_drops: AtomicU64,
}

struct LinkWindow {
    src: u32,
    dst: u32,
    from: Duration,
    until: Duration,
}

#[derive(Default)]
struct Config {
    default_plan: FaultPlan,
    link_plans: HashMap<(u32, u32), FaultPlan>,
    links_down: HashSet<(u32, u32)>,
    hosts_down: HashSet<u32>,
    devices_down: HashSet<Endpoint>,
    device_ranges_down: Vec<(u32, u16, u16)>,
    windows: Vec<LinkWindow>,
}

impl Config {
    fn is_inert(&self) -> bool {
        self.default_plan.is_inert()
            && self.link_plans.values().all(FaultPlan::is_inert)
            && self.links_down.is_empty()
            && self.hosts_down.is_empty()
            && self.devices_down.is_empty()
            && self.device_ranges_down.is_empty()
            && self.windows.is_empty()
    }

    fn device_is_down(&self, ep: Endpoint) -> bool {
        self.hosts_down.contains(&ep.host.index())
            || self.devices_down.contains(&ep)
            || self
                .device_ranges_down
                .iter()
                .any(|&(h, lo, hi)| h == ep.host.index() && (lo..=hi).contains(&ep.port))
    }

    fn link_is_down(&self, src: HostId, dst: HostId, since_epoch: Duration) -> bool {
        let key = (src.index(), dst.index());
        self.links_down.contains(&key)
            || self
                .windows
                .iter()
                .any(|w| (w.src, w.dst) == key && w.from <= since_epoch && since_epoch < w.until)
    }
}

/// What the injector decided for one frame.
pub(crate) enum Verdict {
    /// Discard the frame (already counted).
    Drop,
    /// Deliver, with optional side effects.
    Deliver {
        /// Enqueue a second copy of the frame.
        duplicate: bool,
        /// Let the frame overtake the previously queued frame.
        reorder: bool,
    },
}

const CLEAN: Verdict = Verdict::Deliver {
    duplicate: false,
    reorder: false,
};

pub(crate) struct FaultState {
    active: AtomicBool,
    epoch: Instant,
    rng: Mutex<u64>,
    config: Mutex<Config>,
    counters: Counters,
}

impl FaultState {
    pub(crate) fn new() -> Self {
        Self {
            active: AtomicBool::new(false),
            epoch: Instant::now(),
            rng: Mutex::new(0x9E37_79B9_7F4A_7C15),
            config: Mutex::new(Config::default()),
            counters: Counters::default(),
        }
    }

    fn next_u64(rng: &mut u64) -> u64 {
        let mut x = *rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(rng: &mut u64) -> f64 {
        (Self::next_u64(rng) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Applies the configured faults to `frame`; the caller enacts the
    /// returned verdict.
    pub(crate) fn intercept(&self, frame: &mut Frame) -> Verdict {
        if !self.active.load(Ordering::Relaxed) {
            return CLEAN;
        }
        let cfg = self.config.lock();
        if cfg.device_is_down(frame.src) || cfg.device_is_down(frame.dst) {
            self.counters
                .device_down_drops
                .fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        if cfg.link_is_down(
            frame.src.host,
            frame.dst.host,
            frame.sent_at.saturating_duration_since(self.epoch),
        ) {
            self.counters
                .link_down_drops
                .fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        let plan = cfg
            .link_plans
            .get(&(frame.src.host.index(), frame.dst.host.index()))
            .copied()
            .unwrap_or(cfg.default_plan);
        drop(cfg);
        if plan.is_inert() {
            return CLEAN;
        }

        let mut rng = self.rng.lock();
        if plan.drop > 0.0 && Self::unit(&mut rng) < plan.drop {
            self.counters.injected_drops.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        if plan.corrupt > 0.0 && Self::unit(&mut rng) < plan.corrupt && !frame.payload.is_empty() {
            let bit = Self::next_u64(&mut rng);
            corrupt_payload(&mut frame.payload, bit);
            self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
        }
        let duplicate = plan.duplicate > 0.0 && Self::unit(&mut rng) < plan.duplicate;
        if duplicate {
            self.counters.duplicates.fetch_add(1, Ordering::Relaxed);
        }
        let reorder = plan.reorder > 0.0 && Self::unit(&mut rng) < plan.reorder;
        if reorder {
            self.counters.reorders.fetch_add(1, Ordering::Relaxed);
        }
        Verdict::Deliver { duplicate, reorder }
    }

    pub(crate) fn device_is_down(&self, ep: Endpoint) -> bool {
        // insane-lint: allow(hot-path-block) -- the atomic fast path short-circuits; the lock is taken only while fault injection is active
        self.active.load(Ordering::Relaxed) && self.config.lock().device_is_down(ep)
    }

    fn refresh_active(&self, cfg: &Config) {
        self.active.store(!cfg.is_inert(), Ordering::Relaxed);
    }
}

/// Flips one payload bit chosen by `entropy`.  Pooled payloads are shared
/// with the sender, so corruption substitutes an inline copy — the sender's
/// slot keeps its original bytes, as with real on-wire corruption.
fn corrupt_payload(payload: &mut Payload, entropy: u64) {
    let mut bytes = payload.to_vec();
    let idx = (entropy as usize >> 3) % bytes.len();
    bytes[idx] ^= 1 << (entropy & 7);
    *payload = Payload::Inline(bytes.into_boxed_slice());
}

/// Handle for configuring fault injection on a [`crate::Fabric`].
///
/// Cloning is cheap; all clones act on the same injector.  Obtained via
/// [`crate::Fabric::faults`].
#[derive(Clone)]
pub struct FaultInjector {
    state: Arc<FaultState>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("active", &self.state.active.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

impl FaultInjector {
    pub(crate) fn from_state(state: Arc<FaultState>) -> Self {
        Self { state }
    }

    /// Reseeds the fault generator (replays deterministically per seed).
    pub fn seed(&self, seed: u64) {
        *self.state.rng.lock() = seed | 1;
    }

    /// Sets the plan applied to links with no per-link plan.
    pub fn set_default_plan(&self, plan: FaultPlan) {
        let mut cfg = self.state.config.lock();
        cfg.default_plan = plan;
        self.state.refresh_active(&cfg);
    }

    /// Sets the plan for the directed link `src → dst`.
    pub fn set_link_plan(&self, src: HostId, dst: HostId, plan: FaultPlan) {
        let mut cfg = self.state.config.lock();
        cfg.link_plans.insert((src.index(), dst.index()), plan);
        self.state.refresh_active(&cfg);
    }

    /// Toggles the directed link `src → dst` down (frames silently lost).
    pub fn set_link_down(&self, src: HostId, dst: HostId, down: bool) {
        let mut cfg = self.state.config.lock();
        let key = (src.index(), dst.index());
        if down {
            cfg.links_down.insert(key);
        } else {
            cfg.links_down.remove(&key);
        }
        self.state.refresh_active(&cfg);
    }

    /// Schedules the directed link `src → dst` down for
    /// `[from, until)`, measured from the fabric's creation.
    pub fn schedule_link_down(&self, src: HostId, dst: HostId, from: Duration, until: Duration) {
        let mut cfg = self.state.config.lock();
        cfg.windows.push(LinkWindow {
            src: src.index(),
            dst: dst.index(),
            from,
            until,
        });
        self.state.refresh_active(&cfg);
    }

    /// Toggles a whole host down (all its devices fail).
    pub fn set_host_down(&self, host: HostId, down: bool) {
        let mut cfg = self.state.config.lock();
        if down {
            cfg.hosts_down.insert(host.index());
        } else {
            cfg.hosts_down.remove(&host.index());
        }
        self.state.refresh_active(&cfg);
    }

    /// Fails the device bound at `ep`: frames from or to it vanish.
    pub fn fail_device(&self, ep: Endpoint) {
        let mut cfg = self.state.config.lock();
        cfg.devices_down.insert(ep);
        self.state.refresh_active(&cfg);
    }

    /// Restores a device failed with [`FaultInjector::fail_device`].
    pub fn restore_device(&self, ep: Endpoint) {
        let mut cfg = self.state.config.lock();
        cfg.devices_down.remove(&ep);
        self.state.refresh_active(&cfg);
    }

    /// Fails every device on `host` with a port in `ports` (inclusive) —
    /// e.g. a whole RDMA queue-pair range.
    pub fn fail_device_range(&self, host: HostId, ports: std::ops::RangeInclusive<u16>) {
        let mut cfg = self.state.config.lock();
        cfg.device_ranges_down
            .push((host.index(), *ports.start(), *ports.end()));
        self.state.refresh_active(&cfg);
    }

    /// Restores device ranges failed with
    /// [`FaultInjector::fail_device_range`] that match `host` and overlap
    /// `ports`.
    pub fn restore_device_range(&self, host: HostId, ports: std::ops::RangeInclusive<u16>) {
        let mut cfg = self.state.config.lock();
        cfg.device_ranges_down
            .retain(|&(h, lo, hi)| h != host.index() || hi < *ports.start() || lo > *ports.end());
        self.state.refresh_active(&cfg);
    }

    /// Whether the device at `ep` is currently gated down (directly, via a
    /// failed range, or because its host is down).
    pub fn device_down(&self, ep: Endpoint) -> bool {
        self.state.device_is_down(ep)
    }

    /// Snapshot of every fault injected so far.
    pub fn stats(&self) -> FaultStats {
        let c = &self.state.counters;
        FaultStats {
            injected_drops: c.injected_drops.load(Ordering::Relaxed),
            corruptions: c.corruptions.load(Ordering::Relaxed),
            duplicates: c.duplicates.load(Ordering::Relaxed),
            reorders: c.reorders.load(Ordering::Relaxed),
            link_down_drops: c.link_down_drops.load(Ordering::Relaxed),
            device_down_drops: c.device_down_drops.load(Ordering::Relaxed),
        }
    }

    /// Removes all configured faults (counters are preserved).
    pub fn clear(&self) {
        let mut cfg = self.state.config.lock();
        *cfg = Config::default();
        self.state.refresh_active(&cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Fabric;
    use crate::TestbedProfile;

    fn two_hosts() -> (Fabric, HostId, HostId) {
        let f = Fabric::new(TestbedProfile::local());
        let a = f.add_host("a");
        let b = f.add_host("b");
        (f, a, b)
    }

    fn ep(host: HostId, port: u16) -> Endpoint {
        Endpoint { host, port }
    }

    fn send(f: &Fabric, src: Endpoint, dst: Endpoint, payload: &[u8]) {
        f.transmit(
            Frame::new(src, dst, Payload::Inline(payload.into()), Instant::now()),
            64,
            0,
        )
        .unwrap();
    }

    fn drain(port: &crate::wire::PortHandle) -> Vec<Vec<u8>> {
        crate::time::spin_for_ns(20_000);
        let mut out: Vec<Frame> = Vec::new();
        port.poll_burst(&mut out, 1024);
        out.iter().map(|f| f.payload.to_vec()).collect()
    }

    #[test]
    fn inert_injector_changes_nothing() {
        let (f, a, b) = two_hosts();
        let dst = ep(b, 2);
        let port = f.bind(dst).unwrap();
        send(&f, ep(a, 1), dst, b"x");
        assert_eq!(drain(&port).len(), 1);
        assert_eq!(f.faults().stats(), FaultStats::default());
    }

    #[test]
    fn seeded_drops_are_deterministic_and_bounded() {
        let mut counts = Vec::new();
        for _ in 0..2 {
            let (f, a, b) = two_hosts();
            let dst = ep(b, 2);
            let port = f.bind_with_capacity(dst, 4096).unwrap();
            let faults = f.faults();
            faults.seed(42);
            faults.set_default_plan(FaultPlan::lossy(0.3));
            for _ in 0..1000 {
                send(&f, ep(a, 1), dst, b"x");
            }
            let got = drain(&port).len();
            assert_eq!(got as u64 + faults.stats().injected_drops, 1000);
            assert!((150..=450).contains(&faults.stats().injected_drops));
            counts.push(got);
        }
        assert_eq!(counts[0], counts[1], "same seed must replay identically");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let (f, a, b) = two_hosts();
        let dst = ep(b, 2);
        let port = f.bind(dst).unwrap();
        let faults = f.faults();
        faults.seed(7);
        faults.set_link_plan(
            a,
            b,
            FaultPlan {
                corrupt: 1.0,
                ..FaultPlan::none()
            },
        );
        send(&f, ep(a, 1), dst, &[0u8; 16]);
        let got = drain(&port);
        assert_eq!(got.len(), 1);
        let flipped: u32 = got[0].iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        assert_eq!(faults.stats().corruptions, 1);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let (f, a, b) = two_hosts();
        let dst = ep(b, 2);
        let port = f.bind(dst).unwrap();
        let faults = f.faults();
        faults.set_link_plan(
            a,
            b,
            FaultPlan {
                duplicate: 1.0,
                ..FaultPlan::none()
            },
        );
        send(&f, ep(a, 1), dst, b"twin");
        let got = drain(&port);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], got[1]);
        assert_eq!(faults.stats().duplicates, 1);
    }

    #[test]
    fn reorder_overtakes_previous_frame() {
        let (f, a, b) = two_hosts();
        let dst = ep(b, 2);
        let port = f.bind(dst).unwrap();
        let faults = f.faults();
        send(&f, ep(a, 1), dst, b"first");
        faults.set_link_plan(
            a,
            b,
            FaultPlan {
                reorder: 1.0,
                ..FaultPlan::none()
            },
        );
        send(&f, ep(a, 1), dst, b"second");
        let got = drain(&port);
        assert_eq!(got, vec![b"second".to_vec(), b"first".to_vec()]);
        assert_eq!(faults.stats().reorders, 1);
    }

    #[test]
    fn link_down_toggle_and_window_drop_frames() {
        let (f, a, b) = two_hosts();
        let dst = ep(b, 2);
        let port = f.bind(dst).unwrap();
        let faults = f.faults();
        faults.set_link_down(a, b, true);
        send(&f, ep(a, 1), dst, b"lost");
        faults.set_link_down(a, b, false);
        // A window covering all of time from the fabric's epoch.
        faults.schedule_link_down(a, b, Duration::ZERO, Duration::from_secs(3600));
        send(&f, ep(a, 1), dst, b"lost too");
        faults.clear();
        send(&f, ep(a, 1), dst, b"through");
        assert_eq!(drain(&port), vec![b"through".to_vec()]);
        assert_eq!(faults.stats().link_down_drops, 2);
    }

    #[test]
    fn device_and_range_failures_gate_traffic_both_ways() {
        let (f, a, b) = two_hosts();
        let dst = ep(b, 2);
        let back = ep(a, 1);
        let port = f.bind(dst).unwrap();
        let port_back = f.bind(back).unwrap();
        let faults = f.faults();
        faults.fail_device(dst);
        assert!(f.device_down(dst));
        send(&f, back, dst, b"to dead dst");
        send(&f, dst, back, b"from dead src");
        faults.restore_device(dst);
        assert!(!f.device_down(dst));
        faults.fail_device_range(b, 0..=100);
        send(&f, back, dst, b"range dead");
        faults.restore_device_range(b, 0..=100);
        send(&f, back, dst, b"alive");
        assert_eq!(drain(&port), vec![b"alive".to_vec()]);
        assert_eq!(drain(&port_back).len(), 0);
        assert_eq!(faults.stats().device_down_drops, 3);
    }

    #[test]
    fn host_down_gates_every_device() {
        let (f, a, b) = two_hosts();
        let dst = ep(b, 2);
        let port = f.bind(dst).unwrap();
        let faults = f.faults();
        faults.set_host_down(b, true);
        send(&f, ep(a, 1), dst, b"lost");
        faults.set_host_down(b, false);
        send(&f, ep(a, 1), dst, b"through");
        assert_eq!(drain(&port), vec![b"through".to_vec()]);
        assert_eq!(faults.stats().device_down_drops, 1);
    }
}
