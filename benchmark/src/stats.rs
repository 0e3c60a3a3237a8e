//! Percentiles, the quiet-machine estimator and a fixed-size histogram
//! for whole-phase values.

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100).
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a slice of floats (sorts a copy).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What one slice (a fixed number of consecutive operations) measured.
/// Times saturate at 4.29 s, a thousand times the longest slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// Which kind of work the slice held (`mixed_qos`: the burst size);
    /// slices are only ever compared with slices of their own kind.
    pub kind: u8,
    /// Messages delivered to a sink and verified.
    pub msgs: u32,
    pub wall_ns: u32,
    /// CPU time of the bench process plus the workload's child.
    pub cpu_ns: u32,
    /// Median and highest latency of the slice's operations.
    pub lat_p50_ns: u32,
    pub lat_max_ns: u32,
}

/// Nanoseconds as a [`Slice`] holds them.
pub fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Slices whose median ratio marks the fast edge of a phase: the best
/// few, not the single best, so that one freak slice cannot set it.
pub const BEST: usize = 16;
/// A slice this close to the edge counts as quiet.
const QUIET_WITHIN: f64 = 1.02;
/// Fewest slices the quiet tail (`p99_ns`) is read from.
const QUIET_MIN: usize = 256;

/// A phase reduced the way the benchmark reports it: scaled to the quiet
/// machine.
///
/// Interference on a shared machine only ever adds time.  On the build
/// host it comes as levels of slowdown (10–30 %) that last for seconds,
/// broken by quiet gaps of a few hundred microseconds, so a run's typical
/// values say which levels it happened to see, and only its very fastest
/// slices say how fast the program is.  Every slice's wall time is
/// therefore divided by the median of its kind over the whole phase; the
/// median of the [`BEST`] smallest ratios is the phase's fast edge, and
/// the slices within 2 % of it (at least [`BEST`]) are the *quiet
/// slices*.  Each reported value is the typical value of the phase
/// (per-kind medians, summed or, for latency, their median over the
/// slices) times the median, over the quiet slices, of the slice's own
/// value over the typical value of its kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Best {
    pub p50_ns: f64,
    /// 99th percentile, over the quiet slices, of the slowest operation
    /// of a slice.
    pub p99_ns: f64,
    pub msgs_per_s: f64,
    pub cpu_us_per_msg: f64,
    /// Wall time of the quiet slices over that of typical ones.
    pub floor: f64,
    pub quiet_slices: usize,
    pub slices: usize,
}

/// Median per kind of one field of the slices, indexed by kind.
fn medians_by_kind(slices: &[Slice], field: fn(&Slice) -> u32) -> Vec<f64> {
    let kinds = slices
        .iter()
        .map(|s| s.kind as usize + 1)
        .max()
        .unwrap_or(0);
    let mut by_kind = vec![Vec::new(); kinds];
    for s in slices {
        by_kind[s.kind as usize].push(f64::from(field(s)));
    }
    by_kind.iter().map(|v| median_f64(v)).collect()
}

pub fn best_of(slices: &[Slice]) -> Best {
    if slices.is_empty() {
        return Best::default();
    }
    let typical_wall = medians_by_kind(slices, |s| s.wall_ns);
    let typical_cpu = medians_by_kind(slices, |s| s.cpu_ns);
    let typical_lat = medians_by_kind(slices, |s| s.lat_p50_ns);
    // A slice's own value over the typical value of its kind.
    let ratio = |own: u32, typical: &[f64], s: &Slice| match typical[s.kind as usize] {
        m if m > 0.0 => f64::from(own) / m,
        _ => 1.0,
    };
    let mut nearest: Vec<(f64, &Slice)> = slices
        .iter()
        .map(|s| (ratio(s.wall_ns, &typical_wall, s), s))
        .collect();
    nearest.sort_by(|a, b| a.0.total_cmp(&b.0));

    let best: Vec<f64> = nearest.iter().take(BEST).map(|(r, _)| *r).collect();
    let edge = median_f64(&best);
    let quiet_slices = nearest
        .iter()
        .take_while(|(r, _)| *r <= edge * QUIET_WITHIN)
        .count()
        .max(best.len());
    let quiet = &nearest[..quiet_slices];
    let over_quiet = |f: &dyn Fn(&Slice) -> f64| {
        median_f64(&quiet.iter().map(|(_, s)| f(s)).collect::<Vec<_>>())
    };
    let floor = over_quiet(&|s| ratio(s.wall_ns, &typical_wall, s));
    let cpu_floor = over_quiet(&|s| ratio(s.cpu_ns, &typical_cpu, s));
    let lat_floor = over_quiet(&|s| ratio(s.lat_p50_ns, &typical_lat, s));

    // The tail: the slowest operation of each quiet slice, or of the
    // QUIET_MIN slices nearest the edge where fewer are quiet.
    let mut slowest: Vec<u64> = nearest
        .iter()
        .take(quiet_slices.max(QUIET_MIN))
        .map(|(_, s)| u64::from(s.lat_max_ns))
        .collect();
    slowest.sort_unstable();

    let sum = |typical: &[f64]| -> f64 { slices.iter().map(|s| typical[s.kind as usize]).sum() };
    let msgs: f64 = slices.iter().map(|s| f64::from(s.msgs)).sum();
    let lat_of_kind: Vec<f64> = slices
        .iter()
        .map(|s| typical_lat[s.kind as usize])
        .collect();
    Best {
        p50_ns: median_f64(&lat_of_kind) * lat_floor,
        p99_ns: percentile(&slowest, 99.0) as f64,
        msgs_per_s: msgs / (sum(&typical_wall) * floor / 1e9),
        cpu_us_per_msg: sum(&typical_cpu) * cpu_floor / 1e3 / msgs,
        floor,
        quiet_slices,
        slices: slices.len(),
    }
}

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const OCTAVES: usize = 64 - SUB_BITS as usize;

/// Log-linear histogram of nanosecond values: exact below 64 ns, then
/// 64 buckets per octave (≤ 1.6 % wide).  Fixed size, so a phase's
/// memory does not depend on how many operations it ran.
#[derive(Debug, Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    pub fn new() -> Self {
        Self {
            buckets: vec![0; SUB * (OCTAVES + 1)],
            count: 0,
            sum: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        (shift as usize + 1) * SUB + ((value >> shift) as usize & (SUB - 1))
    }

    /// Middle of bucket `index`.
    fn value_of(index: usize) -> u64 {
        if index < SUB {
            return index as u64;
        }
        let shift = (index / SUB - 1) as u32;
        let low = ((SUB + index % SUB) as u64) << shift;
        low + ((1u64 << shift) >> 1)
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (((pct / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (index, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::value_of(index);
            }
        }
        0
    }

    pub fn median(&self) -> u64 {
        self.percentile(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn hist_is_exact_when_small_and_close_when_large() {
        let mut h = LogHist::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 31);
        let mut h = LogHist::new();
        for v in [6_700u64, 6_700, 6_700, 300_000] {
            h.record(v);
        }
        let p50 = h.median() as f64;
        assert!((p50 - 6_700.0).abs() / 6_700.0 < 0.016, "{p50}");
        let p100 = h.percentile(100.0) as f64;
        assert!((p100 - 300_000.0).abs() / 300_000.0 < 0.016, "{p100}");
        assert_eq!(h.count(), 4);
    }

    fn slice(kind: u8, wall_ns: u32, lat_ns: u32) -> Slice {
        Slice {
            kind,
            msgs: 10 * (u32::from(kind) + 1),
            wall_ns,
            cpu_ns: wall_ns,
            lat_p50_ns: lat_ns,
            lat_max_ns: 2 * lat_ns,
        }
    }

    #[test]
    fn best_scales_typical_values_by_the_floor() {
        // One kind; most slices are disturbed (1250 ns), BEST + 4 are
        // quiet (1000 ns): the quiet machine runs at 0.8 of typical.
        let mut slices = vec![slice(0, 1_250, 500); 1_000];
        // The quiet slices' latency is their own, not the typical one
        // scaled by the wall-time floor.
        for s in slices.iter_mut().step_by(50) {
            *s = slice(0, 1_000, 450);
        }
        let best = best_of(&slices);
        assert!((best.floor - 0.8).abs() < 1e-9, "{best:?}");
        assert!((best.p50_ns - 450.0).abs() < 1e-6, "{best:?}");
        assert!((best.msgs_per_s - 10.0 / 1e-6).abs() < 1.0, "{best:?}");
        assert!((best.cpu_us_per_msg - 0.1).abs() < 1e-9, "{best:?}");
        assert_eq!((best.quiet_slices, best.slices), (20, 1_000));
        // The tail is read from at least QUIET_MIN slices.
        assert_eq!(best.p99_ns, 1_000.0);
    }

    #[test]
    fn kinds_are_compared_with_their_own_kind_only() {
        // Two kinds of different size, alternating; only slices of the
        // *larger* kind ever run quiet.  Ranking raw times would take the
        // small kind's disturbed slices for the fastest.
        let mut slices = Vec::new();
        for i in 0..2_000 {
            let quiet = i % 40 == 1;
            slices.push(if i % 2 == 0 {
                slice(0, 1_000, 300)
            } else if quiet {
                slice(1, 2_400, 720)
            } else {
                slice(1, 3_000, 900)
            });
        }
        let best = best_of(&slices);
        assert!((best.floor - 0.8).abs() < 1e-9, "{best:?}");
        // Typical: 10 msgs in 1000 ns and 20 in 3000 ns, both scaled.
        let want = 30.0 / (4_000.0 * 0.8 / 1e9);
        assert!((best.msgs_per_s - want).abs() / want < 1e-9, "{best:?}");
        // Median over slices of their kind's latency: between the kinds.
        assert!((best.p50_ns - 600.0 * 0.8).abs() < 1e-6, "{best:?}");
        assert_eq!(best.quiet_slices, 50);
    }

    #[test]
    fn an_empty_phase_reduces_to_zeros() {
        assert_eq!(best_of(&[]).slices, 0);
        assert_eq!(ns32(u64::MAX), u32::MAX);
    }
}
