//! Log-bucketed, HDR-style latency histograms.
//!
//! Values (nanoseconds) are binned into buckets whose width grows
//! geometrically: each power-of-two magnitude is split into
//! `2^SUB_BITS` linear sub-buckets, bounding the relative quantile
//! error at `2^-SUB_BITS` (6.25%) while covering the full `u64` range
//! with under a thousand buckets. Recording is three relaxed atomic
//! RMWs — the bucket, the exact sum, the exact max; no locks, no
//! allocation — so polling threads can record from the datapath hot
//! loop. The observation count is not stored: it is the sum of the
//! buckets, taken when a snapshot is.
//!
//! [`ShardedHistogram`] spreads recorders across a small set of
//! [`LogHistogram`] shards (one picked per thread) so concurrent
//! polling threads do not contend on the same cache lines; snapshots
//! merge the shards back into one distribution.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Linear sub-buckets per power-of-two magnitude, as a bit count.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two magnitude.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: one linear group
/// for values below [`SUB_BUCKETS`], then one group of [`SUB_BUCKETS`]
/// sub-buckets per magnitude `SUB_BITS..=63`.
pub const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB_BUCKETS;

/// Number of shards in a [`ShardedHistogram`]; a power of two, so a
/// thread's shard is a mask of its arrival number.
pub const SHARDS: usize = 4;
const _: () = assert!(SHARDS.is_power_of_two());

/// Maps a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let group = msb - SUB_BITS as u64 + 1;
    let sub = (v >> (msb - SUB_BITS as u64)) & (SUB_BUCKETS as u64 - 1);
    let idx = group as usize * SUB_BUCKETS + sub as usize;
    if idx < BUCKETS {
        idx
    } else {
        BUCKETS - 1
    }
}

/// Inclusive lower bound and exclusive upper bound of a bucket.
///
/// Bounds are returned as `u128` because the top bucket's upper bound
/// is `2^64`, one past `u64::MAX`.
fn bucket_bounds(idx: usize) -> (u128, u128) {
    if idx < SUB_BUCKETS {
        return (idx as u128, idx as u128 + 1);
    }
    let group = (idx / SUB_BUCKETS) as u32;
    let sub = (idx % SUB_BUCKETS) as u128;
    let shift = group - 1;
    let low = (SUB_BUCKETS as u128 + sub) << shift;
    (low, low + (1u128 << shift))
}

/// Midpoint of a bucket, clamped to `u64`; used as the reported value
/// for quantiles falling inside the bucket.
fn bucket_mid(idx: usize) -> u64 {
    let (low, high) = bucket_bounds(idx);
    let mid = low + (high - low - 1) / 2;
    if mid > u64::MAX as u128 {
        u64::MAX
    } else {
        mid as u64
    }
}

/// A single lock-free histogram: fixed atomic bucket array plus exact
/// sum / max side-channels.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram (allocates its bucket array once).
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, AtomicU64::default);
        Self {
            buckets: buckets.into_boxed_slice(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Lock-free and allocation-free.
    pub fn record(&self, v: u64) {
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copies the current state into a plain-data snapshot.
    ///
    /// Concurrent recorders may land between the bucket reads and the
    /// side-channel reads; the snapshot reconciles by trusting the
    /// bucket sum for quantile ranks.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Round-robin thread-to-shard assignment, fixed per thread on first
/// use so a polling thread always hits the same shard.  One
/// thread-local lookup: a caller recording into several histograms
/// looks its shard up once and uses [`ShardedHistogram::record_in`].
pub(crate) fn shard_of_thread() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
    }
    SHARD.with(|s| *s)
}

/// A histogram split into per-thread shards to avoid cross-core cache
/// contention when several polling threads record concurrently.
#[derive(Debug)]
pub struct ShardedHistogram {
    shards: [LogHistogram; SHARDS],
}

impl Default for ShardedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedHistogram {
    /// Creates an empty sharded histogram.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| LogHistogram::new()),
        }
    }

    /// Records one value into the calling thread's shard.
    pub fn record(&self, v: u64) {
        self.record_in(shard_of_thread(), v);
    }

    /// Records one value into shard `shard` (the caller's
    /// [`shard_of_thread`]).
    pub(crate) fn record_in(&self, shard: usize, v: u64) {
        if let Some(shard) = self.shards.get(shard) {
            shard.record(v);
        }
    }

    /// Snapshot of the merged distribution across all shards.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for shard in &self.shards {
            merged.merge(&shard.snapshot());
        }
        merged
    }
}

/// Plain-data copy of a histogram; supports merging and quantile
/// extraction without touching the live atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (length [`BUCKETS`]).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded values (for the exact mean).
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (merge identity).
    pub fn empty() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &Self) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        // `sum` wraps on overflow, matching the atomic `fetch_add` on
        // the live histogram (2^64 ns ≈ 584 years — unreachable for
        // real latency sums).
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` (`0.0..=1.0`): the midpoint of the bucket
    /// holding the rank-`ceil(q * count)` observation. Returns 0 for an
    /// empty snapshot; the result is within `2^-SUB_BITS` relative
    /// error of the true quantile (exact for values below
    /// [`SUB_BUCKETS`] and saturating at the top bucket).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let mut rank = (q * self.count as f64).ceil() as u64;
        if rank == 0 {
            rank = 1;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(idx);
            }
        }
        self.max
    }

    /// Exact arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Condenses the snapshot into the fixed quantile set reported by
    /// snapshots and the BENCH exporter.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
            mean_ns: self.mean(),
            max_ns: self.max,
        }
    }
}

/// Fixed quantile summary of one histogram (what snapshots ship).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Total observations behind the quantiles.
    pub count: u64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Exact arithmetic mean.
    pub mean_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        for v in 0..SUB_BUCKETS {
            assert_eq!(snap.counts[v], 1, "bucket {v}");
        }
        // Quantile 0 maps to rank 1 → the smallest value.
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(1.0), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn bucket_index_is_monotonic_and_contiguous() {
        let mut last = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for probe in [v, v + (v >> 1), v.saturating_mul(2).saturating_sub(1)] {
                let idx = bucket_index(probe);
                assert!(idx >= last, "index went backwards at {probe}");
                assert!(idx < BUCKETS);
                let (low, high) = bucket_bounds(idx);
                assert!(
                    (low..high).contains(&(probe as u128)),
                    "{probe} outside bucket [{low},{high})"
                );
                last = idx;
            }
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = LogHistogram::new();
        // A known distribution: 1..=10_000.
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let approx = snap.quantile(q);
            let err = approx.abs_diff(exact) as f64 / exact as f64;
            assert!(
                err <= 1.0 / SUB_BUCKETS as f64,
                "q={q}: {approx} vs {exact}"
            );
        }
        assert_eq!(snap.mean(), 5_000); // mean of 1..=10_000 truncated
        assert_eq!(snap.max, 10_000);
    }

    #[test]
    fn extreme_values_saturate_in_top_bucket() {
        let h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, u64::MAX);
        // Both land in the final bucket; the quantile stays in range.
        assert_eq!(snap.counts[BUCKETS - 1], 2);
        assert!(snap.quantile(0.5) >= snap.quantile(0.0));
        let (low, high) = bucket_bounds(BUCKETS - 1);
        assert!(low <= u64::MAX as u128 && high > u64::MAX as u128);
    }

    #[test]
    fn sharded_histogram_merges_all_threads() {
        let h = std::sync::Arc::new(ShardedHistogram::new());
        let mut joins = Vec::new();
        for t in 0..8u64 {
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    h.record(t * 1_000 + i);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8_000);
        assert_eq!(snap.max, 7_999);
    }

    #[test]
    fn snapshot_count_is_the_bucket_sum_under_concurrent_records() {
        // One `LogHistogram` hit by every thread at once: the count a
        // snapshot reports is derived from the buckets, so no recorder
        // interleaving can make the two disagree.
        let h = LogHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(i << t);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 20_000);
        assert_eq!(snap.count, snap.counts.iter().sum::<u64>());
    }
}
