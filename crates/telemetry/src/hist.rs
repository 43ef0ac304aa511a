//! Log-bucketed latency histograms with mergeable snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Bucket count: one bucket per possible significant-bit count of a `u64`
/// (0 through 64).
pub const BUCKETS: usize = 65;

/// The bucket a value lands in: its number of significant bits, so bucket
/// `k` (for `k >= 1`) covers `[2^(k-1), 2^k - 1]` and bucket 0 holds only
/// zero.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket, for exposition (`le` labels).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A power-of-two-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, throughout this workspace).
///
/// Recording is a gated `Relaxed` `fetch_add` pair — histograms are only
/// touched off the allocation fast path (contended slot waits, grace-period
/// waits, latent merges), where an uncontended RMW is noise. When tracing
/// is [disabled](crate::enabled), `record` is the single load + branch.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample (no-op while tracing is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recording may skew `sum` relative
    /// to the bucket counts by in-flight samples; `count` is always the
    /// exact sum of the snapshot's buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A frozen, mergeable, serializable view of a [`LogHistogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples (sum of `buckets`).
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Per-bucket sample counts, [`BUCKETS`] entries.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Records one sample. Unlike [`LogHistogram::record`] this ignores
    /// the global trace toggle and needs no atomics: it is the histogram
    /// for a single thread whose gates must see every sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if self.buckets.len() < BUCKETS {
            // A snapshot parsed from outside may carry fewer buckets.
            self.buckets.resize(BUCKETS, 0);
        }
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Adds `other` into `self`, bucket-wise.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or `None` when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(bucket_upper_bound(BUCKETS - 1))
    }

    /// The standard tail report: p50/p99/p99.9 upper bounds plus mean and
    /// count, or `None` when empty.
    pub fn percentiles(&self) -> Option<Percentiles> {
        Some(Percentiles {
            p50: self.quantile_upper_bound(0.5)?,
            p99: self.quantile_upper_bound(0.99)?,
            p999: self.quantile_upper_bound(0.999)?,
            mean: self.mean(),
            count: self.count,
        })
    }
}

/// p50/p99/p99.9 upper bounds of one histogram — the tail triple every
/// server report quotes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median upper bound.
    pub p50: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// 99.9th-percentile upper bound.
    pub p999: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Samples recorded.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_values_land_in_the_right_bucket() {
        // Property at every power-of-two boundary: 2^k - 1 is the last
        // value of bucket k, 2^k the first value of bucket k + 1.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..64 {
            let pow = 1u64 << k;
            assert_eq!(bucket_index(pow - 1), k, "2^{k} - 1");
            assert_eq!(bucket_index(pow), k + 1, "2^{k}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn record_fills_expected_buckets() {
        let _guard = crate::flag_guard();
        let h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 4, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 1); // 4
        assert_eq!(s.buckets[64], 1); // u64::MAX
        assert_eq!(s.sum, 10u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn merged_snapshot_equals_sum_of_parts() {
        let _guard = crate::flag_guard();
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for v in 0..200u64 {
            a.record(v * 31);
            b.record(v * 17 + 5);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());

        let reference = LogHistogram::new();
        for v in 0..200u64 {
            reference.record(v * 31);
            reference.record(v * 17 + 5);
        }
        assert_eq!(merged, reference.snapshot());
        assert_eq!(merged.count, 400);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = crate::flag_guard();
        let h = LogHistogram::new();
        crate::set_enabled(false);
        h.record(42);
        crate::set_enabled(true);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn quantiles_and_mean() {
        let _guard = crate::flag_guard();
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.quantile_upper_bound(0.5), Some(15)); // bucket [8, 15]
        assert_eq!(s.quantile_upper_bound(1.0), Some((1 << 20) - 1));
        assert!(s.mean() > 10.0);
        assert_eq!(HistogramSnapshot::default().quantile_upper_bound(0.5), None);
    }

    #[test]
    fn upper_bounds_cover_the_domain() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(4), 15);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let _guard = crate::flag_guard();
        let h = LogHistogram::new();
        h.record(7);
        h.record(1 << 40);
        let s = h.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
