//! Fixed log₂-bucket latency histograms.
//!
//! A [`Histogram`] is an array of [`AtomicU64`] counters, one per
//! power-of-two nanosecond bucket, plus a running sum and maximum.
//! Recording is wait-free — one `fetch_add` on the bucket, one on the sum,
//! one `fetch_max` — and allocation-free, so it is safe on the engine's
//! hottest paths. Reading produces an owned [`HistogramSnapshot`] that can
//! be merged across shards and queried for count/mean/percentiles.
//!
//! Bucket `i` counts durations `d` with `2^i ≤ d < 2^(i+1)` nanoseconds
//! (bucket 0 also absorbs sub-2 ns values); the top bucket absorbs
//! everything from ~39 hours up. Percentile queries return the *upper
//! bound* of the bucket containing the requested rank, so reported
//! latencies are conservative (never under-reported).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::json::{field, Json};

/// Number of log₂ buckets. Bucket 47 starts at 2^47 ns ≈ 39 hours, far
/// beyond any latency this engine can produce.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// Map a nanosecond value onto its log₂ bucket index.
#[inline]
fn bucket_index(nanos: u64) -> usize {
    if nanos < 2 {
        0
    } else {
        ((63 - nanos.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// A wait-free, allocation-free latency histogram with fixed log₂ buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one duration. Three relaxed atomic RMWs; no locks, no
    /// allocation.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos() as u64);
    }

    /// Record one duration given in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// An owned, mergeable copy of the current counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], mergeable across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values, in nanoseconds.
    pub sum_nanos: u64,
    /// Largest recorded value, in nanoseconds.
    pub max_nanos: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum_nanos: 0,
            max_nanos: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot (e.g. a different shard's) into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.sum_nanos += other.sum_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Arithmetic mean in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.sum_nanos.checked_div(self.count()).unwrap_or(0)
    }

    /// Upper bound (ns) of the bucket containing the `p`-quantile
    /// (`0.0 < p <= 1.0`). Conservative: the true value is ≤ the result.
    /// Returns 0 for an empty histogram.
    pub fn percentile_nanos(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max_nanos.max(1));
            }
        }
        self.max_nanos
    }

    /// The summary every JSON artifact prints for a histogram: count,
    /// mean, p50/p90/p99 and max, in nanoseconds.
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            field("count", Json::Num(self.count())),
            field("mean_ns", Json::Num(self.mean_nanos())),
            field("p50_ns", Json::Num(self.percentile_nanos(0.50))),
            field("p90_ns", Json::Num(self.percentile_nanos(0.90))),
            field("p99_ns", Json::Num(self.percentile_nanos(0.99))),
            field("max_ns", Json::Num(self.max_nanos)),
        ])
    }
}

/// Exclusive upper bound of bucket `i`, saturating at the top bucket.
fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::default();
        h.record_nanos(100); // bucket 6
        h.record_nanos(100);
        h.record_nanos(5000); // bucket 12
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.buckets[6], 2);
        assert_eq!(s.buckets[12], 1);
        assert_eq!(s.sum_nanos, 5200);
        assert_eq!(s.max_nanos, 5000);
        assert_eq!(s.mean_nanos(), 5200 / 3);
    }

    #[test]
    fn percentiles_are_conservative_upper_bounds() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record_nanos(100); // bucket 6, upper bound 128
        }
        h.record_nanos(1_000_000); // bucket 19, upper bound 2^20
        let s = h.snapshot();
        assert_eq!(s.percentile_nanos(0.50), 128);
        assert_eq!(s.percentile_nanos(0.99), 128);
        assert_eq!(s.percentile_nanos(1.0), 1_000_000); // clamped to max
        assert!(s.percentile_nanos(0.999) >= 1_000_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_nanos(), 0);
        assert_eq!(s.percentile_nanos(0.99), 0);
    }

    #[test]
    fn merge_folds_shards() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record_nanos(10);
        b.record_nanos(10_000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum_nanos, 10_010);
        assert_eq!(s.max_nanos, 10_000);
    }
}
