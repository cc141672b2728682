//! A log-bucketed latency histogram (HDR-style): constant memory, O(1)
//! recording, bounded relative quantile error — the standard way to
//! track tail latency without keeping every sample. Quantiles report
//! the bucket lower edge of the exact sorted-sample quantile: at most
//! one sub-bucket width (1/32 ≈ 3.1%) below the true value, never
//! above it (proven by `crates/workloads/tests/histogram_props.rs`; the
//! type is re-exported as `workloads::LatencyHistogram`, and lives here
//! because [`crate::metrics`]' phase timers share its bucket layout and
//! this crate sits below `workloads` in the dependency graph).
//!
//! Buckets: 64 magnitude tiers (one per leading-bit position) × 32
//! linear sub-buckets each, covering the full `u64` nanosecond range.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32 sub-buckets per tier
const TIERS: usize = 64;

/// A fixed-size latency histogram over `u64` values (nanoseconds by
/// convention).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    sum: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Total number of buckets. External recorders (e.g.
    /// [`crate::metrics`]' atomic phase histograms) size their count
    /// arrays with this and share the exact same bucket layout via
    /// [`LatencyHistogram::bucket_index`].
    pub const NUM_BUCKETS: usize = TIERS * SUB;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; TIERS * SUB],
            total: 0,
            max: 0,
            sum: 0,
        }
    }

    /// The bucket a value falls into (always `< NUM_BUCKETS`) — the
    /// public face of the internal bucketing, for recorders that keep
    /// their own (e.g. atomic) count arrays.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        Self::bucket(value).min(Self::NUM_BUCKETS - 1)
    }

    /// Lower edge of bucket `idx`, the value quantiles report for
    /// samples in that bucket.
    #[inline]
    pub fn bucket_lower(idx: usize) -> u64 {
        Self::bucket_floor(idx.min(Self::NUM_BUCKETS - 1))
    }

    /// Rebuild a histogram from per-bucket counts laid out by
    /// [`LatencyHistogram::bucket_index`]. Counts and quantiles are
    /// exact at bucket granularity; `mean`/`max` are approximated from
    /// bucket lower edges (the raw samples are gone).
    pub fn from_bucket_counts(counts: &[u64]) -> Self {
        assert!(counts.len() <= Self::NUM_BUCKETS, "too many buckets");
        let mut h = Self::new();
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let floor = Self::bucket_floor(i);
            h.counts[i] = c;
            h.total += c;
            h.sum += u128::from(floor) * u128::from(c);
            h.max = h.max.max(floor);
        }
        h
    }

    #[inline]
    fn bucket(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize; // exact for tiny values
        }
        let tier = 63 - value.leading_zeros();
        let sub = (value >> (tier - SUB_BITS)) as usize & (SUB - 1);
        ((tier - SUB_BITS + 1) as usize) * SUB + sub
    }

    /// Lower edge of a bucket (used to report quantiles).
    fn bucket_floor(idx: usize) -> u64 {
        let tier = idx / SUB;
        let sub = (idx % SUB) as u64;
        if tier == 0 {
            return sub;
        }
        let shift = tier as u32 - 1;
        ((SUB as u64) << shift) | (sub << shift)
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket(value).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile `q` in [0, 1] (bucket lower edge; ~2%
    /// relative error; the exact max for q >= 1).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_floor(i);
            }
        }
        self.max
    }

    /// Merge another histogram into this one (per-thread collection).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("mean_ns", &(self.mean() as u64))
            .field("p50_ns", &self.quantile(0.5))
            .field("p99_ns", &self.quantile(0.99))
            .field("p999_ns", &self.quantile(0.999))
            .field("max_ns", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 5, 100, 1000, 1000, 50_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 50_000);
        assert!((h.mean() - (1.0 + 5.0 + 100.0 + 2000.0 + 50_000.0) / 6.0).abs() < 1.0);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = LatencyHistogram::new();
        // 1..=100_000 uniformly: p50 ~ 50_000, p99 ~ 99_000.
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.05, "p99 {p99}");
        assert_eq!(h.quantile(1.0), 100_000);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0 / 32.0), 0);
        // Every small value occupies its own bucket.
        assert_eq!(LatencyHistogram::bucket(7), 7);
        assert_ne!(LatencyHistogram::bucket(30), LatencyHistogram::bucket(31));
    }

    #[test]
    fn bucket_floor_is_consistent_with_bucket() {
        for v in [1u64, 31, 32, 33, 100, 1023, 1024, 123_456, u64::MAX / 2] {
            let b = LatencyHistogram::bucket(v);
            let floor = LatencyHistogram::bucket_floor(b);
            assert!(floor <= v, "floor {floor} > value {v}");
            // The next bucket's floor exceeds the value.
            let next_floor = LatencyHistogram::bucket_floor(b + 1);
            assert!(next_floor > v, "next floor {next_floor} <= value {v}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for v in 1..5_000u64 {
            if v % 2 == 0 {
                a.record(v * 3);
            } else {
                b.record(v * 3);
            }
            c.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), c.quantile(q), "q={q}");
        }
    }

    #[test]
    fn from_bucket_counts_reproduces_quantiles() {
        let mut h = LatencyHistogram::new();
        let mut counts = vec![0u64; LatencyHistogram::NUM_BUCKETS];
        for v in (1..10_000u64).map(|i| i * 37) {
            h.record(v);
            counts[LatencyHistogram::bucket_index(v)] += 1;
        }
        let rebuilt = LatencyHistogram::from_bucket_counts(&counts);
        assert_eq!(rebuilt.count(), h.count());
        for q in [0.0, 0.5, 0.99, 0.999] {
            assert_eq!(rebuilt.quantile(q), h.quantile(q), "q={q}");
        }
        // The exact max is lost; the bucketed max is its bucket's floor.
        assert_eq!(
            rebuilt.max(),
            LatencyHistogram::bucket_lower(LatencyHistogram::bucket_index(h.max()))
        );
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
