//! Point-in-time readings of every counter and phase histogram.
//!
//! Snapshots are *per-counter monotone*: each value is a relaxed sum of
//! that counter's shards, so two snapshots taken in order never show a
//! counter going backwards, but counters are not mutually consistent
//! (an in-flight operation may appear in one counter and not another).
//! That is the right trade for telemetry — `delta` between a snapshot
//! taken before and after a measured region attributes events to it.

use super::{phase_counts, total, Counter, Phase};
use crate::histogram::LatencyHistogram;
use std::fmt::Write as _;

const NUM_COUNTERS: usize = Counter::ALL.len();

/// A point-in-time reading of all counters and phase histograms.
#[derive(Clone)]
pub struct MetricsSnapshot {
    counts: [u64; NUM_COUNTERS],
    phases: Vec<Vec<u64>>, // Phase::ALL.len() × LatencyHistogram::NUM_BUCKETS
}

/// Capture the current value of every counter and phase histogram.
pub fn snapshot() -> MetricsSnapshot {
    let mut counts = [0u64; NUM_COUNTERS];
    for (i, c) in Counter::ALL.iter().enumerate() {
        counts[i] = total(*c);
    }
    let phases = Phase::ALL.iter().map(|p| phase_counts(*p)).collect();
    MetricsSnapshot { counts, phases }
}

impl MetricsSnapshot {
    /// The value of one counter in this snapshot.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    /// Events between `earlier` and `self`, element-wise. Saturating, so
    /// passing snapshots out of order yields zeros rather than wrapping.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counts = [0u64; NUM_COUNTERS];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        let phases = self
            .phases
            .iter()
            .zip(&earlier.phases)
            .map(|(now, then)| {
                now.iter()
                    .zip(then)
                    .map(|(a, b)| a.saturating_sub(*b))
                    .collect()
            })
            .collect();
        MetricsSnapshot { counts, phases }
    }

    /// All counters with their values, in rendering order.
    pub fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|c| (*c, self.get(*c)))
    }

    /// Sum of all counter values — a quick "did anything record" check.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The duration histogram of one phase, rebuilt into a
    /// [`LatencyHistogram`] so its quantile machinery applies.
    pub fn phase_histogram(&self, phase: Phase) -> LatencyHistogram {
        LatencyHistogram::from_bucket_counts(&self.phases[phase as usize])
    }

    /// Human-readable dump: one aligned line per counter, then one per
    /// phase with count/mean/p50/p99/max in nanoseconds.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = Counter::ALL
            .iter()
            .map(|c| c.name().len())
            .chain(Phase::ALL.iter().map(|p| p.name().len()))
            .max()
            .unwrap_or(0);
        out.push_str("counters:\n");
        for (c, v) in self.counters() {
            let _ = writeln!(out, "  {:<width$}  {v}", c.name());
        }
        out.push_str("phases:\n");
        for p in Phase::ALL {
            let h = self.phase_histogram(p);
            let _ = writeln!(
                out,
                "  {:<width$}  count={} mean={} p50={} p99={} max={}",
                p.name(),
                h.count(),
                h.mean() as u64,
                h.quantile(0.5),
                h.quantile(0.99),
                h.max(),
            );
        }
        if self.total_events() == 0 {
            out.push_str(
                "  (all zero — either nothing ran, or this build is without \
                 the `metrics` feature)\n",
            );
        }
        out
    }
}

impl std::fmt::Debug for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "metrics")]
    #[test]
    fn delta_attributes_events_to_the_region() {
        use crate::metrics::{incr, record_phase_ns};
        let before = snapshot();
        incr(Counter::ScanEpochRetry);
        incr(Counter::ScanEpochRetry);
        record_phase_ns(Phase::RetrainBuild, 12_345);
        let after = snapshot();
        let d = after.delta(&before);
        assert_eq!(d.get(Counter::ScanEpochRetry), 2);
        assert_eq!(d.phase_histogram(Phase::RetrainBuild).count(), 1);
        // Out-of-order delta saturates to zero instead of wrapping.
        let rev = before.delta(&after);
        assert_eq!(rev.get(Counter::ScanEpochRetry), 0);
    }

    #[test]
    fn render_lists_every_counter_and_phase() {
        let s = snapshot();
        let text = s.render();
        for c in Counter::ALL {
            assert!(text.contains(c.name()), "missing {}", c.name());
        }
        for p in Phase::ALL {
            assert!(text.contains(p.name()), "missing {}", p.name());
        }
    }
}
