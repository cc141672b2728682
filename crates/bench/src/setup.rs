//! Experiment setup: dataset generation and the bulk-load / reserve split
//! (§IV-A2: "we bulkload 50% of the datasets to initialize the indexes").

use datasets::{generate_pairs, Dataset};
use workloads::{Mix, WorkloadPlan};

/// A prepared experiment input: the bulk-load half and the insert
/// reserve.
pub struct Setup {
    /// The dataset.
    pub dataset: Dataset,
    /// Sorted unique pairs to bulk-load.
    pub bulk: Vec<(u64, u64)>,
    /// Keys reserved for runtime insertion.
    pub reserve: Vec<u64>,
}

impl Setup {
    /// Generate `keys` pairs and split them `bulk_ratio : rest` by
    /// interleaving (every k-th key reserved), which keeps the reserved
    /// keys uniformly distributed over the key space as the paper's
    /// insert workload requires.
    pub fn new(dataset: Dataset, keys: usize, bulk_ratio: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&bulk_ratio));
        let pairs = Self::pairs(dataset, keys, seed);
        let mut bulk = Vec::with_capacity((keys as f64 * bulk_ratio) as usize + 1);
        let mut reserve = Vec::with_capacity(keys.saturating_sub(bulk.capacity()));
        // Interleaved split: take ratio-fraction into bulk round-robin.
        let mut acc = 0.0f64;
        for &(k, v) in &pairs {
            acc += bulk_ratio;
            if acc >= 1.0 {
                acc -= 1.0;
                bulk.push((k, v));
            } else {
                reserve.push(k);
            }
        }
        Self {
            dataset,
            bulk,
            reserve,
        }
    }

    /// The standard 50% bulk-load split.
    pub fn half(dataset: Dataset, keys: usize, seed: u64) -> Self {
        Self::new(dataset, keys, 0.5, seed)
    }

    /// Source pairs for a dataset: a real SOSD file under
    /// `$ALT_SOSD_DIR` when present (see [`datasets::sosd`]), otherwise
    /// the synthetic generator.
    fn pairs(dataset: Dataset, keys: usize, seed: u64) -> Vec<(u64, u64)> {
        match datasets::maybe_load(dataset, keys) {
            Some(pairs) => pairs,
            None => generate_pairs(dataset, keys, seed),
        }
    }

    /// The loaded key array (for read workloads).
    pub fn loaded_keys(&self) -> Vec<u64> {
        self.bulk.iter().map(|p| p.0).collect()
    }

    /// Build a workload plan over this setup.
    pub fn plan(&self, mix: Mix, theta: f64, seed: u64) -> WorkloadPlan {
        WorkloadPlan::new(self.loaded_keys(), self.reserve.clone(), mix, theta, seed)
    }

    /// A hot-write setup (Fig 8(b)): reserve a *consecutive* run of keys
    /// (10% of the dataset, taken from the middle) instead of a uniform
    /// sample, so insertions hammer one region and trigger retraining.
    pub fn hot_write(dataset: Dataset, keys: usize, seed: u64) -> Self {
        let pairs = Self::pairs(dataset, keys, seed);
        let start = pairs.len() / 2;
        let hot = pairs.len() / 10;
        let reserve: Vec<u64> = pairs[start..start + hot].iter().map(|p| p.0).collect();
        let bulk: Vec<(u64, u64)> = pairs[..start]
            .iter()
            .chain(&pairs[start + hot..])
            .copied()
            .collect();
        Self {
            dataset,
            bulk,
            reserve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_split_is_half_and_disjoint() {
        let s = Setup::half(Dataset::Osm, 100_000, 1);
        assert!((s.bulk.len() as i64 - 50_000).abs() <= 1);
        assert_eq!(s.bulk.len() + s.reserve.len(), 100_000);
        let loaded: std::collections::HashSet<u64> = s.loaded_keys().into_iter().collect();
        assert!(s.reserve.iter().all(|k| !loaded.contains(k)));
    }

    /// The two ends of the ratio range (fig3a/fig4/fig8d load 100%); the
    /// capacity hints must not underflow in a debug build.
    #[test]
    fn ratio_one_loads_everything_and_ratio_zero_reserves_everything() {
        let all = Setup::new(Dataset::Osm, 10_000, 1.0, 1);
        assert_eq!((all.bulk.len(), all.reserve.len()), (10_000, 0));
        let none = Setup::new(Dataset::Osm, 10_000, 0.0, 1);
        assert_eq!((none.bulk.len(), none.reserve.len()), (0, 10_000));
    }

    #[test]
    fn reserve_is_spread_over_the_space() {
        let s = Setup::half(Dataset::Libio, 100_000, 1);
        // Interleaving ⇒ reserved keys interleave with loaded keys: the
        // median reserved key sits near the median loaded key.
        let mid_res = s.reserve[s.reserve.len() / 2];
        let loaded = s.loaded_keys();
        let mid_load = loaded[loaded.len() / 2];
        let span = loaded[loaded.len() - 1] - loaded[0];
        assert!((mid_res as i128 - mid_load as i128).unsigned_abs() < span as u128 / 10);
    }

    #[test]
    fn hot_write_reserve_is_consecutive() {
        let s = Setup::hot_write(Dataset::Libio, 100_000, 1);
        assert_eq!(s.reserve.len(), 10_000);
        for w in s.reserve.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Hot region is dense relative to the whole space.
        let span = s.reserve[s.reserve.len() - 1] - s.reserve[0];
        let bulk_span = s.bulk[s.bulk.len() - 1].0 - s.bulk[0].0;
        assert!(span < bulk_span / 5);
    }
}
