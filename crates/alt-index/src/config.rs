//! Tuning knobs for ALT-index construction and behaviour.

/// Configuration for [`crate::AltIndex`].
///
/// Defaults follow the paper's recommendations (§III-D: ε =
/// `bulkload_number / 1000`; dynamic retraining on).
#[derive(Debug, Clone)]
pub struct AltConfig {
    /// GPL error bound ε. `None` = the paper's suggested
    /// `bulkload_size / 1000` (clamped to [`AltConfig::MIN_EPSILON`]).
    /// Fixed at bulk load and also every retrain's ε: a retrain rebuilds
    /// its span exactly as bulk load would (DESIGN.md §14).
    pub epsilon: Option<f64>,
    /// Enable dynamic retraining (§III-F): the thread whose insert
    /// tripped a model's overflow trigger rebuilds it. Off = overflowed
    /// models keep spilling into ART (part of the hot-write comparison).
    pub retrain: bool,
    /// Worker threads for the two bulk-load stages that carry the build:
    /// model population (per-model ownership, no locking) and conflict
    /// insertion into ART. GPL segmentation is a few percent of it and
    /// runs as one serial pass (DESIGN.md §12), so every value produces an
    /// observably identical index (the build-equivalence suite's
    /// contract). Defaults to the host's available parallelism. Only
    /// affects construction — never steady-state operations or retrains.
    pub build_threads: usize,
}

impl AltConfig {
    /// Smallest ε the auto rule will pick.
    pub const MIN_EPSILON: f64 = 16.0;

    /// The ε used for a bulk load of `n` keys.
    pub fn effective_epsilon(&self, n: usize) -> f64 {
        match self.epsilon {
            Some(e) => e.max(0.0),
            None => (n as f64 / 1000.0).max(Self::MIN_EPSILON),
        }
    }
}

impl Default for AltConfig {
    fn default() -> Self {
        Self {
            epsilon: None,
            retrain: true,
            build_threads: default_build_threads(),
        }
    }
}

/// Default worker-thread count for bulk-load construction: everything
/// the host offers (the bench harness's `--build-threads` flag narrows
/// this per run).
pub fn default_build_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_epsilon_follows_paper_rule() {
        let c = AltConfig::default();
        assert_eq!(c.effective_epsilon(2_000_000), 2_000.0);
        assert_eq!(c.effective_epsilon(100), AltConfig::MIN_EPSILON, "clamped");
    }

    #[test]
    fn build_threads_defaults_to_available_parallelism() {
        let c = AltConfig::default();
        assert_eq!(c.build_threads, default_build_threads());
        assert!(c.build_threads >= 1);
    }

    #[test]
    fn explicit_epsilon_wins() {
        let c = AltConfig {
            epsilon: Some(64.0),
            ..Default::default()
        };
        assert_eq!(c.effective_epsilon(2_000_000), 64.0);
    }
}
