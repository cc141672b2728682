//! The ε a retrain re-segments with, taken from the distribution
//! *observed at collect time* instead of replaying the bulk-load knob
//! (the DILI argument: layout decisions should follow the data actually
//! seen, not fixed configuration). Capacity is not planned here: a
//! retrain's models are sized as bulk load sizes them, their slopes
//! chosen under the span's own slot budget (`model::placement`).

/// ε for re-segmenting `merged` (a span's key-sorted live data): fit one
/// line through the span's endpoints, sample (at most ~4k) keys'
/// |predicted rank − actual rank|, and return the p90 with 25% headroom,
/// clamped to `[8, 4 × base]`. Near-linear spans (time-series appends)
/// tighten ε and rebuild into near-conflict-free models; adversarial
/// spans keep a coarse ε instead of shattering into hundreds of tiny
/// models.
pub(crate) fn observed_epsilon(merged: &[(u64, u64)], base: f64) -> f64 {
    const MAX_SAMPLES: usize = 4096;
    let n = merged.len();
    if n < 16 {
        return base;
    }
    let first = merged[0].0 as f64;
    let last = merged[n - 1].0 as f64;
    if last <= first {
        return base;
    }
    let slope = (n - 1) as f64 / (last - first);
    let step = n.div_ceil(MAX_SAMPLES).max(1);
    let mut errs: Vec<f64> = (0..n)
        .step_by(step)
        .map(|i| (i as f64 - (merged[i].0 as f64 - first) * slope).abs())
        .collect();
    errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p90 = errs[(errs.len() * 9 / 10).min(errs.len() - 1)];
    (p90 * 1.25).clamp(8.0, (base * 4.0).max(8.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_span(n: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|i| (i * 7, i)).collect()
    }

    #[test]
    fn near_linear_span_tightens_epsilon() {
        let eps = observed_epsilon(&linear_span(10_000), 512.0);
        assert!(eps < 64.0, "perfect fit should shrink ε, got {eps}");
        assert!(eps >= 8.0, "ε floor");
    }

    #[test]
    fn hard_span_keeps_coarse_epsilon_but_is_clamped() {
        // Quadratic gaps: the endpoint fit is terrible at the low end.
        let span: Vec<(u64, u64)> = (1..=10_000u64).map(|i| (i * i, i)).collect();
        let eps = observed_epsilon(&span, 64.0);
        assert!(eps > 64.0, "hard data should coarsen ε, got {eps}");
        assert!(eps <= 64.0 * 4.0, "ε ceiling, got {eps}");
    }

    #[test]
    fn tiny_spans_fall_back_to_base_epsilon() {
        assert_eq!(observed_epsilon(&linear_span(8), 256.0), 256.0);
    }
}
