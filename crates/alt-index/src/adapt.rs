//! Adaptive retrain planning: pick the rebuild's ε and gap-expansion
//! factor from the distribution *observed at collect time* instead of
//! replaying the bulk-load knobs (the DILI argument: layout decisions
//! should follow the data actually seen, not fixed configuration).

/// The knobs one retrain will rebuild with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RetrainPlan {
    /// GPL error bound for the re-segmentation.
    pub epsilon: f64,
    /// Gap-expansion exponent passed to the model builder (capacity
    /// factor = `gap_factor * 2^expansions`).
    pub expansions: u32,
}

/// Plan a retrain over `merged` (the span's key-sorted live data),
/// where `overflow_len` of those keys currently live in ART.
///
/// * **Expansions** grow with the observed overflow share rather than
///   doubling unconditionally: a span whose data mostly sits in ART
///   (dense hot-write burst) gets two extra doublings of slack, a
///   moderately overflowed span one, and a churn-in-place span (e.g. a
///   rolling window, where removes keep freeing slots) none — so
///   steady-state churn no longer inflates capacity without bound.
/// * **ε** comes from the span's rank-error distribution under a single
///   endpoint fit: the p90 absolute error with 25% headroom, clamped to
///   `[8, 4 × base]`. Near-linear spans (time-series appends) tighten ε
///   and rebuild into near-conflict-free models; adversarial spans keep
///   a coarse ε instead of shattering into hundreds of tiny models.
pub(crate) fn plan_retrain(
    merged: &[(u64, u64)],
    overflow_len: usize,
    base_epsilon: f64,
    prev_expansions: u32,
) -> RetrainPlan {
    let ratio = overflow_len as f64 / merged.len().max(1) as f64;
    let expansions = if ratio > 0.5 {
        prev_expansions.saturating_add(2)
    } else if ratio > 0.05 {
        prev_expansions.saturating_add(1)
    } else {
        prev_expansions
    };
    RetrainPlan {
        epsilon: observed_epsilon(merged, base_epsilon),
        expansions,
    }
}

/// ε from the observed error distribution: fit one line through the
/// span's endpoints, sample (at most ~4k) keys' |predicted rank −
/// actual rank|, and return the p90 with headroom, clamped to
/// `[8, 4 × base]`.
fn observed_epsilon(merged: &[(u64, u64)], base: f64) -> f64 {
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
        let p = plan_retrain(&linear_span(10_000), 0, 512.0, 0);
        assert!(
            p.epsilon < 64.0,
            "perfect fit should shrink ε, got {}",
            p.epsilon
        );
        assert!(p.epsilon >= 8.0, "ε floor");
    }

    #[test]
    fn hard_span_keeps_coarse_epsilon_but_is_clamped() {
        // Quadratic gaps: the endpoint fit is terrible at the low end.
        let span: Vec<(u64, u64)> = (1..=10_000u64).map(|i| (i * i, i)).collect();
        let p = plan_retrain(&span, 0, 64.0, 0);
        assert!(
            p.epsilon > 64.0,
            "hard data should coarsen ε, got {}",
            p.epsilon
        );
        assert!(p.epsilon <= 64.0 * 4.0, "ε ceiling, got {}", p.epsilon);
    }

    #[test]
    fn expansions_follow_overflow_share() {
        let span = linear_span(1000);
        assert_eq!(plan_retrain(&span, 900, 64.0, 1).expansions, 3);
        assert_eq!(plan_retrain(&span, 200, 64.0, 1).expansions, 2);
        assert_eq!(
            plan_retrain(&span, 10, 64.0, 1).expansions,
            1,
            "in-place churn must not inflate capacity"
        );
    }

    #[test]
    fn tiny_spans_fall_back_to_base_epsilon() {
        let p = plan_retrain(&linear_span(8), 0, 256.0, 0);
        assert_eq!(p.epsilon, 256.0);
    }
}
