//! The linear CDF model shared by every segmentation algorithm.

/// A linear model `pos(key) = slope * (key - first_key)`, anchored at the
/// first key of its segment (the GPL algorithm assumes every model passes
/// through the first point of its segment — §III-B of the paper).
///
/// Positions are fractional during training and rounded at placement time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// First key of the segment (the anchor the line passes through).
    pub first_key: u64,
    /// Positions per key unit.
    pub slope: f64,
}

impl LinearModel {
    /// Create a model anchored at `first_key` with the given slope.
    pub fn new(first_key: u64, slope: f64) -> Self {
        Self { first_key, slope }
    }

    /// A degenerate model for a single-key segment.
    pub fn point(first_key: u64) -> Self {
        Self {
            first_key,
            slope: 0.0,
        }
    }

    /// Predict the (fractional) position of `key`. Keys below the anchor
    /// predict to 0.
    #[inline]
    pub fn predict_f(&self, key: u64) -> f64 {
        if key <= self.first_key {
            return 0.0;
        }
        self.slope * (key - self.first_key) as f64
    }

    /// Predict a slot index, clamped to `[0, capacity)`.
    #[inline]
    pub fn predict_clamped(&self, key: u64, capacity: usize) -> usize {
        debug_assert!(capacity > 0);
        // Round to nearest: keys were *placed* by the same rounding, so
        // prediction and placement agree exactly.
        let p = (self.predict_f(key) + 0.5) as usize;
        p.min(capacity - 1)
    }

    /// Fit a least-squares line through `(key, position)` pairs, then
    /// re-anchor it at the first key. Used by the baselines (ALEX-style
    /// nodes); the GPL algorithm never needs this.
    ///
    /// Returns `None` for empty input. A single point yields a zero-slope
    /// model.
    pub fn fit(keys: &[u64]) -> Option<Self> {
        let n = keys.len();
        if n == 0 {
            return None;
        }
        let first = keys[0];
        if n == 1 {
            return Some(Self::point(first));
        }
        // Work in offsets from the first key to keep f64 precision.
        let mut sx = 0.0f64;
        let mut sy = 0.0f64;
        let mut sxx = 0.0f64;
        let mut sxy = 0.0f64;
        for (i, &k) in keys.iter().enumerate() {
            let x = (k - first) as f64;
            let y = i as f64;
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let nf = n as f64;
        let denom = nf * sxx - sx * sx;
        let slope = if denom.abs() < f64::EPSILON {
            // All keys equal (should not happen for unique keys) — fall
            // back to a dense slope of zero.
            0.0
        } else {
            (nf * sxy - sx * sy) / denom
        };
        Some(Self {
            first_key: first,
            slope: slope.max(0.0),
        })
    }

    /// Fit a line through the two endpoints of a sorted key slice: position
    /// 0 at `keys[0]` and position `n-1` at `keys[n-1]`. Cheaper than
    /// least squares and monotone by construction.
    pub fn fit_endpoints(keys: &[u64]) -> Option<Self> {
        let n = keys.len();
        if n == 0 {
            return None;
        }
        let first = keys[0];
        let last = keys[n - 1];
        if n == 1 || last == first {
            return Some(Self::point(first));
        }
        let slope = (n - 1) as f64 / (last - first) as f64;
        Some(Self {
            first_key: first,
            slope,
        })
    }

    /// Maximum absolute prediction error (in positions) of this model over
    /// a sorted key slice, where the true position of `keys[i]` is `i`.
    pub fn max_error(&self, keys: &[u64]) -> f64 {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (self.predict_f(k) - i as f64).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_is_anchored_at_first_key() {
        let m = LinearModel::new(100, 0.5);
        assert_eq!(m.predict_f(100), 0.0);
        assert_eq!(m.predict_f(104), 2.0);
        assert_eq!(m.predict_f(50), 0.0, "keys below anchor clamp to 0");
    }

    #[test]
    fn predict_clamped_respects_capacity() {
        let m = LinearModel::new(0, 1.0);
        assert_eq!(m.predict_clamped(1_000, 10), 9);
        assert_eq!(m.predict_clamped(3, 10), 3);
    }

    #[test]
    fn fit_recovers_exact_line() {
        // keys 10, 20, 30, ... -> positions 0,1,2,...: slope 0.1.
        let keys: Vec<u64> = (1..=50).map(|i| i * 10).collect();
        let m = LinearModel::fit(&keys).unwrap();
        assert!((m.slope - 0.1).abs() < 1e-9, "slope {}", m.slope);
        assert!(m.max_error(&keys) < 1e-6);
    }

    #[test]
    fn fit_endpoints_recovers_exact_line() {
        let keys: Vec<u64> = (0..100).map(|i| 7 + i * 3).collect();
        let m = LinearModel::fit_endpoints(&keys).unwrap();
        assert!(m.max_error(&keys) < 1e-6);
    }

    #[test]
    fn fit_handles_degenerate_inputs() {
        assert!(LinearModel::fit(&[]).is_none());
        let single = LinearModel::fit(&[42]).unwrap();
        assert_eq!(single.predict_f(42), 0.0);
        assert_eq!(single.slope, 0.0);
    }

    #[test]
    fn fit_never_produces_negative_slope() {
        // Least squares on sorted data cannot be negative, but clamping
        // guards degenerate float cases.
        let keys = [1u64, 2, 3];
        let m = LinearModel::fit(&keys).unwrap();
        assert!(m.slope >= 0.0);
    }

    #[test]
    fn max_error_on_nonlinear_data_is_positive() {
        // Quadratic-ish key gaps.
        let keys: Vec<u64> = (0..100u64).map(|i| i * i + 1).collect();
        let m = LinearModel::fit_endpoints(&keys).unwrap();
        assert!(m.max_error(&keys) > 1.0);
    }
}
