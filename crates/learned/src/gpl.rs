//! The Greedy Pessimistic Linear (GPL) segmentation algorithm
//! (Algorithm 1 of the paper).
//!
//! GPL scans a sorted key array once and cuts it into segments. Each
//! segment's model is a line through the segment's *first point*; while
//! scanning, the algorithm maintains the maximum (`upper_slope`) and
//! minimum (`lower_slope`) slopes of lines from the first point to every
//! point seen so far — a *cone* that only widens. With the final model
//! slope chosen as the middle of the cone, the prediction error of point
//! `j` at key-distance `dx_j` from the anchor is at most
//! `(upper - lower) / 2 * dx_j`, which is the half-diagonal of the paper's
//! parallelogram (Fig 4(c)). The segment is cut as soon as that bound would
//! exceed ε.
//!
//! The scheme is "pessimistic" because once any prediction error appears,
//! it can only grow with key distance, so the algorithm assumes a split is
//! imminent and checks every point — yielding exact O(n) behaviour with a
//! guaranteed per-point error bound.

use crate::linear::LinearModel;

/// A contiguous run of keys covered by one linear model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Index of the segment's first key in the input array.
    pub start: usize,
    /// Number of keys in the segment.
    pub len: usize,
    /// The trained model (anchored at the first key, middle-of-cone slope).
    pub model: LinearModel,
}

impl Segment {
    /// Maximum absolute prediction error of the segment's model over its
    /// own keys (positions relative to the segment start). Test/validation
    /// helper.
    pub fn max_error(&self, keys: &[u64]) -> f64 {
        let slice = &keys[self.start..self.start + self.len];
        self.model.max_error(slice)
    }
}

/// Streaming GPL segmenter: feed sorted keys one at a time with
/// [`GplSegmenter::push`]; completed segments are returned as soon as a cut
/// is decided, and [`GplSegmenter::finish`] flushes the trailing segment.
///
/// ```
/// use learned::gpl::GplSegmenter;
/// let keys: Vec<u64> = (1..=1000u64).map(|i| i * 3).collect();
/// let mut seg = GplSegmenter::new(8.0);
/// let mut out = Vec::new();
/// for (i, &k) in keys.iter().enumerate() {
///     if let Some(s) = seg.push(i, k) {
///         out.push(s);
///     }
/// }
/// out.extend(seg.finish());
/// // Perfectly linear data fits in a single segment.
/// assert_eq!(out.len(), 1);
/// ```
#[derive(Debug)]
pub struct GplSegmenter {
    epsilon: f64,
    /// Index (in the caller's array) where the current segment starts.
    seg_start: usize,
    first_key: u64,
    count: usize,
    upper_slope: f64,
    lower_slope: f64,
}

impl GplSegmenter {
    /// Create a segmenter with prediction error bound `epsilon` (must be
    /// non-negative; the paper suggests `n / 1000`).
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "error bound must be non-negative");
        Self {
            epsilon,
            seg_start: 0,
            first_key: 0,
            count: 0,
            upper_slope: 0.0,
            lower_slope: f64::INFINITY,
        }
    }

    /// Feed the key at absolute position `index` (must be fed in order,
    /// strictly increasing keys). Returns a completed segment when the new
    /// key does not fit the current cone.
    pub fn push(&mut self, index: usize, key: u64) -> Option<Segment> {
        if self.count == 0 {
            self.start_segment(index, key);
            return None;
        }
        debug_assert!(key > self.first_key, "keys must be strictly increasing");
        let dx = (key - self.first_key) as f64;
        let new_slope = self.count as f64 / dx;
        let upper = self.upper_slope.max(new_slope);
        let lower = self.lower_slope.min(new_slope);
        // Worst-case error of any point in the segment under the
        // middle-of-cone slope: half the cone spread times the largest
        // key distance (which is the current point's distance).
        let err = (upper - lower) * 0.5 * dx;
        if err > self.epsilon {
            let seg = self.seal();
            self.start_segment(index, key);
            return Some(seg);
        }
        self.upper_slope = upper;
        self.lower_slope = lower;
        self.count += 1;
        None
    }

    /// Flush the trailing segment, if any.
    pub fn finish(&mut self) -> Option<Segment> {
        if self.count == 0 {
            return None;
        }
        let seg = self.seal();
        self.count = 0;
        Some(seg)
    }

    fn start_segment(&mut self, index: usize, key: u64) {
        self.seg_start = index;
        self.first_key = key;
        self.count = 1;
        self.upper_slope = 0.0;
        self.lower_slope = f64::INFINITY;
    }

    fn seal(&self) -> Segment {
        let slope = if self.count == 1 {
            // Single-point segment (only possible as a trailing remnant or
            // right after a cut): degenerate zero slope.
            0.0
        } else {
            (self.upper_slope + self.lower_slope) * 0.5
        };
        Segment {
            start: self.seg_start,
            len: self.count,
            model: LinearModel::new(self.first_key, slope),
        }
    }
}

/// Segment a full sorted key array with error bound `epsilon`.
///
/// Guarantees: segments tile `[0, keys.len())` contiguously, and for every
/// segment, `segment.max_error(keys) <= epsilon` (property-tested).
pub fn gpl_segment(keys: &[u64], epsilon: f64) -> Vec<Segment> {
    let mut segmenter = GplSegmenter::new(epsilon);
    let mut out = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        if let Some(s) = segmenter.push(i, k) {
            out.push(s);
        }
    }
    out.extend(segmenter.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_tiling(segs: &[Segment], n: usize) {
        let mut next = 0;
        for s in segs {
            assert_eq!(s.start, next, "segments must tile contiguously");
            assert!(s.len > 0);
            next = s.start + s.len;
        }
        assert_eq!(next, n);
    }

    #[test]
    fn empty_input_yields_no_segments() {
        assert!(gpl_segment(&[], 4.0).is_empty());
    }

    #[test]
    fn single_key_yields_single_point_segment() {
        let segs = gpl_segment(&[77], 4.0);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 1);
        assert_eq!(segs[0].model.first_key, 77);
    }

    #[test]
    fn linear_data_yields_one_segment() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| 5 + i * 17).collect();
        let segs = gpl_segment(&keys, 2.0);
        assert_eq!(segs.len(), 1);
        check_tiling(&segs, keys.len());
        assert!(segs[0].max_error(&keys) <= 2.0);
    }

    #[test]
    fn error_bound_is_respected_on_quadratic_data() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * i + 1).collect();
        for eps in [1.0, 4.0, 16.0, 64.0] {
            let segs = gpl_segment(&keys, eps);
            check_tiling(&segs, keys.len());
            for s in &segs {
                assert!(
                    s.max_error(&keys) <= eps + 1e-9,
                    "eps={eps} err={}",
                    s.max_error(&keys)
                );
            }
        }
    }

    #[test]
    fn larger_epsilon_yields_fewer_segments() {
        let keys: Vec<u64> = (0..20_000u64).map(|i| i * i / 7 + i + 1).collect();
        let tight = gpl_segment(&keys, 2.0).len();
        let loose = gpl_segment(&keys, 128.0).len();
        assert!(
            loose < tight,
            "expected fewer segments with looser bound: {loose} !< {tight}"
        );
    }

    #[test]
    fn step_data_forces_splits() {
        // Two dense runs separated by a huge gap: a single line would have
        // a large error at the gap.
        let mut keys: Vec<u64> = (1..1000u64).collect();
        keys.extend((0..999u64).map(|i| 1_000_000_000 + i * 1_000_000));
        let segs = gpl_segment(&keys, 1.0);
        check_tiling(&segs, keys.len());
        assert!(segs.len() >= 2);
        for s in &segs {
            assert!(s.max_error(&keys) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn zero_epsilon_still_accepts_collinear_points() {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
        let segs = gpl_segment(&keys, 0.0);
        assert_eq!(segs.len(), 1, "collinear points have zero error");
    }

    #[test]
    fn streaming_matches_batch() {
        let keys: Vec<u64> = (0..3000u64).map(|i| i * 13 + (i % 7) + 1).collect();
        let batch = gpl_segment(&keys, 8.0);
        let mut seg = GplSegmenter::new(8.0);
        let mut streaming = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            if let Some(s) = seg.push(i, k) {
                streaming.push(s);
            }
        }
        streaming.extend(seg.finish());
        assert_eq!(batch, streaming);
    }
}
