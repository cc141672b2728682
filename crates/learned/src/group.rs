//! Grouped (vectorized) linear-model prediction for the AMAC batch path.
//!
//! `alt_index::batch` admits up to a ring's worth of keys at once; each
//! admission needs one [`LinearModel::predict_f`]. Doing those multiplies
//! one at a time wastes the vector unit, so [`predict_f_group`] gathers
//! the group's slopes and key deltas into contiguous lanes and multiplies
//! them in one plain loop, which the compiler packs (`mulpd` on x86_64,
//! `fmul.2d` on aarch64) — no intrinsic, no `unsafe`.
//!
//! **Bit-identical by construction:** every lane performs exactly the
//! scalar computation — the same `(key - first_key) as f64` conversion
//! and the same single IEEE-754 multiplication, which packed and scalar
//! hardware round identically. Below-anchor keys zero *both* operands,
//! so the product is `+0.0` exactly like `predict_f`'s early return
//! (this also holds for hand-built models with negative slopes, where
//! zeroing only the delta could produce `-0.0`). The proptests in
//! `tests/group_props.rs` pin bit equality over arbitrary models.

use crate::linear::LinearModel;

/// `out[i] = models[i].predict_f(keys[i])`, bit-identically, with the
/// multiplies in one loop the vector unit can take.
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn predict_f_group(models: &[LinearModel], keys: &[u64], out: &mut [f64]) {
    assert!(models.len() == keys.len() && keys.len() == out.len());
    // One ring's worth of lanes per block keeps the gather buffers on
    // the stack; callers pass 8 (RING_WIDTH) in practice.
    const W: usize = 16;
    let mut slopes = [0.0f64; W];
    let mut deltas = [0.0f64; W];
    let mut start = 0;
    while start < keys.len() {
        let n = (keys.len() - start).min(W);
        for i in 0..n {
            let m = &models[start + i];
            let k = keys[start + i];
            if k <= m.first_key {
                // Zero both lanes: +0.0 * +0.0 == +0.0, matching the
                // scalar early return even for negative slopes.
                slopes[i] = 0.0;
                deltas[i] = 0.0;
            } else {
                slopes[i] = m.slope;
                deltas[i] = (k - m.first_key) as f64;
            }
        }
        for ((o, s), d) in out[start..start + n].iter_mut().zip(&slopes).zip(&deltas) {
            *o = s * d;
        }
        start += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_matches_scalar_bitwise() {
        let models: Vec<LinearModel> = (0..37u64)
            .map(|i| LinearModel::new(i * 1000, (i as f64) * 0.173 + 0.01))
            .collect();
        let keys: Vec<u64> = (0..37u64).map(|i| i * 999 + (i % 5) * 700).collect();
        let mut out = vec![0.0; 37];
        predict_f_group(&models, &keys, &mut out);
        for i in 0..37 {
            assert_eq!(
                out[i].to_bits(),
                models[i].predict_f(keys[i]).to_bits(),
                "lane {i}"
            );
        }
    }

    #[test]
    fn below_anchor_is_positive_zero_even_with_negative_slope() {
        let m = LinearModel::new(100, -3.5);
        let mut out = [f64::NAN];
        predict_f_group(&[m], &[50], &mut out);
        assert_eq!(out[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(out[0].to_bits(), m.predict_f(50).to_bits());
    }

    #[test]
    fn empty_group_is_fine() {
        predict_f_group(&[], &[], &mut []);
    }
}
