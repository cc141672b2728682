//! Property-based tests for the GPL invariants the concurrent layers
//! lean on:
//!
//! 1. **error bound** — every key in a segment sits within ε of the
//!    position its linear model predicts, so bounded secondary search is
//!    complete;
//! 2. **placement accounting** — placing each key at its (gapped)
//!    predicted slot keeps every key exactly once: the placed keys plus
//!    the evicted conflicts reconstruct the input with no loss and no
//!    duplication, and every eviction is justified by a real collision;
//! 3. **monotonicity** — gapped placement never re-orders keys, which is
//!    what lets slot walks produce sorted scans.
//! 4. **streaming** — feeding a `(key, value)` array's keys to
//!    [`learned::GplSegmenter`] one at a time, the way ALT-index's bulk
//!    load and retrain segment, gives exactly [`learned::gpl_segment`]'s
//!    list over the key array.

use learned::{gpl_segment, GplSegmenter, LinearModel};
use proptest::collection::btree_set;
use proptest::prelude::*;

/// Strategy: sorted unique non-zero keys, with clustered and dispersed
/// regimes mixed so segments of many shapes appear.
fn sorted_keys(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        btree_set(1u64..u64::MAX, 1..max_len),
        btree_set(1u64..50_000, 1..max_len),
    ]
    .prop_map(|s| s.into_iter().collect())
}

/// Mirror of the index's gapped placement: scale the segment's slope by
/// `gap_factor`, size the slot array one past the last key's prediction,
/// and claim slots first-key-wins. Returns (slots, evicted).
fn place_gapped(
    keys: &[u64],
    model: &LinearModel,
    gap_factor: f64,
) -> (Vec<Option<u64>>, Vec<u64>) {
    let first = keys[0];
    let placement = LinearModel::new(first, model.slope * gap_factor);
    let capacity = ((placement.predict_f(keys[keys.len() - 1]) + 1.5) as usize).max(1);
    let mut slots: Vec<Option<u64>> = vec![None; capacity];
    let mut evicted = Vec::new();
    for &k in keys {
        let s = placement.predict_clamped(k, capacity);
        match slots[s] {
            None => slots[s] = Some(k),
            Some(_) => evicted.push(k),
        }
    }
    (slots, evicted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Invariant 1: every key of every segment is within the error bound
    /// of its predicted position, so an ε-window secondary search cannot
    /// miss (the §III-A contract the slot probe relies on).
    #[test]
    fn every_key_is_within_eps_of_prediction(
        keys in sorted_keys(400),
        eps in 0.5f64..64.0,
    ) {
        for seg in gpl_segment(&keys, eps) {
            let seg_keys = &keys[seg.start..seg.start + seg.len];
            for (local, &k) in seg_keys.iter().enumerate() {
                let pred = seg.model.predict_f(k);
                prop_assert!(
                    (pred - local as f64).abs() <= eps + 1e-6,
                    "key {k} rank {local} predicted {pred} beyond eps {eps}"
                );
            }
        }
    }

    /// Invariant 2: gapped placement is conservative. Placed + evicted is
    /// exactly the input (no key lost, none duplicated), every placed key
    /// occupies precisely its predicted slot, and every evicted key lost
    /// its slot to an earlier key — never to an empty slot.
    #[test]
    fn placement_accounts_for_every_key(
        keys in sorted_keys(400),
        eps in 0.5f64..64.0,
        gap_factor in 1.0f64..3.0,
    ) {
        for seg in gpl_segment(&keys, eps) {
            let seg_keys = &keys[seg.start..seg.start + seg.len];
            let (slots, evicted) = place_gapped(seg_keys, &seg.model, gap_factor);

            let mut reconstructed: Vec<u64> =
                slots.iter().flatten().copied().chain(evicted.iter().copied()).collect();
            reconstructed.sort_unstable();
            prop_assert_eq!(
                &reconstructed, &seg_keys.to_vec(),
                "placed + evicted must reconstruct the segment exactly"
            );

            let placement = LinearModel::new(seg_keys[0], seg.model.slope * gap_factor);
            for (s, slot) in slots.iter().enumerate() {
                if let Some(k) = slot {
                    prop_assert_eq!(
                        placement.predict_clamped(*k, slots.len()), s,
                        "placed key {} not at its predicted slot", k
                    );
                }
            }
            for &k in &evicted {
                let s = placement.predict_clamped(k, slots.len());
                let resident = slots[s];
                prop_assert!(
                    resident.is_some() && resident != Some(k),
                    "evicted key {k} predicts slot {s} which holds {resident:?}"
                );
            }
        }
    }

    /// Invariant 4: streaming `pairs`' keys through the segmenter equals
    /// segmenting the copied-out key array.
    #[test]
    fn pushing_pairs_one_at_a_time_equals_gpl_segment(
        keys in sorted_keys(2000),
        eps in 0.5f64..64.0,
    ) {
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, !k)).collect();
        let mut segmenter = GplSegmenter::new(eps);
        let mut streamed: Vec<_> = pairs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| segmenter.push(i, p.0))
            .collect();
        streamed.extend(segmenter.finish());
        prop_assert_eq!(streamed, gpl_segment(&keys, eps));
    }

    /// Invariant 3: placement preserves key order across slots, so a
    /// forward slot walk yields sorted keys (the scan-layer contract).
    #[test]
    fn placement_is_monotone(
        keys in sorted_keys(400),
        eps in 0.5f64..64.0,
        gap_factor in 1.0f64..3.0,
    ) {
        for seg in gpl_segment(&keys, eps) {
            let seg_keys = &keys[seg.start..seg.start + seg.len];
            let (slots, _) = place_gapped(seg_keys, &seg.model, gap_factor);
            let walked: Vec<u64> = slots.into_iter().flatten().collect();
            prop_assert!(
                walked.windows(2).all(|w| w[0] < w[1]),
                "slot walk out of order"
            );
        }
    }
}
