//! Property-based tests (proptest) on the core invariants:
//! segmentation error bounds, index-vs-BTreeMap equivalence, range
//! correctness, and sampler bounds.

use alt_index::{AltConfig, AltIndex};
use art::Art;
use learned::{gpl_segment, lpa_segment, shrinking_cone_segment};
use proptest::collection::{btree_set, vec as pvec};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy: sorted unique non-zero keys.
fn sorted_keys(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    btree_set(1u64..u64::MAX, 0..max_len).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every segmentation algorithm tiles the input and respects ε.
    #[test]
    fn segmentation_bounds_hold(keys in sorted_keys(400), eps in 0.5f64..64.0) {
        for (name, segs) in [
            ("gpl", gpl_segment(&keys, eps)),
            ("sc", shrinking_cone_segment(&keys, eps)),
            ("lpa", lpa_segment(&keys, eps, 8)),
        ] {
            let mut next = 0usize;
            for s in &segs {
                prop_assert_eq!(s.start, next, "{} tiling", name);
                prop_assert!(s.len > 0);
                next = s.start + s.len;
                prop_assert!(
                    s.max_error(&keys) <= eps + 1e-6,
                    "{} err {} > eps {}", name, s.max_error(&keys), eps
                );
            }
            prop_assert_eq!(next, keys.len(), "{} covers input", name);
        }
    }

    /// ALT-index behaves exactly like a BTreeMap under arbitrary op
    /// sequences, across gap budgets and tiny error bounds.
    #[test]
    fn alt_index_equals_btreemap(
        bulk in sorted_keys(200),
        ops in pvec((0u8..5, 1u64..5_000), 0..300),
        eps in 1.0f64..200.0,
    ) {
        let pairs: Vec<(u64, u64)> = bulk.iter().map(|&k| (k, k ^ 3)).collect();
        let idx = AltIndex::bulk_load_with(&pairs, AltConfig {
            epsilon: Some(eps),
            ..Default::default()
        });
        let mut model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        for (op, k) in ops {
            match op {
                0 => prop_assert_eq!(idx.get(k), model.get(&k).copied()),
                1 => {
                    let expect_ok = !model.contains_key(&k);
                    let got = idx.insert(k, k + 1).is_ok();
                    prop_assert_eq!(got, expect_ok);
                    if expect_ok { model.insert(k, k + 1); }
                }
                2 => prop_assert_eq!(idx.remove(k), model.remove(&k)),
                3 => {
                    let expect_ok = model.contains_key(&k);
                    prop_assert_eq!(idx.update(k, 9).is_ok(), expect_ok);
                    if expect_ok { model.insert(k, 9); }
                }
                _ => {
                    let mut got = Vec::new();
                    idx.range(k, k.saturating_add(500), &mut got);
                    let want: Vec<(u64, u64)> =
                        model.range(k..=k.saturating_add(500)).map(|(&a, &b)| (a, b)).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(idx.len(), model.len());
    }

    /// ART behaves exactly like a BTreeMap, including byte-boundary keys.
    #[test]
    fn art_equals_btreemap(
        ops in pvec((0u8..4, prop_oneof![
            1u64..300,
            (0u64..8).prop_map(|s| 1u64 << (s * 8)),
            any::<u64>().prop_map(|k| k | 1),
        ]), 0..400),
    ) {
        let art = Art::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, k) in ops {
            match op {
                0 => assert_eq!(art.get(k), model.get(&k).copied()),
                1 => {
                    let inserted = art.insert(k, k);
                    prop_assert_eq!(inserted, !model.contains_key(&k));
                    model.entry(k).or_insert(k);
                }
                2 => prop_assert_eq!(art.remove(k), model.remove(&k)),
                _ => {
                    let mut got = Vec::new();
                    art.range(k.saturating_sub(100), k.saturating_add(100), &mut got);
                    let want: Vec<(u64, u64)> = model
                        .range(k.saturating_sub(100)..=k.saturating_add(100))
                        .map(|(&a, &b)| (a, b))
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(art.len(), model.len());
    }

    /// Bulk-loaded ALT scans agree with the reference on arbitrary windows.
    #[test]
    fn alt_scan_windows(bulk in sorted_keys(300), lo in 1u64..u64::MAX, n in 0usize..50) {
        let pairs: Vec<(u64, u64)> = bulk.iter().map(|&k| (k, k)).collect();
        let idx = AltIndex::bulk_load_default(&pairs);
        let model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let mut got = Vec::new();
        idx.scan_n(lo, n, &mut got);
        let want: Vec<(u64, u64)> = model.range(lo..).take(n).map(|(&a, &b)| (a, b)).collect();
        prop_assert_eq!(got, want);
    }

    /// The zipf sampler stays in range for arbitrary sizes and skews.
    #[test]
    fn zipf_in_range(n in 1u64..1_000_000, theta in 0.0f64..0.999, seed in any::<u64>()) {
        let z = workloads::Zipf::new(n, theta);
        let mut rng = datasets::rng::SplitMix64::new(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Dataset generators always produce sorted unique non-zero keys of
    /// the exact requested size.
    #[test]
    fn generators_well_formed(n in 1usize..5_000, seed in any::<u64>()) {
        for ds in datasets::ALL_DATASETS {
            let keys = datasets::generate(ds, n, seed);
            prop_assert_eq!(keys.len(), n);
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(keys[0] != 0);
        }
    }
}
