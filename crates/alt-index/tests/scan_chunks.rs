//! Chunk boundaries of the bounded scan, held to `BTreeMap` at rest.
//!
//! A scan advances in key-interval chunks sized from the models, so the
//! places it can go wrong are where a chunk starts or ends: at a model's
//! first key and just below it, below the first model, at the last key
//! and past it, at the ends of the key space (`kb + 1` and
//! `upper_bound - 1` must not overflow), and — with a small ε on fb-shaped
//! data, which gives models of a few keys — across many whole models in
//! one chunk. Checked on the bulk-loaded index and again after a tape of
//! inserts, removes and bursts dense enough to force retrains.

use alt_index::{AltConfig, AltIndex};
use probe::SplitMix64;
use proptest::prelude::*;
use std::collections::btree_map::{BTreeMap, Entry};

/// `got == want`, reporting the first difference rather than both lists.
fn same(got: &[(u64, u64)], want: &[(u64, u64)], what: &str) -> Result<(), TestCaseError> {
    let at = got.iter().zip(want).take_while(|(g, w)| g == w).count();
    prop_assert!(
        got.len() == want.len() && at == got.len(),
        "{what}: {} entries for {}, first difference at {at}: {:?} for {:?}",
        got.len(),
        want.len(),
        got.get(at),
        want.get(at)
    );
    Ok(())
}

/// `scan(lo, n)` = the first `n` of `range(lo, MAX)` = the model's answer.
fn check(idx: &AltIndex, model: &BTreeMap<u64, u64>) -> Result<(), TestCaseError> {
    let spans = idx.directory_spans();
    let last = *model.keys().next_back().expect("the model is never empty");
    let mut los = vec![0, 1, spans[0].0 / 2, last, last.saturating_add(1), u64::MAX];
    let step = spans.len().div_ceil(24);
    for &(first_key, _, _) in spans.iter().step_by(step) {
        los.extend([first_key - 1, first_key]);
    }
    let (mut ranged, mut scanned) = (Vec::new(), Vec::new());
    for lo in los {
        let want: Vec<(u64, u64)> = model.range(lo..).map(|(&k, &v)| (k, v)).collect();
        ranged.clear();
        prop_assert_eq!(idx.range(lo, u64::MAX, &mut ranged), ranged.len());
        same(&ranged, &want, &format!("range({lo}, MAX)"))?;
        for n in [1, 7, 100, want.len() + 3] {
            scanned.clear();
            prop_assert_eq!(idx.scan_n(lo, n, &mut scanned), scanned.len());
            same(
                &scanned,
                &want[..n.min(want.len())],
                &format!("scan_n({lo}, {n})"),
            )?;
        }
        // A bounded range that ends inside the data, on a key and off one.
        if let Some(&(mid, _)) = want.get(want.len() / 2) {
            for hi in [mid, mid.saturating_add(1)] {
                ranged.clear();
                idx.range(lo, hi, &mut ranged);
                let upto = want.partition_point(|p| p.0 <= hi);
                same(&ranged, &want[..upto], &format!("range({lo}, {hi})"))?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scans_match_btreemap_across_chunk_boundaries(
        seed in any::<u64>(),
        epsilon in 1.0f64..12.0,
        top in any::<bool>(),
    ) {
        let rng = &mut SplitMix64::new(seed);
        let mut keys = datasets::generate(datasets::Dataset::Fb, 3_000, seed);
        if top {
            // The last model then ends at the top of the key space.
            keys.extend([u64::MAX - 1, u64::MAX]);
            keys.dedup();
        }
        let mut model: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, !k)).collect();
        let pairs: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig { epsilon: Some(epsilon), ..Default::default() },
        );
        prop_assert!(idx.directory_spans().len() > 50, "ε {} gave few models", epsilon);
        check(&idx, &model)?;

        for step in 0..600 {
            let near = keys[rng.next_below(keys.len() as u64) as usize];
            match rng.next_below(10) {
                // A dense burst beside one key: overflows its (tiny) model
                // into ART past the retrain threshold.
                0 => {
                    for k in near..=near.saturating_add(40) {
                        if let Entry::Vacant(e) = model.entry(k) {
                            e.insert(k);
                            idx.insert(k, k).unwrap();
                        }
                    }
                }
                1..=4 => {
                    let k = near.saturating_add(1 + rng.next_below(1 << 12));
                    if let Entry::Vacant(e) = model.entry(k) {
                        e.insert(k);
                        idx.insert(k, k).unwrap();
                    }
                }
                _ => {
                    // Whatever lives at or after a random spot, bulk key,
                    // burst key or ART resident alike.
                    if let Some((&k, &v)) = model.range(near..).nth(rng.next_below(8) as usize) {
                        if model.len() > 1 {
                            model.remove(&k);
                            prop_assert_eq!(idx.remove(k), Some(v));
                        }
                    }
                }
            }
            if step % 200 == 199 {
                check(&idx, &model)?;
            }
        }
        prop_assert!(idx.retrain_count() > 0, "the bursts forced no retrain");
    }
}
