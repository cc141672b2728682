//! Integration: remove-heavy lifecycles across the two ALT-index layers —
//! tombstone reuse, reads that leave the layers as they are, resurrection
//! guards, and interaction with retraining.

use alt_index::{AltConfig, AltIndex};
use datasets::{generate_pairs, Dataset};
use index_api::IndexError;
use std::collections::BTreeMap;

#[test]
fn full_drain_and_refill() {
    let pairs = generate_pairs(Dataset::Fb, 20_000, 1);
    let idx = AltIndex::bulk_load_default(&pairs);
    for &(k, v) in &pairs {
        assert_eq!(idx.remove(k), Some(v));
    }
    assert_eq!(idx.len(), 0);
    for &(k, _) in &pairs {
        assert_eq!(idx.get(k), None, "key {k} must be gone");
    }
    // Refill with different values; tombstones must be reusable.
    for &(k, _) in &pairs {
        idx.insert(k, k ^ 0xAA).unwrap();
    }
    for &(k, _) in &pairs {
        assert_eq!(idx.get(k), Some(k ^ 0xAA));
    }
    assert_eq!(idx.len(), pairs.len());
}

#[test]
fn reads_under_tombstones_leave_art_unchanged() {
    // Force plenty of ART residents, remove the slot residents their
    // positions predict to, and read them through `get` and `get_batch`:
    // readers never write, so every one stays in ART.
    let pairs: Vec<(u64, u64)> = (1..=50_000u64).map(|i| (i * 4, i)).collect();
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(64.0),
            retrain: false,
            ..Default::default()
        },
    );
    let conflicts: Vec<u64> = (10_000..20_000u64).map(|i| i * 4 + 1).collect();
    for &k in &conflicts {
        idx.insert(k, k).unwrap();
    }
    let removed: Vec<u64> = (10_000..20_000u64).map(|i| i * 4).collect();
    for &k in &removed {
        assert_eq!(idx.remove(k), Some(k / 4));
    }
    let art_before = idx.stats().keys_in_art;
    assert!(art_before > 0, "need conflict data in ART");

    let mut out = vec![None; conflicts.len()];
    for _ in 0..2 {
        for &k in &conflicts {
            assert_eq!(idx.get(k), Some(k));
        }
        idx.get_batch_amac(&conflicts, &mut out);
        for (&k, &got) in conflicts.iter().zip(&out) {
            assert_eq!(got, Some(k), "batched {k}");
        }
    }
    assert_eq!(
        idx.stats().keys_in_art,
        art_before,
        "a read moved entries out of ART"
    );
    // Removed keys stay removed.
    idx.get_batch_amac(&removed, &mut out);
    for (&k, &got) in removed.iter().zip(&out) {
        assert_eq!(idx.get(k), None, "resurrected {k}");
        assert_eq!(got, None, "batched: resurrected {k}");
    }
}

#[test]
fn interleaved_remove_insert_matches_model_with_retrains() {
    let pairs = generate_pairs(Dataset::Longlat, 30_000, 9);
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(32.0), // small ε → crowded models → retrains
            ..Default::default()
        },
    );
    let mut model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
    let mut rng = datasets::rng::SplitMix64::new(0xDEAD);
    for step in 0..80_000u64 {
        let k = if rng.next_below(2) == 0 {
            pairs[rng.next_below(pairs.len() as u64) as usize].0
        } else {
            rng.next_u64() | 1
        };
        match rng.next_below(3) {
            0 => {
                let expect = if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                    e.insert(step);
                    Ok(())
                } else {
                    Err(IndexError::DuplicateKey)
                };
                assert_eq!(idx.insert(k, step), expect, "insert {k} step {step}");
            }
            1 => assert_eq!(idx.remove(k), model.remove(&k), "remove {k} step {step}"),
            _ => assert_eq!(idx.get(k), model.get(&k).copied(), "get {k} step {step}"),
        }
    }
    assert_eq!(idx.len(), model.len());
    // Final sweep.
    for (&k, &v) in &model {
        assert_eq!(idx.get(k), Some(v));
    }
}

#[test]
fn concurrent_remove_insert_same_keys_no_resurrection() {
    use std::sync::Arc;
    // Threads fight over the same key set with insert/remove cycles; at
    // quiesce each key must exist iff its last op was an insert — we
    // can't know which, but get() must agree with a final remove+insert
    // probe, and no key may be double-present (len sanity).
    let pairs: Vec<(u64, u64)> = (1..=10_000u64).map(|i| (i * 10, i)).collect();
    let idx = Arc::new(AltIndex::bulk_load_default(&pairs));
    let hot: Arc<Vec<u64>> = Arc::new((1..=500u64).map(|i| i * 10 + 5).collect());
    let mut hs = Vec::new();
    for t in 0..6u64 {
        let idx = Arc::clone(&idx);
        let hot = Arc::clone(&hot);
        hs.push(std::thread::spawn(move || {
            let mut rng = datasets::rng::SplitMix64::new(t);
            for _ in 0..20_000 {
                let k = hot[rng.next_below(hot.len() as u64) as usize];
                if rng.next_below(2) == 0 {
                    let _ = idx.insert(k, t);
                } else {
                    let _ = idx.remove(k);
                }
            }
        }));
    }
    for h in hs {
        h.join().unwrap();
    }
    // Deterministic cleanup: after removing each hot key (at most once
    // present), a re-insert must succeed exactly once.
    for &k in hot.iter() {
        let _ = idx.remove(k);
        assert_eq!(idx.get(k), None);
        idx.insert(k, 1).unwrap();
        assert_eq!(
            idx.insert(k, 2),
            Err(IndexError::DuplicateKey),
            "key {k} double-present"
        );
    }
    // Bulk keys untouched by the storm.
    for &(k, v) in &pairs {
        assert_eq!(idx.get(k), Some(v));
    }
}
