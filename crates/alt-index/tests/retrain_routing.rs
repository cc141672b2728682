//! Regression tests for the retrain routing-floor invariant: after a
//! span's smallest key is removed and the span is retrained, keys between
//! the old and new span start must still route into the retrained span
//! (never to the previous model: the rebuild placed them in this one).

use alt_index::{AltConfig, AltIndex};

fn crowded_index() -> (AltIndex, u64) {
    // Two well-separated spans so the directory has multiple models, with
    // a small epsilon so spans retrain quickly.
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    for i in 1..=20_000u64 {
        pairs.push((i * 4, i)); // span A
    }
    let span_b = 1u64 << 40;
    for i in 1..=20_000u64 {
        pairs.push((span_b + i * 4, i)); // span B
    }
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(64.0),
            ..Default::default()
        },
    );
    (idx, span_b)
}

#[test]
fn gap_keys_route_correctly_after_spanmin_removal_and_retrain() {
    let (idx, span_b) = crowded_index();
    // Remove the smallest keys of span B.
    for i in 1..=100u64 {
        assert_eq!(idx.remove(span_b + i * 4), Some(i));
    }
    // Hammer span B's interior with conflicts until it retrains.
    let mut inserted = Vec::new();
    for i in 5_000..45_000u64 {
        let k = span_b + i * 4 + 1;
        idx.insert(k, k).unwrap();
        inserted.push(k);
    }
    assert!(idx.retrain_count() > 0, "span B must have retrained");
    // Keys in the gap between the old span start and the new smallest key
    // must be insertable and findable.
    for i in 1..=100u64 {
        let k = span_b + i * 4 + 1;
        idx.insert(k, 777).unwrap();
        assert_eq!(idx.get(k), Some(777), "gap key {k:#x}");
    }
    // Everything else intact.
    for &k in inserted.iter().step_by(97) {
        assert_eq!(idx.get(k), Some(k));
    }
    for i in 1..=20_000u64 {
        assert_eq!(idx.get(i * 4), Some(i), "span A key");
    }
}

#[test]
fn retrain_preserves_span_boundaries_under_mixed_ops() {
    let (idx, span_b) = crowded_index();
    let len0 = idx.len();
    // Mixed removals + conflict inserts across both spans.
    let mut expected_len = len0 as i64;
    for i in 1..=10_000u64 {
        if i % 3 == 0 {
            if idx.remove(i * 4).is_some() {
                expected_len -= 1;
            }
        } else {
            idx.insert(i * 4 + 2, i).unwrap();
            expected_len += 1;
        }
        if i % 2 == 0 {
            idx.insert(span_b + i * 4 + 2, i).unwrap();
            expected_len += 1;
        }
    }
    assert_eq!(idx.len() as i64, expected_len);
    // Spot-check both spans.
    for i in (1..=10_000u64).step_by(53) {
        if i % 3 == 0 {
            assert_eq!(idx.get(i * 4), None);
        } else {
            assert_eq!(idx.get(i * 4), Some(i));
            assert_eq!(idx.get(i * 4 + 2), Some(i));
        }
        if i % 2 == 0 {
            assert_eq!(idx.get(span_b + i * 4 + 2), Some(i));
        }
    }
}

#[test]
fn stats_remain_consistent_across_many_retrains() {
    let pairs: Vec<(u64, u64)> = (1..=5_000u64).map(|i| (i * 1_000, i)).collect();
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(32.0),
            ..Default::default()
        },
    );
    for burst in 0..5u64 {
        let base = 1_000_000 + burst * 2_000_000;
        for i in 0..20_000u64 {
            let k = base + i * 2 + 1;
            idx.insert(k, k).unwrap();
        }
        let s = idx.stats();
        assert_eq!(
            s.keys_in_learned + s.keys_in_art,
            idx.len(),
            "layer accounting after burst {burst}"
        );
    }
    assert!(idx.retrain_count() >= 1);
}
