//! API contract tests: error types, sentinel handling, length
//! accounting, and upsert semantics across configurations — the
//! behaviours a downstream user relies on regardless of tuning.

use alt_index::{AltConfig, AltIndex};
use index_api::IndexError;

fn configs() -> Vec<(&'static str, AltConfig)> {
    vec![
        ("default", AltConfig::default()),
        (
            "tiny-eps",
            AltConfig {
                epsilon: Some(4.0),
                ..Default::default()
            },
        ),
        (
            "huge-eps",
            AltConfig {
                epsilon: Some(1e9),
                ..Default::default()
            },
        ),
        (
            "no-retrain",
            AltConfig {
                retrain: false,
                ..Default::default()
            },
        ),
    ]
}

#[test]
fn reserved_key_is_rejected_uniformly() {
    for (name, cfg) in configs() {
        let idx = AltIndex::bulk_load_with(&[(5, 50)], cfg);
        assert_eq!(idx.insert(0, 1), Err(IndexError::ReservedKey), "{name}");
        assert_eq!(idx.update(0, 1), Err(IndexError::ReservedKey), "{name}");
        assert_eq!(idx.get(0), None, "{name}");
        assert_eq!(idx.remove(0), None, "{name}");
        assert_eq!(idx.len(), 1, "{name}: reserved ops must not change len");
    }
}

#[test]
fn error_types_are_precise() {
    for (name, cfg) in configs() {
        let pairs: Vec<(u64, u64)> = (1..=100u64).map(|i| (i * 3, i)).collect();
        let idx = AltIndex::bulk_load_with(&pairs, cfg);
        assert_eq!(idx.insert(3, 9), Err(IndexError::DuplicateKey), "{name}");
        assert_eq!(idx.update(4, 9), Err(IndexError::KeyNotFound), "{name}");
        assert_eq!(idx.remove(4), None, "{name}");
        // Errors never mutate.
        assert_eq!(idx.get(3), Some(1), "{name}");
        assert_eq!(idx.len(), 100, "{name}");
    }
}

#[test]
fn len_accounting_is_exact_across_configs() {
    for (name, cfg) in configs() {
        let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 5, i)).collect();
        let idx = AltIndex::bulk_load_with(&pairs, cfg);
        let mut expected = pairs.len() as i64;
        for i in 1..=1_000u64 {
            idx.insert(i * 5 + 2, i).unwrap();
            expected += 1;
            if i % 3 == 0 {
                assert_eq!(idx.remove(i * 5), Some(i), "{name}");
                expected -= 1;
            }
            if i % 7 == 0 {
                // Failed ops must not drift the counter.
                let _ = idx.insert(i * 5 + 2, 0);
                let _ = idx.remove(i * 5 + 3);
            }
        }
        assert_eq!(idx.len() as i64, expected, "{name}");
        let s = idx.stats();
        assert_eq!(
            s.keys_in_learned + s.keys_in_art,
            idx.len(),
            "{name}: stats layer accounting"
        );
    }
}

#[test]
fn upsert_inserts_then_updates_everywhere() {
    for (name, cfg) in configs() {
        let idx = AltIndex::bulk_load_with(&[(10, 1), (20, 2)], cfg);
        // Fresh key (gap or ART), existing slot key, then ART resident.
        idx.upsert(15, 100).unwrap();
        assert_eq!(idx.get(15), Some(100), "{name}");
        idx.upsert(15, 101).unwrap();
        assert_eq!(idx.get(15), Some(101), "{name}");
        idx.upsert(10, 102).unwrap();
        assert_eq!(idx.get(10), Some(102), "{name}");
        assert_eq!(idx.len(), 3, "{name}");
    }
}

#[test]
fn boundary_keys_roundtrip() {
    for (name, cfg) in configs() {
        let idx = AltIndex::bulk_load_with(&[(1 << 32, 7)], cfg);
        for k in [1u64, 2, u64::MAX - 1, u64::MAX, 1 << 63, (1 << 63) + 1] {
            idx.insert(k, k ^ 0xF0F0)
                .unwrap_or_else(|e| panic!("{name}: insert {k}: {e}"));
            assert_eq!(idx.get(k), Some(k ^ 0xF0F0), "{name}: {k}");
        }
        let mut out = Vec::new();
        idx.range(u64::MAX - 1, u64::MAX, &mut out);
        assert_eq!(out.len(), 2, "{name}");
        assert_eq!(idx.remove(u64::MAX), Some(u64::MAX ^ 0xF0F0), "{name}");
    }
}

#[test]
fn empty_bulk_load_supports_every_operation() {
    for (name, cfg) in configs() {
        let idx = AltIndex::bulk_load_with(&[], cfg);
        assert!(idx.is_empty(), "{name}");
        assert_eq!(idx.get(7), None, "{name}");
        assert_eq!(idx.remove(7), None, "{name}");
        assert_eq!(idx.update(7, 1), Err(IndexError::KeyNotFound), "{name}");
        let mut out = Vec::new();
        assert_eq!(idx.range(1, u64::MAX, &mut out), 0, "{name}");
        idx.insert(7, 70).unwrap();
        assert_eq!(idx.get(7), Some(70), "{name}");
        assert_eq!(idx.len(), 1, "{name}");
    }
}

#[test]
fn memory_usage_reflects_growth() {
    let pairs: Vec<(u64, u64)> = (1..=10_000u64).map(|i| (i * 9, i)).collect();
    let idx = AltIndex::bulk_load_default(&pairs);
    let base = idx.memory_usage();
    assert!(base > 10_000 * 8, "at least the key payload");
    // Conflict-heavy inserts grow the ART layer.
    for i in 1..=10_000u64 {
        idx.insert(i * 9 + 1, i).unwrap();
    }
    assert!(idx.memory_usage() > base, "memory grows with inserts");
}
