//! Retrain write-back acceptance tests: once a model expansion (§III-F)
//! retrains a crowded span, conflict keys parked in ART whose retrained
//! position is free must be *served from the learned layer* again, and
//! the swap must neither lose nor duplicate a single key.

use alt_index::{AltConfig, AltIndex};
use std::collections::BTreeMap;

/// Bulk-load a sparse backbone, then burst dense conflict keys into one
/// span. With `retrain` enabled the span expands and writes the ART
/// residents back into slots. Returns (index, model contents, burst keys).
fn bursted_span(retrain: bool) -> (AltIndex, BTreeMap<u64, u64>, Vec<u64>) {
    let mut model: BTreeMap<u64, u64> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
    let pairs: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(64.0),
            retrain,
            ..Default::default()
        },
    );
    // Dense consecutive keys inside one span: each lands next to its
    // neighbours, so pre-retrain almost all of them conflict into ART —
    // and post-retrain the sequence is perfectly linear, so their
    // retrained positions are free.
    let burst: Vec<u64> = (700_001..=712_000u64).filter(|k| k % 1_000 != 0).collect();
    for &k in &burst {
        idx.insert(k, k ^ 0xABCD).unwrap();
        model.insert(k, k ^ 0xABCD);
    }
    (idx, model, burst)
}

fn retrained_span() -> (AltIndex, BTreeMap<u64, u64>, Vec<u64>) {
    let (idx, model, burst) = bursted_span(true);
    assert!(idx.retrain_count() > 0, "burst must trigger a retrain");
    (idx, model, burst)
}

#[test]
fn retrained_keys_are_served_from_learned_layer() {
    let (idx, _, burst) = retrained_span();
    // `probe_art_hops` returns Some only for ART residents; a key served
    // from its slot probes None. After retraining, the dense run is
    // perfectly linear so the majority of the burst must be slot-resident
    // (only insertions that landed after the last retrain may still wait
    // in ART for the next one).
    let slot_served = |idx: &AltIndex| {
        burst
            .iter()
            .filter(|&&k| idx.probe_art_hops(k).is_none())
            .count()
    };
    let with_retrain = slot_served(&idx);
    assert!(
        with_retrain * 2 >= burst.len(),
        "only {with_retrain}/{} burst keys served from the learned layer",
        burst.len()
    );
    let s = idx.stats();
    assert!(
        s.keys_in_learned > s.keys_in_art,
        "learned {} vs art {}",
        s.keys_in_learned,
        s.keys_in_art
    );

    // Control: the identical workload with retraining disabled leaves the
    // conflicts stranded in ART — write-back is what moves them.
    let (control, _, _) = bursted_span(false);
    assert_eq!(control.retrain_count(), 0);
    let without_retrain = slot_served(&control);
    assert!(
        with_retrain >= without_retrain * 4,
        "retrain write-back should dominate: {with_retrain} vs {without_retrain}"
    );
    let c = control.stats();
    assert!(
        c.keys_in_art > c.keys_in_learned,
        "control: art {} vs learned {}",
        c.keys_in_art,
        c.keys_in_learned
    );
}

#[test]
fn expansion_swap_loses_and_duplicates_nothing() {
    let (idx, model, _) = retrained_span();
    // Counter vs layer-scan agreement: a key duplicated across the swap
    // would inflate the scan side, a lost key would deflate it.
    let s = idx.stats();
    assert_eq!(s.keys_in_learned + s.keys_in_art, model.len());
    assert_eq!(idx.len(), model.len());
    // Exact contents: every key present exactly once with its value (a
    // full range walk emits each key at most once per layer; combined
    // with the counter check above this rules out cross-layer doubles).
    let mut got = Vec::new();
    idx.range(1, u64::MAX, &mut got);
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want);
    // Point reads agree too (range and get take different paths).
    for (&k, &v) in model.iter().step_by(37) {
        assert_eq!(idx.get(k), Some(v), "key {k}");
    }
}

#[test]
fn repeated_retrains_keep_writeback_working() {
    // Several bursts into the same span stack retrain generations;
    // write-back must hold at every one.
    let mut model: BTreeMap<u64, u64> = (1..=1_000u64).map(|i| (i * 10_000, i)).collect();
    let pairs: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(32.0),
            ..Default::default()
        },
    );
    for burst in 0..4u64 {
        let base = 3_000_001 + burst * 40_000;
        for i in 0..20_000u64 {
            let k = base + i * 2;
            if model.insert(k, k).is_none() {
                idx.insert(k, k).unwrap();
            }
        }
        let s = idx.stats();
        assert_eq!(
            s.keys_in_learned + s.keys_in_art,
            model.len(),
            "layer accounting after burst {burst}"
        );
    }
    assert!(idx.retrain_count() >= 2, "bursts must stack retrains");
    let s = idx.stats();
    assert!(s.keys_in_learned > s.keys_in_art);
    for (&k, &v) in model.iter().step_by(101) {
        assert_eq!(idx.get(k), Some(v));
    }
}
