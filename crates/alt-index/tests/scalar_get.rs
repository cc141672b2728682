//! `get` answers as a map does on an index with both kinds of resident.
//!
//! The scalar get prefetches its predicted bucket, reads it, and goes on
//! to ART only on conflict data; both paths must answer as a map does.
//! On a 200k-key fb index, which holds keys in both layers, every bulk
//! key and 10k absent keys, some between bulk keys and some outside their
//! range, are looked up and compared with a `BTreeMap`.

use alt_index::AltIndex;
use datasets::{generate_pairs, Dataset};
use std::collections::BTreeMap;

#[test]
fn gets_match_a_btreemap_on_slot_and_art_residents() {
    // Every other generated key is loaded; the rest are never inserted.
    let all = generate_pairs(Dataset::Fb, 400_000, 1);
    let loaded: Vec<(u64, u64)> = all.iter().copied().step_by(2).collect();
    let model: BTreeMap<u64, u64> = loaded.iter().copied().collect();
    let idx = AltIndex::bulk_load_default(&loaded);

    let in_art = loaded
        .iter()
        .filter(|&&(k, _)| idx.probe_art_hops(k).is_some())
        .count();
    assert!(
        in_art > 0 && in_art < loaded.len(),
        "{in_art} of {} keys in ART: the index needs both kinds of resident",
        loaded.len()
    );

    let between = all.iter().skip(1).step_by(40).take(9_800).map(|&(k, _)| k);
    let outside = (1..=100u64).flat_map(|i| [i, u64::MAX - i]);
    let absent: Vec<u64> = between.chain(outside).collect();
    assert_eq!(absent.len(), 10_000);
    for &k in loaded.iter().map(|(k, _)| k).chain(&absent) {
        assert_eq!(idx.get(k), model.get(&k).copied(), "get({k:#x})");
    }
}
