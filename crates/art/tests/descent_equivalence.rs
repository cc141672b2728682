//! Every way down the tree answers alike, and counts its steps alike.
//!
//! `get`, `get_with_depth`, `get_batch_amac` and `update` all walk the
//! same optimistic descent; this suite pins what that descent returns
//! (against a `BTreeMap`, on trees that inserts and removes have pushed
//! through prefix splits, merges, grows and shrinks) and what it counts: a
//! hop is every node visited, the root and the leaf included, a null child
//! not (the lookup length; `altbench` compares `alt.root_hops_mean` across
//! commits for identity). The key universe includes the reserved key 0:
//! inserting it returns `false` and stores nothing, so every read path
//! reads `None` for it.

use art::Art;
use probe::SplitMix64;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A key from a universe small enough that paths share long prefixes
/// (compressed prefixes to split, two-child nodes to merge) with one wide
/// byte (Node16/48/256 to grow into and shrink out of).
fn gen_key(rng: &mut SplitMix64) -> u64 {
    const NARROW: [u64; 3] = [0x00, 0x01, 0xFF];
    let wide = rng.next_below(2) == 0;
    (0..8).fold(0u64, |k, byte| {
        let b = if wide && byte == 3 {
            rng.next_below(256)
        } else if wide {
            NARROW[rng.next_below(2) as usize]
        } else {
            NARROW[rng.next_below(3) as usize]
        };
        k << 8 | b
    })
}

/// Every read path on `tree` against `model`, for `probes`.
fn check_reads(
    tree: &Art,
    model: &BTreeMap<u64, u64>,
    probes: &[u64],
) -> Result<(), TestCaseError> {
    let mut batch = vec![Some(u64::MAX); probes.len()];
    tree.get_batch_amac(probes, &mut batch);
    for (i, &k) in probes.iter().enumerate() {
        let want = model.get(&k).copied();
        prop_assert_eq!(tree.get(k), want, "get({:#x})", k);
        prop_assert_eq!(tree.get_with_depth(k).0, want, "get_with_depth({:#x})", k);
        prop_assert_eq!(batch[i], want, "get_batch_amac({:#x})", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn descents_agree_with_btreemap(seed in any::<u64>()) {
        let rng = &mut SplitMix64::new(seed);
        let tree = Art::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut touched: Vec<u64> = Vec::new();
        for step in 0..900u64 {
            let k = if !touched.is_empty() && rng.next_below(3) == 0 {
                touched[rng.next_below(touched.len() as u64) as usize]
            } else {
                gen_key(rng)
            };
            touched.push(k);
            match rng.next_below(10) {
                0..=4 => {
                    let fresh = k != 0 && !model.contains_key(&k);
                    prop_assert_eq!(tree.insert(k, step), fresh, "insert({:#x})", k);
                    if fresh {
                        model.insert(k, step);
                    }
                }
                5..=7 => prop_assert_eq!(tree.remove(k), model.remove(&k), "remove({:#x})", k),
                _ => {
                    let present = model.contains_key(&k);
                    prop_assert_eq!(tree.update(k, !step), present, "update({:#x})", k);
                    model.entry(k).and_modify(|v| *v = !step);
                    prop_assert_eq!(tree.get(k), model.get(&k).copied(), "get after update");
                }
            }
        }
        let mut probes = touched.clone();
        probes.extend(touched.iter().map(|k| k ^ 1));
        probes.push(0);
        check_reads(&tree, &model, &probes)?;

        // Thin the tree to a fifth: nodes shrink, two-child nodes merge
        // into their parents' slots and prefixes re-concatenate.
        let doomed: Vec<u64> = model.keys().copied().filter(|_| rng.next_below(5) != 0).collect();
        for k in doomed {
            prop_assert_eq!(tree.remove(k), model.remove(&k));
        }
        prop_assert_eq!(tree.len(), model.len());
        check_reads(&tree, &model, &probes)?;
    }
}

#[test]
fn hop_counts_root_leaf() {
    let t = Art::new();
    assert_eq!(
        t.get_with_depth(7),
        (None, 1),
        "empty tree: the root is visited"
    );
    t.insert(7, 70);
    assert_eq!(t.get_with_depth(7), (Some(70), 2));
    assert_eq!(
        t.get_with_depth(8),
        (None, 2),
        "the leaf is visited to tell"
    );
}

#[test]
fn hop_counts_two_levels_with_compressed_prefix() {
    // Under the root, one Node4 with a six-byte prefix over two leaves.
    let base = 0xAABB_CCDD_EEFF_0000u64;
    let t = Art::new();
    t.insert(base + 1, 1);
    t.insert(base + 2, 2);
    assert_eq!(t.get_with_depth(base + 1), (Some(1), 3));
    assert_eq!(t.get_with_depth(base + 2), (Some(2), 3));
    assert_eq!(
        t.get_with_depth(base + 3),
        (None, 2),
        "a null child is not a hop"
    );
    assert_eq!(
        t.get_with_depth(0xAABB_0000_0000_0001),
        (None, 2),
        "prefix mismatch"
    );
}

#[test]
fn hop_counts_absent_key_under_a_full_path() {
    // root (byte 0) -> inner (byte 1) -> leaves expanded lazily: a leaf is
    // reached after two bytes, the other six only its key can tell.
    let t = Art::new();
    t.insert(0x0100_0000_0000_0000, 1);
    t.insert(0x0201_0000_0000_0000, 2);
    t.insert(0x0202_0000_0000_0000, 3);
    assert_eq!(t.get_with_depth(0x0201_0000_0000_0000), (Some(2), 3));
    assert_eq!(
        t.get_with_depth(0x0201_0000_0000_0099),
        (None, 3),
        "root, inner, wrong leaf"
    );
    assert_eq!(
        t.get_with_depth(0x0203_0000_0000_0000),
        (None, 2),
        "root, inner, null child"
    );
    assert_eq!(
        t.get_with_depth(0x0100_0000_0000_0001),
        (None, 2),
        "root, wrong leaf"
    );
    assert_eq!(t.get_with_depth(0x0300_0000_0000_0000), (None, 1));

    // The batch engine walks the same nodes to the same answers.
    let keys = [
        0x0201_0000_0000_0000,
        0x0201_0000_0000_0099,
        0x0203_0000_0000_0000,
        0x0100_0000_0000_0000,
    ];
    let mut out = [Some(9); 4];
    t.get_batch_amac(&keys, &mut out);
    assert_eq!(out, [Some(2), None, None, Some(1)]);
}
