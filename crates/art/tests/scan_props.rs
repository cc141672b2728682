//! The one ordered descent behind `range` / `scan_n` / `seek_ge`, held
//! to `BTreeMap` at rest.
//!
//! The descent starts each node's child walk at `lo`'s byte and stops it
//! at `hi`'s, so the cases that matter are bounds that sit on a byte
//! boundary (`..00`, `..FF`), inside, below or above a compressed prefix,
//! at the ends of the key space, and crossed (`lo > hi`) — on paths
//! through every node type, a Node48 with holes in its child array
//! included — and result limits of 0, 1, exactly what is there, and more.

use art::Art;
use probe::SplitMix64;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Three bytes of compressed prefix above a Node256.
const WIDE: u64 = 0x5A5A_5A00_0000_0000;
/// A Node48 one byte below the root.
const HOLED: u64 = 0x7700_0000_0000_0000;
/// Six bytes of compressed prefix above a Node16.
const DEEP: u64 = 0x9000_0000_0012_0000;

/// Distinct byte values, `n` of them.
fn bytes(rng: &mut SplitMix64, n: usize) -> Vec<u64> {
    let mut all: Vec<u64> = (0..=255).collect();
    for i in 0..n {
        all.swap(i, i + rng.next_below((256 - i) as u64) as usize);
    }
    all.truncate(n);
    all
}

/// A tree with every node type on its paths, and what it holds.
fn build(seed: u64) -> (Art, BTreeMap<u64, u64>) {
    let rng = &mut SplitMix64::new(seed);
    let mut keys: Vec<u64> = Vec::new();
    // Node256 under WIDE's prefix; some children are Node4s.
    let fanout = 200 + rng.next_below(57) as usize;
    for b in bytes(rng, fanout) {
        let k = WIDE | b << 32 | rng.next_below(1 << 32);
        keys.push(k);
        if rng.next_below(4) == 0 {
            keys.push(k ^ (1 + rng.next_below(1 << 20)));
        }
    }
    // Node48, thinned below so its child array has holes.
    let holed = bytes(rng, 48);
    keys.extend(
        holed
            .iter()
            .map(|b| HOLED | b << 48 | rng.next_below(1 << 48)),
    );
    // Node16 at the bottom of a long prefix.
    keys.extend(
        bytes(rng, 10)
            .iter()
            .map(|b| DEEP | b << 8 | rng.next_below(256)),
    );
    // Strays, the ends of the key space among them now and then (0 is
    // the reserved key: its insert is refused, so it is never stored).
    for _ in 0..rng.next_below(40) {
        keys.push(rng.next_u64());
    }
    for edge in [0, 1, u64::MAX - 1, u64::MAX] {
        if rng.next_below(2) == 0 {
            keys.push(edge);
        }
    }

    let tree = Art::new();
    let mut model = BTreeMap::new();
    for k in keys {
        let fresh = k != 0 && !model.contains_key(&k);
        assert_eq!(tree.insert(k, !k), fresh, "insert({k:#x})");
        if fresh {
            model.insert(k, !k);
        }
    }
    // 48 -> 30 children: above the shrink threshold, so the Node48 stays.
    for b in &holed[..18] {
        let gone: Vec<u64> = model
            .range(HOLED | b << 48..=HOLED | b << 48 | ((1 << 48) - 1))
            .map(|(&k, _)| k)
            .collect();
        for k in gone {
            assert_eq!(tree.remove(k), model.remove(&k));
        }
    }
    let s = tree.structure_stats();
    assert!(
        s.n4 > 0 && s.n16 > 0 && s.n48 > 0 && s.n256 > 0,
        "a node type is missing: {s:?}"
    );
    (tree, model)
}

/// Bounds worth probing: around stored keys and around the byte
/// boundaries at every depth of their paths, around the three prefixes,
/// and the ends of the key space.
fn bounds(rng: &mut SplitMix64, model: &BTreeMap<u64, u64>) -> Vec<u64> {
    let stored: Vec<u64> = model.keys().copied().collect();
    let mut out = vec![0, 1, u64::MAX - 1, u64::MAX];
    for base in [WIDE, HOLED, DEEP] {
        // Below the prefix, its first key, inside it, and past its span.
        out.extend([base - 1, base, base | 1 << 20, base.wrapping_add(1 << 56)]);
    }
    // Inside WIDE's compressed prefix: its middle byte one down, one up.
    out.extend([0x5A59_FFFF_FFFF_FFFF, 0x5A5B_0000_0000_0000]);
    for _ in 0..24 {
        let k = stored[rng.next_below(stored.len() as u64) as usize];
        let low = u64::MAX >> (8 * (1 + rng.next_below(7)));
        out.extend([
            k,
            k.wrapping_sub(1),
            k.wrapping_add(1),
            k & !low,
            k | low,
            (k & !low).wrapping_sub(1),
            (k | low).wrapping_add(1),
        ]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn descent_matches_btreemap(seed in any::<u64>()) {
        let (tree, model) = build(seed);
        let rng = &mut SplitMix64::new(seed ^ 0xB0B);
        let bounds = bounds(rng, &model);
        let mut got = Vec::new();
        for &lo in &bounds {
            let from_lo: Vec<(u64, u64)> = model.range(lo..).map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(tree.seek_ge(lo), from_lo.first().copied(), "seek_ge({:#x})", lo);
            for n in [0, 1, 7, from_lo.len(), from_lo.len() + 1, usize::MAX] {
                got.clear();
                let want = &from_lo[..n.min(from_lo.len())];
                prop_assert_eq!(tree.scan_n(lo, n, &mut got), want.len());
                prop_assert_eq!(&got[..], want, "scan_n({:#x}, {})", lo, n);
            }
            for _ in 0..6 {
                let hi = bounds[rng.next_below(bounds.len() as u64) as usize];
                let want: Vec<(u64, u64)> = if lo <= hi {
                    model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
                } else {
                    Vec::new()
                };
                got.clear();
                prop_assert_eq!(tree.range(lo, hi, &mut got), want.len());
                prop_assert_eq!(&got, &want, "range({:#x}, {:#x})", lo, hi);
            }
        }
    }
}
