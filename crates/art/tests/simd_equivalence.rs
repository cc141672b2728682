//! Scalar-vs-SIMD equivalence for child search (ISSUE 7 satellite).
//!
//! `node::find_child_racing` (the vectorized search used on the
//! optimistic paths) must return exactly what the scalar
//! `node::find_child` returns on every quiescent node — for all four
//! node types, every child count (including the 4→16→48→256 grow
//! boundaries), duplicate-free random key-byte sets, and both positions
//! of the runtime SIMD kill-switch. Under concurrency the two may
//! transiently diverge (both views are doomed and discarded by OLC
//! validation — DESIGN.md §15); equivalence on quiescent nodes plus the
//! chaos sweeps (`tests/chaos_schedules.rs::chaos_art_simd_search`) is
//! what makes the vector path a drop-in.
//!
//! CI runs this suite twice: with SIMD compiled in (default) and with
//! `--features simd/force-scalar` (the `simd` job), so the dispatch
//! layer itself is covered in both configurations.

use art::node::{self, NodeType};
use proptest::prelude::*;

/// Duplicate-free random key bytes, `len` in `0..=max`.
fn byte_set(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::btree_set(0u8..=255, 0..max + 1).prop_map(|s| s.into_iter().collect())
}

/// Build a node of exactly `ty` holding `bytes` (must fit its capacity),
/// compare both search paths over all 256 probe bytes, free everything.
fn check_node(ty: NodeType, bytes: &[u8]) -> Result<(), TestCaseError> {
    // Zigzag the (sorted, duplicate-free) set so insertions land at the
    // front, back, and middle of the sorted arrays — exercising every
    // `insert_sorted` shift shape, not just appends.
    let mut order = Vec::with_capacity(bytes.len());
    let (mut lo, mut hi) = (0usize, bytes.len());
    while lo < hi {
        order.push(bytes[lo]);
        lo += 1;
        if lo < hi {
            hi -= 1;
            order.push(bytes[hi]);
        }
    }
    // SAFETY: every pointer used below was returned by `node::alloc`,
    // `make_leaf` or `grow` in this test and is not yet freed; the nodes
    // are private to this thread, mutated only under their version
    // lock, and each is freed exactly once.
    unsafe {
        let p = node::alloc(ty);
        node::header(p).version.lock();
        for &b in &order {
            node::insert_child(p, b, node::make_leaf(b as u64, 0));
        }
        for probe in 0..=255u8 {
            let scalar = node::find_child(p, probe);
            let vector = node::find_child_racing(p, probe);
            prop_assert_eq!(
                scalar,
                vector,
                "{:?} count {} probe {}: scalar {:#x} != racing {:#x}",
                ty,
                bytes.len(),
                probe,
                scalar,
                vector
            );
            // Presence must match the inserted set, not just each other.
            prop_assert_eq!(scalar != 0, bytes.contains(&probe));
        }
        node::header(p).version.unlock();
        node::dealloc_subtree(p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn node4_equivalence(bytes in byte_set(4)) {
        check_node(NodeType::N4, &bytes)?;
    }

    #[test]
    fn node16_equivalence(bytes in byte_set(16)) {
        check_node(NodeType::N16, &bytes)?;
    }

    #[test]
    fn node48_equivalence(bytes in byte_set(48)) {
        check_node(NodeType::N48, &bytes)?;
    }

    #[test]
    fn node256_equivalence(bytes in byte_set(256)) {
        check_node(NodeType::N256, &bytes)?;
    }

    /// Grow the node through every boundary (4→16→48→256) with a random
    /// duplicate-free insertion order, comparing both search paths after
    /// every single insertion — so counts 4, 5, 16, 17, 48, 49 (the
    /// boundary shapes) and everything between are all probed.
    #[test]
    fn growth_chain_equivalence(bytes in byte_set(256)) {
        // SAFETY: every pointer used below was returned by `node::alloc`,
        // `make_leaf` or `grow` in this test and is not yet freed; the nodes
        // are private to this thread, mutated only under their version
        // lock, and each is freed exactly once.
        unsafe {
            let mut p = node::alloc(NodeType::N4);
            node::header(p).version.lock();
            let mut present: Vec<u8> = Vec::new();
            for &b in &bytes {
                if node::is_full(p) {
                    let bigger = node::grow(p);
                    node::header(bigger).version.lock();
                    node::header(p).version.unlock_obsolete();
                    node::dealloc(p);
                    p = bigger;
                }
                node::insert_child(p, b, node::make_leaf(b as u64, 0));
                present.push(b);
                for probe in 0..=255u8 {
                    let scalar = node::find_child(p, probe);
                    prop_assert_eq!(
                        scalar,
                        node::find_child_racing(p, probe),
                        "{:?} after {} inserts, probe {}",
                        node::header(p).node_type,
                        present.len(),
                        probe
                    );
                    prop_assert_eq!(scalar != 0, present.contains(&probe));
                }
            }
            node::header(p).version.unlock();
            node::dealloc_subtree(p);
        }
    }
}

/// The runtime kill-switch flips the racing path to the per-byte scalar
/// kernels; results must be identical in both positions.
#[test]
fn toggle_off_matches_toggle_on() {
    // SAFETY: every pointer used below was returned by `node::alloc`,
    // `make_leaf` or `grow` in this test and is not yet freed; the nodes
    // are private to this thread, mutated only under their version
    // lock, and each is freed exactly once.
    unsafe {
        let p = node::alloc(NodeType::N16);
        node::header(p).version.lock();
        for b in [3u8, 60, 61, 62, 200, 255] {
            node::insert_child(p, b, node::make_leaf(b as u64, 0));
        }
        for probe in 0..=255u8 {
            simd::set_enabled(true);
            let on = node::find_child_racing(p, probe);
            simd::set_enabled(false);
            let off = node::find_child_racing(p, probe);
            simd::set_enabled(true);
            assert_eq!(on, off, "probe {probe}");
            assert_eq!(on, node::find_child(p, probe), "probe {probe}");
        }
        node::header(p).version.unlock();
        node::dealloc_subtree(p);
    }
}

/// End-to-end: a whole tree built through the public API answers every
/// get identically through the scalar-era semantics regardless of the
/// SIMD toggle (the optimistic descents inside `get` use the racing
/// search).
#[test]
fn tree_gets_unaffected_by_toggle() {
    use index_api::BulkLoad;
    let pairs: Vec<(u64, u64)> = (1..=20_000u64).map(|i| (i * 11 + (i % 7), i)).collect();
    let mut pairs = pairs;
    pairs.sort_unstable();
    pairs.dedup_by_key(|p| p.0);
    let t = art::Art::bulk_load(&pairs);
    for on in [true, false, true] {
        simd::set_enabled(on);
        for p in pairs.iter().step_by(97) {
            assert_eq!(t.get(p.0), Some(p.1), "simd={on} key {}", p.0);
            assert_eq!(t.get(p.0 + 1), None, "simd={on} miss {}", p.0 + 1);
        }
    }
    simd::set_enabled(true);
}
