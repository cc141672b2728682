//! The child search against an oracle that shares no code with it.
//!
//! `node::find_child` is the only child search the tree has: a per-byte
//! atomic position search for the sorted kinds (Node4, Node16), an index
//! hop for Node48, an array load for Node256. Here every node the suite
//! builds is mirrored in a `BTreeMap<u8, NodePtr>`, and after every
//! single change — each insert, each grow through 4→16→48→256, each
//! remove, each shrink back down — the search must agree with the map
//! for all 256 probe bytes, and `for_each_child` must walk exactly the
//! map's pairs in order. Under concurrency a search may see a mid-shift
//! view (doomed, discarded by OLC validation — DESIGN.md §15);
//! equivalence on quiescent nodes plus the chaos sweep
//! (`tests/chaos_schedules.rs::chaos_art_child_search`) is what the tree
//! stands on. Every build, ThreadSanitizer's included, runs the same
//! search.

use art::node::{self, NodePtr, NodeType};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Duplicate-free random key bytes, `len` in `0..=max`, ascending.
fn byte_set(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::btree_set(0u8..=255, 0..max + 1).prop_map(|s| s.into_iter().collect())
}

/// Fisher–Yates over a xorshift stream: the insertion and removal orders
/// of the chain test.
fn shuffle(bytes: &mut [u8], mut seed: u64) {
    seed |= 1;
    for i in (1..bytes.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        bytes.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

/// The search over every probe byte, the ordered walk and the count,
/// against the model.
///
/// # Safety
/// `p` is a live internal node no other thread can reach.
unsafe fn check(p: NodePtr, model: &BTreeMap<u8, NodePtr>) -> Result<(), TestCaseError> {
    let kind = node::header(p).node_type;
    for probe in 0..=255u8 {
        prop_assert_eq!(
            node::find_child(p, probe),
            model.get(&probe).copied().unwrap_or(0),
            "{:?} with {} children, probe {}",
            kind,
            model.len(),
            probe
        );
    }
    let mut walked = Vec::new();
    node::for_each_child(p, |b, c| walked.push((b, c)));
    let expected: Vec<(u8, NodePtr)> = model.iter().map(|(&b, &c)| (b, c)).collect();
    prop_assert_eq!(walked, expected, "{:?} walk", kind);
    prop_assert_eq!(node::header(p).count(), model.len(), "{:?} count", kind);
    Ok(())
}

/// Insert a fresh leaf under `byte` into the write-locked `p` and the
/// model.
///
/// # Safety
/// As for [`check`], with `p` write-locked, not full and without `byte`.
unsafe fn insert(p: NodePtr, model: &mut BTreeMap<u8, NodePtr>, byte: u8) {
    let leaf = node::make_leaf(byte as u64, 0);
    node::insert_child(p, byte, leaf);
    model.insert(byte, leaf);
}

/// Remove `byte` from the write-locked `p` and the model, freeing its
/// leaf.
///
/// # Safety
/// As for [`check`], with `p` write-locked and holding `byte`.
unsafe fn remove(p: NodePtr, model: &mut BTreeMap<u8, NodePtr>, byte: u8) {
    node::remove_child(p, byte);
    node::dealloc(model.remove(&byte).expect("byte in the model"));
}

/// Swap the write-locked `p` for `copy` (its grown or shrunk
/// replacement), as the tree does: lock the new node, retire the old.
///
/// # Safety
/// As for [`check`]; `copy` came from `node::grow(p)` or `node::shrink(p)`.
unsafe fn replace(p: &mut NodePtr, copy: NodePtr) {
    node::header(copy).version.lock();
    node::header(*p).version.unlock_obsolete();
    node::dealloc(*p);
    *p = copy;
}

/// Build a node of exactly `ty` holding `bytes` (must fit its capacity),
/// then take every other byte out again, checking after each step.
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
    // SAFETY: every pointer used below was returned by `node::alloc` or
    // `make_leaf` in this test and is not yet freed; the node is private
    // to this thread, mutated only under its version lock, and everything
    // is freed exactly once.
    unsafe {
        let p = node::alloc(ty);
        node::header(p).version.lock();
        let mut model = BTreeMap::new();
        check(p, &model)?;
        for &b in &order {
            insert(p, &mut model, b);
            check(p, &model)?;
        }
        for &b in bytes.iter().step_by(2) {
            remove(p, &mut model, b);
            check(p, &model)?;
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

    /// Grow one node through every boundary (4→16→48→256) in a random
    /// insertion order, then drain it in another, shrinking wherever the
    /// tree would (256→48→16→4) — checking after every single step, so
    /// the boundary shapes on both sides of each copy are all probed.
    #[test]
    fn growth_chain_equivalence(set in (byte_set(256), any::<u64>())) {
        let (mut bytes, seed) = set;
        shuffle(&mut bytes, seed);
        // SAFETY: every pointer used below was returned by `node::alloc`,
        // `make_leaf`, `grow` or `shrink` in this test and is not yet
        // freed; the nodes are private to this thread, mutated only under
        // their version lock, and each is freed exactly once.
        unsafe {
            let mut p = node::alloc(NodeType::N4);
            node::header(p).version.lock();
            let mut model = BTreeMap::new();
            for &b in &bytes {
                if node::is_full(p) {
                    let bigger = node::grow(p);
                    replace(&mut p, bigger);
                    check(p, &model)?;
                }
                insert(p, &mut model, b);
                check(p, &model)?;
            }
            shuffle(&mut bytes, !seed);
            for &b in &bytes {
                let shrinks = node::shrink_candidate(p);
                remove(p, &mut model, b);
                check(p, &model)?;
                if shrinks {
                    let smaller = node::shrink(p);
                    replace(&mut p, smaller);
                    check(p, &model)?;
                }
            }
            prop_assert_eq!(node::header(p).node_type, NodeType::N4);
            node::header(p).version.unlock();
            node::dealloc_subtree(p);
        }
    }
}

/// End-to-end: a whole tree built through the public API answers every
/// get — hit and near miss — through the optimistic descents, which run
/// the search at every internal node.
#[test]
fn tree_gets_answer_hits_and_near_misses() {
    use index_api::BulkLoad;
    let mut pairs: Vec<(u64, u64)> = (1..=20_000u64).map(|i| (i * 11 + (i % 7), i)).collect();
    pairs.sort_unstable();
    pairs.dedup_by_key(|p| p.0);
    let t = art::Art::bulk_load(&pairs);
    for p in pairs.iter().step_by(97) {
        assert_eq!(t.get(p.0), Some(p.1), "key {}", p.0);
        assert_eq!(t.get(p.0 + 1), None, "miss {}", p.0 + 1);
    }
}
