//! AMAC-style batched lookups: interleaved optimistic descents.
//!
//! A scalar [`Art::get`] serializes its cache misses — each child pointer
//! chase stalls until the node's line arrives. The batch engine instead
//! keeps a small ring of in-flight lookups, each represented by a
//! [`BatchCursor`] that advances **one node per step**: the step issues a
//! software prefetch for the next child and returns, and the driver moves
//! on to another key, so the misses of all in-flight keys overlap
//! (memory-level parallelism à la AMAC, Kocberber et al., and the
//! interleaved probing of the "Benchmarking Learned Indexes" study).
//!
//! [`drive_ring`] is the one ring both indexes use: here
//! each flight is a cursor, and ALT-index's is a learned-layer probe that
//! may hand off to one. It steps the ring round-robin and refills a
//! retired key's slot in place, so a fresh key's first step waits for
//! every other key in flight to step once.
//!
//! Each step is one [`hop`] of the scalar descent (`tree::descend_leaf`
//! runs the same function in a loop), followed by a prefetch of the child
//! it found. A failed validation restarts *that key only*
//! from the root, charged against a per-key [`resilience::Retry`] budget
//! whose exhaustion escalates to the scalar path (which owns the
//! guaranteed-progress pessimistic descent). Results are therefore
//! per-key linearizable: every outcome is one a scalar `get` interleaved
//! at the same instants could have produced.

use crate::node::{self, NodePtr};
use crate::olc::Version;
use crate::tree::{coupled_ok, hop, leaf_value, prefetch_node, Art, Hop};
use crossbeam_epoch::{self as epoch, Guard};
use probe::metrics::{self, Counter};
use std::marker::PhantomData;

/// Width of the in-flight ring of [`drive_ring`]. Eight keys
/// cover typical L2 miss latency (~10-20 ns of work per step vs ~40+ ns
/// stalls) without spilling cursor state out of registers/L1.
pub const RING_WIDTH: usize = 8;

/// One in-flight batched lookup: the state of a paused optimistic
/// descent between two [`Art::batch_step`] calls. It borrows the tree and
/// the pin it was made under, so every node it points at stays allocated
/// while it can be stepped.
#[derive(Debug)]
pub struct BatchCursor<'g> {
    key: u64,
    /// Current node: the root, an internal node or a tagged leaf.
    p: NodePtr,
    /// Key depth in bytes at `p`.
    depth: usize,
    /// Lock-coupling snapshot of the parent (`0` = none), handed to the
    /// next [`hop`].
    parent: NodePtr,
    parent_v: Version,
    retry: resilience::Retry,
    _pin: PhantomData<(&'g Art, &'g Guard)>,
}

/// Outcome of one [`Art::batch_step`].
#[derive(Debug, PartialEq, Eq)]
pub enum BatchStep {
    /// The cursor advanced one hop (a prefetch for the next node is in
    /// flight); step it again after servicing other keys.
    Pending,
    /// The lookup finished with this result.
    Done(Option<u64>),
    /// The per-key retry budget ran out; the caller must finish this key
    /// through the scalar path (`Art::get`), which escalates to the
    /// pessimistic descent and guarantees progress.
    Escalate,
}

impl Art {
    /// Start a batched lookup for `key` from the root, under `guard`'s
    /// pin.
    ///
    /// Issues a prefetch for the root, so the first [`Art::batch_step`]
    /// (which dereferences the node) should be separated from this call by
    /// work on other keys.
    #[inline]
    pub fn batch_cursor<'g>(&'g self, key: u64, _guard: &'g Guard) -> BatchCursor<'g> {
        prefetch_node(self.root);
        BatchCursor {
            key,
            p: self.root,
            depth: 0,
            parent: 0,
            parent_v: 0,
            retry: resilience::Retry::new(),
            _pin: PhantomData,
        }
    }

    /// Advance `cur` by one hop of the optimistic descent. `self` is
    /// borrowed for the cursor's own `'g` (`&mut` leaves no room to
    /// shorten it), so a restart from this tree's root leaves the cursor
    /// pointing into a tree that outlives it.
    #[inline]
    pub fn batch_step<'g>(&'g self, cur: &mut BatchCursor<'g>) -> BatchStep {
        probe::chaos::point("batch.stage");
        let p = cur.p;
        if node::is_leaf(p) {
            // SAFETY: `p` and `cur.parent` were read from a tree borrowed
            // for `'g` (the cursor's, or `self` on a restart) under the pin
            // `'g` borrows, which is still held.
            let (value, ok) = unsafe {
                let value = (node::leaf_ref(p).key == cur.key).then(|| leaf_value(p));
                (value, coupled_ok(cur.parent, cur.parent_v))
            };
            if !ok {
                return self.batch_restart(cur);
            }
            return BatchStep::Done(value);
        }
        // SAFETY: as for the leaf above.
        match unsafe { hop(p, cur.key, cur.depth, cur.parent, cur.parent_v) } {
            Hop::Restart => self.batch_restart(cur),
            Hop::Miss { .. } | Hop::Child { child: 0, .. } => BatchStep::Done(None),
            Hop::Child {
                child, v, depth, ..
            } => {
                prefetch_node(child);
                metrics::incr(Counter::ArtBatchPrefetch);
                (cur.parent, cur.parent_v) = (p, v);
                (cur.p, cur.depth) = (child, depth);
                BatchStep::Pending
            }
        }
    }

    /// A version conflict on `cur`: charge the per-key budget and either
    /// escalate or restart the descent from the root.
    #[cold]
    fn batch_restart(&self, cur: &mut BatchCursor<'_>) -> BatchStep {
        metrics::incr(Counter::ArtBatchRestart);
        if cur.retry.wait_or_escalate(&crate::LAYER) {
            return BatchStep::Escalate;
        }
        prefetch_node(self.root);
        cur.p = self.root;
        cur.depth = 0;
        cur.parent = 0;
        BatchStep::Pending
    }

    /// Batched point lookup over the AMAC ring: `out[i] = get(keys[i])`,
    /// with up to [`RING_WIDTH`] descents in flight at once. This is the
    /// [`index_api::ConcurrentIndex::get_batch`] implementation for the
    /// standalone ART baseline.
    pub fn get_batch_amac(&self, keys: &[u64], out: &mut [Option<u64>]) {
        metrics::add(Counter::ArtBatchKeys, keys.len() as u64);
        // One pin for the whole batch: every cursor's node pointers stay
        // dereferenceable until the ring drains.
        let guard = epoch::pin();
        drive_ring(
            keys,
            out,
            |key| self.batch_cursor(key, &guard),
            |cur| match self.batch_step(cur) {
                BatchStep::Pending => None,
                BatchStep::Done(v) => Some(v),
                BatchStep::Escalate => Some(self.get(cur.key)),
            },
        );
    }
}

/// The one AMAC ring, which both indexes' `get_batch_amac` drive:
/// `out[i]` gets `keys[i]`'s result, with up to [`RING_WIDTH`] lookups in
/// flight. `start` begins a key's lookup, issuing its first prefetch, and
/// `step` advances one by one stage, `Some(result)` once it is done. The
/// reserved key 0, which no index stores, reads `None` without taking a
/// slot: `start` never sees it. The ring is stepped round-robin and a
/// retired key's slot is refilled in place, so a fresh key's first step
/// comes after every other key in flight has stepped once: a full
/// revolution of other work between its prefetch and its first
/// dereference. Once the keys run out, a retired
/// key's slot is removed, keeping the order of the rest.
///
/// Panics if `out` is shorter than `keys`.
pub fn drive_ring<S>(
    keys: &[u64],
    out: &mut [Option<u64>],
    mut start: impl FnMut(u64) -> S,
    mut step: impl FnMut(&mut S) -> Option<Option<u64>>,
) {
    assert!(
        out.len() >= keys.len(),
        "get_batch: out buffer ({}) shorter than keys ({})",
        out.len(),
        keys.len()
    );
    let mut next = 0;
    // The next key's lookup and its index, answering the reserved key on
    // the way.
    let mut fresh = |out: &mut [Option<u64>]| {
        while let Some(&key) = keys.get(next) {
            next += 1;
            if key != index_api::RESERVED_KEY {
                return Some((next - 1, start(key)));
            }
            out[next - 1] = None;
        }
        None
    };
    // On the stack, so a call allocates nothing; the first `len` places
    // are in flight.
    let mut ring: [Option<(usize, S)>; RING_WIDTH] = std::array::from_fn(|_| None);
    let mut len = 0;
    while len < RING_WIDTH {
        let Some(flight) = fresh(out) else { break };
        ring[len] = Some(flight);
        len += 1;
    }
    let mut i = 0;
    while len > 0 {
        if i >= len {
            i = 0;
        }
        let (ki, s) = ring[i]
            .as_mut()
            .expect("the first `len` places are in flight");
        let Some(result) = step(s) else {
            i += 1;
            continue;
        };
        out[*ki] = result;
        match fresh(out) {
            Some(flight) => {
                ring[i] = Some(flight);
                i += 1;
            }
            None => {
                // Retire in place and close the gap, keeping the order of
                // the rest.
                ring[i] = None;
                ring[i..len].rotate_left(1);
                len -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Art {
        let t = Art::new();
        // Clustered + scattered keys so descents of many depths appear.
        let base = 0x0102_0304_0000_0000u64;
        for i in 1..=512u64 {
            t.insert(base + i * 3, i);
        }
        for i in 1..=64u64 {
            t.insert(i << 48 | 0xAB, i + 1000);
        }
        t
    }

    #[test]
    fn batch_matches_scalar_gets() {
        let t = sample_tree();
        let base = 0x0102_0304_0000_0000u64;
        let keys: Vec<u64> = (0..200u64)
            .map(|i| match i % 4 {
                0 => base + (i / 4) * 3 + 3,    // present (cluster)
                1 => (i % 64 + 1) << 48 | 0xAB, // present (scattered)
                2 => base + (i / 4) * 3 + 4,    // absent (near miss)
                _ => 0xFFFF_FFFF_0000_0000 | i, // absent (far)
            })
            .collect();
        let mut out = vec![None; keys.len()];
        t.get_batch_amac(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], t.get(k), "key {k:#x}");
        }
    }

    #[test]
    fn batch_width_edge_cases() {
        let t = sample_tree();
        let base = 0x0102_0304_0000_0000u64;
        for width in [0, 1, RING_WIDTH - 1, RING_WIDTH, RING_WIDTH + 3] {
            let keys: Vec<u64> = (1..=width as u64).map(|i| base + i * 3).collect();
            let mut out = vec![None; width];
            t.get_batch_amac(&keys, &mut out);
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(out[i], t.get(k), "width {width}, key {k:#x}");
            }
        }
    }

    #[test]
    fn the_ring_retires_each_key_once_and_steps_a_fresh_key_a_revolution_late() {
        use std::cell::RefCell;
        use std::collections::HashMap;
        // A toy lookup: key `k` is pending for `k % 5` steps and retires
        // with `10 k` on the next. Every fourth key is the reserved key 0,
        // which the ring answers itself.
        #[derive(Clone, Copy, Debug)]
        enum Event {
            Start(u64),
            Step { key: u64, retired: bool },
        }
        for width in [0, 1, RING_WIDTH - 1, RING_WIDTH + 1, 3 * RING_WIDTH] {
            let keys: Vec<u64> = (0..width as u64)
                .map(|j| if j % 4 == 2 { 0 } else { j + 1 })
                .collect();
            let log = RefCell::new(Vec::new());
            let mut out = vec![Some(u64::MAX); width + 1];
            drive_ring(
                &keys,
                &mut out,
                |key| {
                    log.borrow_mut().push(Event::Start(key));
                    (key, key % 5)
                },
                |(key, pending)| {
                    let retired = *pending == 0;
                    log.borrow_mut().push(Event::Step { key: *key, retired });
                    *pending = pending.saturating_sub(1);
                    retired.then_some(Some(*key * 10))
                },
            );
            let want: Vec<Option<u64>> = keys.iter().map(|&k| (k != 0).then_some(k * 10)).collect();
            assert_eq!(
                out[..width],
                want,
                "width {width}: each result in its own slot"
            );
            assert_eq!(out[width], Some(u64::MAX), "width {width}: past the keys");

            // Replay the log: the keys in flight, and for each key started
            // by a refill, the keys that must step before its first step.
            let (mut in_flight, mut owed) = (Vec::new(), HashMap::new());
            let (mut retired_keys, mut stepped) = (Vec::new(), false);
            for event in log.into_inner() {
                match event {
                    Event::Start(key) => {
                        assert_ne!(key, 0, "width {width}: the reserved key is not started");
                        assert!(in_flight.len() < RING_WIDTH, "width {width}: ring overfull");
                        if stepped {
                            owed.insert(key, in_flight.clone());
                        }
                        in_flight.push(key);
                    }
                    Event::Step { key, retired } => {
                        assert_ne!(key, 0, "width {width}: a declined key takes no step");
                        assert!(
                            in_flight.contains(&key),
                            "width {width}: {key} not in flight"
                        );
                        if let Some(before) = owed.remove(&key) {
                            assert_eq!(
                                before,
                                [] as [u64; 0],
                                "width {width}: {key} stepped first"
                            );
                        }
                        for before in owed.values_mut() {
                            before.retain(|&k| k != key);
                        }
                        if retired {
                            in_flight.retain(|&k| k != key);
                            retired_keys.push(key);
                        }
                        stepped = true;
                    }
                }
            }
            let mut live: Vec<u64> = keys.iter().copied().filter(|&k| k != 0).collect();
            live.sort_unstable();
            retired_keys.sort_unstable();
            assert_eq!(retired_keys, live, "width {width}: each key retired once");
            assert!(in_flight.is_empty() && owed.is_empty(), "width {width}");
        }
    }

    #[test]
    fn batch_on_empty_tree() {
        let t = Art::new();
        let mut out = vec![Some(7); 3];
        t.get_batch_amac(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![None; 3]);
    }
}
