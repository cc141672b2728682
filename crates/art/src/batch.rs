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

/// Width of the in-flight ring in [`Art::get_batch_amac`]. Eight keys
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
        assert!(
            out.len() >= keys.len(),
            "get_batch: out buffer ({}) shorter than keys ({})",
            out.len(),
            keys.len()
        );
        metrics::add(Counter::ArtBatchKeys, keys.len() as u64);
        // One pin for the whole batch: every cursor's node pointers stay
        // dereferenceable until the ring drains.
        let guard = epoch::pin();
        let mut next = 0usize;
        let mut ring: Vec<(usize, BatchCursor<'_>)> =
            Vec::with_capacity(RING_WIDTH.min(keys.len()));
        while next < keys.len() && ring.len() < RING_WIDTH {
            ring.push((next, self.batch_cursor(keys[next], &guard)));
            next += 1;
        }
        let mut i = 0usize;
        while !ring.is_empty() {
            if i >= ring.len() {
                i = 0;
            }
            let (ki, cur) = &mut ring[i];
            match self.batch_step(cur) {
                BatchStep::Pending => i += 1,
                done_or_escalate => {
                    let ki = *ki;
                    out[ki] = match done_or_escalate {
                        BatchStep::Done(v) => v,
                        _ => Art::get(self, keys[ki]),
                    };
                    // Refill the slot so a fresh key's first dereference
                    // happens a full ring revolution after its prefetch.
                    if next < keys.len() {
                        ring[i] = (next, self.batch_cursor(keys[next], &guard));
                        next += 1;
                        i += 1;
                    } else {
                        ring.swap_remove(i);
                    }
                }
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
    fn batch_on_empty_tree() {
        let t = Art::new();
        let mut out = vec![Some(7); 3];
        t.get_batch_amac(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![None; 3]);
    }
}
