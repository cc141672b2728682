//! Dynamic retraining (§III-F): partial refactoring of one overcrowded
//! GPL model.
//!
//! When a model's overflow inserts exceed its build size, the span is
//! rebuilt: live slot entries are merged with the span's ART residents
//! and bulk-loaded again, by the bulk builder at the index's own ε, and
//! the fresh model(s) are swapped into the directory RCU-style. ART keys
//! absorbed by the new slots are then deleted from ART; keys that still
//! conflict stay there.
//! If the retrained model was the last one, re-segmentation naturally
//! grows new tail models for out-of-range insertions.
//!
//! There is one rebuild, `AltIndex::retrain_span`, run by the thread
//! whose insert tripped the trigger, in one pass under `dir_lock` with the
//! model closed to writers. DESIGN.md §14 has the protocol and its safety
//! argument.

use crate::index::{segment_and_build, AltIndex};
use crate::model::GplModel;
use crossbeam_epoch as epoch;
use probe::metrics::{self, Counter, Phase};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// One span's data captured from its closed model: the span's ART
/// residents, and their merge with the live slot entries (the slot copy
/// wins on the double presence a contained panic mid-absorb leaves). Both
/// are key-sorted.
struct SpanSnapshot {
    art_pairs: Vec<(u64, u64)>,
    merged: Vec<(u64, u64)>,
}

impl AltIndex {
    /// Number of completed retrains (Fig 8(b) hot-write diagnostics).
    pub fn retrain_count(&self) -> usize {
        self.retrains.load(Ordering::Relaxed)
    }

    /// Number of retrain attempts that got past the trigger checks,
    /// whether or not they published a new directory. An attempt count
    /// racing far ahead of [`AltIndex::retrain_count`] means the trigger
    /// accounting is broken (e.g. an overflow counter that never resets).
    pub fn retrain_attempt_count(&self) -> usize {
        self.retrain_attempts.load(Ordering::Relaxed)
    }

    /// Retrains whose panic was contained — the old directory kept
    /// serving, or the new one was complete (DESIGN.md §16).
    pub fn retrain_rollback_count(&self) -> usize {
        self.rollbacks.load(Ordering::Relaxed)
    }

    /// Post-insert retrain dispatch: run the rebuild on this (the
    /// inserting) thread, contained — a panic (injected or real)
    /// mid-retrain must not take the caller's whole workload down. The
    /// unwind has released every lock, and nothing that can unwind sits
    /// between the publish and the retire store, so the publish either
    /// never started or completed: a contained panic counts as a
    /// rollback.
    pub(crate) fn trigger_retrain(&self, key: u64) {
        if !self.cfg.retrain {
            return;
        }
        if catch_unwind(AssertUnwindSafe(|| self.retrain_span(key))).is_err() {
            self.rollbacks.fetch_add(1, Ordering::Relaxed);
            metrics::incr(Counter::RetrainRollback);
        }
    }

    /// Collect the span of `dir.models[mi]`: live slots + the ART range.
    /// The caller must hold `dir_lock` (directory frozen) and have closed
    /// the model.
    ///
    /// The sweep takes every bucket's lock in order, empty ones too: a
    /// writer that found the model live may hold any bucket, and each lock
    /// waits it out. Every writer after it sees the model closed through
    /// that lock's release/acquire, which a sweep that only read unlocked
    /// words would not give it (DESIGN.md §14). So once the sweep is done
    /// no write to the span is in flight or still to come, and the ART
    /// range read after it is final too. Buckets are sorted against each
    /// other and each holds its keys ascending, so the copy is sorted.
    fn collect_span(&self, dir: &crate::dir::ModelDir, mi: usize, m: &GplModel) -> SpanSnapshot {
        let mut slot_pairs: Vec<(u64, u64)> = Vec::with_capacity(m.build_size);
        for b in 0..m.slots.buckets() {
            m.slots.with_bucket(b, |g| {
                let (entries, n) = g.entries();
                slot_pairs.extend_from_slice(&entries[..n]);
            });
        }
        let lo = if mi == 0 { 1 } else { m.first_key };
        let hi = dir.upper_bound(mi).map(|u| u - 1).unwrap_or(u64::MAX);
        let mut art_pairs: Vec<(u64, u64)> = Vec::new();
        self.art.range(lo, hi, &mut art_pairs);
        let merged = merge_pairs(&slot_pairs, &art_pairs);
        SpanSnapshot { art_pairs, merged }
    }

    /// Rebuild the model covering `key_hint` if it still wants it.
    ///
    /// One pass under `dir_lock`, from collect to absorb, with the model
    /// closed to writers: they wait out the rebuild on `dir_lock`, so the
    /// span collected is the span the new models hold. Readers stay
    /// lock-free throughout. A retrain that finds `dir_lock` taken waits
    /// its turn; its caller holds no lock, so that cannot deadlock.
    /// DESIGN.md §14 argues why the swap is race-free and what a panic at
    /// each hold site leaves behind.
    pub(crate) fn retrain_span(&self, key_hint: u64) {
        // One structural change at a time.
        let _dl = self.dir_lock.lock();
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let mi = dir.locate(key_hint);
        let m = &dir.models[mi];
        // Only a retrain closes a model, and it reopens or unpublishes it
        // before it lets go of `dir_lock`.
        debug_assert!(m.is_live(), "published model closed under dir_lock");
        if !m.wants_retrain() {
            return;
        }
        self.retrain_attempts.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Counter::RetrainAttempt);

        let t_collect = metrics::now_ns();
        // Dropped before `_dl`: however this returns or unwinds short of
        // the swap, the model is live again before the next retrain or a
        // writer waiting on `dir_lock` looks at it.
        let _closed = m.close();
        // Injected panic: unwinds through `_closed`/`_dl` (RAII) into the
        // caller's `catch_unwind`; nothing has changed yet.
        probe::fail::point("retrain.collect");
        let span = self.collect_span(dir, mi, m);
        metrics::record_phase_ns(Phase::RetrainCollect, metrics::now_ns() - t_collect);
        if span.merged.is_empty() {
            // Everything in the span was removed; nothing to refactor.
            // The overflow inserts that tripped the trigger are gone with
            // the rest of the span, so reset the accounting — leaving it
            // high would keep `wants_retrain()` true and send every later
            // overflow insert straight back here for another futile
            // collect-and-bail pass.
            m.art_inserts.store(0, Ordering::Relaxed);
            metrics::incr(Counter::RetrainEmptySpan);
            return;
        }

        let t_build = metrics::now_ns();
        // Injected panic: nothing shared has been touched yet.
        // `art_inserts` stays high on purpose — the next overflow insert
        // retries (self-healing).
        probe::fail::point("retrain.build");
        // The span's bulk load, at the index's own ε; the floor keeps the
        // span's start. `conflicts` is key-sorted, each key once.
        let (models, conflicts, _) =
            segment_and_build(&span.merged, self.epsilon, Some(m.first_key), 1);
        metrics::record_phase_ns(Phase::RetrainBuild, metrics::now_ns() - t_build);

        // Every conflicting key must be reachable through ART before the
        // swap so no reader window misses it. (Conflicts that were already
        // ART residents are re-upserted with their current value — a
        // no-op.)
        for &(k, v) in &conflicts {
            self.art.upsert(k, v);
        }

        // Publish the new directory, then retire the old model. Scans
        // that walked the old directory see the pointer change and
        // retry. Nothing between the swap and the retire store can
        // unwind (a chaos point never panics): retiring before the swap
        // would send every reader of the still-published model into an
        // endless retry, and a swap left without its retire would let
        // readers that cached the old model serve replaced slots while
        // writers target the new ones. `replace` has already retired the
        // old directory when `m.retire()` writes into it; `guard` keeps
        // it allocated.
        let t_swap = metrics::now_ns();
        let new_dir = dir.replace(mi, models);
        probe::chaos::point("retrain.pre_swap");
        self.dir.replace(new_dir, &guard);
        // Widen the window between directory publication and the retired
        // flag — readers caught here must still find every key.
        probe::chaos::point("retrain.post_swap");
        m.retire();
        probe::fail::point("retrain.swap");
        metrics::record_phase_ns(Phase::RetrainSwap, metrics::now_ns() - t_swap);

        // Remove the ART keys the new slots absorbed (every collected ART
        // resident that is not a conflict). Readers racing these deletes
        // see `retired` and retry against the new directory. Writers of
        // the new models do not wait for this pass, so each delete runs
        // under the key's new bucket lock and only while a lane of it
        // holds the key: one that removed the key and put it back into
        // ART since the swap made that ART entry its only copy. A panic
        // mid-pass leaves the remaining keys present in *both* layers —
        // benign double presence the op paths already handle (the slot
        // copy wins; the next retrain of the span merges them away).
        let t_cleanup = metrics::now_ns();
        let published = self.dir.load(&guard);
        for &(k, _) in &span.art_pairs {
            if conflicts.binary_search_by_key(&k, |c| c.0).is_err() {
                probe::chaos::point("retrain.absorb_remove");
                probe::fail::point("retrain.absorb");
                let m = published.model_for(k);
                m.slots.with_bucket(m.predict(k), |g| {
                    if g.find(k).is_some() {
                        self.art.remove(k);
                    }
                });
            }
        }
        metrics::record_phase_ns(Phase::RetrainCleanup, metrics::now_ns() - t_cleanup);
        self.retrains.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Counter::RetrainCompleted);
    }
}

/// Merge two sorted pair slices; `a` wins on duplicate keys.
fn merge_pairs(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AltConfig;
    use crate::dir::ModelDir;
    use crate::index::AltIndex;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn merge_pairs_dedupes_preferring_left() {
        let a = [(1u64, 10u64), (3, 30), (5, 50)];
        let b = [(2u64, 20u64), (3, 31), (6, 60)];
        assert_eq!(
            merge_pairs(&a, &b),
            vec![(1, 10), (2, 20), (3, 30), (5, 50), (6, 60)]
        );
        assert_eq!(merge_pairs(&[], &b), b.to_vec());
        assert_eq!(merge_pairs(&a, &[]), a.to_vec());
    }

    proptest::proptest! {
        /// A retrain publishes `segment_and_build`'s output over the
        /// collected span, floored at the old span start: every key must
        /// be exactly once where a reader routed through the new
        /// directory looks for it, and the conflicts must be the sorted,
        /// duplicate-free list the absorb searches.
        #[test]
        fn a_rebuilt_span_serves_every_key_once(
            keys in proptest::collection::btree_set(2u64..5_000, 1..300),
            floor_gap in 0u64..64,
            eps in 2.0f64..64.0,
        ) {
            let pairs: Vec<(u64, u64)> = keys.into_iter().map(|k| (k, k ^ 0xABCD)).collect();
            let floor = pairs[0].0.saturating_sub(floor_gap).max(1);
            let (models, conflicts, _) = segment_and_build(&pairs, eps, Some(floor), 1);
            let dir = ModelDir::new(models);
            proptest::prop_assert_eq!(dir.first_keys[0], floor);
            proptest::prop_assert!(
                conflicts.windows(2).all(|w| w[0].0 < w[1].0),
                "conflicts not sorted and unique"
            );

            // Live slot entries, each in the bucket its routed model
            // predicts (the only place a reader looks for it).
            let mut live: BTreeMap<u64, u64> = BTreeMap::new();
            for m in &dir.models {
                let mut misplaced = None;
                m.slots.for_each_live(|bucket, k, v| {
                    let placed = Arc::ptr_eq(dir.model_for(k), m) && m.predict(k) == bucket;
                    if !placed || live.insert(k, v).is_some() {
                        misplaced = Some(k);
                    }
                });
                proptest::prop_assert!(
                    misplaced.is_none(),
                    "key {misplaced:?} misplaced or duplicated"
                );
            }
            // No key is in both layers.
            for (k, _) in &conflicts {
                proptest::prop_assert!(!live.contains_key(k), "key {k} in slots and conflicts");
            }
            // Live slots ∪ conflicts == the input, exactly.
            let mut union = live;
            union.extend(conflicts.iter().copied());
            proptest::prop_assert_eq!(union.into_iter().collect::<Vec<_>>(), pairs);
            // The reader's invariants: a conflict key's bucket is full, and
            // it has spilled (a bucket that never spilled reads as "absent
            // unless in a lane").
            for &(k, _) in &conflicts {
                let m = dir.model_for(k);
                let (full, verdict) = m.slots.with_bucket(m.predict(k), |g| (g.is_full(), g.probe(k)));
                proptest::prop_assert!(full, "conflict key {k} predicts a bucket with a free lane");
                // In no lane: `Art` is the spill bit.
                proptest::prop_assert_eq!(
                    verdict,
                    crate::slots::Probe::Art,
                    "conflict key {} in a bucket that never spilled",
                    k
                );
            }
        }
    }

    #[test]
    fn hot_insert_burst_triggers_retrain_and_keeps_all_keys() {
        // Small bulk load, then a dense burst into one region — the
        // paper's hot-write scenario.
        let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        // Burst: ~20k consecutive keys inside one model's span (skipping
        // the multiples of 1000 that exist from the bulk load).
        let burst: Vec<u64> = (500_001..=520_000u64).filter(|k| k % 1000 != 0).collect();
        for &k in &burst {
            idx.insert(k, k).unwrap();
        }
        assert!(idx.retrain_count() > 0, "burst must trigger retraining");
        for &k in &burst {
            assert_eq!(idx.get(k), Some(k), "hot key {k}");
        }
        for &(k, v) in &pairs {
            assert_eq!(idx.get(k), Some(v), "bulk key {k}");
        }
        assert_eq!(idx.len(), 2_000 + burst.len());
    }

    #[test]
    fn retrain_moves_data_back_into_learned_layer() {
        let pairs: Vec<(u64, u64)> = (1..=1_000u64).map(|i| (i * 1_000, i)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        for k in (100_001..=110_000u64).filter(|k| k % 1000 != 0) {
            idx.insert(k, k).unwrap();
        }
        let s = idx.stats();
        assert!(idx.retrain_count() > 0);
        // After retraining, the learned layer holds the majority of the
        // hot region (dense consecutive keys are perfectly linear).
        assert!(
            s.keys_in_learned > s.keys_in_art,
            "learned {} vs art {}",
            s.keys_in_learned,
            s.keys_in_art
        );
    }

    #[test]
    fn empty_span_retrain_resets_overflow_accounting() {
        // Regression: a retrain of a fully-emptied span used to
        // bail out leaving `art_inserts` above the trigger threshold, so
        // `wants_retrain()` stayed true and every later overflow insert
        // paid another futile collect-and-bail pass.
        let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        // Empty every span: all live slots and ART residents go away.
        for &(k, _) in &pairs {
            assert!(idx.remove(k).is_some());
        }
        assert_eq!(idx.len(), 0);

        // Push one model over the retrain trigger by hand and invoke the
        // retrain path directly — it must take the empty-span early exit.
        let target = 500_000u64;
        let guard = epoch::pin();
        let m = idx.dir.load(&guard).model_for(target);
        m.art_inserts
            .store(m.build_size.max(16) + 100, Ordering::Relaxed);
        assert!(m.wants_retrain());
        idx.retrain_span(target);
        assert_eq!(idx.retrain_attempt_count(), 1, "one collect-and-bail pass");
        assert_eq!(idx.retrain_count(), 0, "nothing to publish");
        assert!(
            !m.wants_retrain(),
            "empty-span exit must reset the overflow accounting"
        );

        // A handful of dense keys below the trigger threshold: the later
        // ones collide into occupied slots and overflow to ART, which
        // re-checks `wants_retrain` on every such insert. With the stale
        // counter they would all come straight back here (attempt count
        // climbs); with the reset they must not.
        for k in 500_001..=500_010u64 {
            idx.insert(k, k).unwrap();
        }
        assert_eq!(
            idx.retrain_attempt_count(),
            1,
            "sub-threshold overflow inserts must not re-enter retrain"
        );
        for k in 500_001..=500_010u64 {
            assert_eq!(idx.get(k), Some(k));
        }
    }

    #[test]
    fn a_retrain_waits_for_dir_lock_instead_of_skipping() {
        // A retrain that finds `dir_lock` held must run once it is free,
        // not give up and leave the overflowed model for a later insert.
        let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        let target = 500_000u64;
        {
            let guard = epoch::pin();
            let m = idx.dir.load(&guard).model_for(target);
            m.art_inserts
                .store(m.build_size.max(16) + 100, Ordering::Relaxed);
            assert!(m.wants_retrain());
        }
        let (done_tx, done) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let dl = idx.dir_lock.lock();
            let idx = &idx;
            s.spawn(move || {
                idx.retrain_span(target);
                done_tx.send(()).unwrap();
            });
            let while_held = done.recv_timeout(std::time::Duration::from_millis(200));
            let count_while_held = idx.retrain_count();
            drop(dl);
            assert!(
                while_held.is_err(),
                "retrain_span returned while dir_lock was held"
            );
            assert_eq!(
                count_while_held, 0,
                "no retrain runs while dir_lock is held"
            );
            done.recv().unwrap();
        });
        assert_eq!(
            idx.retrain_count(),
            1,
            "the retrain ran once dir_lock was free"
        );
        for &(k, v) in &pairs {
            assert_eq!(idx.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn the_sweep_waits_for_a_writer_in_an_empty_slot() {
        // A writer that found the model live before the retrain closed it
        // still holds a bucket it is about to insert into. The sweep must
        // wait for it and collect the key, not skip the bucket and publish
        // without it.
        the_sweep_collects_a_held_bucket(|_| true);
    }

    #[test]
    fn the_sweep_waits_for_a_writer_in_lane_2() {
        // The writer's key sorts above two keys of its bucket, so its
        // insert takes lane 2; the sweep, which copies each bucket from
        // lane 0 under its lock, waits for it and copies the shifted
        // bucket.
        the_sweep_collects_a_held_bucket(|lane| lane == 2);
    }

    /// Hold the bucket of an absent key of one model whose insert takes a
    /// lane that passes `lane` and whose bucket has a free lane, for
    /// 200 ms, while a retrain of that model sweeps; the insert made at the
    /// end of the hold must survive it.
    fn the_sweep_collects_a_held_bucket(lane: impl Fn(usize) -> bool) {
        let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        let target = 500_000u64;
        let guard = epoch::pin();
        let dir = idx.dir.load(&guard);
        let m = dir.model_for(target);
        let key = (m.first_key..m.first_key + 100_000)
            .find(|&k| {
                Arc::ptr_eq(dir.model_for(k), m)
                    && m.slots.with_bucket(m.predict(k), |g| {
                        let (entries, n) = g.entries();
                        lane(entries[..n].iter().filter(|e| e.0 < k).count())
                            && g.find(k).is_none()
                            && !g.is_full()
                            && g.probe(k) == crate::slots::Probe::Absent
                    })
            })
            .expect("an absent key of the model predicting a bucket with room");
        let pred = m.predict(key);
        let (held_tx, held) = std::sync::mpsc::channel();
        let count_while_held = std::thread::scope(|s| {
            let idx = &idx;
            let writer = s.spawn(move || {
                m.slots.with_bucket(pred, |g| {
                    held_tx.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    let count = idx.retrain_count();
                    g.insert(key, key);
                    count
                })
            });
            held.recv().unwrap();
            m.art_inserts
                .store(m.build_size.max(16) + 100, Ordering::Relaxed);
            idx.retrain_span(target);
            writer.join().unwrap()
        });
        assert_eq!(
            count_while_held, 0,
            "a retrain published past a held bucket"
        );
        assert_eq!(idx.retrain_count(), 1);
        assert_eq!(idx.get(key), Some(key), "the in-flight insert was lost");
        for &(k, v) in &pairs {
            assert_eq!(idx.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn tail_growth_appends_models() {
        // Inserting past the last model's span must eventually grow new
        // tail models rather than drowning ART.
        let pairs: Vec<(u64, u64)> = (1..=1_000u64).map(|i| (i, i)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        let models_before = idx.stats().num_models;
        for k in 10_000..30_000u64 {
            idx.insert(k, k).unwrap();
        }
        let models_after = idx.stats().num_models;
        assert!(
            models_after > models_before,
            "{models_after} !> {models_before}"
        );
        for k in 10_000..30_000u64 {
            assert_eq!(idx.get(k), Some(k));
        }
    }

    #[test]
    fn concurrent_ops_during_retrain_storm() {
        // Hammer one span from many threads so retrains overlap reads and
        // writes; verify full consistency at quiesce.
        let pairs: Vec<(u64, u64)> = (1..=500u64).map(|i| (i * 10_000, i)).collect();
        let idx = Arc::new(AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(32.0),
                ..Default::default()
            },
        ));
        let threads = 8u64;
        let per = 4_000u64;
        let mut hs = Vec::new();
        for t in 0..threads {
            let idx = Arc::clone(&idx);
            hs.push(std::thread::spawn(move || {
                // Odd keys (stride 2) never collide with the bulk's
                // multiples of 10_000; per-thread blocks are disjoint.
                let base = 1_000_001 + t * per * 2;
                for i in 0..per {
                    let k = base + i * 2;
                    idx.insert(k, k).unwrap();
                    assert_eq!(idx.get(k), Some(k), "own write {k}");
                    // Keep reading bulk keys under the storm.
                    let bulk = ((i % 500) + 1) * 10_000;
                    assert_eq!(idx.get(bulk), Some(bulk / 10_000));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        for t in 0..threads {
            for i in 0..per {
                let k = 1_000_001 + t * per * 2 + i * 2;
                assert_eq!(idx.get(k), Some(k));
            }
        }
        assert_eq!(idx.len(), 500 + (threads * per) as usize);
    }

    #[test]
    fn concurrent_mutations_during_rebuild_are_kept() {
        // Writers keep inserting/removing while a sibling rebuilds the
        // same span: a writer the sweep finds in a slot is collected, one
        // after it waits out the rebuild on `dir_lock` and retries against
        // the new directory, so no change made before or after it is lost.
        let pairs: Vec<(u64, u64)> = (1..=500u64).map(|i| (i * 10_000, i)).collect();
        let idx = Arc::new(AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(32.0),
                ..Default::default()
            },
        ));
        let threads = 4u64;
        let per = 6_000u64;
        let mut hs = Vec::new();
        for t in 0..threads {
            let idx = Arc::clone(&idx);
            hs.push(std::thread::spawn(move || {
                let base = 1_000_001 + t * per * 2;
                for i in 0..per {
                    let k = base + i * 2;
                    idx.insert(k, k).unwrap();
                    // Churn: remove every fourth key again right away,
                    // racing any in-progress rebuild.
                    if i % 4 == 3 {
                        assert_eq!(idx.remove(k), Some(k), "own remove {k}");
                    } else {
                        assert_eq!(idx.get(k), Some(k), "own write {k}");
                    }
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let mut live = 0usize;
        for t in 0..threads {
            for i in 0..per {
                let k = 1_000_001 + t * per * 2 + i * 2;
                if i % 4 == 3 {
                    assert_eq!(idx.get(k), None, "removed key {k} resurfaced");
                } else {
                    assert_eq!(idx.get(k), Some(k), "lost concurrent insert {k}");
                    live += 1;
                }
            }
        }
        assert_eq!(idx.len(), 500 + live);
    }
}
