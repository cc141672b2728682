//! The ALT-index proper: the two-tier hybrid of a flattened GPL learned
//! layer over an optimized ART (§III).
//!
//! Operation flow follows Algorithm 2 of the paper: every operation first
//! locates a GPL model with a binary search over the (flat, sorted) model
//! directory, computes the key's predicted bucket with one calculation,
//! and then either finishes in that bucket — seven lanes in two cache
//! lines (DESIGN.md §3) — or searches the ART-OPT layer from its root.

use crate::config::AltConfig;
use crate::dir::ModelDir;
use crate::model::{fill, placement, GplModel, GAP_FACTOR};
use crate::slots::{BucketGuard, Probe, SlotArray};
use art::Art;
use crossbeam_epoch::{self as epoch, RcuCell};
use index_api::{IndexError, Result};
use learned::gpl::{GplSegmenter, Segment};
use learned::LinearModel;
use parking_lot::Mutex;
use probe::metrics::{self, Phase};
use probe::striped::Striped;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The ALT-index: a concurrent hybrid learned index over `u64 -> u64` —
/// the model directory over gapped slot arrays, and the ART-OPT conflict
/// layer.
///
/// ```
/// use alt_index::AltIndex;
/// let pairs: Vec<(u64, u64)> = (1..=10_000u64).map(|k| (k * 7, k)).collect();
/// let idx = AltIndex::bulk_load_default(&pairs);
/// assert_eq!(idx.get(7), Some(1));
/// idx.insert(5, 99).unwrap();
/// assert_eq!(idx.get(5), Some(99));
/// ```
pub struct AltIndex {
    pub(crate) dir: RcuCell<ModelDir>,
    pub(crate) art: Art,
    pub(crate) cfg: AltConfig,
    /// GPL error bound fixed at construction (the paper's
    /// `bulkload_number / 1000` rule).
    pub(crate) epsilon: f64,
    /// While it is held, no retrain runs: every retrain holds it from
    /// start to end, so it is the one thing that republishes `dir`.
    pub(crate) dir_lock: Mutex<()>,
    /// Live keys. Every insert and remove writes it, so each writer
    /// thread has a stripe of its own: one atomic next to `dir` or `art`
    /// would take the line every reader starts from away from
    /// the other cores on each write, and on a line of its own it would
    /// still bounce between the writers.
    pub(crate) len: Striped,
    pub(crate) retrains: AtomicUsize,
    /// Retrain attempts that got past the trigger checks (completed or
    /// not) — the denominator for the paper's retrain-effectiveness
    /// accounting; `retrains` is the numerator.
    pub(crate) retrain_attempts: AtomicUsize,
    /// Retrains whose panic (injected or real) `trigger_retrain`
    /// contained. Always-on so fault tests and benches can read it in
    /// any build; mirrored into `probe::metrics` under the `metrics`
    /// feature.
    pub(crate) rollbacks: AtomicUsize,
}

impl AltIndex {
    /// Build over sorted, unique pairs (no key 0) with explicit
    /// configuration.
    pub fn bulk_load_with(pairs: &[(u64, u64)], cfg: AltConfig) -> Self {
        index_api::debug_validate_bulk_input(pairs);
        let epsilon = cfg.effective_epsilon(pairs.len());
        let art = Art::new();

        let threads = cfg.build_threads.max(1);
        let t_start = metrics::now_ns();
        let (models, conflicts, t_segmented) = segment_and_build(pairs, epsilon, None, threads);
        let t_models = metrics::now_ns();
        // Conflict eviction into ART.
        art.insert_run(&conflicts, threads);
        let t_art = metrics::now_ns();
        metrics::record_phase_ns(Phase::BulkSegment, t_segmented - t_start);
        metrics::record_phase_ns(Phase::BulkModels, t_models - t_segmented);
        metrics::record_phase_ns(Phase::BulkArt, t_art - t_models);
        let len = Striped::new();
        len.add(pairs.len() as u64);
        Self {
            dir: RcuCell::new(ModelDir::new(models)),
            art,
            cfg,
            epsilon,
            dir_lock: Mutex::new(()),
            len,
            retrains: AtomicUsize::new(0),
            retrain_attempts: AtomicUsize::new(0),
            rollbacks: AtomicUsize::new(0),
        }
    }

    /// Build with the default configuration.
    pub fn bulk_load_default(pairs: &[(u64, u64)]) -> Self {
        Self::bulk_load_with(pairs, AltConfig::default())
    }

    /// An empty index (everything bootstraps through inserts + retrain).
    pub fn new(cfg: AltConfig) -> Self {
        Self::bulk_load_with(&[], cfg)
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &AltConfig {
        &self.cfg
    }

    /// The GPL error bound in effect.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len.sum() as usize
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // -----------------------------------------------------------------
    // Point operations (Algorithm 2)
    // -----------------------------------------------------------------

    /// Point lookup.
    ///
    /// The predicted bucket is read first: both its lines are prefetched
    /// together, then its snapshot gives the verdict. Only conflict data
    /// goes on to the authoritative ART read, which starts at the root.
    pub fn get(&self, key: u64) -> Option<u64> {
        if key == 0 {
            return None;
        }
        let guard = epoch::pin();
        let mut retry = resilience::Retry::new();
        loop {
            let dir = self.dir.load(&guard);
            let m = dir.model_for(key);
            let pred = m.predict(key);
            m.slots.prefetch(pred);
            let (verdict, ver) = m.slots.probe(pred, key);
            // A conclusive answer returns; what falls out of the match is
            // a verdict a concurrent retrain or writer may have undone.
            match verdict {
                Probe::Hit(value) => return Some(value),
                Probe::Absent if !m.is_retired() => return None,
                Probe::Absent => {}
                // Conflict data: the direct ART query replaces the classic
                // secondary search.
                Probe::Art => match self.art.get(key) {
                    Some(v) => return Some(v),
                    None if m.miss_is_final(pred, ver) => return None,
                    None => {}
                },
            }
            if retry.wait_or_escalate(&crate::LAYER) {
                return self.get_pessimistic(key);
            }
        }
    }

    /// Guaranteed-progress lookup fallback, used once the optimistic
    /// loop's retry budget is exhausted: the writer protocol, reading.
    ///
    /// [`AltIndex::with_live_model`] holds the predicted bucket's *write
    /// lock* of the key's live model. Every writer of `key` decides under
    /// that lock, and a retrain that could retire the model and move keys
    /// between the layers has to take it first, so a bucket-or-ART miss
    /// observed under it is conclusive without any version re-validation.
    pub(crate) fn get_pessimistic(&self, key: u64) -> Option<u64> {
        self.with_live_model(key, |_, g| match g.probe(key) {
            Probe::Hit(value) => Some(value),
            Probe::Absent => None,
            Probe::Art => self.art.get(key),
        })
    }

    /// Run `f` on the live model that owns `key`, under the write lock of
    /// the bucket `key` predicts into: the entry of every writer and of
    /// [`AltIndex::get_pessimistic`].
    ///
    /// A retrain stores `Closing` on the model, then sweeps its buckets,
    /// taking each bucket's lock in turn. A writer that finds the model
    /// `Live` under its bucket lock holds that bucket ahead of the sweep,
    /// so the retrain collects what `f` does; one that locks the bucket
    /// after the sweep has passed sees `Closing` through the lock's
    /// release/acquire, or `Retired` once the swap is done. Either way it
    /// releases the bucket and goes again under `dir_lock`: no retrain runs
    /// while that is held, so the second pass finds the successor live,
    /// and there is no third. Lock order is `dir_lock` → bucket lock → ART
    /// node locks, as in a retrain (DESIGN.md §11). One call site of `f`
    /// keeps it inlined into the writers.
    fn with_live_model<R>(
        &self,
        key: u64,
        mut f: impl FnMut(&GplModel, &BucketGuard<'_>) -> R,
    ) -> R {
        let guard = epoch::pin();
        let mut dl = None;
        loop {
            let m = self.dir.load(&guard).model_for(key);
            let pred = m.predict(key);
            let live = m.slots.with_bucket(pred, |g| m.is_live().then(|| f(m, g)));
            if let Some(r) = live {
                return r;
            }
            assert!(dl.is_none(), "a published model is closed under dir_lock");
            dl = Some(self.dir_lock.lock());
        }
    }

    /// Insert a new key.
    pub fn insert(&self, key: u64, value: u64) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        if self.place(key, value, false) {
            Ok(())
        } else {
            Err(IndexError::DuplicateKey)
        }
    }

    /// Insert-or-update.
    pub fn upsert(&self, key: u64, value: u64) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        self.place(key, value, true);
        Ok(())
    }

    /// Put `key` into the index unless it is there already, in which case
    /// `overwrite` says whether it takes `value`. Returns whether the key
    /// was inserted.
    ///
    /// The whole decision runs under the predicted bucket's write lock.
    /// That bucket is the per-key serialization point: every writer of
    /// `key` under this model generation predicts into the same bucket, so
    /// holding its lock across the ART presence check / ART publication
    /// means a racing claim and a racing ART insert of the same key can
    /// never interleave, neither can a remove between an upsert's "is it
    /// there" and its write, and no two keys shift one bucket at once. The
    /// earlier publish-then-recheck protocol let a losing insert
    /// transiently expose its value through ART before undoing it — a
    /// failed insert whose value concurrent readers could observe (caught
    /// by the chaos testkit's oracle).
    ///
    /// The key takes its rank among the bucket's keys, the ones above it
    /// shifting up a lane, unless the bucket is full: then it goes — past
    /// the spill bit, set first — to ART (DESIGN.md §3 "A line is a
    /// bucket").
    fn place(&self, key: u64, value: u64, overwrite: bool) -> bool {
        enum Placed {
            Slot,
            Art,
            Existed,
        }
        let mut want_retrain = false;
        let placed = self.with_live_model(key, |m, g| {
            if let Some((lane, _)) = g.find(key) {
                if overwrite {
                    g.set_value(lane, value);
                }
                return Placed::Existed;
            }
            if g.is_full() {
                g.spill();
                let in_art = overwrite && self.art.update(key, value);
                return if in_art || !self.art.insert(key, value) {
                    Placed::Existed
                } else {
                    m.art_inserts.fetch_add(1, Ordering::Relaxed);
                    want_retrain = m.wants_retrain();
                    Placed::Art
                };
            }
            // The key may still live in ART, from before a lane came free;
            // checked under the lock so the answer cannot go stale before
            // we insert. Only past the spill bit.
            let in_art = match g.probe(key) {
                Probe::Art if overwrite => self.art.update(key, value),
                Probe::Art => self.art.get(key).is_some(),
                Probe::Hit(_) | Probe::Absent => false,
            };
            if in_art {
                Placed::Existed
            } else {
                g.insert(key, value);
                Placed::Slot
            }
        });
        if let Placed::Existed = placed {
            return false;
        }
        self.len.add(1);
        // Outside `with_live_model`: the rebuild sweeps the bucket lock
        // this thread held, and waits for `dir_lock`.
        if want_retrain {
            self.trigger_retrain(key);
        }
        true
    }

    /// Update an existing key in place.
    pub fn update(&self, key: u64, value: u64) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        let updated = self.with_live_model(key, |_, g| match g.find(key) {
            Some((lane, _)) => {
                probe::chaos::point("slots.update.locked");
                g.set_value(lane, value);
                true
            }
            None => matches!(g.probe(key), Probe::Art) && self.art.update(key, value),
        });
        if updated {
            Ok(())
        } else {
            Err(IndexError::KeyNotFound)
        }
    }

    /// Remove a key, returning its value.
    pub fn remove(&self, key: u64) -> Option<u64> {
        if key == 0 {
            return None;
        }
        let removed = self.with_live_model(key, |_, g| {
            match g.find(key) {
                Some((lane, value)) => {
                    // Shift the key out AND clear the transient ART copy
                    // (retrain double-presence) in one critical section.
                    // With the ART clear outside the lock, a racing insert
                    // of `key` could land in ART once other keys filled
                    // the bucket again, and the late clear would silently
                    // delete that *successful* insert (lost key, caught by
                    // the chaos oracle). Under the lock no new ART copy of
                    // `key` can appear: every inserter of `key` must take
                    // this same bucket lock first.
                    g.remove(lane);
                    self.art.remove(key);
                    Some(value)
                }
                None if matches!(g.probe(key), Probe::Art) => self.art.remove(key),
                None => None,
            }
        });
        if removed.is_some() {
            self.len.sub(1);
        }
        removed
    }

    /// Approximate resident bytes: learned layer + ART.
    pub fn memory_usage(&self) -> usize {
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let learned: usize = dir.models.iter().map(|m| m.memory_usage()).sum();
        learned + dir.memory_usage() + self.art.memory_usage()
    }
}

/// GPL-segment `pairs` and build one gapped model per segment. Returns
/// the models (sorted), all conflict data destined for ART, and the
/// [`metrics::now_ns`] stamp at which segmentation ended (bulk load times
/// the two stages apart; 0 without the `metrics` feature).
///
/// Segmentation is one serial pass — under a tenth of the build, so
/// splitting it costs more than it saves (DESIGN.md §12). Model population
/// is where the time is: the segment list is split into at most `threads`
/// contiguous groups balanced by key count, the first built on the
/// calling thread and each other one on a worker. `threads == 1` (every
/// retrain) and any small input are that same loop over one group. A model is private to its
/// builder until the join (`place_unsync`) and group results are
/// concatenated in order, so the output is the same for every `threads`.
///
/// `route_floor`: when replacing a directory span whose smallest key has
/// been removed, the first replacement model must still *route* from the
/// old span start, so the replacements tile the old span — otherwise keys
/// between the old and new lower bound would fall to the previous model,
/// whose slots were not built for them, and a retrain would move a
/// neighbour's span boundary without holding its lock.
pub(crate) fn segment_and_build(
    pairs: &[(u64, u64)],
    epsilon: f64,
    route_floor: Option<u64>,
    threads: usize,
) -> (Vec<Arc<GplModel>>, Vec<(u64, u64)>, u64) {
    if pairs.is_empty() {
        // Bootstrap model so the directory is never empty: anchored at
        // key 1 with a modest slope so early inserts spread out.
        let anchor = route_floor.unwrap_or(1).max(1);
        let m = GplModel::new(anchor, LinearModel::new(anchor, 1.0 / 64.0), 1024, 0);
        return (vec![Arc::new(m)], Vec::new(), metrics::now_ns());
    }
    let mut segmenter = GplSegmenter::new(epsilon);
    let mut segments: Vec<Segment> = pairs
        .iter()
        .enumerate()
        .filter_map(|(i, p)| segmenter.push(i, p.0))
        .collect();
    segments.extend(segmenter.finish());
    let t_segmented = metrics::now_ns();
    // Planned over the whole build before it is split into groups, so the
    // slopes do not depend on `threads`.
    let plan = placement(pairs, &segments, GAP_FACTOR);

    let build_group = |group: std::ops::Range<usize>| {
        // The group's total size decides where its slot arrays live
        // (`SlotArray::for_group`).
        let positions: Vec<usize> = plan[group.clone()].iter().map(|p| p.1).collect();
        let mut models = Vec::with_capacity(group.len());
        let mut conflicts = Vec::new();
        for ((seg, &(model, _)), slots) in segments[group.clone()]
            .iter()
            .zip(&plan[group])
            .zip(SlotArray::for_group(&positions))
        {
            let (m, mut c) = fill(&pairs[seg.start..seg.start + seg.len], model, slots);
            models.push(m);
            conflicts.append(&mut c);
        }
        (models, conflicts)
    };
    let mut groups = partition_segments(&segments, threads, pairs.len()).into_iter();
    let first = groups.next().expect("a non-empty input has a segment");
    let (mut models, conflicts) = std::thread::scope(|s| {
        let build_group = &build_group;
        let workers: Vec<_> = groups
            .map(|group| {
                s.spawn(move || {
                    probe::chaos::point("bulk.par.models");
                    build_group(group)
                })
            })
            .collect();
        let (mut models, mut conflicts) = build_group(first);
        for w in workers {
            let (ms, mut cs) = w.join().expect("model build worker panicked");
            models.extend(ms);
            conflicts.append(&mut cs);
        }
        (models, conflicts)
    });
    if let Some(floor) = route_floor {
        models[0].first_key = models[0].first_key.min(floor);
    }
    let models = models.into_iter().map(Arc::new).collect();
    (models, conflicts, t_segmented)
}

/// Split `segments` into at most `groups` contiguous index ranges of
/// roughly `total_keys / groups` keys each (models vary wildly in span,
/// so balancing by segment *count* would skew the build), and no fewer
/// than [`Art::PARALLEL_MIN_KEYS`] — a small input is one group. The
/// group count is settled first, and a group closes only while a full
/// minimum remains for the ones after it, so the tail is never a worker
/// spawned for a handful of keys.
fn partition_segments(
    segments: &[Segment],
    groups: usize,
    total_keys: usize,
) -> Vec<std::ops::Range<usize>> {
    let groups = groups.min(total_keys / Art::PARALLEL_MIN_KEYS).max(1);
    let target = total_keys.div_ceil(groups);
    let mut out = Vec::with_capacity(groups);
    let mut start = 0;
    let mut acc = 0;
    let mut left = total_keys;
    for (i, s) in segments.iter().enumerate() {
        acc += s.len;
        if acc >= target && left - acc >= Art::PARALLEL_MIN_KEYS {
            out.push(start..i + 1);
            start = i + 1;
            left -= acc;
            acc = 0;
        }
    }
    if start < segments.len() {
        out.push(start..segments.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: u64, stride: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|i| (i * stride, i)).collect()
    }

    #[test]
    fn bulk_load_and_get_linear() {
        let p = pairs(50_000, 3);
        let idx = AltIndex::bulk_load_default(&p);
        assert_eq!(idx.len(), p.len());
        for &(k, v) in &p {
            assert_eq!(idx.get(k), Some(v), "key {k}");
        }
        assert_eq!(idx.get(1), None);
        assert_eq!(idx.get(2), None);
        assert_eq!(idx.get(u64::MAX), None);
        assert_eq!(idx.get(0), None, "reserved key");
    }

    #[test]
    fn bulk_load_hard_distribution_spills_to_art() {
        // Runs of 16 consecutive keys every 32: one segment at this ε,
        // whose cone runs from slope 1 (the first run) to 1/2 (the next
        // run's first key). Its budget, 1.25 × 0.75 slots per key unit,
        // is short of the slope 1 a run needs to seat its keys apart, so
        // keys spill to ART whatever slope is chosen. All must resolve.
        let p: Vec<(u64, u64)> = (0..20_000u64)
            .map(|i| ((i / 16) * 32 + i % 16 + 1, i))
            .collect();
        let idx = AltIndex::bulk_load_with(
            &p,
            AltConfig {
                epsilon: Some(1e6),
                ..Default::default()
            },
        );
        let stats = idx.stats();
        assert!(stats.keys_in_art > 0, "expected spilled conflict data");
        for &(k, v) in &p {
            assert_eq!(idx.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn insert_into_gaps_and_art() {
        let p = pairs(10_000, 10);
        let idx = AltIndex::bulk_load_default(&p);
        // Keys between existing ones: some land in empty slots, some
        // conflict into ART.
        for i in 1..=9_999u64 {
            let k = i * 10 + 5;
            idx.insert(k, k).unwrap();
        }
        for i in 1..=9_999u64 {
            let k = i * 10 + 5;
            assert_eq!(idx.get(k), Some(k), "inserted key {k}");
        }
        // Originals intact.
        for &(k, v) in &p {
            assert_eq!(idx.get(k), Some(v));
        }
        assert_eq!(idx.len(), p.len() + 9_999);
    }

    #[test]
    fn duplicate_insert_rejected_everywhere() {
        let p = pairs(1000, 100);
        let idx = AltIndex::bulk_load_default(&p);
        assert_eq!(
            idx.insert(100, 5),
            Err(IndexError::DuplicateKey),
            "slot key"
        );
        idx.insert(150, 1).unwrap();
        assert_eq!(idx.insert(150, 2), Err(IndexError::DuplicateKey));
        assert_eq!(idx.insert(0, 1), Err(IndexError::ReservedKey));
        assert_eq!(idx.get(150), Some(1));
    }

    #[test]
    fn update_slot_and_art_residents() {
        let p = pairs(1000, 2);
        let idx = AltIndex::bulk_load_default(&p);
        idx.update(2, 999).unwrap();
        assert_eq!(idx.get(2), Some(999));
        // Force an ART resident: odd keys conflict heavily on stride-2.
        idx.insert(3, 30).unwrap();
        idx.update(3, 31).unwrap();
        assert_eq!(idx.get(3), Some(31));
        assert_eq!(idx.update(99_999, 1), Err(IndexError::KeyNotFound));
    }

    #[test]
    fn remove_and_tombstone_reuse() {
        let p = pairs(1000, 10);
        let idx = AltIndex::bulk_load_default(&p);
        assert_eq!(idx.remove(10), Some(1));
        assert_eq!(idx.get(10), None);
        assert_eq!(idx.remove(10), None, "double remove");
        assert_eq!(idx.len(), 999);
        // The bucket the key left takes it back.
        idx.insert(10, 11).unwrap();
        assert_eq!(idx.get(10), Some(11));
        assert_eq!(idx.len(), 1000);
    }

    #[test]
    fn upsert_both_paths() {
        let idx = AltIndex::bulk_load_default(&pairs(100, 10));
        idx.upsert(10, 111).unwrap(); // existing
        assert_eq!(idx.get(10), Some(111));
        idx.upsert(15, 222).unwrap(); // new
        assert_eq!(idx.get(15), Some(222));
    }

    #[test]
    fn empty_index_bootstraps_through_inserts() {
        let idx = AltIndex::new(AltConfig::default());
        assert!(idx.is_empty());
        for k in 1..=5000u64 {
            idx.insert(k * 3, k).unwrap();
        }
        assert_eq!(idx.len(), 5000);
        for k in 1..=5000u64 {
            assert_eq!(idx.get(k * 3), Some(k), "key {}", k * 3);
        }
    }

    #[test]
    fn keys_below_global_minimum() {
        let p: Vec<(u64, u64)> = (100..200u64).map(|k| (k * 1000, k)).collect();
        let idx = AltIndex::bulk_load_default(&p);
        assert_eq!(idx.get(5), None);
        idx.insert(5, 55).unwrap();
        assert_eq!(idx.get(5), Some(55));
        idx.insert(3, 33).unwrap();
        assert_eq!(idx.get(3), Some(33));
        assert_eq!(idx.remove(5), Some(55));
        assert_eq!(idx.get(5), None);
        assert_eq!(idx.get(3), Some(33));
    }

    #[test]
    fn concurrent_insert_get_mixed() {
        let p = pairs(50_000, 8);
        let idx = Arc::new(AltIndex::bulk_load_default(&p));
        let threads = 8u64;
        let mut hs = Vec::new();
        for t in 0..threads {
            let idx = Arc::clone(&idx);
            hs.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    let k = (t * 5_000 + i) * 8 + 3; // disjoint new keys
                    idx.insert(k, k).unwrap();
                    // Read back own write plus a bulk key.
                    assert_eq!(idx.get(k), Some(k));
                    let bulk = ((i % 50_000) + 1) * 8;
                    assert_eq!(idx.get(bulk), Some(bulk / 8));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 50_000 + 40_000);
        for t in 0..threads {
            for i in 0..5_000u64 {
                let k = (t * 5_000 + i) * 8 + 3;
                assert_eq!(idx.get(k), Some(k));
            }
        }
    }

    #[test]
    fn concurrent_same_key_insert_once() {
        let idx = Arc::new(AltIndex::bulk_load_default(&pairs(1000, 10)));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut hs = Vec::new();
        for t in 0..8u64 {
            let idx = Arc::clone(&idx);
            let barrier = Arc::clone(&barrier);
            hs.push(std::thread::spawn(move || {
                let mut wins = 0usize;
                for k in 1..200u64 {
                    let key = k * 10 + 7;
                    barrier.wait();
                    if idx.insert(key, t).is_ok() {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: usize = hs.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 199, "exactly one winner per key");
    }

    #[test]
    fn a_pessimistic_get_does_not_wait_for_dir_lock() {
        // The reader's fallback holds its live model's bucket lock, which
        // already keeps a retrain's sweep out: it must not queue behind
        // `dir_lock`.
        let idx = AltIndex::bulk_load_default(&pairs(1000, 10));
        idx.insert(505, 7).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let dl = idx.dir_lock.lock();
            let idx = &idx;
            s.spawn(move || {
                for k in [500, 505, 501] {
                    tx.send(idx.get_pessimistic(k)).unwrap();
                }
            });
            let wait = std::time::Duration::from_secs(5);
            let got: Vec<_> = (0..3).map(|_| rx.recv_timeout(wait)).collect();
            drop(dl);
            assert_eq!(got, [Ok(Some(50)), Ok(Some(7)), Ok(None)]);
        });
    }
}
