//! The range-sharded router: an epoch-published routing table over
//! per-shard indexes, with validated lock-free reads and gate-drained
//! writes.
//!
//! # Read/write protocol
//!
//! The routing table is an immutable sorted `Vec<Arc<Shard>>` covering
//! the whole `u64` key space, published through a
//! [`crossbeam_epoch::Atomic`] exactly like ALT-index's model directory
//! (`dir_epoch`, DESIGN.md §7):
//!
//! * **Readers** (`get`/`get_batch`/`range`/`scan`) pin, load the table,
//!   clone the routed shard's `Arc`, and execute against its index with
//!   no locks (`get_batch` clones nothing: it keeps the pin, and with it
//!   the table and its shards, for the length of the batch). After the
//!   read they validate the shard's `retired` flag:
//!   a structural change sets `retired` (Release) at publish time,
//!   *before* any cleanup deletes touch the old index, so a reader that
//!   could have observed cleanup effects must observe `retired == true` —
//!   it discards the result and re-routes on the fresh table. Every such
//!   loop is [`RegionIndex::routed`]: retries walk the `resilience`
//!   ladder, and once its budget is spent the same attempt runs once more
//!   under the structural lock, where nothing retires.
//! * **Writers** (`insert`/`update`/`upsert`/`remove`) additionally hold
//!   the shard's `gate` read-lock across the operation. A split/merge
//!   takes the gate *write*-lock to freeze the shard, so by the time the
//!   frozen phase-2 rescan runs, every in-flight write has either fully
//!   landed (it is in the rescan) or not started (its thread will see
//!   `retired` and re-route). Each write therefore executes exactly once
//!   on a live shard.

use crate::RegionConfig;
use crossbeam_epoch::{self as epoch, Atomic};
use index_api::{BulkLoad, ConcurrentIndex, Key, Result, Value};
use probe::metrics::{self, Counter};
use resilience::{LayerCounters, Retry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

/// Poison-tolerant mutex lock (the repo-wide idiom: a panicking holder
/// must not wedge every later operation).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One key-range shard: a contiguous inclusive range `[lo, hi]` and the
/// index that owns it.
pub(crate) struct Shard<I> {
    /// Inclusive lower bound of the routed range.
    pub(crate) lo: Key,
    /// Inclusive upper bound of the routed range (`u64::MAX` for the
    /// last shard).
    pub(crate) hi: Key,
    /// The per-shard engine. Split keeps this object for the lower half
    /// (residual upper-half keys are cleaned up post-publish and are
    /// unreachable through routing, which always clamps to `[lo, hi]`).
    pub(crate) index: Arc<I>,
    /// Writer gate: writers hold `read` across each operation; split and
    /// merge hold `write` to freeze the shard for the phase-2 rescan.
    pub(crate) gate: RwLock<()>,
    /// Set (Release) when a structural change replaces this shard in the
    /// routing table. Readers validate it after each read.
    pub(crate) retired: AtomicBool,
    /// Operations observed since the last maintenance tick (relaxed;
    /// feeds the hotspot heuristic only).
    pub(crate) ops: AtomicU64,
}

impl<I> Shard<I> {
    pub(crate) fn new(lo: Key, hi: Key, index: Arc<I>) -> Arc<Self> {
        Arc::new(Shard {
            lo,
            hi,
            index,
            gate: RwLock::new(()),
            retired: AtomicBool::new(false),
            ops: AtomicU64::new(0),
        })
    }

    /// Whether `key` lies in this shard's routed range.
    fn owns(&self, key: Key) -> bool {
        self.lo <= key && key <= self.hi
    }
}

/// The published routing table. Invariants: shards sorted by `lo`,
/// contiguous (`shards[i+1].lo == shards[i].hi + 1`), first `lo == 0`,
/// last `hi == u64::MAX` — so every key routes to exactly one shard.
pub(crate) struct RouteTable<I> {
    pub(crate) shards: Vec<Arc<Shard<I>>>,
}

impl<I> RouteTable<I> {
    /// Index of the shard whose range contains `key` (total coverage
    /// makes this infallible).
    pub(crate) fn idx_of(&self, key: Key) -> usize {
        let i = self.shards.partition_point(|s| s.hi < key);
        debug_assert!(i < self.shards.len(), "routing table must cover all keys");
        i.min(self.shards.len() - 1)
    }
}

/// Always-on structural counters (relaxed), independent of the optional
/// `metrics` feature so tests can guard against vacuity cheaply.
#[derive(Default)]
pub(crate) struct StatsInner {
    pub(crate) splits: AtomicU64,
    pub(crate) merges: AtomicU64,
    pub(crate) migrated_keys: AtomicU64,
    pub(crate) route_retries: AtomicU64,
}

/// Snapshot of a router's structural counters (see
/// [`RegionIndex::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionStats {
    /// Shard splits published.
    pub splits: u64,
    /// Shard merges published.
    pub merges: u64,
    /// Keys copied between shard indexes by splits and merges.
    pub migrated_keys: u64,
    /// Reads/writes that re-routed after observing a retired shard.
    pub route_retries: u64,
}

/// RAII guard from [`RegionIndex::freeze_maintenance`]: structural
/// changes (split/merge and their cleanup) are blocked until it drops.
#[must_use = "maintenance is only frozen while the guard is alive"]
pub struct MaintenanceFreeze<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

/// What one maintenance tick did (see [`RegionIndex::tick`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// A hotspot shard was split.
    pub split: bool,
    /// A cold adjacent pair was merged.
    pub merge: bool,
}

pub(crate) struct Inner<I> {
    pub(crate) table: Atomic<RouteTable<I>>,
    /// Serializes all structural changes (split/merge/quiesce); never
    /// held by the read or write fast paths.
    pub(crate) struct_lock: Mutex<()>,
    pub(crate) cfg: RegionConfig,
    pub(crate) stats: StatsInner,
    /// Background-worker shutdown flag + wakeup.
    pub(crate) shutdown: Mutex<bool>,
    pub(crate) wake: Condvar,
}

impl<I> Inner<I> {
    /// Run `f` on the current routing table under an epoch pin, which
    /// keeps the table — and through its `Arc`s every shard in it — alive
    /// for the whole call even if it is swapped out meanwhile.
    pub(crate) fn with_table<R>(&self, f: impl FnOnce(&RouteTable<I>) -> R) -> R {
        let guard = epoch::pin();
        let t = self.table.load(Ordering::Acquire, &guard);
        // SAFETY: the table pointer is never null after construction and
        // is loaded under the pin, which is held until `f` returns;
        // defer_destroy delays reclamation past this guard.
        f(unsafe { t.deref() })
    }

    /// Clone the current shard list (the `Arc`s keep the shards alive
    /// after the pin drops, even if the table is swapped and reclaimed).
    pub(crate) fn snapshot(&self) -> Vec<Arc<Shard<I>>> {
        self.with_table(|t| t.shards.clone())
    }

    /// Route `key` to its current shard.
    pub(crate) fn route(&self, key: Key) -> Arc<Shard<I>> {
        self.with_table(|t| Arc::clone(&t.shards[t.idx_of(key)]))
    }

    pub(crate) fn note_retry(&self) {
        self.stats.route_retries.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Counter::RegionRouteRetry);
    }
}

impl<I> Drop for Inner<I> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no concurrent accessors remain, so
        // immediate reclamation of the last published table is sound.
        unsafe {
            let guard = epoch::unprotected();
            let t = self.table.load(Ordering::Relaxed, guard);
            if !t.is_null() {
                drop(t.into_owned());
            }
        }
    }
}

/// A range-sharded router implementing [`ConcurrentIndex`] over N
/// per-shard instances of `I`. See the crate docs and DESIGN.md §17.
pub struct RegionIndex<I: ConcurrentIndex + BulkLoad + 'static> {
    pub(crate) inner: Arc<Inner<I>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl<I: ConcurrentIndex + BulkLoad + 'static> RegionIndex<I> {
    /// Build a router over `pairs` (sorted, unique, no key 0) with
    /// explicit configuration. Initial shard boundaries are key
    /// quantiles of `pairs`.
    pub fn bulk_load_with(pairs: &[(Key, Value)], cfg: RegionConfig) -> Self {
        index_api::debug_validate_bulk_input(pairs);
        let n = if pairs.is_empty() {
            1
        } else {
            cfg.initial_shards.clamp(1, cfg.max_shards.max(1))
        };
        // Quantile boundaries, deduplicated: shard i starts at the key of
        // rank i*len/n (shard 0 always starts at 0).
        let mut bounds: Vec<Key> = Vec::with_capacity(n);
        bounds.push(0);
        for i in 1..n {
            let b = pairs[i * pairs.len() / n].0;
            if b > *bounds.last().expect("bounds nonempty") {
                bounds.push(b);
            }
        }
        let mut shards = Vec::with_capacity(bounds.len());
        for (i, &lo) in bounds.iter().enumerate() {
            let hi = bounds.get(i + 1).map_or(Key::MAX, |&next| next - 1);
            let start = pairs.partition_point(|&(k, _)| k < lo);
            let end = pairs.partition_point(|&(k, _)| k <= hi);
            let idx = I::bulk_load_threaded(&pairs[start..end], cfg.construction_threads.max(1));
            shards.push(Shard::new(lo, hi, Arc::new(idx)));
        }
        let inner = Arc::new(Inner {
            table: Atomic::new(RouteTable { shards }),
            struct_lock: Mutex::new(()),
            cfg,
            stats: StatsInner::default(),
            shutdown: Mutex::new(false),
            wake: Condvar::new(),
        });
        let worker = if inner.cfg.auto {
            Some(crate::worker::spawn(Arc::clone(&inner)))
        } else {
            None
        };
        RegionIndex { inner, worker }
    }

    /// Run one maintenance pass synchronously: split the hottest
    /// eligible shard and/or merge the coldest eligible adjacent pair.
    /// This is the deterministic entry point the background worker also
    /// uses; tests drive it directly.
    pub fn tick(&self) -> MaintenanceReport {
        self.inner.maintenance()
    }

    /// Wait for any in-flight structural change to finish (acquires and
    /// releases the structural lock). When `quiesce` returns no split
    /// cleanup is pending — but with `auto` maintenance the worker may
    /// start a *new* change immediately after; use
    /// [`freeze_maintenance`](Self::freeze_maintenance) for a view that
    /// stays stable across multiple observations.
    pub fn quiesce(&self) {
        drop(lock(&self.inner.struct_lock));
    }

    /// Blocks structural maintenance while the returned guard is held:
    /// any in-flight split/merge (including the split's post-publish
    /// cleanup of migrated keys) completes first, and no new one can
    /// start until the guard drops. While frozen, `len()`, `range()`,
    /// and `shard_bounds()` observe exact, mutually consistent shard
    /// contents — without it, a split mid-cleanup transiently overcounts
    /// `len()` (the origin index still holds migrated keys that routing
    /// already clamps out). Read-only observation guard: regular
    /// gets/writes proceed normally while it is held.
    pub fn freeze_maintenance(&self) -> MaintenanceFreeze<'_> {
        MaintenanceFreeze(lock(&self.inner.struct_lock))
    }

    /// Current shard count (may be stale by the next structural change).
    pub fn shard_count(&self) -> usize {
        self.inner.with_table(|t| t.shards.len())
    }

    /// The current shard ranges, ascending and contiguous — exposed for
    /// invariant checks in tests.
    pub fn shard_bounds(&self) -> Vec<(Key, Key)> {
        self.inner.snapshot().iter().map(|s| (s.lo, s.hi)).collect()
    }

    /// Snapshot of the always-on structural counters.
    pub fn stats(&self) -> RegionStats {
        let s = &self.inner.stats;
        RegionStats {
            splits: s.splits.load(Ordering::Relaxed),
            merges: s.merges.load(Ordering::Relaxed),
            migrated_keys: s.migrated_keys.load(Ordering::Relaxed),
            route_retries: s.route_retries.load(Ordering::Relaxed),
        }
    }

    /// One shard's share of a batch, validated like a `get`: if the shard
    /// was replaced mid-batch, redo its keys through the validated
    /// single-key path (per-key linearizability is all `get_batch`
    /// promises).
    fn shard_batch(&self, shard: &Shard<I>, keys: &[Key], out: &mut [Option<Value>]) {
        shard.index.get_batch(keys, out);
        if shard.retired.load(Ordering::Acquire) {
            self.inner.note_retry();
            for (&k, o) in keys.iter().zip(out) {
                *o = self.get(k);
            }
        } else {
            shard.ops.fetch_add(keys.len() as u64, Ordering::Relaxed);
        }
    }

    /// The one routed-operation driver. `attempt` routes on the current
    /// table, runs, and reports `None` when a shard it used had retired
    /// (having undone whatever it appended). Failed attempts walk the
    /// retry ladder; once the budget is spent the structural lock is taken
    /// and kept, and the same attempt runs under it — no split or merge
    /// can publish meanwhile, so the shards it routes to are live and it
    /// succeeds.
    fn routed<R>(&self, mut attempt: impl FnMut() -> Option<R>) -> R {
        let mut retry = Retry::new();
        let mut _structural = None;
        loop {
            if let Some(r) = attempt() {
                return r;
            }
            self.inner.note_retry();
            if retry.wait_or_escalate(&LayerCounters::UNCOUNTED) {
                _structural = Some(lock(&self.inner.struct_lock));
            }
        }
    }

    /// Write-path template: route, enter the shard's gate, re-validate
    /// liveness, execute.
    fn write_op<R>(&self, key: Key, op: impl Fn(&I) -> R) -> R {
        self.routed(|| {
            let shard = self.inner.route(key);
            let _gate = shard.gate.read().unwrap_or_else(PoisonError::into_inner);
            if shard.retired.load(Ordering::Acquire) {
                return None;
            }
            let r = op(&shard.index);
            shard.ops.fetch_add(1, Ordering::Relaxed);
            Some(r)
        })
    }
}

impl<I: ConcurrentIndex + BulkLoad + 'static> Drop for RegionIndex<I> {
    fn drop(&mut self) {
        if let Some(h) = self.worker.take() {
            *lock(&self.inner.shutdown) = true;
            self.inner.wake.notify_all();
            let _ = h.join();
        }
    }
}

impl<I: ConcurrentIndex + BulkLoad + 'static> BulkLoad for RegionIndex<I> {
    fn bulk_load(pairs: &[(Key, Value)]) -> Self {
        Self::bulk_load_with(pairs, RegionConfig::default())
    }

    fn bulk_load_threaded(pairs: &[(Key, Value)], threads: usize) -> Self {
        let cfg = RegionConfig {
            construction_threads: threads.max(1),
            ..RegionConfig::default()
        };
        Self::bulk_load_with(pairs, cfg)
    }
}

impl<I: ConcurrentIndex + BulkLoad + 'static> ConcurrentIndex for RegionIndex<I> {
    fn get(&self, key: Key) -> Option<Value> {
        self.routed(|| {
            let shard = self.inner.route(key);
            let v = shard.index.get(key);
            if shard.retired.load(Ordering::Acquire) {
                return None;
            }
            shard.ops.fetch_add(1, Ordering::Relaxed);
            Some(v)
        })
    }

    fn insert(&self, key: Key, value: Value) -> Result<()> {
        self.write_op(key, |i| i.insert(key, value))
    }

    fn update(&self, key: Key, value: Value) -> Result<()> {
        self.write_op(key, |i| i.update(key, value))
    }

    fn upsert(&self, key: Key, value: Value) -> Result<()> {
        self.write_op(key, |i| i.upsert(key, value))
    }

    fn remove(&self, key: Key) -> Option<Value> {
        self.write_op(key, |i| i.remove(key))
    }

    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert!(
            out.len() >= keys.len(),
            "get_batch: out buffer ({}) shorter than keys ({})",
            out.len(),
            keys.len()
        );
        let Some(&first) = keys.first() else {
            return;
        };
        // One pin for the whole batch, held across the shard calls: the
        // table keeps every shard alive, so nothing is cloned.
        self.inner.with_table(|table| {
            let shard = &*table.shards[table.idx_of(first)];
            if keys.iter().all(|&k| shard.owns(k)) {
                // One shard owns every key — what the serving front-end's
                // per-domain queues send: its engine reads and writes the
                // caller's slices directly.
                return self.shard_batch(shard, keys, &mut out[..keys.len()]);
            }
            // Mixed: one sub-batch per shard so each AMAC engine sees a
            // coherent ring, gathered through stack arrays 64 keys at a
            // time. `todo` holds the chunk positions still unanswered.
            for (keys, out) in keys.chunks(64).zip(out.chunks_mut(64)) {
                let mut todo = u64::MAX >> (64 - keys.len());
                while todo != 0 {
                    let shard = &*table.shards[table.idx_of(keys[todo.trailing_zeros() as usize])];
                    let (mut gkeys, mut gpos, mut n) = ([0; 64], [0; 64], 0);
                    let mut rest = todo;
                    while rest != 0 {
                        let p = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        if shard.owns(keys[p]) {
                            (gkeys[n], gpos[n]) = (keys[p], p);
                            n += 1;
                            todo &= !(1 << p);
                        }
                    }
                    let mut gout = [None; 64];
                    self.shard_batch(shard, &gkeys[..n], &mut gout[..n]);
                    for (&p, v) in gpos[..n].iter().zip(gout) {
                        out[p] = v;
                    }
                }
            }
        });
    }

    fn batch_domains(&self) -> usize {
        self.inner.with_table(|t| t.shards.len())
    }

    fn batch_domain_of(&self, key: Key) -> usize {
        self.inner.with_table(|t| t.idx_of(key))
    }

    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        let start = out.len();
        self.routed(|| {
            out.truncate(start);
            for s in self.inner.snapshot().iter() {
                if s.hi < lo || s.lo > hi {
                    continue;
                }
                s.index.range(lo.max(s.lo), hi.min(s.hi), out);
                if s.retired.load(Ordering::Acquire) {
                    return None;
                }
            }
            Some(out.len() - start)
        })
    }

    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let start = out.len();
        let full = start.saturating_add(n);
        self.routed(|| {
            out.truncate(start);
            let table = RouteTable {
                shards: self.inner.snapshot(),
            };
            for s in table.shards[table.idx_of(lo)..].iter() {
                if out.len() >= full {
                    break;
                }
                // One shard's share. Its engine may overrun the shard's
                // range (scan is count-bounded, not key-bounded); clamp to
                // `[.., s.hi]` so residual post-split keys are never
                // surfaced.
                let from = out.len();
                s.index.scan(lo.max(s.lo), full - from, out);
                let within = out[from..].partition_point(|&(k, _)| k <= s.hi);
                out.truncate(from + within);
                if s.retired.load(Ordering::Acquire) {
                    return None;
                }
            }
            Some(out.len() - start)
        })
    }

    fn memory_usage(&self) -> usize {
        let shards = self.inner.snapshot();
        shards.len() * std::mem::size_of::<Shard<I>>()
            + shards.iter().map(|s| s.index.memory_usage()).sum::<usize>()
    }

    fn len(&self) -> usize {
        self.inner.snapshot().iter().map(|s| s.index.len()).sum()
    }

    fn name(&self) -> &'static str {
        "region"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MapIndex;

    fn pairs(n: u64) -> Vec<(Key, Value)> {
        (1..=n).map(|k| (k * 10, k * 10 + 1)).collect()
    }

    fn build(n: u64, shards: usize) -> RegionIndex<MapIndex> {
        let cfg = RegionConfig {
            initial_shards: shards,
            ..RegionConfig::default()
        };
        RegionIndex::bulk_load_with(&pairs(n), cfg)
    }

    #[test]
    fn bounds_are_contiguous_and_total() {
        let idx = build(1000, 4);
        let b = idx.shard_bounds();
        assert_eq!(b.len(), 4);
        assert_eq!(b[0].0, 0);
        assert_eq!(b.last().unwrap().1, Key::MAX);
        for w in b.windows(2) {
            assert_eq!(w[1].0, w[0].1 + 1);
        }
    }

    #[test]
    fn get_insert_update_remove_across_shards() {
        let idx = build(1000, 4);
        assert_eq!(idx.len(), 1000);
        assert_eq!(idx.get(10), Some(11));
        assert_eq!(idx.get(10_000), Some(10_001));
        assert_eq!(idx.get(15), None);
        idx.insert(15, 7).unwrap();
        assert_eq!(idx.get(15), Some(7));
        assert!(idx.insert(15, 8).is_err());
        idx.update(15, 9).unwrap();
        idx.upsert(16, 1).unwrap();
        idx.upsert(16, 2).unwrap();
        assert_eq!(idx.get(16), Some(2));
        assert_eq!(idx.remove(15), Some(9));
        assert_eq!(idx.remove(15), None);
        assert_eq!(idx.len(), 1001);
    }

    #[test]
    fn range_and_scan_cross_shard_boundaries() {
        let idx = build(1000, 8);
        let mut out = Vec::new();
        let n = idx.range(1, 10_000, &mut out);
        assert_eq!(n, 1000);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        let mut out = Vec::new();
        assert_eq!(idx.scan(4995, 100, &mut out), 100);
        assert_eq!(out[0].0, 5000);
        assert_eq!(out[99].0, 5990);
    }

    #[test]
    fn get_batch_matches_sequential_gets() {
        let idx = build(500, 4);
        let keys: Vec<Key> = (0..200u64).map(|i| i * 37 % 6000).collect();
        let mut out = vec![None; keys.len()];
        idx.get_batch(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], idx.get(k), "key {k}");
        }
    }

    #[test]
    fn get_batch_routes_like_get_on_every_path() {
        let idx = build(1000, 4);
        idx.insert(Key::MAX, 7).unwrap();
        let b = idx.shard_bounds();
        let check = |keys: &[Key]| {
            let mut out = vec![Some(0xDEAD); keys.len()];
            idx.get_batch(keys, &mut out);
            for (&k, got) in keys.iter().zip(out) {
                assert_eq!(got, idx.get(k), "key {k} of {keys:?}");
            }
        };
        // One shard owns the batch: an inner one, the first from key 0,
        // the last up to `Key::MAX`, and the two keys either side of a
        // boundary taken one shard at a time.
        check(&[b[1].0, b[1].0 + 5, b[1].1, b[1].1 - 10]);
        check(&[0, 10, 11, b[0].1]);
        check(&[Key::MAX, b[3].0, Key::MAX - 1]);
        check(&[b[2].1]);
        check(&[b[3].0]);
        // Straddling: a boundary pair, both ends of the key space, and a
        // batch longer than one 64-key chunk that touches every shard in
        // no particular order.
        check(&[b[2].1, b[3].0]);
        check(&[Key::MAX, 0, 10, Key::MAX]);
        let long: Vec<Key> = (0..150u64).map(|i| i * 7919 % 10_050).collect();
        check(&long);
        assert!(b
            .iter()
            .all(|&(lo, hi)| long.iter().any(|&k| lo <= k && k <= hi)));
    }

    #[test]
    fn batch_domains_track_shards() {
        let idx = build(1000, 4);
        assert_eq!(idx.batch_domains(), 4);
        let mut seen = std::collections::BTreeSet::new();
        for k in (10..=10_000).step_by(10) {
            seen.insert(idx.batch_domain_of(k));
        }
        assert_eq!(seen.len(), 4);
    }

    /// Ops issued while a split/merge is in progress are served by
    /// `routed`'s pass under `struct_lock`; they must get the right answer
    /// and count towards the shard's hot/cold tally like any other op.
    #[test]
    fn ops_served_under_the_structural_lock_are_answered_and_counted() {
        let idx = build(100, 1);
        let escalated = u64::from(resilience::BUDGET) + 1;
        let mut retries = 0;
        for (i, op) in [0, 1].into_iter().enumerate() {
            // A structural change in progress: the lock is held and the
            // shard already carries its `retired` mark.
            let structural = idx.freeze_maintenance();
            let old = idx.inner.route(50);
            old.retired.store(true, Ordering::Release);
            std::thread::scope(|s| {
                let served = s.spawn(|| match op {
                    0 => idx.get(50),
                    _ => idx.remove(50),
                });
                // Every optimistic attempt fails until the budget is spent
                // and the op queues for the lock; only then publish the
                // shard's successor and let go.
                retries += escalated;
                while idx.stats().route_retries < retries {
                    std::thread::yield_now();
                }
                let fresh = Shard::new(old.lo, old.hi, Arc::clone(&old.index));
                idx.inner.publish(vec![Arc::clone(&fresh)], &[]);
                drop(structural);
                assert_eq!(served.join().unwrap(), Some(51), "op {i}");
                assert_eq!(fresh.ops.load(Ordering::Relaxed), 1, "op {i}");
            });
        }
        assert_eq!(idx.stats().route_retries, retries);
        assert_eq!(idx.get(50), None);
    }

    #[test]
    fn single_shard_degenerates_gracefully() {
        let idx = build(100, 1);
        assert_eq!(idx.shard_count(), 1);
        assert_eq!(idx.get(10), Some(11));
        let idx: RegionIndex<MapIndex> = RegionIndex::bulk_load(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.get(42), None);
        idx.insert(42, 1).unwrap();
        assert_eq!(idx.len(), 1);
    }
}
