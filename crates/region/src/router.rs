//! The range-sharded router: a shard list fixed at bulk load.
//!
//! [`RegionIndex::bulk_load_with`] cuts the key space at key quantiles
//! of the bulk-load array and builds one index per range. The list never
//! changes afterwards, so a key's shard is a binary search over
//! immutable bounds and every operation calls that shard's index
//! directly: the router holds no lock, no epoch state and no retry loop.
//! Each shard index only ever sees keys of its own range (bulk load
//! partitions the input, and every write routes by key), so `range` and
//! `scan` concatenate the shards' answers in order, and `get_batch`
//! groups a mixed batch by shard, 64 keys at a time, into one
//! `get_batch` per owning shard.

use crate::RegionConfig;
use index_api::{BulkLoad, ConcurrentIndex, Key, Result, Value};

/// Keys a `get_batch` groups by shard at a time: the width of its stack
/// arrays and of the bit mask of positions still unanswered.
const GROUP: usize = 64;

/// One key-range shard: a contiguous inclusive range `[lo, hi]` and the
/// index that owns it.
struct Shard<I> {
    lo: Key,
    /// `u64::MAX` for the last shard.
    hi: Key,
    index: I,
}

/// Snapshot of a router's structural counters (see
/// [`RegionIndex::stats`]). The shard list is fixed at bulk load, so
/// every field is 0; the struct keeps its shape only because the
/// `altbench` per-layer report reads it (ROADMAP item 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Always 0: no shard is ever split.
    pub splits: u64,
    /// Always 0: no shards are ever merged.
    pub merges: u64,
    /// Always 0: keys never move between shard indexes.
    pub migrated_keys: u64,
    /// Always 0: no shard is ever replaced, so nothing re-routes.
    pub route_retries: u64,
}

/// A range-sharded router implementing [`ConcurrentIndex`] over N
/// per-shard instances of `I`. See the crate docs and DESIGN.md §17.
///
/// Invariants of the shard list: sorted by `lo`, contiguous
/// (`shards[i+1].lo == shards[i].hi + 1`), first `lo == 0`, last
/// `hi == u64::MAX` — so every key routes to exactly one shard.
pub struct RegionIndex<I> {
    shards: Vec<Shard<I>>,
}

impl<I: ConcurrentIndex + BulkLoad> RegionIndex<I> {
    /// Build a router over `pairs` (sorted, unique, no key 0) with
    /// explicit configuration. Shard boundaries are key quantiles of
    /// `pairs`.
    pub fn bulk_load_with(pairs: &[(Key, Value)], cfg: RegionConfig) -> Self {
        index_api::debug_validate_bulk_input(pairs);
        let n = if pairs.is_empty() {
            1
        } else {
            cfg.initial_shards.max(1)
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
        let shards = bounds
            .iter()
            .enumerate()
            .map(|(i, &lo)| {
                let hi = bounds.get(i + 1).map_or(Key::MAX, |&next| next - 1);
                let start = pairs.partition_point(|&(k, _)| k < lo);
                let end = pairs.partition_point(|&(k, _)| k <= hi);
                let index =
                    I::bulk_load_threaded(&pairs[start..end], cfg.construction_threads.max(1));
                Shard { lo, hi, index }
            })
            .collect();
        RegionIndex { shards }
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard ranges, ascending and contiguous — exposed for
    /// invariant checks in tests.
    pub fn shard_bounds(&self) -> Vec<(Key, Key)> {
        self.shards.iter().map(|s| (s.lo, s.hi)).collect()
    }

    /// The structural counters: all 0 (see [`RegionStats`]).
    pub fn stats(&self) -> RegionStats {
        RegionStats::default()
    }

    /// Position of the shard whose range contains `key` (total coverage
    /// makes this infallible).
    fn idx_of(&self, key: Key) -> usize {
        self.shards.partition_point(|s| s.hi < key)
    }

    /// The index that owns `key`.
    fn index_of(&self, key: Key) -> &I {
        &self.shards[self.idx_of(key)].index
    }
}

impl<I: ConcurrentIndex + BulkLoad> BulkLoad for RegionIndex<I> {
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

impl<I: ConcurrentIndex + BulkLoad> ConcurrentIndex for RegionIndex<I> {
    fn get(&self, key: Key) -> Option<Value> {
        self.index_of(key).get(key)
    }

    fn insert(&self, key: Key, value: Value) -> Result<()> {
        self.index_of(key).insert(key, value)
    }

    fn update(&self, key: Key, value: Value) -> Result<()> {
        self.index_of(key).update(key, value)
    }

    fn upsert(&self, key: Key, value: Value) -> Result<()> {
        self.index_of(key).upsert(key, value)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        self.index_of(key).remove(key)
    }

    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert!(
            out.len() >= keys.len(),
            "get_batch: out buffer ({}) shorter than keys ({})",
            out.len(),
            keys.len()
        );
        // Up to `GROUP` keys at a time: note each key's shard, then hand
        // every shard that owns some of them one `get_batch` of its own
        // keys, gathered into stack arrays, and scatter its answers back
        // to the caller's positions. `left` holds the positions not yet
        // answered; its lowest names the next shard to call, and `mine`
        // that shard's positions.
        let (mut shard_of, mut own, mut at, mut got) =
            ([0; GROUP], [0; GROUP], [0; GROUP], [None; GROUP]);
        for (keys, out) in keys.chunks(GROUP).zip(out.chunks_mut(GROUP)) {
            for (s, &k) in shard_of.iter_mut().zip(keys) {
                *s = self.idx_of(k);
            }
            let mut left = u64::MAX >> (GROUP - keys.len());
            while left != 0 {
                let shard = shard_of[left.trailing_zeros() as usize];
                let mut mine =
                    (0..keys.len()).fold(0, |m, i| m | u64::from(shard_of[i] == shard) << i);
                left &= !mine;
                let mut n = 0;
                while mine != 0 {
                    let i = mine.trailing_zeros() as usize;
                    (own[n], at[n]) = (keys[i], i);
                    n += 1;
                    mine &= mine - 1;
                }
                self.shards[shard].index.get_batch(&own[..n], &mut got[..n]);
                for (&i, &v) in at[..n].iter().zip(&got) {
                    out[i] = v;
                }
            }
        }
    }

    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        let start = out.len();
        for s in self.shards.iter().filter(|s| s.lo <= hi && lo <= s.hi) {
            s.index.range(lo.max(s.lo), hi.min(s.hi), out);
        }
        out.len() - start
    }

    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let start = out.len();
        let full = start.saturating_add(n);
        for s in &self.shards[self.idx_of(lo)..] {
            if out.len() >= full {
                break;
            }
            s.index.scan(lo.max(s.lo), full - out.len(), out);
        }
        out.len() - start
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of_val(&*self.shards)
            + self
                .shards
                .iter()
                .map(|s| s.index.memory_usage())
                .sum::<usize>()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.index.len()).sum()
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

    /// A [`MapIndex`] that records the keys of every `get_batch` call.
    struct Recorded(MapIndex, std::sync::Mutex<Vec<Vec<Key>>>);

    impl ConcurrentIndex for Recorded {
        fn get(&self, key: Key) -> Option<Value> {
            self.0.get(key)
        }
        fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
            self.1.lock().unwrap().push(keys.to_vec());
            self.0.get_batch(keys, out)
        }
        fn insert(&self, k: Key, v: Value) -> Result<()> {
            self.0.insert(k, v)
        }
        fn update(&self, k: Key, v: Value) -> Result<()> {
            self.0.update(k, v)
        }
        fn remove(&self, k: Key) -> Option<Value> {
            self.0.remove(k)
        }
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
            self.0.range(lo, hi, out)
        }
        fn memory_usage(&self) -> usize {
            self.0.memory_usage()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn name(&self) -> &'static str {
            "recorded"
        }
    }

    impl BulkLoad for Recorded {
        fn bulk_load(pairs: &[(Key, Value)]) -> Self {
            Recorded(MapIndex::bulk_load(pairs), Default::default())
        }
    }

    #[test]
    fn a_mixed_batch_calls_each_owning_shard_with_its_own_keys() {
        let idx: RegionIndex<Recorded> = RegionIndex::bulk_load_with(
            &pairs(1000),
            RegionConfig {
                initial_shards: 4,
                ..RegionConfig::default()
            },
        );
        let b = idx.shard_bounds();
        // 100 keys, interleaved over shards 0, 1 and 3, every tenth
        // present; shard 2 owns none.
        let keys: Vec<Key> = (0..100u64)
            .map(|i| b[[0, 1, 3][i as usize % 3]].0 + 1 + i * 37 % 600)
            .collect();
        assert!(keys.iter().any(|k| k % 10 == 0) && keys.iter().any(|k| k % 10 != 0));
        let mut out = vec![Some(0xDEAD); keys.len() + 1];
        idx.get_batch(&keys, &mut out);
        for (&k, &got) in keys.iter().zip(&out) {
            assert_eq!(
                got,
                (k % 10 == 0 && k <= 10_000).then_some(k + 1),
                "key {k}"
            );
        }
        assert_eq!(out[keys.len()], Some(0xDEAD), "past the keys");
        for (s, shard) in idx.shards.iter().enumerate() {
            let calls = shard.index.1.lock().unwrap();
            let mine: Vec<Key> = keys
                .iter()
                .copied()
                .filter(|&k| idx.idx_of(k) == s)
                .collect();
            if mine.is_empty() {
                assert!(calls.is_empty(), "shard {s} owns no key and is not called");
                continue;
            }
            // One call per 64-key group that holds keys of this shard,
            // each with those keys in the caller's order.
            let groups = keys
                .chunks(GROUP)
                .filter(|g| g.iter().any(|&k| idx.idx_of(k) == s));
            assert_eq!(calls.len(), groups.count(), "shard {s}");
            assert!(calls.iter().all(|c| !c.is_empty() && c.len() <= GROUP));
            assert_eq!(calls.concat(), mine, "shard {s}: its own keys, in order");
        }
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
