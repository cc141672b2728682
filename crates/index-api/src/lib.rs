//! Common trait surface for every ordered key-value index in this
//! repository: ALT-index itself, the standalone ART baseline, and the
//! reimplemented competitors (ALEX+, LIPP+, XIndex, FINEdex).
//!
//! All indexes map 64-bit keys to 64-bit values. Key `0` is reserved as the
//! empty/removed sentinel inside several slot-array layouts (the ALT-index
//! paper's remove operation "sets the key to zero"), so the public API
//! rejects it uniformly via [`IndexError::ReservedKey`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Key type used throughout the repository.
pub type Key = u64;
/// Value type used throughout the repository.
pub type Value = u64;

/// The reserved key that no index accepts (used as the empty sentinel in
/// slot arrays).
pub const RESERVED_KEY: Key = 0;

/// Errors returned by index mutation operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// The key `0` is reserved as the empty-slot sentinel.
    ReservedKey,
    /// An insert found the key already present (use `update` instead).
    DuplicateKey,
    /// An update or remove did not find the key.
    KeyNotFound,
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::ReservedKey => write!(f, "key 0 is reserved as the empty-slot sentinel"),
            IndexError::DuplicateKey => write!(f, "key already present"),
            IndexError::KeyNotFound => write!(f, "key not found"),
        }
    }
}

impl std::error::Error for IndexError {}

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, IndexError>;

/// A thread-safe ordered index over `u64 -> u64`.
///
/// All methods take `&self`; implementations handle their own
/// synchronization (the whole point of the ALT-index evaluation is
/// concurrent read-write behaviour).
pub trait ConcurrentIndex: Send + Sync {
    /// Point lookup. Returns the value if the key is present.
    fn get(&self, key: Key) -> Option<Value>;

    /// Insert a new key. Returns [`IndexError::DuplicateKey`] if present.
    fn insert(&self, key: Key, value: Value) -> Result<()>;

    /// Update an existing key in place. Returns
    /// [`IndexError::KeyNotFound`] if absent.
    fn update(&self, key: Key, value: Value) -> Result<()>;

    /// Insert-or-update. Default implementation composes `insert`/`update`;
    /// implementations may override with a native upsert.
    fn upsert(&self, key: Key, value: Value) -> Result<()> {
        match self.insert(key, value) {
            Err(IndexError::DuplicateKey) => self.update(key, value),
            other => other,
        }
    }

    /// Remove a key, returning its value if it was present.
    fn remove(&self, key: Key) -> Option<Value>;

    /// Batched point lookup: store `get(keys[i])` into `out[i]` for every
    /// key. `out` must be at least as long as `keys`; entries past
    /// `keys.len()` are left untouched.
    ///
    /// Semantics are **per-key linearizable**: each result is exactly
    /// what some interleaved call of [`ConcurrentIndex::get`] would have
    /// returned, but the batch as a whole is *not* a snapshot — under
    /// concurrent writers, different keys may observe different points in
    /// time (the same guarantee a loop of `get`s gives).
    ///
    /// The default implementation is that loop of `get`s, so every index
    /// supports batching; `AltIndex` and `Art` override it with
    /// AMAC-style interleaved state machines that overlap the cache
    /// misses of many in-flight keys (see `DESIGN.md` §13), and the
    /// baselines override it with a group-prefetch variant.
    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert!(
            out.len() >= keys.len(),
            "get_batch: out buffer ({}) shorter than keys ({})",
            out.len(),
            keys.len()
        );
        for (k, o) in keys.iter().zip(out.iter_mut()) {
            *o = self.get(*k);
        }
    }

    /// Number of independent batch-submission domains this index exposes:
    /// partitions of the key space whose keys were once worth queueing
    /// into the same [`ConcurrentIndex::get_batch`] ring. Always 1.
    ///
    /// No code in the workspace calls this or
    /// [`ConcurrentIndex::batch_domain_of`], and no index overrides them:
    /// the serving front-end keeps one submission queue per thread stripe
    /// whatever the key, and the region router's `get_batch` groups a
    /// mixed batch by shard itself. Both methods stay only because the
    /// benchmark's `Traced` wrapper (`benchmark/src/trace.rs`) forwards
    /// them; ROADMAP item 1(a) deletes them together with it.
    fn batch_domains(&self) -> usize {
        1
    }

    /// The batch-submission domain `key` maps to: always 0. See
    /// [`ConcurrentIndex::batch_domains`], which says why it is kept.
    fn batch_domain_of(&self, key: Key) -> usize {
        let _ = key;
        0
    }

    /// Range scan: append every `(key, value)` with `lo <= key <= hi` to
    /// `out`, in ascending key order. Returns the number of entries
    /// appended.
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize;

    /// Scan: append the first `n` entries with `key >= lo` to `out`, in
    /// ascending key order (fewer if the index runs out). Like
    /// [`range`](Self::range) it appends — what `out` already holds
    /// stays — and returns the number of entries appended. This is the
    /// paper's "scan workload" shape (100-key scans). Default
    /// implementation does a bounded range and truncates; implementations
    /// with native iteration may override.
    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        // Default: exponentially widen the range until enough entries or
        // the key space is exhausted.
        let start = out.len();
        let mut width: u64 = 1 << 16;
        loop {
            out.truncate(start);
            let hi = lo.saturating_add(width);
            self.range(lo, hi, out);
            if out.len() - start >= n || hi == Key::MAX {
                out.truncate(start.saturating_add(n));
                return out.len() - start;
            }
            width = width.saturating_mul(64);
        }
    }

    /// Approximate resident memory of the index structure in bytes
    /// (excluding the allocator's own bookkeeping). Used by the Fig 8(a)
    /// space-overhead experiment.
    fn memory_usage(&self) -> usize;

    /// Number of keys currently stored (approximate under concurrency).
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short display name used by the benchmark harness.
    fn name(&self) -> &'static str;
}

/// Construction from a sorted, deduplicated bulk-load array.
///
/// The evaluation bulk-loads 50% of each dataset before running a workload;
/// every index implements this.
pub trait BulkLoad: Sized {
    /// Build the index over `pairs`, which must be sorted by key, free of
    /// duplicates, and free of the reserved key 0.
    ///
    /// Implementations must reject invalid input uniformly: call
    /// [`debug_validate_bulk_input`] (a debug-assert-tier check — free in
    /// release builds) before touching the data.
    fn bulk_load(pairs: &[(Key, Value)]) -> Self;

    /// Build the index over `pairs` using up to `threads` worker threads.
    ///
    /// The result must be observably identical to [`BulkLoad::bulk_load`]
    /// for every thread count (the build-equivalence contract). The
    /// default implementation is the generic fallback for indexes without
    /// a parallel builder: it simply delegates to the serial path.
    /// `AltIndex` and `Art` override it.
    fn bulk_load_threaded(pairs: &[(Key, Value)], threads: usize) -> Self {
        let _ = threads;
        Self::bulk_load(pairs)
    }
}

/// Validates a bulk-load input slice: sorted, unique, no reserved key.
/// Returns `Err` with a description of the first violation.
pub fn validate_bulk_input(pairs: &[(Key, Value)]) -> std::result::Result<(), String> {
    let mut prev: Option<Key> = None;
    for (i, &(k, _)) in pairs.iter().enumerate() {
        if k == RESERVED_KEY {
            return Err(format!("reserved key 0 at position {i}"));
        }
        if let Some(p) = prev {
            if k < p {
                return Err(format!("unsorted at position {i}: {k} < {p}"));
            }
            if k == p {
                return Err(format!("duplicate key {k} at position {i}"));
            }
        }
        prev = Some(k);
    }
    Ok(())
}

/// Debug-assert-tier bulk-input validation used by every [`BulkLoad`]
/// impl: panics with the violation description in debug builds, compiles
/// to nothing in release builds (bulk load is on the measured path of the
/// build benchmarks, and the input contract is the caller's).
#[track_caller]
pub fn debug_validate_bulk_input(pairs: &[(Key, Value)]) {
    if cfg!(debug_assertions) {
        if let Err(e) = validate_bulk_input(pairs) {
            panic!("invalid bulk-load input: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// Minimal reference implementation used to exercise the trait's
    /// default methods.
    struct RefIndex(Mutex<BTreeMap<Key, Value>>);

    impl ConcurrentIndex for RefIndex {
        fn get(&self, key: Key) -> Option<Value> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn insert(&self, key: Key, value: Value) -> Result<()> {
            if key == RESERVED_KEY {
                return Err(IndexError::ReservedKey);
            }
            let mut m = self.0.lock().unwrap();
            if m.contains_key(&key) {
                return Err(IndexError::DuplicateKey);
            }
            m.insert(key, value);
            Ok(())
        }
        fn update(&self, key: Key, value: Value) -> Result<()> {
            let mut m = self.0.lock().unwrap();
            match m.get_mut(&key) {
                Some(v) => {
                    *v = value;
                    Ok(())
                }
                None => Err(IndexError::KeyNotFound),
            }
        }
        fn remove(&self, key: Key) -> Option<Value> {
            self.0.lock().unwrap().remove(&key)
        }
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
            let m = self.0.lock().unwrap();
            let before = out.len();
            out.extend(m.range(lo..=hi).map(|(&k, &v)| (k, v)));
            out.len() - before
        }
        fn memory_usage(&self) -> usize {
            self.0.lock().unwrap().len() * 16
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        fn name(&self) -> &'static str {
            "ref"
        }
    }

    #[test]
    fn upsert_default_inserts_then_updates() {
        let idx = RefIndex(Mutex::new(BTreeMap::new()));
        idx.upsert(5, 50).unwrap();
        assert_eq!(idx.get(5), Some(50));
        idx.upsert(5, 51).unwrap();
        assert_eq!(idx.get(5), Some(51));
    }

    #[test]
    fn scan_default_collects_n_entries() {
        let idx = RefIndex(Mutex::new(BTreeMap::new()));
        for k in 1..=100u64 {
            idx.insert(k * 1000, k).unwrap();
        }
        let mut out = Vec::new();
        let n = idx.scan(5000, 10, &mut out);
        assert_eq!(n, 10);
        assert_eq!(out[0].0, 5000);
        assert_eq!(out[9].0, 14000);
    }

    #[test]
    fn scan_default_appends_to_a_non_empty_out() {
        let idx = RefIndex(Mutex::new(BTreeMap::new()));
        for k in 1..=100u64 {
            idx.insert(k << 20, k).unwrap();
        }
        // The second widening pass must drop the first pass's entries and
        // nothing else.
        let mut out = vec![(7, 7)];
        assert_eq!(idx.scan(1 << 20, 3, &mut out), 3);
        assert_eq!(out, [(7, 7), (1 << 20, 1), (2 << 20, 2), (3 << 20, 3)]);
        assert_eq!(idx.scan(101 << 20, 3, &mut out), 0);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn scan_default_handles_tail_of_keyspace() {
        let idx = RefIndex(Mutex::new(BTreeMap::new()));
        idx.insert(Key::MAX - 1, 1).unwrap();
        idx.insert(Key::MAX, 2).unwrap();
        let mut out = Vec::new();
        let n = idx.scan(Key::MAX - 1, 10, &mut out);
        assert_eq!(n, 2);
    }

    #[test]
    fn validate_accepts_sorted_unique() {
        assert!(validate_bulk_input(&[(1, 0), (2, 0), (9, 0)]).is_ok());
        assert!(validate_bulk_input(&[]).is_ok());
    }

    #[test]
    fn validate_rejects_reserved_unsorted_duplicate() {
        assert!(validate_bulk_input(&[(0, 0)]).is_err());
        assert!(validate_bulk_input(&[(2, 0), (1, 0)]).is_err());
        assert!(validate_bulk_input(&[(2, 0), (2, 0)]).is_err());
    }

    /// Trivial BulkLoad impl to exercise the trait's default threaded
    /// entry point and the shared validation helper.
    struct VecIndex(Vec<(Key, Value)>);

    impl BulkLoad for VecIndex {
        fn bulk_load(pairs: &[(Key, Value)]) -> Self {
            debug_validate_bulk_input(pairs);
            VecIndex(pairs.to_vec())
        }
    }

    #[test]
    fn bulk_load_threaded_default_delegates_to_serial() {
        let pairs = [(1u64, 10u64), (5, 50), (9, 90)];
        let a = VecIndex::bulk_load(&pairs);
        let b = VecIndex::bulk_load_threaded(&pairs, 8);
        assert_eq!(a.0, b.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "invalid bulk-load input")]
    fn debug_validate_panics_on_bad_input() {
        debug_validate_bulk_input(&[(2, 0), (1, 0)]);
    }

    #[test]
    fn get_batch_default_matches_sequential_gets() {
        let idx = RefIndex(Mutex::new(BTreeMap::new()));
        for k in 1..=50u64 {
            idx.insert(k * 3, k).unwrap();
        }
        // Present, absent, and reserved keys, in arbitrary order.
        let keys = [3u64, 4, 0, 150, 149, 30];
        let mut out = vec![None; keys.len() + 2];
        out[keys.len()] = Some(0xDEAD); // past-the-end entries stay put
        idx.get_batch(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], idx.get(k), "key {k}");
        }
        assert_eq!(out[keys.len()], Some(0xDEAD));

        // Width edge case: the empty batch is a no-op.
        idx.get_batch(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "out buffer")]
    fn get_batch_rejects_short_out_buffer() {
        let idx = RefIndex(Mutex::new(BTreeMap::new()));
        idx.get_batch(&[1, 2, 3], &mut [None; 2]);
    }

    #[test]
    fn batch_domains_default_is_single() {
        let idx = RefIndex(Mutex::new(BTreeMap::new()));
        assert_eq!(idx.batch_domains(), 1);
        for k in [0u64, 1, 42, Key::MAX] {
            assert_eq!(idx.batch_domain_of(k), 0);
        }
        // Object safety: the domain map is reachable through a trait
        // object.
        let dyn_idx: &dyn ConcurrentIndex = &idx;
        assert_eq!(dyn_idx.batch_domains(), 1);
    }

    #[test]
    fn is_empty_tracks_len() {
        let idx = RefIndex(Mutex::new(BTreeMap::new()));
        assert!(idx.is_empty());
        idx.insert(1, 1).unwrap();
        assert!(!idx.is_empty());
    }
}
