//! Range-sharded **region router**: wraps any [`index_api::ConcurrentIndex`]
//! in N key-range shards fixed at bulk load, and serves point lookups
//! through an async batching front-end that turns in-flight requests into
//! AMAC `get_batch` rings.
//!
//! # Architecture (DESIGN.md §17)
//!
//! * [`RegionIndex`] — the router. Bulk load cuts the key space at key
//!   quantiles and builds one index per range; the shard list never
//!   changes afterwards, so every operation binary-searches the bounds
//!   and calls its shard's index directly. What the shards buy is a
//!   range-partitioned bulk load. A `get_batch` of mixed keys runs one
//!   `get_batch` per shard that owns some of them, so each AMAC ring
//!   still runs on one index.
//! * [`BatchServer`] — the serving front-end. Submission queues, one per
//!   submitting thread's stripe whatever the key, accumulate in-flight
//!   gets; the submitter that fills a ring, or the queue's group-commit
//!   leader after one yield, executes one `get_batch` per queue, so the
//!   AMAC engines see real batches on the serving path with no thread of
//!   the server's own, and a request never leaves the worker that
//!   submitted it. Admission control sheds load through the `resilience`
//!   retry budget when the server stays saturated.
//!
//! The router is index-agnostic: any `ConcurrentIndex + BulkLoad` works
//! as the per-shard engine (`RegionIndex<AltIndex>`, `RegionIndex<Art>`,
//! ...).

#![warn(missing_docs)]

mod router;
mod serve;

pub use router::{RegionIndex, RegionStats};
#[doc(hidden)]
pub use serve::Credits;
pub use serve::{BatchServer, ServeConfig, ServeError, ServeStats};

/// Tuning knobs for a [`RegionIndex`].
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// Shard count (boundaries are key-quantiles of the bulk-load array;
    /// duplicate boundaries collapse). Clamped to at least 1.
    pub initial_shards: usize,
    /// Worker threads each per-shard index is bulk-loaded with.
    pub construction_threads: usize,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            initial_shards: 4,
            construction_threads: 1,
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A minimal reference index (mutex + `BTreeMap`) so the router's
    //! unit tests don't depend on any real engine crate.
    use index_api::{BulkLoad, ConcurrentIndex, IndexError, Key, Result, Value, RESERVED_KEY};
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    pub(crate) struct MapIndex(Mutex<BTreeMap<Key, Value>>);

    impl ConcurrentIndex for MapIndex {
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
            match self.0.lock().unwrap().get_mut(&key) {
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
            "map"
        }
    }

    impl BulkLoad for MapIndex {
        fn bulk_load(pairs: &[(Key, Value)]) -> Self {
            index_api::debug_validate_bulk_input(pairs);
            MapIndex(Mutex::new(pairs.iter().copied().collect()))
        }
    }
}
