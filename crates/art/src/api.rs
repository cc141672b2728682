//! [`index_api::ConcurrentIndex`] adapter: the standalone "ART" baseline
//! of Table I and Figs 7-9.

use crate::tree::Art;
use index_api::{BulkLoad, ConcurrentIndex, IndexError, Key, Result, Value};

impl ConcurrentIndex for Art {
    fn get(&self, key: Key) -> Option<Value> {
        Art::get(self, key)
    }

    fn insert(&self, key: Key, value: Value) -> Result<()> {
        if key == index_api::RESERVED_KEY {
            return Err(IndexError::ReservedKey);
        }
        if Art::insert(self, key, value) {
            Ok(())
        } else {
            Err(IndexError::DuplicateKey)
        }
    }

    fn update(&self, key: Key, value: Value) -> Result<()> {
        if Art::update(self, key, value) {
            Ok(())
        } else {
            Err(IndexError::KeyNotFound)
        }
    }

    fn remove(&self, key: Key) -> Option<Value> {
        Art::remove(self, key)
    }

    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        Art::get_batch_amac(self, keys, out)
    }

    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        Art::range(self, lo, hi, out)
    }

    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        Art::scan_n(self, lo, n, out)
    }

    fn memory_usage(&self) -> usize {
        Art::memory_usage(self)
    }

    fn len(&self) -> usize {
        Art::len(self)
    }

    fn name(&self) -> &'static str {
        "ART"
    }
}

impl Art {
    /// Fewest keys worth giving a build worker of its own: below this,
    /// spawn and join cost more than the work they split.
    pub const PARALLEL_MIN_KEYS: usize = 1024;

    /// Insert a sorted run of new keys from up to `threads` threads, one
    /// contiguous shard of at least [`Self::PARALLEL_MIN_KEYS`] keys each
    /// (the first on the calling thread, so a short run spawns nothing):
    /// the shard count is settled first, then the size, so no thread is
    /// spawned for a remainder.
    /// ART's structure for a fixed key set is insertion-order independent
    /// (radix paths and node sizes come from the key bytes alone), so the
    /// tree is the same for every `threads`.
    pub fn insert_run(&self, run: &[(Key, Value)], threads: usize) {
        let insert = |shard: &[(Key, Value)]| {
            for &(k, v) in shard {
                self.insert(k, v);
            }
        };
        let shards = threads.min(run.len() / Self::PARALLEL_MIN_KEYS).max(1);
        let mut shards = run.chunks(run.len().div_ceil(shards).max(1));
        let first = shards.next().unwrap_or_default();
        std::thread::scope(|s| {
            for shard in shards {
                s.spawn(move || {
                    probe::chaos::point("bulk.par.art");
                    insert(shard)
                });
            }
            insert(first)
        });
    }
}

impl BulkLoad for Art {
    fn bulk_load(pairs: &[(Key, Value)]) -> Self {
        Self::bulk_load_threaded(pairs, 1)
    }

    fn bulk_load_threaded(pairs: &[(Key, Value)], threads: usize) -> Self {
        index_api::debug_validate_bulk_input(pairs);
        let t = Art::new();
        t.insert_run(pairs, threads);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrip_via_trait() {
        let pairs: Vec<(u64, u64)> = (1..=1000u64).map(|i| (i * 5, i)).collect();
        let t: Box<dyn ConcurrentIndex> = Box::new(Art::bulk_load(&pairs));
        assert_eq!(t.name(), "ART");
        assert_eq!(t.len(), 1000);
        assert_eq!(t.get(5), Some(1));
        assert_eq!(t.insert(5, 9), Err(IndexError::DuplicateKey));
        assert_eq!(t.insert(0, 9), Err(IndexError::ReservedKey));
        t.update(5, 10).unwrap();
        assert_eq!(t.get(5), Some(10));
        let mut out = Vec::new();
        assert_eq!(t.scan(4, 2, &mut out), 2);
        assert_eq!(t.remove(5), Some(10));
    }
}
