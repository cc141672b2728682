//! [`index_api::ConcurrentIndex`] / [`index_api::BulkLoad`] adapters so
//! the benchmark harness drives ALT-index uniformly with the baselines.

use crate::index::AltIndex;
use index_api::{BulkLoad, ConcurrentIndex, Key, Result, Value};

impl ConcurrentIndex for AltIndex {
    fn get(&self, key: Key) -> Option<Value> {
        AltIndex::get(self, key)
    }

    fn insert(&self, key: Key, value: Value) -> Result<()> {
        AltIndex::insert(self, key, value)
    }

    fn update(&self, key: Key, value: Value) -> Result<()> {
        AltIndex::update(self, key, value)
    }

    fn upsert(&self, key: Key, value: Value) -> Result<()> {
        AltIndex::upsert(self, key, value)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        AltIndex::remove(self, key)
    }

    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        AltIndex::get_batch_amac(self, keys, out)
    }

    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        AltIndex::range(self, lo, hi, out)
    }

    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        AltIndex::scan_n(self, lo, n, out)
    }

    fn memory_usage(&self) -> usize {
        AltIndex::memory_usage(self)
    }

    fn len(&self) -> usize {
        AltIndex::len(self)
    }

    fn name(&self) -> &'static str {
        "ALT-index"
    }
}

impl BulkLoad for AltIndex {
    fn bulk_load(pairs: &[(Key, Value)]) -> Self {
        AltIndex::bulk_load_default(pairs)
    }

    fn bulk_load_threaded(pairs: &[(Key, Value)], threads: usize) -> Self {
        AltIndex::bulk_load_with(
            pairs,
            crate::config::AltConfig {
                build_threads: threads.max(1),
                ..Default::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_roundtrip() {
        let pairs: Vec<(u64, u64)> = (1..=1000u64).map(|k| (k * 3, k)).collect();
        let idx: Box<dyn ConcurrentIndex> = Box::new(AltIndex::bulk_load(&pairs));
        assert_eq!(idx.name(), "ALT-index");
        assert_eq!(idx.get(3), Some(1));
        idx.insert(5, 50).unwrap();
        assert_eq!(idx.get(5), Some(50));
        let mut out = Vec::new();
        assert_eq!(idx.scan(1, 3, &mut out), 3);
        assert_eq!(out[0], (3, 1));
        assert!(idx.memory_usage() > 0);
    }
}
