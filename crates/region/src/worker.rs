//! The background maintenance worker: a single thread that wakes every
//! `check_interval`, runs one maintenance pass (split the hottest shard,
//! merge the coldest pair), and exits when the router drops.

use crate::router::{lock, Inner};
use index_api::{BulkLoad, ConcurrentIndex};
use std::sync::Arc;

pub(crate) fn spawn<I: ConcurrentIndex + BulkLoad + 'static>(
    inner: Arc<Inner<I>>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("region-maintenance".into())
        .spawn(move || loop {
            {
                let mut down = lock(&inner.shutdown);
                while !*down {
                    let (g, timeout) = inner
                        .wake
                        .wait_timeout(down, inner.cfg.check_interval)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    down = g;
                    if timeout.timed_out() {
                        break;
                    }
                }
                if *down {
                    return;
                }
            }
            inner.maintenance();
        })
        .expect("spawn region maintenance worker")
}

#[cfg(test)]
mod tests {
    use crate::testutil::MapIndex;
    use crate::{RegionConfig, RegionIndex};
    use index_api::ConcurrentIndex;
    use std::time::{Duration, Instant};

    #[test]
    fn auto_worker_splits_hot_shard_and_shuts_down() {
        let pairs: Vec<(u64, u64)> = (1..=200u64).map(|k| (k * 7, k)).collect();
        let cfg = RegionConfig {
            initial_shards: 1,
            min_split_keys: 8,
            split_ops_threshold: 1,
            merge_ops_threshold: 0,
            merge_max_keys: 0,
            check_interval: Duration::from_millis(1),
            auto: true,
            ..RegionConfig::default()
        };
        let idx = RegionIndex::<MapIndex>::bulk_load_with(&pairs, cfg);
        let deadline = Instant::now() + Duration::from_secs(10);
        while idx.stats().splits == 0 && Instant::now() < deadline {
            for &(k, _) in &pairs {
                let _ = idx.get(k);
            }
        }
        assert!(idx.stats().splits > 0, "worker never split the hot shard");
        assert!(idx.shard_count() > 1);
        drop(idx); // must join the worker without hanging
    }
}
