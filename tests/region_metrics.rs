//! Acceptance test for the ISSUE 10 region observability: the
//! `region.batch_flushes` counter (`probe::metrics`
//! `RegionBatchFlush`) must light up when the serving path it instruments
//! actually runs, and agree with the server's own flush counters. If it
//! stays zero the hook fell off its hot path — the regression this test
//! pins down.
//!
//! Run with: `cargo test --features "chaos metrics" --test region_metrics`
#![cfg(all(feature = "chaos", feature = "metrics"))]

use alt_index::AltIndex;
use index_api::{BulkLoad, ConcurrentIndex};
use probe::metrics::Counter;
use region::{BatchServer, RegionIndex, ServeConfig};
use std::sync::Arc;

/// One full serving ring through the batch front-end flushes, and every
/// flush is counted once by the probe and once by the server.
#[test]
fn region_serving_counters_light_up() {
    let before = probe::metrics::snapshot();

    let pairs: Vec<(u64, u64)> = (1..=400u64).map(|k| (k * 5, k)).collect();
    let idx = RegionIndex::<AltIndex>::bulk_load(&pairs);
    let srv = BatchServer::new(
        Arc::new(idx) as Arc<dyn ConcurrentIndex>,
        ServeConfig {
            ring_width: 4,
            max_depth: 64,
        },
    );
    let srv = Arc::new(srv);
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .build()
        .unwrap();
    let handles: Vec<_> = (1..=16u64)
        .map(|k| {
            let srv = Arc::clone(&srv);
            rt.spawn(async move { srv.get(k * 5).await.unwrap() })
        })
        .collect();
    rt.block_on(async {
        for h in handles {
            assert!(h.await.unwrap().is_some());
        }
    });
    drop(rt);
    // Every request was batched, and every flush is one of the two kinds:
    // four full rings at most, the rest by group-commit leaders.
    let st = srv.stats();
    assert_eq!((st.served, st.batched_keys), (16, 16));
    assert_eq!(st.flushes, st.ring_flushes + st.leader_flushes);
    assert!(st.flushes > 0 && st.ring_flushes <= 4, "{st:?}");
    drop(srv);

    let delta = probe::metrics::snapshot().delta(&before);
    assert_eq!(
        delta.get(Counter::RegionBatchFlush),
        st.ring_flushes + st.leader_flushes,
        "the probe counter and the two serve counters count the same flushes:\n{}",
        delta.render()
    );
}
