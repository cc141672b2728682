//! Acceptance test for the ISSUE 10 region observability: the
//! `region.{split,merge,migrated_keys,route_retries,batch_flushes}`
//! counters (`probe::metrics` `RegionSplit` / `RegionMerge` / `RegionMigratedKeys` /
//! `RegionRouteRetry` / `RegionBatchFlush`) must light up when the
//! structural and serving paths they instrument actually run. If one
//! stays zero the hook fell off its hot path — the regression this test
//! pins down.
//!
//! Split, merge, migration, and batch-flush are driven deterministically
//! (explicit maintenance ticks, a full serving ring). Route retries need
//! a reader to be mid-flight across a routing-table swap, so they are
//! provoked with reader threads hammering the splitting shard under a
//! chaos schedule (which widens the read window) and re-seeded rounds.
//!
//! Run with: `cargo test --features "chaos metrics" --test region_metrics`
#![cfg(all(feature = "chaos", feature = "metrics"))]

use alt_index::AltIndex;
use index_api::ConcurrentIndex;
use probe::metrics::Counter;
use region::{BatchServer, RegionConfig, RegionIndex, ServeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn tick_cfg() -> RegionConfig {
    RegionConfig {
        initial_shards: 2,
        max_shards: 8,
        min_split_keys: 8,
        merge_max_keys: 1 << 20,
        split_ops_threshold: 1,
        merge_ops_threshold: 0,
        auto: false,
        ..RegionConfig::default()
    }
}

/// Deterministic counters: one hot tick splits (migrating the upper
/// half), one idle tick merges, and one full serving ring flushes.
#[test]
fn region_structural_and_serving_counters_light_up() {
    let before = probe::metrics::snapshot();

    let pairs: Vec<(u64, u64)> = (1..=400u64).map(|k| (k * 5, k)).collect();
    let idx = RegionIndex::<AltIndex>::bulk_load_with(&pairs, tick_cfg());
    for _ in 0..10 {
        idx.get(5); // heat shard 0
    }
    let r = idx.tick();
    assert!(r.split, "hot tick must split");
    let r = idx.tick();
    assert!(r.merge, "idle tick must merge");

    // Serving path: exactly one full ring through the batch front-end.
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
        "the probe counter and the two serve counters count the same flushes"
    );
    for c in [
        Counter::RegionSplit,
        Counter::RegionMerge,
        Counter::RegionMigratedKeys,
        Counter::RegionBatchFlush,
    ] {
        assert!(
            delta.get(c) > 0,
            "{} stayed zero:\n{}",
            c.name(),
            delta.render()
        );
    }
}

/// One route-retry round: readers hammer the keys of the shard being
/// split while the main thread ticks; any reader mid-`get` across the
/// table swap observes the retired shard and re-routes.
fn route_retry_round(seed: u64) {
    let _guard = probe::chaos::install_schedule(seed, 512);
    let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|k| (k * 5, k)).collect();
    let idx = Arc::new(RegionIndex::<AltIndex>::bulk_load_with(&pairs, tick_cfg()));

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..3u64)
        .map(|t| {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    for k in (1 + t..=500u64).step_by(3) {
                        std::hint::black_box(idx.get(k * 5));
                    }
                }
            })
        })
        .collect();

    barrier.wait();
    // Keep splitting the read-hot shards while the readers run: every
    // tick retires at least one shard the readers are mid-flight on.
    for _ in 0..6 {
        idx.tick();
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn route_retries_are_observable_under_swap_races() {
    let before = probe::metrics::snapshot();
    let mut rounds = 0u64;
    loop {
        route_retry_round(0x7E61_0000 + rounds);
        rounds += 1;
        let delta = probe::metrics::snapshot().delta(&before);
        if delta.get(Counter::RegionRouteRetry) > 0 || rounds == 8 {
            break;
        }
    }
    let delta = probe::metrics::snapshot().delta(&before);
    assert!(
        delta.get(Counter::RegionRouteRetry) > 0,
        "no reader ever re-routed across {rounds} swap-race round(s):\n{}",
        delta.render()
    );
}
