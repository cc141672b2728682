//! Chaos sweep for the region router (ISSUE 10): seeded concurrent
//! workloads run against a `RegionIndex<AltIndex>` whose background
//! maintenance worker splits hotspots and merges cold neighbours *while*
//! the oracle's reader/writer/scanner threads hammer the key space.
//!
//! Every seed is oracle-checked (disjoint-key exact replay alternating
//! with shared-key last-writer-wins), then maintenance is frozen
//! (`freeze_maintenance` — the worker keeps churning after traffic
//! stops, so a bare quiesce is not a stable observation point) and the
//! structural invariants re-verified: shard ranges contiguous and
//! ascending over the whole key space, the full-range scan strictly
//! sorted, and the scan length equal to `len()` — a split whose cleanup
//! leaked or duplicated migrated keys fails here even if no individual
//! probe caught it mid-run.
//!
//! With `--features chaos` the `region.split` / `region.swap` points
//! inject seeded delays into exactly the windows where concurrent
//! writers race the phase-1 copy and readers race shard retirement.
//! Without the feature the same workloads run unperturbed, so this file
//! doubles as a plain concurrency suite for the router.
//!
//! `CHAOS_SEED_BASE` (env, decimal) offsets the seed range, as in
//! `chaos_schedules.rs`.

use alt_index::AltIndex;
use index_api::ConcurrentIndex;
use region::{RegionConfig, RegionIndex};
use std::time::Duration;
use testkit::harness::Scenario;

/// Seeds for the main sweep; the ISSUE acceptance bar is ≥8.
const SEEDS: u64 = 8;

fn seed_base() -> u64 {
    match std::env::var("CHAOS_SEED_BASE") {
        Err(_) => 0,
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_SEED_BASE must be a decimal u64, got {s:?}")),
    }
}

/// A router tuned so structural churn actually happens inside one
/// scenario run (universe ~1.5k keys, a few hundred ms of traffic):
/// every touched shard is split-eligible each 1ms tick, and any pair
/// left idle for a tick is merge-eligible — so the background worker
/// keeps racing splits *and* merges against the workload.
fn churn_cfg() -> RegionConfig {
    RegionConfig {
        initial_shards: 2,
        max_shards: 8,
        min_split_keys: 16,
        merge_max_keys: 1 << 20,
        split_ops_threshold: 1,
        merge_ops_threshold: 0,
        check_interval: Duration::from_millis(1),
        auto: true,
        construction_threads: 1,
    }
}

/// Post-run structural invariants, checked under `freeze_maintenance`.
/// A bare `quiesce()` is not enough here: with `auto: true` the worker
/// keeps merging idle shards after traffic stops, so an unfrozen
/// `range()` and `len()` can straddle a structural change — a split
/// mid-cleanup transiently overcounts `len()` by the migrated keys that
/// routing already clamps out. The freeze drains in-flight work
/// (including that cleanup) and holds further ticks off, so the checks
/// see one exact, mutually consistent state.
fn assert_region_invariants(idx: &RegionIndex<AltIndex>, label: &str) {
    let _frozen = idx.freeze_maintenance();
    let bounds = idx.shard_bounds();
    assert_eq!(bounds[0].0, 0, "{label}: first shard must start at 0");
    assert_eq!(
        bounds.last().expect("at least one shard").1,
        u64::MAX,
        "{label}: last shard must end at MAX"
    );
    for w in bounds.windows(2) {
        assert_eq!(
            w[1].0,
            w[0].1 + 1,
            "{label}: shard ranges must be contiguous, got {bounds:?}"
        );
    }
    let mut dump = Vec::new();
    idx.range(1, u64::MAX, &mut dump);
    assert!(
        dump.windows(2).all(|w| w[0].0 < w[1].0),
        "{label}: frozen scan not strictly sorted (duplicated or resurrected keys)"
    );
    assert_eq!(dump.len(), idx.len(), "{label}: frozen scan/len divergence");
}

/// The main sweep: ≥8 seeds of oracle-checked traffic racing the
/// auto-maintenance worker, alternating partition modes. The aggregate
/// split count across the sweep must be nonzero — otherwise the worker
/// never engaged and the "racing split/merge" part of the test is
/// vacuous.
#[test]
fn chaos_region_router() {
    let base = seed_base();
    let mut total_splits = 0u64;
    let mut total_merges = 0u64;
    for s in 0..SEEDS {
        let seed = base + 13_000 + s;
        let scenario = if s % 2 == 0 {
            Scenario::disjoint(seed)
        } else {
            Scenario::shared(seed)
        };
        let idx = RegionIndex::<AltIndex>::bulk_load_with(&scenario.initial_pairs(), churn_cfg());
        if let Err(report) = scenario.run(&idx) {
            panic!("region seed {seed} ({:?}): {report}", scenario.partition);
        }
        assert_region_invariants(&idx, &format!("region seed {seed}"));
        let st = idx.stats();
        total_splits += st.splits;
        total_merges += st.merges;
    }
    assert!(
        total_splits > 0,
        "no seed ever split a shard — the sweep never exercised structural churn"
    );
    // Merges depend on a shard pair going idle for a tick; over 8 seeds
    // of bursty traffic that should happen, but it is load-dependent, so
    // it is reported rather than asserted per-seed.
    eprintln!(
        "region chaos sweep: {total_splits} splits, {total_merges} merges across {SEEDS} seeds"
    );
}

/// Batched reads through the router's shard-grouping `get_batch` racing
/// the same structural churn: a shard retired mid-batch must be redone
/// through the validated scalar path, and every batched read must stay
/// per-key linearizable.
#[test]
fn chaos_region_batched() {
    let base = seed_base();
    for s in 0..4u64 {
        let seed = base + 13_100 + s;
        let mut scenario = if s % 2 == 0 {
            Scenario::disjoint(seed)
        } else {
            Scenario::shared(seed)
        };
        scenario.batch_width = art::RING_WIDTH;
        let idx = RegionIndex::<AltIndex>::bulk_load_with(&scenario.initial_pairs(), churn_cfg());
        if let Err(report) = scenario.run(&idx) {
            panic!(
                "region batched seed {seed} ({:?}): {report}",
                scenario.partition
            );
        }
        assert_region_invariants(&idx, &format!("region batched seed {seed}"));
    }
}

/// Deterministic merge coverage: with traffic stopped, every tick sees
/// all-zero op counters, so the coldest adjacent pair merges — one pair
/// per tick — until a single shard remains. Contents must survive the
/// full collapse.
#[test]
fn region_merge_ticks_collapse_shards() {
    let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|k| (k * 5, k)).collect();
    let cfg = RegionConfig {
        initial_shards: 8,
        auto: false,
        ..churn_cfg()
    };
    let idx = RegionIndex::<AltIndex>::bulk_load_with(&pairs, cfg);
    let start = idx.shard_count();
    assert!(start > 1, "construction should have built multiple shards");
    let mut ticks = 0;
    while idx.shard_count() > 1 {
        let r = idx.tick();
        assert!(!r.split, "no traffic, nothing may split");
        assert!(r.merge, "idle adjacent pair must merge every tick");
        ticks += 1;
        assert!(ticks <= start, "merge collapse did not converge");
    }
    assert_eq!(idx.stats().merges as usize, start - 1);
    assert_eq!(idx.shard_bounds(), vec![(0, u64::MAX)]);
    let mut dump = Vec::new();
    idx.range(1, u64::MAX, &mut dump);
    assert_eq!(
        dump.len(),
        pairs.len(),
        "merge collapse lost or duplicated keys"
    );
    assert!(dump.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(idx.len(), pairs.len());
}

/// With the `chaos` feature on, the region's instrumented windows must
/// actually be reached (the sweep above would otherwise be vacuous):
/// one churn-heavy scenario must both hit chaos points and publish
/// splits — `region.split` and `region.swap` sit on that path.
#[test]
#[cfg(feature = "chaos")]
fn region_chaos_points_are_exercised() {
    let scenario = Scenario::shared(seed_base() + 13_900);
    let idx = RegionIndex::<AltIndex>::bulk_load_with(&scenario.initial_pairs(), churn_cfg());
    let before = probe::chaos::hits();
    scenario.run(&idx).unwrap();
    let delta = probe::chaos::hits() - before;
    assert!(delta > 0, "no chaos-point hits during the region run");
    assert!(
        idx.stats().splits > 0,
        "worker never split — the region.split/region.swap points were not reached"
    );
}
