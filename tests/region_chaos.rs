//! Concurrency sweep for the region router (ISSUE 10): seeded concurrent
//! workloads run against a four-shard `RegionIndex<AltIndex>` while the
//! oracle's reader/writer/scanner threads hammer the key space across
//! every shard boundary. It is the only suite whose concurrent traffic
//! crosses shards.
//!
//! Every seed is oracle-checked (disjoint-key exact replay alternating
//! with shared-key last-writer-wins), then the structural invariants are
//! re-verified: shard ranges contiguous and ascending over the whole key
//! space, the full-range scan strictly sorted, the scan length equal to
//! `len()`, and every shard holding at least one key of that scan — so
//! the traffic really did cross every boundary.
//!
//! With `--features chaos` the ALT-index and ART chaos points the shard
//! engines pass through inject seeded delays; without the feature the
//! same workloads run unperturbed, so this file doubles as a plain
//! concurrency suite for the router.
//!
//! `CHAOS_SEED_BASE` (env, decimal) offsets the seed range, as in
//! `chaos_schedules.rs`.

use alt_index::AltIndex;
use index_api::ConcurrentIndex;
use region::{RegionConfig, RegionIndex};
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

/// Four shards over a scenario's ~1.5k-key universe.
fn build(scenario: &Scenario) -> RegionIndex<AltIndex> {
    let cfg = RegionConfig {
        initial_shards: 4,
        ..RegionConfig::default()
    };
    let idx = RegionIndex::bulk_load_with(&scenario.initial_pairs(), cfg);
    assert_eq!(idx.shard_count(), 4, "seed {}", scenario.seed);
    idx
}

/// Post-run structural invariants.
fn assert_region_invariants(idx: &RegionIndex<AltIndex>, label: &str) {
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
        "{label}: scan not strictly sorted (duplicated or resurrected keys)"
    );
    assert_eq!(dump.len(), idx.len(), "{label}: scan/len divergence");
    for &(lo, hi) in &bounds {
        assert!(
            dump.iter().any(|&(k, _)| lo <= k && k <= hi),
            "{label}: shard [{lo}, {hi}] holds no key — the traffic never crossed into it"
        );
    }
}

/// The main sweep: ≥8 seeds of oracle-checked traffic over a static
/// four-shard router, alternating partition modes.
#[test]
fn chaos_region_router() {
    let base = seed_base();
    for s in 0..SEEDS {
        let seed = base + 13_000 + s;
        let scenario = if s % 2 == 0 {
            Scenario::disjoint(seed)
        } else {
            Scenario::shared(seed)
        };
        let idx = build(&scenario);
        if let Err(report) = scenario.run(&idx) {
            panic!("region seed {seed} ({:?}): {report}", scenario.partition);
        }
        assert_region_invariants(&idx, &format!("region seed {seed}"));
    }
}

/// Batched reads through the router's shard-grouping `get_batch` beside
/// the same writers: every batched read must stay per-key linearizable.
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
        let idx = build(&scenario);
        if let Err(report) = scenario.run(&idx) {
            panic!(
                "region batched seed {seed} ({:?}): {report}",
                scenario.partition
            );
        }
        assert_region_invariants(&idx, &format!("region batched seed {seed}"));
    }
}
