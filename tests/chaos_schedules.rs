//! Chaos-schedule sweep: every index runs seeded concurrent workloads
//! under the testkit oracle, across ≥32 distinct perturbation seeds per
//! index (alternating disjoint-key exact checking and shared-key
//! last-writer-wins checking).
//!
//! Without `--features chaos` the same workloads run unperturbed (the
//! chaos points are compiled out), so this file also serves as a plain
//! oracle-checked concurrency suite. With the feature on, each seed
//! re-applies a deterministic delay pattern inside the optimistic
//! protocol windows (see `TESTING.md`).
//!
//! `CHAOS_SEED_BASE` (env, decimal) offsets the seed range — CI uses it
//! to run a fixed seed matrix.

use alt_index::{AltConfig, AltIndex};
use art::Art;
use baselines::{AlexLike, FinedexLike, LippLike, XIndexLike};
use index_api::BulkLoad;
use probe::metrics::{self, Counter};
use testkit::harness::Scenario;

/// Seeds per index; the ISSUE acceptance bar is ≥32.
const SEEDS: u64 = 32;

fn seed_base() -> u64 {
    match std::env::var("CHAOS_SEED_BASE") {
        Err(_) => 0,
        // A typo'd value must not silently re-test the base-0 window.
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_SEED_BASE must be a decimal u64, got {s:?}")),
    }
}

/// Run `SEEDS` scenarios against freshly-built `I` indexes, alternating
/// partition modes, and panic with the oracle report on any violation.
fn sweep<I: BulkLoad + index_api::ConcurrentIndex>(label: &str) {
    sweep_batched::<I>(label, 0);
}

/// Like [`sweep`], with runs of consecutive gets issued through
/// `get_batch` at `batch_width` — the oracle holds every batched read to
/// per-key linearizability against the concurrent insert/remove/retrain
/// churn. The seed window is offset so batched runs explore different
/// schedules than the scalar sweep.
fn sweep_batched<I: BulkLoad + index_api::ConcurrentIndex>(label: &str, batch_width: usize) {
    let base = seed_base() + if batch_width > 0 { 40_000 } else { 0 };
    for s in 0..SEEDS {
        let seed = base + s;
        let mut scenario = if s % 2 == 0 {
            Scenario::disjoint(seed)
        } else {
            Scenario::shared(seed)
        };
        scenario.batch_width = batch_width;
        let idx = I::bulk_load(&scenario.initial_pairs());
        if let Err(report) = scenario.run(&idx) {
            panic!(
                "{label} seed {seed} ({:?}, batch {batch_width}): {report}",
                scenario.partition
            );
        }
    }
}

/// Run a family's sweep and, in a `chaos metrics` build, require that
/// somewhere in its seed matrix a retry budget was spent — so the
/// family's pessimistic fallback (DESIGN.md §11) ran under the oracle,
/// which a chaos build's five-retry ladder exists to make routine. Only
/// the sweeps that spend tens of budgets per matrix are held to it
/// (AltIndex ~30, LIPP+ ~100); TESTING.md "Fallbacks under the oracle"
/// says where ART's and ALEX+'s are driven instead. The counters are
/// process-wide: a sibling test of the same family running beside this
/// one counts too, and it is the same fallback.
fn reaching_fallback(escalation: Counter, sweep: impl FnOnce()) {
    let before = metrics::total(escalation);
    sweep();
    let spent = metrics::total(escalation) - before;
    eprintln!("{} = {spent}", escalation.name());
    if probe::chaos::ENABLED && metrics::ENABLED {
        assert!(spent > 0, "{} never moved", escalation.name());
    }
}

#[test]
fn chaos_alt_index() {
    reaching_fallback(Counter::AltEscalation, || sweep::<AltIndex>("alt-index"));
}

/// The parallel-bulk-build satellite: ≥8 seeds whose AltIndex is built
/// by the *parallel* loader (`build_threads > 1`, universe enlarged so
/// the chunked segmenter and sharded population actually engage) before
/// the concurrent mutation phase runs. Retrain/insert/remove/scan must
/// behave identically to a serial-built index — the oracle would flag
/// any divergence.
#[test]
fn chaos_alt_index_parallel_built() {
    let base = seed_base();
    for s in 0..8u64 {
        let seed = base + 7_000 + s;
        let mut scenario = if s % 2 == 0 {
            Scenario::disjoint(seed)
        } else {
            Scenario::shared(seed)
        };
        // Default universe (~1.5k keys) is below the parallel builder's
        // engagement threshold; widen it so every seed bulk-loads through
        // chunked GPL + seam stitch + sharded population.
        scenario.keys_per_thread = 1024;
        let cfg = AltConfig {
            build_threads: 4,
            ..Default::default()
        };
        let idx = AltIndex::bulk_load_with(&scenario.initial_pairs(), cfg);
        if let Err(report) = scenario.run(&idx) {
            panic!(
                "parallel-built alt-index seed {seed} ({:?}): {report}",
                scenario.partition
            );
        }
    }
}

/// The retrain-protocol sweep: 16 seeds of the rebuild (collect → build
/// → swap → absorb, one pass under the model's write lock, which the
/// span's writers wait out) racing the oracle's concurrent
/// insert/update/remove/scan threads. With `--features chaos` the
/// `retrain.{pre_swap, post_swap, absorb_remove}` points stretch the
/// publish window and the absorb under lock-free readers and scans.
/// Tight ε makes overflow (and therefore retraining) frequent.
#[test]
fn chaos_alt_index_retrain_protocol() {
    let base = seed_base();
    for s in 0..16u64 {
        let seed = base + 9_000 + s;
        let mut scenario = if s % 2 == 0 {
            Scenario::disjoint(seed)
        } else {
            Scenario::shared(seed)
        };
        scenario.keys_per_thread = 512;
        let cfg = AltConfig {
            epsilon: Some(16.0),
            ..Default::default()
        };
        let idx = AltIndex::bulk_load_with(&scenario.initial_pairs(), cfg);
        if let Err(report) = scenario.run(&idx) {
            panic!(
                "retrain-protocol alt-index seed {seed} ({:?}): {report}",
                scenario.partition
            );
        }
        // Re-check structural invariants over the post-rebuild
        // directory: the full scan must be strictly sorted (no duplicated
        // or resurrected keys) and agree with the maintained length.
        let mut dump = Vec::new();
        index_api::ConcurrentIndex::range(&idx, 1, u64::MAX, &mut dump);
        assert!(
            dump.windows(2).all(|w| w[0].0 < w[1].0),
            "retrain-protocol seed {seed}: final scan not strictly sorted"
        );
        assert_eq!(
            dump.len(),
            index_api::ConcurrentIndex::len(&idx),
            "retrain-protocol seed {seed}: final scan/len divergence"
        );
    }
}

#[test]
fn chaos_art() {
    sweep::<Art>("art");
}

/// 8 seeds whose optimistic descents run the child search — per-byte
/// atomic loads over a sorted node's keys, racing the shifts of
/// concurrent structural writers. With `--features chaos` the
/// `node.shift` points widen the mid-shift windows the search can
/// observe, and the oracle flags any result that escaped OLC
/// revalidation.
#[test]
fn chaos_art_child_search() {
    let base = seed_base();
    for s in 0..8u64 {
        let seed = base + 11_000 + s;
        let mut scenario = if s % 2 == 0 {
            Scenario::disjoint(seed)
        } else {
            Scenario::shared(seed)
        };
        // Mixed batched/scalar reads so both the AMAC ring descent and
        // the plain get path run the search.
        scenario.batch_width = if s % 2 == 0 { art::RING_WIDTH } else { 0 };
        let idx = Art::bulk_load(&scenario.initial_pairs());
        if let Err(report) = scenario.run(&idx) {
            panic!(
                "art child-search seed {seed} ({:?}): {report}",
                scenario.partition
            );
        }
    }
}

/// Batched-lookup chaos: the same oracle-checked sweeps with reads going
/// through the AMAC engines (AltIndex two-tier ring, ART interleaved
/// descents) at the ring width, concurrent with inserts, removes,
/// upserts, scans, and retrains. Every batched result must still be
/// per-key linearizable.
#[test]
fn chaos_alt_index_batched() {
    sweep_batched::<AltIndex>("alt-index", art::RING_WIDTH);
}

#[test]
fn chaos_art_batched() {
    sweep_batched::<Art>("art", art::RING_WIDTH);
}

/// The baselines' group-prefetch batch path under the same oracle (also
/// covers the `index-api` default implementation shape: sequential gets
/// behind one call).
#[test]
fn chaos_baselines_batched() {
    sweep_batched::<AlexLike>("alex+", 16);
    sweep_batched::<LippLike>("lipp+", 16);
    sweep_batched::<XIndexLike>("xindex", 16);
    sweep_batched::<FinedexLike>("finedex", 16);
}

#[test]
fn chaos_alex() {
    sweep::<AlexLike>("alex+");
}

#[test]
fn chaos_lipp() {
    reaching_fallback(Counter::BaselineEscalation, || sweep::<LippLike>("lipp+"));
}

#[test]
fn chaos_xindex() {
    sweep::<XIndexLike>("xindex");
}

#[test]
fn chaos_finedex() {
    sweep::<FinedexLike>("finedex");
}

/// With the `chaos` feature on, the instrumented hot paths must actually
/// be reached — otherwise the sweep above is vacuous.
#[test]
#[cfg(feature = "chaos")]
fn chaos_points_are_exercised() {
    // Every slot-protocol point TESTING.md "Chaos points" lists for
    // `slots.rs` and `index.rs` that a scenario's ops reach without
    // contention (the bucket read, the held lock, the insert's and the
    // remove's shift windows, the locked update), then one per other
    // protocol: ART lock coupling, the scan's chunk (between its ART read
    // and its slot walk), and the epoch pin and retire under all of them.
    const SITES: [&str; 10] = [
        "slots.read.between_loads",
        "slots.read.pre_validate",
        "slots.lock.held",
        "slots.insert.shifted",
        "slots.remove.shifted",
        "slots.update.locked",
        "olc.validate",
        "scan.chunk.post_art",
        "epoch.pin.published",
        "epoch.retire.queued",
    ];
    let scenario = Scenario::shared(0xFEED_FACE);
    let idx = AltIndex::bulk_load(&scenario.initial_pairs());
    let before = probe::chaos::hits();
    let sites_before = SITES.map(probe::chaos::site_hits);
    scenario.run(&idx).unwrap();
    let delta = probe::chaos::hits() - before;
    assert!(
        delta > 1_000,
        "expected thousands of chaos-point hits, got {delta}"
    );
    for (site, was) in SITES.iter().zip(sites_before) {
        assert!(
            probe::chaos::site_hits(site) > was,
            "chaos point {site} was never reached"
        );
    }
}
