//! Mutation self-test: proves the chaos harness actually detects broken
//! concurrency protocols.
//!
//! Built with `--features chaos-mutate`, `alt-index`'s `SlotArray::read`
//! skips its version re-validation whenever
//! `probe::chaos::set_mutation(true)` has been called — the classic torn-read
//! bug in optimistic slot protocols. Shared-key chaos scenarios hammer
//! individual slots (concurrent claim/update/remove of the same keys),
//! and the last-writer-wins oracle must flag a violation (a value that
//! was never written, a lost update, or an impossible presence) within
//! the seed budget below — the same budget CI runs.
//!
//! This test lives in its own integration-test binary on purpose: the
//! mutation flag is process-global, and cargo gives every test binary
//! its own process, so enabling it here cannot poison the other suites
//! running in parallel.

#![cfg(feature = "chaos-mutate")]

use alt_index::AltIndex;
use index_api::BulkLoad;
use testkit::harness::Scenario;

/// Seed budget within which the harness must catch the mutation. CI runs
/// exactly this test, so this bound *is* the acceptance criterion.
const SEED_BUDGET: u64 = 64;

#[test]
fn harness_detects_skipped_slot_revalidation() {
    // Tiny shared universes (8 threads × 1-2 keys) with heavy churn: the
    // skipped re-validation only becomes *observable* when a removed
    // key's slot is reclaimed by a different key mid-read (a cross-key
    // value leak), which needs same-slot remove/insert cycling. That
    // takes keys that share predicted slots — rare in the default sparse
    // scenarios, and retraining doubles the slot budget each pass, so
    // only a very dense universe keeps slots shared. Each seed tries two
    // densities: machine-load conditions shift which one tears first.
    let dense = |seed: u64, keys_per_thread: usize| Scenario {
        keys_per_thread,
        ops_per_thread: 4_000,
        // Crank intensity: the widened read/claim windows are exactly
        // where the skipped re-validation tears.
        chaos_intensity: 512,
        ..Scenario::shared(seed)
    };

    // Sanity: the unmutated index passes the same scenarios first, so a
    // detection below is attributable to the mutation, not the workload.
    for kpt in [1, 2] {
        let control = dense(0xBADC_0DE0, kpt);
        let idx = AltIndex::bulk_load(&control.initial_pairs());
        control
            .run(&idx)
            .expect("control run (mutation off) must pass");
    }

    probe::chaos::set_mutation(true);
    let mut caught = None;
    'seeds: for s in 0..SEED_BUDGET {
        for kpt in [1, 2] {
            let scenario = dense(0xBADC_0DE1 + s, kpt);
            let idx = AltIndex::bulk_load(&scenario.initial_pairs());
            if let Err(report) = scenario.run(&idx) {
                caught = Some((s, report));
                break 'seeds;
            }
        }
    }
    probe::chaos::set_mutation(false);

    let (seeds_used, report) = caught.unwrap_or_else(|| {
        panic!(
            "mutation (skipped slot re-validation) survived {SEED_BUDGET} \
             chaos seeds — the harness has lost its detection power"
        )
    });
    println!(
        "mutation caught after {} seed(s):\n{report}",
        seeds_used + 1
    );
}
