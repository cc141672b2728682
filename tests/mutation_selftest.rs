//! Mutation self-test: proves the chaos harness actually detects broken
//! concurrency protocols.
//!
//! Built with `--features chaos-mutate`, `alt-index`'s slot protocol runs
//! whichever `probe::chaos::Mutation` `probe::chaos::set_mutation` selects:
//!
//! * `SkipSlotRevalidation` — the bucket snapshot skips its version
//!   re-validation, the classic torn-read bug in optimistic slot
//!   protocols;
//! * `StaleVacatedLane` — a remove shifts the keys above it down but
//!   leaves the lane they vacate as it was, so the bucket's lanes from its
//!   live count up are no longer 0 (DESIGN.md §3 "A line is a bucket")
//!   and a removed top key still reads as present;
//! * `SharedLineLock` — the bucket lock admits a second holder, so two
//!   writers of one bucket shift its lanes at once.
//!
//! Chaos scenarios hammer individual buckets (concurrent insert/update/
//! remove of the same keys), and the oracle must flag a violation (a
//! value that was never written, a lost update, or an impossible
//! presence) of each mutation within the seed budget below — the same
//! budget CI runs. Every scenario runs against the index as shipped,
//! retraining on, and again with retraining off, and a catch in either
//! counts: a retrain rebuilds a dense universe at one slot per key, which
//! leaves few keys sharing a bucket to tear, to leave behind or to race
//! for. With sorted buckets every insert and remove shifts keys between
//! lanes under the readers, and each mutation was caught on the first
//! seed's retrain-on run in each of three runs of this test: the first two
//! by the oracle, `SharedLineLock` by a writer's own bound check (see
//! `hunt_once`; TESTING.md "Mutation self-test").
//!
//! This test lives in its own integration-test binary on purpose: the
//! mutation selector is process-global, and cargo gives every test binary
//! its own process, so selecting one here cannot poison the other suites
//! running in parallel.

#![cfg(feature = "chaos-mutate")]

use alt_index::{AltConfig, AltIndex};
use probe::chaos::Mutation;
use testkit::harness::Scenario;

/// Seed budget within which the harness must catch each mutation. CI
/// runs exactly this test, so this bound *is* the acceptance criterion.
const SEED_BUDGET: u64 = 64;

/// Tiny shared universes (8 threads × a few keys) with heavy churn: the
/// skipped re-validation only becomes *observable* when a removed key's
/// lane is taken by a different key mid-read (a cross-key value leak),
/// which needs same-bucket remove/insert cycling, and two writers only
/// race when their keys share a bucket. That takes keys
/// that share predicted slots — rare in the default sparse scenarios, so
/// only a very dense universe keeps them shared.
fn dense(seed: u64, keys_per_thread: usize) -> Scenario {
    Scenario {
        keys_per_thread,
        ops_per_thread: 4_000,
        // Crank intensity: the widened read/claim windows are exactly
        // where the mutations tear.
        chaos_intensity: 512,
        ..Scenario::shared(seed)
    }
}

/// The scenarios one seed tries against `mutation`, each with retraining
/// on and then off. Each seed tries two shapes: machine-load conditions
/// shift which one tears first.
fn hunt(mutation: Mutation, seed: u64) -> [Scenario; 2] {
    match mutation {
        Mutation::SkipSlotRevalidation => [dense(seed, 1), dense(seed, 2)],
        // A removed key that still reads as present is caught exactly
        // where each thread owns its keys; the shared shape catches it at
        // the end.
        Mutation::StaleVacatedLane => [Scenario::disjoint(seed), dense(seed, 4)],
        Mutation::SharedLineLock => [dense(seed, 2), dense(seed, 4)],
    }
}

/// One hunting run of `scenario` against `mutation`: the oracle's report,
/// if it flags one. Under `SharedLineLock` a writer's panic counts too:
/// two holders of one bucket lock can both find room in it, and the
/// second insert's bound check (`BucketGuard::insert`: not full) fails
/// before the oracle sees the key it would lose. That check firing is the
/// broken lock showing; any other mutation must be flagged by the oracle,
/// and a panic under it fails this test as before.
fn hunt_once(mutation: Mutation, scenario: &Scenario, retrain: bool) -> Option<String> {
    let run = || scenario.run(&index_for(scenario, retrain));
    let result = if mutation == Mutation::SharedLineLock {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(result) => result,
            Err(_) => return Some("a writer panicked (its message is above)".into()),
        }
    } else {
        run()
    };
    result.err().map(|report| report.to_string())
}

/// The scenario's initial pairs, bulk-loaded with retraining on or off.
fn index_for(scenario: &Scenario, retrain: bool) -> AltIndex {
    let cfg = AltConfig {
        retrain,
        ..Default::default()
    };
    AltIndex::bulk_load_with(&scenario.initial_pairs(), cfg)
}

const MUTATIONS: [Mutation; 3] = [
    Mutation::SkipSlotRevalidation,
    Mutation::StaleVacatedLane,
    Mutation::SharedLineLock,
];

#[test]
fn harness_detects_every_planted_mutation() {
    // Sanity: the unmutated index passes the same scenarios first, so a
    // detection below is attributable to the mutation, not the workload.
    for mutation in MUTATIONS {
        for control in hunt(mutation, 0xBADC_0DE0) {
            for retrain in [true, false] {
                control
                    .run(&index_for(&control, retrain))
                    .expect("control run (mutation off) must pass");
            }
        }
    }

    for mutation in MUTATIONS {
        probe::chaos::set_mutation(Some(mutation));
        let mut caught = None;
        'seeds: for s in 0..SEED_BUDGET {
            for scenario in hunt(mutation, 0xBADC_0DE1 + s) {
                for retrain in [true, false] {
                    if let Some(report) = hunt_once(mutation, &scenario, retrain) {
                        caught = Some((s, retrain, report));
                        break 'seeds;
                    }
                }
            }
        }
        probe::chaos::set_mutation(None);

        let (seeds_used, retrain, report) = caught.unwrap_or_else(|| {
            panic!(
                "mutation {mutation:?} survived {SEED_BUDGET} chaos seeds — \
                 the harness has lost its detection power"
            )
        });
        println!(
            "mutation {mutation:?} caught after {} seed(s), retraining {}:\n{report}",
            seeds_used + 1,
            if retrain { "on" } else { "off" }
        );
    }
}
