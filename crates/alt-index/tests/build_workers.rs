//! How many build workers a bulk load spawns, read off the workers' own
//! chaos sites (`bulk.par.art`, `bulk.par.models`: one hit per spawned
//! thread, none on the calling thread). A worker is worth its spawn only
//! for `Art::PARALLEL_MIN_KEYS` keys or more, so a remainder must never
//! get one.
//!
//! One test in a binary of its own: site hits are process-wide, and any
//! other test building in parallel beside it would be counted too.
#![cfg(feature = "chaos")]

use alt_index::{AltConfig, AltIndex};
use art::Art;
use datasets::{generate_pairs, Dataset};
use index_api::BulkLoad;
use probe::chaos::site_hits;

#[test]
fn no_worker_is_spawned_for_less_than_the_minimum() {
    let _schedule = probe::chaos::install_schedule(0xB0117, 64);
    let pairs = |n: u64| -> Vec<(u64, u64)> { (1..=n).map(|i| (i * i, i)).collect() };
    let spawned = |site: &str, build: &dyn Fn()| {
        let before = site_hits(site);
        build();
        site_hits(site) - before
    };

    let min = Art::PARALLEL_MIN_KEYS as u64;
    for n in [min + 1, 2 * min - 1] {
        for threads in 2..=8 {
            let art = || drop(Art::bulk_load_threaded(&pairs(n), threads));
            assert_eq!(
                spawned("bulk.par.art", &art),
                0,
                "{n} keys, {threads} threads"
            );
        }
    }
    let art = || drop(Art::bulk_load_threaded(&pairs(2 * min), 2));
    assert_eq!(spawned("bulk.par.art", &art), 1, "two full shards");

    // An input whose 88 segments put a boundary at exactly 1,024 keys:
    // "close a group at the target" then leaves a one-key tail group.
    let fb = generate_pairs(Dataset::Fb, min as usize + 1, 1);
    let alt = || {
        let cfg = AltConfig {
            epsilon: Some(16.0),
            build_threads: 8,
            ..Default::default()
        };
        drop(AltIndex::bulk_load_with(&fb, cfg));
    };
    assert_eq!(spawned("bulk.par.models", &alt), 0, "models, 1,025 keys");
}
