//! Fault-injection suite (requires `--features fault`): every registered
//! failpoint is exercised across ≥8 seeds with rotating actions
//! (panic / alloc-fail / delay) and triggers (always / nth / seeded
//! probability), injected mid-workload. After each injected phase the
//! index must still serve (get/insert/scan), the testkit oracle must be
//! clean, and a follow-up uninjected retrain must succeed — the
//! self-healing contract of DESIGN.md §16.
//!
//! The sustained-kill test holds the containment to its count: every
//! retrain dies on the inserting thread, is caught and rolled back
//! (`retrain_rollback_count`), inserts keep landing, and removing the
//! fault lets the next overflow insert's retrain complete.

#![cfg(feature = "fault")]

use alt_index::{AltConfig, AltIndex};
use probe::fail::{FailAction, Trigger};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};
use testkit::harness::Scenario;

/// The failpoint registry is process-global: serialize every test here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Suppress the default panic-hook splat for *injected* panics (they
/// are expected by the dozen here); anything else still reports.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<probe::fail::InjectedPanic>()
                .is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Action rotation. `error_channel` (`fire`) sites accept AllocFail
/// gracefully; pure `point` sites ignore it, so those rotate panic with
/// a short window-widening delay instead.
fn action_for(error_channel: bool, s: u64) -> FailAction {
    if error_channel {
        match s % 3 {
            0 => FailAction::Panic,
            1 => FailAction::AllocFail,
            _ => FailAction::Delay(1),
        }
    } else if s % 3 == 2 {
        FailAction::Delay(1)
    } else {
        FailAction::Panic
    }
}

fn trigger_for(s: u64) -> Trigger {
    match s % 4 {
        0 => Trigger::Always,
        1 => Trigger::Nth(1),
        2 => Trigger::Nth(3),
        _ => Trigger::Probability(512),
    }
}

/// A dense burst into the tail region (far above the scenario universe)
/// that overflows the tail model and keeps the retrain machinery busy.
fn burst_keys(base: u64, n: u64) -> impl Iterator<Item = u64> {
    (base..base + n).filter(|k| k % 1000 != 0)
}

/// One site's sweep: 8 seeds × rotating action/trigger/partition.
fn sweep_site(site: &'static str, error_channel: bool) {
    let _l = serial();
    quiet_injected_panics();
    let mut any_hit = false;
    for s in 0..8u64 {
        probe::fail::set_seed(0xF417_0000 + s);
        let seed = 7_000 + s;
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

        let g = probe::fail::install(site, action_for(error_channel, s), trigger_for(s));

        // Injected phase 1: the oracle-checked concurrent workload.
        if let Err(report) = scenario.run(&idx) {
            panic!("{site} seed {seed}: oracle violation under injection: {report}");
        }
        // Injected phase 2: a retrain-heavy tail burst mid-injection.
        let burst: Vec<u64> = burst_keys(500_001 + s * 100_000, 4_000).collect();
        for &k in &burst {
            idx.insert(k, k).unwrap();
        }
        any_hit |= probe::fail::hits(site) > 0;

        // Still serving under active injection: point reads + a scan.
        for &k in burst.iter().step_by(97) {
            assert_eq!(idx.get(k), Some(k), "{site} seed {seed}: lost key {k}");
        }
        let mut out = Vec::new();
        idx.range(
            500_001 + s * 100_000,
            500_001 + s * 100_000 + 3_999,
            &mut out,
        );
        assert_eq!(
            out.len(),
            burst.len(),
            "{site} seed {seed}: scan came up short"
        );
        assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "{site}: scan order"
        );

        drop(g);

        // Uninjected follow-up: inserts, a completing retrain, reads.
        // The follow burst is 2.5× the injected one: when injected drops
        // delay the first retrain, the rebuilt tail model's build size
        // approaches the full injected burst (~4k), and a same-sized
        // follow-up would never cross `wants_retrain` again.
        let before = idx.retrain_count();
        let follow: Vec<u64> = burst_keys(900_001 + s * 100_000, 10_000).collect();
        for &k in &follow {
            idx.insert(k, k).unwrap();
        }
        assert!(
            idx.retrain_count() > before,
            "{site} seed {seed}: uninjected retrain must complete after the fault clears"
        );
        for &k in follow.iter().step_by(97) {
            assert_eq!(
                idx.get(k),
                Some(k),
                "{site} seed {seed}: post-fault key {k}"
            );
        }
    }
    assert!(
        any_hit,
        "{site}: no seed ever reached the failpoint — the sweep is vacuous"
    );
}

#[test]
fn site_retrain_collect() {
    sweep_site("retrain.collect", false);
}

#[test]
fn site_retrain_build() {
    sweep_site("retrain.build", false);
}

#[test]
fn site_retrain_swap() {
    sweep_site("retrain.swap", false);
}

#[test]
fn site_retrain_absorb() {
    sweep_site("retrain.absorb", false);
}

#[test]
fn site_dir_replace() {
    sweep_site("dir.replace", false);
}

#[test]
fn site_arena_alloc() {
    // Arena sites map every action onto the allocation-failure channel
    // (`probe::fail::fire(..).is_some()` in crates/art/src/arena.rs), served by the single-slot
    // fallback.
    sweep_site("art.arena.alloc", true);
}

#[test]
fn site_arena_grow() {
    sweep_site("art.arena.grow", true);
}

#[test]
fn arena_fallback_is_counted_and_lossless() {
    let _l = serial();
    quiet_injected_panics();
    let before = art::arena_alloc_fail_count();
    let pairs: Vec<(u64, u64)> = (1..=500u64).map(|i| (i * 1_000, i)).collect();
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(16.0),
            ..Default::default()
        },
    );
    let g = probe::fail::install("art.arena.grow", FailAction::AllocFail, Trigger::Always);
    // Dense conflicts overflow into ART; every chunk refill "fails" and
    // the single-slot fallback must serve each node allocation.
    for k in burst_keys(50_001, 3_000) {
        idx.insert(k, k).unwrap();
    }
    drop(g);
    assert!(
        art::arena_alloc_fail_count() > before,
        "chunk-growth failures must route through the fallback counter"
    );
    for k in burst_keys(50_001, 3_000) {
        assert_eq!(idx.get(k), Some(k));
    }

    // The same on a huge-page refill. A shard's leaf chunks double from
    // 1 KiB and reach 2 MiB after ~131k leaves, so 300k inserts on this
    // thread leave every later leaf refill of its shard a
    // `Region::mapped` one; 140k more exhaust whatever 2 MiB chunk (131k
    // leaves) is current, so the burst must ask for one and fail.
    let tree = art::Art::new();
    for k in 1..=300_000u64 {
        assert!(tree.insert(k, k));
    }
    let before = art::arena_alloc_fail_count();
    let g = probe::fail::install("art.arena.grow", FailAction::AllocFail, Trigger::Always);
    let burst = 1_000_001..=1_140_000u64;
    for k in burst.clone() {
        assert!(tree.insert(k, k));
    }
    drop(g);
    assert!(
        art::arena_alloc_fail_count() > before,
        "a failed 2 MiB refill must route through the fallback counter"
    );
    for k in burst {
        assert_eq!(tree.get(k), Some(k), "lost {k} under a failed 2 MiB refill");
    }
}

#[test]
fn sustained_retrain_kill_is_contained_and_recovers() {
    let _l = serial();
    quiet_injected_panics();
    let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(16.0),
            ..Default::default()
        },
    );
    // Every retrain dies at collect time, on the thread whose insert
    // triggered it. Inserts must keep landing the whole time.
    let g = probe::fail::install("retrain.collect", FailAction::Panic, Trigger::Always);
    let burst: Vec<u64> = burst_keys(3_000_001, 30_000).collect();
    for &k in &burst {
        idx.insert(k, k).unwrap();
    }
    let injected = probe::fail::fires("retrain.collect");
    assert!(
        injected > 0,
        "no retrain ever panicked — the test is vacuous"
    );
    assert_eq!(
        idx.retrain_rollback_count() as u64,
        injected,
        "every contained retrain panic is a rollback"
    );
    assert_eq!(
        idx.retrain_count(),
        0,
        "no retrain can complete under the fault"
    );
    for &k in burst.iter().step_by(199) {
        assert_eq!(idx.get(k), Some(k), "contained panic lost key {k}");
    }

    // Fault clears: the next overflow insert's retrain completes.
    drop(g);
    let follow: Vec<u64> = burst_keys(7_000_001, 30_000).collect();
    for &k in &follow {
        idx.insert(k, k).unwrap();
    }
    assert!(idx.retrain_count() > 0, "retrains complete after recovery");
    assert_eq!(idx.retrain_rollback_count() as u64, injected);
    for &k in burst.iter().chain(follow.iter()).step_by(199) {
        assert_eq!(idx.get(k), Some(k));
    }
    assert_eq!(idx.len(), 2_000 + burst.len() + follow.len());
}

#[test]
fn a_key_put_back_into_art_during_the_absorb_is_kept() {
    // A retrain publishes its models, then deletes the ART copies of the
    // keys they absorbed, while writers of the new models go on. Held one
    // second between the two (`retrain.swap`), every burst key is removed,
    // a new neighbour is inserted and the key put back; where the
    // neighbour took the key's lane of a full line, the key goes back to
    // ART, and the absorb must leave that copy alone.
    let _l = serial();
    let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(64.0),
            ..Default::default()
        },
    );
    let burst = |j: u64| 500_001 + 2 * j;
    let g = probe::fail::install("retrain.swap", FailAction::Delay(1_000), Trigger::Nth(1));
    let spans = idx.directory_spans();
    let (keys, neighbours) = std::thread::scope(|s| {
        let idx = &idx;
        let overflow = s.spawn(move || {
            let mut j = 0;
            while idx.retrain_attempt_count() == 0 {
                idx.insert(burst(j), burst(j)).unwrap();
                j += 1;
            }
        });
        while idx.directory_spans() == spans {
            std::thread::yield_now();
        }
        let keys: Vec<u64> = (0..)
            .map(burst)
            .take_while(|&k| idx.get(k).is_some())
            .collect();
        let mut neighbours = 0;
        for &k in &keys {
            assert_eq!(idx.remove(k), Some(k));
            neighbours += usize::from(idx.insert(k + 1, k + 1).is_ok());
            idx.insert(k, k).unwrap();
        }
        assert_eq!(idx.retrain_count(), 0, "the absorb ran before the writes");
        overflow.join().unwrap();
        (keys, neighbours)
    });
    drop(g);
    assert_eq!(idx.retrain_count(), 1);
    for &k in &keys {
        assert_eq!(idx.get(k), Some(k), "key {k} lost to the absorb");
    }
    assert_eq!(idx.len(), pairs.len() + keys.len() + neighbours);
}

#[test]
fn uninstalled_failpoints_change_nothing() {
    // With the feature on but nothing installed, the fast-path gate
    // short-circuits: a full oracle-checked run behaves identically.
    let _l = serial();
    let scenario = Scenario::disjoint(91);
    let idx = AltIndex::bulk_load_with(
        &scenario.initial_pairs(),
        AltConfig {
            epsilon: Some(16.0),
            ..Default::default()
        },
    );
    scenario
        .run(&idx)
        .expect("clean run with no failpoints installed");
}
