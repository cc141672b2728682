//! Regression stress test: `remove` must clear the transient ART copy
//! of the removed key *inside* the predicted slot's critical section.
//!
//! The buggy ordering tombstoned the slot, released the lock, and only
//! then called `art.remove(key)`. In that window a slot-colliding key
//! can reclaim the tombstone and a re-insert of the removed key then
//! overflows to ART — a fully successful insert the late cleanup
//! silently deletes. Net effect: one more `Ok` insert than the final
//! state shows (the chaos oracle's "present=false but accounting
//! requires present=true" violation, seen rarely in loaded
//! `chaos_schedules` runs before the fix).
//!
//! This test recreates the triangle directly: two threads churn
//! insert/remove on one key while two more churn keys predicting the
//! same (initially empty) slot — so the tombstone keeps getting
//! reclaimed out from under the remover — under a chaos schedule to
//! perturb interleavings. At quiesce, per-key presence must equal the
//! insert/remove success balance. Run with:
//!
//! ```sh
//! cargo test -p alt-index --features chaos --test remove_insert_race
//! ```
#![cfg(feature = "chaos")]

use alt_index::{AltConfig, AltIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Per-key success tallies, updated by the churn threads.
#[derive(Default)]
struct Tally {
    ins_ok: AtomicU64,
    rem_ok: AtomicU64,
}

fn build_index() -> AltIndex {
    let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
    AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(64.0),
            retrain: false,
            ..Default::default()
        },
    )
}

/// Find a key whose predicted slot is *empty* after bulk load: inserted
/// alone, it is served from the learned layer. Over a stride-1000
/// backbone the chosen slope gives one slot ~900 key units, so the key's
/// immediate neighbours predict the same slot — the collision cluster
/// the race needs. The layout is deterministic (same bulk load, same
/// config, retrain off), so one probe serves every round.
fn find_open_slot_key() -> u64 {
    let idx = build_index();
    for gap in 1..2_000u64 {
        for off in [101u64, 301, 501, 701] {
            let k = gap * 1_000 + off;
            idx.insert(k, 1).unwrap();
            let slot_resident = idx.probe_art_hops(k).is_none();
            idx.remove(k).unwrap();
            if slot_resident {
                return k;
            }
        }
    }
    panic!("no bulk-load gap with an empty predicted slot — layout changed?");
}

fn run_round(seed: u64, base: u64) {
    let _guard = probe::chaos::install_schedule(seed, 384);
    let idx = Arc::new(build_index());

    // base, base+1, base+2 all predict the same empty slot.
    let keys = [base, base, base + 1, base + 2];
    let tallies: Arc<[Tally; 4]> = Arc::new(Default::default());
    let barrier = Arc::new(Barrier::new(4));
    let threads: Vec<_> = (0..4usize)
        .map(|ti| {
            let idx = Arc::clone(&idx);
            let tallies = Arc::clone(&tallies);
            let barrier = Arc::clone(&barrier);
            let key = keys[ti];
            std::thread::spawn(move || {
                let t = &tallies[ti];
                barrier.wait();
                for it in 0..400u64 {
                    // Remove-then-insert keeps the slot cycling through
                    // occupied -> tombstone -> reclaimed, so every
                    // iteration re-opens the race window.
                    if idx.remove(key).is_some() {
                        t.rem_ok.fetch_add(1, Ordering::Relaxed);
                    }
                    if idx.insert(key, (it << 8) | ti as u64).is_ok() {
                        t.ins_ok.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for th in threads {
        th.join().unwrap();
    }

    // Threads 0 and 1 churned `base`; fold their tallies per key.
    let per_key = [
        (
            base,
            tallies[0].ins_ok.load(Ordering::Relaxed) + tallies[1].ins_ok.load(Ordering::Relaxed),
            tallies[0].rem_ok.load(Ordering::Relaxed) + tallies[1].rem_ok.load(Ordering::Relaxed),
        ),
        (
            base + 1,
            tallies[2].ins_ok.load(Ordering::Relaxed),
            tallies[2].rem_ok.load(Ordering::Relaxed),
        ),
        (
            base + 2,
            tallies[3].ins_ok.load(Ordering::Relaxed),
            tallies[3].rem_ok.load(Ordering::Relaxed),
        ),
    ];
    for (key, ins, rem) in per_key {
        // Keys start absent, every op is an atomic success/failure, so
        // the linearized balance is 0 or 1 and must match presence.
        let balance = ins as i64 - rem as i64;
        assert!(
            (0..=1).contains(&balance),
            "seed {seed:#x} key {key}: impossible balance {balance} ({ins} inserts - {rem} removes)"
        );
        let present = idx.get(key).is_some();
        assert_eq!(
            present,
            balance == 1,
            "seed {seed:#x} key {key}: present={present} but {ins} ok inserts - {rem} ok removes \
             requires present={}",
            balance == 1
        );
    }
}

#[test]
fn remove_cannot_swallow_a_racing_reinsert() {
    let base = find_open_slot_key();
    for r in 0..16u64 {
        run_round(0xD00D_0000 + r, base);
    }
}
