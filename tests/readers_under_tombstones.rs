//! Writers against readers of an ART resident whose predicted bucket has a
//! free lane again (the paper's tombstone: its remove zeroes the key in
//! place, where a bucket here shifts its keys down).
//!
//! That is the state in which the paper's read path writes (Algorithm 2
//! lines 10-13 move the key into the slot); here readers never write.
//! These tests race readers of such a key against a writer of the same
//! key and a churning slot-colliding neighbour, and hold readers to what a
//! single register would show them:
//!
//! * under `update`s with increasing values, no reader ever sees a value
//!   go down, the key is never absent, the last update is what stays, and
//!   the key is still in ART after every round — no read moved it;
//! * once a `remove` has returned, no later `get` sees the key, and the
//!   layers hold exactly `len()` keys afterwards.
//!
//! Runs in every build; with `--features chaos` (the CI `chaos` job) the
//! per-round schedule stretches the slot-lock and OLC windows.

use alt_index::{AltConfig, AltIndex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// Chaos schedules are process-global: one test at a time.
static SCHEDULE_OWNER: Mutex<()> = Mutex::new(());

const ROUNDS: u64 = 100;
const UPDATES: u64 = 200;

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

/// A key `k` such that `k` and `k + 1` predict the same bucket and that
/// bucket has exactly one free lane after bulk load (one slot covers ~800
/// key units here; same probe as
/// `crates/alt-index/tests/remove_insert_race.rs`).
fn find_open_slot_key(idx: &AltIndex) -> u64 {
    for gap in 1..2_000u64 {
        for off in [101u64, 301, 501, 701] {
            let k = gap * 1_000 + off;
            idx.insert(k, 1).unwrap();
            let slot_resident = idx.probe_art_hops(k).is_none();
            idx.insert(k + 1, 1).unwrap();
            let collides = idx.probe_art_hops(k + 1).is_some();
            idx.remove(k + 1).unwrap();
            idx.remove(k).unwrap();
            if slot_resident && collides {
                return k;
            }
        }
    }
    panic!("no bulk-load gap with an empty predicted slot — layout changed?");
}

/// Put `key` in ART under a bucket with a free lane: the neighbour takes
/// the last lane, `key` overflows, the neighbour leaves.
fn park_in_art(idx: &AltIndex, key: u64, neighbour: u64, value: u64) {
    idx.remove(key);
    idx.remove(neighbour);
    idx.insert(neighbour, 0).unwrap();
    idx.insert(key, value).unwrap();
    assert_eq!(idx.remove(neighbour), Some(0));
    assert!(idx.probe_art_hops(key).is_some(), "key must start in ART");
}

/// Remove and re-insert the bucket-sharing neighbour until `stop`: the
/// bucket keeps cycling full -> one lane free -> full under the key.
fn churn_neighbour(idx: &AltIndex, neighbour: u64, stop: impl Fn() -> bool) {
    let mut i = 0u64;
    while !stop() {
        i += 1;
        idx.insert(neighbour, i)
            .expect("only this thread writes it");
        assert_eq!(idx.remove(neighbour), Some(i));
    }
}

/// Signals a thread's exit to the loops waiting on it, panics included
/// (a failed assertion must fail the test, not hang it).
struct Exit<'a>(&'a AtomicUsize);

impl Drop for Exit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

fn layers_hold_len(idx: &AltIndex, round: u64) {
    let s = idx.stats();
    assert_eq!(
        s.keys_in_learned + s.keys_in_art,
        idx.len(),
        "round {round}: a key is in both layers or in neither"
    );
}

#[test]
fn updates_never_go_backwards_under_a_tombstone() {
    let _serial = SCHEDULE_OWNER.lock().unwrap_or_else(|e| e.into_inner());
    let idx = build_index();
    let key = find_open_slot_key(&idx);
    let neighbour = key + 1;
    for round in 0..ROUNDS {
        let _chaos = probe::chaos::install_schedule(0xB10C_0000 + round, 384);
        let start = (round + 1) << 32;
        park_in_art(&idx, key, neighbour, start);
        let updating = AtomicUsize::new(1);
        let barrier = Barrier::new(4);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _exit = Exit(&updating);
                barrier.wait();
                for i in 1..=UPDATES {
                    idx.update(key, start + i)
                        .expect("the key is never removed");
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    barrier.wait();
                    let mut last = start;
                    while updating.load(Ordering::Acquire) > 0 {
                        let v = idx.get(key).expect("the key is never absent");
                        assert!(v >= last, "round {round}: read {v:#x} after {last:#x}");
                        last = v;
                    }
                });
            }
            s.spawn(|| {
                barrier.wait();
                churn_neighbour(&idx, neighbour, || updating.load(Ordering::Acquire) == 0);
            });
        });
        assert_eq!(idx.get(key), Some(start + UPDATES), "round {round}");
        assert!(
            idx.probe_art_hops(key).is_some(),
            "round {round}: a read moved the key out of ART"
        );
        layers_hold_len(&idx, round);
    }
}

#[test]
fn a_removed_key_stays_removed_under_a_tombstone() {
    let _serial = SCHEDULE_OWNER.lock().unwrap_or_else(|e| e.into_inner());
    let idx = build_index();
    let key = find_open_slot_key(&idx);
    let neighbour = key + 1;
    for round in 0..ROUNDS {
        let _chaos = probe::chaos::install_schedule(0xB10C_8000 + round, 384);
        park_in_art(&idx, key, neighbour, round);
        let removed = AtomicBool::new(false);
        let reading = AtomicUsize::new(2);
        let barrier = Barrier::new(4);
        std::thread::scope(|s| {
            s.spawn(|| {
                barrier.wait();
                // Let the readers get into their ART reads first.
                for _ in 0..round % 8 {
                    std::thread::yield_now();
                }
                let got = idx.remove(key);
                removed.store(true, Ordering::Release);
                assert_eq!(got, Some(round), "round {round}");
            });
            for _ in 0..2 {
                s.spawn(|| {
                    let _exit = Exit(&reading);
                    barrier.wait();
                    let mut after = 0;
                    while after < 64 {
                        let gone = removed.load(Ordering::Acquire);
                        let got = idx.get(key);
                        if gone {
                            assert_eq!(got, None, "round {round}: back after its remove");
                            after += 1;
                        } else {
                            assert!(got.is_none() || got == Some(round));
                        }
                    }
                });
            }
            s.spawn(|| {
                barrier.wait();
                churn_neighbour(&idx, neighbour, || reading.load(Ordering::Acquire) == 0);
            });
        });
        assert_eq!(idx.get(key), None, "round {round}");
        layers_hold_len(&idx, round);
    }
}
