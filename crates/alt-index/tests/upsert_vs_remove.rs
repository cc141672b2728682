//! Regression: `upsert` is insert-or-update, so it cannot fail on a
//! valid key whatever else happens to that key.
//!
//! It used to be `insert`, then `update` on `DuplicateKey` — two
//! operations, and a `remove` landing between them turned the update into
//! `KeyNotFound` (a couple of dozen times in two million upserts beside a
//! looping remover). It is now one decision under the predicted slot's
//! lock. One thread upserts a key with increasing values while another
//! removes it, for a key that lives in its slot and for one that lives in
//! ART; every upsert must succeed, a read after it sees that value or
//! nothing, and `len` must come out even.

use alt_index::{AltConfig, AltIndex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const UPSERTS: u64 = 300_000;

fn race(idx: &AltIndex, key: u64) {
    let len_before = idx.len();
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            barrier.wait();
            while !done.load(Ordering::Acquire) {
                idx.remove(key);
            }
        });
        // Stops the remover when the upserter panics, too.
        struct Done<'a>(&'a AtomicBool);
        impl Drop for Done<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let _done = Done(&done);
        barrier.wait();
        for i in 1..=UPSERTS {
            let res = idx.upsert(key, i);
            assert_eq!(res, Ok(()), "upsert {i} of key {key}");
            let seen = idx.get(key);
            assert!(
                seen.is_none() || seen == Some(i),
                "read {seen:?} after upsert {i}"
            );
        }
    });
    assert_eq!(
        idx.len(),
        len_before + usize::from(idx.get(key).is_some()),
        "len moved by something other than an insert or a remove"
    );
    idx.upsert(key, u64::MAX).unwrap();
    assert_eq!(idx.remove(key), Some(u64::MAX));
    assert_eq!(idx.get(key), None);
    assert_eq!(idx.len(), len_before);
}

#[test]
fn upsert_beside_remove_never_fails() {
    let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(64.0),
            retrain: false,
            ..Default::default()
        },
    );
    // A key that has its predicted slot to itself, and one whose slot a
    // bulk-loaded key holds (the next key up predicts the same slot).
    let in_slot = (1..2_000u64)
        .map(|gap| gap * 1_000 + 501)
        .find(|&k| {
            idx.insert(k, 1).unwrap();
            let slot_resident = idx.probe_art_hops(k).is_none();
            idx.remove(k).unwrap();
            slot_resident
        })
        .expect("a bulk-load gap with an empty predicted slot");
    let in_art = 1_000_001;
    idx.insert(in_art, 1).unwrap();
    assert!(idx.probe_art_hops(in_art).is_some(), "layout changed?");
    idx.remove(in_art).unwrap();

    race(&idx, in_slot);
    race(&idx, in_art);
}
