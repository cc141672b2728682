//! Slot arrays in memory regions (`alt_index::slots`, DESIGN.md §3): the
//! crate's unit tests of carving, repeated here through its public API. A
//! fresh region is all empty buckets, carved neighbours never see each other's
//! writes or releases, the region lives exactly as long as its last array,
//! and where the arrays live does not move a key.

use alt_index::slots::{SlotArray, SHARED_REGION_MIN};
use alt_index::{AltConfig, AltIndex};
use prefetch::pages::Region;
use std::sync::{Arc, Weak};

/// Insert `key` into bucket `b` unless it is there or the bucket is full.
fn put(s: &SlotArray, b: usize, key: u64, value: u64) -> bool {
    s.with_bucket(b, |g| {
        let room = g.find(key).is_none() && !g.is_full();
        if room {
            g.insert(key, value);
        }
        room
    })
}

/// Arrays planned for `a` and `b` positions carved from one mapped
/// region, A first, and a handle that says whether the region still
/// exists.
fn carved_pair(a: usize, b: usize) -> (SlotArray, SlotArray, Weak<Region>) {
    let bytes = SlotArray::footprint(a) + SlotArray::footprint(b);
    let region = Region::mapped(bytes).expect("map a region");
    let mut arrays = SlotArray::carve(region, &[a, b]);
    let (b, a) = (arrays.pop().unwrap(), arrays.pop().unwrap());
    let weak = Arc::downgrade(a.region());
    (a, b, weak)
}

/// Bucket `b`'s live entries, read under its lock.
fn live(s: &SlotArray, b: usize) -> Vec<(u64, u64)> {
    let (entries, n) = s.with_bucket(b, |g| g.entries());
    entries[..n].to_vec()
}

fn all_empty(s: &SlotArray) -> bool {
    (0..s.buckets()).all(|b| live(s, b).is_empty()) && s.walk(0, usize::MAX).next().is_none()
}

#[test]
fn a_fresh_region_reads_empty_at_every_slot() {
    let (a, b, _) = carved_pair(1000, 333);
    assert!(all_empty(&a) && all_empty(&b));
    assert!(all_empty(&SlotArray::new(777)));
    assert!(SlotArray::for_group(&[5, 64, 65]).iter().all(all_empty));
}

#[test]
fn adjacent_carved_arrays_are_isolated() {
    // B starts on the bucket after A's last; A's last buckets, every lane
    // full, are A's alone.
    let (a, b, _) = carved_pair(100, 100);
    let mut key = 0;
    for bucket in a.buckets() - 6..a.buckets() {
        while put(&a, bucket, key + 1, 1) {
            key += 1;
        }
        assert!(a.with_bucket(bucket, |g| g.is_full()));
    }
    assert!(all_empty(&b), "A's last buckets are A's alone");
    assert_eq!(a.live_count(), key as usize);
}

#[test]
fn releasing_a_leaves_a_filled_b_intact() {
    // Many pages each, so A's drop has whole pages to release.
    let (a, b, weak) = carved_pair(3000, 3000);
    let n = b.buckets();
    for i in 0..n {
        assert!(put(&a, i, i as u64 + 1, 1));
        assert!(put(&b, i, i as u64 + 1, i as u64));
    }
    drop(a);
    assert!(weak.upgrade().is_some(), "B keeps the region");
    for i in 0..n {
        let (key, value) = (i as u64 + 1, i as u64);
        assert_eq!(live(&b, i), [(key, value)], "bucket {i}");
    }
}

#[test]
fn the_region_goes_with_its_last_array() {
    let (a, b, weak) = carved_pair(10, 10);
    drop(b);
    assert!(weak.upgrade().is_some());
    drop(a);
    assert!(weak.upgrade().is_none(), "unmapped with the last array");
}

#[test]
fn a_shared_region_places_keys_as_heap_arrays_do() {
    // fb 500k, seed 7: 34.4 MiB of slot arrays. One build thread is one
    // group, carved from one shared region; two are two ~17 MiB groups of
    // heap arrays. Both give the same pinned layout (`build_equivalence`'s
    // two digests). The key count was 400k until slots came three to a
    // line: its arrays shrank to 31.5 MiB, below `SHARED_REGION_MIN`, so
    // it grew to 450k and kept one shared region, which moved both
    // digests. The second fill pass, which seats an evicted key in a free
    // lane of its line, moved the layout digest again and left the spans
    // alone. Seven lanes to a 128-byte bucket shrank 450k's arrays to
    // 30.8 MiB, so it grew to 500k, which moved both digests again. Sorted
    // buckets, filled in one pass, moved the layout digest again and left
    // the spans alone. Spans counted in buckets, and a last bucket that
    // seats seven keys, moved both digests again.
    let pairs = datasets::generate_pairs(datasets::Dataset::Fb, 500_000, 7);
    for build_threads in [1, 2] {
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                build_threads,
                ..Default::default()
            },
        );
        let spans = idx.directory_spans();
        // 128 bytes a bucket.
        let bytes: usize = spans.iter().map(|s| s.1 * 128).sum();
        assert!(bytes >= SHARED_REGION_MIN, "{bytes} B is one shared region");
        assert_eq!(idx.learned_layout_digest(), 0x3873_6fd3_0e22_6cfb);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(first, cap, size) in &spans {
            for x in [first, cap as u64, size as u64] {
                for b in x.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 0x78f1_7953_a0d5_2748, "directory_spans moved");
    }
}
