//! Concurrent scan invariants: range and scan results must be sorted,
//! duplicate-free, within bounds, and must contain every key that was
//! stably present for the whole scan — across all indexes, under
//! concurrent writers.

use alt_index::AltIndex;
use art::Art;
use baselines::{AlexLike, FinedexLike, LippLike, XIndexLike};
use index_api::{BulkLoad, ConcurrentIndex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Stable keys are even multiples of 8 (never touched); writers churn
/// odd offsets around them.
fn scan_under_churn<I: ConcurrentIndex + 'static>(idx: Arc<I>) {
    let stable: Vec<(u64, u64)> = (1..=20_000u64).map(|i| (i * 8, i)).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3u64)
        .map(|t| {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = datasets::rng::SplitMix64::new(t + 100);
                while !stop.load(Ordering::Relaxed) {
                    let k = (rng.next_below(20_000) + 1) * 8 + 1 + t * 2;
                    if rng.next_below(2) == 0 {
                        let _ = idx.insert(k, k);
                    } else {
                        let _ = idx.remove(k);
                    }
                }
            })
        })
        .collect();

    let mut out = Vec::new();
    for round in 0..60 {
        let lo = (round % 50) * 1_000 + 1;
        let hi = lo + 40_000;
        out.clear();
        idx.range(lo, hi, &mut out);
        // Sorted, unique, in-bounds.
        for w in out.windows(2) {
            assert!(w[0].0 < w[1].0, "{}: unsorted/dup at {:?}", idx.name(), w);
        }
        assert!(out.iter().all(|&(k, _)| k >= lo && k <= hi));
        // Every stable key in range must be present with its value.
        let got: std::collections::HashMap<u64, u64> = out.iter().copied().collect();
        for &(k, v) in stable.iter().filter(|&&(k, _)| k >= lo && k <= hi) {
            assert_eq!(
                got.get(&k),
                Some(&v),
                "{}: stable key {k} missing",
                idx.name()
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

macro_rules! scan_tests {
    ($($name:ident: $ty:ty;)*) => {
        $(
            #[test]
            fn $name() {
                let stable: Vec<(u64, u64)> = (1..=20_000u64).map(|i| (i * 8, i)).collect();
                let idx = Arc::new(<$ty>::bulk_load(&stable));
                scan_under_churn(idx);
            }
        )*
    };
}

scan_tests! {
    scan_churn_alt: AltIndex;
    scan_churn_art: Art;
    scan_churn_alex: AlexLike;
    scan_churn_lipp: LippLike;
    scan_churn_xindex: XIndexLike;
    scan_churn_finedex: FinedexLike;
}

/// Short scans (`n = 8`: one small chunk each, many per model) keep
/// crossing a few spans whose keys are on the move between the layers
/// while they stay present. One writer walks those spans and, beside each
/// bulk key, lets a pinned key spill into ART (its slot is taken) and
/// empties the slot again, publishing how many pinned keys are in. The
/// ART residents it piles up overflow the spans' small models, so they
/// retrain under the scans, and each retrain's absorb carries what is
/// still in ART into the new slots — the one thing that moves a present
/// key between the layers; a second writer churns more overflow into the
/// same spans. A scan must return
/// every bulk key and every pinned key published before it began, up to
/// the last key it returned, whichever layer each was in when the chunk's
/// ART read and its slot walk went past (with `--features chaos`, the
/// `scan.chunk.post_art` point holds the two apart).
#[test]
fn short_scans_crossing_spans_under_write_back_and_retrain() {
    use alt_index::AltConfig;
    use std::sync::atomic::AtomicUsize;
    // Unperturbed, a 1 µs scan almost never has a retrain's publish and
    // absorb land between its ART read and its slot walk.
    #[cfg(feature = "chaos")]
    let _schedule = probe::chaos::install_schedule(0x5CA7, 512);

    // Blocks of 160 keys, alternating strides: with a tight ε each block
    // is a model or two, and 160 ART residents retrain it.
    let bulk_key = |block: u64, i: u64| (block << 24) + i * 16 * (1 + block % 3);
    let bulk: Vec<(u64, u64)> = (1..=96)
        .flat_map(|block| (1..=160).map(move |i| (bulk_key(block, i), i)))
        .collect();
    let cfg = AltConfig {
        epsilon: Some(4.0),
        ..Default::default()
    };
    let idx = AltIndex::bulk_load_with(&bulk, cfg);
    // The spans under fire, and the pinned key beside each of their bulk
    // keys: `+2` spills because `+1` took the slot first.
    let hot = 16..=79u64;
    let pinned: Vec<u64> = hot
        .clone()
        .flat_map(|block| (1..=160).map(move |i| bulk_key(block, i) + 2))
        .collect();
    let present_from_start: Vec<u64> = bulk.iter().map(|p| p.0).collect();
    let published = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let mover = s.spawn(|| {
            for (n, &pin) in pinned.iter().enumerate() {
                let filler = pin - 1;
                idx.insert(filler, filler).unwrap();
                idx.insert(pin, pin).unwrap();
                published.store(n + 1, Ordering::Release);
                assert_eq!(idx.remove(filler), Some(filler));
                assert_eq!(idx.get(pin), Some(pin), "pinned key {pin} lost");
            }
        });
        let churner = s.spawn(|| {
            let mut rng = datasets::rng::SplitMix64::new(77);
            while !stop.load(Ordering::Relaxed) {
                let block = hot.start() + rng.next_below(64);
                let k = bulk_key(block, 1 + rng.next_below(160)) + 5 + rng.next_below(8);
                if idx.insert(k, k).is_err() {
                    idx.remove(k);
                }
            }
        });

        let mut out = Vec::new();
        let span = bulk_key(*hot.start() - 1, 100)..bulk_key(*hot.end(), 150);
        let mut rng = datasets::rng::SplitMix64::new(5);
        let mut failure = None;
        while !mover.is_finished() && failure.is_none() {
            let lo = span.start + rng.next_below(span.end - span.start);
            let pinned_in = &pinned[..published.load(Ordering::Acquire)];
            out.clear();
            idx.scan(lo, 8, &mut out);
            let last = out.last().map_or(0, |p| p.0);
            let sorted = out.len() == 8 && out.windows(2).all(|w| w[0].0 < w[1].0);
            // Both key lists are ascending.
            let owed = |keys: &[u64]| {
                let from = keys.partition_point(|&k| k < lo);
                from..keys.partition_point(|&k| k <= last)
            };
            let missing = present_from_start[owed(&present_from_start)]
                .iter()
                .chain(&pinned_in[owed(pinned_in)])
                .find(|&&k| !out.iter().any(|p| p.0 == k));
            if !sorted || out[0].0 < lo || missing.is_some() {
                failure = Some(format!("scan({lo}, 8) = {out:?}, missing {missing:?}"));
            }
        }
        stop.store(true, Ordering::Relaxed);
        mover.join().unwrap();
        churner.join().unwrap();
        assert_eq!(failure, None);
    });
    assert!(idx.retrain_count() > 0, "the pile-up forced no retrain");
    // At rest every pinned key is still there, and in order.
    let mut all = Vec::new();
    idx.range(1, u64::MAX, &mut all);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(pinned
        .iter()
        .all(|&k| all.binary_search_by_key(&k, |p| p.0).is_ok()));
}

/// `scan` appends, like `range`: whatever `out` held stays in front, and
/// the count returned is the number appended — on every index, through
/// the router (a scan that crosses shards), and when it comes up short.
#[test]
fn scan_appends_to_a_non_empty_out() {
    let pairs: Vec<(u64, u64)> = (1..=4_000u64).map(|i| (i * 8, i)).collect();
    let indexes: Vec<Box<dyn ConcurrentIndex>> = vec![
        Box::new(AltIndex::bulk_load(&pairs)),
        Box::new(Art::bulk_load(&pairs)),
        Box::new(AlexLike::bulk_load(&pairs)),
        Box::new(LippLike::bulk_load(&pairs)),
        Box::new(XIndexLike::bulk_load(&pairs)),
        Box::new(FinedexLike::bulk_load(&pairs)),
        Box::new(region::RegionIndex::<AltIndex>::bulk_load(&pairs)),
    ];
    for idx in &indexes {
        // 990..1030 straddles the router's first shard boundary (rank 1000).
        for (from, n) in [(0usize, 5usize), (990, 40), (3_990, 40), (100, 0)] {
            let mut out = vec![(u64::MAX, 1), (3, 2)];
            let want = &pairs[from..(from + n).min(pairs.len())];
            assert_eq!(
                idx.scan(pairs[from].0 - 1, n, &mut out),
                want.len(),
                "{}",
                idx.name()
            );
            assert_eq!(out[..2], [(u64::MAX, 1), (3, 2)], "{}", idx.name());
            assert_eq!(&out[2..], want, "{} from rank {from}", idx.name());
        }
    }
}

/// scan(lo, n) must equal the first n entries of range(lo, MAX) at rest.
#[test]
fn scan_equals_range_prefix_at_rest() {
    let pairs = datasets::generate_pairs(datasets::Dataset::Longlat, 30_000, 4);
    let indexes: Vec<Box<dyn ConcurrentIndex>> = vec![
        Box::new(AltIndex::bulk_load(&pairs)),
        Box::new(Art::bulk_load(&pairs)),
        Box::new(AlexLike::bulk_load(&pairs)),
        Box::new(LippLike::bulk_load(&pairs)),
        Box::new(XIndexLike::bulk_load(&pairs)),
        Box::new(FinedexLike::bulk_load(&pairs)),
    ];
    let mut rng = datasets::rng::SplitMix64::new(8);
    for _ in 0..100 {
        let lo = pairs[rng.next_below(pairs.len() as u64) as usize].0 + rng.next_below(3);
        for idx in &indexes {
            let mut scanned = Vec::new();
            idx.scan(lo, 37, &mut scanned);
            let mut ranged = Vec::new();
            idx.range(lo, u64::MAX, &mut ranged);
            ranged.truncate(37);
            assert_eq!(scanned, ranged, "{} from {lo}", idx.name());
        }
    }
}
