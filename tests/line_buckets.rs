//! A line is a bucket (DESIGN.md §3): a key takes a lane of its predicted
//! bucket (seven lanes in 128 bytes, its keys kept ascending), and
//! goes to ART only when the bucket is full. On 1M generated keys, seed 1,
//! every other key bulk-loaded and the others withheld (the benchmark's
//! `Alternate` layout), these pin what that buys, read through
//! `AltIndex::stats()`, and that gets, absent keys and scans stay exact.
//!
//! `cargo test --test line_buckets -- --nocapture` prints the bulk-loaded
//! ART share on fb, osm, longlat and libio.

use alt_index::AltIndex;
use datasets::Dataset;
use std::collections::BTreeMap;

const GENERATED: usize = 1_000_000;
const SEED: u64 = 1;

/// Every other generated pair bulk-loaded, and the keys in between,
/// which the index does not hold.
fn alternate(ds: Dataset) -> (Vec<(u64, u64)>, Vec<u64>) {
    let all = datasets::generate_pairs(ds, GENERATED, SEED);
    let bulk = all.iter().step_by(2).copied().collect();
    let absent = all.iter().skip(1).step_by(2).map(|p| p.0).collect();
    (bulk, absent)
}

#[test]
fn a_conflict_key_keeps_its_line_and_every_key_is_served() {
    // (dataset, keys in ART after the bulk load): deterministic for the
    // seed, the generator and the build. Three lanes to a 64-byte line
    // left fb 122,345, osm 33,191 and longlat 136,009. Sorted buckets,
    // filled in one pass, seat as many keys per bucket as the two passes
    // before them did, so these did not move. A model's last bucket
    // seats seven keys since models predict buckets, not the positions
    // its plan left in it: fb was 58,238, osm 10,918, longlat 122,444.
    for (ds, pinned_in_art) in [
        (Dataset::Fb, 56_843),
        (Dataset::Osm, 10_859),
        (Dataset::Longlat, 122_107),
        (Dataset::Libio, 0),
    ] {
        let (bulk, absent) = alternate(ds);
        let idx = AltIndex::bulk_load_default(&bulk);
        let s = idx.stats();
        println!(
            "{:8} {} keys loaded: ART share {:.3} ({} keys), learned share {:.3}",
            ds.name(),
            bulk.len(),
            1.0 - s.learned_share(),
            s.keys_in_art,
            s.learned_share()
        );
        assert_eq!(s.keys_in_learned + s.keys_in_art, bulk.len());
        assert_eq!(s.keys_in_art, pinned_in_art, "{}", ds.name());
        match ds {
            Dataset::Fb => assert!(s.learned_share() >= 0.85, "fb {}", s.learned_share()),
            Dataset::Libio => assert_eq!(s.learned_share(), 1.0),
            _ => {}
        }

        // Every ART resident is served: its line's verdict sends the get
        // to ART, which has it.
        let in_art: Vec<(u64, u64)> = bulk
            .iter()
            .copied()
            .filter(|&(k, _)| idx.probe_art_hops(k).is_some())
            .collect();
        assert_eq!(in_art.len(), s.keys_in_art, "{}", ds.name());
        for &(k, v) in &in_art {
            assert_eq!(idx.get(k), Some(v), "{} ART key {k}", ds.name());
        }
        // So is every slot resident, whichever lane it took, and every
        // absent key reads absent, by the scalar get and the batch ring.
        let keys: Vec<u64> = bulk.iter().map(|p| p.0).collect();
        let mut got = vec![None; keys.len()];
        idx.get_batch_amac(&keys, &mut got);
        for (&(k, v), g) in bulk.iter().zip(&got) {
            assert_eq!(*g, Some(v), "{} batch key {k}", ds.name());
        }
        for &k in bulk.iter().map(|p| &p.0).step_by(7) {
            assert!(idx.get(k).is_some(), "{} key {k}", ds.name());
        }
        let mut got = vec![Some(0); absent.len()];
        idx.get_batch_amac(&absent, &mut got);
        for (&k, g) in absent.iter().zip(&got) {
            assert_eq!(*g, None, "{} absent key {k} (batch)", ds.name());
            assert_eq!(idx.get(k), None, "{} absent key {k}", ds.name());
        }
    }
}

#[test]
fn scans_read_each_bucket_in_lane_order_through_any_churn() {
    // A bucket keeps its live keys in lanes `0..n` ascending, and the scan
    // reads those lanes as they are, with no sort: a bucket out of key
    // order would bring a scan back out of order. So every scan here comes
    // back ascending and equal to the oracle, after the bulk load and
    // after churn that shifts keys both ways.
    let (bulk, absent) = alternate(Dataset::Fb);
    let idx = AltIndex::bulk_load_default(&bulk);
    let mut oracle: BTreeMap<u64, u64> = bulk.iter().copied().collect();
    let check = |idx: &AltIndex, oracle: &BTreeMap<u64, u64>, what: &str| {
        let mut got = Vec::new();
        idx.range(1, u64::MAX, &mut got);
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "{what}: the whole range is out of key order"
        );
        let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        assert!(
            got == want,
            "{what}: the whole range differs from the oracle"
        );
        for &lo in absent
            .iter()
            .step_by(4_999)
            .chain(oracle.keys().step_by(4_999))
        {
            got.clear();
            idx.scan_n(lo, 100, &mut got);
            let want: Vec<(u64, u64)> = oracle
                .range(lo..)
                .take(100)
                .map(|(&k, &v)| (k, v))
                .collect();
            assert_eq!(got, want, "{what}: scan_n from {lo}");
        }
    };
    check(&idx, &oracle, "bulk load");

    // Churn: removals, each shifting the keys above it down a lane, then
    // withheld keys in descending order, each shifting the keys above it
    // up (or, in a full bucket, going to ART).
    for &(k, _) in bulk.iter().step_by(5) {
        assert!(idx.remove(k).is_some());
        oracle.remove(&k);
    }
    for &k in absent.iter().step_by(3).rev() {
        idx.insert(k, k ^ 1).unwrap();
        oracle.insert(k, k ^ 1);
    }
    check(&idx, &oracle, "after churn");
}
