//! Scan-under-mutation stress: range scans and point reads race writer
//! threads that grow, shrink and replace the nodes under them. The scans
//! must never return a torn pair (value not matching the key's committed
//! value) and never skip a key that was committed before the scan began.

use art::Art;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Every value committed anywhere in this test is `key ^ MAGIC`, so a
/// torn key/value pairing is detectable from the pair alone.
const MAGIC: u64 = 0xDEAD_BEEF_CAFE_F00D;

#[test]
fn scans_racing_inserts_see_no_torn_or_skipped_pairs() {
    let art = Arc::new(Art::new());

    // Committed cluster: keys sharing 4 high bytes, so the nodes the
    // writers replace sit deep under a compressed prefix.
    let base = 0x0A0B_0C0D_0000_0000u64;
    let committed: Vec<u64> = (1..=3_000u64).map(|i| base + i * 32).collect();
    for &k in &committed {
        art.insert(k, k ^ MAGIC);
    }
    // Root fanout, so the cluster hangs below an internal root.
    for i in 1..=32u64 {
        art.insert(i << 56 | 0x77, (i << 56 | 0x77) ^ MAGIC);
    }
    let lo = committed[0];
    let hi = *committed.last().unwrap();

    let writers = 4usize;
    let scanners = 4usize;
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(writers + scanners));

    std::thread::scope(|s| {
        // Writers: insert fresh odd-offset keys inside [lo, hi], forcing
        // expansions under the scanners' feet.
        let mut writer_handles = Vec::new();
        for t in 0..writers as u64 {
            let art = Arc::clone(&art);
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop);
            writer_handles.push(s.spawn(move || {
                barrier.wait();
                let mut mine = Vec::new();
                for i in 0..12_000u64 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Odd offsets between the committed stride-32 keys,
                    // inside [lo, hi]; `t*2+1` keeps the writers' key sets
                    // disjoint.
                    let k = lo + i * 8 + t * 2 + 1;
                    if k >= hi {
                        break;
                    }
                    if art.insert(k, k ^ MAGIC) {
                        mine.push(k);
                    }
                }
                mine
            }));
        }

        // Scanners: sliding sub-windows over the cluster. Checked per
        // scan: strict ascending order, no torn pair, and every
        // pre-committed key inside the window present.
        let mut scan_handles = Vec::new();
        for sid in 0..scanners as u64 {
            let art = Arc::clone(&art);
            let committed = &committed;
            let barrier = Arc::clone(&barrier);
            scan_handles.push(s.spawn(move || {
                barrier.wait();
                let mut out = Vec::new();
                for round in 0..400u64 {
                    let wi = ((sid * 997 + round * 131) % 2_900) as usize;
                    let wlo = committed[wi];
                    let whi = committed[wi + 100];
                    out.clear();
                    art.range(wlo, whi, &mut out);
                    for w in out.windows(2) {
                        assert!(w[0].0 < w[1].0, "scan out of order: {w:?}");
                    }
                    for &(k, v) in &out {
                        assert!(
                            (wlo..=whi).contains(&k),
                            "scan leaked key {k:#x} outside [{wlo:#x},{whi:#x}]"
                        );
                        assert_eq!(v, k ^ MAGIC, "torn pair for key {k:#x}");
                    }
                    let mut it = out.iter();
                    for &ck in &committed[wi..=wi + 100] {
                        assert!(
                            it.any(|&(k, _)| k == ck),
                            "scan skipped committed key {ck:#x} in round {round}"
                        );
                    }
                    // Interleave point reads so scans and descents
                    // contend on the same subtree versions.
                    let probe = committed[(wi * 7 + 13) % committed.len()];
                    assert_eq!(
                        art.get(probe),
                        Some(probe ^ MAGIC),
                        "point read of {probe:#x}"
                    );
                }
            }));
        }

        for h in scan_handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let mut inserted: Vec<u64> = Vec::new();
        for h in writer_handles {
            inserted.extend(h.join().unwrap());
        }

        // Quiesce: one full scan sees every committed and inserted key,
        // still untorn.
        let mut fin = Vec::new();
        art.range(lo, hi, &mut fin);
        for &(k, v) in &fin {
            assert_eq!(v, k ^ MAGIC);
        }
        let keys: std::collections::BTreeSet<u64> = fin.iter().map(|&(k, _)| k).collect();
        for &k in committed.iter() {
            assert!(keys.contains(&k), "final scan lost committed {k:#x}");
        }
        for &k in &inserted {
            assert!(keys.contains(&k), "final scan lost inserted {k:#x}");
        }
        assert_eq!(keys.len(), committed.len() + inserted.len());
    });
}

/// Limited scans walk the children of eight sibling nodes by position
/// while a writer takes each of those nodes through every type and back
/// (N4 → N16 → N48 → N256 → … → N4): inserts shift a sorted node's
/// entries right under the scan, removes shift them left (the move that
/// lets an unvalidated walk step over an entry), and every grow or
/// shrink replaces the node the scan is positioned in. A failed
/// validation resumes the scan after the last key it delivered — so
/// what it returns must still be sorted, duplicate-free, untorn, no
/// longer than its limit, and must hold every stable key up to the last
/// one returned.
#[test]
fn limited_scans_racing_grow_and_shrink_of_their_node_keep_every_stable_key() {
    let art = Arc::new(Art::new());
    // Node `n` sits at byte 6 below `base | n << 16`; its children are
    // leaves. Three stable children each, so it can shrink back to an N4.
    let base = 0x0102_0304_0500_0000u64;
    let key = |n: u64, b: u64| base | n << 16 | b << 8 | 0x42;
    let stable: Vec<u64> = (0..8)
        .flat_map(|n| [0x40, 0x80, 0xC0].map(|b| key(n, b)))
        .collect();
    for &k in &stable {
        art.insert(k, k ^ MAGIC);
    }

    let scanners = 3usize;
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(1 + scanners));
    std::thread::scope(|s| {
        let writer = {
            let (art, stop, barrier) = (Arc::clone(&art), Arc::clone(&stop), Arc::clone(&barrier));
            s.spawn(move || {
                barrier.wait();
                // Some 60 bytes around and between the stable ones, in an
                // order that keeps inserting below entries already there.
                let churn: Vec<u64> = (0..64)
                    .map(|i| (i * 67 + 1) % 256)
                    .filter(|b| b % 0x40 != 0)
                    .collect();
                let mut cycles = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    for n in 0..8 {
                        for &b in &churn {
                            assert!(art.insert(key(n, b), key(n, b) ^ MAGIC));
                        }
                    }
                    assert_eq!(art.structure_stats().n256, 9, "the nodes never grew");
                    for n in 0..8 {
                        for &b in &churn {
                            assert_eq!(art.remove(key(n, b)), Some(key(n, b) ^ MAGIC));
                        }
                    }
                    cycles += 1;
                }
                cycles
            })
        };
        let scans: Vec<_> = (0..scanners)
            .map(|sid| {
                let (art, barrier, stable) = (Arc::clone(&art), Arc::clone(&barrier), &stable);
                s.spawn(move || {
                    barrier.wait();
                    let mut out = Vec::new();
                    for round in 0..40_000usize {
                        let lo = stable[(round * 7 + sid) % stable.len()] - (round % 2) as u64;
                        let limit = [1, 3, 10, 600][round % 4];
                        out.clear();
                        assert_eq!(art.scan_n(lo, limit, &mut out), out.len());
                        assert!(out.len() <= limit, "limit {limit} overrun: {}", out.len());
                        for w in out.windows(2) {
                            assert!(w[0].0 < w[1].0, "scan out of order: {w:x?}");
                        }
                        for &(k, v) in &out {
                            assert!(k >= lo, "scan leaked {k:#x} below {lo:#x}");
                            assert_eq!(v, k ^ MAGIC, "torn pair for key {k:#x}");
                        }
                        // A scan that stopped at its limit vouches for the
                        // keys up to its last one; a shorter one ran to
                        // the end of the tree.
                        let upto = if out.len() == limit {
                            out[limit - 1].0
                        } else {
                            u64::MAX
                        };
                        let mut it = out.iter();
                        for &sk in stable.iter().filter(|&&sk| sk >= lo && sk <= upto) {
                            assert!(
                                it.any(|&(k, _)| k == sk),
                                "scan_n({lo:#x}, {limit}) skipped stable key {sk:#x}"
                            );
                        }
                    }
                })
            })
            .collect();
        // Stop the writer before looking at the results, or a scanner's
        // failed assertion would leave it (and the scope) running.
        let scans: Vec<_> = scans.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        assert!(
            writer.join().unwrap() > 0,
            "the writer never completed a cycle"
        );
        for result in scans {
            result.unwrap();
        }
    });
}

/// Scans across a cluster whose compressed prefix a writer shortens and
/// lengthens in place: each churn key leaves the cluster's prefix at a
/// different byte, so its insert is a prefix extraction that hangs the
/// cluster's node under a new Node4 with a shorter prefix, and its remove
/// a merge that gives the bytes back. A walk that believed a prefix read
/// while one changed would place the cluster's interval at the wrong
/// depth and step over it. Windows start below, inside and above the
/// cluster; each must return every stable key it covers, sorted and
/// untorn, and nothing but stable and churn keys.
#[test]
fn scans_racing_in_place_prefix_changes_keep_every_stable_key() {
    let art = Arc::new(Art::new());
    // Below the root's byte 0x01, one Node16 with the six-byte prefix
    // 02 03 04 05 00 00 holds the cluster; short scans reach its prefix
    // often.
    let base = 0x0102_0304_0500_0000u64;
    let stable: Vec<u64> = (1..=16u64).map(|i| base + i * 7).collect();
    for &k in &stable {
        art.insert(k, k ^ MAGIC);
    }
    let churn = [
        0x0102_FF00_0000_0001u64, // leaves the prefix at byte 2
        0x0102_0399_0000_0001,    // at byte 3
        0x0102_0304_0566_0001,    // at byte 5
    ];
    let (first, last) = (stable[0], *stable.last().unwrap());
    let windows = [
        (base, last),
        (first + 1, base | 0xFFFF),
        (0x0100_0000_0000_0000, 0x0102_FFFF_FFFF_FFFF),
        (stable[8], u64::MAX),
        (0, first),
    ];
    let scanners = 2usize;
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(1 + scanners));
    std::thread::scope(|s| {
        let writer = {
            let (art, stop, barrier) = (Arc::clone(&art), Arc::clone(&stop), Arc::clone(&barrier));
            s.spawn(move || {
                barrier.wait();
                let mut cycles = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    for &k in &churn {
                        assert!(art.insert(k, k ^ MAGIC));
                    }
                    for &k in churn.iter().rev() {
                        assert_eq!(art.remove(k), Some(k ^ MAGIC));
                    }
                    cycles += 1;
                }
                cycles
            })
        };
        let scans: Vec<_> = (0..scanners)
            .map(|sid| {
                let (art, barrier, stable) = (Arc::clone(&art), Arc::clone(&barrier), &stable);
                s.spawn(move || {
                    barrier.wait();
                    let mut out = Vec::new();
                    for round in 0..100_000usize {
                        let (lo, hi) = windows[(round + sid) % windows.len()];
                        out.clear();
                        art.range(lo, hi, &mut out);
                        for w in out.windows(2) {
                            assert!(w[0].0 < w[1].0, "scan out of order: {w:x?}");
                        }
                        for &(k, v) in &out {
                            assert!((lo..=hi).contains(&k), "scan leaked {k:#x}");
                            assert_eq!(v, k ^ MAGIC, "torn pair for key {k:#x}");
                            assert!(
                                stable.binary_search(&k).is_ok() || churn.contains(&k),
                                "scan invented key {k:#x}"
                            );
                        }
                        let mut it = out.iter();
                        for &sk in stable.iter().filter(|&&sk| (lo..=hi).contains(&sk)) {
                            assert!(
                                it.any(|&(k, _)| k == sk),
                                "range({lo:#x}, {hi:#x}) skipped stable key {sk:#x}"
                            );
                        }
                    }
                })
            })
            .collect();
        // Stop the writer before looking at the results, or a scanner's
        // failed assertion would leave it (and the scope) running.
        let scans: Vec<_> = scans.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        assert!(
            writer.join().unwrap() > 0,
            "the writer never completed a cycle"
        );
        for result in scans {
            result.unwrap();
        }
    });
    let mut all = Vec::new();
    art.range(0, u64::MAX, &mut all);
    assert_eq!(all.iter().map(|&(k, _)| k).collect::<Vec<_>>(), stable);
}
