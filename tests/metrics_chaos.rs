//! Acceptance test for the ISSUE 2 observability work: a chaos-perturbed
//! concurrent run must light up the retry counters the telemetry exists
//! to expose — slot read retries (slot-version protocol, §III-E), OLC
//! restarts (ART-OPT layer), and scan directory-epoch retries (§III-F
//! retrain vs scan validation) — and the two counters that say what the
//! scans did, chunks executed and ART entries read. If those stay zero
//! either the hooks fell off the hot paths or the chaos schedule stopped
//! reaching them; both are regressions this test pins down.
//!
//! Run with: `cargo test --features "chaos metrics" --test metrics_chaos`
#![cfg(all(feature = "chaos", feature = "metrics"))]

use alt_index::AltIndex;
use index_api::BulkLoad;
use probe::metrics::Counter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// One chaos round: updaters, readers, scanners, and a retrain-driving
/// insert burst all hammering the same index.
fn run_round(seed: u64) {
    let _guard = probe::chaos::install_schedule(seed, 512);

    // Stride-1000 bulk keys leave slot gaps; the dense burst below both
    // collides into occupied slots (ART overflow -> retrains) and keeps
    // slot writers active for readers to trip over.
    let pairs: Vec<(u64, u64)> = (1..=40_000u64).map(|i| (i * 1_000, i)).collect();
    let idx = Arc::new(AltIndex::bulk_load(&pairs));

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(5));
    let mut handles = Vec::new();

    // Updaters: keep slot versions churning on the bulk keys.
    for t in 0..2u64 {
        let idx = Arc::clone(&idx);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut v = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for i in (1 + t..=4_000u64).step_by(2) {
                    let _ = idx.update(i * 1_000, v);
                    v = v.wrapping_add(1);
                }
            }
        }));
    }

    // Readers: optimistic slot reads on exactly the keys being updated.
    {
        let idx = Arc::clone(&idx);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            while !stop.load(Ordering::Relaxed) {
                for i in 1..=4_000u64 {
                    std::hint::black_box(idx.get(i * 1_000));
                }
            }
        }));
    }

    // Scanners: ranges spanning the burst region, racing the directory
    // swaps the inserter's retrains publish.
    {
        let idx = Arc::clone(&idx);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut out = Vec::new();
            let mut lo = 1u64;
            while !stop.load(Ordering::Relaxed) {
                idx.range(lo, lo + 2_000_000, &mut out);
                lo = (lo + 500_000) % 20_000_000 + 1;
            }
        }));
    }

    // Inserter (this thread): a dense burst into one span overflows to
    // ART and drives retrains; the scans above must revalidate across
    // each directory swap.
    barrier.wait();
    for k in (10_000_001..=10_060_000u64).filter(|k| k % 1_000 != 0) {
        let _ = idx.insert(k, k);
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn chaos_run_reports_hot_path_retries() {
    let before = probe::metrics::snapshot();
    let wanted = [
        Counter::SlotReadRetry,
        Counter::OlcRestart,
        Counter::ScanEpochRetry,
        // Where a scan's time went: chunks run, ART entries they read.
        Counter::ScanChunk,
        Counter::ScanArtKey,
    ];

    // One round is normally enough; allow a few reseeded rounds so the
    // assertion is about the hooks, not one schedule's luck.
    let mut rounds = 0u64;
    loop {
        run_round(0xC0FFEE + rounds);
        rounds += 1;
        let delta = probe::metrics::snapshot().delta(&before);
        if wanted.iter().all(|&c| delta.get(c) > 0) || rounds == 6 {
            break;
        }
    }

    let delta = probe::metrics::snapshot().delta(&before);
    for &c in &wanted {
        assert!(
            delta.get(c) > 0,
            "{} stayed zero over {rounds} chaos round(s):\n{}",
            c.name(),
            delta.render()
        );
    }
    // The telemetry also has to see the structural work the rounds did.
    assert!(
        delta.get(Counter::RetrainAttempt) > 0,
        "burst never drove a retrain:\n{}",
        delta.render()
    );
}
