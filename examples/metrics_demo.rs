//! Drive the hot-path metrics subsystem end to end from the public API.
//!
//! ```sh
//! cargo run --release --example metrics_demo --features metrics
//! cargo run --release --example metrics_demo --features "metrics chaos"
//! ```
//!
//! Builds an ALT-index, runs a concurrent read/insert/scan mix that
//! exercises every instrumented layer (slot versions, scans, retrains,
//! ART OLC), then prints the
//! [`probe::metrics::MetricsSnapshot`] delta for the measured region.
//! With `chaos` also enabled, a seeded schedule perturbs the
//! interleavings so the retry counters light up even on an otherwise
//! quiet machine.

use alt::alt_index::AltIndex;
use std::sync::Arc;

fn main() {
    // Perturbs nothing unless the `chaos` feature is on too.
    let _guard = probe::chaos::install_schedule(0xA17_1DE, 64);

    // Quadratic keys are hard for linear models: the directory holds many
    // GPL models and inserts between the squares conflict into ART.
    let pairs: Vec<(u64, u64)> = (1..=100_000u64).map(|i| (i * i, i)).collect();
    let idx = Arc::new(AltIndex::bulk_load_default(&pairs));

    let before = probe::metrics::snapshot();

    // Two insert threads hammering one dense region (drives overflow
    // inserts into ART and triggers retrains), a
    // point-read thread, and a scan thread racing the retrains.
    let hot = 2_500_000_000u64; // inside the bulk range (squares reach 1e10)
    let mut handles = Vec::new();
    for t in 0..2u64 {
        let idx = Arc::clone(&idx);
        handles.push(std::thread::spawn(move || {
            for i in 0..60_000u64 {
                let k = hot + 1 + (i * 2 + t) * 3;
                let _ = idx.insert(k, i);
            }
        }));
    }
    {
        let idx = Arc::clone(&idx);
        handles.push(std::thread::spawn(move || {
            for i in 1..=150_000u64 {
                let k = (i % 100_000 + 1).pow(2);
                std::hint::black_box(idx.get(k));
            }
        }));
    }
    {
        let idx = Arc::clone(&idx);
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            for i in 0..1_500u64 {
                out.clear();
                idx.range(hot + i * 100, hot + i * 100 + 50_000, &mut out);
                std::hint::black_box(out.len());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let delta = probe::metrics::snapshot().delta(&before);
    println!("metrics for the measured region:\n{}", delta.render());

    assert!(
        delta.get(probe::metrics::Counter::RetrainCompleted) > 0,
        "the overflow inserts into the dense region must have retrained it"
    );
    println!(
        "total events recorded: {} (feature `metrics` on)",
        delta.total_events()
    );
}
